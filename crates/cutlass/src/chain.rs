//! N-way persistent kernels: fusing chains of more than two GEMMs.
//!
//! The paper notes that "our persistent kernels can fuse more than two
//! GEMMs/Convs, which can further improve the performance by saving
//! intermediate memory access and kernel launch" (Section 4.1.3), and
//! that multi-GEMM fusion works "by extending the persistent kernel
//! templates and duplicating the GEMM pipelines" (Section 3.1.1). This
//! module implements that extension: a [`PersistentGemmChain`] of `N ≥ 2`
//! stages sharing one M tiling, with per-stage threadblock-residence
//! checks and a combined resource model.

use serde::{Deserialize, Serialize};

use bolt_gpu_sim::{
    simulate_kernel, BlockResources, GpuArch, KernelProfile, KernelTime, PipelineFlops,
};
use bolt_tensor::Tensor;

use crate::b2b::Residence;
use crate::epilogue::Epilogue;
use crate::error::KernelError;
use crate::gemm::{GemmKernel, GemmProblem};
use crate::perf;
use crate::template::GemmConfig;
use crate::tiles::TileShape;
use crate::Result;

/// One stage of a persistent chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainStage {
    /// This stage's GEMM problem (`m` equal across the chain; `k` equal
    /// to the previous stage's `n`).
    pub problem: GemmProblem,
    /// Template parameters (threadblock N pinned to the stage's N).
    pub config: GemmConfig,
    /// Stage epilogue, computed in fast memory for all but the last
    /// stage.
    pub epilogue: Epilogue,
}

/// A persistent kernel fusing `N ≥ 2` chained GEMMs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistentGemmChain {
    /// The fused stages, in dataflow order.
    pub stages: Vec<ChainStage>,
    /// Intermediate-residence design (shared by every handoff).
    pub residence: Residence,
}

impl PersistentGemmChain {
    /// Builds a chain with residence-satisfying configs, like
    /// [`crate::B2bGemmKernel::with_residence`] but for any length.
    pub fn with_residence(
        problems: &[GemmProblem],
        epilogues: &[Epilogue],
        residence: Residence,
    ) -> Result<Self> {
        if problems.len() < 2 {
            return Err(KernelError::unsupported("a chain needs at least two GEMMs"));
        }
        if problems.len() != epilogues.len() {
            return Err(KernelError::unsupported("one epilogue per GEMM required"));
        }
        let max_n = problems.iter().map(|p| p.n).max().unwrap_or(0);
        let tb_m = if max_n >= 128 { 32 } else { 64 };
        let stages = problems
            .iter()
            .zip(epilogues)
            .map(|(&problem, &epilogue)| {
                let mut config = GemmConfig::turing_default();
                config.threadblock = TileShape::new(tb_m, problem.n, 32.min(problem.n.max(8)));
                config.warp = match residence {
                    Residence::RegisterFile => {
                        TileShape::new((tb_m / 4).max(16), problem.n, config.threadblock.k)
                    }
                    Residence::SharedMemory => {
                        TileShape::new(32, (problem.n / 2).clamp(8, 64), config.threadblock.k)
                    }
                };
                ChainStage {
                    problem,
                    config,
                    epilogue,
                }
            })
            .collect();
        Ok(PersistentGemmChain { stages, residence })
    }

    /// Picks RF residence when legal, else shared memory.
    pub fn auto(arch: &GpuArch, problems: &[GemmProblem], epilogues: &[Epilogue]) -> Result<Self> {
        let rf = Self::with_residence(problems, epilogues, Residence::RegisterFile)?;
        if rf.validate(arch).is_ok() {
            return Ok(rf);
        }
        let sm = Self::with_residence(problems, epilogues, Residence::SharedMemory)?;
        sm.validate(arch)?;
        Ok(sm)
    }

    /// Number of fused stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the chain has no stages (never constructible via the
    /// public constructors).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Combined per-block resources: in the RF design every stage's
    /// accumulator fragment is live at the handoff with its successor;
    /// the smem design keeps only the largest stage plus the largest
    /// staging buffer.
    pub fn block_resources(&self) -> BlockResources {
        let elt = self.stages[0].problem.element;
        let threads = self
            .stages
            .iter()
            .map(|s| s.config.threads())
            .max()
            .unwrap_or(32);
        let accs: Vec<usize> = self
            .stages
            .iter()
            .map(|s| s.config.warp.mn() / 32)
            .collect();
        let frags = {
            let c = &self.stages[0].config;
            2 * (c.warp.m + c.warp.n) * c.instruction.k / 32 * elt.size_bytes().max(2) / 4
        };
        let regs = match self.residence {
            // Peak pressure: the largest adjacent accumulator pair.
            Residence::RegisterFile => accs
                .windows(2)
                .map(|w| w[0] + w[1])
                .max()
                .unwrap_or(accs[0]),
            Residence::SharedMemory => accs.into_iter().max().unwrap_or(0),
        } + frags
            + 40;
        let smem_main = self
            .stages
            .iter()
            .map(|s| s.config.smem_bytes(elt))
            .max()
            .unwrap_or(0);
        let staging = match self.residence {
            Residence::RegisterFile => 0,
            Residence::SharedMemory => self
                .stages
                .iter()
                .take(self.stages.len() - 1)
                .map(|s| (s.config.threadblock.m * s.problem.n * elt.size_bytes()) as u32)
                .max()
                .unwrap_or(0),
        };
        BlockResources::new(threads, (regs as u32).min(512), smem_main + staging)
    }

    /// Validates chaining, residence, and hardware capacity across the
    /// whole chain.
    ///
    /// # Errors
    ///
    /// As for [`crate::B2bGemmKernel::validate`].
    pub fn validate(&self, arch: &GpuArch) -> Result<()> {
        for pair in self.stages.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if b.problem.m != a.problem.m {
                return Err(KernelError::unsupported("all chain stages must share M"));
            }
            if b.problem.k != a.problem.n {
                return Err(KernelError::unsupported(format!(
                    "stage K ({}) must equal previous stage N ({})",
                    b.problem.k, a.problem.n
                )));
            }
            if b.config.threadblock.m != a.config.threadblock.m {
                return Err(KernelError::unsupported(
                    "all stages must share ThreadBlock_M",
                ));
            }
        }
        for stage in &self.stages {
            if stage.config.threadblock.n != stage.problem.n {
                return Err(KernelError::unsupported(
                    "threadblock residence: ThreadBlock_N must equal GEMM_N at every stage",
                ));
            }
            if self.residence == Residence::RegisterFile && stage.config.warp.n != stage.problem.n {
                return Err(KernelError::unsupported(
                    "RF residence requires Warp_N = GEMM_N at every stage",
                ));
            }
        }
        let res = self.block_resources();
        if res.regs_per_thread > arch.max_regs_per_thread {
            return Err(KernelError::illegal(format!(
                "chain needs {} regs/thread (> {})",
                res.regs_per_thread, arch.max_regs_per_thread
            )));
        }
        if res.smem_bytes > arch.max_smem_per_block {
            return Err(KernelError::illegal(format!(
                "chain needs {} B smem (> {})",
                res.smem_bytes, arch.max_smem_per_block
            )));
        }
        Ok(())
    }

    /// Functional execution: `weights[i]` is stage `i`'s `(k_i, n_i)`
    /// operand, `biases[i]` its optional bias. Numerically identical to
    /// running the epilogue-fused stages sequentially.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched operands.
    pub fn run(
        &self,
        a: &Tensor,
        weights: &[&Tensor],
        biases: &[Option<&Tensor>],
    ) -> Result<Tensor> {
        if weights.len() != self.stages.len() || biases.len() != self.stages.len() {
            return Err(KernelError::unsupported(
                "one weight/bias per stage required",
            ));
        }
        let mut cur = a.clone();
        for ((stage, w), b) in self.stages.iter().zip(weights).zip(biases) {
            let kernel = GemmKernel {
                problem: stage.problem,
                config: stage.config,
                epilogue: stage.epilogue,
            };
            let (d, _) = kernel.run(&cur, w, *b)?;
            cur = d;
        }
        Ok(cur)
    }

    /// Allocation-free execution into a caller-provided buffer: stage
    /// intermediates ping-pong between the two reusable scratch buffers
    /// (the software analogue of fast-memory residence), the input is
    /// read in place, and the final stage writes `out` directly.
    /// Bit-identical to [`PersistentGemmChain::run`].
    ///
    /// `a_quantized` asserts that `a` is already exactly representable in
    /// the first stage's element dtype, and `weights_quantized` that every
    /// slice in `weights` is in its stage's (see
    /// [`GemmKernel::run_into`](crate::gemm::GemmKernel::run_into)). A
    /// later stage reads its input in place when the previous stage's
    /// epilogue already rounds to the stage's element dtype.
    ///
    /// `rows` (at most the chain's `m`) is how many leading rows are
    /// live: every stage computes only those rows and zero-fills the
    /// rest of its output, `out` included (see
    /// [`GemmKernel::run_into`](crate::gemm::GemmKernel::run_into)).
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched operands or `rows > m`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_into(
        &self,
        a: &[f32],
        weights: &[&[f32]],
        biases: &[Option<&Tensor>],
        acc: &mut Vec<f32>,
        ping: &mut Vec<f32>,
        pong: &mut Vec<f32>,
        out: &mut [f32],
        rows: usize,
        a_quantized: bool,
        weights_quantized: bool,
    ) -> Result<()> {
        if weights.len() != self.stages.len() || biases.len() != self.stages.len() {
            return Err(KernelError::unsupported(
                "one weight/bias per stage required",
            ));
        }
        let last = self.stages.len() - 1;
        for (i, ((stage, w), b)) in self.stages.iter().zip(weights).zip(biases).enumerate() {
            let kernel = GemmKernel {
                problem: stage.problem,
                config: stage.config,
                epilogue: stage.epilogue,
            };
            let numel = stage.problem.m * stage.problem.n;
            let aq = if i == 0 {
                a_quantized
            } else {
                self.stages[i - 1].epilogue.out_dtype == stage.problem.element
            };
            if i == last {
                let src: &[f32] = if i == 0 {
                    a
                } else if i % 2 == 1 {
                    ping
                } else {
                    pong
                };
                kernel.run_into(src, w, *b, acc, out, rows, aq, weights_quantized)?;
            } else if i == 0 {
                ping.resize(numel, 0.0);
                kernel.run_into(a, w, *b, acc, ping, rows, aq, weights_quantized)?;
            } else if i % 2 == 1 {
                pong.resize(numel, 0.0);
                kernel.run_into(ping, w, *b, acc, pong, rows, aq, weights_quantized)?;
            } else {
                ping.resize(numel, 0.0);
                kernel.run_into(pong, w, *b, acc, ping, rows, aq, weights_quantized)?;
            }
        }
        Ok(())
    }

    /// Performance profile: one launch; only the first stage's `A` and
    /// every stage's weights are read from DRAM; only the last stage's
    /// `D` is written.
    pub fn profile(&self, arch: &GpuArch) -> KernelProfile {
        let elt = self.stages[0].problem.element.size_bytes() as f64;
        let profiles: Vec<KernelProfile> = self
            .stages
            .iter()
            .map(|s| perf::gemm_profile(arch, &s.problem, &s.config, &s.epilogue, None))
            .collect();

        let first = &self.stages[0];
        let grid =
            (first.problem.batch * first.problem.m.div_ceil(first.config.threadblock.m)) as u64;

        let mut flops = PipelineFlops::none();
        let mut weight_bytes = 0.0;
        let mut smem = 0.0;
        let mut eff_num = 0.0;
        let mut eff_den = 0.0;
        for (stage, p) in self.stages.iter().zip(&profiles) {
            flops.tensor_core += p.flops.tensor_core;
            flops.cuda_core += p.flops.cuda_core;
            flops.sfu += p.flops.sfu;
            weight_bytes += (stage.problem.k * stage.problem.n) as f64 * elt;
            smem += p.smem_bytes;
            let w = p.flops.tensor_core + p.flops.cuda_core;
            eff_num += p.mainloop_efficiency * w;
            eff_den += w;
        }
        let staging = match self.residence {
            Residence::SharedMemory => self
                .stages
                .iter()
                .take(self.len() - 1)
                .map(|s| 2.0 * (s.problem.m * s.problem.n) as f64 * elt)
                .sum(),
            Residence::RegisterFile => 0.0,
        };
        let a_bytes = (first.problem.m * first.problem.k) as f64 * elt;
        let last = self.stages.last().expect("non-empty");
        let out_bytes =
            (last.problem.m * last.problem.n) as f64 * last.epilogue.out_dtype.size_bytes() as f64;

        KernelProfile {
            name: format!("persistent_chain_x{}_{}", self.len(), self.residence),
            grid_blocks: grid,
            block: self.block_resources(),
            flops,
            dram_read_bytes: a_bytes + weight_bytes,
            dram_write_bytes: out_bytes,
            smem_bytes: smem + staging,
            dtype: first.problem.element,
            alignment_elems: self
                .stages
                .iter()
                .map(|s| s.config.min_alignment())
                .min()
                .unwrap_or(8),
            bank_conflict_ways: 1.0,
            mainloop_efficiency: eff_num / eff_den.max(1.0),
            pipelined_overlap: perf::pipelined_overlap(&self.stages[0].config),
        }
    }

    /// Simulated time of the fused chain.
    pub fn time(&self, arch: &GpuArch) -> KernelTime {
        simulate_kernel(arch, &self.profile(arch))
    }

    /// Simulated time of the unfused baseline (one epilogue-fused kernel
    /// per stage).
    pub fn unfused_time_us(&self, arch: &GpuArch) -> f64 {
        self.stages
            .iter()
            .map(|s| {
                GemmKernel::new(s.problem, GemmConfig::turing_default(), s.epilogue)
                    .time(arch)
                    .total_us
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_tensor::gemm_ref::gemm_with_epilogue;
    use bolt_tensor::{Activation, DType};

    fn t4() -> GpuArch {
        GpuArch::tesla_t4()
    }

    fn relu() -> Epilogue {
        Epilogue {
            beta: 0.0,
            bias: crate::epilogue::BiasMode::None,
            ..Epilogue::bias_activation(Activation::ReLU, DType::F16)
        }
    }

    fn mlp_chain() -> Vec<GemmProblem> {
        vec![
            GemmProblem::fp16(16384, 64, 256),
            GemmProblem::fp16(16384, 32, 64),
            GemmProblem::fp16(16384, 16, 32),
        ]
    }

    #[test]
    fn three_stage_chain_validates_and_fuses() {
        let eps = vec![relu(); 3];
        let chain = PersistentGemmChain::auto(&t4(), &mlp_chain(), &eps).unwrap();
        assert_eq!(chain.len(), 3);
        let fused = chain.time(&t4()).total_us;
        let unfused = chain.unfused_time_us(&t4());
        let speedup = unfused / fused;
        assert!(
            speedup > 1.3,
            "3-way fusion should beat pairwise-at-most baselines: {speedup:.2}x"
        );
    }

    #[test]
    fn deeper_chains_save_more_than_pairs() {
        // Paper: fusing more than two "can further improve the performance".
        let eps3 = vec![relu(); 3];
        let chain3 = PersistentGemmChain::auto(&t4(), &mlp_chain(), &eps3).unwrap();
        let pair = PersistentGemmChain::auto(&t4(), &mlp_chain()[..2], &eps3[..2]).unwrap();
        let third = GemmKernel::new(mlp_chain()[2], GemmConfig::turing_default(), relu());
        let two_plus_one = pair.time(&t4()).total_us + third.time(&t4()).total_us;
        assert!(
            chain3.time(&t4()).total_us < two_plus_one,
            "{} !< {}",
            chain3.time(&t4()).total_us,
            two_plus_one
        );
    }

    #[test]
    fn chain_matches_sequential_reference() {
        let problems = vec![
            GemmProblem::fp16(48, 16, 24),
            GemmProblem::fp16(48, 8, 16),
            GemmProblem::fp16(48, 4, 8),
        ];
        let eps = vec![relu(); 3];
        let chain =
            PersistentGemmChain::with_residence(&problems, &eps, Residence::RegisterFile).unwrap();
        chain.validate(&t4()).unwrap();
        let a = Tensor::randn(&[48, 24], DType::F16, 1);
        let w: Vec<Tensor> = problems
            .iter()
            .enumerate()
            .map(|(i, p)| Tensor::randn(&[p.k, p.n], DType::F16, 10 + i as u64))
            .collect();
        let w_refs: Vec<&Tensor> = w.iter().collect();
        let fused = chain.run(&a, &w_refs, &[None, None, None]).unwrap();

        let mut cur = a;
        for wi in &w {
            cur =
                gemm_with_epilogue(&cur, wi, None, 1.0, 0.0, Activation::ReLU, DType::F16).unwrap();
        }
        assert_eq!(fused.max_abs_diff(&cur).unwrap(), 0.0);
    }

    #[test]
    fn broken_chains_rejected() {
        let eps = vec![relu(); 2];
        // K mismatch.
        let bad = vec![GemmProblem::fp16(64, 16, 24), GemmProblem::fp16(64, 8, 32)];
        let chain =
            PersistentGemmChain::with_residence(&bad, &eps, Residence::RegisterFile).unwrap();
        assert!(chain.validate(&t4()).is_err());
        // M mismatch.
        let bad_m = vec![GemmProblem::fp16(64, 16, 24), GemmProblem::fp16(32, 8, 16)];
        let chain_m =
            PersistentGemmChain::with_residence(&bad_m, &eps, Residence::RegisterFile).unwrap();
        assert!(chain_m.validate(&t4()).is_err());
        // Too short.
        assert!(
            PersistentGemmChain::with_residence(&bad[..1], &eps[..1], Residence::RegisterFile)
                .is_err()
        );
    }

    #[test]
    fn rf_pressure_grows_with_chain_width() {
        let eps = vec![relu(); 2];
        let wide = vec![
            GemmProblem::fp16(8192, 256, 64),
            GemmProblem::fp16(8192, 192, 256),
        ];
        let chain = PersistentGemmChain::auto(&t4(), &wide, &eps).unwrap();
        assert_eq!(chain.residence, Residence::SharedMemory);
    }
}
