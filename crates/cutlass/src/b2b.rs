//! Persistent kernels: back-to-back GEMM/Conv fusion (paper Section 3.1.1).
//!
//! A persistent kernel computes two (or more) chained GEMMs/Convs in a
//! single launch, keeping the intermediate activation `D0` in fast memory.
//! The legality condition is **threadblock residence**: every output
//! threadblock of the first operator must stay in the same threadblock's
//! memory as the input of the second, which requires
//! `ThreadBlock_N == GEMM_N` for each layer (for Convs,
//! `ThreadBlock_N == output channels`), and for the second Conv a 1×1
//! filter with stride 1 and no padding.
//!
//! Two residence designs are provided, exactly as in the paper:
//!
//! * [`Residence::RegisterFile`] — each warp keeps its accumulator
//!   fragment and consumes it directly in the second GEMM, which further
//!   requires `Warp_N == ThreadBlock_N` for both layers (no cross-warp
//!   data exchange). Higher register pressure, fastest when it fits.
//! * [`Residence::SharedMemory`] — the accumulator tile is staged through
//!   shared memory with a conflict-free layout, relaxing the warp-shape
//!   restriction at the cost of extra shared-memory traffic.

use serde::{Deserialize, Serialize};
use std::fmt;

use bolt_gpu_sim::{
    simulate_kernel, BlockResources, GpuArch, KernelProfile, KernelTime, PipelineFlops,
};
use bolt_tensor::conv_ref::Conv2dProblem;
use bolt_tensor::{DType, Tensor};

use crate::conv2d::{Conv2dConfig, Conv2dKernel};
use crate::epilogue::Epilogue;
use crate::error::KernelError;
use crate::gemm::{GemmKernel, GemmProblem};
use crate::perf;
use crate::template::GemmConfig;
use crate::Result;

/// Where the intermediate activation lives during a persistent kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Residence {
    /// Accumulator fragments stay in each warp's registers (RF-resident).
    RegisterFile,
    /// Accumulator tiles are staged through shared memory (smem-resident).
    SharedMemory,
}

impl fmt::Display for Residence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Residence::RegisterFile => f.write_str("rf-resident"),
            Residence::SharedMemory => f.write_str("smem-resident"),
        }
    }
}

/// A fused back-to-back GEMM kernel:
/// `D0 = epilogue0(A @ W0 [, C0])`, `D1 = epilogue1(D0 @ W1 [, C1])`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct B2bGemmKernel {
    /// First GEMM problem (`m`, `n0`, `k0`).
    pub gemm0: GemmProblem,
    /// Second GEMM problem (`m`, `n1`, `k1 = n0`).
    pub gemm1: GemmProblem,
    /// Template parameters of the first main loop.
    pub config0: GemmConfig,
    /// Template parameters of the second main loop.
    pub config1: GemmConfig,
    /// Epilogue of the first GEMM (computed in fast memory).
    pub epilogue0: Epilogue,
    /// Epilogue of the second GEMM (classic global-store epilogue).
    pub epilogue1: Epilogue,
    /// Intermediate-residence design.
    pub residence: Residence,
}

impl B2bGemmKernel {
    /// Builds a persistent kernel with configs derived from the problems:
    /// threadblock N is pinned to each GEMM's full N (threadblock
    /// residence) and, for the RF-resident variant, warp N too.
    pub fn with_residence(
        gemm0: GemmProblem,
        gemm1: GemmProblem,
        epilogue0: Epilogue,
        epilogue1: Epilogue,
        residence: Residence,
    ) -> Self {
        // Large GEMM_N needs a shorter M tile to keep the fused kernel's
        // shared-memory (staging) and register budgets within capacity.
        let tb_m = if gemm0.n.max(gemm1.n) >= 128 { 32 } else { 64 };
        let mk_config = |n: usize| {
            let mut c = GemmConfig::turing_default();
            c.threadblock = crate::tiles::TileShape::new(tb_m, n, 32.min(n.max(8)));
            c.warp = match residence {
                // Warp_N must equal GEMM_N (RF residence); a short Warp_M
                // keeps 4 warps per block for latency hiding and halves the
                // per-warp accumulator footprint.
                Residence::RegisterFile => {
                    crate::tiles::TileShape::new((tb_m / 4).max(16), n, c.threadblock.k)
                }
                Residence::SharedMemory => {
                    crate::tiles::TileShape::new(32, (n / 2).clamp(8, 64), c.threadblock.k)
                }
            };
            c
        };
        B2bGemmKernel {
            gemm0,
            gemm1,
            config0: mk_config(gemm0.n),
            config1: mk_config(gemm1.n),
            epilogue0,
            epilogue1,
            residence,
        }
    }

    /// Picks the RF-resident variant when it is legal on `arch`, otherwise
    /// falls back to shared-memory residence — the selection Bolt's
    /// profiler automates.
    pub fn auto(
        arch: &GpuArch,
        gemm0: GemmProblem,
        gemm1: GemmProblem,
        epilogue0: Epilogue,
        epilogue1: Epilogue,
    ) -> Result<Self> {
        let rf = Self::with_residence(gemm0, gemm1, epilogue0, epilogue1, Residence::RegisterFile);
        if rf.validate(arch).is_ok() {
            return Ok(rf);
        }
        let smem =
            Self::with_residence(gemm0, gemm1, epilogue0, epilogue1, Residence::SharedMemory);
        smem.validate(arch)?;
        Ok(smem)
    }

    /// Combined per-block resources of the fused kernel.
    pub fn block_resources(&self) -> BlockResources {
        let elt = self.gemm0.element;
        let threads = self.config0.threads().max(self.config1.threads());
        // Both accumulator sets live simultaneously in the RF design; the
        // smem design frees acc0 after staging but pays the staging buffer.
        let acc0 = self.config0.warp.mn() / 32;
        let acc1 = self.config1.warp.mn() / 32;
        let frags = 2 * (self.config0.warp.m + self.config0.warp.n) * self.config0.instruction.k
            / 32
            * elt.size_bytes().max(2)
            / 4;
        let regs = match self.residence {
            Residence::RegisterFile => acc0 + acc1 + frags + 40,
            Residence::SharedMemory => acc0.max(acc1) + frags + 40,
        } as u32;
        let smem0 = self.config0.smem_bytes(elt);
        let smem1 = self.config1.smem_bytes(elt);
        let staging = match self.residence {
            Residence::RegisterFile => 0,
            Residence::SharedMemory => {
                (self.config0.threadblock.m * self.gemm0.n * elt.size_bytes()) as u32
            }
        };
        BlockResources::new(threads, regs.min(512), smem0.max(smem1) + staging)
    }

    /// Validates problem chaining, threadblock residence, and hardware
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnsupportedProblem`] when the fusion is
    /// illegal (shapes, residence) and [`KernelError::IllegalConfig`] when
    /// it exceeds hardware resources.
    pub fn validate(&self, arch: &GpuArch) -> Result<()> {
        if self.gemm1.m != self.gemm0.m {
            return Err(KernelError::unsupported(format!(
                "persistent GEMM fusion requires equal M; got {} and {}",
                self.gemm0.m, self.gemm1.m
            )));
        }
        if self.gemm1.k != self.gemm0.n {
            return Err(KernelError::unsupported(format!(
                "GEMM1 K ({}) must equal GEMM0 N ({})",
                self.gemm1.k, self.gemm0.n
            )));
        }
        if self.gemm0.batch != self.gemm1.batch {
            return Err(KernelError::unsupported("batch counts differ"));
        }
        // Threadblock residence (Figure 5).
        if self.config0.threadblock.n != self.gemm0.n {
            return Err(KernelError::unsupported(format!(
                "threadblock residence: ThreadBlock0_N ({}) != GEMM0_N ({})",
                self.config0.threadblock.n, self.gemm0.n
            )));
        }
        if self.config1.threadblock.n != self.gemm1.n {
            return Err(KernelError::unsupported(format!(
                "threadblock residence: ThreadBlock1_N ({}) != GEMM1_N ({})",
                self.config1.threadblock.n, self.gemm1.n
            )));
        }
        if self.config0.threadblock.m != self.config1.threadblock.m {
            return Err(KernelError::unsupported(
                "both main loops must share the threadblock M tiling",
            ));
        }
        if self.residence == Residence::RegisterFile {
            // Figure 6: Warp_N = ThreadBlock_N = GEMM_N for each layer.
            if self.config0.warp.n != self.gemm0.n || self.config1.warp.n != self.gemm1.n {
                return Err(KernelError::unsupported(format!(
                    "RF residence requires Warp_N = GEMM_N; got {} vs {} and {} vs {}",
                    self.config0.warp.n, self.gemm0.n, self.config1.warp.n, self.gemm1.n
                )));
            }
            if self.config0.warp.m != self.config1.warp.m {
                return Err(KernelError::unsupported(
                    "RF residence requires matching warp M so each warp feeds itself",
                ));
            }
        }
        // Hardware capacity of the combined block.
        let res = self.block_resources();
        if res.regs_per_thread > arch.max_regs_per_thread {
            return Err(KernelError::illegal(format!(
                "fused kernel needs {} regs/thread (> {}); use shared-memory residence",
                res.regs_per_thread, arch.max_regs_per_thread
            )));
        }
        if res.smem_bytes > arch.max_smem_per_block {
            return Err(KernelError::illegal(format!(
                "fused kernel needs {} B smem (> {})",
                res.smem_bytes, arch.max_smem_per_block
            )));
        }
        Ok(())
    }

    /// Functional execution of the fused kernel for one batch entry: the
    /// two epilogue-fused GEMMs, each computed whole. `D0` is rounded to
    /// the first epilogue's output dtype (FP16, as the hardware converts
    /// f32 accumulators to f16 operands) before it feeds the second main
    /// loop. The threadblock M tiling that keeps a `D0` stripe in fast
    /// memory is priced by the simulator; no output element's operation
    /// sequence depends on it, so the host computes whole GEMMs.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched operands.
    pub fn run(
        &self,
        a: &Tensor,
        w0: &Tensor,
        c0: Option<&Tensor>,
        w1: &Tensor,
        c1: Option<&Tensor>,
    ) -> Result<Tensor> {
        let (k0, k1) = self.stages();
        let (d0, _) = k0.run(a, w0, c0)?;
        let (d1, _) = k1.run(&d0, w1, c1)?;
        Ok(d1)
    }

    /// Allocation-free execution into a caller-provided buffer: the first
    /// GEMM writes `D0` into the reusable `d0` scratch (the software
    /// analogue of the fast-memory residence) and the second reads it in
    /// place and writes `out`. Bit-identical to [`B2bGemmKernel::run`].
    ///
    /// `a_quantized` asserts that `a` is already exactly representable in
    /// the first GEMM's element dtype, and `weights_quantized` the same of
    /// `w0` and `w1` (see
    /// [`GemmKernel::run_into`](crate::gemm::GemmKernel::run_into)). The
    /// second GEMM reads `D0` in place when the first epilogue already
    /// rounds it to the second GEMM's element dtype.
    ///
    /// `rows` (at most `m`) is how many leading rows are live: both GEMMs
    /// compute only those rows, and rows `rows..m` of `out` are
    /// zero-filled (see
    /// [`GemmKernel::run_into`](crate::gemm::GemmKernel::run_into)).
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched operands or `rows > m`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_into(
        &self,
        a: &[f32],
        w0: &[f32],
        c0: Option<&Tensor>,
        w1: &[f32],
        c1: Option<&Tensor>,
        acc: &mut Vec<f32>,
        d0: &mut Vec<f32>,
        out: &mut [f32],
        rows: usize,
        a_quantized: bool,
        weights_quantized: bool,
    ) -> Result<()> {
        let (k0, k1) = self.stages();
        d0.resize(self.gemm0.m * self.gemm0.n, 0.0);
        k0.run_into(a, w0, c0, acc, d0, rows, a_quantized, weights_quantized)?;
        let d0_quantized = self.epilogue0.out_dtype == self.gemm1.element;
        k1.run_into(d0, w1, c1, acc, out, rows, d0_quantized, weights_quantized)
    }

    /// The two GEMMs as standalone kernels.
    fn stages(&self) -> (GemmKernel, GemmKernel) {
        let k0 = GemmKernel {
            problem: self.gemm0,
            config: self.config0,
            epilogue: self.epilogue0,
        };
        let k1 = GemmKernel {
            problem: self.gemm1,
            config: self.config1,
            epilogue: self.epilogue1,
        };
        (k0, k1)
    }

    /// Performance profile of the fused kernel: one launch, no
    /// intermediate DRAM traffic, both main loops' flops, and (for the
    /// smem variant) the staging traffic through shared memory.
    pub fn profile(&self, arch: &GpuArch) -> KernelProfile {
        let elt = self.gemm0.element.size_bytes() as f64;
        let batch = self.gemm0.batch as f64;
        let p0 = perf::gemm_profile(arch, &self.gemm0, &self.config0, &self.epilogue0);
        let p1 = perf::gemm_profile(arch, &self.gemm1, &self.config1, &self.epilogue1);

        let grid = (self.gemm0.batch * self.gemm0.m.div_ceil(self.config0.threadblock.m)) as u64;
        let d0_bytes = batch * (self.gemm0.m * self.gemm0.n) as f64 * elt;

        // DRAM: GEMM0 reads minus nothing, GEMM1 reads minus its D0 input,
        // plus only D1 is written.
        let dram_read = p0.dram_read_bytes
            + (p1.dram_read_bytes - d0_bytes)
                .max(batch * (self.gemm1.k * self.gemm1.n) as f64 * elt);
        let dram_write = p1.dram_write_bytes;

        let staging = match self.residence {
            Residence::SharedMemory => 2.0 * d0_bytes, // store + load through smem
            Residence::RegisterFile => 0.0,
        };
        let flops = PipelineFlops {
            tensor_core: p0.flops.tensor_core + p1.flops.tensor_core,
            cuda_core: p0.flops.cuda_core + p1.flops.cuda_core,
            sfu: p0.flops.sfu + p1.flops.sfu,
        };
        let eff0 = p0.mainloop_efficiency;
        let eff1 = p1.mainloop_efficiency;
        let w0 = p0.flops.tensor_core + p0.flops.cuda_core;
        let w1 = p1.flops.tensor_core + p1.flops.cuda_core;
        let mainloop_efficiency = (eff0 * w0 + eff1 * w1) / (w0 + w1).max(1.0);

        KernelProfile {
            grid_blocks: grid,
            block: self.block_resources(),
            flops,
            dram_read_bytes: dram_read,
            dram_write_bytes: dram_write,
            smem_bytes: p0.smem_bytes + p1.smem_bytes + staging,
            dtype: self.gemm0.element,
            alignment_elems: self
                .config0
                .min_alignment()
                .min(self.config1.min_alignment()),
            bank_conflict_ways: 1.0, // the paper's conflict-free staging layout
            mainloop_efficiency,
            pipelined_overlap: perf::pipelined_overlap(&self.config0),
        }
    }

    /// Simulated time of the fused kernel.
    pub fn time(&self, arch: &GpuArch) -> KernelTime {
        simulate_kernel(arch, &self.profile(arch))
    }

    /// Simulated time of the *unfused* baseline: the same two
    /// epilogue-fused GEMMs as separate launches (what "Bolt with only
    /// epilogue fusion" does in Table 1).
    pub fn unfused_time_us(&self, arch: &GpuArch) -> f64 {
        let k0 = GemmKernel::new(self.gemm0, GemmConfig::turing_default(), self.epilogue0);
        let k1 = GemmKernel::new(self.gemm1, GemmConfig::turing_default(), self.epilogue1);
        k0.time(arch).total_us + k1.time(arch).total_us
    }
}

/// A fused back-to-back Conv2D kernel. The second convolution must be a
/// 1×1, stride-1, unpadded ("pointwise unit") conv per the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct B2bConvKernel {
    /// First convolution (any geometry).
    pub conv0: Conv2dProblem,
    /// Second convolution (1×1, stride 1, no padding, `C == conv0.k`).
    pub conv1: Conv2dProblem,
    /// Template parameters of the first main loop.
    pub config0: Conv2dConfig,
    /// Template parameters of the second main loop.
    pub config1: Conv2dConfig,
    /// Epilogue of the first conv.
    pub epilogue0: Epilogue,
    /// Epilogue of the second conv.
    pub epilogue1: Epilogue,
    /// Intermediate-residence design.
    pub residence: Residence,
    /// Element type.
    pub element: DType,
}

impl B2bConvKernel {
    /// Builds a persistent Conv kernel with residence-satisfying configs.
    pub fn with_residence(
        conv0: Conv2dProblem,
        conv1: Conv2dProblem,
        epilogue0: Epilogue,
        epilogue1: Epilogue,
        residence: Residence,
        element: DType,
    ) -> Self {
        let tb_m = if conv0.k.max(conv1.k) >= 128 { 32 } else { 64 };
        let mk = |out_ch: usize| {
            let mut c = Conv2dConfig::turing_default();
            c.gemm.threadblock = crate::tiles::TileShape::new(tb_m, out_ch, 32.min(out_ch.max(8)));
            c.gemm.warp = match residence {
                Residence::RegisterFile => {
                    crate::tiles::TileShape::new((tb_m / 4).max(16), out_ch, c.gemm.threadblock.k)
                }
                Residence::SharedMemory => crate::tiles::TileShape::new(
                    32,
                    (out_ch / 2).clamp(8, 64),
                    c.gemm.threadblock.k,
                ),
            };
            c
        };
        B2bConvKernel {
            conv0,
            conv1,
            config0: mk(conv0.k),
            config1: mk(conv1.k),
            epilogue0,
            epilogue1,
            residence,
            element,
        }
    }

    /// Picks RF residence when legal, else shared memory.
    pub fn auto(
        arch: &GpuArch,
        conv0: Conv2dProblem,
        conv1: Conv2dProblem,
        epilogue0: Epilogue,
        epilogue1: Epilogue,
        element: DType,
    ) -> Result<Self> {
        let rf = Self::with_residence(
            conv0,
            conv1,
            epilogue0,
            epilogue1,
            Residence::RegisterFile,
            element,
        );
        if rf.validate(arch).is_ok() {
            return Ok(rf);
        }
        let sm = Self::with_residence(
            conv0,
            conv1,
            epilogue0,
            epilogue1,
            Residence::SharedMemory,
            element,
        );
        sm.validate(arch)?;
        Ok(sm)
    }

    /// Validates chaining, the 1×1 requirement, residence, and capacity.
    ///
    /// # Errors
    ///
    /// As for [`B2bGemmKernel::validate`].
    pub fn validate(&self, arch: &GpuArch) -> Result<()> {
        if !self.conv1.is_pointwise_unit() {
            return Err(KernelError::unsupported(
                "second conv of a persistent fusion must be 1x1, stride 1, unpadded",
            ));
        }
        if self.conv1.c != self.conv0.k {
            return Err(KernelError::unsupported(format!(
                "conv1 input channels ({}) must equal conv0 output channels ({})",
                self.conv1.c, self.conv0.k
            )));
        }
        if self.conv1.n != self.conv0.n
            || self.conv1.h != self.conv0.out_h()
            || self.conv1.w != self.conv0.out_w()
        {
            return Err(KernelError::unsupported(
                "conv1 spatial dims must match conv0 output dims",
            ));
        }
        // Threadblock residence: ThreadBlock_N = output channels.
        if self.config0.gemm.threadblock.n != self.conv0.k
            || self.config1.gemm.threadblock.n != self.conv1.k
        {
            return Err(KernelError::unsupported(
                "threadblock residence: ThreadBlock_N must equal Conv output channels",
            ));
        }
        if self.residence == Residence::RegisterFile
            && (self.config0.gemm.warp.n != self.conv0.k
                || self.config1.gemm.warp.n != self.conv1.k)
        {
            return Err(KernelError::unsupported(
                "RF residence requires Warp_N = Conv output channels",
            ));
        }
        let b2b = self.as_b2b_gemm();
        b2b.validate(arch)
    }

    /// The back-to-back GEMM view of this fusion (via implicit GEMM).
    pub fn as_b2b_gemm(&self) -> B2bGemmKernel {
        let (m0, n0, k0) = self.conv0.implicit_gemm_mnk();
        let (m1, n1, k1) = self.conv1.implicit_gemm_mnk();
        debug_assert_eq!(m0, m1);
        debug_assert_eq!(n0, k1);
        let g0 = GemmProblem {
            m: m0,
            n: n0,
            k: k0,
            batch: 1,
            element: self.element,
            ..GemmProblem::fp16(m0, n0, k0)
        };
        let g1 = GemmProblem {
            m: m1,
            n: n1,
            k: k1,
            batch: 1,
            element: self.element,
            ..GemmProblem::fp16(m1, n1, k1)
        };
        B2bGemmKernel {
            gemm0: g0,
            gemm1: g1,
            config0: self.config0.gemm,
            config1: self.config1.gemm,
            epilogue0: self.epilogue0,
            epilogue1: self.epilogue1,
            residence: self.residence,
        }
    }

    /// Functional execution: runs the two convolutions with the fused
    /// numerics (intermediate held as FP16). Identical results to the
    /// sequential epilogue-fused kernels.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched operands.
    pub fn run(
        &self,
        input: &Tensor,
        f0: &Tensor,
        b0: Option<&Tensor>,
        f1: &Tensor,
        b1: Option<&Tensor>,
    ) -> Result<Tensor> {
        let k0 = Conv2dKernel::new(self.conv0, self.config0, self.epilogue0, self.element);
        let d0 = k0.run(input, f0, b0)?;
        let k1 = Conv2dKernel::new(self.conv1, self.config1, self.epilogue1, self.element);
        k1.run(&d0, f1, b1)
    }

    /// Allocation-free streaming execution into a caller-provided NHWC
    /// buffer: conv0's output streams through the reusable `d0` scratch
    /// as a raw NHWC buffer (never materialized as a tensor) and feeds
    /// conv1 directly, whose output lands in `out`. `fm0`/`fm1` are the
    /// prepacked `(R*S*C, K)` filter matrices; `in_c <= conv0.c` physical
    /// input channels are read with the channel pad folded into im2col.
    /// Bit-identical to [`B2bConvKernel::run`] on the padded input.
    ///
    /// `input_quantized` asserts that `input_nhwc` is already exactly
    /// representable in the element dtype, and `filters_quantized` the
    /// same of `fm0` and `fm1` (see
    /// [`GemmKernel::run_into`](crate::gemm::GemmKernel::run_into)). The
    /// second conv reads `D0` in place when the first epilogue already
    /// rounds it to the element dtype.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched operands.
    #[allow(clippy::too_many_arguments)]
    pub fn run_into(
        &self,
        input_nhwc: &[f32],
        in_c: usize,
        fm0: &[f32],
        b0: Option<&Tensor>,
        fm1: &[f32],
        b1: Option<&Tensor>,
        cols: &mut Vec<f32>,
        acc: &mut Vec<f32>,
        d0: &mut Vec<f32>,
        out: &mut [f32],
        input_quantized: bool,
        filters_quantized: bool,
    ) -> Result<()> {
        let k0 = Conv2dKernel::new(self.conv0, self.config0, self.epilogue0, self.element);
        let (m0, n0, _) = self.conv0.implicit_gemm_mnk();
        d0.resize(m0 * n0, 0.0);
        k0.run_into(
            input_nhwc,
            in_c,
            fm0,
            b0,
            cols,
            acc,
            d0,
            input_quantized,
            filters_quantized,
        )?;
        let k1 = Conv2dKernel::new(self.conv1, self.config1, self.epilogue1, self.element);
        let d0_quantized = self.epilogue0.out_dtype == self.element;
        k1.run_into(
            d0,
            self.conv1.c,
            fm1,
            b1,
            cols,
            acc,
            out,
            d0_quantized,
            filters_quantized,
        )
    }

    /// Performance profile of the fused kernel (one launch, no
    /// intermediate DRAM traffic).
    pub fn profile(&self, arch: &GpuArch) -> KernelProfile {
        let elt = self.element.size_bytes() as f64;
        let p0 = perf::conv2d_profile(
            arch,
            &self.conv0,
            &self.config0.gemm,
            &self.epilogue0,
            self.element,
        );
        let p1 = perf::conv2d_profile(
            arch,
            &self.conv1,
            &self.config1.gemm,
            &self.epilogue1,
            self.element,
        );
        let (m0, n0, _) = self.conv0.implicit_gemm_mnk();
        let d0_bytes = (m0 * n0) as f64 * elt;
        let filter1_bytes = (self.conv1.k * self.conv1.c) as f64 * elt;

        let grid = m0.div_ceil(self.config0.gemm.threadblock.m) as u64;
        let staging = match self.residence {
            Residence::SharedMemory => 2.0 * d0_bytes,
            Residence::RegisterFile => 0.0,
        };
        let b2b = self.as_b2b_gemm();
        KernelProfile {
            grid_blocks: grid,
            block: b2b.block_resources(),
            flops: PipelineFlops {
                tensor_core: p0.flops.tensor_core + p1.flops.tensor_core,
                cuda_core: p0.flops.cuda_core + p1.flops.cuda_core,
                sfu: p0.flops.sfu + p1.flops.sfu,
            },
            dram_read_bytes: p0.dram_read_bytes
                + filter1_bytes
                + (p1.dram_read_bytes - d0_bytes - filter1_bytes).max(0.0) * 0.2,
            dram_write_bytes: p1.dram_write_bytes,
            smem_bytes: p0.smem_bytes + p1.smem_bytes + staging,
            dtype: self.element,
            alignment_elems: p0.alignment_elems.min(p1.alignment_elems),
            bank_conflict_ways: 1.0,
            pipelined_overlap: perf::pipelined_overlap(&self.config0.gemm),
            // Flops-weighted: the small second main loop rides the first
            // loop's already-filled pipeline, so its per-kernel fill/drain
            // penalty does not apply at full weight (fusion benefit (iii)
            // in the paper: enlarged scheduling scope).
            mainloop_efficiency: {
                let w0 = p0.flops.tensor_core + p0.flops.cuda_core;
                let w1 = p1.flops.tensor_core + p1.flops.cuda_core;
                (p0.mainloop_efficiency * w0
                    + p1.mainloop_efficiency.max(p0.mainloop_efficiency * 0.8) * w1)
                    / (w0 + w1).max(1.0)
            },
        }
    }

    /// Simulated time of the fused kernel.
    pub fn time(&self, arch: &GpuArch) -> KernelTime {
        simulate_kernel(arch, &self.profile(arch))
    }

    /// Simulated time of the unfused baseline (two epilogue-fused conv
    /// launches).
    pub fn unfused_time_us(&self, arch: &GpuArch) -> f64 {
        let k0 = Conv2dKernel::new(
            self.conv0,
            Conv2dConfig::turing_default(),
            self.epilogue0,
            self.element,
        );
        let k1 = Conv2dKernel::new(
            self.conv1,
            Conv2dConfig::turing_default(),
            self.epilogue1,
            self.element,
        );
        k0.time(arch).total_us + k1.time(arch).total_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_tensor::gemm_ref::b2b_gemm_ref;
    use bolt_tensor::Activation;

    fn t4() -> GpuArch {
        GpuArch::tesla_t4()
    }

    fn relu16() -> Epilogue {
        Epilogue {
            beta: 0.0,
            bias: crate::epilogue::BiasMode::None,
            ..Epilogue::bias_activation(Activation::ReLU, DType::F16)
        }
    }

    #[test]
    fn rf_resident_matches_sequential_reference() {
        let g0 = GemmProblem::fp16(64, 16, 24);
        let g1 = GemmProblem::fp16(64, 8, 16);
        let k = B2bGemmKernel::with_residence(g0, g1, relu16(), relu16(), Residence::RegisterFile);
        k.validate(&t4()).unwrap();
        let a = Tensor::randn(&[64, 24], DType::F16, 1);
        let w0 = Tensor::randn(&[24, 16], DType::F16, 2);
        let w1 = Tensor::randn(&[16, 8], DType::F16, 3);
        let fused = k.run(&a, &w0, None, &w1, None).unwrap();
        let expect = b2b_gemm_ref(
            &a,
            &w0,
            None,
            1.0,
            0.0,
            Activation::ReLU,
            &w1,
            None,
            1.0,
            0.0,
            Activation::ReLU,
        )
        .unwrap();
        assert_eq!(fused.max_abs_diff(&expect).unwrap(), 0.0);
    }

    #[test]
    fn smem_resident_matches_sequential_reference() {
        let g0 = GemmProblem::fp16(96, 32, 16);
        let g1 = GemmProblem::fp16(96, 16, 32);
        let k = B2bGemmKernel::with_residence(g0, g1, relu16(), relu16(), Residence::SharedMemory);
        k.validate(&t4()).unwrap();
        let a = Tensor::randn(&[96, 16], DType::F16, 4);
        let w0 = Tensor::randn(&[16, 32], DType::F16, 5);
        let w1 = Tensor::randn(&[32, 16], DType::F16, 6);
        let fused = k.run(&a, &w0, None, &w1, None).unwrap();
        let expect = b2b_gemm_ref(
            &a,
            &w0,
            None,
            1.0,
            0.0,
            Activation::ReLU,
            &w1,
            None,
            1.0,
            0.0,
            Activation::ReLU,
        )
        .unwrap();
        assert_eq!(fused.max_abs_diff(&expect).unwrap(), 0.0);
    }

    #[test]
    fn residence_violations_are_rejected() {
        let g0 = GemmProblem::fp16(64, 16, 24);
        let g1 = GemmProblem::fp16(64, 8, 16);
        let mut k =
            B2bGemmKernel::with_residence(g0, g1, relu16(), relu16(), Residence::RegisterFile);
        // Break ThreadBlock0_N == GEMM0_N.
        k.config0.threadblock.n = 8;
        let err = k.validate(&t4()).unwrap_err();
        assert!(err.to_string().contains("residence"));
    }

    #[test]
    fn chain_mismatch_rejected() {
        let g0 = GemmProblem::fp16(64, 16, 24);
        let bad = GemmProblem::fp16(64, 8, 32); // k != n0
        let k = B2bGemmKernel::with_residence(g0, bad, relu16(), relu16(), Residence::RegisterFile);
        assert!(k.validate(&t4()).is_err());
        let bad_m = GemmProblem::fp16(32, 8, 16);
        let k2 =
            B2bGemmKernel::with_residence(g0, bad_m, relu16(), relu16(), Residence::RegisterFile);
        assert!(k2.validate(&t4()).is_err());
    }

    #[test]
    fn rf_pressure_forces_smem_fallback() {
        // Large GEMM_N makes RF residence exceed the register budget; the
        // auto selector must fall back to shared memory (paper Section
        // 3.1.1 motivation for the smem design).
        let g0 = GemmProblem::fp16(16384, 256, 64);
        let g1 = GemmProblem::fp16(16384, 128, 256);
        let k = B2bGemmKernel::auto(&t4(), g0, g1, relu16(), relu16()).unwrap();
        assert_eq!(k.residence, Residence::SharedMemory);
        // Small N stays in the register file.
        let s0 = GemmProblem::fp16(16384, 64, 256);
        let s1 = GemmProblem::fp16(16384, 16, 64);
        let k2 = B2bGemmKernel::auto(&t4(), s0, s1, relu16(), relu16()).unwrap();
        assert_eq!(k2.residence, Residence::RegisterFile);
    }

    #[test]
    fn fusion_beats_unfused_on_memory_bound_chains() {
        // Table 1 row: (16384, 64, 256) -> (16384, 16, 64).
        let g0 = GemmProblem::fp16(16384, 64, 256);
        let g1 = GemmProblem::fp16(16384, 16, 64);
        let k = B2bGemmKernel::auto(&t4(), g0, g1, relu16(), relu16()).unwrap();
        let fused = k.time(&t4()).total_us;
        let unfused = k.unfused_time_us(&t4());
        let speedup = unfused / fused;
        assert!(
            speedup > 1.1 && speedup < 2.2,
            "expected Table 1-band speedup, got {speedup:.2} ({fused:.1} vs {unfused:.1} us)"
        );
    }

    #[test]
    fn conv_fusion_requires_pointwise_second() {
        let c0 = Conv2dProblem::new(32, 56, 56, 48, 48, 3, 3, (1, 1), (1, 1));
        let bad = Conv2dProblem::new(32, 56, 56, 48, 48, 3, 3, (1, 1), (1, 1));
        let k = B2bConvKernel::with_residence(
            c0,
            bad,
            relu16(),
            relu16(),
            Residence::RegisterFile,
            DType::F16,
        );
        assert!(k.validate(&t4()).is_err());
    }

    #[test]
    fn conv_fusion_functional_matches_sequential() {
        let c0 = Conv2dProblem::new(1, 8, 8, 4, 8, 3, 3, (1, 1), (1, 1));
        let c1 = Conv2dProblem::new(1, 8, 8, 8, 8, 1, 1, (1, 1), (0, 0));
        let k = B2bConvKernel::with_residence(
            c0,
            c1,
            relu16(),
            relu16(),
            Residence::RegisterFile,
            DType::F16,
        );
        let x = bolt_tensor::conv_ref::random_input(&c0, DType::F16, 1);
        let f0 = bolt_tensor::conv_ref::random_filter(&c0, DType::F16, 2);
        let f1 = bolt_tensor::conv_ref::random_filter(&c1, DType::F16, 3);
        let fused = k.run(&x, &f0, None, &f1, None).unwrap();
        // Sequential epilogue-fused kernels.
        let k0 = Conv2dKernel::new(c0, k.config0, relu16(), DType::F16);
        let k1 = Conv2dKernel::new(c1, k.config1, relu16(), DType::F16);
        let d0 = k0.run(&x, &f0, None).unwrap();
        let expect = k1.run(&d0, &f1, None).unwrap();
        assert_eq!(fused.max_abs_diff(&expect).unwrap(), 0.0);
    }

    #[test]
    fn conv_fusion_beats_unfused_in_table2_band() {
        // Table 2 row: 56^2, 64ch 3x3 (1,1) + 1x1 -> speedup ~2x.
        let c0 = Conv2dProblem::new(32, 56, 56, 64, 64, 3, 3, (1, 1), (1, 1));
        let c1 = Conv2dProblem::new(32, 56, 56, 64, 64, 1, 1, (1, 1), (0, 0));
        let k = B2bConvKernel::auto(&t4(), c0, c1, relu16(), relu16(), DType::F16).unwrap();
        let speedup = k.unfused_time_us(&t4()) / k.time(&t4()).total_us;
        assert!(speedup > 1.05 && speedup < 2.6, "got {speedup:.2}");
    }
}
