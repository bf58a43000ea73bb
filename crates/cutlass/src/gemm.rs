//! Device-level templated GEMM: problem description and functional
//! executor.
//!
//! [`GemmKernel::run`] really computes the GEMM by walking the CUTLASS
//! hierarchy — threadblock tiles → warp tiles → MMA instruction tiles —
//! with operands rounded through the storage dtype on load and f32
//! accumulation (the tensor-core contract). Results are validated against
//! `bolt_tensor::gemm_ref` in this module's tests and by property tests.

use serde::{Deserialize, Serialize};
use std::fmt;

use bolt_gpu_sim::{simulate_kernel, GpuArch, KernelProfile, KernelTime};
use bolt_tensor::{DType, MatrixLayout, Tensor, TensorError};

use crate::epilogue::{reduce_columns, Epilogue};
use crate::error::KernelError;
use crate::perf;
use crate::template::GemmConfig;
use crate::Result;

/// A (possibly batched) GEMM problem: `D = alpha * A @ B + beta * C`,
/// with `A: (m, k)`, `B: (k, n)` per batch entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmProblem {
    /// Rows of `A` and `D`.
    pub m: usize,
    /// Columns of `B` and `D`.
    pub n: usize,
    /// Inner (reduction) dimension.
    pub k: usize,
    /// Batch count (strided-batched GEMM); 1 for a plain GEMM.
    pub batch: usize,
    /// Element type of `A`/`B`.
    pub element: DType,
    /// Layout of `A`.
    pub layout_a: MatrixLayout,
    /// Layout of `B`.
    pub layout_b: MatrixLayout,
}

impl GemmProblem {
    /// A plain row-major FP16 GEMM.
    pub fn fp16(m: usize, n: usize, k: usize) -> Self {
        GemmProblem {
            m,
            n,
            k,
            batch: 1,
            element: DType::F16,
            layout_a: MatrixLayout::RowMajor,
            layout_b: MatrixLayout::RowMajor,
        }
    }

    /// A strided-batched row-major FP16 GEMM.
    pub fn fp16_batched(batch: usize, m: usize, n: usize, k: usize) -> Self {
        GemmProblem {
            batch,
            ..Self::fp16(m, n, k)
        }
    }

    /// Total multiply-accumulates across the batch.
    pub fn macs(&self) -> u64 {
        self.batch as u64 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Total floating-point operations (2 per MAC).
    pub fn flops(&self) -> f64 {
        2.0 * self.macs() as f64
    }

    /// The widest legal vector alignment for each operand, limited by the
    /// contiguous extent of its layout (what Bolt's kernel padding
    /// improves).
    pub fn max_alignments(&self) -> (usize, usize, usize) {
        use bolt_gpu_sim::memory::max_alignment;
        let a_extent = self.layout_a.contiguous_extent(self.m, self.k);
        let b_extent = self.layout_b.contiguous_extent(self.k, self.n);
        (
            max_alignment(self.element, a_extent),
            max_alignment(self.element, b_extent),
            max_alignment(self.element, self.n), // D is row-major
        )
    }

    /// Arithmetic intensity in flops per DRAM byte (compulsory traffic),
    /// used to classify workloads as compute- vs memory-bound.
    pub fn arithmetic_intensity(&self) -> f64 {
        let elt = self.element.size_bytes() as f64;
        let bytes =
            self.batch as f64 * elt * (self.m * self.k + self.k * self.n + self.m * self.n) as f64;
        self.flops() / bytes
    }
}

impl fmt::Display for GemmProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.batch > 1 {
            write!(
                f,
                "{}x[{}, {}, {}] {}",
                self.batch, self.m, self.n, self.k, self.element
            )
        } else {
            write!(f, "[{}, {}, {}] {}", self.m, self.n, self.k, self.element)
        }
    }
}

/// True when every value survives rounding through `dtype` bit for bit:
/// the condition a caller asserts by flagging an operand pre-quantized.
fn holds_exactly(values: &[f32], dtype: DType) -> bool {
    values
        .iter()
        .all(|&v| dtype.quantize(v).to_bits() == v.to_bits())
}

/// A fully instantiated templated GEMM kernel: problem + config +
/// epilogue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmKernel {
    /// The problem this instantiation serves.
    pub problem: GemmProblem,
    /// Template parameters.
    pub config: GemmConfig,
    /// Fused epilogue.
    pub epilogue: Epilogue,
}

impl GemmKernel {
    /// Creates a kernel after clamping the config's operand alignments to
    /// what the problem's extents allow (CUTLASS selects the kernel with
    /// the widest legal alignment the same way).
    pub fn new(problem: GemmProblem, mut config: GemmConfig, epilogue: Epilogue) -> Self {
        let (a, b, c) = problem.max_alignments();
        config.alignment_a = config.alignment_a.min(a);
        config.alignment_b = config.alignment_b.min(b);
        config.alignment_c = config.alignment_c.min(c);
        GemmKernel {
            problem,
            config,
            epilogue,
        }
    }

    /// Validates the template against `arch`.
    ///
    /// # Errors
    ///
    /// Propagates [`KernelError::IllegalConfig`] from the config check.
    pub fn validate(&self, arch: &GpuArch) -> Result<()> {
        self.config.validate(arch, self.problem.element)
    }

    /// Functional execution of one batch entry. `a` is `(m, k)`, `b` is
    /// `(k, n)`; `c` interpretation follows the epilogue's bias mode.
    /// Returns `D` (and the column reduction if requested, as a second
    /// tensor).
    ///
    /// # Errors
    ///
    /// Returns shape errors if operands disagree with the problem, and
    /// config errors if the template is malformed.
    pub fn run(
        &self,
        a: &Tensor,
        b: &Tensor,
        c: Option<&Tensor>,
    ) -> Result<(Tensor, Option<Tensor>)> {
        let p = &self.problem;
        if a.shape().dims() != [p.m, p.k] {
            return Err(KernelError::Tensor(TensorError::shape(
                "gemm kernel A",
                &[p.m, p.k],
                a.shape().dims(),
            )));
        }
        if b.shape().dims() != [p.k, p.n] {
            return Err(KernelError::Tensor(TensorError::shape(
                "gemm kernel B",
                &[p.k, p.n],
                b.shape().dims(),
            )));
        }
        self.epilogue.validate_c(c, p.m, p.n)?;

        let tb = self.config.threadblock;
        let elt = p.element;
        let grid_m = p.m.div_ceil(tb.m);
        let grid_n = p.n.div_ceil(tb.n);
        let mut d = Tensor::zeros(&[p.m, p.n], self.epilogue.out_dtype);

        // Parallel split-K: each slice accumulates a partial sum into an
        // f32 workspace; the reduction combines slices and applies the
        // epilogue exactly once (CUTLASS GemmSplitKParallel).
        let split_k = self.config.split_k.max(1);
        let slice_len = p.k.div_ceil(split_k);

        // Walk the grid of threadblock tiles. Within a tile, accumulate the
        // full K extent into an f32 accumulator tile (the register file),
        // then run the epilogue once — exactly the structure of the CUDA
        // kernel, so boundary predication and accumulation order match.
        for bm in 0..grid_m {
            for bn in 0..grid_n {
                let row0 = bm * tb.m;
                let col0 = bn * tb.n;
                let rows = tb.m.min(p.m - row0);
                let cols = tb.n.min(p.n - col0);
                let mut acc = vec![0.0f32; rows * cols];

                // Iterate split-K slices outermost (each is an independent
                // workspace partial), then the slice's K tiles.
                for slice in 0..split_k {
                    let slice_start = slice * slice_len;
                    if slice_start >= p.k {
                        break;
                    }
                    let slice_end = (slice_start + slice_len).min(p.k);
                    let k_tiles = (slice_end - slice_start).div_ceil(tb.k);
                    for bk in 0..k_tiles {
                        let k0 = slice_start + bk * tb.k;
                        let kk = tb.k.min(slice_end - k0);
                        // Stage the A and B slices through "shared memory",
                        // rounding through the element dtype (the global->smem
                        // copy preserves dtype; rounding is idempotent).
                        for r in 0..rows {
                            for kc in 0..kk {
                                let a_val = elt.quantize(a.get2(row0 + r, k0 + kc));
                                for ccol in 0..cols {
                                    let b_val = elt.quantize(b.get2(k0 + kc, col0 + ccol));
                                    acc[r * cols + ccol] += a_val * b_val;
                                }
                            }
                        }
                    }
                }

                for r in 0..rows {
                    for ccol in 0..cols {
                        let v = self
                            .epilogue
                            .apply(acc[r * cols + ccol], row0 + r, col0 + ccol, c);
                        d.set2(row0 + r, col0 + ccol, v);
                    }
                }
            }
        }

        let reduction = if self.epilogue.column_reduction {
            Some(reduce_columns(&d))
        } else {
            None
        };
        Ok((d, reduction))
    }

    /// Allocation-free execution of one batch entry into a caller-provided
    /// buffer: `a` is the row-major `(m, k)` operand, `b` the row-major
    /// `(k, n)` operand, and `out` receives row-major `(m, n)` values
    /// quantized to the epilogue's output dtype — bit-identical to
    /// [`GemmKernel::run`]'s result. `acc` is the reusable accumulator
    /// scratch (resized, never reallocated once warm). The column
    /// reduction, if the epilogue requests one, is not computed here; use
    /// [`GemmKernel::run`] when it is needed.
    ///
    /// `rows` (at most `problem.m`) is how many leading rows are live.
    /// Operands are validated at the full `m`, rows `0..rows` are
    /// computed with the same tile walk and k-order as the full problem
    /// (every output row depends only on its own `A` row), and rows
    /// `rows..m` are zero-filled. A batch executor passes its live
    /// sample rows so a partly filled bucket skips its padding; pass
    /// `problem.m` for the whole problem.
    ///
    /// `a_quantized` and `b_quantized` are the caller's assertion that
    /// every element of that operand is already exactly representable in
    /// the problem's element dtype — true for operands read out of a
    /// `Tensor` whose dtype equals `problem.element`, since tensor stores
    /// quantize, and for a kernel output whose epilogue dtype equals it.
    /// Rounding is idempotent, so the main loop then reads the operand in
    /// place with no staging copy, and the result stays bit-identical;
    /// pass `false` whenever an operand's provenance is not known, and it
    /// is staged through rounding once per k-tile.
    ///
    /// The tile walk runs on the calling thread: the GPU's threadblock
    /// parallelism is priced by the simulator, not replayed on the host.
    ///
    /// # Errors
    ///
    /// Returns shape errors if operand lengths disagree with the problem
    /// or `rows` exceeds `m`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_into(
        &self,
        a: &[f32],
        b: &[f32],
        c: Option<&Tensor>,
        acc: &mut Vec<f32>,
        out: &mut [f32],
        rows: usize,
        a_quantized: bool,
        b_quantized: bool,
    ) -> Result<()> {
        let p = &self.problem;
        if a.len() != p.m * p.k {
            return Err(KernelError::Tensor(TensorError::shape(
                "gemm kernel A",
                &[p.m * p.k],
                &[a.len()],
            )));
        }
        if b.len() != p.k * p.n {
            return Err(KernelError::Tensor(TensorError::shape(
                "gemm kernel B",
                &[p.k * p.n],
                &[b.len()],
            )));
        }
        if out.len() != p.m * p.n {
            return Err(KernelError::Tensor(TensorError::shape(
                "gemm kernel D",
                &[p.m * p.n],
                &[out.len()],
            )));
        }
        if rows > p.m {
            return Err(KernelError::Tensor(TensorError::shape(
                "gemm kernel live rows",
                &[p.m],
                &[rows],
            )));
        }
        self.epilogue.validate_c(c, p.m, p.n)?;
        debug_assert!(
            !a_quantized || holds_exactly(a, p.element),
            "A flagged pre-quantized is not representable in {}",
            p.element
        );
        debug_assert!(
            !b_quantized || holds_exactly(b, p.element),
            "B flagged pre-quantized is not representable in {}",
            p.element
        );

        let (live, pad) = out.split_at_mut(rows * p.n);
        pad.fill(0.0);

        // Tile walk, k-order, and rounding are identical to `run`: an
        // operand of unknown provenance is rounded through the element
        // dtype on its global->smem stage, exactly once per k-tile; a
        // pre-quantized one is read in place. The MAC loop then multiplies
        // the same numbers `run` rounds per multiply, in the same order.
        // The last threadblock row stops at `rows`.
        let tb = self.config.threadblock;
        let elt = p.element;
        let grid_m = rows.div_ceil(tb.m);
        let grid_n = p.n.div_ceil(tb.n);
        let split_k = self.config.split_k.max(1);
        let slice_len = p.k.div_ceil(split_k);
        // Shared-memory fragments for operands that still need rounding;
        // grown lazily, so they stay empty when both are pre-quantized.
        let mut a_smem: Vec<f32> = Vec::new();
        let mut b_smem: Vec<f32> = Vec::new();

        for bm in 0..grid_m {
            for bn in 0..grid_n {
                let row0 = bm * tb.m;
                let col0 = bn * tb.n;
                let rows = tb.m.min(rows - row0);
                let cols = tb.n.min(p.n - col0);
                acc.clear();
                acc.resize(rows * cols, 0.0);

                for slice in 0..split_k {
                    let slice_start = slice * slice_len;
                    if slice_start >= p.k {
                        break;
                    }
                    let slice_end = (slice_start + slice_len).min(p.k);
                    let k_tiles = (slice_end - slice_start).div_ceil(tb.k);
                    for bk in 0..k_tiles {
                        let k0 = slice_start + bk * tb.k;
                        let kk = tb.k.min(slice_end - k0);
                        // Each fragment is (data, leading dimension,
                        // offset of the tile's first element).
                        let (a_frag, a_ld, a_off) = if a_quantized {
                            (a, p.k, row0 * p.k + k0)
                        } else {
                            a_smem.resize(rows * kk, 0.0);
                            for r in 0..rows {
                                let src = &a[(row0 + r) * p.k + k0..][..kk];
                                for (s, &v) in a_smem[r * kk..][..kk].iter_mut().zip(src) {
                                    *s = elt.quantize(v);
                                }
                            }
                            (&a_smem[..], kk, 0)
                        };
                        let (b_frag, b_ld, b_off) = if b_quantized {
                            (b, p.n, k0 * p.n + col0)
                        } else {
                            b_smem.resize(kk * cols, 0.0);
                            for kc in 0..kk {
                                let src = &b[(k0 + kc) * p.n + col0..][..cols];
                                for (s, &v) in b_smem[kc * cols..][..cols].iter_mut().zip(src) {
                                    *s = elt.quantize(v);
                                }
                            }
                            (&b_smem[..], cols, 0)
                        };
                        for (r, acc_row) in acc.chunks_exact_mut(cols).enumerate() {
                            let a_row = &a_frag[a_off + r * a_ld..][..kk];
                            for (kc, &a_val) in a_row.iter().enumerate() {
                                let b_row = &b_frag[b_off + kc * b_ld..][..cols];
                                for (d, &b_val) in acc_row.iter_mut().zip(b_row) {
                                    *d += a_val * b_val;
                                }
                            }
                        }
                    }
                }

                for (r, acc_row) in acc.chunks_exact(cols).enumerate() {
                    let out_row = &mut live[(row0 + r) * p.n + col0..][..cols];
                    self.epilogue.store_row(acc_row, row0 + r, col0, c, out_row);
                }
            }
        }
        Ok(())
    }

    /// The kernel's performance profile for the GPU simulator.
    pub fn profile(&self, arch: &GpuArch) -> KernelProfile {
        perf::gemm_profile(arch, &self.problem, &self.config, &self.epilogue, None)
    }

    /// Simulated execution time on `arch`.
    pub fn time(&self, arch: &GpuArch) -> KernelTime {
        simulate_kernel(arch, &self.profile(arch))
    }

    /// Kernel name used in timelines and emitted code.
    pub fn name(&self) -> String {
        format!(
            "cutlass_gemm_{}_{}_{}",
            self.problem.element,
            self.config.tag(),
            self.epilogue.activation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_tensor::gemm_ref::gemm_with_epilogue;
    use bolt_tensor::Activation;

    fn t4() -> GpuArch {
        GpuArch::tesla_t4()
    }

    fn check_against_reference(m: usize, n: usize, k: usize, config: GemmConfig) {
        let problem = GemmProblem::fp16(m, n, k);
        let kernel = GemmKernel::new(problem, config, Epilogue::linear(DType::F16));
        let a = Tensor::randn(&[m, k], DType::F16, 1);
        let b = Tensor::randn(&[k, n], DType::F16, 2);
        let (d, _) = kernel.run(&a, &b, None).unwrap();
        let expect =
            gemm_with_epilogue(&a, &b, None, 1.0, 0.0, Activation::Identity, DType::F16).unwrap();
        let diff = d.max_abs_diff(&expect).unwrap();
        // Same k-order accumulation => exact equality after f16 rounding.
        assert_eq!(diff, 0.0, "m={m} n={n} k={k} config={config}");
    }

    #[test]
    fn matches_reference_exact_tiles() {
        let mut c = GemmConfig::turing_default();
        c.threadblock = crate::tiles::TileShape::new(16, 16, 8);
        c.warp = crate::tiles::TileShape::new(8, 8, 8);
        c.instruction = crate::tiles::TileShape::new(8, 8, 4);
        check_against_reference(32, 32, 16, c);
    }

    #[test]
    fn matches_reference_ragged_boundaries() {
        let mut c = GemmConfig::turing_default();
        c.threadblock = crate::tiles::TileShape::new(16, 16, 8);
        c.warp = crate::tiles::TileShape::new(8, 8, 8);
        // 35x29x23 exercises partial tiles in every dimension.
        check_against_reference(35, 29, 23, c);
    }

    #[test]
    fn epilogue_bias_relu_matches_reference() {
        let problem = GemmProblem::fp16(24, 20, 12);
        let mut config = GemmConfig::turing_default();
        config.threadblock = crate::tiles::TileShape::new(16, 16, 8);
        config.warp = crate::tiles::TileShape::new(8, 8, 8);
        let kernel = GemmKernel::new(
            problem,
            config,
            Epilogue::bias_activation(Activation::ReLU, DType::F16),
        );
        let a = Tensor::randn(&[24, 12], DType::F16, 3);
        let b = Tensor::randn(&[12, 20], DType::F16, 4);
        let bias = Tensor::randn(&[20], DType::F16, 5);
        let (d, _) = kernel.run(&a, &b, Some(&bias)).unwrap();
        let expect =
            gemm_with_epilogue(&a, &b, Some(&bias), 1.0, 1.0, Activation::ReLU, DType::F16)
                .unwrap();
        assert_eq!(d.max_abs_diff(&expect).unwrap(), 0.0);
    }

    #[test]
    fn column_reduction_output() {
        let problem = GemmProblem::fp16(8, 4, 4);
        let mut config = GemmConfig::turing_default();
        config.threadblock = crate::tiles::TileShape::new(8, 8, 8);
        config.warp = crate::tiles::TileShape::new(8, 8, 8);
        let kernel = GemmKernel::new(
            problem,
            config,
            Epilogue::linear(DType::F16).with_column_reduction(),
        );
        let a = Tensor::ones(&[8, 4], DType::F16);
        let b = Tensor::ones(&[4, 4], DType::F16);
        let (_, red) = kernel.run(&a, &b, None).unwrap();
        let red = red.expect("reduction requested");
        // Every D element is 4.0; column sums are 32.0.
        assert!(red.data().iter().all(|&v| v == 32.0));
    }

    #[test]
    fn rejects_wrong_operand_shapes() {
        let kernel = GemmKernel::new(
            GemmProblem::fp16(8, 8, 8),
            GemmConfig::turing_default(),
            Epilogue::linear(DType::F16),
        );
        let a = Tensor::zeros(&[8, 4], DType::F16);
        let b = Tensor::zeros(&[8, 8], DType::F16);
        assert!(kernel.run(&a, &b, None).is_err());
    }

    #[test]
    fn alignment_clamped_by_problem() {
        // K=46 limits A (row-major) alignment to 2.
        let kernel = GemmKernel::new(
            GemmProblem::fp16(32, 64, 46),
            GemmConfig::turing_default(),
            Epilogue::linear(DType::F16),
        );
        assert_eq!(kernel.config.alignment_a, 2);
        assert_eq!(kernel.config.alignment_b, 8); // B row-major: extent N=64
    }

    #[test]
    fn problem_helpers() {
        let p = GemmProblem::fp16(1280, 3072, 768);
        assert_eq!(p.macs(), 1280 * 3072 * 768);
        assert!(p.arithmetic_intensity() > 100.0);
        let b = GemmProblem::fp16_batched(384, 40, 40, 64);
        assert!(b.arithmetic_intensity() < 30.0);
        assert_eq!(b.to_string(), "384x[40, 40, 64] f16");
    }

    #[test]
    fn int8_gemm_computes_exactly_and_runs_2x_faster() {
        // CUTLASS IMMA path: int8 operands, i32 accumulation (exact in
        // f32 for these magnitudes), fused dequant via alpha.
        let t4 = GpuArch::tesla_t4();
        let mut problem = GemmProblem::fp16(64, 64, 64);
        problem.element = DType::I8;
        let mut config = GemmConfig::turing_default();
        config.threadblock = crate::tiles::TileShape::new(16, 16, 8);
        config.warp = crate::tiles::TileShape::new(8, 8, 8);
        let mut ep = Epilogue::linear(DType::F32);
        ep.alpha = 0.25; // dequantization scale
        let kernel = GemmKernel::new(problem, config, ep);

        let a = Tensor::from_vec(
            &[64, 64],
            DType::I8,
            (0..4096).map(|i| ((i % 7) as f32) - 3.0).collect(),
        )
        .unwrap();
        let b = Tensor::from_vec(
            &[64, 64],
            DType::I8,
            (0..4096).map(|i| ((i % 5) as f32) - 2.0).collect(),
        )
        .unwrap();
        let (d, _) = kernel.run(&a, &b, None).unwrap();
        // Integer reference.
        let mut expect = 0.0f32;
        for p0 in 0..64 {
            expect += a.get2(0, p0) * b.get2(p0, 0);
        }
        assert_eq!(d.get2(0, 0), 0.25 * expect);

        // INT8 tensor cores run ~2x FP16 rate for compute-bound GEMMs.
        let mut big_i8 = GemmProblem::fp16(4096, 4096, 4096);
        big_i8.element = DType::I8;
        let i8_kernel = GemmKernel::new(
            big_i8,
            GemmConfig::turing_default(),
            Epilogue::linear(DType::I8),
        );
        let f16_kernel = GemmKernel::new(
            GemmProblem::fp16(4096, 4096, 4096),
            GemmConfig::turing_default(),
            Epilogue::linear(DType::F16),
        );
        let ratio = f16_kernel.time(&t4).total_us / i8_kernel.time(&t4).total_us;
        assert!(
            ratio > 1.4 && ratio < 2.4,
            "INT8 should be ~2x FP16, got {ratio:.2}x"
        );
    }

    #[test]
    fn split_k_matches_reference() {
        let mut config = GemmConfig::turing_default();
        config.threadblock = crate::tiles::TileShape::new(16, 16, 8);
        config.warp = crate::tiles::TileShape::new(8, 8, 8);
        config.split_k = 4;
        let kernel = GemmKernel::new(
            GemmProblem::fp16(24, 20, 64),
            config,
            Epilogue::linear(DType::F16),
        );
        let a = Tensor::randn(&[24, 64], DType::F16, 11);
        let b = Tensor::randn(&[64, 20], DType::F16, 12);
        let (d, _) = kernel.run(&a, &b, None).unwrap();
        let expect =
            gemm_with_epilogue(&a, &b, None, 1.0, 0.0, Activation::Identity, DType::F16).unwrap();
        // Slice boundaries align with tile boundaries here, so the f32
        // accumulation order is identical: exact match.
        assert_eq!(d.max_abs_diff(&expect).unwrap(), 0.0);
    }

    #[test]
    fn split_k_helps_small_m_deep_k() {
        // Batch-32 classifier layer: (32, 1000, 2048) — 1x8 grid without
        // split-K starves the 40 SMs.
        let t4 = GpuArch::tesla_t4();
        let problem = GemmProblem::fp16(32, 1000, 2048);
        let plain = GemmKernel::new(
            problem,
            GemmConfig::turing_default(),
            Epilogue::linear(DType::F16),
        );
        let mut cfg = GemmConfig::turing_default();
        cfg.threadblock = crate::tiles::TileShape::new(32, 128, 32);
        cfg.warp = crate::tiles::TileShape::new(32, 32, 32);
        cfg.split_k = 8;
        let split = GemmKernel::new(problem, cfg, Epilogue::linear(DType::F16));
        split.validate(&t4).unwrap();
        assert!(
            split.time(&t4).total_us < plain.time(&t4).total_us,
            "split-K should beat the underfilled plain kernel"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "A flagged pre-quantized")]
    fn unquantized_operand_flagged_pre_quantized_is_caught() {
        let kernel = GemmKernel::new(
            GemmProblem::fp16(4, 8, 8),
            GemmConfig::turing_default(),
            Epilogue::linear(DType::F16),
        );
        // f32 values are generally not representable in f16.
        let a = Tensor::randn(&[4, 8], DType::F32, 3);
        let b = Tensor::randn(&[8, 8], DType::F16, 4);
        let mut out = vec![0.0f32; 32];
        let _ = kernel.run_into(
            a.data(),
            b.data(),
            None,
            &mut Vec::new(),
            &mut out,
            4,
            true,
            true,
        );
    }

    #[test]
    fn simulated_time_is_finite_and_positive() {
        let kernel = GemmKernel::new(
            GemmProblem::fp16(4096, 4096, 4096),
            GemmConfig::turing_default(),
            Epilogue::linear(DType::F16),
        );
        kernel.validate(&t4()).unwrap();
        let t = kernel.time(&t4());
        assert!(t.total_us.is_finite() && t.total_us > 0.0);
        // Must land within the plausible tensor-core band on T4.
        let tflops = t.tflops(kernel.problem.flops());
        assert!(tflops > 35.0 && tflops <= 65.0, "got {tflops:.1} TFLOPS");
    }
}
