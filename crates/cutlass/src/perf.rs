//! Maps template instantiations to [`KernelProfile`]s for the GPU
//! simulator.
//!
//! This is the performance-model half of the templated library: given a
//! problem and a [`GemmConfig`], derive launch geometry, per-block
//! resources, per-pipeline flops, and DRAM/shared-memory traffic. The
//! traffic model follows the standard tiled-GEMM analysis:
//!
//! * per-block operand traffic `MNK·elt·(1/tb_n + 1/tb_m)`, of which the
//!   L2 absorbs re-reads within a wave (modeled by a leak factor driven by
//!   the wave working set vs. L2 capacity and the swizzle width);
//! * shared-memory traffic `2·MNK·elt·(1/warp_m + 1/warp_n)` — which is
//!   exactly why the profiler heuristic prefers large warp tiles (higher
//!   compute-to-smem ratio);
//! * main-loop efficiency from pipeline fill/drain (`k_iters / (k_iters +
//!   stages)`) and tile quantization waste at ragged boundaries.

use bolt_gpu_sim::{GpuArch, KernelProfile, Pipeline, PipelineFlops};
use bolt_tensor::conv_ref::Conv2dProblem;
use bolt_tensor::DType;

use crate::epilogue::Epilogue;
use crate::gemm::GemmProblem;
use crate::template::GemmConfig;

/// Main-loop issue efficiency of a templated GEMM: how close to pipeline
/// peak the inner loop runs, before occupancy derating (which the
/// simulator applies separately).
pub fn mainloop_efficiency(m: usize, n: usize, k: usize, config: &GemmConfig) -> f64 {
    let tb = config.threadblock;
    // Software pipeline fill/drain: with k_iters main-loop iterations and
    // `stages` in flight, the pipeline is full for k_iters/(k_iters+stages).
    let k_iters = (k as f64 / tb.k as f64).max(1.0);
    let fill = k_iters / (k_iters + config.stages as f64);
    // Tile quantization: partial boundary tiles compute wasted MACs.
    let util_m = m as f64 / (m.div_ceil(tb.m) * tb.m) as f64;
    let util_n = n as f64 / (n.div_ceil(tb.n) * tb.n) as f64;
    // Instruction shape: the wide 16x8x16 HMMA has the best issue rate.
    let inst = if config.instruction.k >= 16 {
        1.0
    } else {
        0.96
    };
    let base = match config.pipeline {
        // cp.async multi-stage main loops (Ampere) issue MMAs nearly
        // back-to-back; Turing's 2-stage pipeline pays more bookkeeping.
        Pipeline::TensorCore => {
            if config.stages >= 3 {
                0.985
            } else {
                0.95
            }
        }
        Pipeline::CudaCore => 0.90,
        Pipeline::Sfu => 0.5,
    };
    base * fill * util_m * util_n * inst
}

/// Main-loop derate from operand alignment: tensor cores are fed by
/// 128-bit `ldmatrix`/`ldg` operations; narrower legal accesses multiply
/// the load instruction count and predicate overhead, throttling issue
/// bandwidth on top of the DRAM-efficiency loss (the kernel-padding
/// motivation in Section 3.2.3).
pub fn alignment_issue_factor(alignment_elems: usize) -> f64 {
    match alignment_elems {
        a if a >= 8 => 1.0,
        4 => 0.85,
        2 => 0.62,
        // Scalar (alignment-1) accesses cannot feed ldmatrix at all; the
        // iterator falls back to element-wise loads with full predication.
        _ => 0.30,
    }
}

/// L2 leak factor: the fraction of per-block operand re-reads that miss L2
/// and reach DRAM. Grows as the wave working set outgrows the L2; shrinks
/// with wider threadblock swizzle (better wave locality).
fn l2_leak(arch: &GpuArch, problem_k: usize, config: &GemmConfig, element: DType) -> f64 {
    let tb = config.threadblock;
    let elt = element.size_bytes() as f64;
    // Blocks resident per wave (rough: limited by smem).
    let blocks_per_sm = (arch.smem_per_sm as f64 / config.smem_bytes(element).max(1) as f64)
        .floor()
        .max(1.0);
    let wave_blocks = blocks_per_sm * arch.sm_count as f64;
    // A swizzled wave covers a roughly square region of the output grid,
    // so of the `2 * wave_blocks` operand panels its blocks touch, only
    // ~`2 * sqrt(wave_blocks)` are unique; a linear (unswizzled) wave is
    // far worse.
    let swizzle_quality: f64 = match config.swizzle {
        s if s >= 4 => 1.0,
        2 => 1.6,
        _ => 3.0,
    };
    let unique_frac = (swizzle_quality / wave_blocks.sqrt()).min(1.0);
    // Even unique panels get evicted mid-wave once the wave's working set
    // outgrows the L2.
    let wave_set = wave_blocks * (tb.m + tb.n) as f64 * problem_k as f64 * elt;
    let evict = (unique_frac * wave_set / arch.l2_bytes as f64)
        .sqrt()
        .clamp(1.0, 3.0);
    (unique_frac * evict).clamp(0.02, 1.0)
}

/// Builds the [`KernelProfile`] of a templated GEMM kernel.
///
/// `extra_dram_bytes` lets callers add traffic for inputs the plain model
/// does not know about (e.g. the fused second-GEMM weights of a persistent
/// kernel).
pub fn gemm_profile(
    arch: &GpuArch,
    problem: &GemmProblem,
    config: &GemmConfig,
    epilogue: &Epilogue,
    extra_dram_bytes: Option<f64>,
) -> KernelProfile {
    let mut profile = gemm_search_profile(arch, problem, config, epilogue, extra_dram_bytes);
    profile.name = format!("gemm_{}_{}", problem, config.tag());
    profile
}

/// [`gemm_profile`] without the formatted kernel name.
///
/// The profiler's candidate loop builds one profile per enumerated
/// template and never reads the name; formatting it dominated the cost of
/// profile construction, so the search path uses this variant and the
/// name is only rendered for profiles that reach a timeline.
pub fn gemm_search_profile(
    arch: &GpuArch,
    problem: &GemmProblem,
    config: &GemmConfig,
    epilogue: &Epilogue,
    extra_dram_bytes: Option<f64>,
) -> KernelProfile {
    let tb = config.threadblock;
    let elt = problem.element.size_bytes() as f64;
    let batch = problem.batch as f64;
    let (m, n, k) = (problem.m as f64, problem.n as f64, problem.k as f64);

    let split_k = config.split_k.max(1) as u64;
    let grid_m = problem.m.div_ceil(tb.m) as u64;
    let grid_n = problem.n.div_ceil(tb.n) as u64;
    let grid = problem.batch as u64 * grid_m * grid_n * split_k;

    // ---- Arithmetic ------------------------------------------------------
    let mac_flops = problem.flops();
    let (ep_fma, ep_sfu) = epilogue.cost_per_elem();
    let out_elems = batch * m * n;
    let mut flops = PipelineFlops::none();
    match config.pipeline {
        Pipeline::TensorCore => flops.tensor_core = mac_flops,
        _ => flops.cuda_core = mac_flops,
    }
    flops.cuda_core += ep_fma * out_elems;
    flops.sfu += ep_sfu * out_elems;
    // Split-K reduction: combine `split_k` f32 partials per output element.
    if split_k > 1 {
        flops.cuda_core += out_elems * split_k as f64;
    }

    // ---- DRAM traffic ----------------------------------------------------
    let compulsory_in = batch * elt * (m * k + k * n);
    let block_in = batch * elt * (grid_n as f64 * m * k + grid_m as f64 * k * n);
    let leak = l2_leak(arch, problem.k, config, problem.element);
    // Split-K workspace traffic: each slice writes an f32 partial tile and
    // the reduction reads them all back.
    let workspace = if split_k > 1 {
        2.0 * out_elems * 4.0 * split_k as f64
    } else {
        0.0
    };
    let dram_read = compulsory_in
        + (block_in - compulsory_in).max(0.0) * leak
        + batch * epilogue.extra_bytes(problem.m, problem.n)
        + workspace / 2.0
        + extra_dram_bytes.unwrap_or(0.0);
    let out_bytes = out_elems * epilogue.out_dtype.size_bytes() as f64 + workspace / 2.0;

    // ---- Shared-memory traffic --------------------------------------------
    // Stage writes (global->smem) + per-warp reads of A/B fragments.
    let warp = config.warp;
    let smem_bytes = block_in.min(compulsory_in + (block_in - compulsory_in) * 0.5)
        + 2.0 * problem.macs() as f64 * elt * (1.0 / warp.m as f64 + 1.0 / warp.n as f64);

    KernelProfile {
        name: String::new(),
        grid_blocks: grid,
        block: config.block_resources(problem.element),
        flops,
        dram_read_bytes: dram_read,
        dram_write_bytes: out_bytes,
        smem_bytes,
        dtype: problem.element,
        alignment_elems: config.min_alignment(),
        bank_conflict_ways: 1.0,
        mainloop_efficiency: mainloop_efficiency(
            problem.m,
            problem.n,
            problem.k / config.split_k.max(1), // per-slice reduction depth
            config,
        ) * alignment_issue_factor(config.min_alignment()),
        pipelined_overlap: pipelined_overlap(config),
    }
}

/// Memory-overlap quality of a main loop: `cp.async` multi-stage pipelines
/// (Ampere, stages >= 3) keep global loads fully asynchronous under the
/// MMA stream; Turing double buffering leaves some latency exposed.
pub fn pipelined_overlap(config: &GemmConfig) -> f64 {
    if config.stages >= 3 {
        0.85
    } else {
        0.25
    }
}

/// Builds the [`KernelProfile`] of an implicit-GEMM Conv2D kernel.
///
/// Differences from the plain GEMM model:
///
/// * the im2col matrix is never materialized — activations are re-read
///   across the `R*S` filter taps, with the L1/L2 absorbing most of the
///   overlap (factor `1 + (R*S - 1) * overlap_miss`);
/// * the contiguous dimension of both activations (NHWC) and filters
///   (KRSC) is `C`, so the *input channel count* dictates alignment — the
///   mechanism behind Table 3's padding results.
pub fn conv2d_profile(
    arch: &GpuArch,
    problem: &Conv2dProblem,
    config: &GemmConfig,
    epilogue: &Epilogue,
    element: DType,
    extra_dram_bytes: Option<f64>,
) -> KernelProfile {
    let mut profile =
        conv2d_search_profile(arch, problem, config, epilogue, element, extra_dram_bytes);
    profile.name = format!(
        "conv2d_{}x{}x{}x{}_k{}r{}s{}_{}",
        problem.n,
        problem.h,
        problem.w,
        problem.c,
        problem.k,
        problem.r,
        problem.s,
        config.tag()
    );
    profile
}

/// [`conv2d_profile`] without the formatted kernel name — see
/// [`gemm_search_profile`] for why the search path skips it.
pub fn conv2d_search_profile(
    _arch: &GpuArch,
    problem: &Conv2dProblem,
    config: &GemmConfig,
    epilogue: &Epilogue,
    element: DType,
    extra_dram_bytes: Option<f64>,
) -> KernelProfile {
    let (gm, gn, gk) = problem.implicit_gemm_mnk();
    let tb = config.threadblock;
    let elt = element.size_bytes() as f64;

    let grid_m = gm.div_ceil(tb.m) as u64;
    let grid_n = gn.div_ceil(tb.n) as u64;
    let grid = grid_m * grid_n;

    // ---- Arithmetic ------------------------------------------------------
    let mac_flops = 2.0 * problem.macs() as f64;
    let (ep_fma, ep_sfu) = epilogue.cost_per_elem();
    let out_elems = gm as f64 * gn as f64;
    let mut flops = PipelineFlops::none();
    match config.pipeline {
        Pipeline::TensorCore => flops.tensor_core = mac_flops,
        _ => flops.cuda_core = mac_flops,
    }
    flops.cuda_core += ep_fma * out_elems;
    flops.sfu += ep_sfu * out_elems;

    // ---- DRAM traffic ----------------------------------------------------
    let act_bytes = (problem.n * problem.h * problem.w * problem.c) as f64 * elt;
    let taps = (problem.r * problem.s) as f64;
    let overlap_miss = 0.18; // L1/L2 serve most halo re-reads
    let input_read = act_bytes * (1.0 + (taps - 1.0) * overlap_miss);
    let filter_bytes = (problem.k * problem.r * problem.s * problem.c) as f64 * elt;
    // Filters are re-read by every M-tile; the L2 usually holds them.
    let filter_read = filter_bytes * (1.0 + (grid_m as f64 - 1.0) * 0.03).min(grid_m as f64);
    let dram_read =
        input_read + filter_read + epilogue.extra_bytes(gm, gn) + extra_dram_bytes.unwrap_or(0.0);
    let out_bytes = out_elems * epilogue.out_dtype.size_bytes() as f64;

    // ---- Shared-memory traffic --------------------------------------------
    let warp = config.warp;
    let smem_bytes = input_read.max(act_bytes) * 1.5
        + 2.0 * problem.macs() as f64 * elt * (1.0 / warp.m as f64 + 1.0 / warp.n as f64);

    // Alignment: C for input/filter (NHWC/KRSC contiguous dim), K for
    // output.
    use bolt_gpu_sim::memory::max_alignment;
    let align = max_alignment(element, problem.c)
        .min(max_alignment(element, problem.k))
        .min(config.min_alignment());

    KernelProfile {
        name: String::new(),
        grid_blocks: grid,
        block: config.block_resources(element),
        flops,
        dram_read_bytes: dram_read,
        dram_write_bytes: out_bytes,
        smem_bytes,
        dtype: element,
        alignment_elems: align,
        bank_conflict_ways: 1.0,
        // Implicit-GEMM iterators (NHWC gather, boundary predicates, filter
        // tap bookkeeping) cost issue slots that a plain GEMM main loop
        // doesn't pay; on 2-stage Turing pipelines CUTLASS Conv2dFprop
        // lands around 55-60% of the equivalent GEMM's efficiency.
        mainloop_efficiency: mainloop_efficiency(gm, gn, gk, config)
            * alignment_issue_factor(align)
            * 0.58,
        pipelined_overlap: pipelined_overlap(config),
    }
}

/// Precomputed workload-level constants for the per-candidate lower
/// bound, built once per profiled workload and evaluated per candidate.
///
/// Evaluating the bound costs a few dozen arithmetic ops and — crucially —
/// builds neither the candidate's [`KernelProfile`] nor its occupancy (the
/// caller supplies the [`Occupancy`](bolt_gpu_sim::Occupancy) the generator caches alongside each
/// base combination). In the profiler's candidate loop the profile
/// construction itself is a large share of the per-candidate cost, so a
/// bound that required either could never pay for itself; this one lets a
/// pruned candidate skip both the profile build and the simulation.
///
/// Admissibility: every stream mirrors the float expressions that
/// [`gemm_search_profile`]/[`conv2d_search_profile`] +
/// [`bolt_gpu_sim::simulate_kernel`] evaluate — same main-loop efficiency,
/// same occupancy derates, same DRAM traffic including the L2-leak
/// re-reads and split-K workspace, same shared-memory staging, same
/// epilogue compute streams, same overlap leak and wave tail. Workload
/// constants (operand bytes, epilogue extras, per-stream `flops / peak`
/// bases) are folded at construction and combo constants (occupancy,
/// latency factor, leak coefficients) come prefolded in the
/// [`CandidateSeed`](crate::generator::CandidateSeed), so an evaluation is a handful of multiplies and
/// divides. The folding regroups a few products relative to the
/// simulator's literal expression order, which perturbs the result by at
/// most a few ULPs (relative error ~1e-15 on times that never exceed
/// ~1e6 µs); the 1e-9 µs absolute shave at the end dominates that drift
/// by orders of magnitude, making the value a *certified* lower bound.
/// Pruning on it is therefore winner-preserving: a skipped candidate
/// provably cannot beat (or tie) the incumbent best.
#[derive(Debug, Clone, Copy)]
pub struct CandidateBound {
    /// GEMM dimensions (the implicit-GEMM view for convolutions).
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
    /// Conv candidates price the implicit-GEMM: no split-K grid/reduction
    /// scaling, an extra main-loop derate, and a channel alignment cap.
    implicit_gemm: bool,
    /// Extra main-loop efficiency factor (0.58 implicit-GEMM iterator
    /// overhead for conv, 1.0 for plain GEMM).
    eff_factor: f64,
    dtype: DType,
    /// Problem-side alignment cap (conv: C and K extents); `usize::MAX`
    /// for GEMM where the config's alignments are already clamped.
    alignment_cap: usize,
    /// Problem dims as f64, with `batch * elt` prefolded (the profile
    /// builders' own grouping) for the per-candidate `block_in` re-read
    /// traffic.
    m_f: f64,
    n_f: f64,
    k_f: f64,
    batch_elt: f64,
    /// GEMM: compulsory operand reads. Conv: activation reads including
    /// the halo re-read factor (`input_read`).
    base_read_bytes: f64,
    /// Conv only: raw activation and filter bytes feeding the per-tile
    /// filter re-read term; zero for GEMM.
    filter_bytes: f64,
    /// Epilogue extra DRAM reads (bias/residual operands), prefolded with
    /// the batch factor.
    ep_extra_bytes: f64,
    /// Output write bytes (before any split-K workspace).
    out_dram_bytes: f64,
    /// Conv only: the constant smem staging term
    /// (`input_read.max(act_bytes) * 1.5`); GEMM staging is derived from
    /// `block_in` per candidate.
    smem_staging_bytes: f64,
    /// Shared-memory fragment traffic numerator (`2 * macs * elt`); the
    /// per-candidate warp term multiplies by `1/warp_m + 1/warp_n`.
    smem_warp_traffic: f64,
    /// Output elements as the profile builders compute them (for the
    /// split-K workspace mirror).
    out_elems: f64,
    /// Prefolded compute-stream bases, each `stream_flops / stream_peak`
    /// so the per-candidate stream time is `base / eff` — one division for
    /// the whole compute term. `tc_base` is the MAC load on the
    /// tensor-core pipeline; `cc_base_tc`/`cc_base_other` are the
    /// CUDA-core load when MACs run on tensor cores vs elsewhere;
    /// `splitk_cc_coeff * split_k` adds the split-K reduction flops.
    tc_base: f64,
    cc_base_tc: f64,
    cc_base_other: f64,
    sfu_base: f64,
    splitk_cc_coeff: f64,
    /// Cached arch rates and model constants (bitwise identical to what
    /// `simulate_kernel` recomputes per call).
    dram_bytes_per_us: f64,
    smem_bytes_per_us: f64,
    launch_us: f64,
    overlap_leak: f64,
    wave_tail_us: f64,
    sm_count: u64,
}

impl CandidateBound {
    /// Bound context for a GEMM workload.
    pub fn gemm(arch: &GpuArch, problem: &GemmProblem, epilogue: &Epilogue) -> Self {
        let elt = problem.element.size_bytes() as f64;
        let batch = problem.batch as f64;
        let (m, n, k) = (problem.m as f64, problem.n as f64, problem.k as f64);
        // Mirrors `gemm_search_profile`'s float expressions exactly so the
        // bound's traffic never rounds above the profile's.
        let compulsory_in = batch * elt * (m * k + k * n);
        let out_elems = batch * m * n;
        Self::shared(
            arch,
            epilogue,
            problem.element,
            out_elems,
            problem.flops(),
            CandidateBound {
                m: problem.m,
                n: problem.n,
                k: problem.k,
                batch: problem.batch,
                implicit_gemm: false,
                eff_factor: 1.0,
                dtype: problem.element,
                alignment_cap: usize::MAX,
                m_f: m,
                n_f: n,
                k_f: k,
                batch_elt: batch * elt,
                base_read_bytes: compulsory_in,
                ep_extra_bytes: batch * epilogue.extra_bytes(problem.m, problem.n),
                out_dram_bytes: out_elems * epilogue.out_dtype.size_bytes() as f64,
                smem_warp_traffic: 2.0 * problem.macs() as f64 * elt,
                ..Self::zeroed()
            },
        )
    }

    /// Bound context for an implicit-GEMM Conv2D workload.
    pub fn conv2d(
        arch: &GpuArch,
        problem: &Conv2dProblem,
        epilogue: &Epilogue,
        element: DType,
    ) -> Self {
        use bolt_gpu_sim::memory::max_alignment;
        let (gm, gn, gk) = problem.implicit_gemm_mnk();
        let elt = element.size_bytes() as f64;
        // `conv2d_search_profile`'s own constants, bit for bit.
        let act_bytes = (problem.n * problem.h * problem.w * problem.c) as f64 * elt;
        let taps = (problem.r * problem.s) as f64;
        let overlap_miss = 0.18;
        let input_read = act_bytes * (1.0 + (taps - 1.0) * overlap_miss);
        let filter_bytes = (problem.k * problem.r * problem.s * problem.c) as f64 * elt;
        let out_elems = gm as f64 * gn as f64;
        Self::shared(
            arch,
            epilogue,
            element,
            out_elems,
            2.0 * problem.macs() as f64,
            CandidateBound {
                m: gm,
                n: gn,
                k: gk,
                batch: 1,
                implicit_gemm: true,
                eff_factor: 0.58,
                dtype: element,
                alignment_cap: max_alignment(element, problem.c)
                    .min(max_alignment(element, problem.k)),
                m_f: gm as f64,
                n_f: gn as f64,
                k_f: gk as f64,
                batch_elt: elt,
                base_read_bytes: input_read,
                filter_bytes,
                ep_extra_bytes: epilogue.extra_bytes(gm, gn),
                out_dram_bytes: out_elems * epilogue.out_dtype.size_bytes() as f64,
                smem_staging_bytes: input_read.max(act_bytes) * 1.5,
                smem_warp_traffic: 2.0 * problem.macs() as f64 * elt,
                ..Self::zeroed()
            },
        )
    }

    /// All-zero template so the constructors can use struct-update syntax
    /// for the shared arch-derived fields.
    fn zeroed() -> Self {
        CandidateBound {
            m: 0,
            n: 0,
            k: 0,
            batch: 0,
            implicit_gemm: false,
            eff_factor: 0.0,
            dtype: DType::F16,
            alignment_cap: 0,
            m_f: 0.0,
            n_f: 0.0,
            k_f: 0.0,
            batch_elt: 0.0,
            base_read_bytes: 0.0,
            filter_bytes: 0.0,
            ep_extra_bytes: 0.0,
            out_dram_bytes: 0.0,
            smem_staging_bytes: 0.0,
            smem_warp_traffic: 0.0,
            out_elems: 0.0,
            tc_base: 0.0,
            cc_base_tc: 0.0,
            cc_base_other: 0.0,
            sfu_base: 0.0,
            splitk_cc_coeff: 0.0,
            dram_bytes_per_us: 0.0,
            smem_bytes_per_us: 0.0,
            launch_us: 0.0,
            overlap_leak: 0.0,
            wave_tail_us: 0.0,
            sm_count: 0,
        }
    }

    /// Fills the fields every workload derives the same way: the prefolded
    /// compute-stream bases and the cached architecture rates.
    fn shared(
        arch: &GpuArch,
        epilogue: &Epilogue,
        element: DType,
        out_elems: f64,
        mac_flops: f64,
        mut ctx: CandidateBound,
    ) -> Self {
        let (ep_fma, ep_sfu) = epilogue.cost_per_elem();
        let ep_cc_flops = ep_fma * out_elems;
        let ep_sfu_flops = ep_sfu * out_elems;
        let tc_peak = arch.peak_tflops(Pipeline::TensorCore, element) * 1e6;
        let cc_peak = arch.peak_tflops(Pipeline::CudaCore, element) * 1e6;
        let sfu_peak = arch.peak_tflops(Pipeline::Sfu, element) * 1e6;
        ctx.out_elems = out_elems;
        // Mirror the simulator's `flops > 0` stream guards here so a
        // zero-flop stream stays exactly zero (not 0/0).
        ctx.tc_base = if mac_flops > 0.0 {
            mac_flops / tc_peak
        } else {
            0.0
        };
        ctx.cc_base_tc = if ep_cc_flops > 0.0 {
            ep_cc_flops / cc_peak
        } else {
            0.0
        };
        let other = mac_flops + ep_cc_flops;
        ctx.cc_base_other = if other > 0.0 { other / cc_peak } else { 0.0 };
        ctx.sfu_base = if ep_sfu_flops > 0.0 {
            ep_sfu_flops / sfu_peak
        } else {
            0.0
        };
        ctx.splitk_cc_coeff = out_elems / cc_peak;
        ctx.dram_bytes_per_us = arch.dram_bytes_per_us();
        ctx.smem_bytes_per_us = arch.smem_bytes_per_us();
        ctx.launch_us = arch.params.launch_overhead_us;
        ctx.overlap_leak = arch.params.overlap_leak;
        ctx.wave_tail_us = arch.params.wave_tail_us;
        ctx.sm_count = arch.sm_count as u64;
        ctx
    }

    /// The certified lower bound (µs) on the seed candidate's simulated
    /// time.
    ///
    /// `seed` must come from the same architecture and element type the
    /// context was built for — the generator hands out its prefolded
    /// occupancy, latency factor, and leak coefficients next to each
    /// candidate.
    pub fn lower_bound_us(&self, arch: &GpuArch, seed: &crate::generator::CandidateSeed) -> f64 {
        use bolt_gpu_sim::sm_utilization_factor;
        let occ = &seed.occupancy;
        if occ.blocks_per_sm == 0 {
            // The simulator prices an unlaunchable candidate at infinity.
            return f64::INFINITY;
        }
        let config = &seed.config;
        let tb = config.threadblock;
        let split_k = config.split_k.max(1);
        let grid_m = self.m.div_ceil(tb.m) as u64;
        let grid_n = self.n.div_ceil(tb.n) as u64;
        let mut grid = self.batch as u64 * grid_m * grid_n;
        let k_eff = if self.implicit_gemm {
            self.k
        } else {
            grid *= split_k as u64;
            self.k / split_k
        };
        let align = if self.implicit_gemm {
            self.alignment_cap.min(config.min_alignment())
        } else {
            config.min_alignment()
        };

        let sm_utilization = sm_utilization_factor(arch, occ.blocks_per_sm, grid);
        // Same grouping as the simulator: clamp(mainloop) * latency * util.
        let eff = (mainloop_efficiency(self.m, self.n, k_eff, config)
            * alignment_issue_factor(align)
            * self.eff_factor)
            .clamp(0.01, 1.0)
            * seed.latency_factor
            * sm_utilization;

        // Compute streams: MACs on the config's pipeline plus the epilogue
        // streams. `max(tc, cc) + sfu` distributes over the shared `eff`
        // division, so the prefolded `flops / peak` bases need only one
        // divide here.
        let splitk_cc = if !self.implicit_gemm && split_k > 1 {
            self.splitk_cc_coeff * split_k as f64
        } else {
            0.0
        };
        let stream_num = match config.pipeline {
            Pipeline::TensorCore => self.tc_base.max(self.cc_base_tc + splitk_cc),
            _ => self.cc_base_other + splitk_cc,
        };
        let compute_us = (stream_num + self.sfu_base) / eff;

        // DRAM and shared-memory traffic: the profile builders' models,
        // reconstructed term by term from the prefolded constants.
        let (dram_bytes, smem_bytes) = if self.implicit_gemm {
            let filter_read =
                self.filter_bytes * (1.0 + (grid_m as f64 - 1.0) * 0.03).min(grid_m as f64);
            let dram_read = self.base_read_bytes + filter_read + self.ep_extra_bytes;
            let warp = config.warp;
            let smem = self.smem_staging_bytes
                + self.smem_warp_traffic * (1.0 / warp.m as f64 + 1.0 / warp.n as f64);
            (dram_read + self.out_dram_bytes, smem)
        } else {
            let compulsory_in = self.base_read_bytes;
            let block_in = self.batch_elt
                * (grid_n as f64 * self.m_f * self.k_f + grid_m as f64 * self.k_f * self.n_f);
            // `perf::l2_leak`, refactored around the seed's combo-constant
            // coefficients: only the `sqrt(coeff * k)` eviction term
            // depends on the problem.
            let evict = (seed.leak_evict_coeff * self.k_f).sqrt().clamp(1.0, 3.0);
            let leak = (seed.leak_unique_frac * evict).clamp(0.02, 1.0);
            let workspace = if split_k > 1 {
                2.0 * self.out_elems * 4.0 * split_k as f64
            } else {
                0.0
            };
            let dram_read = compulsory_in
                + (block_in - compulsory_in).max(0.0) * leak
                + self.ep_extra_bytes
                + workspace / 2.0;
            let out_bytes = self.out_dram_bytes + workspace / 2.0;
            let warp = config.warp;
            let smem = block_in.min(compulsory_in + (block_in - compulsory_in) * 0.5)
                + self.smem_warp_traffic * (1.0 / warp.m as f64 + 1.0 / warp.n as f64);
            (dram_read + out_bytes, smem)
        };
        let dram_bw = self.dram_bytes_per_us
            * bolt_gpu_sim::alignment_efficiency(self.dtype, align)
            * sm_utilization.max(0.6);
        let dram_us = dram_bytes / dram_bw;
        let smem_us = smem_bytes / (self.smem_bytes_per_us * sm_utilization);

        // The simulator's combine step: secondary-stream leak and wave
        // tail priced with its exact expressions (the tail is bit-identical
        // — integer wave math on the same grid and occupancy).
        let dominant = compute_us.max(dram_us).max(smem_us);
        let leak = self.overlap_leak
            * (1.0 - pipelined_overlap(config).clamp(0.0, 1.0))
            * (compute_us + dram_us + smem_us - dominant);
        let waves = grid
            .max(1)
            .div_ceil(occ.blocks_per_sm as u64 * self.sm_count);
        let tail_us = (waves.saturating_sub(1)) as f64 * self.wave_tail_us;
        // 1 fs absolute shave: strictly dominates the rounding drift of
        // the prefolded reconstruction, without costing any real pruning
        // power.
        self.launch_us + dominant + leak + tail_us - 1e-9
    }
}

/// Analytic lower bound (in µs) on the simulated time of a templated GEMM
/// candidate.
///
/// The bound is admissible: it never exceeds what [`simulate_kernel`]
/// (`bolt_gpu_sim`) would report for the same candidate, so the profiler
/// can safely skip candidates whose bound already exceeds the running
/// best without ever discarding the true winner. Callers evaluating many
/// candidates of one workload should build a [`CandidateBound`] once and
/// reuse it; this wrapper rebuilds the context per call.
///
/// [`simulate_kernel`]: bolt_gpu_sim::simulate_kernel
pub fn gemm_lower_bound_us(
    arch: &GpuArch,
    problem: &GemmProblem,
    config: &GemmConfig,
    epilogue: &Epilogue,
) -> f64 {
    let seed = crate::generator::CandidateSeed::compute(arch, *config, problem.element);
    CandidateBound::gemm(arch, problem, epilogue).lower_bound_us(arch, &seed)
}

/// Analytic lower bound (in µs) for an implicit-GEMM Conv2D candidate.
/// See [`gemm_lower_bound_us`] for the admissibility contract.
pub fn conv2d_lower_bound_us(
    arch: &GpuArch,
    problem: &Conv2dProblem,
    config: &GemmConfig,
    epilogue: &Epilogue,
    element: DType,
) -> f64 {
    let seed = crate::generator::CandidateSeed::compute(arch, *config, element);
    CandidateBound::conv2d(arch, problem, epilogue, element).lower_bound_us(arch, &seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_gpu_sim::simulate_kernel;

    fn t4() -> GpuArch {
        GpuArch::tesla_t4()
    }

    #[test]
    fn efficiency_prefers_deep_k() {
        let c = GemmConfig::turing_default();
        let deep = mainloop_efficiency(4096, 4096, 4096, &c);
        let shallow = mainloop_efficiency(4096, 4096, 64, &c);
        assert!(deep > shallow + 0.2, "{deep} vs {shallow}");
    }

    #[test]
    fn efficiency_penalizes_ragged_tiles() {
        let c = GemmConfig::turing_default();
        let exact = mainloop_efficiency(1280, 3072, 768, &c);
        let ragged = mainloop_efficiency(1290, 3080, 768, &c);
        assert!(exact > ragged);
    }

    #[test]
    fn big_gemm_lands_near_tensor_core_peak() {
        let p = GemmProblem::fp16(4096, 4096, 4096);
        let prof = gemm_profile(
            &t4(),
            &p,
            &GemmConfig::turing_default(),
            &Epilogue::linear(DType::F16),
            None,
        );
        let t = simulate_kernel(&t4(), &prof);
        let tflops = t.tflops(p.flops());
        assert!(tflops > 40.0 && tflops < 65.0, "{tflops:.1} TFLOPS; {t:?}");
    }

    #[test]
    fn batched_small_gemm_is_memory_or_launch_bound() {
        let p = GemmProblem::fp16_batched(384, 40, 40, 64);
        let mut c = GemmConfig::turing_default();
        c.threadblock = crate::tiles::TileShape::new(64, 64, 32);
        c.warp = crate::tiles::TileShape::new(32, 32, 32);
        let prof = gemm_profile(&t4(), &p, &c, &Epilogue::linear(DType::F16), None);
        let t = simulate_kernel(&t4(), &prof);
        assert_ne!(t.bound, bolt_gpu_sim::Boundedness::Compute, "{t:?}");
    }

    #[test]
    fn conv_alignment_follows_channels() {
        let aligned = Conv2dProblem::new(32, 56, 56, 64, 64, 3, 3, (1, 1), (1, 1));
        let unaligned = Conv2dProblem::new(32, 20, 26, 46, 32, 3, 3, (1, 1), (1, 1));
        let c = GemmConfig::turing_default();
        let ep = Epilogue::linear(DType::F16);
        let pa = conv2d_profile(&t4(), &aligned, &c, &ep, DType::F16, None);
        let pu = conv2d_profile(&t4(), &unaligned, &c, &ep, DType::F16, None);
        assert_eq!(pa.alignment_elems, 8);
        assert_eq!(pu.alignment_elems, 2);
    }

    #[test]
    fn padding_speeds_up_unaligned_conv() {
        // Table 3 workload: IC=46 -> pad to 48. Use a right-sized config
        // (tb N matches the 32 output channels) as the profiler would pick.
        let unpadded = Conv2dProblem::new(32, 20, 26, 46, 32, 3, 3, (1, 1), (1, 1));
        let padded = Conv2dProblem::new(32, 20, 26, 48, 32, 3, 3, (1, 1), (1, 1));
        let mut c = GemmConfig::turing_default();
        c.threadblock = crate::tiles::TileShape::new(64, 32, 32);
        c.warp = crate::tiles::TileShape::new(32, 32, 32);
        let ep = Epilogue::linear(DType::F16);
        let tu = simulate_kernel(
            &t4(),
            &conv2d_profile(&t4(), &unpadded, &c, &ep, DType::F16, None),
        );
        let tp = simulate_kernel(
            &t4(),
            &conv2d_profile(&t4(), &padded, &c, &ep, DType::F16, None),
        );
        let gain = tu.total_us / tp.total_us;
        assert!(gain > 1.3, "padding gain {gain:.2} too small");
    }

    #[test]
    fn epilogue_cost_shows_up_for_sfu_heavy_activations() {
        use bolt_tensor::Activation;
        let p = GemmProblem::fp16(1280, 3072, 768);
        let c = GemmConfig::turing_default();
        let relu = gemm_profile(
            &t4(),
            &p,
            &c,
            &Epilogue::bias_activation(Activation::ReLU, DType::F16),
            None,
        );
        let soft = gemm_profile(
            &t4(),
            &p,
            &c,
            &Epilogue::bias_activation(Activation::Softplus, DType::F16),
            None,
        );
        assert!(soft.flops.sfu > relu.flops.sfu);
        let tr = simulate_kernel(&t4(), &relu);
        let ts = simulate_kernel(&t4(), &soft);
        assert!(ts.total_us >= tr.total_us);
    }

    #[test]
    fn candidate_bound_is_admissible_across_the_search_space() {
        use crate::generator::ConfigGenerator;
        use bolt_tensor::Activation;
        let t4 = t4();
        let generator = ConfigGenerator::new(&t4);
        let epilogues = [
            Epilogue::linear(DType::F16),
            Epilogue::bias_activation(Activation::Gelu, DType::F16),
        ];
        let gemms = [
            GemmProblem::fp16(4096, 4096, 4096),
            GemmProblem::fp16(1280, 3072, 768),
            GemmProblem::fp16(128, 768, 3072),
            GemmProblem::fp16_batched(384, 40, 40, 64),
            GemmProblem::fp16(32, 1000, 4096), // split-K territory
            GemmProblem::fp16(1024, 64, 46),   // unaligned K
        ];
        for ep in &epilogues {
            for problem in &gemms {
                let ctx = CandidateBound::gemm(&t4, problem, ep);
                for seed in generator.gemm_candidate_seeds(problem) {
                    let bound = ctx.lower_bound_us(&t4, &seed);
                    let profile = gemm_search_profile(&t4, problem, &seed.config, ep, None);
                    let sim = simulate_kernel(&t4, &profile).total_us;
                    if !sim.is_finite() {
                        assert!(bound.is_infinite(), "finite bound {bound} for infinite sim");
                        continue;
                    }
                    assert!(
                        bound <= sim,
                        "gemm {problem}: bound {bound} exceeds simulated {sim} for {}",
                        seed.config
                    );
                    assert!(bound > 0.0);
                    // The reconstruction must also stay *tight*: within the
                    // 1e-9 shave plus a ppb of rounding drift. Anything
                    // looser means a model term drifted out of mirror and
                    // the engine's pruning power silently degrades.
                    assert!(
                        sim - bound <= 1e-9 + sim * 1e-9,
                        "gemm {problem}: bound {bound} drifted below simulated {sim} for {}",
                        seed.config
                    );
                }
            }
            let convs = [
                Conv2dProblem::new(32, 56, 56, 64, 64, 3, 3, (1, 1), (1, 1)),
                Conv2dProblem::new(32, 20, 26, 46, 32, 3, 3, (1, 1), (1, 1)),
                Conv2dProblem::new(1, 14, 14, 256, 1024, 1, 1, (1, 1), (0, 0)),
            ];
            for problem in &convs {
                let ctx = CandidateBound::conv2d(&t4, problem, ep, DType::F16);
                for seed in generator.conv2d_candidate_seeds(problem, DType::F16) {
                    let bound = ctx.lower_bound_us(&t4, &seed);
                    let profile =
                        conv2d_search_profile(&t4, problem, &seed.config, ep, DType::F16, None);
                    let sim = simulate_kernel(&t4, &profile).total_us;
                    if !sim.is_finite() {
                        assert!(bound.is_infinite(), "finite bound {bound} for infinite sim");
                        continue;
                    }
                    assert!(
                        bound <= sim,
                        "conv {problem:?}: bound {bound} exceeds simulated {sim} for {}",
                        seed.config
                    );
                    assert!(
                        sim - bound <= 1e-9 + sim * 1e-9,
                        "conv {problem:?}: bound {bound} drifted below simulated {sim} for {}",
                        seed.config
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_seeds_match_fresh_derivations() {
        // The bound's admissibility leans on the seed's cached factors
        // being what `simulate_kernel` and the profile builders recompute
        // per candidate: the occupancy must match bit for bit, and the
        // refactored leak constants must reproduce `l2_leak` to within
        // regrouping rounding.
        use crate::generator::ConfigGenerator;
        let t4 = t4();
        let generator = ConfigGenerator::new(&t4);
        let problem = GemmProblem::fp16(1280, 3072, 768);
        for seed in generator.gemm_candidate_seeds(&problem) {
            let fresh =
                bolt_gpu_sim::Occupancy::compute(&t4, seed.config.block_resources(problem.element));
            assert_eq!(seed.occupancy, fresh, "stale cached occupancy");
            let fresh_lat =
                bolt_gpu_sim::latency_hiding_factor(&t4, seed.occupancy.active_warps_per_sm);
            assert_eq!(seed.latency_factor, fresh_lat, "stale latency factor");
            let evict = (seed.leak_evict_coeff * problem.k as f64)
                .sqrt()
                .clamp(1.0, 3.0);
            let leak = (seed.leak_unique_frac * evict).clamp(0.02, 1.0);
            let fresh_leak = l2_leak(&t4, problem.k, &seed.config, problem.element);
            assert!(
                (leak - fresh_leak).abs() <= fresh_leak * 1e-12,
                "leak constants drifted: {leak} vs {fresh_leak}"
            );
        }
    }

    #[test]
    fn candidate_bound_is_tight_enough_to_prune() {
        // The bound only pays for itself if it separates losing candidates
        // from the winner: for a healthy compute-bound workload the best
        // candidate's bound must sit within ~2x of its simulated time.
        let t4 = t4();
        let problem = GemmProblem::fp16(1280, 3072, 768);
        let ep = Epilogue::linear(DType::F16);
        let ctx = CandidateBound::gemm(&t4, &problem, &ep);
        let seed =
            crate::generator::CandidateSeed::compute(&t4, GemmConfig::turing_default(), DType::F16);
        let bound = ctx.lower_bound_us(&t4, &seed);
        let sim = simulate_kernel(
            &t4,
            &gemm_search_profile(&t4, &problem, &seed.config, &ep, None),
        )
        .total_us;
        assert!(
            bound > sim * 0.5,
            "bound {bound} too loose vs simulated {sim}"
        );
    }

    #[test]
    fn larger_warp_tiles_cut_smem_traffic() {
        let p = GemmProblem::fp16(4096, 4096, 4096);
        let big = GemmConfig::turing_default(); // warp 64x64
        let mut small = GemmConfig::turing_default();
        small.warp = crate::tiles::TileShape::new(32, 32, 32);
        let ep = Epilogue::linear(DType::F16);
        let pb = gemm_profile(&t4(), &p, &big, &ep, None);
        let ps = gemm_profile(&t4(), &p, &small, &ep, None);
        assert!(ps.smem_bytes > pb.smem_bytes);
    }
}
