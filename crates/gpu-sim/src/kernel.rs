//! The analytic kernel cost model.
//!
//! A [`KernelProfile`] is the simulator's contract with the kernel
//! libraries: it describes *what a kernel does* — flops per pipeline, DRAM
//! and shared-memory traffic, launch geometry, per-block resources, and the
//! access alignment — without saying how. [`simulate_kernel`] prices the
//! profile on a [`GpuArch`]:
//!
//! 1. each pipeline's busy time at its (occupancy-derated) peak;
//! 2. DRAM time at alignment-derated effective bandwidth;
//! 3. shared-memory time at bank-conflict-derated bandwidth;
//! 4. total = launch overhead + max of the streams + a small leak of the
//!    non-dominant streams (imperfect overlap) + wave-quantization tail.

use serde::{Deserialize, Serialize};
use std::fmt;

use bolt_tensor::DType;

use crate::arch::GpuArch;
use crate::memory::{alignment_efficiency, bank_conflict_slowdown};
use crate::occupancy::{BlockResources, Occupancy};
use crate::pipeline::Pipeline;

/// Floating-point work per pipeline, in raw op counts (1 FMA = 2 flops).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineFlops {
    /// Tensor-core flops (HMMA).
    pub tensor_core: f64,
    /// CUDA-core flops (FFMA/HFMA2).
    pub cuda_core: f64,
    /// Special-function operations (exp/tanh/log count as one each).
    pub sfu: f64,
}

impl PipelineFlops {
    /// All-zero work.
    pub fn none() -> Self {
        Self::default()
    }
}

/// A device-independent description of one kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Number of threadblocks in the grid.
    pub grid_blocks: u64,
    /// Per-block resource usage.
    pub block: BlockResources,
    /// Arithmetic work per pipeline.
    pub flops: PipelineFlops,
    /// Bytes read from DRAM (after modeled cache reuse).
    pub dram_read_bytes: f64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: f64,
    /// Total shared-memory traffic in bytes (read + write).
    pub smem_bytes: f64,
    /// Element type of global-memory accesses (for alignment derating).
    pub dtype: DType,
    /// Vector width of global accesses in elements (1/2/4/8 for FP16).
    pub alignment_elems: usize,
    /// Average ways of shared-memory bank conflict (1.0 = conflict-free).
    pub bank_conflict_ways: f64,
    /// Main-loop efficiency in 0..=1: the fraction of the pipeline peak the
    /// kernel's inner loop can issue (software pipelining quality, stage
    /// count, instruction mix). Supplied by the kernel library.
    pub mainloop_efficiency: f64,
    /// How well the kernel overlaps its memory streams under compute, in
    /// 0..=1. Multi-stage `cp.async` pipelines (Ampere, stages >= 3) keep
    /// loads fully asynchronous and approach 1.0; double-buffered Turing
    /// kernels leave more exposed latency (0.0 = the architecture default
    /// leak applies in full).
    pub pipelined_overlap: f64,
}

impl KernelProfile {
    /// A profile that only moves `bytes` through DRAM (half read, half
    /// write), e.g. an elementwise or data-movement kernel.
    pub fn memory_only(bytes: f64) -> Self {
        KernelProfile {
            grid_blocks: 1024,
            block: BlockResources::new(256, 32, 0),
            flops: PipelineFlops::none(),
            dram_read_bytes: bytes / 2.0,
            dram_write_bytes: bytes / 2.0,
            smem_bytes: 0.0,
            dtype: DType::F16,
            alignment_elems: 8,
            bank_conflict_ways: 1.0,
            mainloop_efficiency: 1.0,
            pipelined_overlap: 0.0,
        }
    }
}

/// Which resource a kernel's time was bound by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Boundedness {
    /// Tensor-core or CUDA-core arithmetic dominated.
    Compute,
    /// DRAM bandwidth dominated.
    Memory,
    /// Shared-memory bandwidth dominated.
    SharedMemory,
    /// Fixed launch overhead dominated (very short kernels).
    Launch,
}

impl fmt::Display for Boundedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Boundedness::Compute => "compute-bound",
            Boundedness::Memory => "memory-bound",
            Boundedness::SharedMemory => "smem-bound",
            Boundedness::Launch => "launch-bound",
        };
        f.write_str(s)
    }
}

/// Simulated execution time of one kernel, with its breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelTime {
    /// Arithmetic stream busy time, microseconds.
    pub compute_us: f64,
    /// DRAM stream busy time, microseconds.
    pub dram_us: f64,
    /// Shared-memory stream busy time, microseconds.
    pub smem_us: f64,
    /// Fixed launch overhead, microseconds.
    pub launch_us: f64,
    /// Wave-quantization tail, microseconds.
    pub tail_us: f64,
    /// End-to-end kernel time, microseconds.
    pub total_us: f64,
    /// The dominating resource.
    pub bound: Boundedness,
    /// Occupancy achieved by the launch.
    pub occupancy: Occupancy,
}

impl KernelTime {
    /// Delivered arithmetic throughput in TFLOPS given the profile's total
    /// flop count.
    pub fn tflops(&self, flops: f64) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        flops / (self.total_us * 1e6)
    }
}

/// Prices `profile` on `arch`. See the module docs for the model.
///
/// A profile that is not launchable (occupancy 0) is priced at effectively
/// infinite time (`f64::INFINITY` total), letting search layers discard it
/// without a separate error path.
pub fn simulate_kernel(arch: &GpuArch, profile: &KernelProfile) -> KernelTime {
    let occ = Occupancy::compute(arch, profile.block);
    if occ.blocks_per_sm == 0 {
        return KernelTime {
            compute_us: f64::INFINITY,
            dram_us: 0.0,
            smem_us: 0.0,
            launch_us: arch.params.launch_overhead_us,
            tail_us: 0.0,
            total_us: f64::INFINITY,
            bound: Boundedness::Compute,
            occupancy: occ,
        };
    }

    let latency_factor = latency_hiding_factor(arch, occ.active_warps_per_sm);
    let concurrent_blocks = (occ.blocks_per_sm as u64) * (arch.sm_count as u64);
    let grid = profile.grid_blocks.max(1);
    let waves = grid.div_ceil(concurrent_blocks);
    let sm_utilization = sm_utilization_factor(arch, occ.blocks_per_sm, profile.grid_blocks);

    // --- Compute streams --------------------------------------------------
    let eff = profile.mainloop_efficiency.clamp(0.01, 1.0) * latency_factor * sm_utilization;
    let tc_peak = arch.peak_tflops(Pipeline::TensorCore, profile.dtype) * 1e6; // flops/us
    let cc_peak = arch.peak_tflops(Pipeline::CudaCore, profile.dtype) * 1e6;
    let sfu_peak = arch.peak_tflops(Pipeline::Sfu, profile.dtype) * 1e6;

    let tc_us = if profile.flops.tensor_core > 0.0 {
        profile.flops.tensor_core / (tc_peak * eff)
    } else {
        0.0
    };
    let cc_us = if profile.flops.cuda_core > 0.0 {
        profile.flops.cuda_core / (cc_peak * eff)
    } else {
        0.0
    };
    let sfu_us = if profile.flops.sfu > 0.0 {
        profile.flops.sfu / (sfu_peak * eff)
    } else {
        0.0
    };
    // Tensor cores and CUDA cores dual-issue from different units, but SFU
    // work (transcendental epilogues) runs as a tail after each tile's main
    // loop and its low throughput cannot hide behind it.
    let compute_us = tc_us.max(cc_us) + sfu_us;

    // --- Memory streams ---------------------------------------------------
    let dram_bw = arch.dram_bytes_per_us()
        * alignment_efficiency(profile.dtype, profile.alignment_elems)
        * sm_utilization.max(0.6); // few blocks can still saturate much of DRAM
    let dram_us = (profile.dram_read_bytes + profile.dram_write_bytes) / dram_bw;

    let smem_bw = arch.smem_bytes_per_us() * sm_utilization
        / bank_conflict_slowdown(profile.bank_conflict_ways);
    let smem_us = if profile.smem_bytes > 0.0 {
        profile.smem_bytes / smem_bw
    } else {
        0.0
    };

    // --- Combine -----------------------------------------------------------
    let dominant = compute_us.max(dram_us).max(smem_us);
    let leak = arch.params.overlap_leak
        * (1.0 - profile.pipelined_overlap.clamp(0.0, 1.0))
        * (compute_us + dram_us + smem_us - dominant);
    let tail_us = (waves.saturating_sub(1)) as f64 * arch.params.wave_tail_us;
    let launch_us = arch.params.launch_overhead_us;
    let total_us = launch_us + dominant + leak + tail_us;

    let bound = if dominant <= launch_us {
        Boundedness::Launch
    } else if dominant == compute_us {
        Boundedness::Compute
    } else if dominant == dram_us {
        Boundedness::Memory
    } else {
        Boundedness::SharedMemory
    };

    KernelTime {
        compute_us,
        dram_us,
        smem_us,
        launch_us,
        tail_us,
        total_us,
        bound,
        occupancy: occ,
    }
}

/// Latency-hiding derate from occupancy: below
/// [`ModelParams::latency_hiding_warps`](crate::arch::ModelParams) active
/// warps per SM the SM cannot keep its pipelines fed, and throughput
/// degrades linearly (floored at 0.15).
///
/// Shared by [`simulate_kernel`] and the profiler's candidate lower bound,
/// so the bound's derate is *by construction* the one the simulator will
/// apply.
pub fn latency_hiding_factor(arch: &GpuArch, active_warps_per_sm: u32) -> f64 {
    let hide = arch.params.latency_hiding_warps as f64;
    (active_warps_per_sm as f64 / hide).clamp(0.15, 1.0)
}

/// SM-utilization derate from grid size: small grids leave SMs idle, and
/// the last partial wave leaves block slots empty. `blocks_per_sm` is the
/// occupancy result for the kernel's block shape.
///
/// Shared by [`simulate_kernel`] and the profiler's candidate lower bound.
pub fn sm_utilization_factor(arch: &GpuArch, blocks_per_sm: u32, grid_blocks: u64) -> f64 {
    let concurrent_blocks = (blocks_per_sm as u64) * (arch.sm_count as u64);
    let grid = grid_blocks.max(1);
    if grid >= arch.sm_count as u64 {
        // Fraction of block slots actually used across all waves...
        let waves = grid.div_ceil(concurrent_blocks);
        let slot_utilization = grid as f64 / (waves * concurrent_blocks) as f64;
        slot_utilization.max(0.5)
    } else {
        // ...but SMs can't be more idle than the fraction with zero blocks.
        grid as f64 / arch.sm_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t4() -> GpuArch {
        GpuArch::tesla_t4()
    }

    /// A well-tuned tensor-core GEMM profile for an M=N=K cube.
    fn big_gemm_profile(mnk: usize) -> KernelProfile {
        let flops = 2.0 * (mnk as f64).powi(3);
        let elt = 2.0;
        let (tb_m, tb_n) = (128.0, 128.0);
        let traffic = (mnk * mnk) as f64 * elt * ((mnk as f64 / tb_n) + (mnk as f64 / tb_m))
            * 0.25 // L2 captures most re-reads
            + (mnk * mnk) as f64 * elt;
        KernelProfile {
            grid_blocks: ((mnk / 128) * (mnk / 128)) as u64,
            block: BlockResources::new(256, 160, 48 * 1024),
            flops: PipelineFlops {
                tensor_core: flops,
                cuda_core: 0.0,
                sfu: 0.0,
            },
            dram_read_bytes: traffic,
            dram_write_bytes: (mnk * mnk) as f64 * elt,
            smem_bytes: flops / 2.0 / 8.0, // operand bytes through smem
            dtype: DType::F16,
            alignment_elems: 8,
            bank_conflict_ways: 1.0,
            mainloop_efficiency: 0.95,
            pipelined_overlap: 0.25,
        }
    }

    #[test]
    fn big_fp16_gemm_approaches_tensor_core_peak() {
        let p = big_gemm_profile(4096);
        let t = simulate_kernel(&t4(), &p);
        let tflops = t.tflops(p.flops.tensor_core);
        assert!(
            tflops > 45.0 && tflops <= 65.0,
            "expected near-peak tensor-core throughput, got {tflops:.1} TFLOPS ({t:?})"
        );
        assert_eq!(t.bound, Boundedness::Compute);
    }

    #[test]
    fn cuda_core_gemm_is_many_times_slower() {
        // Same math, CUDA-core pipeline (Ansor-style kernel).
        let mut p = big_gemm_profile(4096);
        p.flops.cuda_core = p.flops.tensor_core;
        p.flops.tensor_core = 0.0;
        p.mainloop_efficiency = 0.85;
        let tc = simulate_kernel(&t4(), &big_gemm_profile(4096));
        let cc = simulate_kernel(&t4(), &p);
        let ratio = cc.total_us / tc.total_us;
        assert!(ratio > 3.0, "tensor cores should win big, ratio {ratio:.2}");
    }

    #[test]
    fn memory_only_kernel_is_memory_bound() {
        let p = KernelProfile::memory_only(128.0 * 1024.0 * 1024.0);
        let t = simulate_kernel(&t4(), &p);
        assert_eq!(t.bound, Boundedness::Memory);
        // 128 MiB at 281.6 GB/s ≈ 476 us; within 2x including overheads.
        assert!(t.total_us > 400.0 && t.total_us < 1000.0, "{t:?}");
    }

    #[test]
    fn launch_bound_kernel() {
        let p = KernelProfile::memory_only(1024.0);
        let t = simulate_kernel(&t4(), &p);
        assert_eq!(t.bound, Boundedness::Launch);
        assert!(t.total_us >= 3.0);
    }

    #[test]
    fn misalignment_slows_memory_bound_kernels() {
        let aligned = KernelProfile::memory_only(64.0 * 1024.0 * 1024.0);
        let mut misaligned = aligned.clone();
        misaligned.alignment_elems = 2;
        let ta = simulate_kernel(&t4(), &aligned);
        let tm = simulate_kernel(&t4(), &misaligned);
        let ratio = tm.total_us / ta.total_us;
        assert!(
            ratio > 1.5 && ratio < 2.2,
            "padding band from Table 3, got {ratio:.2}"
        );
    }

    #[test]
    fn unlaunchable_profile_is_infinite() {
        let mut p = KernelProfile::memory_only(1024.0);
        p.block = BlockResources::new(128, 32, 128 * 1024);
        let t = simulate_kernel(&t4(), &p);
        assert!(t.total_us.is_infinite());
    }

    #[test]
    fn low_occupancy_derates_compute() {
        let p = big_gemm_profile(4096);
        let mut starved = p.clone();
        // One 128-thread block per SM: 4 warps < 8 needed for hiding.
        starved.block = BlockResources::new(128, 255, 60 * 1024);
        let fast = simulate_kernel(&t4(), &p);
        let slow = simulate_kernel(&t4(), &starved);
        assert!(
            slow.total_us > fast.total_us * 1.3,
            "{} vs {}",
            slow.total_us,
            fast.total_us
        );
    }

    #[test]
    fn small_grid_underutilizes_sms() {
        let mut p = big_gemm_profile(1024);
        // Pretend only 4 blocks exist for the same work.
        p.grid_blocks = 4;
        let few = simulate_kernel(&t4(), &p);
        let mut full = big_gemm_profile(1024);
        full.grid_blocks = 64;
        let many = simulate_kernel(&t4(), &full);
        assert!(few.total_us > many.total_us * 2.0);
    }

    #[test]
    fn bank_conflicts_hurt_smem_heavy_kernels() {
        let mut p = big_gemm_profile(2048);
        p.smem_bytes *= 8.0; // make smem the bottleneck
        let clean = simulate_kernel(&t4(), &p);
        let mut conflicted = p.clone();
        conflicted.bank_conflict_ways = 8.0;
        let bad = simulate_kernel(&t4(), &conflicted);
        assert!(bad.total_us > clean.total_us * 2.0);
        assert_eq!(bad.bound, Boundedness::SharedMemory);
    }

    #[test]
    fn wave_tail_accumulates() {
        let mut p = KernelProfile::memory_only(1024.0 * 1024.0);
        p.grid_blocks = 100_000;
        let t = simulate_kernel(&t4(), &p);
        assert!(t.tail_us > 0.0);
    }

    #[test]
    fn tflops_helper() {
        let p = big_gemm_profile(4096);
        let t = simulate_kernel(&t4(), &p);
        assert!(t.tflops(p.flops.tensor_core) > 0.0);
        let zero = KernelTime { total_us: 0.0, ..t };
        assert_eq!(zero.tflops(1e9), 0.0);
    }
}
