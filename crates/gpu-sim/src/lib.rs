#![warn(missing_docs)]
//! # bolt-gpu-sim
//!
//! An analytic, calibrated GPU performance simulator standing in for the
//! NVIDIA Tesla T4 testbed of the Bolt paper (MLSys 2022).
//!
//! The Bolt evaluation rests on a handful of hardware mechanisms:
//!
//! * two compute pipelines with a ~8× FP16 throughput gap — tensor cores
//!   (65 TFLOPS on T4) vs CUDA cores (8.1 TFLOPS FP32 / 16.2 FP16);
//! * DRAM bandwidth whose *effective* value depends on vectorized-access
//!   alignment (the basis of Bolt's kernel padding, Table 3);
//! * shared-memory capacity, bandwidth and bank conflicts (the basis of the
//!   smem-resident persistent kernels, Section 3.1.1);
//! * register-file capacity limiting occupancy (the basis of the
//!   RF-resident persistent kernels and of Ansor's "aggressively consume
//!   all register files" behaviour, Section 4.1.1);
//! * kernel launch latency and wave quantization (the basis of fusion
//!   benefits for short kernels).
//!
//! This crate models those mechanisms and nothing more. Higher layers
//! (`bolt-cutlass`, `bolt-ansor`) translate a concrete kernel — a CUTLASS
//! template instantiation or an auto-tuned tiling — into a
//! [`KernelProfile`]; [`simulate_kernel`] turns the profile into a
//! [`KernelTime`] with a compute/memory/launch breakdown.
//!
//! # Example
//!
//! ```
//! use bolt_gpu_sim::{GpuArch, KernelProfile, simulate_kernel};
//!
//! let t4 = GpuArch::tesla_t4();
//! // A DRAM-bound elementwise kernel moving 64 MiB.
//! let profile = KernelProfile::memory_only(64.0 * (1 << 20) as f64);
//! let time = simulate_kernel(&t4, &profile);
//! assert!(time.total_us > 100.0); // > the pure-bandwidth lower bound
//! ```

pub mod arch;
pub mod kernel;
pub mod memory;
pub mod occupancy;
pub mod pipeline;
pub mod timeline;

pub use arch::{GpuArch, ModelParams};
pub use kernel::{
    latency_hiding_factor, simulate_kernel, sm_utilization_factor, Boundedness, KernelProfile,
    KernelTime, PipelineFlops,
};
pub use memory::{alignment_efficiency, bank_conflict_slowdown};
pub use occupancy::{BlockResources, Occupancy, OccupancyLimit};
pub use pipeline::Pipeline;
pub use timeline::{KernelEvent, Timeline};
