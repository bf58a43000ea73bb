#![warn(missing_docs)]
//! # bolt
//!
//! The Bolt compiler (MLSys 2022): *hardware-native templated search*
//! bridging the gap between auto-tuners and vendor-library performance.
//!
//! Bolt sits between a Relay-like graph (`bolt-graph`) and a CUTLASS-like
//! templated kernel library (`bolt-cutlass`), following TVM's BYOC flow
//! (paper Figure 3):
//!
//! 1. **Graph optimizations** — BatchNorm folding / RepVGG
//!    re-parameterization (in `bolt-graph`), then Bolt's own deeper
//!    fusion: epilogue fusion and persistent-kernel fusion ([`lower`]).
//! 2. **Graph partitioning** — the subgraph Bolt supports is carved out;
//!    the rest falls back to the host compiler ([`compile`]).
//! 3. **Hardware-native profiling** — for each workload, the light-weight
//!    profiler measures tens of architecture-guided template
//!    configurations and picks the best ([`profiler`]); minutes, not
//!    hours.
//! 4. **Templated code generation** — kernels are emitted in the CUTLASS
//!    convention with layout transformation folded into the boundary
//!    kernels and automatic padding to alignment 8 ([`codegen`],
//!    [`runtime`]).
//!
//! The compiled artifact ([`CompiledModel`], a handle to an
//! [`ExecutionPlan`] with prepacked constants and liveness-planned
//! buffer slots) executes in two modes: *functional* (really computes,
//! for correctness tests) and *timing* (prices every kernel on the
//! target's `bolt-gpu-sim` architecture model — T4, V100, or A100 —
//! for the paper's performance experiments).
//!
//! # Quickstart
//!
//! ```
//! use bolt::{BoltCompiler, BoltConfig};
//! use bolt_gpu_sim::GpuArch;
//! use bolt_graph::GraphBuilder;
//! use bolt_tensor::{Activation, DType};
//!
//! // A tiny GEMM + bias + GELU model.
//! let mut b = GraphBuilder::new(DType::F16);
//! let x = b.input(&[64, 128]);
//! let h = b.dense_bias(x, 256, "fc");
//! let y = b.activation(h, Activation::Gelu, "gelu");
//! let graph = b.finish(&[y]);
//!
//! let compiler = BoltCompiler::new(GpuArch::tesla_t4(), BoltConfig::default());
//! let model = compiler.compile(&graph).unwrap();
//! let report = model.time();
//! assert!(report.total_us > 0.0);
//! assert_eq!(model.steps().len(), 1); // dense+bias+gelu fused into one kernel
//! ```

pub mod baseline;
pub mod cache;
pub mod codegen;
pub mod compile;
pub mod config;
pub mod error;
pub mod faults;
pub mod lower;
pub mod plan;
pub mod profiler;
pub mod runtime;

pub use baseline::AnsorBackend;
pub use cache::{arch_fingerprint, TuneBundle, TuneShard};
pub use compile::BoltCompiler;
pub use config::BoltConfig;
pub use error::BoltError;
pub use faults::{ChaosConfig, FaultEvent, FaultSite};
pub use plan::{
    ExecutionPlan, KvArena, KvChunks, KvSpec, KvWorkspace, PackedConsts, StepObserver, StepTiming,
    StepTimings,
};
pub use profiler::{BoltProfiler, ProfileTask, ProfiledKernel, ProfilerStats};
pub use runtime::{slice_batch, stack_batch, CompiledModel, Step, StepKind, TimingReport};

/// Result alias for compiler operations.
pub type Result<T> = std::result::Result<T, BoltError>;
