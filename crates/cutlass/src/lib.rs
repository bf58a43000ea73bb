#![warn(missing_docs)]
//! # bolt-cutlass
//!
//! A CUTLASS-like templated kernel library, reproduced in Rust for the Bolt
//! (MLSys 2022) evaluation.
//!
//! NVIDIA CUTLASS provides C++ templates for every layer of the CUDA GEMM
//! hierarchy — device, threadblock, warp, and instruction tiles — which
//! users instantiate with declarative parameters (tile shapes, stage
//! counts, swizzle functors, alignments). Bolt's thesis is that such
//! templates are the right substrate for auto-tuning: a *small* space of
//! hardware-meaningful parameters replaces the huge opaque schedule space
//! of a traditional auto-tuner.
//!
//! This crate reproduces that substrate:
//!
//! * [`tiles`] / [`template`] — the template parameter space
//!   ([`GemmConfig`]) with CUTLASS's legality rules (divisibility, shared
//!   memory and register capacity, warp counts).
//! * [`epilogue`] — the four epilogue-fusion patterns the paper lists:
//!   elementwise operators, data-type conversion, broadcast vector over
//!   columns (bias), and partial reduction over columns.
//! * [`gemm`] / [`conv2d`] — *functional* executors that really compute,
//!   walking the threadblock → warp → instruction tile hierarchy with
//!   FP16-faithful rounding, validated against `bolt-tensor`'s references.
//! * [`b2b`] — the paper's persistent kernels: back-to-back GEMM/Conv
//!   fusion in RF-resident and shared-memory-resident variants, with the
//!   threadblock-residence legality checks of Section 3.1.1.
//! * [`perf`] — maps a template instantiation to a
//!   [`bolt_gpu_sim::KernelProfile`] for the analytic simulator.
//! * [`generator`] — the architecture-aware enumeration of "tens of best
//!   parameter combinations" Bolt's light-weight profiler searches.
//! * [`vendor`] — a cuBLAS/cuDNN stand-in: a fixed-function library whose
//!   per-workload configs were picked by exhaustive offline search,
//!   representing hand-tuned hardware-native performance.
//! * [`emit`] — renders the equivalent CUTLASS C++ instantiation for any
//!   kernel, which is what Bolt's code generator would compile.

pub mod b2b;
pub mod chain;
pub mod conv2d;
pub mod emit;
pub mod epilogue;
pub mod error;
pub mod gemm;
pub mod generator;
pub mod perf;
pub mod template;
pub mod tiles;
pub mod vendor;

pub use b2b::{B2bConvKernel, B2bGemmKernel, Residence};
pub use chain::{ChainStage, PersistentGemmChain};
pub use conv2d::{Conv2dConfig, Conv2dKernel};
pub use epilogue::{BiasMode, Epilogue};
pub use error::KernelError;
pub use gemm::{GemmKernel, GemmProblem};
pub use generator::{CandidateSeed, ConfigGenerator};
pub use template::GemmConfig;
pub use tiles::TileShape;
pub use vendor::VendorLibrary;

/// Result alias for kernel-library operations.
pub type Result<T> = std::result::Result<T, KernelError>;
