#![warn(missing_docs)]
//! # bolt-serve
//!
//! A multi-model, dynamic-batching inference server layered on compiled
//! Bolt engines — the deployment tier the paper's "auto-tuning fast
//! enough to use as a JIT" pitch feeds into.
//!
//! The subsystem has five moving parts:
//!
//! 1. **Engine registry** ([`EngineRegistry`]) — compiles each model once
//!    per batch bucket through one shared [`bolt::BoltCompiler`] (hitting
//!    the profiler and on-disk autotune caches) and shares the immutable
//!    `Arc<ExecutionPlan>` engines across threads.
//! 2. **Dynamic-batching scheduler** — single-sample requests queue per
//!    (model, shape); a batch dispatches when `max_batch` requests wait
//!    or the oldest has waited `batch_timeout`.
//! 3. **Worker pool** — each worker models one GPU stream: it executes
//!    the batch functionally (`ExecutionPlan::run_batched`, when the
//!    model's parameters are materialized) and prices it on the
//!    `bolt-gpu-sim` timeline, yielding per-request latency = queue wait
//!    + stream backlog + simulated kernel time.
//! 4. **Admission control & metrics** — bounded queues reject with
//!    backpressure, late requests are shed at batch formation, shutdown
//!    drains gracefully, and [`BoltServer::metrics`] snapshots counters,
//!    latency percentiles, and the achieved batch-size histogram.
//! 5. **Online tuning & engine lifecycle** ([`OnlineEngineManager`],
//!    enabled by [`ServeConfig::online`]) — unseen batch shapes are
//!    served immediately on a fallback path (nearest bucket, explicit
//!    split, or a heuristic default-config engine) while a background
//!    tuner pool compiles the missing bucket through the shared,
//!    cache-warm compiler and hot-swaps it in; engines are evicted
//!    least-recently-used under a memory budget.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use bolt::BoltConfig;
//! use bolt_gpu_sim::GpuArch;
//! use bolt_serve::{BoltServer, EngineRegistry, Outcome, ServeConfig};
//! use bolt_tensor::{DType, Tensor};
//!
//! let registry = Arc::new(EngineRegistry::new(GpuArch::tesla_t4(), BoltConfig::default()));
//! registry.register_zoo("mlp-small", &[1, 2]).unwrap();
//!
//! let server = BoltServer::start(registry, ServeConfig::default()).unwrap();
//! let outcome = server
//!     .infer("mlp-small", vec![Tensor::randn(&[1, 128], DType::F16, 1)])
//!     .unwrap();
//! assert!(matches!(outcome, Outcome::Completed(_)));
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

pub mod config;
pub mod continuous;
pub mod error;
pub mod metrics;
pub mod online;
pub mod registry;
pub mod request;
mod scheduler;
pub mod server;
pub mod testing;

pub use config::ServeConfig;
pub use continuous::{
    BatchMode, ContinuousBatcher, FinishReason, LlmServeConfig, LlmStats, SequenceRequest,
    SequenceResult, StepReport,
};
pub use error::{panic_message, ServeError};
pub use metrics::{KernelStat, KvGovernorSnapshot, LoadGauges, MetricsSnapshot};
pub use online::{
    Acquired, EngineState, FailedBucket, OnlineConfig, OnlineEngineManager, OnlineSnapshot,
};
pub use registry::{EngineRegistry, ModelEngines};
pub use request::{InferResponse, LatencyBreakdown, Outcome, RequestHandle};
pub use server::BoltServer;

/// Result alias for serving operations.
pub type Result<T> = std::result::Result<T, ServeError>;
