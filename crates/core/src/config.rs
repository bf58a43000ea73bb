//! Compiler configuration: every Bolt optimization is independently
//! switchable for the ablation benches DESIGN.md calls out.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// Bolt compiler options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoltConfig {
    /// Fuse BiasAdd / activation / residual epilogues into the anchor
    /// kernels (paper Section 3.1 prerequisite).
    pub epilogue_fusion: bool,
    /// Fuse back-to-back GEMM/Conv chains into persistent kernels
    /// (Section 3.1.1).
    pub persistent_kernels: bool,
    /// Automatically pad unaligned channels to alignment 8
    /// (Section 3.2.3).
    pub kernel_padding: bool,
    /// Fold NCHW→NHWC transformation into the boundary kernels instead of
    /// standalone transform kernels around every offloaded region
    /// (Section 3.2.3).
    pub layout_transform_folding: bool,
    /// How many template candidates the light-weight profiler measures
    /// per workload ("tens of best parameter combinations").
    pub profiler_candidates: usize,
    /// Run graph deployment passes (BN fold + RepVGG re-parameterization)
    /// before compilation.
    pub deployment_passes: bool,
    /// Skip candidates whose analytic roofline lower bound already
    /// exceeds the best measured time. Admissible — never changes the
    /// selected winner, only the measurement count.
    pub candidate_pruning: bool,
    /// On-disk autotune cache location. Loaded (if present and valid) at
    /// compiler construction and saved after every compile. When `None`,
    /// the `BOLT_TUNE_CACHE` environment variable is consulted instead;
    /// if that is unset too, the cache stays in-memory only.
    pub cache_path: Option<PathBuf>,
    /// A packed multi-arch tune bundle ([`crate::cache::TuneBundle`],
    /// produced by `bolt-tune pack`). Loaded at compiler construction:
    /// the shard matching the target architecture seeds the profiler, so
    /// a replica of any arch boots from one shipped bundle with zero
    /// tuning time. When `None`, the `BOLT_TUNE_BUNDLE` environment
    /// variable is consulted instead. Unlike `cache_path` the bundle is
    /// read-only — compiles never write back to it.
    pub bundle_path: Option<PathBuf>,
}

impl Default for BoltConfig {
    fn default() -> Self {
        BoltConfig {
            epilogue_fusion: true,
            persistent_kernels: true,
            kernel_padding: true,
            layout_transform_folding: true,
            profiler_candidates: 30,
            deployment_passes: true,
            candidate_pruning: true,
            cache_path: None,
            bundle_path: None,
        }
    }
}

impl BoltConfig {
    /// The on-disk autotune cache location: `cache_path`, else the
    /// `BOLT_TUNE_CACHE` environment variable, else none.
    pub fn tune_cache_path(&self) -> Option<PathBuf> {
        self.cache_path
            .clone()
            .or_else(|| std::env::var_os("BOLT_TUNE_CACHE").map(PathBuf::from))
    }

    /// The packed tune-bundle location: `bundle_path`, else the
    /// `BOLT_TUNE_BUNDLE` environment variable, else none.
    pub fn tune_bundle_path(&self) -> Option<PathBuf> {
        self.bundle_path
            .clone()
            .or_else(|| std::env::var_os("BOLT_TUNE_BUNDLE").map(PathBuf::from))
    }

    /// Baseline for Figure 9 / Tables 1-2: epilogue fusion only, no
    /// persistent kernels.
    pub fn epilogue_only() -> Self {
        BoltConfig {
            persistent_kernels: false,
            ..Self::default()
        }
    }

    /// All Bolt optimizations off (kernels still templated + profiled).
    pub fn no_optimizations() -> Self {
        BoltConfig {
            epilogue_fusion: false,
            persistent_kernels: false,
            kernel_padding: false,
            layout_transform_folding: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let c = BoltConfig::default();
        assert!(c.epilogue_fusion && c.persistent_kernels && c.kernel_padding);
        assert!(c.candidate_pruning);
        assert!(c.cache_path.is_none());
        assert!(c.profiler_candidates >= 10 && c.profiler_candidates <= 100);
    }

    #[test]
    fn presets() {
        assert!(!BoltConfig::epilogue_only().persistent_kernels);
        assert!(BoltConfig::epilogue_only().epilogue_fusion);
        let off = BoltConfig::no_optimizations();
        assert!(!off.epilogue_fusion && !off.kernel_padding);
        assert!(
            off.candidate_pruning,
            "engine optimizations are not paper ablations"
        );
    }
}
