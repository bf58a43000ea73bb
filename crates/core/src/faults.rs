//! Deterministic, seeded fault injection (the `chaos` feature).
//!
//! TVM-style auto-tuning systems treat measurement workers as
//! crash-prone by design: RPC workers die and are respawned routinely.
//! This module gives the Bolt stack the same failure model in a form a
//! test can drive: a [`ChaosConfig`] describes *which* failures to
//! inject at the seams the stack already has (compile errors, profiler
//! stalls, worker panics and kills, slow batches, truncated autotune
//! caches), and a seeded `FaultPlan` decides *when* — as a pure
//! function of `(seed, site, occurrence index)`, so the same seed
//! reproduces the same fault schedule bit-for-bit, regardless of thread
//! interleaving.
//!
//! # Build modes
//!
//! Without the `chaos` cargo feature every query in this module is an
//! inlined no-op: production builds carry no injection branches. With
//! `--features chaos`, call sites consult the globally installed plan
//! (if any). Install one with `install`, which also serializes chaos
//! tests within a process so two plans never overlap:
//!
//! ```ignore
//! let chaos = bolt::faults::install(ChaosConfig {
//!     seed: 42,
//!     compile_fail_ratio: 0.3,
//!     ..ChaosConfig::default()
//! });
//! // ... drive the system; failures are injected deterministically ...
//! drop(chaos); // uninstalls the plan
//! ```
//!
//! Injection sites report what they injected into the plan's event log
//! ([`events`]) so tests can assert the schedule itself.

use std::time::Duration;

/// A seam where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A profiled compile in [`crate::BoltCompiler::compile`] (injected
    /// as a [`crate::BoltError::Injected`] error).
    Compile,
    /// A heuristic fallback compile in
    /// [`crate::BoltCompiler::compile_heuristic`].
    HeuristicCompile,
    /// One profiler workload measurement (injected as a stall).
    Profile,
    /// An autotune-cache save (injected as a truncated write, simulating
    /// a crash mid-write that the checksum footer must catch on load).
    CacheSave,
    /// Per-batch execution in a serve worker (injected as a panic,
    /// isolated by the worker's `catch_unwind`).
    BatchPanic,
    /// Per-batch execution in a serve worker (injected as a wall-clock
    /// stall — a slow batch).
    BatchStall,
    /// A serve worker between batches (injected as a panic that escapes
    /// the worker loop and kills the thread; the supervisor respawns it).
    WorkerKill,
    /// A background tuner between compiles (thread death, respawned).
    TunerKill,
    /// A whole serving replica in the cluster layer (injected as an
    /// abrupt kill on the routed replica; the router must detect the
    /// death and re-route). Checked once per cluster submission.
    ReplicaKill,
    /// The continuous batcher's KV block pool, checked once per batcher
    /// step (injected as a transient withholding of part of the block
    /// budget — memory pressure the KV governor must degrade through
    /// via watermark back-off and preempt-and-recompute, never a
    /// panic).
    KvPressure,
}

impl FaultSite {
    /// Every site, for schedule-preview assertions.
    pub const ALL: [FaultSite; 10] = [
        FaultSite::Compile,
        FaultSite::HeuristicCompile,
        FaultSite::Profile,
        FaultSite::CacheSave,
        FaultSite::BatchPanic,
        FaultSite::BatchStall,
        FaultSite::WorkerKill,
        FaultSite::TunerKill,
        FaultSite::ReplicaKill,
        FaultSite::KvPressure,
    ];

    fn id(self) -> u64 {
        match self {
            FaultSite::Compile => 1,
            FaultSite::HeuristicCompile => 2,
            FaultSite::Profile => 3,
            FaultSite::CacheSave => 4,
            FaultSite::BatchPanic => 5,
            FaultSite::BatchStall => 6,
            FaultSite::WorkerKill => 7,
            FaultSite::TunerKill => 8,
            FaultSite::ReplicaKill => 9,
            FaultSite::KvPressure => 10,
        }
    }
}

/// What a `FaultPlan` injected, for reproducibility assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The seam the fault fired at.
    pub site: FaultSite,
    /// Zero-based occurrence index of that site's check counter.
    pub occurrence: u64,
    /// Human-readable description of the injected action.
    pub action: String,
}

/// The seeded fault schedule: ratios draw deterministically from
/// `(seed, site, occurrence)`, explicit occurrence lists fire exactly at
/// the listed check indices. `Default` injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed of every ratio draw; the whole schedule is a pure function
    /// of this value.
    pub seed: u64,
    /// Fraction of profiled compiles that fail with
    /// [`crate::BoltError::Injected`].
    pub compile_fail_ratio: f64,
    /// Fraction of heuristic compiles that fail.
    pub heuristic_fail_ratio: f64,
    /// Fraction of profiler measurements that stall for
    /// [`ChaosConfig::profile_stall`].
    pub profile_stall_ratio: f64,
    /// Stall injected into profiler measurements.
    pub profile_stall: Duration,
    /// Fraction of autotune-cache saves whose written file is truncated
    /// to half its length (simulated crash mid-write).
    pub cache_truncate_ratio: f64,
    /// Worker batch indices (per the [`FaultSite::BatchPanic`] counter)
    /// that panic mid-execution.
    pub batch_panics: Vec<u64>,
    /// Fraction of batches stalled for [`ChaosConfig::batch_stall`]
    /// before executing (slow-batch injection).
    pub batch_stall_ratio: f64,
    /// Stall injected into slow batches.
    pub batch_stall: Duration,
    /// Worker-loop iteration indices (per the [`FaultSite::WorkerKill`]
    /// counter) at which the worker thread dies between batches.
    pub worker_kills: Vec<u64>,
    /// Tuner-loop iteration indices at which a tuner thread dies between
    /// compiles.
    pub tuner_kills: Vec<u64>,
    /// Cluster submission indices (per the [`FaultSite::ReplicaKill`]
    /// counter) at which the routed replica is abruptly killed.
    pub replica_kills: Vec<u64>,
    /// Fraction of batcher steps (per the [`FaultSite::KvPressure`]
    /// counter) at which a memory-pressure episode starts.
    pub kv_pressure_ratio: f64,
    /// Batcher step indices at which a pressure episode starts,
    /// in addition to any ratio draws.
    pub kv_pressure_steps: Vec<u64>,
    /// Fraction of the KV block budget withheld while an episode is
    /// active.
    pub kv_pressure_fraction: f64,
    /// Batcher steps a pressure episode lasts before the withheld
    /// blocks are returned.
    pub kv_pressure_duration_steps: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            compile_fail_ratio: 0.0,
            heuristic_fail_ratio: 0.0,
            profile_stall_ratio: 0.0,
            profile_stall: Duration::from_millis(1),
            cache_truncate_ratio: 0.0,
            batch_panics: Vec::new(),
            batch_stall_ratio: 0.0,
            batch_stall: Duration::from_millis(1),
            worker_kills: Vec::new(),
            tuner_kills: Vec::new(),
            replica_kills: Vec::new(),
            kv_pressure_ratio: 0.0,
            kv_pressure_steps: Vec::new(),
            kv_pressure_fraction: 0.5,
            kv_pressure_duration_steps: 4,
        }
    }
}

impl ChaosConfig {
    /// The deterministic ratio draw for `(site, occurrence)` under this
    /// config's seed: true when the site's configured ratio fires at
    /// that occurrence. Pure — two configs with the same seed agree on
    /// every draw, which is what makes a fault schedule reproducible
    /// bit-for-bit.
    pub fn fires(&self, site: FaultSite, occurrence: u64) -> bool {
        let ratio = match site {
            FaultSite::Compile => self.compile_fail_ratio,
            FaultSite::HeuristicCompile => self.heuristic_fail_ratio,
            FaultSite::Profile => self.profile_stall_ratio,
            FaultSite::CacheSave => self.cache_truncate_ratio,
            FaultSite::BatchStall => self.batch_stall_ratio,
            FaultSite::BatchPanic => return self.batch_panics.contains(&occurrence),
            FaultSite::WorkerKill => return self.worker_kills.contains(&occurrence),
            FaultSite::TunerKill => return self.tuner_kills.contains(&occurrence),
            FaultSite::ReplicaKill => return self.replica_kills.contains(&occurrence),
            FaultSite::KvPressure => {
                // Pressure takes both an explicit step list and a ratio:
                // tests pin exact episodes, chaos sweeps draw them.
                if self.kv_pressure_steps.contains(&occurrence) {
                    return true;
                }
                self.kv_pressure_ratio
            }
        };
        if ratio <= 0.0 {
            return false;
        }
        let draw = mix64(self.seed ^ site.id().wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ occurrence);
        (draw as f64 / u64::MAX as f64) < ratio
    }
}

/// SplitMix64 finalizer: a well-mixed pure hash, used for fault-schedule
/// draws here and for deterministic retry jitter in the serving layer.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(feature = "chaos")]
mod imp {
    use super::{ChaosConfig, FaultEvent, FaultSite};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, RwLock};

    /// An installed, counting instance of a [`ChaosConfig`].
    #[derive(Debug)]
    pub struct FaultPlan {
        config: ChaosConfig,
        counters: Mutex<HashMap<FaultSite, Arc<AtomicU64>>>,
        log: Mutex<Vec<FaultEvent>>,
    }

    impl FaultPlan {
        fn new(config: ChaosConfig) -> Self {
            FaultPlan {
                config,
                counters: Mutex::new(HashMap::new()),
                log: Mutex::new(Vec::new()),
            }
        }

        /// Draws this site's next occurrence index and reports whether
        /// the schedule fires there.
        fn roll(&self, site: FaultSite) -> (u64, bool) {
            let counter = Arc::clone(
                self.counters
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .entry(site)
                    .or_default(),
            );
            let occurrence = counter.fetch_add(1, Ordering::Relaxed);
            (occurrence, self.config.fires(site, occurrence))
        }

        fn record(&self, site: FaultSite, occurrence: u64, action: impl Into<String>) {
            self.log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(FaultEvent {
                    site,
                    occurrence,
                    action: action.into(),
                });
        }
    }

    /// Serializes chaos sessions within a process: two installed plans
    /// never overlap, so parallel #[test]s using [`install`] are safe.
    static GATE: Mutex<()> = Mutex::new(());
    static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

    fn active() -> Option<Arc<FaultPlan>> {
        PLAN.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Keeps a [`ChaosConfig`] installed; dropping it uninstalls the
    /// plan and releases the process-wide chaos gate.
    pub struct ChaosGuard {
        plan: Arc<FaultPlan>,
        _gate: MutexGuard<'static, ()>,
    }

    impl ChaosGuard {
        /// Everything this plan injected so far, in injection order.
        pub fn events(&self) -> Vec<FaultEvent> {
            self.plan
                .log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone()
        }
    }

    impl Drop for ChaosGuard {
        fn drop(&mut self) {
            *PLAN.write().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }

    /// Installs `config` as the process-global fault plan, blocking
    /// until any previously installed plan is dropped.
    pub fn install(config: ChaosConfig) -> ChaosGuard {
        let gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let plan = Arc::new(FaultPlan::new(config));
        *PLAN.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&plan));
        ChaosGuard { plan, _gate: gate }
    }

    /// The active plan's event log (empty when no plan is installed).
    pub fn events() -> Vec<FaultEvent> {
        active().map_or_else(Vec::new, |p| {
            p.log.lock().unwrap_or_else(|e| e.into_inner()).clone()
        })
    }

    /// Injected error for `site`: `Some(description)` when the schedule
    /// fires.
    pub fn fail(site: FaultSite) -> Option<String> {
        let plan = active()?;
        let (occurrence, fires) = plan.roll(site);
        if !fires {
            return None;
        }
        let what = format!("{site:?} occurrence {occurrence}");
        plan.record(site, occurrence, "error");
        Some(what)
    }

    /// Injected stall for `site`: sleeps the configured duration when
    /// the schedule fires.
    pub fn stall(site: FaultSite) {
        let Some(plan) = active() else { return };
        let (occurrence, fires) = plan.roll(site);
        if !fires {
            return;
        }
        let wait = match site {
            FaultSite::Profile => plan.config.profile_stall,
            _ => plan.config.batch_stall,
        };
        plan.record(site, occurrence, format!("stall {wait:?}"));
        std::thread::sleep(wait);
    }

    /// Injected panic for `site`: panics with a recognizable message
    /// when the schedule fires. At [`FaultSite::BatchPanic`] the panic
    /// is caught by the worker's per-batch `catch_unwind`; at the kill
    /// sites it escapes the loop and the supervisor respawns the thread.
    pub fn panic_if_scheduled(site: FaultSite) {
        let Some(plan) = active() else { return };
        let (occurrence, fires) = plan.roll(site);
        if !fires {
            return;
        }
        plan.record(site, occurrence, "panic");
        panic!("injected fault: {site:?} occurrence {occurrence}");
    }

    /// Injected truncation for a write of `len` bytes: `Some(keep)`
    /// (strictly less than `len`) when the schedule fires.
    pub fn truncate(site: FaultSite, len: usize) -> Option<usize> {
        let plan = active()?;
        let (occurrence, fires) = plan.roll(site);
        if !fires || len == 0 {
            return None;
        }
        let keep = len / 2;
        plan.record(site, occurrence, format!("truncate {len} -> {keep}"));
        Some(keep)
    }

    /// Injected memory pressure at [`FaultSite::KvPressure`], checked
    /// once per batcher step: when the schedule fires, returns the
    /// configured episode as `(fraction_of_budget_withheld,
    /// duration_in_steps)`. The batcher withholds that share of its KV
    /// block budget for the episode's duration, then restores it.
    pub fn kv_pressure() -> Option<(f64, u64)> {
        let plan = active()?;
        let (occurrence, fires) = plan.roll(FaultSite::KvPressure);
        if !fires {
            return None;
        }
        let fraction = plan.config.kv_pressure_fraction.clamp(0.0, 1.0);
        let steps = plan.config.kv_pressure_duration_steps.max(1);
        plan.record(
            FaultSite::KvPressure,
            occurrence,
            format!(
                "withhold {:.0}% of KV budget for {steps} steps",
                fraction * 100.0
            ),
        );
        Some((fraction, steps))
    }
}

#[cfg(not(feature = "chaos"))]
mod imp {
    use super::{FaultEvent, FaultSite};

    /// Injected error for `site` (no-op without the `chaos` feature).
    #[inline(always)]
    pub fn fail(_site: FaultSite) -> Option<String> {
        None
    }

    /// Injected stall for `site` (no-op without the `chaos` feature).
    #[inline(always)]
    pub fn stall(_site: FaultSite) {}

    /// Injected panic for `site` (no-op without the `chaos` feature).
    #[inline(always)]
    pub fn panic_if_scheduled(_site: FaultSite) {}

    /// Injected truncation (no-op without the `chaos` feature).
    #[inline(always)]
    pub fn truncate(_site: FaultSite, _len: usize) -> Option<usize> {
        None
    }

    /// The active plan's event log (always empty without `chaos`).
    #[inline(always)]
    pub fn events() -> Vec<FaultEvent> {
        Vec::new()
    }

    /// Injected memory pressure (no-op without the `chaos` feature).
    #[inline(always)]
    pub fn kv_pressure() -> Option<(f64, u64)> {
        None
    }
}

#[cfg(feature = "chaos")]
pub use imp::{install, ChaosGuard};

pub use imp::{events, fail, kv_pressure, panic_if_scheduled, stall, truncate};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed_site_and_occurrence() {
        let a = ChaosConfig {
            seed: 42,
            compile_fail_ratio: 0.3,
            profile_stall_ratio: 0.1,
            batch_panics: vec![3, 17],
            worker_kills: vec![2],
            ..ChaosConfig::default()
        };
        let b = a.clone();
        for site in FaultSite::ALL {
            for n in 0..1000 {
                assert_eq!(
                    a.fires(site, n),
                    b.fires(site, n),
                    "same seed must reproduce the same schedule at {site:?}[{n}]"
                );
            }
        }
        // A different seed produces a different compile-failure schedule.
        let c = ChaosConfig {
            seed: 43,
            ..a.clone()
        };
        let differs =
            (0..1000).any(|n| a.fires(FaultSite::Compile, n) != c.fires(FaultSite::Compile, n));
        assert!(
            differs,
            "different seeds should differ somewhere in 1000 draws"
        );
    }

    #[test]
    fn ratio_draws_hit_roughly_the_configured_fraction() {
        let config = ChaosConfig {
            seed: 7,
            compile_fail_ratio: 0.3,
            ..ChaosConfig::default()
        };
        let fired = (0..10_000)
            .filter(|&n| config.fires(FaultSite::Compile, n))
            .count();
        assert!(
            (2_500..3_500).contains(&fired),
            "30% ratio should fire ~3000/10000 times, got {fired}"
        );
    }

    #[test]
    fn explicit_occurrence_lists_fire_exactly_there() {
        let config = ChaosConfig {
            batch_panics: vec![5],
            worker_kills: vec![0, 2],
            ..ChaosConfig::default()
        };
        assert!(config.fires(FaultSite::BatchPanic, 5));
        assert!(!config.fires(FaultSite::BatchPanic, 4));
        assert!(config.fires(FaultSite::WorkerKill, 0));
        assert!(config.fires(FaultSite::WorkerKill, 2));
        assert!(!config.fires(FaultSite::WorkerKill, 1));
    }

    #[test]
    fn kv_pressure_fires_on_explicit_steps_and_ratio_draws() {
        let config = ChaosConfig {
            seed: 11,
            kv_pressure_steps: vec![4],
            kv_pressure_ratio: 0.2,
            ..ChaosConfig::default()
        };
        assert!(
            config.fires(FaultSite::KvPressure, 4),
            "explicit steps always fire"
        );
        let fired = (0..10_000)
            .filter(|&n| config.fires(FaultSite::KvPressure, n))
            .count();
        assert!(
            (1_500..2_600).contains(&fired),
            "20% ratio should fire ~2000/10000 times, got {fired}"
        );
        let list_only = ChaosConfig {
            kv_pressure_steps: vec![0, 7],
            ..ChaosConfig::default()
        };
        assert!(list_only.fires(FaultSite::KvPressure, 0));
        assert!(list_only.fires(FaultSite::KvPressure, 7));
        assert!(!list_only.fires(FaultSite::KvPressure, 3));
    }

    #[test]
    fn default_config_injects_nothing() {
        let config = ChaosConfig::default();
        for site in FaultSite::ALL {
            assert!((0..100).all(|n| !config.fires(site, n)));
        }
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn installed_plan_counts_occurrences_and_logs_events() {
        let guard = install(ChaosConfig {
            batch_panics: vec![1],
            ..ChaosConfig::default()
        });
        assert!(fail(FaultSite::Compile).is_none(), "ratio 0 never fails");
        let caught = std::panic::catch_unwind(|| {
            panic_if_scheduled(FaultSite::BatchPanic); // occurrence 0: no
            panic_if_scheduled(FaultSite::BatchPanic); // occurrence 1: panic
        });
        assert!(caught.is_err(), "second check must panic");
        let logged = guard.events();
        assert_eq!(logged.len(), 1);
        assert_eq!(logged[0].site, FaultSite::BatchPanic);
        assert_eq!(logged[0].occurrence, 1);
        drop(guard);
        assert!(events().is_empty(), "dropping the guard uninstalls");
    }
}
