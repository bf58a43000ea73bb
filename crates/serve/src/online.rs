//! Online tuning and engine lifecycle: serve unseen batch shapes now,
//! tune them in the background, hot-swap the tuned engine in, and evict
//! cold engines under a memory budget.
//!
//! This is the deployment story the paper's "tuning in minutes, not
//! hours" enables: profiling is fast enough to run *while serving*. A
//! request for a `(model, bucket)` that has no compiled engine is never
//! refused and never blocks on the tuner:
//!
//! * **Fallback serve** — the batch runs immediately on the nearest
//!   existing bucket (padded up), split across repeated launches of the
//!   largest bucket when it overflows, or — when the model has no
//!   engines at all — on a **heuristic default-config engine** compiled
//!   without any profiling ([`crate::EngineRegistry::compile_heuristic_bucket`]).
//! * **Background tune** — the missing bucket is enqueued on a bounded
//!   tuner pool. Per-key [`EngineState`] makes concurrent misses
//!   coalesce into exactly one compile. Compiles go through the shared
//!   [`bolt::BoltCompiler`], so the warm autotune cache (and its on-disk
//!   persistence after every compile) applies.
//! * **Hot swap** — the finished engine is installed via
//!   [`crate::EngineRegistry::insert_bucket`], which replaces the whole
//!   `Arc<ModelEngines>` under the registry lock; in-flight lookups see
//!   either the old or the new value, both complete.
//! * **Evict** — engines are accounted by
//!   [`bolt::ExecutionPlan::resident_bytes`] and evicted
//!   least-recently-used when the configured budget is exceeded. An
//!   evicted bucket that sees traffic again recompiles — warm from the
//!   autotune cache, so the second compile measures nothing.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bolt::ExecutionPlan;

use crate::registry::{EngineRegistry, ModelEngines};
use crate::Result;

/// Tunables for the [`OnlineEngineManager`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
    /// Background tuner threads running profiled compiles.
    pub tuner_threads: usize,
    /// Bounded compile-queue length. A miss whose compile does not fit
    /// is still served on the fallback path; only the background compile
    /// is skipped (and counted in
    /// [`OnlineSnapshot::compile_queue_rejected`]).
    pub queue_capacity: usize,
    /// Total [`bolt::ExecutionPlan::resident_bytes`] the managed tuned
    /// engines may keep resident; least-recently-used buckets are
    /// evicted to stay under it. `None` disables eviction.
    pub memory_budget_bytes: Option<u64>,
    /// Base retry delay after the *first* failed compile of a
    /// `(model, bucket)`. Each further consecutive failure doubles the
    /// delay (capped at [`OnlineConfig::retry_backoff_max`]) and adds a
    /// deterministic jitter of up to 25% so co-failing keys don't retry
    /// in lockstep.
    pub retry_backoff: Duration,
    /// Ceiling of the exponential retry backoff.
    pub retry_backoff_max: Duration,
    /// Consecutive compile failures (across all of a model's buckets)
    /// that trip the per-model circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before it half-opens and
    /// admits a single probe compile.
    pub breaker_cooldown: Duration,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            tuner_threads: 1,
            queue_capacity: 64,
            memory_budget_bytes: None,
            retry_backoff: Duration::from_millis(250),
            retry_backoff_max: Duration::from_secs(10),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(2),
        }
    }
}

/// Lifecycle state of one `(model, bucket)` engine key.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineState {
    /// A tuned engine is installed in the registry.
    Ready,
    /// A background compile is queued or running; further misses for the
    /// key serve fallback without enqueueing a second compile.
    Compiling,
    /// The last compile failed; retried on the first miss after
    /// `retry_after` (capped exponential backoff with deterministic
    /// jitter — see [`OnlineConfig::retry_backoff`]).
    Failed {
        /// The compile error, for diagnostics.
        error: String,
        /// Earliest instant a retry may be enqueued.
        retry_after: Instant,
        /// Consecutive failed compiles of this key (drives the backoff).
        attempts: u32,
    },
}

/// Per-model circuit breaker over background compiles. Repeated compile
/// failures across a model's buckets trip it open: while open, no new
/// compiles are enqueued for the model (requests still serve on the
/// fallback path, flagged `degraded`). After
/// [`OnlineConfig::breaker_cooldown`] it half-opens and admits exactly
/// one probe compile — success closes it, failure re-opens it.
#[derive(Debug, Clone, PartialEq)]
enum BreakerState {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
        }
    }
}

/// How the manager placed one batch.
#[derive(Debug, Clone)]
pub struct Acquired {
    /// The bucket the batch executes on.
    pub bucket: usize,
    /// The engine compiled for that bucket.
    pub engine: Arc<ExecutionPlan>,
    /// Back-to-back launches needed (1 unless the batch overflowed every
    /// compiled bucket and was split).
    pub launches: usize,
    /// True when this was a fallback placement (padded to an oversized
    /// bucket, split on overflow, or a heuristic default-config engine)
    /// rather than a tuned engine fitting the batch.
    pub fallback: bool,
    /// True when the model's circuit breaker was open (or probing) at
    /// placement time: the request is served, but on a degraded path
    /// with background tuning suspended for the model.
    pub degraded: bool,
}

/// One failed `(model, bucket)` engine key, as surfaced by
/// [`OnlineSnapshot::failed_buckets`].
#[derive(Debug, Clone, PartialEq)]
pub struct FailedBucket {
    /// Model name.
    pub model: String,
    /// Batch bucket whose compile failed.
    pub bucket: usize,
    /// The last compile error.
    pub error: String,
    /// Consecutive failed compiles of this key.
    pub attempts: u32,
    /// Time until the next retry may be enqueued (zero if already due).
    pub retry_in: Duration,
}

/// Point-in-time view of the online tuning counters.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSnapshot {
    /// Requests served on a fallback path while their bucket was untuned.
    pub fallback_served: u64,
    /// Background compiles picked up by a tuner thread.
    pub compiles_started: u64,
    /// Background compiles that finished and hot-swapped an engine in.
    pub compiles_completed: u64,
    /// Background compiles that failed.
    pub compiles_failed: u64,
    /// Compile requests dropped because the bounded queue was full.
    pub compile_queue_rejected: u64,
    /// Engines hot-swapped into the registry.
    pub hot_swaps: u64,
    /// Engines evicted under the memory budget.
    pub evictions: u64,
    /// Simulated tuning wall-clock spent by online compiles, seconds
    /// (zero when every workload came warm from the autotune cache).
    pub tuning_seconds: f64,
    /// Compiles currently queued or running.
    pub compile_queue_depth: usize,
    /// Total resident bytes of managed tuned engines plus live heuristic
    /// fallback engines.
    pub resident_bytes: u64,
    /// Externally-owned bytes (the KV block pool) currently charged
    /// against `memory_budget_bytes` ahead of tuned engines.
    pub external_resident_bytes: u64,
    /// Tuner threads respawned by the supervisor after a panic.
    pub tuner_restarts: u64,
    /// Times a per-model circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Requests placed while their model's breaker was open or probing.
    pub degraded_served: u64,
    /// Every key currently in [`EngineState::Failed`], sorted by
    /// `(model, bucket)` for stable output.
    pub failed_buckets: Vec<FailedBucket>,
    /// Models whose circuit breaker is currently open or half-open,
    /// sorted.
    pub tripped_models: Vec<String>,
}

type EngineKey = (String, usize);

#[derive(Debug, Default)]
struct Counters {
    fallback_served: AtomicU64,
    compiles_started: AtomicU64,
    compiles_completed: AtomicU64,
    compiles_failed: AtomicU64,
    compile_queue_rejected: AtomicU64,
    hot_swaps: AtomicU64,
    evictions: AtomicU64,
    /// Simulated tuning time, µs (integer so it can be a plain atomic).
    tuning_us: AtomicU64,
    tuner_restarts: AtomicU64,
    breaker_trips: AtomicU64,
    degraded_served: AtomicU64,
}

#[derive(Debug, Default)]
struct State {
    states: HashMap<EngineKey, EngineState>,
    queue: VecDeque<EngineKey>,
    /// Compiles a tuner thread is currently running.
    inflight: usize,
    /// Resident bytes per tuned key, for budget accounting.
    resident: HashMap<EngineKey, u64>,
    /// LRU stamps per model, then bucket: higher = more recently used.
    /// Keyed by name first so a hit stamps its entry without building a
    /// key.
    touched: HashMap<String, HashMap<usize, u64>>,
    tick: u64,
    /// Heuristic default-config engines serving keys with no tuned
    /// engine yet; dropped when the tuned engine hot-swaps in.
    heuristic: HashMap<EngineKey, Arc<ExecutionPlan>>,
    /// Per-model circuit breakers over background compiles.
    breakers: HashMap<String, Breaker>,
    /// Consecutive failed compiles per key (survives the `Failed` →
    /// `Compiling` transition of a retry; cleared on success/eviction).
    fail_counts: HashMap<EngineKey, u32>,
    shutdown: bool,
}

impl State {
    fn touch(&mut self, name: &str, bucket: usize) {
        self.tick += 1;
        let tick = self.tick;
        match self.touched.get_mut(name) {
            Some(buckets) => buckets.insert(bucket, tick),
            None => self
                .touched
                .entry(name.to_string())
                .or_default()
                .insert(bucket, tick),
        };
    }

    /// The LRU stamp of `key` (0 when never served).
    fn stamp(&self, key: &EngineKey) -> u64 {
        self.touched
            .get(&key.0)
            .and_then(|buckets| buckets.get(&key.1))
            .copied()
            .unwrap_or(0)
    }
}

/// Everything the tuner threads share with the front-end handle.
struct Shared {
    registry: Arc<EngineRegistry>,
    config: OnlineConfig,
    state: Mutex<State>,
    /// Wakes tuners on new queue entries and shutdown.
    work_cv: Condvar,
    /// Wakes [`OnlineEngineManager::wait_idle`] when the queue drains.
    idle_cv: Condvar,
    counters: Counters,
    /// Bytes of externally-owned accelerator memory (the continuous
    /// batcher's KV block pool) charged against the engine memory
    /// budget; see [`OnlineEngineManager::set_external_resident_bytes`].
    external_bytes: AtomicU64,
}

impl Shared {
    /// The state mutex, poison-tolerant (a panicked tuner must not take
    /// the serving path down with it).
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues a compile for `key` unless the model's circuit breaker
    /// is open, one is already queued/running, a recent failure is still
    /// cooling down, or the queue is full. Caller holds the state lock.
    ///
    /// Returns `true` when the model is **degraded**: its breaker is
    /// open (no compile enqueued) or half-open (at most a single probe
    /// compile admitted, bypassing the per-key backoff).
    fn maybe_enqueue(&self, st: &mut State, key: EngineKey) -> bool {
        let now = Instant::now();
        // The per-model breaker gates before any per-key state.
        let mut probing = false;
        match st.breakers.get(&key.0).map(|b| b.state.clone()) {
            Some(BreakerState::Open { until }) if now < until => return true,
            Some(BreakerState::Open { .. }) => probing = true, // cooldown over: try one probe
            Some(BreakerState::HalfOpen) => return true,       // probe already in flight
            Some(BreakerState::Closed) | None => {}
        }
        match st.states.get(&key) {
            Some(EngineState::Ready) | Some(EngineState::Compiling) => return probing,
            Some(EngineState::Failed { retry_after, .. }) if !probing && now < *retry_after => {
                return false;
            }
            _ => {}
        }
        if st.queue.len() >= self.config.queue_capacity {
            self.counters
                .compile_queue_rejected
                .fetch_add(1, Ordering::Relaxed);
            // An expired-open breaker stays open: the next miss retries
            // the probe. Never park in HalfOpen without a probe queued.
            return probing;
        }
        if probing {
            // The transition happens only once the probe is actually
            // enqueued, so HalfOpen always has exactly one compile out.
            if let Some(b) = st.breakers.get_mut(&key.0) {
                b.state = BreakerState::HalfOpen;
            }
        }
        st.states.insert(key.clone(), EngineState::Compiling);
        st.queue.push_back(key);
        self.work_cv.notify_one();
        probing
    }
}

/// Capped exponential backoff with deterministic jitter for the
/// `attempts`-th consecutive failure of `key`. Doubling is capped at
/// [`OnlineConfig::retry_backoff_max`]; jitter adds up to 25% more,
/// derived from a hash of the key and attempt count so the schedule is
/// reproducible yet decorrelated across keys.
fn backoff_delay(config: &OnlineConfig, key: &EngineKey, attempts: u32) -> Duration {
    let base = config.retry_backoff.max(Duration::from_millis(1));
    let doublings = attempts.saturating_sub(1).min(16);
    let delay = base
        .saturating_mul(1u32 << doublings)
        .min(config.retry_backoff_max.max(base));
    let span = (delay.as_micros() as u64 / 4).max(1);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.0.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= (key.1 as u64) << 32 | attempts as u64;
    delay + Duration::from_micros(bolt::faults::mix64(h) % span)
}

/// The online tuning & engine-lifecycle manager (see module docs).
pub struct OnlineEngineManager {
    shared: Arc<Shared>,
    tuners: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for OnlineEngineManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineEngineManager")
            .field("config", &self.shared.config)
            .field("snapshot", &self.snapshot())
            .finish_non_exhaustive()
    }
}

impl OnlineEngineManager {
    /// Starts `config.tuner_threads` background tuners over `registry`.
    /// Buckets already compiled at construction are seeded as
    /// [`EngineState::Ready`] and accounted against the memory budget.
    pub fn new(registry: Arc<EngineRegistry>, config: OnlineConfig) -> Self {
        let config = OnlineConfig {
            tuner_threads: config.tuner_threads.max(1),
            queue_capacity: config.queue_capacity.max(1),
            ..config
        };
        let threads = config.tuner_threads;
        let shared = Arc::new(Shared {
            registry: Arc::clone(&registry),
            config,
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            counters: Counters::default(),
            external_bytes: AtomicU64::new(0),
        });
        {
            let mut st = shared.lock_state();
            for name in registry.names() {
                let Some(engines) = registry.get(&name) else {
                    continue;
                };
                for bucket in engines.bucket_sizes() {
                    let key = (name.clone(), bucket);
                    if let Some((_, engine)) = engines.engine_for(bucket) {
                        st.resident.insert(key.clone(), engine.resident_bytes());
                    }
                    st.states.insert(key.clone(), EngineState::Ready);
                    st.touch(&key.0, key.1);
                }
            }
        }
        let tuners = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                // Supervisor: a panic that escapes the tuner loop (only
                // injected faults or real bugs — per-compile panics are
                // caught inside the loop) restarts it in place, so the
                // tuner pool never shrinks. A clean return is shutdown.
                std::thread::spawn(move || loop {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        tuner_loop(&shared)
                    })) {
                        Ok(()) => return,
                        Err(_) => {
                            shared
                                .counters
                                .tuner_restarts
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        OnlineEngineManager {
            shared,
            tuners: Mutex::new(tuners),
        }
    }

    /// The bucket online tuning quantizes `batch` to: the next power of
    /// two ≥ `batch`. Quantizing keeps the set of buckets the tuner can
    /// be asked for small, so a finite stream of distinct batch sizes
    /// converges to a finite set of tuned engines.
    pub fn desired_bucket(batch: usize) -> usize {
        batch.max(1).next_power_of_two()
    }

    /// Places a batch, never blocking on the tuner: a tuned engine that
    /// fits within the quantized bucket serves directly; anything else is
    /// served on a fallback path while the missing bucket's compile is
    /// enqueued. See module docs for the policy.
    ///
    /// # Errors
    ///
    /// Only the zero-engines path can fail, when the heuristic compile
    /// itself errors (e.g. the graph has no legal template config).
    pub fn acquire(&self, model: &Arc<ModelEngines>, batch: usize) -> Result<Acquired> {
        let shared = &*self.shared;
        // Re-read the registry: the batch may have been formed against a
        // snapshot from before a hot-swap.
        let engines = shared
            .registry
            .get(model.name())
            .unwrap_or_else(|| Arc::clone(model));
        let name = engines.name();
        let desired = Self::desired_bucket(batch);
        // Built only off the hot path, where a compile may be enqueued.
        let key = || (name.to_string(), desired);

        if let Some((bucket, engine)) = engines.engine_for(batch) {
            if bucket <= desired {
                // A tuned engine at least as tight as our own quantization
                // would produce: serve it, no compile needed.
                shared.lock_state().touch(name, bucket);
                return Ok(Acquired {
                    bucket,
                    engine,
                    launches: 1,
                    fallback: false,
                    degraded: false,
                });
            }
            // Over-padded: serve the nearest bucket now, tune the right one.
            let degraded = {
                let mut st = shared.lock_state();
                st.touch(name, bucket);
                shared.maybe_enqueue(&mut st, key())
            };
            self.count_fallback(batch, degraded);
            return Ok(Acquired {
                bucket,
                engine,
                launches: 1,
                fallback: true,
                degraded,
            });
        }

        if let Some(placement) = engines.placement_for(batch) {
            // Overflow: explicit split across the largest bucket.
            let degraded = {
                let mut st = shared.lock_state();
                st.touch(name, placement.bucket);
                shared.maybe_enqueue(&mut st, key())
            };
            self.count_fallback(batch, degraded);
            return Ok(Acquired {
                bucket: placement.bucket,
                engine: placement.engine,
                launches: placement.launches,
                fallback: true,
                degraded,
            });
        }

        // No engines at all: heuristic default-config engine.
        let key = key();
        let degraded = {
            let mut st = shared.lock_state();
            shared.maybe_enqueue(&mut st, key.clone())
        };
        let engine = self.heuristic_engine(&key)?;
        self.count_fallback(batch, degraded);
        Ok(Acquired {
            bucket: desired,
            engine,
            launches: 1,
            fallback: true,
            degraded,
        })
    }

    fn count_fallback(&self, batch: usize, degraded: bool) {
        let c = &self.shared.counters;
        c.fallback_served.fetch_add(batch as u64, Ordering::Relaxed);
        if degraded {
            c.degraded_served.fetch_add(batch as u64, Ordering::Relaxed);
        }
    }

    /// The cached heuristic engine for `key`, compiling it on first use.
    /// Compilation happens outside the state lock; a racing duplicate
    /// compile is possible but harmless (first insert wins).
    fn heuristic_engine(&self, key: &EngineKey) -> Result<Arc<ExecutionPlan>> {
        if let Some(engine) = self.shared.lock_state().heuristic.get(key) {
            return Ok(Arc::clone(engine));
        }
        let engine = self
            .shared
            .registry
            .compile_heuristic_bucket(&key.0, key.1)?;
        let mut st = self.shared.lock_state();
        Ok(Arc::clone(
            st.heuristic.entry(key.clone()).or_insert(engine),
        ))
    }

    /// The lifecycle state of one `(model, bucket)` key, if tracked.
    pub fn state_of(&self, model: &str, bucket: usize) -> Option<EngineState> {
        self.shared
            .lock_state()
            .states
            .get(&(model.to_string(), bucket))
            .cloned()
    }

    /// Blocks until no compile is queued or running, up to `timeout`.
    /// Returns `false` on timeout.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock_state();
        loop {
            if st.queue.is_empty() && st.inflight == 0 {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .shared
                .idle_cv
                .wait_timeout(st, remaining)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Charges externally-owned accelerator memory — the continuous
    /// batcher's resident KV block pool — against `memory_budget_bytes`.
    /// Tuned engines only get to fill whatever the KV governor left:
    /// eviction planning sees `budget - external`, so a growing KV
    /// footprint squeezes cold engines out first while live engines and
    /// the KV blocks themselves are never touched.
    pub fn set_external_resident_bytes(&self, bytes: u64) {
        self.shared.external_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Point-in-time counters.
    pub fn snapshot(&self) -> OnlineSnapshot {
        let c = &self.shared.counters;
        let st = self.shared.lock_state();
        let resident_bytes = st.resident.values().sum::<u64>()
            + st.heuristic
                .values()
                .map(|engine| engine.resident_bytes())
                .sum::<u64>();
        let now = Instant::now();
        let mut failed_buckets: Vec<FailedBucket> = st
            .states
            .iter()
            .filter_map(|((model, bucket), state)| match state {
                EngineState::Failed {
                    error,
                    retry_after,
                    attempts,
                } => Some(FailedBucket {
                    model: model.clone(),
                    bucket: *bucket,
                    error: error.clone(),
                    attempts: *attempts,
                    retry_in: retry_after.saturating_duration_since(now),
                }),
                _ => None,
            })
            .collect();
        failed_buckets.sort_by(|a, b| (&a.model, a.bucket).cmp(&(&b.model, b.bucket)));
        let mut tripped_models: Vec<String> = st
            .breakers
            .iter()
            .filter(|(_, b)| b.state != BreakerState::Closed)
            .map(|(model, _)| model.clone())
            .collect();
        tripped_models.sort();
        OnlineSnapshot {
            fallback_served: c.fallback_served.load(Ordering::Relaxed),
            compiles_started: c.compiles_started.load(Ordering::Relaxed),
            compiles_completed: c.compiles_completed.load(Ordering::Relaxed),
            compiles_failed: c.compiles_failed.load(Ordering::Relaxed),
            compile_queue_rejected: c.compile_queue_rejected.load(Ordering::Relaxed),
            hot_swaps: c.hot_swaps.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            tuning_seconds: c.tuning_us.load(Ordering::Relaxed) as f64 / 1e6,
            compile_queue_depth: st.queue.len() + st.inflight,
            resident_bytes,
            external_resident_bytes: self.shared.external_bytes.load(Ordering::Relaxed),
            tuner_restarts: c.tuner_restarts.load(Ordering::Relaxed),
            breaker_trips: c.breaker_trips.load(Ordering::Relaxed),
            degraded_served: c.degraded_served.load(Ordering::Relaxed),
            failed_buckets,
            tripped_models,
        }
    }
}

impl Drop for OnlineEngineManager {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let handles: Vec<_> = {
            let mut tuners = self.tuners.lock().unwrap_or_else(|e| e.into_inner());
            tuners.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn tuner_loop(shared: &Shared) {
    loop {
        // Chaos: a tuner thread may die *between* compiles — before it
        // has dequeued anything, so no key is stranded in `Compiling`.
        // The supervisor wrapper respawns the thread.
        bolt::faults::panic_if_scheduled(bolt::faults::FaultSite::TunerKill);
        let key = {
            let mut st = shared.lock_state();
            loop {
                if let Some(key) = st.queue.pop_front() {
                    st.inflight += 1;
                    break key;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared
            .counters
            .compiles_started
            .fetch_add(1, Ordering::Relaxed);

        // The expensive part, outside every lock: a fully-profiled
        // compile through the shared compiler (which also persists the
        // autotune cache on success, when one is configured). A panic in
        // the compile (a buggy model builder, an injected fault) is
        // isolated here and recorded as a failed compile — it must not
        // strand the key in `Compiling` or leak the inflight count.
        let compiled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.registry.compile_bucket(&key.0, key.1)
        }))
        .unwrap_or_else(|payload| {
            Err(crate::ServeError::Panicked {
                component: format!("compile of ({}, {})", key.0, key.1),
                message: crate::panic_message(&payload),
            })
        });

        match compiled {
            Ok((engine, tuning)) => {
                let bytes = engine.resident_bytes();
                match shared.registry.insert_bucket(&key.0, key.1, engine) {
                    Ok(_) => {
                        shared
                            .counters
                            .compiles_completed
                            .fetch_add(1, Ordering::Relaxed);
                        shared.counters.hot_swaps.fetch_add(1, Ordering::Relaxed);
                        shared.counters.tuning_us.fetch_add(
                            (tuning.tuning_seconds * 1e6).round() as u64,
                            Ordering::Relaxed,
                        );
                        let victims = {
                            let mut st = shared.lock_state();
                            st.states.insert(key.clone(), EngineState::Ready);
                            st.heuristic.remove(&key);
                            st.resident.insert(key.clone(), bytes);
                            st.touch(&key.0, key.1);
                            st.fail_counts.remove(&key);
                            // A success closes the model's breaker.
                            st.breakers.insert(key.0.clone(), Breaker::default());
                            // KV blocks and tuned engines share the same
                            // accelerator memory: the budget engines may
                            // fill is whatever the KV pool left behind.
                            let external = shared.external_bytes.load(Ordering::Relaxed);
                            let budget = shared
                                .config
                                .memory_budget_bytes
                                .map(|b| b.saturating_sub(external));
                            plan_evictions(&mut st, budget, &key)
                        };
                        // Registry mutations outside the state lock (lock
                        // order: never hold both).
                        for victim in victims {
                            let _ = shared.registry.remove_bucket(&victim.0, victim.1);
                            shared.counters.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) => {
                        // Model was unregistered while compiling.
                        record_failure(shared, &key, &e.to_string());
                    }
                }
            }
            Err(e) => record_failure(shared, &key, &e.to_string()),
        }

        let mut st = shared.lock_state();
        st.inflight -= 1;
        if st.queue.is_empty() && st.inflight == 0 {
            shared.idle_cv.notify_all();
        }
    }
}

/// Marks `key` failed with exponential-backoff retry and advances the
/// model's circuit breaker.
fn record_failure(shared: &Shared, key: &EngineKey, error: &str) {
    shared
        .counters
        .compiles_failed
        .fetch_add(1, Ordering::Relaxed);
    let mut st = shared.lock_state();
    let counter = st.fail_counts.entry(key.clone()).or_insert(0);
    *counter += 1;
    let attempts = *counter;
    let retry_after = Instant::now() + backoff_delay(&shared.config, key, attempts);
    st.states.insert(
        key.clone(),
        EngineState::Failed {
            error: error.to_string(),
            retry_after,
            attempts,
        },
    );
    let threshold = shared.config.breaker_threshold.max(1);
    let cooldown = shared.config.breaker_cooldown;
    let breaker = st.breakers.entry(key.0.clone()).or_default();
    breaker.consecutive_failures += 1;
    let trips = match breaker.state {
        // The half-open probe failed: straight back to open.
        BreakerState::HalfOpen => true,
        BreakerState::Closed => breaker.consecutive_failures >= threshold,
        // Already open (a compile enqueued before the trip finished
        // late); don't re-trip or extend the cooldown.
        BreakerState::Open { .. } => false,
    };
    if trips {
        breaker.state = BreakerState::Open {
            until: Instant::now() + cooldown,
        };
        shared
            .counters
            .breaker_trips
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// LRU victims to evict so total resident bytes fit the budget. The
/// just-installed `keep` key is never chosen, so a single over-budget
/// engine cannot evict itself in a loop. Victim state entries are
/// removed entirely: the next miss re-enqueues a (cache-warm) compile.
fn plan_evictions(st: &mut State, budget: Option<u64>, keep: &EngineKey) -> Vec<EngineKey> {
    let Some(budget) = budget else {
        return Vec::new();
    };
    let mut victims = Vec::new();
    let mut total: u64 = st.resident.values().sum();
    while total > budget {
        let Some(victim) = st
            .resident
            .keys()
            .filter(|k| *k != keep)
            .min_by_key(|k| st.stamp(k))
            .cloned()
        else {
            break;
        };
        total -= st.resident.remove(&victim).unwrap_or(0);
        if let Some(buckets) = st.touched.get_mut(&victim.0) {
            buckets.remove(&victim.1);
        }
        st.states.remove(&victim);
        st.fail_counts.remove(&victim);
        victims.push(victim);
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::test_arch;
    use bolt::BoltConfig;

    fn registry() -> Arc<EngineRegistry> {
        Arc::new(EngineRegistry::new(test_arch(), BoltConfig::default()))
    }

    #[test]
    fn desired_bucket_is_next_power_of_two() {
        assert_eq!(OnlineEngineManager::desired_bucket(0), 1);
        assert_eq!(OnlineEngineManager::desired_bucket(1), 1);
        assert_eq!(OnlineEngineManager::desired_bucket(3), 4);
        assert_eq!(OnlineEngineManager::desired_bucket(8), 8);
        assert_eq!(OnlineEngineManager::desired_bucket(9), 16);
    }

    #[test]
    fn backoff_delay_is_deterministic_capped_and_jittered() {
        let config = OnlineConfig {
            retry_backoff: Duration::from_millis(100),
            retry_backoff_max: Duration::from_secs(2),
            ..OnlineConfig::default()
        };
        let key = ("mlp-small".to_string(), 4);
        // Reproducible: same inputs, same delay, bit for bit.
        assert_eq!(
            backoff_delay(&config, &key, 1),
            backoff_delay(&config, &key, 1)
        );
        // First failure waits at least the base, at most base + 25%.
        let first = backoff_delay(&config, &key, 1);
        assert!(first >= Duration::from_millis(100), "{first:?}");
        assert!(first <= Duration::from_millis(125), "{first:?}");
        // Doubling grows the floor until the cap.
        let fourth = backoff_delay(&config, &key, 4);
        assert!(fourth >= Duration::from_millis(800), "{fourth:?}");
        // Far past the cap: never exceeds max + 25% jitter, and never
        // overflows even at absurd attempt counts.
        let huge = backoff_delay(&config, &key, u32::MAX);
        assert!(huge <= Duration::from_millis(2500), "{huge:?}");
        // Jitter decorrelates keys: two keys at the same attempt almost
        // surely differ (equal only on a 1-in-span hash collision; these
        // two were checked not to collide).
        let other = ("cnn-small".to_string(), 4);
        assert_ne!(
            backoff_delay(&config, &key, 3),
            backoff_delay(&config, &other, 3)
        );
    }

    #[test]
    fn miss_serves_heuristic_fallback_then_hot_swaps_tuned_engine() {
        let reg = registry();
        let engines = reg.register_zoo_dynamic("mlp-small").expect("register");
        let manager = OnlineEngineManager::new(Arc::clone(&reg), OnlineConfig::default());

        let first = manager.acquire(&engines, 2).expect("fallback placement");
        assert!(first.fallback, "no tuned engine yet");
        assert_eq!(first.bucket, 2);
        assert_eq!(first.launches, 1);
        // The compile is either still in flight or (simulated compiles
        // are fast) already done — never absent, never failed.
        assert!(matches!(
            manager.state_of("mlp-small", 2),
            Some(EngineState::Compiling) | Some(EngineState::Ready)
        ));

        assert!(manager.wait_idle(Duration::from_secs(60)), "tuner drains");
        assert_eq!(manager.state_of("mlp-small", 2), Some(EngineState::Ready));
        assert_eq!(reg.get("mlp-small").unwrap().bucket_sizes(), vec![2]);

        let second = manager.acquire(&engines, 2).expect("tuned placement");
        assert!(!second.fallback, "tuned engine serves after hot-swap");
        assert_eq!(second.bucket, 2);
        // The tuned engine never prices worse than the heuristic default.
        assert!(second.engine.time().total_us <= first.engine.time().total_us + 1e-9);

        let snap = manager.snapshot();
        assert_eq!(snap.compiles_completed, 1);
        assert_eq!(snap.hot_swaps, 1);
        assert_eq!(snap.compiles_failed, 0);
        assert_eq!(snap.fallback_served, 2, "two fallback requests (batch=2)");
        assert_eq!(snap.compile_queue_depth, 0);
        assert!(snap.tuning_seconds > 0.0, "cold compile must charge time");
        assert!(snap.resident_bytes > 0);
    }

    #[test]
    fn concurrent_misses_coalesce_into_one_compile() {
        let reg = registry();
        let engines = reg.register_zoo_dynamic("mlp-small").expect("register");
        let manager = OnlineEngineManager::new(Arc::clone(&reg), OnlineConfig::default());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let manager = &manager;
                let engines = &engines;
                scope.spawn(move || {
                    manager.acquire(engines, 4).expect("acquire");
                });
            }
        });
        assert!(manager.wait_idle(Duration::from_secs(60)));
        let snap = manager.snapshot();
        assert_eq!(
            snap.compiles_completed, 1,
            "eight racing misses must coalesce into exactly one compile"
        );
        assert_eq!(reg.get("mlp-small").unwrap().bucket_sizes(), vec![4]);
    }

    #[test]
    fn lru_eviction_keeps_resident_bytes_under_budget() {
        let reg = registry();
        let engines = reg.register_zoo_dynamic("mlp-small").expect("register");
        // A budget no engine fits: every hot-swap evicts all other buckets.
        let manager = OnlineEngineManager::new(
            Arc::clone(&reg),
            OnlineConfig {
                memory_budget_bytes: Some(1),
                ..OnlineConfig::default()
            },
        );

        manager.acquire(&engines, 1).expect("miss 1");
        assert!(manager.wait_idle(Duration::from_secs(60)));
        assert_eq!(reg.get("mlp-small").unwrap().bucket_sizes(), vec![1]);

        manager.acquire(&engines, 2).expect("miss 2");
        assert!(manager.wait_idle(Duration::from_secs(60)));
        let snap = manager.snapshot();
        assert_eq!(snap.evictions, 1, "bucket 1 evicted when 2 swapped in");
        assert_eq!(
            reg.get("mlp-small").unwrap().bucket_sizes(),
            vec![2],
            "only the newest engine stays resident"
        );
        assert_eq!(
            manager.state_of("mlp-small", 1),
            None,
            "evicted keys are forgotten so a new miss recompiles"
        );
    }

    #[test]
    fn external_kv_bytes_tighten_the_engine_memory_budget() {
        let reg = registry();
        let engines = reg.register_zoo_dynamic("mlp-small").expect("register");
        // Roomy budget: absent external pressure every engine coexists.
        let manager = OnlineEngineManager::new(
            Arc::clone(&reg),
            OnlineConfig {
                memory_budget_bytes: Some(1 << 40),
                ..OnlineConfig::default()
            },
        );

        manager.acquire(&engines, 1).expect("miss 1");
        assert!(manager.wait_idle(Duration::from_secs(60)));
        manager
            .acquire(&reg.get("mlp-small").unwrap(), 2)
            .expect("miss 2");
        assert!(manager.wait_idle(Duration::from_secs(60)));
        assert_eq!(reg.get("mlp-small").unwrap().bucket_sizes(), vec![1, 2]);
        assert_eq!(manager.snapshot().evictions, 0, "no pressure yet");

        // The KV pool claims nearly the whole device: the next hot-swap
        // plans evictions against `budget - external` and squeezes both
        // cold engines out, keeping only the engine it just swapped in.
        manager.set_external_resident_bytes((1 << 40) - 1);
        manager
            .acquire(&reg.get("mlp-small").unwrap(), 4)
            .expect("miss 4");
        assert!(manager.wait_idle(Duration::from_secs(60)));
        let snap = manager.snapshot();
        assert_eq!(snap.external_resident_bytes, (1 << 40) - 1);
        assert_eq!(snap.evictions, 2, "both cold engines squeezed out");
        assert_eq!(reg.get("mlp-small").unwrap().bucket_sizes(), vec![4]);
    }

    /// The eviction/readmission race the LRU must survive: while bucket
    /// 2's compile is in flight (its hot-swap will evict bucket 1), the
    /// evicted-bucket-to-be is requested again. Whichever side of the
    /// swap the re-request lands on, nothing errors and the system
    /// converges to exactly one resident engine — the re-requested one.
    #[test]
    fn evicted_bucket_rerequested_mid_eviction_recompiles_cleanly() {
        let reg = registry();
        let engines = reg.register_zoo_dynamic("mlp-small").expect("register");
        let manager = OnlineEngineManager::new(
            Arc::clone(&reg),
            OnlineConfig {
                memory_budget_bytes: Some(1),
                ..OnlineConfig::default()
            },
        );

        manager.acquire(&engines, 1).expect("miss 1");
        assert!(manager.wait_idle(Duration::from_secs(60)));
        assert_eq!(reg.get("mlp-small").unwrap().bucket_sizes(), vec![1]);

        // Enqueue bucket 2's compile, then immediately re-request bucket
        // 1 while that compile (and the eviction it triggers) races.
        manager.acquire(&engines, 2).expect("miss 2");
        let fresh = reg.get("mlp-small").unwrap();
        manager.acquire(&fresh, 1).expect("re-request mid-eviction");
        assert!(manager.wait_idle(Duration::from_secs(60)));

        // Either ordering needs one more round trip to converge: if the
        // re-request beat the swap it served the still-resident engine
        // (and bucket 1 was evicted after), if it lost it re-enqueued
        // bucket 1's compile (evicting bucket 2 in turn).
        manager
            .acquire(&reg.get("mlp-small").unwrap(), 1)
            .expect("settle");
        assert!(manager.wait_idle(Duration::from_secs(60)));

        let placed = manager
            .acquire(&reg.get("mlp-small").unwrap(), 1)
            .expect("tuned placement");
        assert!(
            !placed.fallback,
            "bucket 1 is tuned again after readmission"
        );
        assert_eq!(
            reg.get("mlp-small").unwrap().bucket_sizes(),
            vec![1],
            "exactly one engine stays resident under the 1-byte budget"
        );
        let snap = manager.snapshot();
        assert_eq!(snap.evictions, 2, "1 evicted by 2, then 2 evicted by 1");
        assert_eq!(snap.compiles_failed, 0);
        assert!(snap.failed_buckets.is_empty());
    }

    #[test]
    fn oversized_bucket_serves_fallback_and_tunes_the_right_one() {
        let reg = registry();
        let engines = reg.register_zoo("mlp-small", &[8]).expect("register");
        let manager = OnlineEngineManager::new(Arc::clone(&reg), OnlineConfig::default());

        let first = manager.acquire(&engines, 2).expect("padded placement");
        assert!(first.fallback, "padding 2 onto bucket 8 is a fallback");
        assert_eq!(first.bucket, 8);
        assert!(manager.wait_idle(Duration::from_secs(60)));
        assert_eq!(reg.get("mlp-small").unwrap().bucket_sizes(), vec![2, 8]);

        let fresh = reg.get("mlp-small").unwrap();
        let second = manager.acquire(&fresh, 2).expect("tuned placement");
        assert!(!second.fallback);
        assert_eq!(second.bucket, 2);
    }

    #[test]
    fn overflow_splits_and_tunes_missing_bucket() {
        let reg = registry();
        let engines = reg.register_zoo("mlp-small", &[2]).expect("register");
        let manager = OnlineEngineManager::new(Arc::clone(&reg), OnlineConfig::default());
        let placed = manager.acquire(&engines, 5).expect("split placement");
        assert!(placed.fallback);
        assert_eq!(placed.bucket, 2);
        assert_eq!(placed.launches, 3, "ceil(5/2) launches");
        assert!(manager.wait_idle(Duration::from_secs(60)));
        assert_eq!(
            reg.get("mlp-small").unwrap().bucket_sizes(),
            vec![2, 8],
            "the quantized bucket for batch 5 is 8"
        );
    }
}
