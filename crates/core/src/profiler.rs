//! The light-weight hardware-native performance profiler (Section 3.2.2).
//!
//! Unlike a traditional auto-tuner, the profiler does not learn a cost
//! model: the [`ConfigGenerator`] already encodes per-architecture tuning
//! guidelines, producing tens of candidate template instantiations per
//! workload; the profiler measures them and keeps the best. Sample
//! programs are generated once per architecture and reused across models
//! and workloads, so per-model tuning is minutes (Figure 10b).
//!
//! Two engine-level optimizations keep measurement cost down:
//!
//! * **Candidate pruning** — before measuring a candidate, an analytic
//!   lower bound ([`bolt_cutlass::perf::CandidateBound`]) is compared
//!   against the best time so far; candidates that provably cannot win
//!   are skipped *before* their simulator setup (the [`KernelProfile`]) is
//!   even built. The bound is admissible (never exceeds the measured
//!   time), so the selected winner is bit-identical to exhaustive search.
//! * **Measure once, on the caller's thread** — a measurement is
//!   arithmetic on validated configs, about ten microseconds per
//!   workload, so a compile measures each workload inline the first time
//!   lowering meets it and never pays for spawning threads. The profiler can still
//!   be shared across threads (the server, the online tuner): each
//!   unique workload is measured exactly once even under contention,
//!   because its cache slot is a [`OnceLock`] that the first arriving
//!   thread initializes while later threads wait and reuse the result.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use bolt_cutlass::{ConfigGenerator, Conv2dConfig, Epilogue, GemmConfig, GemmProblem};
use bolt_gpu_sim::{simulate_kernel, GpuArch, KernelProfile};
use bolt_tensor::conv_ref::Conv2dProblem;
use bolt_tensor::DType;

/// Simulated wall-clock seconds per profiled candidate: buffer allocation,
/// warm-up, and a 100-iteration timed run of the pre-generated sample
/// program with the workload's concrete inputs.
pub const SECONDS_PER_PROFILE: f64 = 1.2;

/// One-time cost of generating and compiling the per-architecture sample
/// programs. Reused across models and workloads (the paper's key to
/// minute-scale tuning), charged once per process — and only if at least
/// one measurement actually ran (a fully cache-warm session never touches
/// the sample programs).
pub const TEMPLATE_GENERATION_SECONDS: f64 = 120.0;

/// A profiled kernel choice.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProfiledKernel {
    /// The winning template configuration.
    pub config: GemmConfig,
    /// Its simulated kernel time in microseconds.
    pub time_us: f64,
    /// How many candidates were enumerated for this workload (measured
    /// plus pruned).
    pub candidates: usize,
}

/// Cumulative profiling cost accounting (Figure 10b's Bolt tuning time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfilerStats {
    /// Unique workloads profiled.
    pub workloads: usize,
    /// Candidate measurements performed.
    pub measurements: usize,
    /// Candidates skipped because their analytic lower bound already
    /// exceeded the best measured time.
    pub pruned: usize,
    /// Cache hits (workload already profiled).
    pub cache_hits: usize,
}

impl ProfilerStats {
    /// Simulated tuning wall-clock in seconds. The one-time template
    /// generation is charged only when at least one measurement ran;
    /// a fully cache-warm compile costs zero tuning time.
    pub fn tuning_seconds(&self) -> f64 {
        if self.measurements == 0 {
            return 0.0;
        }
        TEMPLATE_GENERATION_SECONDS + self.measurements as f64 * SECONDS_PER_PROFILE
    }

    /// Tuning wall-clock in minutes.
    pub fn tuning_minutes(&self) -> f64 {
        self.tuning_seconds() / 60.0
    }
}

/// One profiling request: a unique (workload, epilogue, dtype) tuple.
///
/// [`crate::BoltCompiler::profile_tasks`] lists a graph's tasks so that
/// [`BoltProfiler::profile_batch`] can warm a cache ahead of a compile,
/// or time the profiler on its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfileTask {
    /// Profile a GEMM workload.
    Gemm {
        /// Problem shape and element type.
        problem: GemmProblem,
        /// Fused epilogue.
        epilogue: Epilogue,
    },
    /// Profile a Conv2D workload.
    Conv2d {
        /// Problem geometry.
        problem: Conv2dProblem,
        /// Fused epilogue.
        epilogue: Epilogue,
        /// Element type of activations and filters.
        element: DType,
    },
}

impl ProfileTask {
    pub(crate) fn key(&self) -> Key {
        match self {
            ProfileTask::Gemm { problem, epilogue } => Key::Gemm(*problem, epilogue.into()),
            ProfileTask::Conv2d {
                problem,
                epilogue,
                element,
            } => Key::Conv(*problem, epilogue.into(), *element),
        }
    }
}

/// Cache key. `Conv` carries the element [`DType`] explicitly: the
/// [`Conv2dProblem`] geometry alone does not determine the kernel (FP16
/// and BF16 instantiations of the same geometry tune differently), so
/// omitting it would collide their cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    Gemm(GemmProblem, Epilogue2),
    Conv(Conv2dProblem, Epilogue2, DType),
}

/// Hashable epilogue summary (f32 fields bit-cast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Epilogue2 {
    pub(crate) activation: bolt_tensor::Activation,
    pub(crate) bias: bolt_cutlass::BiasMode,
    pub(crate) alpha: u32,
    pub(crate) beta: u32,
    pub(crate) reduction: bool,
}

impl From<&Epilogue> for Epilogue2 {
    fn from(ep: &Epilogue) -> Self {
        Epilogue2 {
            activation: ep.activation,
            bias: ep.bias,
            alpha: ep.alpha.to_bits(),
            beta: ep.beta.to_bits(),
            reduction: ep.column_reduction,
        }
    }
}

/// Per-key cache slot. The [`OnceLock`] guarantees a single measurement
/// per workload even when many threads request it concurrently: exactly
/// one thread runs the initializer, the rest block and read the result.
type Slot = Arc<OnceLock<Option<ProfiledKernel>>>;

/// The profiler: candidate enumeration + pruning + measurement + caching.
#[derive(Debug)]
pub struct BoltProfiler {
    arch: GpuArch,
    generator: ConfigGenerator,
    pruning: bool,
    /// Heuristic mode: resolve every workload with the generator's first
    /// (default) candidate instead of searching, charging no tuning time.
    heuristic: bool,
    slots: Mutex<HashMap<Key, Slot>>,
    stats: Mutex<ProfilerStats>,
}

impl BoltProfiler {
    /// Creates a profiler measuring up to `candidates` configs per
    /// workload, with analytic candidate pruning enabled.
    pub fn new(arch: &GpuArch, candidates: usize) -> Self {
        let mut generator = ConfigGenerator::new(arch);
        generator.max_candidates = candidates;
        BoltProfiler {
            arch: arch.clone(),
            generator,
            pruning: true,
            heuristic: false,
            slots: Mutex::new(HashMap::new()),
            stats: Mutex::new(ProfilerStats::default()),
        }
    }

    /// Creates a profiler in **heuristic mode**: every workload resolves
    /// to the generator's first legal candidate — the per-architecture
    /// default the tuning guidelines would start from — priced on the
    /// simulator but never searched. No measurements are recorded and
    /// [`ProfilerStats::tuning_seconds`] stays zero, which is what makes
    /// it usable as an immediate fallback while a real profiled compile
    /// runs in the background.
    pub fn heuristic(arch: &GpuArch) -> Self {
        BoltProfiler {
            heuristic: true,
            ..Self::new(arch, 1)
        }
    }

    /// Enables or disables analytic candidate pruning. Pruning never
    /// changes which config wins (the bound is admissible); disabling it
    /// is useful for exhaustive-baseline comparisons.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.pruning = enabled;
    }

    /// The architecture this profiler measures on.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Profiling statistics so far.
    pub fn stats(&self) -> ProfilerStats {
        *self.stats.lock()
    }

    /// Resolves a task through the cache, measuring on first sight.
    ///
    /// Concurrent calls with the same key are coalesced: one thread
    /// measures, the others count a cache hit and reuse its result.
    pub fn profile_task(&self, task: &ProfileTask) -> Option<ProfiledKernel> {
        let mut delta = ProfilerStats::default();
        let result = self.profile_task_with(task, &mut delta);
        self.merge_stats(&delta);
        result
    }

    /// [`BoltProfiler::profile_task`] accumulating stats into a local
    /// delta instead of the shared lock — the batched path merges one
    /// delta at the end.
    fn profile_task_with(
        &self,
        task: &ProfileTask,
        delta: &mut ProfilerStats,
    ) -> Option<ProfiledKernel> {
        let slot = self.slots.lock().entry(task.key()).or_default().clone();
        let mut ran = false;
        let result = *slot.get_or_init(|| {
            ran = true;
            self.measure(task, delta)
        });
        if !ran {
            delta.cache_hits += 1;
        }
        result
    }

    fn merge_stats(&self, delta: &ProfilerStats) {
        if *delta == ProfilerStats::default() {
            return;
        }
        let mut stats = self.stats.lock();
        stats.workloads += delta.workloads;
        stats.measurements += delta.measurements;
        stats.pruned += delta.pruned;
        stats.cache_hits += delta.cache_hits;
    }

    /// Finds the best template for a GEMM workload (cached).
    pub fn profile_gemm(
        &self,
        problem: &GemmProblem,
        epilogue: &Epilogue,
    ) -> Option<ProfiledKernel> {
        self.profile_task(&ProfileTask::Gemm {
            problem: *problem,
            epilogue: *epilogue,
        })
    }

    /// Finds the best template for a Conv2D workload (cached).
    pub fn profile_conv2d(
        &self,
        problem: &Conv2dProblem,
        epilogue: &Epilogue,
        element: DType,
    ) -> Option<ProfiledKernel> {
        self.profile_task(&ProfileTask::Conv2d {
            problem: *problem,
            epilogue: *epilogue,
            element,
        })
    }

    /// Profiles a batch of tasks on the calling thread.
    ///
    /// Tasks are deduplicated by cache key and already-resolved workloads
    /// are filtered out first, so a warm cache makes this a no-op. The
    /// remaining workloads are measured in batch order, candidates within
    /// each in generator order, exactly as [`BoltCompiler::compile`]
    /// would meet them, and the stats are merged once.
    ///
    /// [`BoltCompiler::compile`]: crate::BoltCompiler::compile
    pub fn profile_batch(&self, tasks: &[ProfileTask]) {
        let pending: Vec<ProfileTask> = {
            let slots = self.slots.lock();
            let mut seen = std::collections::HashSet::new();
            tasks
                .iter()
                .filter(|t| seen.insert(t.key()))
                .filter(|t| slots.get(&t.key()).is_none_or(|s| s.get().is_none()))
                .copied()
                .collect()
        };
        let mut delta = ProfilerStats::default();
        for task in &pending {
            self.profile_task_with(task, &mut delta);
        }
        self.merge_stats(&delta);
    }

    /// Measures every non-pruned candidate of a task and returns the best.
    fn measure(&self, task: &ProfileTask, delta: &mut ProfilerStats) -> Option<ProfiledKernel> {
        // Chaos: a measurement may stall (slow device, contended stream).
        crate::faults::stall(crate::faults::FaultSite::Profile);
        match task {
            ProfileTask::Gemm { problem, epilogue } => {
                let bound = bolt_cutlass::perf::CandidateBound::gemm(&self.arch, problem, epilogue);
                self.search(
                    self.generator.gemm_candidate_seeds(problem),
                    |config| {
                        bolt_cutlass::perf::gemm_profile(&self.arch, problem, config, epilogue)
                    },
                    |seed| bound.lower_bound_us(&self.arch, seed),
                    delta,
                )
            }
            ProfileTask::Conv2d {
                problem,
                epilogue,
                element,
            } => {
                let bound = bolt_cutlass::perf::CandidateBound::conv2d(
                    &self.arch, problem, epilogue, *element,
                );
                self.search(
                    self.generator.conv2d_candidate_seeds(problem, *element),
                    |config| {
                        bolt_cutlass::perf::conv2d_profile(
                            &self.arch, problem, config, epilogue, *element,
                        )
                    },
                    |seed| bound.lower_bound_us(&self.arch, seed),
                    delta,
                )
            }
        }
    }

    /// The candidate loop, visited in generator order (best heuristic
    /// score first, so a near-best time is established within the first
    /// few measurements).
    ///
    /// Every candidate's admissible
    /// [`bolt_cutlass::perf::CandidateBound`] is evaluated up front —
    /// without building the candidate's simulator setup (its
    /// [`KernelProfile`]) — and the candidate with the *lowest* bound is
    /// measured first to seed the incumbent. Because the bound never
    /// exceeds a candidate's simulated time, the true winner's bound is at
    /// most the global minimum simulated time, so the seed is within one
    /// measurement of optimal and the subsequent in-order pass prunes
    /// nearly everything: a candidate whose bound exceeds the incumbent's
    /// time provably cannot beat it. Candidates that survive the bound are
    /// measured, and the incumbent is replaced only by a strictly better
    /// time or by an equal time at a lower generator index — exactly the
    /// tie-break exhaustive search applies — so the selected winner is
    /// bit-identical to exhaustive search.
    ///
    /// With pruning off every bound is `-inf`: the seed is candidate 0,
    /// nothing is pruned, and the loop is the in-order exhaustive scan.
    fn search(
        &self,
        candidates: Vec<bolt_cutlass::CandidateSeed>,
        profile_of: impl Fn(&GemmConfig) -> KernelProfile,
        bound_of: impl Fn(&bolt_cutlass::CandidateSeed) -> f64,
        delta: &mut ProfilerStats,
    ) -> Option<ProfiledKernel> {
        if self.heuristic {
            // Default-config shortcut: price the first legal candidate on
            // the simulator and return it untuned. Deliberately not
            // recorded in the stats — nothing was searched, so heuristic
            // compiles must report zero tuning time.
            return candidates.first().map(|seed| ProfiledKernel {
                config: seed.config,
                time_us: simulate_kernel(&self.arch, &profile_of(&seed.config)).total_us,
                candidates: candidates.len(),
            });
        }
        let bounds: Vec<f64> = if self.pruning {
            candidates.iter().map(&bound_of).collect()
        } else {
            vec![f64::NEG_INFINITY; candidates.len()]
        };
        // Seed with the argmin-bound candidate (earliest on ties).
        let seed = bounds
            .iter()
            .enumerate()
            .reduce(|min, x| if x.1 < min.1 { x } else { min })
            .map(|(i, _)| i);
        let mut best: Option<(usize, f64)> = None;
        if let Some(seed) = seed {
            let t = simulate_kernel(&self.arch, &profile_of(&candidates[seed].config)).total_us;
            delta.measurements += 1;
            best = Some((seed, t));
        }
        for (i, bound) in bounds.iter().enumerate() {
            let (best_i, best_us) = best.expect("seeded above");
            if Some(i) == seed {
                continue;
            }
            if *bound > best_us {
                delta.pruned += 1;
                continue;
            }
            let t = simulate_kernel(&self.arch, &profile_of(&candidates[i].config)).total_us;
            delta.measurements += 1;
            // The seed may sit at a higher index than `i`, so an exact
            // tie must fall to the lower index to match the in-order
            // exhaustive scan.
            if t < best_us || (t == best_us && i < best_i) {
                best = Some((i, t));
            }
        }
        delta.workloads += 1;
        best.map(|(i, time_us)| ProfiledKernel {
            config: candidates[i].config,
            time_us,
            candidates: candidates.len(),
        })
    }

    /// Snapshot of every resolved cache entry.
    pub(crate) fn entries(&self) -> Vec<(Key, ProfiledKernel)> {
        self.slots
            .lock()
            .iter()
            .filter_map(|(k, slot)| slot.get().and_then(|v| *v).map(|v| (*k, v)))
            .collect()
    }

    /// Seeds the cache with an externally-persisted entry. Entries that
    /// are already resolved (e.g. measured earlier in this process) win
    /// over the loaded value.
    pub(crate) fn insert_entry(&self, key: Key, value: ProfiledKernel) {
        let slot = self.slots.lock().entry(key).or_default().clone();
        let _ = slot.set(Some(value));
    }

    /// Persists the tuning cache to `path` as this architecture's shard
    /// of a tune bundle ([`crate::cache`]), keeping the other
    /// architectures' shards of a valid bundle already there. Persisting
    /// and re-loading the cache across processes is what makes Bolt's
    /// sample programs "reusable across models and workloads" (Section
    /// 3.2.2) — a new compilation session starts with every
    /// previously-profiled workload already resolved.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be written.
    pub fn save_cache(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::cache::save(self, path)
    }

    /// Loads this architecture's shard of a tune file (a cache written by
    /// [`BoltProfiler::save_cache`] or a packed bundle), merging it into
    /// this profiler's cache. Returns the number of entries loaded; a
    /// file of another format version, or with no shard for this
    /// architecture, is skipped and left in place. A structurally
    /// corrupt file — torn write, checksum mismatch, undecodable entry —
    /// is quarantined to `<name>.corrupt` and treated as empty, so a
    /// warm start survives corruption and the next save rebuilds the
    /// cache.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be read (corruption is
    /// quarantined, not propagated).
    pub fn load_cache(&self, path: &std::path::Path) -> std::io::Result<usize> {
        crate::cache::load(self, path)
    }

    /// Exports every resolved entry as a portable
    /// [`TuneShard`](crate::cache::TuneShard) — the
    /// unit `bolt-tune` packs into multi-arch bundles.
    pub fn export_shard(&self) -> crate::cache::TuneShard {
        crate::cache::TuneShard::from_profiler(self)
    }

    /// Strictly loads the shard matching this profiler's architecture
    /// from a tune bundle ([`crate::cache::TuneBundle`]). This is the
    /// fleet warm-boot path: one shipped bundle serves every replica,
    /// each picking its own arch's shard, so a fresh replica of *any*
    /// architecture boots with zero measurements — and therefore zero
    /// tuning seconds. Entries already resolved in this process win over
    /// the shard's.
    ///
    /// # Errors
    ///
    /// [`crate::BoltError::CacheLoad`] for I/O or validation failures,
    /// [`crate::BoltError::CacheArchMismatch`] when the bundle holds no
    /// shard for this architecture (the error lists what it does hold) —
    /// strict by design: loading a V100 shard into a T4 profiler is a
    /// fleet misconfiguration, not an ignorable cache miss.
    pub fn load_bundle(&self, path: &std::path::Path) -> crate::Result<usize> {
        let bundle =
            crate::cache::TuneBundle::read(path).map_err(|e| crate::BoltError::CacheLoad {
                path: path.display().to_string(),
                reason: e.to_string(),
            })?;
        let want = crate::cache::arch_fingerprint(&self.arch);
        let Some(shard) = bundle.shard_for(want) else {
            let found = if bundle.shards().is_empty() {
                "no shards".to_string()
            } else {
                bundle
                    .shards()
                    .iter()
                    .map(crate::cache::TuneShard::describe)
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            return Err(crate::BoltError::CacheArchMismatch {
                path: path.display().to_string(),
                expected: format!("{} ({want:016x})", self.arch.name),
                found,
            });
        };
        for (key, kernel) in shard.entries() {
            self.insert_entry(*key, *kernel);
        }
        Ok(shard.len())
    }

    /// The best conv config wrapped as a [`Conv2dConfig`].
    pub fn best_conv_config(
        &self,
        problem: &Conv2dProblem,
        epilogue: &Epilogue,
        element: DType,
    ) -> Option<Conv2dConfig> {
        self.profile_conv2d(problem, epilogue, element)
            .map(|p| Conv2dConfig { gemm: p.config })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_tensor::Activation;

    fn profiler() -> BoltProfiler {
        BoltProfiler::new(&GpuArch::tesla_t4(), 30)
    }

    #[test]
    fn profiles_tens_of_candidates_and_caches() {
        let p = profiler();
        let problem = GemmProblem::fp16(1280, 3072, 768);
        let ep = Epilogue::linear(DType::F16);
        let first = p.profile_gemm(&problem, &ep).unwrap();
        assert!(first.candidates >= 10 && first.candidates <= 30);
        let stats = p.stats();
        assert_eq!(stats.workloads, 1);
        assert_eq!(
            stats.measurements + stats.pruned,
            first.candidates,
            "every enumerated candidate is either measured or provably pruned"
        );

        let again = p.profile_gemm(&problem, &ep).unwrap();
        assert_eq!(again, first);
        assert_eq!(p.stats().cache_hits, 1);
        assert_eq!(
            p.stats().measurements,
            stats.measurements,
            "no re-measurement"
        );
    }

    #[test]
    fn pruning_skips_measurements_without_changing_the_winner() {
        let exhaustive = profiler();
        let mut no_prune = profiler();
        no_prune.set_pruning(false);

        let problems = [
            GemmProblem::fp16(1280, 3072, 768),
            GemmProblem::fp16(4096, 4096, 4096),
            GemmProblem::fp16(128, 768, 3072),
        ];
        let ep = Epilogue::linear(DType::F16);
        for problem in &problems {
            let pruned = exhaustive.profile_gemm(problem, &ep).unwrap();
            let full = no_prune.profile_gemm(problem, &ep).unwrap();
            assert_eq!(pruned, full, "pruning must not change the selected winner");
        }
        assert!(
            exhaustive.stats().pruned > 0,
            "pruning should fire on real workloads"
        );
        assert!(
            exhaustive.stats().measurements < no_prune.stats().measurements,
            "pruning must save measurements"
        );
        assert_eq!(no_prune.stats().pruned, 0);
    }

    #[test]
    fn profiled_best_is_at_least_as_good_as_default() {
        let p = profiler();
        let arch = GpuArch::tesla_t4();
        let problem = GemmProblem::fp16(4096, 4096, 4096);
        let ep = Epilogue::linear(DType::F16);
        let best = p.profile_gemm(&problem, &ep).unwrap();
        let default_profile =
            bolt_cutlass::perf::gemm_profile(&arch, &problem, &GemmConfig::turing_default(), &ep);
        let default_t = simulate_kernel(&arch, &default_profile).total_us;
        assert!(best.time_us <= default_t * 1.0001);
        // The search and the plan price the winner through one function.
        let planned = bolt_cutlass::GemmKernel::new(problem, best.config, ep).time(&arch);
        assert_eq!(best.time_us.to_bits(), planned.total_us.to_bits());
    }

    #[test]
    fn tuning_time_is_minutes_not_hours() {
        let p = profiler();
        let ep = Epilogue::bias_activation(Activation::ReLU, DType::F16);
        // Profile a ResNet-50-sized workload set (~25 unique tasks).
        for i in 0..25 {
            let problem = Conv2dProblem::new(32, 56, 56, 64 + i % 3, 64, 3, 3, (1, 1), (1, 1));
            p.profile_conv2d(&problem, &ep, DType::F16).unwrap();
        }
        let minutes = p.stats().tuning_minutes();
        assert!(
            minutes < 20.0,
            "Bolt must tune within 20 minutes, got {minutes:.1}"
        );
        assert!(
            minutes > 2.0,
            "tuning should not be implausibly free: {minutes:.1}"
        );
    }

    #[test]
    fn warm_profiler_charges_no_tuning_time() {
        let stats = ProfilerStats {
            workloads: 5,
            measurements: 0,
            pruned: 0,
            cache_hits: 5,
        };
        assert_eq!(
            stats.tuning_seconds(),
            0.0,
            "cache-warm sessions never compile templates"
        );
    }

    #[test]
    fn different_epilogues_profile_separately() {
        let p = profiler();
        let problem = GemmProblem::fp16(1280, 768, 768);
        p.profile_gemm(&problem, &Epilogue::linear(DType::F16))
            .unwrap();
        p.profile_gemm(
            &problem,
            &Epilogue::bias_activation(Activation::Gelu, DType::F16),
        )
        .unwrap();
        assert_eq!(p.stats().workloads, 2);
        assert_eq!(p.stats().cache_hits, 0);
    }

    #[test]
    fn conv_cache_distinguishes_element_dtypes() {
        // Regression test: the conv cache key once omitted the element
        // dtype, so an FP16 and a BF16 instantiation of the same geometry
        // collided — the second lookup returned the first's config.
        let p = profiler();
        let problem = Conv2dProblem::new(32, 56, 56, 64, 64, 3, 3, (1, 1), (1, 1));
        let ep = Epilogue::linear(DType::F16);
        p.profile_conv2d(&problem, &ep, DType::F16).unwrap();
        p.profile_conv2d(&problem, &ep, DType::Bf16).unwrap();
        let stats = p.stats();
        assert_eq!(
            stats.workloads, 2,
            "distinct dtypes must profile separately"
        );
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn batch_profiles_each_unique_workload_once() {
        let p = profiler();
        let ep = Epilogue::linear(DType::F16);
        let gemm = ProfileTask::Gemm {
            problem: GemmProblem::fp16(1280, 3072, 768),
            epilogue: ep,
        };
        let conv = ProfileTask::Conv2d {
            problem: Conv2dProblem::new(32, 56, 56, 64, 64, 3, 3, (1, 1), (1, 1)),
            epilogue: ep,
            element: DType::F16,
        };
        // Duplicates in the batch are deduplicated before measuring.
        p.profile_batch(&[gemm, conv, gemm, conv, gemm]);
        let stats = p.stats();
        assert_eq!(stats.workloads, 2);
        assert_eq!(
            stats.cache_hits, 0,
            "duplicates are filtered, not re-resolved"
        );

        // A second batch over the same tasks is a no-op.
        p.profile_batch(&[gemm, conv]);
        assert_eq!(p.stats(), stats);

        // And direct lookups now hit the warm cache.
        match gemm {
            ProfileTask::Gemm { problem, epilogue } => {
                p.profile_gemm(&problem, &epilogue).unwrap();
            }
            ProfileTask::Conv2d { .. } => unreachable!(),
        }
        assert_eq!(p.stats().cache_hits, 1);
        assert_eq!(p.stats().measurements, stats.measurements);
    }

    #[test]
    fn cache_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("bolt_profiler_cache_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cache.tune");

        let p1 = profiler();
        let problem = GemmProblem::fp16(1280, 3072, 768);
        let ep = Epilogue::linear(DType::F16);
        let best = p1.profile_gemm(&problem, &ep).unwrap();
        p1.save_cache(&path).unwrap();

        // A fresh profiler (new process) starts warm from the saved cache:
        // the lookup is a cache hit, no re-measurement.
        let p2 = profiler();
        assert_eq!(p2.load_cache(&path).unwrap(), 1);
        let warm = p2.profile_gemm(&problem, &ep).unwrap();
        assert_eq!(warm, best);
        assert_eq!(
            p2.stats().measurements,
            0,
            "no measurements after cache load"
        );
        assert_eq!(p2.stats().cache_hits, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn conv_profile_finds_config() {
        let p = profiler();
        let problem = Conv2dProblem::new(32, 20, 26, 46, 32, 3, 3, (1, 1), (1, 1));
        let ep = Epilogue::linear(DType::F16);
        let best = p.best_conv_config(&problem, &ep, DType::F16).unwrap();
        // Alignment must reflect the unaligned channel count.
        assert_eq!(best.gemm.alignment_a, 2);
        // The search and the plan price the winner through one function.
        let time_us = p.profile_conv2d(&problem, &ep, DType::F16).unwrap().time_us;
        let planned = bolt_cutlass::Conv2dKernel::new(problem, best, ep, DType::F16).time(p.arch());
        assert_eq!(time_us.to_bits(), planned.total_us.to_bits());
    }
}
