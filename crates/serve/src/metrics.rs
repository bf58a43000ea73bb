//! Serving metrics: counters, latency percentiles, batch-size histogram,
//! and per-kernel attribution from the execution plan's step observer.

use std::collections::{BTreeMap, VecDeque};

use bolt::StepTimings;
use parking_lot::Mutex;

use crate::online::OnlineSnapshot;

/// How many of the most recent completions feed the windowed
/// [`MetricsSnapshot::latency_recent_p99_us`] estimate. Cumulative
/// percentiles cannot move once thousands of samples accumulate; an
/// autoscaler needs a signal that tracks *current* load.
const RECENT_WINDOW: usize = 256;

/// Shared mutable metrics store (internal; readers take
/// [`MetricsSnapshot`]s).
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    submitted: u64,
    accepted: u64,
    completed: u64,
    rejected_unknown_model: u64,
    rejected_invalid_input: u64,
    rejected_queue_full: u64,
    rejected_shutting_down: u64,
    rejected_no_engine: u64,
    rejected_execution: u64,
    deadline_shed: u64,
    deadline_shed_dequeue: u64,
    worker_panics: u64,
    worker_restarts: u64,
    degraded: u64,
    batches: u64,
    batch_overflow: u64,
    /// Live gauge: requests sitting in scheduler queues right now.
    queue_depth: u64,
    /// Live gauge: requests inside formed batches (dispatched, not yet
    /// resolved).
    inflight: u64,
    latencies_us: Vec<f64>,
    /// Ring of the last [`RECENT_WINDOW`] completion latencies.
    recent_latencies_us: VecDeque<f64>,
    batch_sizes: BTreeMap<usize, u64>,
    /// Running sum of every batch's simulated throughput, added in
    /// batch order, and the number of batches it covers.
    images_per_sec_sum: f64,
    images_per_sec_count: u64,
    /// FLOPs spent on real request rows across every launch.
    real_flops: f64,
    /// FLOPs the launches actually issued (bucket-sized, pad rows
    /// included).
    launched_flops: f64,
    /// Step name → (launches, total simulated µs) across every batch.
    kernel_us: BTreeMap<String, (u64, f64)>,
}

impl Metrics {
    pub(crate) fn submitted(&self) {
        self.inner.lock().submitted += 1;
    }

    pub(crate) fn accepted(&self) {
        let mut inner = self.inner.lock();
        inner.accepted += 1;
        inner.queue_depth += 1;
    }

    /// Moves `n` requests from the queued gauge to the in-flight gauge:
    /// the batcher formed them into batches.
    pub(crate) fn dequeued(&self, n: usize) {
        let mut inner = self.inner.lock();
        debug_assert!(
            inner.queue_depth >= n as u64,
            "dequeued {n} of {}",
            inner.queue_depth
        );
        inner.queue_depth = inner.queue_depth.saturating_sub(n as u64);
        inner.inflight += n as u64;
    }

    /// Moves one request back from the in-flight gauge to the queued
    /// gauge: the KV governor preempted a live sequence (or bounced an
    /// admission) back into the queue for a later retry.
    pub(crate) fn requeued(&self) {
        let mut inner = self.inner.lock();
        debug_assert!(inner.inflight > 0, "requeued with nothing in flight");
        inner.inflight = inner.inflight.saturating_sub(1);
        inner.queue_depth += 1;
    }

    /// Cheap live load gauges, read without snapshotting the histograms.
    pub(crate) fn gauges(&self) -> LoadGauges {
        let inner = self.inner.lock();
        LoadGauges {
            queue_depth: inner.queue_depth,
            inflight: inner.inflight,
            accepted: inner.accepted,
            completed: inner.completed,
            recent_p99_us: recent_p99(&inner.recent_latencies_us),
        }
    }

    pub(crate) fn rejected_unknown_model(&self) {
        self.inner.lock().rejected_unknown_model += 1;
    }

    pub(crate) fn rejected_invalid_input(&self) {
        self.inner.lock().rejected_invalid_input += 1;
    }

    pub(crate) fn rejected_queue_full(&self) {
        self.inner.lock().rejected_queue_full += 1;
    }

    pub(crate) fn rejected_shutting_down(&self) {
        self.inner.lock().rejected_shutting_down += 1;
    }

    pub(crate) fn rejected_no_engine(&self) {
        self.inner.lock().rejected_no_engine += 1;
    }

    pub(crate) fn rejected_execution(&self) {
        let mut inner = self.inner.lock();
        inner.rejected_execution += 1;
        debug_assert!(
            inner.inflight > 0,
            "execution rejected with nothing in flight"
        );
        inner.inflight = inner.inflight.saturating_sub(1);
    }

    /// Records one batch that exceeded every compiled bucket and was
    /// explicitly split across repeated launches.
    pub(crate) fn batch_overflow(&self) {
        self.inner.lock().batch_overflow += 1;
    }

    pub(crate) fn deadline_shed(&self) {
        let mut inner = self.inner.lock();
        inner.deadline_shed += 1;
        // Shed at formation: the request left its queue without ever
        // becoming in-flight.
        debug_assert!(inner.queue_depth > 0, "shed with nothing queued");
        inner.queue_depth = inner.queue_depth.saturating_sub(1);
    }

    /// Records a request whose deadline had passed by the time a worker
    /// dequeued its batch (formation-time shedding missed it).
    pub(crate) fn deadline_shed_dequeue(&self) {
        let mut inner = self.inner.lock();
        inner.deadline_shed_dequeue += 1;
        debug_assert!(inner.inflight > 0, "shed at dequeue with nothing in flight");
        inner.inflight = inner.inflight.saturating_sub(1);
    }

    /// Records a panic isolated inside per-batch execution.
    pub(crate) fn worker_panic(&self) {
        self.inner.lock().worker_panics += 1;
    }

    /// Records a worker thread respawned by the supervisor.
    pub(crate) fn worker_restarted(&self) {
        self.inner.lock().worker_restarts += 1;
    }

    /// Records a request completed while its model's circuit breaker was
    /// open (degraded response).
    pub(crate) fn degraded(&self) {
        self.inner.lock().degraded += 1;
    }

    /// Records one launch's FLOP accounting: `real` FLOPs went to actual
    /// request rows, `launched` FLOPs were issued by the bucket-sized
    /// kernel (pad rows included). The running totals feed
    /// [`MetricsSnapshot::padding_fraction`]. Both the legacy
    /// pad-to-bucket batcher and the continuous batcher report here, so
    /// the two paths' padding waste is directly comparable.
    pub(crate) fn launch_flops(&self, real: f64, launched: f64) {
        debug_assert!(real <= launched + 1e-6, "{real} real > {launched} launched");
        let mut inner = self.inner.lock();
        inner.real_flops += real.max(0.0);
        inner.launched_flops += launched.max(0.0);
    }

    /// Records one dispatched batch: `size` real requests, achieved
    /// simulated throughput from `TimingReport::images_per_sec`.
    pub(crate) fn batch(&self, size: usize, images_per_sec: f64) {
        let mut inner = self.inner.lock();
        inner.batches += 1;
        *inner.batch_sizes.entry(size).or_insert(0) += 1;
        inner.images_per_sec_sum += images_per_sec;
        inner.images_per_sec_count += 1;
    }

    pub(crate) fn completed(&self, latency_us: f64) {
        let mut inner = self.inner.lock();
        inner.completed += 1;
        debug_assert!(inner.inflight > 0, "completed with nothing in flight");
        inner.inflight = inner.inflight.saturating_sub(1);
        inner.latencies_us.push(latency_us);
        if inner.recent_latencies_us.len() == RECENT_WINDOW {
            inner.recent_latencies_us.pop_front();
        }
        inner.recent_latencies_us.push_back(latency_us);
    }

    /// Folds one launch's per-step timings (from the plan's
    /// [`bolt::StepObserver`] hook) into the per-kernel totals, with each
    /// step's compute scaled by the launch's occupancy (`rows` live of
    /// `capacity`, all of it when `capacity` is 0) and its launch
    /// overhead kept whole: a partial launch still launches every
    /// kernel, but its zero-padded rows are not real work.
    pub(crate) fn kernel_times(&self, timings: &StepTimings, rows: usize, capacity: usize) {
        let frac = if capacity == 0 {
            1.0
        } else {
            (rows.min(capacity) as f64) / capacity as f64
        };
        let kernel_us = &mut self.inner.lock().kernel_us;
        for step in &timings.steps {
            let us = step.launch_us + (step.total_us - step.launch_us) * frac;
            if let Some((launches, total_us)) = kernel_us.get_mut(&step.name) {
                *launches += 1;
                *total_us += us;
            } else {
                kernel_us.insert(step.name.clone(), (1, us));
            }
        }
    }

    pub(crate) fn snapshot(
        &self,
        wall_elapsed_us: f64,
        model_workspace: Vec<(String, u64)>,
        online: Option<OnlineSnapshot>,
    ) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let mut sorted = inner.latencies_us.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let total_batched: u64 = inner
            .batch_sizes
            .iter()
            .map(|(size, count)| *size as u64 * count)
            .sum();
        let mean_batch = if inner.batches > 0 {
            total_batched as f64 / inner.batches as f64
        } else {
            0.0
        };
        let mean_images_per_sec = if inner.images_per_sec_count == 0 {
            0.0
        } else {
            inner.images_per_sec_sum / inner.images_per_sec_count as f64
        };
        let mut kernel_stats: Vec<KernelStat> = inner
            .kernel_us
            .iter()
            .map(|(name, &(launches, total_us))| KernelStat {
                name: name.clone(),
                launches,
                total_us,
                mean_us: total_us / launches.max(1) as f64,
            })
            .collect();
        kernel_stats.sort_by(|a, b| {
            b.total_us
                .partial_cmp(&a.total_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        MetricsSnapshot {
            queue_depth: inner.queue_depth,
            inflight: inner.inflight,
            submitted: inner.submitted,
            accepted: inner.accepted,
            completed: inner.completed,
            rejected: inner.rejected_unknown_model
                + inner.rejected_invalid_input
                + inner.rejected_queue_full
                + inner.rejected_shutting_down
                + inner.rejected_no_engine
                + inner.rejected_execution,
            rejected_unknown_model: inner.rejected_unknown_model,
            rejected_invalid_input: inner.rejected_invalid_input,
            rejected_queue_full: inner.rejected_queue_full,
            rejected_shutting_down: inner.rejected_shutting_down,
            rejected_no_engine: inner.rejected_no_engine,
            rejected_execution: inner.rejected_execution,
            deadline_shed: inner.deadline_shed,
            deadline_shed_dequeue: inner.deadline_shed_dequeue,
            worker_panics: inner.worker_panics,
            worker_restarts: inner.worker_restarts,
            degraded: inner.degraded,
            batches: inner.batches,
            batch_overflow: inner.batch_overflow,
            padding_fraction: if inner.launched_flops > 0.0 {
                ((inner.launched_flops - inner.real_flops) / inner.launched_flops).max(0.0)
            } else {
                0.0
            },
            real_flops: inner.real_flops,
            launched_flops: inner.launched_flops,
            mean_batch,
            batch_hist: inner
                .batch_sizes
                .iter()
                .map(|(&size, &count)| (size, count))
                .collect(),
            latency_mean_us: if sorted.is_empty() {
                0.0
            } else {
                sorted.iter().sum::<f64>() / sorted.len() as f64
            },
            latency_p50_us: percentile(&sorted, 0.50),
            latency_p95_us: percentile(&sorted, 0.95),
            latency_p99_us: percentile(&sorted, 0.99),
            latency_recent_p99_us: recent_p99(&inner.recent_latencies_us),
            latency_max_us: sorted.last().copied().unwrap_or(0.0),
            sim_images_per_sec: mean_images_per_sec,
            wall_elapsed_us,
            throughput_rps: if wall_elapsed_us > 0.0 {
                inner.completed as f64 / (wall_elapsed_us / 1e6)
            } else {
                0.0
            },
            kernel_stats,
            model_workspace,
            online,
            // Filled in by the continuous batcher after the generic
            // snapshot: only it owns a KV arena.
            kv_governor: None,
        }
    }
}

/// Point-in-time view of the KV memory governor: the paged block pool's
/// occupancy plus the admission/preemption counters that show how hard
/// the budget is squeezing the batcher.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KvGovernorSnapshot {
    /// Blocks currently attached to live sequences.
    pub kv_blocks_in_use: usize,
    /// Blocks currently available to admissions and decode growth
    /// (`budget - in_use - withheld`).
    pub kv_blocks_free: usize,
    /// The hard pool ceiling the governor enforces.
    pub kv_budget_blocks: usize,
    /// KV rows per block (the paging granularity).
    pub kv_block_rows: usize,
    /// Bytes of every materialized block, leased or pooled — what the
    /// arena actually holds resident on the accelerator.
    pub kv_resident_bytes: u64,
    /// Sequences evicted mid-decode to free blocks for others; each one
    /// re-queues and replays its tokens through prefill.
    pub preemptions: u64,
    /// Tokens recomputed by those replays (the recompute cost of
    /// preempt-and-recompute, in tokens).
    pub recompute_tokens: u64,
    /// Fresh tensor allocations the arena ever made; flat in steady
    /// state once the pool is warm.
    pub kv_fresh_allocations: u64,
    /// Chaos-injected memory-pressure episodes observed
    /// ([`bolt::FaultSite::KvPressure`]).
    pub kv_pressure_events: u64,
}

/// Aggregated simulated time of one kernel (step name) across every
/// dispatched batch, from the execution plan's per-step observer.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStat {
    /// The step's display name (e.g. `serve.fc0+bias+relu`).
    pub name: String,
    /// How many batches launched this kernel.
    pub launches: u64,
    /// Total simulated time across launches, µs.
    pub total_us: f64,
    /// Mean simulated time per launch, µs.
    pub mean_us: f64,
}

/// p99 over the bounded recent-completion window (unsorted ring).
fn recent_p99(ring: &VecDeque<f64>) -> f64 {
    if ring.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = ring.iter().copied().collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    percentile(&sorted, 0.99)
}

/// Instantaneous load gauges, readable without the full snapshot's
/// histogram work — what a cluster router polls on every placement
/// decision ([`crate::BoltServer::load`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadGauges {
    /// Requests sitting in scheduler queues right now.
    pub queue_depth: u64,
    /// Requests inside formed batches (dispatched, not yet resolved).
    pub inflight: u64,
    /// Cumulative accepted counter (monotonic).
    pub accepted: u64,
    /// Cumulative completed counter (monotonic).
    pub completed: u64,
    /// p99 latency over the last few hundred completions, µs — tracks
    /// *current* load where the cumulative p99 cannot move.
    pub recent_p99_us: f64,
}

impl LoadGauges {
    /// Requests the server has admitted but not yet resolved: the load
    /// a router should balance on.
    pub fn outstanding(&self) -> u64 {
        self.queue_depth + self.inflight
    }
}

/// Percentile over a **sorted** slice (nearest-rank); 0 when empty.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A consistent point-in-time view of the server's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Live gauge: requests sitting in scheduler queues at snapshot
    /// time. Returns to zero after a drain.
    pub queue_depth: u64,
    /// Live gauge: requests inside formed batches (dispatched to a
    /// worker, not yet resolved) at snapshot time. Returns to zero after
    /// a drain.
    pub inflight: u64,
    /// Submit attempts, including rejected ones.
    pub submitted: u64,
    /// Requests admitted to a queue (each resolves to exactly one
    /// terminal [`crate::Outcome`]).
    pub accepted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Total rejections, at admission (unknown model, invalid input,
    /// queue full, shutting down) plus post-admission execution failures.
    pub rejected: u64,
    /// Admission rejections: unknown model name.
    pub rejected_unknown_model: u64,
    /// Admission rejections: input shape/arity mismatch.
    pub rejected_invalid_input: u64,
    /// Admission rejections: bounded queue was full (backpressure).
    pub rejected_queue_full: u64,
    /// Admission rejections: server was draining.
    pub rejected_shutting_down: u64,
    /// Admission rejections: the model has no compiled engine and no
    /// online tuning path exists to create one.
    pub rejected_no_engine: u64,
    /// Accepted requests whose batch failed to execute.
    pub rejected_execution: u64,
    /// Accepted requests shed at batch formation because their deadline
    /// had already passed.
    pub deadline_shed: u64,
    /// Accepted requests shed at worker dequeue time: their deadline
    /// passed after batch formation, while the batch waited for a
    /// stream (e.g. behind a slow batch).
    pub deadline_shed_dequeue: u64,
    /// Panics isolated inside per-batch execution (every request of the
    /// affected batch resolves [`crate::Outcome::Rejected`]).
    pub worker_panics: u64,
    /// Worker threads respawned by the supervisor after a panic escaped
    /// the batch loop; the pool never shrinks.
    pub worker_restarts: u64,
    /// Requests completed while their model's circuit breaker was open
    /// (`degraded: true` in the response).
    pub degraded: u64,
    /// Batches dispatched to workers.
    pub batches: u64,
    /// Batches that exceeded every compiled bucket and were explicitly
    /// split across repeated launches of the largest bucket.
    pub batch_overflow: u64,
    /// Fraction of launched FLOPs wasted on pad rows: batches run on
    /// bucket-sized kernels, and every row past the real batch (or, for
    /// the continuous LLM batcher, past the live sequences) is padding.
    /// `(launched - real) / launched` over all launches; 0 before any
    /// launch.
    pub padding_fraction: f64,
    /// Cumulative useful FLOPs across all launches (real rows only).
    pub real_flops: f64,
    /// Cumulative launched FLOPs across all launches (bucket-sized).
    pub launched_flops: f64,
    /// Mean real requests per dispatched batch.
    pub mean_batch: f64,
    /// `(batch_size, count)` pairs, ascending by size.
    pub batch_hist: Vec<(usize, u64)>,
    /// Mean end-to-end latency, µs.
    pub latency_mean_us: f64,
    /// Median end-to-end latency, µs.
    pub latency_p50_us: f64,
    /// 95th-percentile latency, µs.
    pub latency_p95_us: f64,
    /// 99th-percentile latency, µs.
    pub latency_p99_us: f64,
    /// p99 latency over the most recent completions only (bounded
    /// window) — the autoscaler's signal, since the cumulative p99
    /// barely moves once enough history accumulates.
    pub latency_recent_p99_us: f64,
    /// Worst observed latency, µs.
    pub latency_max_us: f64,
    /// Mean per-batch simulated throughput
    /// (`TimingReport::images_per_sec` over real batch size).
    pub sim_images_per_sec: f64,
    /// Wall-clock time the snapshot covers, µs.
    pub wall_elapsed_us: f64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Per-kernel simulated time attribution, descending by total time —
    /// where batches actually spend their latency.
    pub kernel_stats: Vec<KernelStat>,
    /// `(model, workspace_bytes)` per registered model: the peak
    /// intermediate memory its largest bucket's plan needs.
    pub model_workspace: Vec<(String, u64)>,
    /// Online tuning counters, when the server runs with
    /// [`crate::OnlineConfig`] set.
    pub online: Option<OnlineSnapshot>,
    /// KV memory-governor gauges, when the snapshot comes from the
    /// continuous LLM batcher (`None` for the request/response paths,
    /// which hold no KV state).
    pub kv_governor: Option<KvGovernorSnapshot>,
}

impl MetricsSnapshot {
    /// Requests with a terminal outcome: completed + shed (at formation
    /// or dequeue) + execution failures. Equals
    /// [`MetricsSnapshot::accepted`] once the server has drained.
    pub fn resolved(&self) -> u64 {
        self.completed + self.deadline_shed + self.deadline_shed_dequeue + self.rejected_execution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn snapshot_aggregates_batches_and_latencies() {
        let m = Metrics::default();
        for _ in 0..3 {
            m.submitted();
            m.accepted();
        }
        m.dequeued(3);
        m.batch(2, 1000.0);
        m.batch(1, 500.0);
        m.completed(10.0);
        m.completed(20.0);
        m.completed(30.0);
        let s = m.snapshot(1e6, vec![("mlp-small".into(), 4096)], None);
        assert_eq!(s.accepted, 3);
        assert_eq!(s.completed, 3);
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch - 1.5).abs() < 1e-9);
        assert_eq!(s.batch_hist, vec![(1, 1), (2, 1)]);
        assert_eq!(s.latency_p50_us, 20.0);
        assert_eq!(s.latency_max_us, 30.0);
        assert!((s.throughput_rps - 3.0).abs() < 1e-9);
        assert_eq!(s.resolved(), 3);
        assert_eq!(s.model_workspace, vec![("mlp-small".to_string(), 4096)]);
        assert_eq!(s.sim_images_per_sec, 750.0);
    }

    #[test]
    fn gauges_track_queue_and_inflight_lifecycle() {
        let m = Metrics::default();
        for _ in 0..4 {
            m.submitted();
            m.accepted();
        }
        let g = m.gauges();
        assert_eq!((g.queue_depth, g.inflight), (4, 0));
        assert_eq!(g.outstanding(), 4);

        // One request shed while still queued.
        m.deadline_shed();
        // The other three form a batch.
        m.dequeued(3);
        let g = m.gauges();
        assert_eq!((g.queue_depth, g.inflight), (0, 3));

        // One shed at dequeue, one completes, one fails in execution.
        m.deadline_shed_dequeue();
        m.completed(42.0);
        m.rejected_execution();
        let g = m.gauges();
        assert_eq!((g.queue_depth, g.inflight), (0, 0));
        assert_eq!(g.outstanding(), 0);
        assert_eq!(g.recent_p99_us, 42.0);

        let s = m.snapshot(1e6, vec![], None);
        assert_eq!((s.queue_depth, s.inflight), (0, 0));
        assert_eq!(s.latency_recent_p99_us, 42.0);
        assert_eq!(s.resolved(), s.accepted);
    }

    #[test]
    fn recent_p99_windows_out_old_latencies() {
        let m = Metrics::default();
        // Fill the window with slow completions, then overwrite it with
        // fast ones: the cumulative p99 stays slow, the recent p99 drops.
        for _ in 0..RECENT_WINDOW {
            m.accepted();
            m.dequeued(1);
            m.completed(10_000.0);
        }
        for _ in 0..RECENT_WINDOW {
            m.accepted();
            m.dequeued(1);
            m.completed(10.0);
        }
        let s = m.snapshot(1e6, vec![], None);
        assert_eq!(s.latency_recent_p99_us, 10.0);
        assert_eq!(s.latency_p99_us, 10_000.0);
    }

    #[test]
    fn padding_fraction_weights_pad_rows_by_flops() {
        let m = Metrics::default();
        let s = m.snapshot(1e6, vec![], None);
        assert_eq!(s.padding_fraction, 0.0, "no launches, no padding");

        // 3 real rows on a bucket of 4, then a full bucket of 4: 8 rows
        // launched for 7 real. With 100 FLOPs/row: 100 of 800 wasted.
        m.launch_flops(300.0, 400.0);
        m.launch_flops(400.0, 400.0);
        let s = m.snapshot(1e6, vec![], None);
        assert!((s.padding_fraction - 100.0 / 800.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_times_aggregate_across_batches() {
        use bolt::StepTiming;
        let m = Metrics::default();
        let timings = StepTimings {
            steps: vec![
                StepTiming {
                    index: 0,
                    name: "fc0".into(),
                    total_us: 10.0,
                    launch_us: 1.0,
                },
                StepTiming {
                    index: 1,
                    name: "fc1".into(),
                    total_us: 30.0,
                    launch_us: 1.0,
                },
            ],
        };
        m.kernel_times(&timings, 4, 4);
        m.kernel_times(&timings, 4, 4);
        let s = m.snapshot(1e6, vec![], None);
        assert_eq!(s.kernel_stats.len(), 2);
        // Descending by total time.
        assert_eq!(s.kernel_stats[0].name, "fc1");
        assert_eq!(s.kernel_stats[0].launches, 2);
        assert!((s.kernel_stats[0].total_us - 60.0).abs() < 1e-9);
        assert!((s.kernel_stats[0].mean_us - 30.0).abs() < 1e-9);

        // A partial launch (3 live rows of 7) keeps each step's launch
        // overhead whole and scales its compute by occupancy, evaluated
        // as `launch + (total - launch) * (rows / capacity)`: bit for bit
        // on its own, and added after the two full launches.
        let partial = Metrics::default();
        partial.kernel_times(&timings, 3, 7);
        m.kernel_times(&timings, 3, 7);
        let (one, all) = (
            partial.snapshot(1e6, vec![], None),
            m.snapshot(1e6, vec![], None),
        );
        for step in &timings.steps {
            let scaled = step.launch_us + (step.total_us - step.launch_us) * (3.0 / 7.0);
            let find = |s: &MetricsSnapshot| {
                let stat = s.kernel_stats.iter().find(|k| k.name == step.name);
                let stat = stat.expect("step attributed");
                (stat.launches, stat.total_us.to_bits())
            };
            assert_eq!(find(&one), (1, scaled.to_bits()), "{}", step.name);
            assert_eq!(
                find(&all),
                (3, (step.total_us + step.total_us + scaled).to_bits()),
                "{}",
                step.name
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gauges_follow_random_lifecycles_back_to_zero(
            ops in prop::collection::vec((0usize..7, 1usize..5), 1..200),
        ) {
            // A request is accepted, then dequeued into a batch or shed
            // while queued; once in flight it may be requeued (and go
            // round again), complete, fail, or be shed at dequeue. Every
            // op below is valid in the modelled state, so a gauge that
            // would underflow trips the debug assertions.
            let m = Metrics::default();
            let (mut queued, mut inflight) = (0u64, 0u64);
            for (op, n) in ops {
                match op {
                    0 => {
                        m.submitted();
                        m.accepted();
                        queued += 1;
                    }
                    1 if queued > 0 => {
                        let k = (n as u64).min(queued);
                        m.dequeued(k as usize);
                        queued -= k;
                        inflight += k;
                    }
                    2 if queued > 0 => {
                        m.deadline_shed();
                        queued -= 1;
                    }
                    3 if inflight > 0 => {
                        m.requeued();
                        inflight -= 1;
                        queued += 1;
                    }
                    4 if inflight > 0 => {
                        m.completed(n as f64);
                        inflight -= 1;
                    }
                    5 if inflight > 0 => {
                        m.rejected_execution();
                        inflight -= 1;
                    }
                    6 if inflight > 0 => {
                        m.deadline_shed_dequeue();
                        inflight -= 1;
                    }
                    _ => {}
                }
                let g = m.gauges();
                prop_assert_eq!((g.queue_depth, g.inflight), (queued, inflight));
            }
            // Drain: everything still queued forms one batch, and every
            // request in flight completes.
            m.dequeued(queued as usize);
            for _ in 0..queued + inflight {
                m.completed(1.0);
            }
            let s = m.snapshot(1e6, vec![], None);
            prop_assert_eq!((s.queue_depth, s.inflight), (0, 0));
            prop_assert_eq!(s.resolved(), s.accepted);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "completed with nothing in flight")]
    fn completing_an_undispatched_request_fails_in_tests() {
        let m = Metrics::default();
        m.accepted();
        m.completed(1.0);
    }
}
