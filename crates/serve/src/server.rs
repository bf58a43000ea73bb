//! The serving front-end: admission control, the batcher thread, and the
//! worker pool of simulated GPU streams.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bolt_tensor::Tensor;

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::metrics::{LoadGauges, Metrics, MetricsSnapshot};
use crate::online::{Acquired, OnlineEngineManager};
use crate::registry::EngineRegistry;
use crate::request::{
    InferResponse, LatencyBreakdown, Outcome, QueuedRequest, RequestHandle, ResponseSlot,
};
use crate::scheduler::{BatchJob, Scheduler};
use crate::Result;

/// Shared state between the front-end, the batcher, and the workers.
struct Inner {
    registry: Arc<EngineRegistry>,
    config: ServeConfig,
    /// The online tuning & engine-lifecycle manager, when
    /// [`ServeConfig::online`] is set.
    online: Option<OnlineEngineManager>,
    /// Origin of the server's unified µs timeline.
    epoch: Instant,
    metrics: Metrics,
    sched: Mutex<Scheduler>,
    /// Wakes the batcher on submissions and shutdown.
    sched_cv: Condvar,
    next_id: AtomicU64,
}

impl Inner {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }
}

/// A multi-model dynamic-batching inference server over compiled Bolt
/// engines.
///
/// Lifecycle: build an [`EngineRegistry`], register models, call
/// [`BoltServer::start`], submit from any number of threads, then
/// [`BoltServer::shutdown`] to drain gracefully. Dropping the server also
/// drains it.
pub struct BoltServer {
    inner: Arc<Inner>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for BoltServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoltServer")
            .field("models", &self.inner.registry.names())
            .field("config", &self.inner.config)
            .finish()
    }
}

impl BoltServer {
    /// Starts the batcher and `config.workers` stream workers over the
    /// models already registered in `registry` (models may also be
    /// registered while the server runs).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the configuration violates an
    /// invariant the server depends on ([`ServeConfig::validate`]); no
    /// threads are started in that case.
    pub fn start(registry: Arc<EngineRegistry>, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let online = config
            .online
            .clone()
            .map(|oc| OnlineEngineManager::new(Arc::clone(&registry), oc));
        let inner = Arc::new(Inner {
            registry,
            config,
            online,
            epoch: Instant::now(),
            metrics: Metrics::default(),
            sched: Mutex::new(Scheduler::new()),
            sched_cv: Condvar::new(),
            next_id: AtomicU64::new(0),
        });

        // Bounded hand-off: at most ~one formed batch per worker may wait
        // in the channel. Any further backlog stays in the scheduler
        // queues, where deadline shedding and queue-capacity backpressure
        // still apply (an unbounded channel would hide overload from
        // admission control).
        let (tx, rx) = mpsc::sync_channel::<BatchJob>(inner.config.workers);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..inner.config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&rx);
                // Supervisor: per-batch panics are isolated inside the
                // loop; one that still escapes (an injected worker kill,
                // a real bug outside batch scope) restarts the loop in
                // place so the stream pool never shrinks. A clean return
                // means the channel closed: drained.
                std::thread::spawn(move || loop {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_loop(&inner, &rx)
                    })) {
                        Ok(()) => return,
                        Err(_) => inner.metrics.worker_restarted(),
                    }
                })
            })
            .collect();
        let batcher = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || batcher_loop(&inner, &tx))
        };

        Ok(BoltServer {
            inner,
            batcher: Some(batcher),
            workers,
        })
    }

    /// The registry backing this server.
    pub fn registry(&self) -> &Arc<EngineRegistry> {
        &self.inner.registry
    }

    /// The online engine manager, when [`ServeConfig::online`] is set —
    /// e.g. to inspect [`crate::EngineState`]s or wait for the compile
    /// queue to drain in tests.
    pub fn online(&self) -> Option<&OnlineEngineManager> {
        self.inner.online.as_ref()
    }

    /// Submits one single-sample request. `deadline` (defaulting to
    /// [`ServeConfig::default_deadline`]) bounds how long the request may
    /// wait: if it is still queued past the deadline it is shed with
    /// [`Outcome::DeadlineExceeded`] instead of executed late.
    ///
    /// # Errors
    ///
    /// Admission control rejects fast — [`ServeError::UnknownModel`],
    /// [`ServeError::InvalidInput`], [`ServeError::QueueFull`]
    /// (backpressure), [`ServeError::ShuttingDown`] — and every rejection
    /// is counted in the metrics. An `Ok` handle is a guarantee: the
    /// request will resolve to exactly one terminal [`Outcome`].
    pub fn submit(
        &self,
        model: &str,
        inputs: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> Result<RequestHandle> {
        self.submit_recoverable(model, inputs, deadline)
            .map_err(|(e, _inputs)| e)
    }

    /// Like [`BoltServer::submit`], but a rejection hands the input
    /// tensors back to the caller alongside the error. Inputs are real
    /// (deep-copying) buffers, so a cluster router that wants to re-route
    /// a backpressured request to another replica must get them back
    /// rather than clone per attempt.
    ///
    /// # Errors
    ///
    /// The same admission errors as [`BoltServer::submit`], paired with
    /// the unconsumed inputs.
    pub fn submit_recoverable(
        &self,
        model: &str,
        inputs: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> std::result::Result<RequestHandle, (ServeError, Vec<Tensor>)> {
        let inner = &*self.inner;
        inner.metrics.submitted();
        let Some(engines) = inner.registry.get(model) else {
            inner.metrics.rejected_unknown_model();
            return Err((ServeError::UnknownModel { name: model.into() }, inputs));
        };
        if let Err(e) = engines.validate_sample(&inputs) {
            inner.metrics.rejected_invalid_input();
            return Err((e, inputs));
        }
        if engines.max_batch() == 0 && inner.online.is_none() {
            // A zero-bucket dynamic model is only servable when an online
            // tuner can create (or fall back past) the missing engines.
            inner.metrics.rejected_no_engine();
            return Err((
                ServeError::NoEngine {
                    model: model.into(),
                    reason: "model has no compiled buckets and online tuning is disabled".into(),
                },
                inputs,
            ));
        }

        let key = Scheduler::key_for(&engines);
        let mut sched = inner.sched.lock().unwrap_or_else(|e| e.into_inner());
        if !sched.accepting {
            inner.metrics.rejected_shutting_down();
            return Err((ServeError::ShuttingDown, inputs));
        }
        if sched.depth(&key) >= inner.config.queue_capacity {
            inner.metrics.rejected_queue_full();
            return Err((
                ServeError::QueueFull {
                    model: model.into(),
                    capacity: inner.config.queue_capacity,
                },
                inputs,
            ));
        }

        let now_us = inner.now_us();
        let deadline_us = deadline
            .or(inner.config.default_deadline)
            .map(|d| now_us + d.as_secs_f64() * 1e6);
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(ResponseSlot::default());
        sched.enqueue(
            key,
            QueuedRequest {
                model: engines,
                inputs,
                submitted_us: now_us,
                deadline_us,
                slot: Arc::clone(&slot),
            },
        );
        inner.metrics.accepted();
        inner.sched_cv.notify_all();
        Ok(RequestHandle { id, slot })
    }

    /// Blocking convenience: submit and wait for the terminal outcome.
    ///
    /// # Errors
    ///
    /// Same admission errors as [`BoltServer::submit`].
    pub fn infer(&self, model: &str, inputs: Vec<Tensor>) -> Result<Outcome> {
        Ok(self.submit(model, inputs, None)?.wait())
    }

    /// Cheap instantaneous load gauges (queue depth, in-flight count,
    /// recent p99) — what a cluster router polls per placement decision,
    /// without paying for the full snapshot's percentile sorts.
    pub fn load(&self) -> LoadGauges {
        self.inner.metrics.gauges()
    }

    /// A point-in-time metrics snapshot (callable while serving).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot(
            self.inner.now_us(),
            self.inner.registry.workspaces(),
            self.inner
                .online
                .as_ref()
                .map(OnlineEngineManager::snapshot),
        )
    }

    /// Graceful drain: stop accepting, flush every queue (partial batches
    /// dispatch immediately), wait for all in-flight batches, stop the
    /// threads, and return the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.drain();
        self.metrics()
    }

    /// Abrupt stop (a killed cluster replica): stop accepting and resolve
    /// everything still queued as [`Outcome::Rejected`] instead of
    /// executing it. Batches already on a stream still finish — the
    /// exactly-once guarantee holds: every accepted request resolves,
    /// just mostly as rejections.
    pub fn abort(mut self) -> MetricsSnapshot {
        {
            let mut sched = self.inner.sched.lock().unwrap_or_else(|e| e.into_inner());
            sched.aborting = true;
            self.inner.sched_cv.notify_all();
        }
        self.drain();
        self.metrics()
    }

    fn drain(&mut self) {
        if self.batcher.is_none() {
            return;
        }
        {
            let mut sched = self.inner.sched.lock().unwrap_or_else(|e| e.into_inner());
            sched.accepting = false;
            self.inner.sched_cv.notify_all();
        }
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
        // The batcher dropped its sender on exit; workers drain the
        // channel and stop.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for BoltServer {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Idle re-check interval: bounds how stale the batcher's view can get
/// even if a wakeup is missed.
const IDLE_TICK: Duration = Duration::from_millis(20);

fn batcher_loop(inner: &Inner, tx: &mpsc::SyncSender<BatchJob>) {
    let timeout_us = inner.config.batch_timeout.as_secs_f64() * 1e6;
    let mut sched = inner.sched.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let now_us = inner.now_us();
        let flush = !sched.accepting;
        let result = sched.form(
            now_us,
            inner.config.max_batch,
            timeout_us,
            flush,
            inner.online.is_some(),
        );
        let idle = result.jobs.is_empty() && result.shed.is_empty();
        if flush && idle && sched.pending() == 0 {
            return; // drained; dropping `tx` stops the workers
        }
        if !idle {
            let abort = sched.aborting;
            // Resolve/dispatch outside the lock so submitters keep moving.
            drop(sched);
            inner
                .metrics
                .dequeued(result.jobs.iter().map(|j| j.requests.len()).sum());
            for request in result.shed {
                inner.metrics.deadline_shed();
                request.slot.resolve(Outcome::DeadlineExceeded {
                    waited_us: now_us - request.submitted_us,
                });
            }
            for job in result.jobs {
                if abort {
                    // Abort drain: terminate queued work fast instead of
                    // executing it. Exactly-once still holds — each
                    // request resolves, as a rejection.
                    for request in job.requests {
                        inner.metrics.rejected_execution();
                        request.slot.try_resolve(Outcome::Rejected {
                            reason: "server aborted".into(),
                        });
                    }
                    continue;
                }
                if let Err(mpsc::SendError(job)) = tx.send(job) {
                    // The worker pool is gone (every receiver dropped).
                    // Admission promised a terminal outcome: reject each
                    // request rather than silently dropping the batch.
                    for request in job.requests {
                        inner.metrics.rejected_execution();
                        request.slot.try_resolve(Outcome::Rejected {
                            reason: "worker pool unavailable".into(),
                        });
                    }
                }
            }
            sched = inner.sched.lock().unwrap_or_else(|e| e.into_inner());
            continue; // re-form: new work may have queued meanwhile
        }
        let wait = result
            .next_wake_us
            .map(|wake| Duration::from_secs_f64(((wake - now_us).max(1.0)) / 1e6))
            .unwrap_or(IDLE_TICK)
            .min(IDLE_TICK);
        let (guard, _) = inner
            .sched_cv
            .wait_timeout(sched, wait)
            .unwrap_or_else(|e| e.into_inner());
        sched = guard;
    }
}

fn worker_loop(inner: &Inner, rx: &Mutex<mpsc::Receiver<BatchJob>>) {
    // This worker's simulated stream: absolute µs (server timeline) until
    // which the stream is busy. Batches dispatched to the same stream
    // queue behind each other, exactly like kernels on a CUDA stream.
    // (Reset on a supervisor restart: a crashed stream loses its backlog.)
    let mut busy_until_us = 0.0f64;
    loop {
        // Chaos: a worker thread may die *between* batches — it holds no
        // job here, so nothing is lost; the supervisor respawns it.
        bolt::faults::panic_if_scheduled(bolt::faults::FaultSite::WorkerKill);
        let job = {
            let receiver = rx.lock().unwrap_or_else(|e| e.into_inner());
            receiver.recv()
        };
        match job {
            Ok(mut job) => {
                // Panic isolation per batch: a panicking kernel (or an
                // injected fault) rejects the batch's own requests and
                // nothing else. `execute_batch` drains requests from the
                // job as it resolves them, so whatever remains after a
                // panic is exactly the unresolved set.
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    execute_batch(inner, &mut job, &mut busy_until_us)
                }));
                if let Err(payload) = run {
                    inner.metrics.worker_panic();
                    let reason = ServeError::Panicked {
                        component: "batch execution".into(),
                        message: crate::panic_message(&payload),
                    }
                    .to_string();
                    for request in job.requests.drain(..) {
                        if request.slot.try_resolve(Outcome::Rejected {
                            reason: reason.clone(),
                        }) {
                            inner.metrics.rejected_execution();
                        }
                    }
                }
            }
            Err(_) => return, // channel closed: server drained
        }
    }
}

fn execute_batch(inner: &Inner, job: &mut BatchJob, busy_until_us: &mut f64) {
    // Deadline enforcement at dequeue time: formation-time shedding
    // cannot see time spent *after* the batch formed — waiting in the
    // hand-off channel behind a slow batch. A request whose deadline has
    // passed by now is shed, not executed late.
    let dequeue_us = inner.now_us();
    job.requests.retain_mut(|request| {
        let expired = request
            .deadline_us
            .is_some_and(|deadline| dequeue_us > deadline);
        if expired {
            inner.metrics.deadline_shed_dequeue();
            request.slot.resolve(Outcome::DeadlineExceeded {
                waited_us: dequeue_us - request.submitted_us,
            });
        }
        !expired
    });
    let batch = job.requests.len();
    if batch == 0 {
        return;
    }
    // Place the batch: through the online manager (fallback + background
    // tune) when configured, else directly on the precompiled buckets.
    let placed = match &inner.online {
        Some(manager) => manager.acquire(&job.model, batch),
        None => job
            .model
            .placement_for(batch)
            .map(|p| Acquired {
                bucket: p.bucket,
                engine: p.engine,
                launches: p.launches,
                fallback: false,
                degraded: false,
            })
            .ok_or_else(|| ServeError::NoEngine {
                model: job.model.name().to_string(),
                reason: "model has no compiled buckets".into(),
            }),
    };
    let placed = match placed {
        Ok(placed) => placed,
        Err(e) => {
            // Admission guarantees a terminal outcome; an unplaceable
            // batch (e.g. the heuristic fallback compile failed) rejects
            // every request in it.
            let reason = e.to_string();
            for request in job.requests.drain(..) {
                inner.metrics.rejected_execution();
                request.slot.resolve(Outcome::Rejected {
                    reason: reason.clone(),
                });
            }
            return;
        }
    };
    if placed.launches > 1 {
        inner.metrics.batch_overflow();
    }

    // Chaos: a slow batch (stalls this stream, so later batches queue
    // behind it and may hit their deadlines at dequeue), then a mid-batch
    // panic (isolated by the worker's per-batch catch_unwind above).
    bolt::faults::stall(bolt::faults::FaultSite::BatchStall);
    bolt::faults::panic_if_scheduled(bolt::faults::FaultSite::BatchPanic);

    // Price the bucket's kernel timeline on the simulator; the real batch
    // of `batch` requests rides the bucket-sized launch (repeated when
    // the batch was split). The step observer attributes the batch's
    // latency per kernel, once per launch — with each launch's compute
    // scaled by its occupancy, so the zero-padded tail rows of a partial
    // final launch are not priced as real per-kernel work. Each plan is
    // priced once, when first asked.
    let kernel_us = placed.engine.time().total_us * placed.launches as f64;
    let images_per_sec = if kernel_us > 0.0 {
        batch as f64 * 1e6 / kernel_us
    } else {
        0.0
    };
    inner.metrics.batch(batch, images_per_sec);
    let bucket = placed.bucket.max(1);
    let plan_flops = placed.engine.flops();
    for launch in 0..placed.launches {
        let rows = (batch - launch * bucket).min(bucket);
        inner
            .metrics
            .launch_flops(plan_flops * rows as f64 / bucket as f64, plan_flops);
        inner
            .metrics
            .kernel_times(placed.engine.step_timings(), rows, bucket);
    }

    // Really compute the batch when the model allows it, bucket-sized
    // chunks per launch. The inputs move into the batch: every path
    // after the launch only resolves the requests' slots.
    let mut failure: Option<String> = None;
    let mut outputs: Option<Vec<Vec<Tensor>>> = None;
    if inner.config.functional && job.model.functional() {
        let samples: Vec<Vec<Tensor>> = job
            .requests
            .iter_mut()
            .map(|r| std::mem::take(&mut r.inputs))
            .collect();
        let mut per_sample = Vec::with_capacity(batch);
        for chunk in samples.chunks(placed.bucket.max(1)) {
            match placed.engine.run_batched(chunk) {
                Ok(outs) => per_sample.extend(outs),
                Err(e) => {
                    failure = Some(e.to_string());
                    break;
                }
            }
        }
        if failure.is_none() {
            outputs = Some(per_sample);
        }
    }

    // Advance this stream's simulated timeline and settle per-request
    // latency: queue wait (real) + stream backlog + batch kernel time
    // (simulated).
    let now_us = inner.now_us();
    let start_us = now_us.max(*busy_until_us);
    let done_us = start_us + kernel_us;
    *busy_until_us = done_us;

    for (index, request) in job.requests.drain(..).enumerate() {
        match &failure {
            Some(reason) => {
                inner.metrics.rejected_execution();
                request.slot.resolve(Outcome::Rejected {
                    reason: reason.clone(),
                });
            }
            None => {
                let latency = LatencyBreakdown {
                    queue_us: start_us - request.submitted_us,
                    kernel_us,
                    total_us: done_us - request.submitted_us,
                };
                inner.metrics.completed(latency.total_us);
                if placed.degraded {
                    inner.metrics.degraded();
                }
                request.slot.resolve(Outcome::Completed(InferResponse {
                    model: job.model.name().to_string(),
                    outputs: outputs.as_mut().map(|o| std::mem::take(&mut o[index])),
                    batch_size: batch,
                    bucket: placed.bucket,
                    launches: placed.launches,
                    fallback: placed.fallback,
                    degraded: placed.degraded,
                    latency,
                }));
            }
        }
    }
}
