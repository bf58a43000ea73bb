//! `serve`: single-sample requests through `BoltServer` over the three
//! materialized serving models, in a closed loop of [`OUTSTANDING`]
//! requests from one generator thread.
//!
//! The functional executor (packing, GEMM/conv kernels, epilogues) and
//! the server path do the work; the profiler does none after set-up.
//! Enough requests stay outstanding that batches mostly close on size
//! (`max_batch` 8) rather than on the 2 ms batch timer: on a 2-vCPU host,
//! 48 outstanding gave a mean batch of 6.0 with half the batches
//! partial, 96 gave 7.0 with three quarters full. One op is one request;
//! its latency is observed by the client, from the `submit` call until
//! the generator sees the response.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt::{stack_batch, BoltConfig, ExecutionPlan, Step, StepKind, StepObserver};
use bolt_gpu_sim::{GpuArch, KernelTime};
use bolt_models::zoo::sample_inputs;
use bolt_models::{try_model_by_name, SERVING_MODELS};
use bolt_serve::{BoltServer, EngineRegistry, Outcome, RequestHandle, ServeConfig};
use bolt_tensor::Tensor;

use crate::stats::SplitMix;
use crate::trace::{self, Tracer};
use crate::{Args, Phase, Report, Values, END_TO_END, PER_LAYER};

/// Requests kept outstanding by the closed loop.
pub const OUTSTANDING: usize = 96;
/// Engine buckets compiled at set-up.
pub const BUCKETS: [usize; 4] = [1, 2, 4, 8];
/// Largest batch the server forms.
pub const MAX_BATCH: usize = 8;
/// Seeded inputs per model in the request pool.
pub const POOL: usize = 16;
/// A request's CPU cannot be told apart from its batch-mates' or from
/// the next batch's, so CPU is attributed per slice of this length:
/// each request completed in a slice is charged the slice's process CPU
/// divided by the slice's completions.
const CPU_SLICE: Duration = Duration::from_millis(100);
/// Completed requests after which peak RSS is read.
pub const RSS_AFTER_REQUESTS: u64 = 4096;
/// Calls per replayed measurement (`run_batched`, `run_observed`).
const REPLAYS: usize = 40;

const RUN_BATCHED_METRICS: [&str; 3] = [
    "core.plan.run_batched_ms.mlp-small",
    "core.plan.run_batched_ms.mlp-large",
    "core.plan.run_batched_ms.cnn-small",
];

/// The seeded request pool: `POOL` single-sample inputs per model.
pub fn pool(seed: u64) -> Vec<Vec<Vec<Tensor>>> {
    let mut rng = SplitMix::new(seed, 2);
    SERVING_MODELS
        .iter()
        .map(|model| {
            (0..POOL)
                .map(|_| sample_inputs(model, rng.next_u64()).expect("serving model"))
                .collect()
        })
        .collect()
}

/// The server and the registry its engines live in.
pub struct System {
    server: BoltServer,
    registry: Arc<EngineRegistry>,
}

fn build(tracer: &mut Tracer) -> Result<System, String> {
    let registry = Arc::new(EngineRegistry::new(
        GpuArch::tesla_t4(),
        BoltConfig::default(),
    ));
    for model in SERVING_MODELS {
        tracer
            .time("serve.registry.register_zoo", 0, || {
                registry.register_zoo(model, &BUCKETS)
            })
            .map_err(|e| e.to_string())?;
    }
    let config = ServeConfig {
        workers: 1,
        max_batch: MAX_BATCH,
        batch_buckets: Some(BUCKETS.to_vec()),
        online: None,
        functional: true,
        ..ServeConfig::default()
    };
    let server = tracer
        .time("serve.server.start", 0, || {
            BoltServer::start(Arc::clone(&registry), config)
        })
        .map_err(|e| e.to_string())?;
    Ok(System { server, registry })
}

/// The engine a batch of `rows` runs on: the smallest bucket that fits.
fn engine(
    registry: &EngineRegistry,
    model: &str,
    rows: usize,
) -> Result<Arc<ExecutionPlan>, String> {
    registry
        .get(model)
        .and_then(|e| e.engine_for(rows))
        .map(|(_, plan)| plan)
        .ok_or(format!("{model} has no bucket for {rows} rows"))
}

fn bit_identical(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data().len() == y.data().len()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Per-request results of one closed-loop phase.
#[derive(Debug)]
struct Served {
    phase: Phase,
    /// Σ `kernel_us / batch_size` over timed requests.
    sim_us_sum: f64,
    /// Timed responses per model and batch size.
    responses: [[u64; MAX_BATCH + 1]; 3],
}

impl Served {
    /// Timed requests of model `m`.
    fn requests(&self, m: usize) -> u64 {
        self.responses[m].iter().sum()
    }

    /// Batches formed, counted from responses: a batch of b returns b.
    fn batches(&self, sizes: impl Fn(usize) -> bool) -> f64 {
        self.responses
            .iter()
            .flat_map(|row| row.iter().enumerate())
            .filter(|&(b, _)| b > 0 && sizes(b))
            .map(|(b, &n)| n as f64 / b as f64)
            .sum()
    }
}

struct InFlight {
    handle: RequestHandle,
    model: usize,
    input: usize,
    submitted: Instant,
}

/// The closed loop: keep `OUTSTANDING` requests in flight for `budget`,
/// then drain. Only responses that arrive within the budget are timed;
/// every response is checked.
fn closed_loop(
    system: &System,
    pool: &[Vec<Vec<Tensor>>],
    refs: &[Vec<Vec<Tensor>>],
    rng: &mut SplitMix,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Served {
    let mut served = Served {
        phase: Phase::begin(),
        sim_us_sum: 0.0,
        responses: [[0; MAX_BATCH + 1]; 3],
    };
    let mut live: Vec<InFlight> = Vec::with_capacity(OUTSTANDING);
    let mut op = 0u64;
    let mut slice_cpu = crate::process_cpu_s();
    let mut slice_start = Instant::now();
    // Timed completions of the open slice: (completed at, wall ms).
    let mut slice: Vec<(Instant, f64)> = Vec::new();
    let mut timed_requests = 0u64;
    loop {
        while live.len() < OUTSTANDING && served.phase.elapsed() < budget {
            let model = rng.range(0, SERVING_MODELS.len() - 1);
            let input = rng.range(0, POOL - 1);
            let inputs = pool[model][input].clone();
            report.attempted += 1;
            let submitted = Instant::now();
            let handle = tracer.time("serve.server.submit", op, || {
                system.server.submit(SERVING_MODELS[model], inputs, None)
            });
            op += 1;
            match handle {
                Ok(handle) => live.push(InFlight {
                    handle,
                    model,
                    input,
                    submitted,
                }),
                Err(e) => {
                    report.failed += 1;
                    report.problems.push(format!("submit rejected: {e}"));
                }
            }
        }
        if live.is_empty() {
            break;
        }
        // Block on the oldest request, then sweep every other one that
        // completed meanwhile (usually the rest of its batch).
        let oldest = live[0].handle.wait();
        let now = Instant::now();
        let mut done = vec![(live.remove(0), oldest)];
        let mut i = 0;
        while i < live.len() {
            match live[i].handle.try_wait() {
                Some(outcome) => done.push((live.remove(i), outcome)),
                None => i += 1,
            }
        }
        let timed = now.saturating_duration_since(served.phase.started()) <= budget;
        for (flight, outcome) in done {
            let name = SERVING_MODELS[flight.model];
            let Outcome::Completed(resp) = outcome else {
                report.failed += 1;
                report
                    .problems
                    .push(format!("{name} input {}: {outcome:?}", flight.input));
                continue;
            };
            let expected = &refs[flight.model][flight.input];
            if !resp
                .outputs
                .as_deref()
                .is_some_and(|out| bit_identical(out, expected))
            {
                report.failed += 1;
                report.problems.push(format!(
                    "{name} input {}: outputs differ from run_reference",
                    flight.input
                ));
            }
            if timed {
                slice.push((now, (now - flight.submitted).as_secs_f64() * 1e3));
                timed_requests += 1;
                served.sim_us_sum += resp.latency.kernel_us / resp.batch_size as f64;
                served.responses[flight.model][resp.batch_size.min(MAX_BATCH)] += 1;
                if timed_requests == RSS_AFTER_REQUESTS {
                    served.phase.note_peak_rss();
                }
            }
        }
        // Past the budget the slice closes at once, so drain-time CPU is
        // charged to no timed request.
        if now - slice_start >= CPU_SLICE || !timed {
            slice_cpu = close_slice(&mut served.phase, &mut slice, slice_cpu);
            slice_start = now;
        }
    }
    close_slice(&mut served.phase, &mut slice, slice_cpu);
    served.phase.finish_at(budget);
    served.phase.note_peak_rss();
    served
}

/// Records a slice's completions, each charged an equal share of the
/// process CPU since `since_cpu`; returns the CPU clock at the close.
fn close_slice(phase: &mut Phase, slice: &mut Vec<(Instant, f64)>, since_cpu: f64) -> f64 {
    let cpu = crate::process_cpu_s();
    if !slice.is_empty() {
        let cpu_ms = (cpu - since_cpu) * 1e3 / slice.len() as f64;
        for (at, wall_ms) in slice.drain(..) {
            phase.record(at, wall_ms, cpu_ms, 1);
        }
    }
    cpu
}

/// Runs the `serve` workload.
///
/// # Errors
///
/// Registry or server start-up failures.
pub fn run(args: &Args) -> Result<Report, String> {
    let pool = pool(args.seed);
    let mut setup_tracer = Tracer::new(args.trace);
    let (setup_s, system) = crate::repeated_setup(|| build(&mut setup_tracer))?;

    // References: the oracle executor on the bucket-1 engine, computed
    // outside both set-up and the timed phase.
    let mut refs = Vec::with_capacity(SERVING_MODELS.len());
    for (m, model) in SERVING_MODELS.iter().enumerate() {
        let plan = engine(&system.registry, model, 1)?;
        let outs = pool[m]
            .iter()
            .map(|inputs| plan.run_reference(inputs).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        refs.push(outs);
    }

    let mut report = Report::default();
    let mut values = Values::default();
    let mut rng = SplitMix::new(args.seed, 3);
    let mut off = Tracer::new(false);
    let untraced = closed_loop(
        &system,
        &pool,
        &refs,
        &mut rng,
        args.untraced_budget(),
        &mut off,
        &mut report,
    );
    report.notes.push(format!(
        "{} requests timed ({} mlp-small, {} mlp-large, {} cnn-small), {OUTSTANDING} outstanding, 1 worker, max_batch {MAX_BATCH}",
        untraced.phase.ops(), untraced.requests(0), untraced.requests(1), untraced.requests(2)
    ));
    report
        .notes
        .push(untraced.phase.describe(
            "per-request CPU (a completion sweep's CPU shared by its requests) and client-observed latency",
        ));
    report.notes.push(untraced.phase.describe_wall());

    if !args.trace {
        crate::end_to_end(
            &mut values,
            setup_s,
            &untraced.phase,
            untraced.sim_us_sum / untraced.phase.samples().max(1) as f64,
        );
        report.metrics = values.emit(END_TO_END);
        return Ok(report);
    }

    let mut tracer = setup_tracer;
    trace::set_counting(true);
    let allocs_before = trace::allocations();
    let traced = closed_loop(
        &system,
        &pool,
        &refs,
        &mut rng,
        args.traced_budget(),
        &mut tracer,
        &mut report,
    );
    let allocs = trace::allocations() - allocs_before;
    trace::set_counting(false);
    report.notes.push(crate::wall_and_overhead(
        &mut values,
        &untraced.phase,
        &traced.phase,
    ));

    let snapshot = tracer.time("serve.metrics.snapshot", 0, || system.server.metrics());
    values.set(
        "serve.metrics.snapshot_ms",
        tracer.mean_self_ms("serve.metrics.snapshot"),
    );
    values.set(
        "serve.server.submit_us",
        tracer.mean_self_ms("serve.server.submit") * 1e3,
    );
    values.set(
        "serve.server.heap_allocs_per_request",
        allocs as f64 / traced.phase.ops().max(1) as f64,
    );
    values.set("serve.server.padding_fraction", snapshot.padding_fraction);
    let batches = untraced.batches(|_| true);
    values.set(
        "serve.server.mean_batch",
        untraced.phase.samples() as f64 / batches.max(1e-9),
    );
    values.set(
        "serve.server.full_batch_share",
        untraced.batches(|b| b == MAX_BATCH) / batches.max(1e-9),
    );
    report.notes.push(format!(
        "{batches:.0} batches in the untraced phase; server snapshot mean_batch {:.2}",
        snapshot.mean_batch
    ));

    // Replays after the timed phase, on pool inputs: the executor alone.
    for (m, model) in SERVING_MODELS.iter().enumerate() {
        let plan = engine(&system.registry, model, MAX_BATCH)?;
        let samples: Vec<Vec<Tensor>> = (0..MAX_BATCH).map(|i| pool[m][i % POOL].clone()).collect();
        for r in 0..REPLAYS {
            tracer
                .time(RUN_BATCHED_METRICS[m], r as u64, || {
                    plan.run_batched(&samples)
                })
                .map_err(|e| e.to_string())?;
        }
        values.set(
            RUN_BATCHED_METRICS[m],
            tracer.mean_self_ms(RUN_BATCHED_METRICS[m]),
        );
    }
    let mut kinds = KindTimer::default();
    for (m, model) in SERVING_MODELS.iter().enumerate() {
        let plan = engine(&system.registry, model, MAX_BATCH)?;
        let batch: Vec<Tensor> = (0..pool[m][0].len())
            .map(|input| {
                let column: Vec<&Tensor> =
                    (0..MAX_BATCH).map(|i| &pool[m][i % POOL][input]).collect();
                stack_batch(&column, MAX_BATCH)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        for r in 0..REPLAYS {
            kinds.last = Instant::now();
            tracer
                .time("core.plan.run_observed", r as u64, || {
                    plan.run_observed(&batch, &mut kinds)
                })
                .map_err(|e| e.to_string())?;
        }
    }
    let runs = (REPLAYS * SERVING_MODELS.len()) as f64;
    values.set("cutlass.gemm_ms", kinds.gemm_ns as f64 / 1e6 / runs);
    values.set("cutlass.conv2d_ms", kinds.conv_ns as f64 / 1e6 / runs);
    values.set("core.plan.host_step_ms", kinds.host_ns as f64 / 1e6 / runs);

    // The worker runs batches back to back, so wall per batch minus the
    // executor's time for the same batches (each model at each batch
    // size the phase formed, replayed on its engine) is server overhead:
    // batching, hand-off, pricing and response resolution.
    let mut executor_ms = 0.0;
    for (m, model) in SERVING_MODELS.iter().enumerate() {
        for size in 1..=MAX_BATCH {
            let responses = untraced.responses[m][size];
            if responses == 0 {
                continue;
            }
            let plan = engine(&system.registry, model, size)?;
            let samples: Vec<Vec<Tensor>> = (0..size).map(|i| pool[m][i % POOL].clone()).collect();
            let start = Instant::now();
            for r in 0..REPLAYS {
                tracer
                    .time("core.plan.run_batched", r as u64, || {
                        plan.run_batched(&samples)
                    })
                    .map_err(|e| e.to_string())?;
            }
            let per_batch_ms = start.elapsed().as_secs_f64() * 1e3 / REPLAYS as f64;
            executor_ms += per_batch_ms * responses as f64 / size as f64;
        }
    }
    values.set(
        "serve.server.overhead_ms_per_batch",
        (untraced.phase.wall_s * 1e3 - executor_ms) / batches.max(1e-9),
    );

    let compiled = replay_setup_compiles(&mut tracer)?;
    crate::compile::compile_layers(&mut values, &tracer, &compiled);
    report.metrics = values.emit(PER_LAYER);
    report.tracer = Some(tracer);
    Ok(report)
}

/// Replays the set-up's compiles (every model at every bucket, in set-up
/// order, through one shared compiler) split at the layer boundaries.
fn replay_setup_compiles(tracer: &mut Tracer) -> Result<Vec<crate::compile::Compiled>, String> {
    let mut compiled = Vec::new();
    let compiler = crate::compile::passes_off_compiler();
    for model in SERVING_MODELS {
        for bucket in BUCKETS {
            let graph = try_model_by_name(model, bucket)
                .expect("serving model")
                .graph;
            let op = compiled.len() as u64;
            compiled.push(crate::compile::traced_compile(
                &compiler, &graph, tracer, op,
            )?);
        }
    }
    Ok(compiled)
}

/// Wall time between `StepObserver` callbacks, grouped by step kind.
#[derive(Debug)]
struct KindTimer {
    last: Instant,
    gemm_ns: u128,
    conv_ns: u128,
    host_ns: u128,
}

impl Default for KindTimer {
    fn default() -> Self {
        KindTimer {
            last: Instant::now(),
            gemm_ns: 0,
            conv_ns: 0,
            host_ns: 0,
        }
    }
}

impl StepObserver for KindTimer {
    fn observe(&mut self, _index: usize, step: &Step, _time: &KernelTime) {
        let now = Instant::now();
        let ns = (now - self.last).as_nanos();
        self.last = now;
        match step.kind {
            StepKind::Gemm { .. } | StepKind::B2bGemm { .. } | StepKind::GemmChain { .. } => {
                self.gemm_ns += ns
            }
            StepKind::Conv2d { .. } | StepKind::B2bConv { .. } => self.conv_ns += ns,
            StepKind::LayoutTransform { .. } | StepKind::PadChannels { .. } | StepKind::Host => {
                self.host_ns += ns
            }
        }
    }
}
