//! `llm`: `tiny-lm` sequences through the continuous batcher, with
//! [`IN_SYSTEM`] sequences kept in the system by one generator thread.
//!
//! The batcher, the KV governor, host attention and the skinny decode
//! GEMMs do the work — the same executor as `serve`, used with at most
//! eight rows built one at a time, so a change that helps wide batches
//! and costs skinny ones (or the reverse) shows on one of the two.
//!
//! Set-up warm-boots the batcher: every sub-model bucket the run can
//! request is compiled and installed with `compile_bucket` +
//! `insert_bucket` before the first step, as the online tuner would.
//! Nothing is tuned or hot-swapped during the run, so every simulated
//! figure repeats exactly for a seed. (On the online-tuned path the
//! batcher's engine-price cache is keyed by engine address, and a
//! hot-swap can let a new engine inherit a dropped one's price, which
//! moves the simulated clock from run to run. The warm boot sidesteps
//! that; it does not fix it.)
//!
//! A cycle is [`SEQUENCES`] seeded sequences; the timed phase repeats
//! whole cycles on the same batcher, and every cycle must reproduce the
//! first one's streams and simulated step times exactly. One op is one
//! generated token for throughput and one `step()` for latency.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bolt::BoltConfig;
use bolt_gpu_sim::GpuArch;
use bolt_models::llm::{lm_head_name, post_name, qkv_name};
use bolt_models::{llm_by_name, sample_prompts, DecoderModel, PromptLengths};
use bolt_serve::{
    BatchMode, ContinuousBatcher, FinishReason, LlmServeConfig, SequenceRequest, StepReport,
};
use bolt_tensor::{DType, Tensor};

use crate::stats::{self, SplitMix};
use crate::trace::{self, Tracer};
use crate::{Args, Phase, Report, Values, END_TO_END, PER_LAYER};

/// The LLM zoo model.
pub const MODEL: &str = "tiny-lm";
/// Sequences per cycle.
pub const SEQUENCES: usize = 256;
/// Sequences kept in the system (queued or live) by the closed loop.
pub const IN_SYSTEM: usize = 16;
/// Batcher slots.
pub const SLOTS: usize = 8;
/// KV block budget: the governor's "moderate" pressure point.
pub const KV_BUDGET_BLOCKS: usize = 16;
/// Prompt lengths, tokens.
pub const PROMPT_TOKENS: (usize, usize) = (4, 32);
/// New tokens per sequence.
pub const NEW_TOKENS: (usize, usize) = (16, 24);
/// Buckets compiled for the QKV and post sub-models: decode M ≤ 8 and
/// prefill M up to the longest replay (prompt + generated < 64), each
/// rounded to the power of two the batcher asks for.
pub const ROW_BUCKETS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Buckets compiled for the LM head: it sees the decode rows and one
/// row per prefill.
pub const HEAD_BUCKETS: [usize; 4] = [1, 2, 4, 8];
/// Decode steps replayed per layer measurement.
const REPLAY_STEPS: usize = 200;

/// The cycle's requests for `seed`.
pub fn cycle(seed: u64) -> Vec<SequenceRequest> {
    let prompts = sample_prompts(
        MODEL,
        SEQUENCES,
        PromptLengths::uniform(PROMPT_TOKENS.0, PROMPT_TOKENS.1),
        seed,
    )
    .expect("tiny-lm is an LLM zoo model");
    let mut rng = SplitMix::new(seed, 4);
    prompts
        .into_iter()
        .map(|prompt| SequenceRequest {
            prompt,
            max_new_tokens: rng.range(NEW_TOKENS.0, NEW_TOKENS.1),
            deadline_us: None,
        })
        .collect()
}

/// `(sub-model, buckets)` the warm boot compiles.
pub fn warm_buckets() -> Vec<(String, &'static [usize])> {
    let spec = llm_by_name(MODEL).expect("tiny-lm");
    let mut out: Vec<(String, &'static [usize])> = Vec::new();
    for layer in 0..spec.layers {
        out.push((qkv_name(MODEL, layer), &ROW_BUCKETS));
        out.push((post_name(MODEL, layer), &ROW_BUCKETS));
    }
    out.push((lm_head_name(MODEL), &HEAD_BUCKETS));
    out
}

fn build(tracer: &mut Tracer) -> Result<ContinuousBatcher, String> {
    let batcher = tracer
        .time("serve.continuous.new", 0, || {
            ContinuousBatcher::new(
                GpuArch::tesla_t4(),
                BoltConfig::default(),
                LlmServeConfig {
                    model: MODEL.into(),
                    max_slots: SLOTS,
                    mode: BatchMode::Continuous,
                    kv_budget_blocks: Some(KV_BUDGET_BLOCKS),
                    ..LlmServeConfig::default()
                },
            )
        })
        .map_err(|e| e.to_string())?;
    let registry = batcher.registry();
    for (name, buckets) in warm_buckets() {
        for &bucket in buckets {
            let (plan, _) = tracer
                .time("serve.registry.compile_bucket", 0, || {
                    registry.compile_bucket(&name, bucket)
                })
                .map_err(|e| e.to_string())?;
            tracer
                .time("serve.registry.insert_bucket", 0, || {
                    registry.insert_bucket(&name, bucket, plan)
                })
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(batcher)
}

/// One `step()` as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct StepRec {
    report: StepReport,
    wall_ns: u64,
}

/// One cycle's trajectory.
#[derive(Debug, Default)]
struct CycleRun {
    steps: Vec<StepRec>,
    /// Per sequence (cycle order): generated tokens.
    streams: Vec<Vec<u32>>,
    /// Per sequence: simulated TTFT, µs.
    ttft_us: Vec<f64>,
    /// Per sequence: prompt length.
    prompt_len: Vec<usize>,
    generated: u64,
    preemptions: u64,
    recompute_tokens: u64,
    /// Padding share of launched FLOPs and fresh KV block allocations
    /// once the cycle ended; read only for the first cycle, when the
    /// batcher's cumulative counters cover that cycle alone.
    padding_fraction: f64,
    kv_fresh_allocations: u64,
}

impl CycleRun {
    /// Same steps (admissions, decodes) with the same simulated times.
    /// Step times are differences of the batcher's running clock, so a
    /// later cycle's can differ from the first's in the last bits only.
    fn same_schedule(&self, other: &CycleRun) -> bool {
        self.steps.len() == other.steps.len()
            && self.steps.iter().zip(&other.steps).all(|(a, b)| {
                a.report.admitted == b.report.admitted
                    && a.report.decoded == b.report.decoded
                    && (a.report.sim_us - b.report.sim_us).abs() <= 1e-9 * a.report.sim_us.abs()
            })
    }
}

/// Runs one cycle through the closed loop.
fn run_cycle(
    batcher: &mut ContinuousBatcher,
    requests: &[SequenceRequest],
    tracer: &mut Tracer,
    phase: &mut Phase,
    report: &mut Report,
) -> CycleRun {
    let mut run = CycleRun {
        streams: vec![Vec::new(); requests.len()],
        ttft_us: vec![0.0; requests.len()],
        prompt_len: requests.iter().map(|r| r.prompt.len()).collect(),
        ..CycleRun::default()
    };
    let stats_before = batcher.stats();
    let mut index_of: HashMap<u64, usize> = HashMap::with_capacity(requests.len());
    let mut next = 0;
    let mut done = 0;
    let submit = |batcher: &mut ContinuousBatcher,
                  index_of: &mut HashMap<u64, usize>,
                  next: &mut usize,
                  report: &mut Report| {
        report.attempted += 1;
        match batcher.submit(requests[*next].clone()) {
            Ok(id) => {
                index_of.insert(id, *next);
            }
            Err(e) => {
                report.failed += 1;
                report
                    .problems
                    .push(format!("sequence {} rejected: {e}", *next));
            }
        }
        *next += 1;
    };
    while next < requests.len().min(IN_SYSTEM) {
        submit(batcher, &mut index_of, &mut next, report);
    }
    let mut op = 0u64;
    while batcher.live() + batcher.queued() > 0 {
        let span = tracer.enter("serve.continuous.step", op);
        let t0 = Instant::now();
        let cpu0 = crate::process_cpu_s();
        let step = batcher.step();
        let cpu_ms = (crate::process_cpu_s() - cpu0) * 1e3;
        let end = Instant::now();
        let wall_ns = (end - t0).as_nanos() as u64;
        tracer.exit(span);
        // A step's tokens: each admission's first token plus one per
        // decoded sequence.
        phase.record(
            end,
            wall_ns as f64 / 1e6,
            cpu_ms,
            (step.admitted + step.decoded) as u64,
        );
        op += 1;
        run.steps.push(StepRec {
            report: step,
            wall_ns,
        });
        for result in batcher.take_finished() {
            done += 1;
            let Some(&i) = index_of.get(&result.id) else {
                report.failed += 1;
                report
                    .problems
                    .push(format!("unknown sequence id {}", result.id));
                continue;
            };
            if result.finish != FinishReason::Length {
                report.failed += 1;
                report
                    .problems
                    .push(format!("sequence {i} finished {:?}", result.finish));
            }
            run.ttft_us[i] = result.ttft_us.unwrap_or(f64::NAN);
            run.streams[i] = result.tokens;
            if next < requests.len() {
                submit(batcher, &mut index_of, &mut next, report);
            }
        }
    }
    if done != next {
        report.failed += 1;
        report
            .problems
            .push(format!("{next} sequences submitted but {done} finished"));
    }
    let stats = batcher.stats();
    run.generated = stats.generated_tokens - stats_before.generated_tokens;
    run.preemptions = stats.preemptions - stats_before.preemptions;
    run.recompute_tokens = stats.recompute_tokens - stats_before.recompute_tokens;
    run
}

/// Repeats whole cycles until `budget` has passed (at least one);
/// checks every cycle against `first` (set by the first cycle run).
fn timed_cycles(
    batcher: &mut ContinuousBatcher,
    requests: &[SequenceRequest],
    budget: Duration,
    tracer: &mut Tracer,
    first: &mut Option<CycleRun>,
    report: &mut Report,
) -> (Phase, Vec<StepRec>) {
    let mut phase = Phase::begin();
    let mut steps = Vec::new();
    loop {
        let run = run_cycle(batcher, requests, tracer, &mut phase, report);
        steps.extend(run.steps.iter().copied());
        match first {
            None => {
                *first = Some(CycleRun {
                    padding_fraction: batcher.metrics().padding_fraction,
                    kv_fresh_allocations: batcher.kv_governor().kv_fresh_allocations,
                    ..run
                })
            }
            Some(f) => {
                if f.streams != run.streams {
                    report.failed += 1;
                    report
                        .problems
                        .push("a cycle's streams differ from the first cycle's".into());
                } else if !f.same_schedule(&run) {
                    report.failed += 1;
                    report.problems.push("a cycle's step schedule or simulated step times differ from the first cycle's".into());
                }
            }
        }
        phase.note_peak_rss();
        if phase.elapsed() >= budget {
            break;
        }
    }
    phase.finish();
    (phase, steps)
}

/// Streams of a `max_slots = 1` batcher (sequential, no KV pressure)
/// over the same requests: the bit-identity oracle.
fn oracle(requests: &[SequenceRequest]) -> Result<Vec<Vec<u32>>, String> {
    let mut batcher = ContinuousBatcher::new(
        GpuArch::tesla_t4(),
        BoltConfig::default(),
        LlmServeConfig {
            model: MODEL.into(),
            max_slots: 1,
            ..LlmServeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    for r in requests {
        batcher.submit(r.clone()).map_err(|e| e.to_string())?;
    }
    Ok(batcher
        .run_to_completion()
        .into_iter()
        .map(|r| r.tokens)
        .collect())
}

/// Runs the `llm` workload.
///
/// # Errors
///
/// Batcher construction or warm-boot compile failures.
pub fn run(args: &Args) -> Result<Report, String> {
    let requests = cycle(args.seed);
    let mut setup_tracer = Tracer::new(args.trace);
    let (setup_s, mut batcher) = crate::repeated_setup(|| build(&mut setup_tracer))?;

    let mut report = Report::default();
    let mut values = Values::default();
    let mut first = None;
    let mut off = Tracer::new(false);
    let (untraced, _) = timed_cycles(
        &mut batcher,
        &requests,
        args.untraced_budget(),
        &mut off,
        &mut first,
        &mut report,
    );
    let cycle1 = first.as_ref().expect("at least one cycle ran");

    // Output check against the sequential oracle, outside the timed phase.
    let expected = oracle(&requests)?;
    let mut lost = 0usize;
    let mut duplicated = 0usize;
    for (i, (got, want)) in cycle1.streams.iter().zip(&expected).enumerate() {
        lost += want.len().saturating_sub(got.len());
        duplicated += got.len().saturating_sub(want.len());
        if got != want {
            report.failed += 1;
            report.problems.push(format!(
                "sequence {i}: stream differs from the max_slots=1 oracle"
            ));
        }
    }
    if lost + duplicated > 0 {
        report
            .problems
            .push(format!("{lost} tokens lost, {duplicated} duplicated"));
    }

    let sim_total_us: f64 = cycle1.steps.iter().map(|s| s.report.sim_us).sum();
    let sim_us_per_op = sim_total_us / cycle1.generated.max(1) as f64;
    report.notes.push(format!(
        "cycle: {SEQUENCES} sequences, {} tokens, {} steps, {} preemptions; {} cycles timed",
        cycle1.generated,
        cycle1.steps.len(),
        cycle1.preemptions,
        untraced.samples() / cycle1.steps.len().max(1)
    ));
    report
        .notes
        .push(untraced.describe("per-step() CPU and wall times; ops are generated tokens"));
    report.notes.push(untraced.describe_wall());

    if !args.trace {
        crate::end_to_end(&mut values, setup_s, &untraced, sim_us_per_op);
        report.metrics = values.emit(END_TO_END);
        return Ok(report);
    }

    let mut tracer = setup_tracer;
    trace::set_counting(true);
    let allocs_before = trace::allocations();
    let (traced, traced_steps) = timed_cycles(
        &mut batcher,
        &requests,
        args.traced_budget(),
        &mut tracer,
        &mut first,
        &mut report,
    );
    let allocs = trace::allocations() - allocs_before;
    trace::set_counting(false);
    let cycle1 = first.as_ref().expect("at least one cycle ran");
    report
        .notes
        .push(crate::wall_and_overhead(&mut values, &untraced, &traced));
    values.set(
        "serve.continuous.heap_allocs_per_step",
        allocs as f64 / traced_steps.len().max(1) as f64,
    );

    // Wall time per step kind, from the traced phase.
    let decode: Vec<f64> = traced_steps
        .iter()
        .filter(|s| s.report.admitted == 0 && s.report.decoded > 0)
        .map(|s| s.wall_ns as f64 / 1e6)
        .collect();
    let prefill: Vec<f64> = traced_steps
        .iter()
        .filter(|s| s.report.admitted > 0)
        .map(|s| s.wall_ns as f64 / 1e6)
        .collect();
    let decode_step_ms = stats::mean(&decode);
    values.set("serve.continuous.decode_step_ms", decode_step_ms);
    values.set("serve.continuous.prefill_step_ms", stats::mean(&prefill));

    // Replays on the first cycle's inputs: the decode GEMMs at the M
    // values its pure decode steps saw, and attention at the KV lengths
    // its decoded tokens saw.
    let ms: Vec<usize> = cycle1
        .steps
        .iter()
        .filter(|s| s.report.admitted == 0 && s.report.decoded > 0)
        .map(|s| s.report.decoded)
        .take(REPLAY_STEPS)
        .collect();
    let decode_gemm_ms = replay_decode_gemms(&batcher, &ms, &mut tracer)?;
    values.set("core.plan.decode_gemm_ms", decode_gemm_ms);
    let attention_ms = replay_attention(cycle1, &mut tracer);
    values.set("models.llm.attention_ms", attention_ms);
    values.set(
        "serve.continuous.self_ms",
        decode_step_ms - decode_gemm_ms - attention_ms,
    );

    // Exact figures of the first cycle.
    let steps = &cycle1.steps;
    values.set(
        "serve.continuous.tokens_per_step",
        cycle1.generated as f64 / steps.len().max(1) as f64,
    );
    values.set("serve.continuous.padding_fraction", cycle1.padding_fraction);
    values.set("core.kv.preemptions", cycle1.preemptions as f64);
    values.set("core.kv.recompute_tokens", cycle1.recompute_tokens as f64);
    values.set(
        "core.kv.fresh_allocations",
        cycle1.kv_fresh_allocations as f64,
    );
    let sim_of = |pred: &dyn Fn(&StepReport) -> bool| {
        stats::mean(
            &steps
                .iter()
                .filter(|s| pred(&s.report))
                .map(|s| s.report.sim_us)
                .collect::<Vec<_>>(),
        )
    };
    values.set(
        "serve.continuous.sim_prefill_us",
        sim_of(&|r| r.admitted > 0),
    );
    values.set(
        "serve.continuous.sim_decode_step_us",
        sim_of(&|r| r.admitted == 0 && r.decoded > 0),
    );
    let ttft_ms: Vec<f64> = cycle1.ttft_us.iter().map(|us| us / 1e3).collect();
    // Each decoded token waited the simulated duration of its step.
    let itl_ms: Vec<f64> = steps
        .iter()
        .flat_map(|s| std::iter::repeat_n(s.report.sim_us / 1e3, s.report.decoded))
        .collect();
    let ttft_p = stats::sim_tail_percentile(ttft_ms.len());
    let itl_p = stats::sim_tail_percentile(itl_ms.len());
    values.set("serve.continuous.sim_ttft_p50_ms", stats::median(&ttft_ms));
    values.set(
        "serve.continuous.sim_ttft_tail_ms",
        stats::percentile(&ttft_ms, ttft_p),
    );
    values.set("serve.continuous.sim_itl_p50_ms", stats::median(&itl_ms));
    values.set(
        "serve.continuous.sim_itl_tail_ms",
        stats::percentile(&itl_ms, itl_p),
    );
    report.notes.push(format!(
        "sim TTFT tail p{ttft_p} of {} sequences; sim ITL tail p{itl_p} of {} decoded tokens",
        ttft_ms.len(),
        itl_ms.len()
    ));

    let compiled = replay_setup_compiles(&batcher, &mut tracer)?;
    crate::compile::compile_layers(&mut values, &tracer, &compiled);
    report.metrics = values.emit(PER_LAYER);
    report.tracer = Some(tracer);
    Ok(report)
}

/// Mean wall ms per decode step of the sub-model engines' `run_batched`
/// at each recorded M (every layer's QKV and post, then the LM head).
fn replay_decode_gemms(
    batcher: &ContinuousBatcher,
    ms: &[usize],
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let registry = batcher.registry();
    let mut subs = Vec::new();
    for (name, _) in warm_buckets() {
        let engines = registry
            .get(&name)
            .ok_or(format!("{name} not registered"))?;
        let sample: Vec<Tensor> = engines
            .sample_dims()
            .iter()
            .enumerate()
            .map(|(i, dims)| Tensor::randn(dims, DType::F16, 17 + i as u64))
            .collect();
        subs.push((engines, sample));
    }
    for (op, &m) in ms.iter().enumerate() {
        let span = tracer.enter("core.plan.decode_gemms", op as u64);
        for (engines, sample) in &subs {
            let (_, plan) = engines.engine_for(m).ok_or("no bucket for decode rows")?;
            let rows: Vec<Vec<Tensor>> = (0..m).map(|_| sample.clone()).collect();
            tracer
                .time("core.plan.run_batched", op as u64, || {
                    plan.run_batched(&rows)
                })
                .map_err(|e| e.to_string())?;
        }
        tracer.exit(span);
    }
    Ok(tracer
        .self_times()
        .get("core.plan.run_batched")
        .map_or(0.0, |t| t.self_ns as f64 / 1e6 / ms.len().max(1) as f64))
}

/// Mean wall ms per decode step of `DecoderModel::attention` at the KV
/// lengths the first cycle's decoded tokens saw (every layer).
fn replay_attention(cycle1: &CycleRun, tracer: &mut Tracer) -> f64 {
    let spec = llm_by_name(MODEL).expect("tiny-lm");
    let model = DecoderModel::new(spec, LlmServeConfig::default().salt);
    let h = spec.hidden;
    let mut rng = SplitMix::new(0, 5);
    let mut noise = |n: usize| -> Vec<f32> {
        (0..n)
            .map(|_| (rng.next_u64() % 2001) as f32 / 1000.0 - 1.0)
            .collect()
    };
    let keys = noise(spec.max_seq * h);
    let values = noise(spec.max_seq * h);
    let q = noise(h);
    let mut sink = 0.0f32;
    let mut calls = 0u64;
    for (stream, &prompt) in cycle1.streams.iter().zip(&cycle1.prompt_len) {
        // Token 0 comes from prefill; token i ≥ 1 decodes with the KV
        // cache holding prompt + i rows.
        for i in 1..stream.len() {
            let n = prompt + i;
            for _ in 0..spec.layers {
                let out = tracer.time("models.llm.attention", calls, || {
                    model.attention(&q, &[&keys[..n * h]], &[&values[..n * h]], n)
                });
                sink += out[0];
                calls += 1;
            }
        }
    }
    std::hint::black_box(sink);
    let decode_steps = cycle1
        .steps
        .iter()
        .filter(|s| s.report.decoded > 0)
        .count()
        .max(1);
    tracer
        .self_times()
        .get("models.llm.attention")
        .map_or(0.0, |t| t.self_ns as f64 / 1e6 / decode_steps as f64)
}

/// Replays the warm boot's compiles (every sub-model bucket, in boot
/// order, through one shared compiler) split at the layer boundaries.
fn replay_setup_compiles(
    batcher: &ContinuousBatcher,
    tracer: &mut Tracer,
) -> Result<Vec<crate::compile::Compiled>, String> {
    let compiler = crate::compile::passes_off_compiler();
    let mut compiled = Vec::new();
    for (name, buckets) in warm_buckets() {
        let build = batcher
            .registry()
            .builder(&name)
            .ok_or(format!("{name} has no graph builder"))?;
        for &bucket in buckets {
            let op = compiled.len() as u64;
            compiled.push(crate::compile::traced_compile(
                &compiler,
                &build(bucket),
                tracer,
                op,
            )?);
        }
    }
    Ok(compiled)
}
