//! Autoregressive LLM serving benchmark (ISSUE 9): decode-step
//! throughput of the continuous batcher vs. the legacy pad-to-bucket
//! static cohort, swept over concurrent sequence counts on the
//! simulated-GPU clock.
//!
//! Each sweep point runs twice on the same batcher: a **cold** pass
//! (unseen M buckets served on heuristic fallback engines while the
//! online tuner compiles in the background) and a **warm** pass after
//! `wait_tuned` (every bucket hot-swapped to its tuned engine — the
//! steady-state numbers CI gates on). Every pass is checked
//! token-for-token against a sequential oracle (the same model at
//! `max_slots = 1`, one sequence at a time): `lost_tokens` /
//! `duplicated_tokens` must be zero and the streams bit-identical, or
//! batching changed the math.
//!
//! A third sweep (ISSUE 10) measures the **KV memory governor** under
//! pressure: the same 32-sequence workload at shrinking block budgets —
//! unconstrained, moderate, and severe — forcing watermark stalls and
//! preempt-and-recompute.
//!
//! Results print as tables and are emitted to
//! `target/experiments/llm_serving.json` and `BENCH_llm.json` at the
//! workspace root. After writing them the run exits 1, naming each
//! failed condition, when any cold, warm or pressure pass lost or
//! duplicated a token or diverged from its oracle; when warm continuous
//! tokens/sec scales less than 2.0x from 1 to 32 sequences; when, at 32
//! sequences, warm continuous batching falls below the static cohort's
//! tokens/sec or stops padding less; when a constrained warm pressure
//! pass never preempts or a warm pressure pass allocates fresh KV
//! blocks; or when warm goodput at the moderate budget falls below 0.7x
//! unconstrained. Every gated figure is simulated, none is wall clock.
//!
//! Run with: `cargo bench --bench llm_serving`

use bolt::BoltConfig;
use bolt_bench::{exit_on_failed_gates, write_results, Table};
use bolt_gpu_sim::GpuArch;
use bolt_models::{sample_prompts, PromptLengths};
use bolt_serve::{BatchMode, ContinuousBatcher, LlmServeConfig, SequenceRequest};

const CONCURRENCY: [usize; 3] = [1, 8, 32];
const MAX_SLOTS: usize = 8;
const PROMPT_SEED: u64 = 42;
/// Pressure sweep: sequences competing for the KV block pool.
const PRESSURE_SEQUENCES: usize = 32;
/// Block budgets for the pressure sweep: unconstrained (slots × full
/// context — preemption never fires), moderate, and severe. The
/// moderate budget is what the goodput gate compares against.
const PRESSURE_BUDGETS: [(&str, Option<usize>); 3] = [
    ("unconstrained", None),
    ("moderate", Some(16)),
    ("severe", Some(13)),
];

struct Workload {
    prompts: Vec<Vec<u32>>,
    max_new: Vec<usize>,
}

impl Workload {
    fn tiny_lm(sequences: usize) -> Workload {
        let prompts = sample_prompts(
            "tiny-lm",
            sequences,
            PromptLengths::uniform(4, 32),
            PROMPT_SEED,
        )
        .expect("tiny-lm in the zoo");
        // Ragged generation lengths: sequences retire at different
        // steps, which is where pad-to-bucket wastes flops.
        let max_new = (0..sequences).map(|i| 6 + i % 5).collect();
        Workload { prompts, max_new }
    }

    /// The pressure-sweep workload: same prompts, but generations long
    /// enough that sequences repeatedly cross 16-row block boundaries
    /// mid-decode — where the governor actually has to preempt — and
    /// long enough to amortize each preemption's recompute.
    fn tiny_lm_pressure(sequences: usize) -> Workload {
        let prompts = sample_prompts(
            "tiny-lm",
            sequences,
            PromptLengths::uniform(4, 32),
            PROMPT_SEED,
        )
        .expect("tiny-lm in the zoo");
        let max_new = (0..sequences).map(|i| 16 + i % 9).collect();
        Workload { prompts, max_new }
    }

    fn expected_tokens(&self) -> u64 {
        self.max_new.iter().map(|&n| n as u64).sum()
    }
}

struct Run {
    mode: &'static str,
    sequences: usize,
    tokens_per_sec: f64,
    ttft_p99_us: f64,
    padding_fraction: f64,
    steps: u64,
    expected_tokens: u64,
    generated_tokens: u64,
    lost_tokens: u64,
    duplicated_tokens: u64,
    bit_identical: bool,
}

fn batcher(max_slots: usize, mode: BatchMode) -> ContinuousBatcher {
    ContinuousBatcher::new(
        GpuArch::tesla_t4(),
        BoltConfig::default(),
        LlmServeConfig {
            max_slots,
            mode,
            ..LlmServeConfig::default()
        },
    )
    .expect("tiny-lm engines")
}

fn submit(batcher: &mut ContinuousBatcher, workload: &Workload, upto: usize) {
    for (prompt, &max_new) in workload.prompts.iter().zip(&workload.max_new).take(upto) {
        batcher
            .submit(SequenceRequest {
                prompt: prompt.clone(),
                max_new_tokens: max_new,
                deadline_us: None,
            })
            .expect("valid request");
    }
}

/// One sequence at a time through a fresh single-slot batcher: the
/// ground truth every batched sweep point must reproduce bit-for-bit.
fn oracle_streams(workload: &Workload) -> Vec<Vec<u32>> {
    let mut oracle = batcher(1, BatchMode::Continuous);
    workload
        .prompts
        .iter()
        .zip(&workload.max_new)
        .map(|(prompt, &max_new)| {
            oracle
                .submit(SequenceRequest {
                    prompt: prompt.clone(),
                    max_new_tokens: max_new,
                    deadline_us: None,
                })
                .expect("valid request");
            let mut done = oracle.run_to_completion();
            done.pop().expect("one sequence").tokens
        })
        .collect()
}

/// Snapshot of the cumulative batcher counters a pass is diffed against.
#[derive(Clone, Copy, Default)]
struct Baseline {
    sim_us: f64,
    generated: u64,
    steps: u64,
    real_flops: f64,
    launched_flops: f64,
}

fn baseline(batcher: &ContinuousBatcher) -> Baseline {
    let stats = batcher.stats();
    let metrics = batcher.metrics();
    Baseline {
        sim_us: batcher.sim_now_us(),
        generated: stats.generated_tokens,
        steps: stats.steps,
        real_flops: metrics.real_flops,
        launched_flops: metrics.launched_flops,
    }
}

/// Runs the workload once on `batcher` and reports the pass relative to
/// the counters at entry (so a warm pass excludes the cold pass).
fn run_pass(
    batcher: &mut ContinuousBatcher,
    label: &'static str,
    workload: &Workload,
    oracle: &[Vec<u32>],
) -> Run {
    let sequences = workload.prompts.len();
    let before = baseline(batcher);
    submit(batcher, workload, sequences);
    let mut results = batcher.run_to_completion();
    results.sort_by_key(|r| r.id);
    let after = baseline(batcher);

    let sim_us = (after.sim_us - before.sim_us).max(1.0);
    let generated = after.generated - before.generated;
    let launched = after.launched_flops - before.launched_flops;
    let real = after.real_flops - before.real_flops;

    let mut ttfts: Vec<f64> = results.iter().filter_map(|r| r.ttft_us).collect();
    ttfts.sort_by(|a, b| a.partial_cmp(b).expect("finite ttft"));
    let ttft_p99_us = ttfts
        .get(((ttfts.len() as f64 * 0.99).ceil() as usize).max(1) - 1)
        .copied()
        .unwrap_or(0.0);

    let mut lost = 0u64;
    let mut duplicated = 0u64;
    let mut bit_identical = results.len() == sequences;
    for (i, seq) in results.iter().enumerate() {
        let expected = &oracle[i];
        lost += expected.len().saturating_sub(seq.tokens.len()) as u64;
        duplicated += seq.tokens.len().saturating_sub(expected.len()) as u64;
        bit_identical &= &seq.tokens == expected;
    }

    Run {
        mode: label,
        sequences,
        tokens_per_sec: generated as f64 * 1e6 / sim_us,
        ttft_p99_us,
        padding_fraction: if launched > 0.0 {
            ((launched - real) / launched).max(0.0)
        } else {
            0.0
        },
        steps: after.steps - before.steps,
        expected_tokens: workload.expected_tokens(),
        generated_tokens: generated,
        lost_tokens: lost,
        duplicated_tokens: duplicated,
        bit_identical,
    }
}

/// One pressure-sweep measurement: a [`Run`] plus the KV governor's
/// preemption and allocation accounting for the pass.
struct PressureRun {
    budget: &'static str,
    kv_budget_blocks: Option<usize>,
    run: Run,
    preemptions: u64,
    preemption_fraction: f64,
    recompute_tokens: u64,
    /// Fresh block-tensor allocations during the pass; must be zero in
    /// the warm pass (steady state is served entirely from the pool).
    fresh_allocations_delta: u64,
}

/// Cold pass, tuner drain, warm pass at one KV block budget — the
/// governor's preemption counters diffed per pass.
fn pressure_point(
    budget_label: &'static str,
    budget: Option<usize>,
    oracle: &[Vec<u32>],
) -> (PressureRun, PressureRun) {
    let workload = Workload::tiny_lm_pressure(PRESSURE_SEQUENCES);
    let mut batcher = ContinuousBatcher::new(
        GpuArch::tesla_t4(),
        BoltConfig::default(),
        LlmServeConfig {
            max_slots: MAX_SLOTS,
            mode: BatchMode::Continuous,
            kv_budget_blocks: budget,
            // Admit optimistically (no decode-growth reserve): the sweep
            // measures preempt-and-recompute, not watermark throttling.
            kv_reserve_blocks: 0,
            ..LlmServeConfig::default()
        },
    )
    .expect("tiny-lm engines");
    let pass = |batcher: &mut ContinuousBatcher| {
        let stats_before = batcher.stats();
        let fresh_before = batcher.kv_governor().kv_fresh_allocations;
        let run = run_pass(batcher, "continuous", &workload, oracle);
        let stats_after = batcher.stats();
        let preemptions = stats_after.preemptions - stats_before.preemptions;
        PressureRun {
            budget: budget_label,
            kv_budget_blocks: budget,
            run,
            preemptions,
            preemption_fraction: preemptions as f64 / PRESSURE_SEQUENCES as f64,
            recompute_tokens: stats_after.recompute_tokens - stats_before.recompute_tokens,
            fresh_allocations_delta: batcher.kv_governor().kv_fresh_allocations - fresh_before,
        }
    };
    let cold = pass(&mut batcher);
    assert!(
        batcher.wait_tuned(std::time::Duration::from_secs(60)),
        "online tuner drains between passes"
    );
    let warm = pass(&mut batcher);
    (cold, warm)
}

/// Cold pass, tuner drain, warm pass — same batcher, same workload.
fn run_point(
    mode: BatchMode,
    label: &'static str,
    sequences: usize,
    oracle: &[Vec<u32>],
) -> (Run, Run) {
    let workload = Workload::tiny_lm(sequences);
    let mut batcher = batcher(MAX_SLOTS.min(sequences), mode);
    let cold = run_pass(&mut batcher, label, &workload, oracle);
    assert!(
        batcher.wait_tuned(std::time::Duration::from_secs(60)),
        "online tuner drains between passes"
    );
    let warm = run_pass(&mut batcher, label, &workload, oracle);
    (cold, warm)
}

fn json_rows(runs: &[Run]) -> String {
    runs.iter()
        .map(|r| {
            format!(
                "    {{\"mode\": \"{}\", \"sequences\": {}, \"tokens_per_sec\": {:.1}, \
                 \"ttft_p99_us\": {:.1}, \"padding_fraction\": {:.4}, \"steps\": {}, \
                 \"expected_tokens\": {}, \"generated_tokens\": {}, \"lost_tokens\": {}, \
                 \"duplicated_tokens\": {}, \"bit_identical\": {}}}",
                r.mode,
                r.sequences,
                r.tokens_per_sec,
                r.ttft_p99_us,
                r.padding_fraction,
                r.steps,
                r.expected_tokens,
                r.generated_tokens,
                r.lost_tokens,
                r.duplicated_tokens,
                r.bit_identical
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn pressure_json_rows(runs: &[PressureRun]) -> String {
    runs.iter()
        .map(|p| {
            let budget = p.kv_budget_blocks.map_or("null".into(), |b| b.to_string());
            format!(
                "    {{\"budget\": \"{}\", \"kv_budget_blocks\": {budget}, \
                 \"tokens_per_sec\": {:.1}, \"tokens_per_step\": {:.3}, \
                 \"ttft_p99_us\": {:.1}, \
                 \"preemptions\": {}, \"preemption_fraction\": {:.4}, \
                 \"recompute_tokens\": {}, \"fresh_allocations_delta\": {}, \
                 \"lost_tokens\": {}, \"duplicated_tokens\": {}, \
                 \"bit_identical\": {}}}",
                p.budget,
                p.run.tokens_per_sec,
                p.run.generated_tokens as f64 / p.run.steps.max(1) as f64,
                p.run.ttft_p99_us,
                p.preemptions,
                p.preemption_fraction,
                p.recompute_tokens,
                p.fresh_allocations_delta,
                p.run.lost_tokens,
                p.run.duplicated_tokens,
                p.run.bit_identical
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn pressure_table(runs: &[PressureRun]) -> Table {
    let mut table = Table::new(&[
        "budget",
        "blocks",
        "tokens/sec",
        "tok/step",
        "ttft p99 (us)",
        "preempt",
        "preempt frac",
        "recompute",
        "fresh allocs",
        "bit-identical",
    ]);
    for p in runs {
        table.row(&[
            p.budget.to_string(),
            p.kv_budget_blocks.map_or("∞".into(), |b| b.to_string()),
            format!("{:.0}", p.run.tokens_per_sec),
            format!(
                "{:.2}",
                p.run.generated_tokens as f64 / p.run.steps.max(1) as f64
            ),
            format!("{:.1}", p.run.ttft_p99_us),
            p.preemptions.to_string(),
            format!("{:.1}%", p.preemption_fraction * 100.0),
            p.recompute_tokens.to_string(),
            p.fresh_allocations_delta.to_string(),
            p.run.bit_identical.to_string(),
        ]);
    }
    table
}

fn table_for(runs: &[Run]) -> Table {
    let mut table = Table::new(&[
        "mode",
        "seqs",
        "tokens/sec",
        "ttft p99 (us)",
        "padding",
        "steps",
        "tokens (got/want)",
        "bit-identical",
    ]);
    for run in runs {
        table.row(&[
            run.mode.to_string(),
            run.sequences.to_string(),
            format!("{:.0}", run.tokens_per_sec),
            format!("{:.1}", run.ttft_p99_us),
            format!("{:.1}%", run.padding_fraction * 100.0),
            run.steps.to_string(),
            format!("{}/{}", run.generated_tokens, run.expected_tokens),
            run.bit_identical.to_string(),
        ]);
    }
    table
}

fn scaling(runs: &[Run], label: &str) -> f64 {
    let at = |n: usize| {
        runs.iter()
            .find(|r| r.mode == label && r.sequences == n)
            .map_or(0.0, |r| r.tokens_per_sec)
    };
    at(32) / at(1).max(1.0)
}

fn main() {
    // One oracle over the largest request set; smaller sweep points use
    // prefixes of the same seeded workload.
    let largest = Workload::tiny_lm(*CONCURRENCY.iter().max().expect("non-empty sweep"));
    let oracle = oracle_streams(&largest);

    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for &sequences in &CONCURRENCY {
        for (label, mode) in [
            ("continuous", BatchMode::Continuous),
            ("static-cohort", BatchMode::StaticCohort),
        ] {
            let (c, w) = run_point(mode, label, sequences, &oracle);
            cold.push(c);
            warm.push(w);
        }
    }
    table_for(&cold).print(
        "LLM decode-step serving on tiny-lm, cold start (simulated T4, \
         8 slots): unseen M buckets served on heuristic fallbacks",
    );
    table_for(&warm).print(
        "LLM decode-step serving on tiny-lm, warm (every bucket tuned \
         and hot-swapped): steady-state continuous vs pad-to-bucket",
    );
    println!(
        "\nwarm tokens/sec scaling 1 -> 32 sequences: continuous {:.2}x, static-cohort {:.2}x",
        scaling(&warm, "continuous"),
        scaling(&warm, "static-cohort")
    );

    // KV memory-pressure sweep: longer generations, shrinking block
    // budgets, its own oracle.
    let pressure_oracle = oracle_streams(&Workload::tiny_lm_pressure(PRESSURE_SEQUENCES));
    let mut pressure_cold = Vec::new();
    let mut pressure_warm = Vec::new();
    for &(label, budget) in &PRESSURE_BUDGETS {
        let (c, w) = pressure_point(label, budget, &pressure_oracle);
        pressure_cold.push(c);
        pressure_warm.push(w);
    }
    pressure_table(&pressure_warm).print(
        "KV governor under memory pressure, warm (tiny-lm, 32 sequences, \
         8 slots): preempt-and-recompute at shrinking block budgets",
    );
    // Goodput is gated on tokens per scheduler step, not tokens/sec:
    // step counts are fully deterministic (admission, watermark stalls,
    // preemption replays), while wall-clock rates inherit tuner
    // measurement noise that would make a CI ratio gate flaky.
    let goodput_ratio = {
        let at = |label: &str| {
            pressure_warm
                .iter()
                .find(|p| p.budget == label)
                .map_or(0.0, |p| {
                    p.run.generated_tokens as f64 / p.run.steps.max(1) as f64
                })
        };
        at("moderate") / at("unconstrained").max(1e-9)
    };
    println!(
        "\nwarm goodput (tokens/step) at the moderate budget: {:.2}x unconstrained",
        goodput_ratio
    );

    let json = format!(
        "{{\n  \"model\": \"tiny-lm\",\n  \"max_slots\": {MAX_SLOTS},\n  \
         \"concurrency\": [1, 8, 32],\n  \"cold\": [\n{}\n  ],\n  \
         \"warm\": [\n{}\n  ],\n  \
         \"warm_continuous_scaling_1_to_32\": {:.3},\n  \
         \"pressure\": {{\n  \"sequences\": {PRESSURE_SEQUENCES},\n  \
         \"cold\": [\n{}\n  ],\n  \"warm\": [\n{}\n  ],\n  \
         \"warm_moderate_goodput_ratio\": {:.3}\n  }}\n}}\n",
        json_rows(&cold),
        json_rows(&warm),
        scaling(&warm, "continuous"),
        pressure_json_rows(&pressure_cold),
        pressure_json_rows(&pressure_warm),
        goodput_ratio,
    );
    write_results("llm_serving", "BENCH_llm.json", &json);

    // Gates, on the unrounded figures, after the results are written.
    let mut failed = Vec::new();
    let passes = [("cold", &cold), ("warm", &warm)]
        .into_iter()
        .flat_map(|(pass, runs)| {
            runs.iter()
                .map(move |r| (format!("{pass} {} at {} sequences", r.mode, r.sequences), r))
        });
    let pressure = [("cold", &pressure_cold), ("warm", &pressure_warm)]
        .into_iter()
        .flat_map(|(pass, runs)| {
            runs.iter()
                .map(move |p| (format!("pressure {pass} {} budget", p.budget), &p.run))
        });
    for (label, r) in passes.chain(pressure) {
        if r.lost_tokens != 0 || r.duplicated_tokens != 0 {
            failed.push(format!(
                "{label} lost {} and duplicated {} tokens",
                r.lost_tokens, r.duplicated_tokens
            ));
        }
        if !r.bit_identical {
            failed.push(format!("{label} diverged from the sequential oracle"));
        }
    }
    let continuous_scaling = scaling(&warm, "continuous");
    if continuous_scaling < 2.0 {
        failed.push(format!(
            "warm continuous tokens/sec scales {continuous_scaling:.3}x from 1 to 32 \
             sequences, below 2.0x"
        ));
    }
    let at_32 = |mode: &str| {
        warm.iter()
            .find(|r| r.mode == mode && r.sequences == 32)
            .expect("32-sequence point ran")
    };
    let (cont, stat) = (at_32("continuous"), at_32("static-cohort"));
    if cont.tokens_per_sec < stat.tokens_per_sec {
        failed.push(format!(
            "warm continuous {:.1} tokens/sec at 32 sequences is below static-cohort {:.1}",
            cont.tokens_per_sec, stat.tokens_per_sec
        ));
    }
    if cont.padding_fraction >= stat.padding_fraction {
        failed.push(format!(
            "warm continuous padding {:.4} at 32 sequences is not below static-cohort {:.4}",
            cont.padding_fraction, stat.padding_fraction
        ));
    }
    for p in &pressure_warm {
        if p.kv_budget_blocks.is_some() && p.preemptions == 0 {
            failed.push(format!("pressure warm {} budget never preempted", p.budget));
        }
        if p.fresh_allocations_delta != 0 {
            failed.push(format!(
                "pressure warm {} budget allocated {} fresh KV blocks",
                p.budget, p.fresh_allocations_delta
            ));
        }
    }
    if goodput_ratio < 0.7 {
        failed.push(format!(
            "warm goodput at the moderate budget is {goodput_ratio:.3}x unconstrained, below 0.7x"
        ));
    }
    exit_on_failed_gates(&failed);
}
