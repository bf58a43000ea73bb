//! Serving-layer benchmark: offered load vs achieved throughput for the
//! dynamic-batching server over two compiled MLP engines.
//!
//! An open-loop pacer submits requests at a fixed arrival rate; the
//! server batches, executes functionally, and prices batches on the GPU
//! simulator. For each load level we report achieved throughput, mean
//! batch size, and the latency distribution — the classic serving curve:
//! batching efficiency rises with load until admission control (bounded
//! queues + deadlines) starts shedding.
//!
//! A second section isolates the execution-plan refactor: per-request
//! host latency of the prepacked slot executor (`ExecutionPlan::run`)
//! vs. the retained pre-refactor interpreter
//! (`ExecutionPlan::run_reference`), which repacks every constant and
//! clones every fetched intermediate on each request.
//!
//! Results print as tables and are emitted as JSON to
//! `target/experiments/serving_throughput.json` and `BENCH_serve.json`
//! at the workspace root.
//!
//! Run with: `cargo bench --bench serving_throughput`. With `-- --check`
//! the run also exits non-zero when the slot executor is slower than the
//! reference interpreter (speedup below 1.0) on any model, after the
//! JSON is written.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt::BoltConfig;
use bolt_bench::{fmt_us, write_results, Table};
use bolt_gpu_sim::GpuArch;
use bolt_serve::{BoltServer, EngineRegistry, MetricsSnapshot, ServeConfig, ServeError};
use bolt_tensor::{DType, Tensor};

const MODELS: [&str; 2] = ["mlp-small", "mlp-large"];

/// Models in the executor-comparison section (the load curve stays on
/// the MLP pair for comparability with earlier runs).
const EXECUTOR_MODELS: [&str; 3] = ["mlp-small", "mlp-large", "cnn-small"];

fn sample(model: &str, seed: u64) -> Vec<Tensor> {
    let dims: Vec<usize> = match model {
        "mlp-small" => vec![1, 128],
        "mlp-large" => vec![1, 256],
        "cnn-small" => vec![1, 3, 8, 8],
        other => panic!("unexpected model {other}"),
    };
    vec![Tensor::randn(&dims, DType::F16, seed)]
}

struct LevelRun {
    offered_rps: f64,
    requests: usize,
    rejected_admission: u64,
    stats: MetricsSnapshot,
}

/// Open-loop arrival process: request `i` is due at `start + i/rate`;
/// the pacer sleeps until each due time, so late service does not slow
/// the arrival process down (the server must absorb or shed the load).
fn run_level(registry: &Arc<EngineRegistry>, offered_rps: f64) -> LevelRun {
    let server = BoltServer::start(
        Arc::clone(registry),
        ServeConfig {
            workers: 4,
            max_batch: 8,
            batch_timeout: Duration::from_millis(1),
            queue_capacity: 512,
            default_deadline: Some(Duration::from_millis(250)),
            ..Default::default()
        },
    )
    .expect("valid serve config");

    // ~0.5 s of offered traffic per level, bounded for very slow/fast rates.
    let requests = ((offered_rps * 0.5) as usize).clamp(100, 4000);
    let start = Instant::now();
    let mut rejected_admission = 0u64;
    let mut handles = Vec::with_capacity(requests);
    for i in 0..requests {
        let due = start + Duration::from_secs_f64(i as f64 / offered_rps);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let model = MODELS[i % MODELS.len()];
        match server.submit(model, sample(model, i as u64), None) {
            Ok(handle) => handles.push(handle),
            Err(ServeError::QueueFull { .. }) => rejected_admission += 1,
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    for handle in &handles {
        handle.wait();
    }
    LevelRun {
        offered_rps,
        requests,
        rejected_admission,
        stats: server.shutdown(),
    }
}

struct ExecutorRow {
    model: &'static str,
    steps: usize,
    slot_us: f64,
    reference_us: f64,
    workspace: u64,
    total_values: u64,
}

/// Mean per-request host latency of the slot executor vs. the reference
/// interpreter on each serving model's batch-1 engine.
fn executor_comparison(registry: &Arc<EngineRegistry>) -> Vec<ExecutorRow> {
    let mut rows = Vec::new();
    for model in EXECUTOR_MODELS {
        let engines = registry.get(model).expect("registered above");
        let (_, plan) = engines.engine_for(1).expect("batch-1 engine registered");
        let input = sample(model, 42);
        // Warm both paths (first reference call may pack lazily).
        plan.run(&input).expect("run");
        plan.run_reference(&input).expect("run_reference");

        // Interleave the two paths so clock-frequency drift over the
        // measurement window lands on both sides equally.
        let iters = 300;
        let (mut slot_total, mut ref_total) = (0.0f64, 0.0f64);
        for _ in 0..iters {
            let start = Instant::now();
            plan.run(&input).expect("run");
            slot_total += start.elapsed().as_secs_f64();
            let start = Instant::now();
            plan.run_reference(&input).expect("run_reference");
            ref_total += start.elapsed().as_secs_f64();
        }
        let slot_us = slot_total * 1e6 / iters as f64;
        let reference_us = ref_total * 1e6 / iters as f64;

        rows.push(ExecutorRow {
            model,
            steps: plan.steps().len(),
            slot_us,
            reference_us,
            workspace: plan.workspace_bytes(),
            total_values: plan.total_value_bytes(),
        });
    }
    rows
}

struct BatchedRow {
    model: &'static str,
    batch: usize,
    batched_us: f64,
    reference_us: f64,
}

/// Mean per-batch latency of the batch-native `run_batched` (pack once
/// into pooled zero-padded buffers, run, slice) vs. the retained
/// stack/interpret/slice baseline `run_batched_reference`, on each
/// model's batch-8 engine at 6/8 occupancy (so the zero-padded partial
/// tail is exercised, as in real serving).
fn batched_comparison(registry: &Arc<EngineRegistry>) -> Vec<BatchedRow> {
    let mut rows = Vec::new();
    for model in EXECUTOR_MODELS {
        let engines = registry.get(model).expect("registered above");
        let (bucket, plan) = engines.engine_for(8).expect("batch-8 engine registered");
        let samples: Vec<Vec<Tensor>> = (0..6).map(|s| sample(model, 100 + s as u64)).collect();
        plan.run_batched(&samples).expect("run_batched");
        plan.run_batched(&samples).expect("run_batched warm");
        plan.run_batched_reference(&samples)
            .expect("run_batched_reference");

        // Interleaved for the same drift-cancellation reason as the
        // executor comparison above.
        let iters = 100;
        let (mut batched_total, mut ref_total) = (0.0f64, 0.0f64);
        for _ in 0..iters {
            let start = Instant::now();
            plan.run_batched(&samples).expect("run_batched");
            batched_total += start.elapsed().as_secs_f64();
            let start = Instant::now();
            plan.run_batched_reference(&samples)
                .expect("run_batched_reference");
            ref_total += start.elapsed().as_secs_f64();
        }
        let batched_us = batched_total * 1e6 / iters as f64;
        let reference_us = ref_total * 1e6 / iters as f64;

        rows.push(BatchedRow {
            model,
            batch: bucket,
            batched_us,
            reference_us,
        });
    }
    rows
}

fn main() {
    let check = std::env::args().any(|arg| arg == "--check");
    let registry = Arc::new(EngineRegistry::new(
        GpuArch::tesla_t4(),
        BoltConfig::default(),
    ));
    for model in MODELS {
        registry
            .register_zoo(model, &[1, 2, 4, 8])
            .expect("zoo model registers");
    }
    // cnn-small joins the executor sections only (batch-1 latency and
    // the batch-8 batched-path comparison), not the load curve.
    registry
        .register_zoo("cnn-small", &[1, 8])
        .expect("cnn registers");

    let mut table = Table::new(&[
        "offered rps",
        "requests",
        "achieved rps",
        "mean batch",
        "p50",
        "p99",
        "completed",
        "shed",
        "queue full",
    ]);
    let mut json_levels = Vec::new();

    for offered in [250.0, 1_000.0, 4_000.0, 16_000.0] {
        let run = run_level(&registry, offered);
        let s = &run.stats;
        table.row(&[
            format!("{:.0}", run.offered_rps),
            run.requests.to_string(),
            format!("{:.0}", s.throughput_rps),
            format!("{:.2}", s.mean_batch),
            fmt_us(s.latency_p50_us),
            fmt_us(s.latency_p99_us),
            s.completed.to_string(),
            s.deadline_shed.to_string(),
            run.rejected_admission.to_string(),
        ]);
        json_levels.push(format!(
            concat!(
                "    {{\"offered_rps\": {:.1}, \"requests\": {}, \"achieved_rps\": {:.1},\n",
                "     \"mean_batch\": {:.3}, \"batches\": {}, \"completed\": {}, ",
                "\"deadline_shed\": {}, \"rejected_queue_full\": {},\n",
                "     \"latency_us\": {{\"mean\": {:.1}, \"p50\": {:.1}, \"p95\": {:.1}, ",
                "\"p99\": {:.1}, \"max\": {:.1}}},\n",
                "     \"sim_images_per_sec\": {:.1}}}"
            ),
            run.offered_rps,
            run.requests,
            s.throughput_rps,
            s.mean_batch,
            s.batches,
            s.completed,
            s.deadline_shed,
            run.rejected_admission,
            s.latency_mean_us,
            s.latency_p50_us,
            s.latency_p95_us,
            s.latency_p99_us,
            s.latency_max_us,
            s.sim_images_per_sec,
        ));
    }

    table.print(
        "Serving throughput: dynamic batching under open-loop load \
         (4 workers, max_batch 8, 1 ms batch timeout, 250 ms deadline)",
    );
    table.write_csv("serving_throughput");

    // Per-request host cost: prepacked slot executor vs. the reference
    // interpreter that repacks constants and clones fetches per request.
    let executor = executor_comparison(&registry);
    let mut exec_table = Table::new(&[
        "model",
        "steps",
        "plan.run",
        "run_reference",
        "speedup",
        "workspace",
        "sum of values",
    ]);
    let mut json_exec = Vec::new();
    for row in &executor {
        exec_table.row(&[
            row.model.to_string(),
            row.steps.to_string(),
            fmt_us(row.slot_us),
            fmt_us(row.reference_us),
            format!("{:.2}x", row.reference_us / row.slot_us),
            format!("{} B", row.workspace),
            format!("{} B", row.total_values),
        ]);
        json_exec.push(format!(
            concat!(
                "    {{\"model\": \"{}\", \"steps\": {}, \"run_us\": {:.2}, ",
                "\"run_reference_us\": {:.2},\n     \"speedup\": {:.3}, ",
                "\"workspace_bytes\": {}, \"total_value_bytes\": {}}}"
            ),
            row.model,
            row.steps,
            row.slot_us,
            row.reference_us,
            row.reference_us / row.slot_us,
            row.workspace,
            row.total_values,
        ));
    }
    exec_table.print(
        "Execution plan: prepacked slot executor vs. per-request repacking \
         interpreter (batch-1 engines, mean of 300 requests)",
    );
    exec_table.write_csv("serving_executor");

    // Per-batch host cost: the batch-native packed path vs. the old
    // stack/interpret/slice baseline.
    let batched = batched_comparison(&registry);
    let mut batch_table = Table::new(&["model", "bucket", "run_batched", "reference", "speedup"]);
    let mut json_batched = Vec::new();
    for row in &batched {
        batch_table.row(&[
            row.model.to_string(),
            row.batch.to_string(),
            fmt_us(row.batched_us),
            fmt_us(row.reference_us),
            format!("{:.2}x", row.reference_us / row.batched_us),
        ]);
        json_batched.push(format!(
            concat!(
                "    {{\"model\": \"{}\", \"bucket\": {}, \"run_batched_us\": {:.2}, ",
                "\"reference_us\": {:.2}, \"speedup\": {:.3}}}"
            ),
            row.model,
            row.batch,
            row.batched_us,
            row.reference_us,
            row.reference_us / row.batched_us,
        ));
    }
    batch_table.print(
        "Batched path: batch-native run_batched vs. stack/interpret/slice \
         baseline (batch-8 engines at 6/8 occupancy, mean of 100 batches)",
    );
    batch_table.write_csv("serving_batched");

    let json = format!(
        "{{\n  \"models\": [\"mlp-small\", \"mlp-large\"],\n  \"workers\": 4,\n  \
         \"max_batch\": 8,\n  \"levels\": [\n{}\n  ],\n  \"executor\": [\n{}\n  ],\n  \
         \"batched\": [\n{}\n  ]\n}}\n",
        json_levels.join(",\n"),
        json_exec.join(",\n"),
        json_batched.join(",\n")
    );
    write_results("serving_throughput", "BENCH_serve.json", &json);

    if check {
        let mut regressed = false;
        for row in &executor {
            let speedup = row.reference_us / row.slot_us;
            let flag = if speedup < 1.0 {
                "  <-- REGRESSION"
            } else {
                ""
            };
            println!("{}: {speedup:.3}x{flag}", row.model);
            regressed |= speedup < 1.0;
        }
        if regressed {
            eprintln!("executor speedup fell below 1.0");
            std::process::exit(1);
        }
    }
}
