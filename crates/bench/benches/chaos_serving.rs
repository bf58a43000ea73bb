//! Chaos serving benchmark: what hardware-native serving costs when the
//! world misbehaves. For each of three fixed seeds, a cold online server
//! takes a request storm while the seeded fault plan injects 30% compile
//! failures, a mid-batch worker panic, worker/tuner kills, and slow
//! batches — on top of a pre-corrupted autotune cache. We report, per
//! seed:
//!
//! * **availability** — completed requests / accepted requests (every
//!   non-completion is a typed rejection, never a hang),
//! * **p50/p99 latency under faults** — simulated end-to-end time of the
//!   completed requests, and
//! * **time-to-recovery** — wall-clock from the instant the fault plan
//!   is uninstalled until every `(model, bucket)` key is `Ready` and no
//!   circuit breaker is open (the self-healing loop: backoff retries +
//!   half-open probes). The mean across seeds is the headline MTTR.
//!
//! Results print as a table and are emitted to
//! `target/experiments/chaos_serving.json` and `BENCH_chaos.json` at the
//! workspace root.
//!
//! Run with: `cargo bench --bench chaos_serving --features chaos`

use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt::faults::{self, ChaosConfig};
use bolt::BoltConfig;
use bolt_bench::{fmt_us, percentile, write_results, Table};
use bolt_gpu_sim::GpuArch;
use bolt_models::zoo::sample_inputs;
use bolt_serve::{BoltServer, EngineRegistry, OnlineConfig, Outcome, ServeConfig};

const SEEDS: [u64; 3] = [7, 42, 20260806];
const REQUESTS: usize = 200;
const CLIENTS: usize = 4;

struct Row {
    seed: u64,
    accepted: u64,
    completed: u64,
    rejected: u64,
    availability: f64,
    p50_us: f64,
    p99_us: f64,
    recovery_ms: f64,
    compiles_failed: u64,
    worker_restarts: u64,
    tuner_restarts: u64,
}

fn chaos_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        compile_fail_ratio: 0.3,
        batch_panics: vec![2],
        worker_kills: vec![5],
        tuner_kills: vec![1],
        batch_stall_ratio: 0.05,
        batch_stall: Duration::from_micros(200),
        ..ChaosConfig::default()
    }
}

fn run_seed(seed: u64) -> Row {
    let dir = std::env::temp_dir().join(format!("bolt-chaos-bench-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cache = dir.join("autotune.tune");
    // The server warm-starts against a corrupted cache: load quarantines
    // it and the storm rebuilds a valid one.
    std::fs::write(&cache, b"bolt-autotune-cache v2 arch=sm75\ngarbage entry\n").expect("corrupt");

    let reg = Arc::new(EngineRegistry::new(
        GpuArch::tesla_t4(),
        BoltConfig {
            cache_path: Some(cache),
            ..BoltConfig::default()
        },
    ));
    reg.register_zoo_dynamic("mlp-small").expect("register");

    let guard = faults::install(chaos_config(seed));
    let server = Arc::new(
        BoltServer::start(
            Arc::clone(&reg),
            ServeConfig {
                workers: 2,
                max_batch: 8,
                batch_timeout: Duration::from_millis(1),
                queue_capacity: 1024,
                online: Some(OnlineConfig {
                    tuner_threads: 2,
                    retry_backoff: Duration::from_millis(5),
                    retry_backoff_max: Duration::from_millis(50),
                    breaker_threshold: 4,
                    breaker_cooldown: Duration::from_millis(20),
                    ..OnlineConfig::default()
                }),
                ..Default::default()
            },
        )
        .expect("valid serve config"),
    );

    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    (0..REQUESTS / CLIENTS)
                        .map(|i| {
                            let sample_seed = (t * 1000 + i) as u64;
                            server
                                .submit(
                                    "mlp-small",
                                    sample_inputs("mlp-small", sample_seed).unwrap(),
                                    None,
                                )
                                .expect("admitted")
                                .wait()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });

    let manager = server.online().expect("online mode");
    assert!(manager.wait_idle(Duration::from_secs(300)), "tuner drains");

    // Faults stop; the clock on recovery starts. Traffic (re-)requests
    // failed buckets, backoff gates retries, breaker probes half-open —
    // time until everything is Ready again is the recovery time.
    let recovery_started = Instant::now();
    drop(guard);
    loop {
        let snap = manager.snapshot();
        if snap.failed_buckets.is_empty() && snap.tripped_models.is_empty() {
            break;
        }
        assert!(
            recovery_started.elapsed() < Duration::from_secs(120),
            "recovery must converge, still failed: {:?}",
            snap.failed_buckets
        );
        std::thread::sleep(Duration::from_millis(10));
        let engines = reg.get("mlp-small").expect("registered");
        for failed in &snap.failed_buckets {
            let _ = manager.acquire(&engines, failed.bucket);
        }
        assert!(manager.wait_idle(Duration::from_secs(300)));
    }
    let recovery_ms = recovery_started.elapsed().as_secs_f64() * 1e3;

    let mut latencies: Vec<f64> = Vec::new();
    let mut completed = 0u64;
    let mut rejected = 0u64;
    for outcome in &outcomes {
        match outcome {
            Outcome::Completed(response) => {
                completed += 1;
                latencies.push(response.latency.total_us);
            }
            Outcome::Rejected { .. } => rejected += 1,
            Outcome::DeadlineExceeded { .. } => unreachable!("no deadlines set"),
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let stats = Arc::try_unwrap(server).expect("clients joined").shutdown();
    assert_eq!(stats.resolved(), stats.accepted, "zero lost requests");
    let online = stats.online.expect("online counters");
    let _ = std::fs::remove_dir_all(&dir);
    Row {
        seed,
        accepted: stats.accepted,
        completed,
        rejected,
        availability: completed as f64 / stats.accepted.max(1) as f64 * 100.0,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        recovery_ms,
        compiles_failed: online.compiles_failed,
        worker_restarts: stats.worker_restarts,
        tuner_restarts: online.tuner_restarts,
    }
}

fn json_rows(rows: &[Row]) -> String {
    rows.iter()
        .map(|row| {
            format!(
                concat!(
                    "    {{\"seed\": {}, \"accepted\": {}, \"completed\": {}, ",
                    "\"rejected\": {}, \"availability_pct\": {:.2},\n     ",
                    "\"p50_us\": {:.3}, \"p99_us\": {:.3}, \"recovery_ms\": {:.2}, ",
                    "\"compiles_failed\": {}, \"worker_restarts\": {}, \"tuner_restarts\": {}}}"
                ),
                row.seed,
                row.accepted,
                row.completed,
                row.rejected,
                row.availability,
                row.p50_us,
                row.p99_us,
                row.recovery_ms,
                row.compiles_failed,
                row.worker_restarts,
                row.tuner_restarts,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    // Injected panics are the benchmark working as intended; keep their
    // backtraces out of the report. Real panics still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let rows: Vec<Row> = SEEDS.iter().map(|&seed| run_seed(seed)).collect();

    let mut table = Table::new(&[
        "seed",
        "accepted",
        "completed",
        "availability",
        "p50",
        "p99",
        "recovery",
        "failed compiles",
        "restarts (w/t)",
    ]);
    for row in &rows {
        table.row(&[
            row.seed.to_string(),
            row.accepted.to_string(),
            row.completed.to_string(),
            format!("{:.2}%", row.availability),
            fmt_us(row.p50_us),
            fmt_us(row.p99_us),
            format!("{:.0} ms", row.recovery_ms),
            row.compiles_failed.to_string(),
            format!("{}/{}", row.worker_restarts, row.tuner_restarts),
        ]);
    }
    table.print(
        "Serving under seeded faults: 30% compile failures, worker panic \
         + kills, tuner kill, slow batches, corrupted autotune cache \
         (200 requests per seed)",
    );

    let mean_availability = rows.iter().map(|r| r.availability).sum::<f64>() / rows.len() as f64;
    let mean_recovery_ms = rows.iter().map(|r| r.recovery_ms).sum::<f64>() / rows.len() as f64;
    let worst_p99 = rows.iter().map(|r| r.p99_us).fold(0.0, f64::max);
    println!(
        "\nmean availability {mean_availability:.2}%, mean time-to-recovery \
         {mean_recovery_ms:.0} ms, worst p99 under faults {}",
        fmt_us(worst_p99)
    );

    let json = format!(
        "{{\n  \"seeds\": [7, 42, 20260806],\n  \"requests_per_seed\": {REQUESTS},\n  \
         \"runs\": [\n{}\n  ],\n  \"mean_availability_pct\": {:.2},\n  \
         \"mean_recovery_ms\": {:.2},\n  \"worst_p99_us\": {:.3}\n}}\n",
        json_rows(&rows),
        mean_availability,
        mean_recovery_ms,
        worst_p99,
    );
    write_results("chaos_serving", "BENCH_chaos.json", &json);
}
