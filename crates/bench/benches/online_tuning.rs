//! Online tuning benchmark: how quickly a server that starts with **no**
//! compiled engines converges to hardware-native performance.
//!
//! For each serving model and batch bucket, a cold [`bolt_serve::OnlineEngineManager`]
//! is asked for an unseen shape: the request is served immediately on the
//! heuristic default-config fallback while the bucket compiles in the
//! background. We report
//!
//! * the **fallback vs tuned latency gap** — simulated batch time of the
//!   heuristic engine vs. the tuned engine that hot-swaps in, and
//! * the **time to optimal engine** — real wall-clock from the first miss
//!   until the tuner has the tuned engine installed, plus the *simulated*
//!   tuning time the paper's cost model charges for the same compile.
//!
//! A second section restarts the manager against the autotune cache the
//! first run persisted: the same buckets come back with zero simulated
//! tuning time — the paper's "tuning fast enough to do at deployment
//! time" argument, reduced to a table.
//!
//! Results print as tables and are emitted to
//! `target/experiments/online_tuning.json` and `BENCH_online.json` at the
//! workspace root.
//!
//! Run with: `cargo bench --bench online_tuning`

use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt::BoltConfig;
use bolt_bench::{fmt_us, write_results, Table};
use bolt_gpu_sim::GpuArch;
use bolt_serve::{EngineRegistry, OnlineConfig, OnlineEngineManager};

const MODELS: [&str; 3] = ["mlp-small", "mlp-large", "cnn-small"];
const BUCKETS: [usize; 3] = [1, 4, 8];

struct Row {
    model: &'static str,
    bucket: usize,
    fallback_us: f64,
    tuned_us: f64,
    wall_ms_to_tuned: f64,
    sim_tuning_s: f64,
}

fn registry(cache: &std::path::Path) -> Arc<EngineRegistry> {
    let reg = Arc::new(EngineRegistry::new(
        GpuArch::tesla_t4(),
        BoltConfig {
            cache_path: Some(cache.to_path_buf()),
            ..BoltConfig::default()
        },
    ));
    for model in MODELS {
        reg.register_zoo_dynamic(model)
            .expect("zoo model registers");
    }
    reg
}

/// One pass over every (model, bucket): miss → fallback engine → wait for
/// the background compile → tuned engine. Returns the per-bucket rows.
fn run_pass(reg: &Arc<EngineRegistry>) -> Vec<Row> {
    let manager = OnlineEngineManager::new(Arc::clone(reg), OnlineConfig::default());
    let mut rows = Vec::new();
    for model in MODELS {
        for bucket in BUCKETS {
            let engines = reg.get(model).expect("registered");
            let before = manager.snapshot();
            let start = Instant::now();
            let miss = manager
                .acquire(&engines, bucket)
                .expect("fallback placement");
            assert!(miss.fallback, "cold bucket must be a fallback");
            assert!(
                manager.wait_idle(Duration::from_secs(300)),
                "background compile finishes"
            );
            let wall_ms_to_tuned = start.elapsed().as_secs_f64() * 1e3;
            let fresh = reg.get(model).expect("registered");
            let tuned = manager.acquire(&fresh, bucket).expect("tuned placement");
            assert!(!tuned.fallback, "tuned engine serves after hot-swap");
            let after = manager.snapshot();
            rows.push(Row {
                model,
                bucket,
                fallback_us: miss.engine.time().total_us * miss.launches as f64,
                tuned_us: tuned.engine.time().total_us,
                wall_ms_to_tuned,
                sim_tuning_s: after.tuning_seconds - before.tuning_seconds,
            });
        }
    }
    rows
}

fn table_for(rows: &[Row]) -> Table {
    let mut table = Table::new(&[
        "model",
        "bucket",
        "fallback",
        "tuned",
        "gap",
        "time-to-tuned",
        "sim tuning",
    ]);
    for row in rows {
        table.row(&[
            row.model.to_string(),
            row.bucket.to_string(),
            fmt_us(row.fallback_us),
            fmt_us(row.tuned_us),
            format!("{:.3}x", row.fallback_us / row.tuned_us),
            format!("{:.1} ms", row.wall_ms_to_tuned),
            format!("{:.1} s", row.sim_tuning_s),
        ]);
    }
    table
}

fn json_rows(rows: &[Row]) -> String {
    rows.iter()
        .map(|row| {
            format!(
                concat!(
                    "    {{\"model\": \"{}\", \"bucket\": {}, \"fallback_us\": {:.3}, ",
                    "\"tuned_us\": {:.3},\n     \"gap\": {:.4}, ",
                    "\"wall_ms_to_tuned\": {:.2}, \"sim_tuning_seconds\": {:.2}}}"
                ),
                row.model,
                row.bucket,
                row.fallback_us,
                row.tuned_us,
                row.fallback_us / row.tuned_us,
                row.wall_ms_to_tuned,
                row.sim_tuning_s,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let dir = std::env::temp_dir().join(format!("bolt-online-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cache = dir.join("autotune.tune");

    // Cold pass: nothing compiled, nothing cached.
    let cold = run_pass(&registry(&cache));
    table_for(&cold).print(
        "Online tuning, cold start: fallback vs tuned latency and \
         time to the optimal engine (per model and batch bucket)",
    );

    // Warm pass: a fresh registry + manager against the persisted cache.
    // Engines still compile on demand, but every workload is cached, so
    // the simulated tuning cost collapses to zero.
    let warm = run_pass(&registry(&cache));
    table_for(&warm).print(
        "Online tuning, warm restart: same buckets off the persisted \
         autotune cache (simulated tuning time must be zero)",
    );
    let total_cold_tuning: f64 = cold.iter().map(|r| r.sim_tuning_s).sum();
    let total_warm_tuning: f64 = warm.iter().map(|r| r.sim_tuning_s).sum();
    println!("\nsimulated tuning: cold {total_cold_tuning:.1} s -> warm {total_warm_tuning:.1} s");

    let json = format!(
        "{{\n  \"models\": [\"mlp-small\", \"mlp-large\", \"cnn-small\"],\n  \
         \"buckets\": [1, 4, 8],\n  \"cold\": [\n{}\n  ],\n  \"warm\": [\n{}\n  ],\n  \
         \"cold_tuning_seconds\": {:.2},\n  \"warm_tuning_seconds\": {:.2}\n}}\n",
        json_rows(&cold),
        json_rows(&warm),
        total_cold_tuning,
        total_warm_tuning,
    );
    write_results("online_tuning", "BENCH_online.json", &json);
    let _ = std::fs::remove_dir_all(&dir);
}
