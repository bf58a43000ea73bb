//! Compile-time benchmark for the profiling engine: how long the
//! profiler takes to resolve a real model's workload set exhaustively
//! (pruning off) vs with candidate pruning. Both arms measure serially
//! on the calling thread through [`BoltProfiler::profile_batch`], so the
//! gap is pruning alone.
//!
//! Workload sets: ResNet-50 (batch 32, the paper's CNN testbed) and the
//! BERT GEMM list of Figures 1/8a. Results print as a table and are
//! emitted as JSON to `target/experiments/profiling_engine.json`.
//!
//! Run with: `cargo bench --bench profiling_engine`

use std::time::Instant;

use bolt::{BoltCompiler, BoltConfig, BoltProfiler, ProfileTask, ProfilerStats};
use bolt_bench::{experiments_dir, fmt_us, write_bench_json, Table};
use bolt_cutlass::Epilogue;
use bolt_gpu_sim::GpuArch;
use bolt_models::{bert, model_by_name};
use bolt_tensor::DType;

/// Timed repetitions per configuration. Each rep resolves the full
/// workload set on a fresh (cold-cache) profiler; the reported wall time
/// is the fastest rep — single-shot wall measurements at this scale
/// (hundreds of microseconds) are dominated by scheduler noise, and the
/// minimum is the robust estimator of how fast the engine actually runs.
const REPS: usize = 7;

struct EngineRun {
    wall_us: f64,
    stats: ProfilerStats,
    winners: Vec<Option<bolt::ProfiledKernel>>,
}

fn run_engine(arch: &GpuArch, tasks: &[ProfileTask], pruning: bool) -> EngineRun {
    let mut wall_us = f64::INFINITY;
    let mut last = None;
    // Rep 0 is an untimed warmup (page faults, lazy allocator growth).
    for rep in 0..=REPS {
        let mut profiler = BoltProfiler::new(arch, 30);
        profiler.set_pruning(pruning);
        let start = Instant::now();
        profiler.profile_batch(tasks);
        let elapsed = start.elapsed().as_secs_f64() * 1e6;
        if rep > 0 {
            wall_us = wall_us.min(elapsed);
        }
        last = Some(profiler);
    }
    // Winner collection and stats read the (deterministic) last rep.
    let profiler = last.expect("at least one rep ran");
    let winners = tasks
        .iter()
        .map(|task| profiler.profile_task(task))
        .collect();
    EngineRun {
        wall_us,
        stats: profiler.stats(),
        winners,
    }
}

fn resnet50_tasks(arch: &GpuArch) -> Vec<ProfileTask> {
    let graph = model_by_name("resnet-50", 32).graph;
    BoltCompiler::new(arch.clone(), BoltConfig::default())
        .profile_tasks(&graph)
        .expect("resnet-50 lowers")
}

fn bert_tasks() -> Vec<ProfileTask> {
    bert::gemm_workloads()
        .into_iter()
        .map(|(_, problem)| ProfileTask::Gemm {
            problem,
            epilogue: Epilogue::linear(DType::F16),
        })
        .collect()
}

fn main() {
    let arch = GpuArch::tesla_t4();
    let mut table = Table::new(&[
        "workload set",
        "tasks",
        "unique",
        "sequential",
        "pruned",
        "speedup",
        "measured",
        "pruned",
        "skipped",
    ]);
    let mut json_sets = Vec::new();

    for (name, tasks) in [
        ("resnet-50", resnet50_tasks(&arch)),
        ("bert-gemms", bert_tasks()),
    ] {
        let sequential = run_engine(&arch, &tasks, false);
        let engine = run_engine(&arch, &tasks, true);
        assert_eq!(
            engine.winners, sequential.winners,
            "{name}: pruning must select bit-identical winners"
        );

        let speedup = sequential.wall_us / engine.wall_us;
        let enumerated = engine.stats.measurements + engine.stats.pruned;
        let skipped = engine.stats.pruned as f64 / enumerated.max(1) as f64;
        table.row(&[
            name.to_string(),
            tasks.len().to_string(),
            engine.stats.workloads.to_string(),
            fmt_us(sequential.wall_us),
            fmt_us(engine.wall_us),
            format!("{speedup:.2}x"),
            engine.stats.measurements.to_string(),
            engine.stats.pruned.to_string(),
            format!("{:.0}%", skipped * 100.0),
        ]);
        json_sets.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"tasks\": {}, \"unique_workloads\": {},\n",
                "     \"sequential\": {{\"wall_us\": {:.1}, \"measurements\": {}}},\n",
                "     \"pruned\": {{\"wall_us\": {:.1}, \"measurements\": {}, \"pruned\": {}}},\n",
                "     \"speedup\": {:.3}, \"measurements_skipped_fraction\": {:.3}, \"winners_match\": true}}"
            ),
            name,
            tasks.len(),
            engine.stats.workloads,
            sequential.wall_us,
            sequential.stats.measurements,
            engine.wall_us,
            engine.stats.measurements,
            engine.stats.pruned,
            speedup,
            skipped,
        ));
    }

    table.print("Profiling engine: exhaustive search vs candidate pruning");
    table.write_csv("profiling_engine");

    let json = format!(
        "{{\n  \"workload_sets\": [\n{}\n  ]\n}}\n",
        json_sets.join(",\n")
    );
    let dir = experiments_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("profiling_engine.json");
    if std::fs::write(&path, &json).is_ok() {
        println!("wrote {}", path.display());
    }
    // Headline compile-time result at the workspace root for CI.
    write_bench_json("BENCH_compile.json", &json);
}
