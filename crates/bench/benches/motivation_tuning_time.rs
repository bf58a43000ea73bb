//! Section 2.1 motivation: "existing auto-tuners spend days or weeks when
//! models have many different workloads, e.g., ResNet-152 and
//! Inception-V3" (AutoTVM: 10 hours on x86, 7 days on GPUs for ResNet-50
//! alone). This bench measures the task counts and tuning times on the
//! deep-model family — the workloads-scaling argument behind Figure 10b.

use bolt::{BoltCompiler, BoltConfig};
use bolt_ansor::{AnsorTuner, SECONDS_PER_TRIAL};
use bolt_bench::{fmt_seconds, Table};
use bolt_gpu_sim::GpuArch;
use bolt_graph::extract_workloads;
use bolt_graph::passes::PassManager;
use bolt_models::model_by_name;

fn main() {
    let t4 = GpuArch::tesla_t4();
    let batch = 32;
    let mut table = Table::new(&[
        "model",
        "unique tasks",
        "Bolt tuning (no pruning)",
        "Bolt tuning (pruned)",
        "Ansor (900 trials/task)",
        "speedup",
        "Bolt (img/s)",
        "Ansor (img/s)",
    ]);

    for name in ["resnet-50", "resnet-101", "resnet-152", "inception-v3"] {
        let info = model_by_name(name, batch);
        let graph = PassManager::deployment().run(&info.graph).expect("passes");
        let tasks = extract_workloads(&graph).len();

        let compiler = BoltCompiler::new(t4.clone(), BoltConfig::default());
        let model = compiler.compile(&graph).expect("compiles");
        let bolt_report = model.time();
        let exhaustive = BoltCompiler::new(
            t4.clone(),
            BoltConfig {
                candidate_pruning: false,
                ..BoltConfig::default()
            },
        )
        .compile(&graph)
        .expect("compiles without pruning");
        assert_eq!(
            exhaustive.time().total_us.to_bits(),
            bolt_report.total_us.to_bits(),
            "{name}: pruning must not change the selected kernels"
        );

        let tuner = AnsorTuner::with_trials(&t4, 900);
        let tuning = tuner.tune_graph(&graph);
        let backend = bolt::AnsorBackend::with_trials(&t4, 900);
        let ansor_report = backend.time_graph(&graph, &tuning).expect("timed");

        table.row(&[
            name.to_string(),
            tasks.to_string(),
            fmt_seconds(exhaustive.tuning.tuning_seconds),
            fmt_seconds(model.tuning.tuning_seconds),
            fmt_seconds(tuning.tuning_seconds),
            format!("{:.1}x", ansor_report.total_us / bolt_report.total_us),
            format!("{:.0}", bolt_report.images_per_sec(batch)),
            format!("{:.0}", batch as f64 / (ansor_report.total_us / 1e6)),
        ]);
        println!(
            "{name}: {tasks} tasks; Bolt {} (no pruning) / {} (pruned) vs Ansor {}",
            fmt_seconds(exhaustive.tuning.tuning_seconds),
            fmt_seconds(model.tuning.tuning_seconds),
            fmt_seconds(tuning.tuning_seconds)
        );
    }
    table.print("Motivation (Section 2.1): tuning time scales with unique workloads");
    table.write_csv("motivation_tuning_time");
    println!(
        "\npaper: AutoTVM needs ~7 days on GPUs for ResNet-50; Ansor at 900\n\
         trials/task needs {} for Inception-V3-class task counts; Bolt stays\n\
         in minutes because sample programs are pre-generated per architecture.",
        fmt_seconds(900.0 * 67.0 * SECONDS_PER_TRIAL)
    );
}
