//! Figure 10: end-to-end inference speed and tuning time on six
//! widely-used CNNs (batch 32, FP16, simulated Tesla T4).
//!
//! Paper claims: Bolt is **4.2× faster on VGG**, **1.5× on ResNet**,
//! **2.6× on RepVGG** (2.8× average), finishes tuning **within 20
//! minutes** per model while Ansor (900 trials × #tasks) takes **~12
//! hours** on average.
//!
//! Bolt's tuning time is printed twice. The paper's profiler measures
//! its whole candidate shortlist, which is what the "within 20 minutes"
//! claim counts; the second compile here turns roofline pruning off to
//! charge exactly that. The pruned figure is what this reproduction
//! charges by default. Pruning is admissible, so both compiles must
//! select the same kernels and price to the same latency.

use bolt::{AnsorBackend, BoltCompiler, BoltConfig};
use bolt_bench::{fmt_seconds, Table};
use bolt_gpu_sim::GpuArch;
use bolt_graph::passes::PassManager;
use bolt_models::{model_by_name, FIGURE10_MODELS};

fn main() {
    let t4 = GpuArch::tesla_t4();
    let batch = 32;
    // The paper configures Ansor with the recommended 900 trials per task.
    let ansor = AnsorBackend::with_trials(&t4, 900);

    let mut table = Table::new(&[
        "model",
        "tasks",
        "Ansor (img/s)",
        "Bolt (img/s)",
        "speedup",
        "Ansor tuning",
        "Bolt tuning (no pruning)",
        "Bolt tuning (pruned)",
    ]);
    let mut speedups = Vec::new();

    for name in FIGURE10_MODELS {
        let info = model_by_name(name, batch);
        // Both backends consume the same deployed graph.
        let graph = PassManager::deployment().run(&info.graph).expect("passes");

        let compiler = BoltCompiler::new(t4.clone(), BoltConfig::default());
        let model = compiler.compile(&graph).expect("bolt compiles");
        let bolt_time = model.time();
        let bolt_ips = bolt_time.images_per_sec(batch);
        let exhaustive = BoltCompiler::new(
            t4.clone(),
            BoltConfig {
                candidate_pruning: false,
                ..BoltConfig::default()
            },
        )
        .compile(&graph)
        .expect("bolt compiles without pruning");
        assert_eq!(
            exhaustive.time().total_us.to_bits(),
            bolt_time.total_us.to_bits(),
            "{name}: pruning must not change the selected kernels"
        );

        let (ansor_time, tuning) = ansor.evaluate(&graph).expect("ansor evaluates");
        let ansor_ips = batch as f64 / (ansor_time.total_us / 1e6);

        let speedup = bolt_ips / ansor_ips;
        speedups.push((name, speedup));
        table.row(&[
            name.to_string(),
            tuning.tasks.len().to_string(),
            format!("{ansor_ips:.0}"),
            format!("{bolt_ips:.0}"),
            format!("{speedup:.1}x"),
            fmt_seconds(tuning.tuning_seconds),
            fmt_seconds(exhaustive.tuning.tuning_seconds),
            fmt_seconds(model.tuning.tuning_seconds),
        ]);
        println!(
            "{name}: Bolt {speedup:.1}x ({bolt_ips:.0} vs {ansor_ips:.0} img/s); \
             tuning {} ({} pruned) vs {}",
            fmt_seconds(exhaustive.tuning.tuning_seconds),
            fmt_seconds(model.tuning.tuning_seconds),
            fmt_seconds(tuning.tuning_seconds)
        );
    }
    table.print("Figure 10: end-to-end inference speed and tuning time (batch 32, FP16)");
    table.write_csv("fig10_end_to_end");

    let avg = speedups.iter().map(|(_, s)| s).sum::<f64>() / speedups.len() as f64;
    println!("\naverage Bolt speedup over Ansor: {avg:.2}x (paper: 2.8x avg)");
    println!("paper per-family: 4.2x VGG, 1.5x ResNet, 2.6x RepVGG");
    println!(
        "paper: Bolt tunes within 20 minutes per model, measuring every shortlisted candidate"
    );
}
