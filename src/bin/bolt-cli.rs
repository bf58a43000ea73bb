//! Command-line interface to the Bolt reproduction.
//!
//! ```text
//! bolt-cli models                              list the model zoo
//! bolt-cli compile resnet-50 --batch 32        compile + simulated timing
//! bolt-cli compile repvgg-a0 --emit            also print generated CUDA
//! bolt-cli ansor resnet-18 --trials 128        Ansor baseline on a model
//! bolt-cli gemm 1280 3072 768                  profile one GEMM workload
//! ```
//!
//! Every command accepts `--arch t4|v100|a100` (default `t4`).

use std::process::ExitCode;

use bolt::{AnsorBackend, BoltCompiler, BoltConfig};
use bolt_cutlass::{Epilogue, GemmProblem, VendorLibrary};
use bolt_gpu_sim::GpuArch;
use bolt_graph::passes::PassManager;
use bolt_models::{model_by_name, FIGURE10_MODELS};
use bolt_tensor::DType;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => Some(iter.next().expect("peeked")),
                    _ => None,
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn usize_flag(&self, name: &str, default: usize) -> usize {
        self.flag(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn arch(&self) -> GpuArch {
        match self.flag("arch").unwrap_or("t4") {
            "v100" => GpuArch::tesla_v100(),
            "a100" => GpuArch::a100(),
            _ => GpuArch::tesla_t4(),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bolt-cli models\n  bolt-cli compile <model> [--batch N] [--emit] [--timeline out.csv] [--cache autotune.tune] [--arch t4|v100|a100]\n  bolt-cli ansor <model> [--batch N] [--trials N] [--arch ...]\n  bolt-cli gemm <M> <N> <K> [--batch B] [--arch ...]\n\nmodels: {}",
        FIGURE10_MODELS.join(", ")
    );
    ExitCode::FAILURE
}

fn cmd_models() -> ExitCode {
    println!("model zoo (plus vgg-11/13, resnet-34, repvgg-a1, repvggaug-*):");
    for name in FIGURE10_MODELS {
        let info = model_by_name(name, 1);
        println!(
            "  {name:<12} {:>7.1} M params, {} graph nodes",
            info.params_m,
            info.graph.len()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_compile(args: &Args) -> ExitCode {
    let Some(name) = args.positional.get(1) else {
        return usage();
    };
    let batch = args.usize_flag("batch", 32);
    let arch = args.arch();
    let info = model_by_name(name, batch);
    let graph = match PassManager::deployment().run(&info.graph) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("graph passes failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--cache` (or the BOLT_TUNE_CACHE env var) makes the compiler load
    // a warm autotune cache at construction and save it after compiling.
    let config = BoltConfig {
        cache_path: args.flag("cache").map(std::path::PathBuf::from),
        ..BoltConfig::default()
    };
    let compiler = BoltCompiler::new(arch, config);
    let model = match compiler.compile(&graph) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("compilation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = model.time();
    println!(
        "{name} @ batch {batch} on {}: {:.2} ms / batch = {:.0} img/s",
        model.arch().name,
        report.total_us / 1e3,
        report.images_per_sec(batch)
    );
    println!(
        "{} steps, {} device kernels; profiled {} workloads ({} measurements, {} pruned, {:.1} min simulated tuning)",
        model.steps().len(),
        model.kernel_count(),
        model.tuning.workloads,
        model.tuning.measurements,
        model.tuning.pruned,
        model.tuning.tuning_seconds / 60.0
    );
    println!("\nhottest kernels:");
    for e in report.timeline.hottest(8) {
        println!("  {:>9.1} us  {:<14} {}", e.duration_us, e.bound, e.name);
    }
    if let Some(path) = args.flag("timeline") {
        let mut csv = String::from("start_us,duration_us,bound,name\n");
        for e in report.timeline.events() {
            csv.push_str(&format!(
                "{:.3},{:.3},{},{}\n",
                e.start_us, e.duration_us, e.bound, e.name
            ));
        }
        if std::fs::write(path, csv).is_ok() {
            println!("\nwrote timeline to {path}");
        }
    }
    if let Some(path) = args.flag("cache") {
        if std::path::Path::new(&path).is_file() {
            println!("tuning cache saved to {path}");
        }
    }
    if args.has("emit") {
        println!("\n{}", model.emit_cuda());
    }
    ExitCode::SUCCESS
}

fn cmd_ansor(args: &Args) -> ExitCode {
    let Some(name) = args.positional.get(1) else {
        return usage();
    };
    let batch = args.usize_flag("batch", 32);
    let trials = args.usize_flag("trials", 128);
    let arch = args.arch();
    let info = model_by_name(name, batch);
    let graph = PassManager::deployment().run(&info.graph).expect("passes");
    let backend = AnsorBackend::with_trials(&arch, trials);
    match backend.evaluate(&graph) {
        Ok((timing, tuning)) => {
            println!(
                "{name} @ batch {batch} via Ansor ({trials} trials/task): {:.2} ms / batch = {:.0} img/s",
                timing.total_us / 1e3,
                batch as f64 / (timing.total_us / 1e6)
            );
            println!(
                "{} tasks, {} trials, {:.1} h simulated tuning",
                tuning.tasks.len(),
                tuning.total_trials,
                tuning.tuning_hours()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ansor evaluation failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_gemm(args: &Args) -> ExitCode {
    let dims: Vec<usize> = args.positional[1..]
        .iter()
        .filter_map(|v| v.parse().ok())
        .collect();
    let [m, n, k] = dims[..] else {
        return usage();
    };
    let arch = args.arch();
    let mut problem = GemmProblem::fp16(m, n, k);
    problem.batch = args.usize_flag("batch", 1);

    let profiler = bolt::BoltProfiler::new(&arch, 30);
    let best = profiler
        .profile_gemm(&problem, &Epilogue::linear(DType::F16))
        .expect("no legal config");
    let tflops = problem.flops() / (best.time_us * 1e6);
    println!(
        "{problem} on {}: best {} -> {:.1} us ({tflops:.1} TFLOPS, {} candidates profiled)",
        arch.name,
        best.config.tag(),
        best.time_us,
        best.candidates
    );
    let vendor = VendorLibrary::new(&arch);
    let vendor_us = vendor.gemm_time_us(&problem);
    println!(
        "vendor library (exhaustive search): {vendor_us:.1} us — profiler within {:+.1}%",
        100.0 * (best.time_us / vendor_us - 1.0)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = Args::parse();
    match args.positional.first().map(String::as_str) {
        Some("models") => cmd_models(),
        Some("compile") => cmd_compile(&args),
        Some("ansor") => cmd_ansor(&args),
        Some("gemm") => cmd_gemm(&args),
        _ => usage(),
    }
}
