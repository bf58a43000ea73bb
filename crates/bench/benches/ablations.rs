//! Ablations of Bolt's design choices (DESIGN.md §6):
//!
//! 1. end-to-end contribution of each optimization (epilogue fusion,
//!    persistent kernels, padding, layout folding);
//! 2. light-weight profiler (tens of candidates) vs exhaustive search —
//!    quality given up for minute-scale tuning;
//! 3. RF-resident vs smem-resident persistent kernels across GEMM_N.

use bolt::{BoltCompiler, BoltConfig, BoltProfiler};
use bolt_bench::{fmt_us, Table};
use bolt_cutlass::{B2bGemmKernel, BiasMode, Epilogue, GemmProblem, Residence, VendorLibrary};
use bolt_gpu_sim::GpuArch;
use bolt_graph::passes::PassManager;
use bolt_models::model_by_name;
use bolt_tensor::{Activation, DType};

fn ablation_end_to_end(t4: &GpuArch) {
    let mut table = Table::new(&["config", "repvggaug-a0 (img/s)", "resnet-50 (img/s)"]);
    let configs: Vec<(&str, BoltConfig)> = vec![
        ("all optimizations", BoltConfig::default()),
        (
            "no persistent kernels",
            BoltConfig {
                persistent_kernels: false,
                ..BoltConfig::default()
            },
        ),
        (
            "no epilogue fusion",
            BoltConfig {
                epilogue_fusion: false,
                ..BoltConfig::default()
            },
        ),
        (
            "no kernel padding",
            BoltConfig {
                kernel_padding: false,
                ..BoltConfig::default()
            },
        ),
        (
            "no layout folding",
            BoltConfig {
                layout_transform_folding: false,
                ..BoltConfig::default()
            },
        ),
        ("none", BoltConfig::no_optimizations()),
    ];
    let batch = 32;
    let models: Vec<_> = ["repvggaug-a0", "resnet-50"]
        .iter()
        .map(|name| {
            PassManager::deployment()
                .run(&model_by_name(name, batch).graph)
                .expect("passes")
        })
        .collect();
    for (label, config) in configs {
        let mut cells = vec![label.to_string()];
        for graph in &models {
            let model = BoltCompiler::new(t4.clone(), config.clone())
                .compile(graph)
                .expect("compiles");
            cells.push(format!("{:.0}", model.time().images_per_sec(batch)));
        }
        table.row(&cells);
    }
    table.print("Ablation 1: contribution of each Bolt optimization");
    table.write_csv("ablation_optimizations");
}

fn ablation_profiler_quality(t4: &GpuArch) {
    let vendor = VendorLibrary::new(t4); // exhaustive offline search
    let mut table = Table::new(&[
        "workload",
        "profiler best",
        "exhaustive best",
        "gap",
        "candidates",
    ]);
    for problem in [
        GemmProblem::fp16(4096, 4096, 4096),
        GemmProblem::fp16(1280, 3072, 768),
        GemmProblem::fp16(1280, 768, 3072),
        GemmProblem::fp16(512, 512, 512),
        GemmProblem::fp16(16384, 64, 256),
    ] {
        let profiler = BoltProfiler::new(t4, 30);
        let best = profiler
            .profile_gemm(&problem, &Epilogue::linear(DType::F16))
            .expect("profiled");
        let exhaustive = vendor.gemm_time_us(&problem);
        table.row(&[
            problem.to_string(),
            fmt_us(best.time_us),
            fmt_us(exhaustive),
            format!("{:+.1}%", 100.0 * (best.time_us / exhaustive - 1.0)),
            best.candidates.to_string(),
        ]);
    }
    table.print("Ablation 2: light-weight profiler vs exhaustive template search");
    table.write_csv("ablation_profiler");
}

fn ablation_residence(t4: &GpuArch) {
    let relu = Epilogue {
        beta: 0.0,
        bias: BiasMode::None,
        ..Epilogue::bias_activation(Activation::ReLU, DType::F16)
    };
    let mut table = Table::new(&[
        "GEMM_N (both layers)",
        "RF-resident",
        "smem-resident",
        "winner",
    ]);
    for n in [16usize, 32, 64, 128, 256] {
        let g0 = GemmProblem::fp16(32768, n, 128);
        let g1 = GemmProblem::fp16(32768, n, n);
        let rf = B2bGemmKernel::with_residence(g0, g1, relu, relu, Residence::RegisterFile);
        let sm = B2bGemmKernel::with_residence(g0, g1, relu, relu, Residence::SharedMemory);
        let rf_cell = match rf.validate(t4) {
            Ok(()) => fmt_us(rf.time(t4).total_us),
            Err(_) => "illegal (RF pressure)".to_string(),
        };
        let sm_cell = match sm.validate(t4) {
            Ok(()) => fmt_us(sm.time(t4).total_us),
            Err(e) => format!("illegal: {e}"),
        };
        let winner = match (rf.validate(t4).is_ok(), sm.validate(t4).is_ok()) {
            (true, true) => {
                if rf.time(t4).total_us <= sm.time(t4).total_us {
                    "rf"
                } else {
                    "smem"
                }
            }
            (true, false) => "rf",
            (false, true) => "smem",
            (false, false) => "-",
        };
        table.row(&[n.to_string(), rf_cell, sm_cell, winner.to_string()]);
    }
    table.print("Ablation 3: RF- vs smem-resident persistent kernels across GEMM_N");
    table.write_csv("ablation_residence");
    println!("expected: RF wins for small N, becomes illegal (register pressure) for large N");
}

fn ablation_swizzle(t4: &GpuArch) {
    // Threadblock swizzle is one of the declarative template parameters
    // the paper lists; it controls wave locality in L2.
    use bolt_cutlass::perf::gemm_profile;
    use bolt_cutlass::GemmConfig;
    use bolt_gpu_sim::simulate_kernel;
    let mut table = Table::new(&["GEMM", "swizzle 1", "swizzle 4", "gain"]);
    for mnk in [2048usize, 4096, 8192] {
        let problem = GemmProblem::fp16(mnk, mnk, mnk);
        let ep = Epilogue::linear(DType::F16);
        let mut c1 = GemmConfig::turing_default();
        c1.swizzle = 1;
        let mut c4 = GemmConfig::turing_default();
        c4.swizzle = 4;
        let t1 = simulate_kernel(t4, &gemm_profile(t4, &problem, &c1, &ep)).total_us;
        let t4_ = simulate_kernel(t4, &gemm_profile(t4, &problem, &c4, &ep)).total_us;
        table.row(&[
            format!("{mnk}^3"),
            fmt_us(t1),
            fmt_us(t4_),
            format!("{:.2}x", t1 / t4_),
        ]);
    }
    table.print("Ablation 4: threadblock swizzle (L2 wave locality)");
    table.write_csv("ablation_swizzle");
}

fn main() {
    let t4 = GpuArch::tesla_t4();
    ablation_end_to_end(&t4);
    ablation_profiler_quality(&t4);
    ablation_residence(&t4);
    ablation_swizzle(&t4);
}
