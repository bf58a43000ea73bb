//! Criterion micro-benchmarks of the reproduction's own machinery: how
//! fast the simulator, profiler, tuner and functional executors run on
//! the host CPU. These guard against regressions in the library itself
//! (they do not reproduce paper numbers — the paper benches do).

use criterion::{criterion_group, criterion_main, Criterion};

use bolt::BoltProfiler;
use bolt_ansor::{measure_schedule, BoostedStumps, GpuSchedule};
use bolt_cutlass::{Epilogue, GemmConfig, GemmKernel, GemmProblem};
use bolt_gpu_sim::{simulate_kernel, GpuArch, KernelProfile};
use bolt_graph::Workload;
use bolt_tensor::{DType, Tensor};

fn bench_simulator(c: &mut Criterion) {
    let t4 = GpuArch::tesla_t4();
    let profile = KernelProfile::memory_only(1e8);
    c.bench_function("simulate_kernel", |b| {
        b.iter(|| std::hint::black_box(simulate_kernel(&t4, &profile)))
    });
}

fn bench_profiler(c: &mut Criterion) {
    let t4 = GpuArch::tesla_t4();
    c.bench_function("profile_gemm_30_candidates", |b| {
        b.iter(|| {
            // Fresh profiler each iteration so the cache doesn't short-circuit.
            let profiler = BoltProfiler::new(&t4, 30);
            std::hint::black_box(profiler.profile_gemm(
                &GemmProblem::fp16(1280, 3072, 768),
                &Epilogue::linear(DType::F16),
            ))
        })
    });
}

fn bench_ansor_measure(c: &mut Criterion) {
    let t4 = GpuArch::tesla_t4();
    let workload = Workload::Gemm {
        m: 2048,
        n: 2048,
        k: 2048,
    };
    let schedule = GpuSchedule {
        block_m: 64,
        block_n: 64,
        tile_k: 16,
        thread_m: 8,
        thread_n: 8,
        use_smem: true,
        vectorize: 4,
        unroll: 512,
    };
    c.bench_function("ansor_measure_schedule", |b| {
        b.iter(|| std::hint::black_box(measure_schedule(&t4, &workload, &schedule)))
    });
}

fn bench_cost_model(c: &mut Criterion) {
    let xs: Vec<Vec<f64>> = (0..512)
        .map(|i| vec![(i % 17) as f64, (i % 5) as f64, i as f64])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 + x[1]).collect();
    c.bench_function("boosted_stumps_fit_512x64", |b| {
        b.iter(|| std::hint::black_box(BoostedStumps::fit(&xs, &ys, 64, 0.3)))
    });
}

fn bench_functional_gemm(c: &mut Criterion) {
    let problem = GemmProblem::fp16(64, 64, 64);
    let kernel = GemmKernel::new(
        problem,
        GemmConfig::turing_default(),
        Epilogue::linear(DType::F16),
    );
    let a = Tensor::randn(&[64, 64], DType::F16, 1);
    let b_op = Tensor::randn(&[64, 64], DType::F16, 2);
    c.bench_function("functional_tiled_gemm_64", |b| {
        b.iter(|| std::hint::black_box(kernel.run(&a, &b_op, None).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_simulator, bench_profiler, bench_ansor_measure, bench_cost_model, bench_functional_gemm
}
criterion_main!(benches);
