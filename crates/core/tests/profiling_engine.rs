//! Integration tests for the profiling engine: shared profilers under
//! thread contention, pruning and batching winner invariance, and the
//! versioned on-disk autotune cache.

use proptest::prelude::*;

use bolt::cache::arch_fingerprint;
use bolt::{BoltCompiler, BoltConfig, BoltProfiler, ProfileTask};
use bolt_cutlass::{Epilogue, GemmProblem};
use bolt_gpu_sim::GpuArch;
use bolt_graph::{Graph, GraphBuilder};
use bolt_tensor::conv_ref::Conv2dProblem;
use bolt_tensor::{Activation, DType};

fn t4() -> GpuArch {
    GpuArch::tesla_t4()
}

/// Unique scratch path per test so parallel test threads never collide.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("bolt_profiling_engine_tests");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{}_{name}", std::process::id()))
}

fn mlp() -> Graph {
    let mut b = GraphBuilder::new(DType::F16);
    let x = b.input(&[64, 128]);
    let h = b.dense_bias(x, 256, "fc1");
    let r = b.activation(h, Activation::ReLU, "relu");
    let o = b.dense_bias(r, 64, "fc2");
    b.finish(&[o])
}

fn mixed_tasks() -> Vec<ProfileTask> {
    let ep = Epilogue::linear(DType::F16);
    vec![
        ProfileTask::Gemm {
            problem: GemmProblem::fp16(1280, 3072, 768),
            epilogue: ep,
        },
        ProfileTask::Gemm {
            problem: GemmProblem::fp16(512, 512, 512),
            epilogue: ep,
        },
        ProfileTask::Gemm {
            problem: GemmProblem::fp16(128, 768, 3072),
            epilogue: Epilogue::bias_activation(Activation::Gelu, DType::F16),
        },
        ProfileTask::Conv2d {
            problem: Conv2dProblem::new(32, 56, 56, 64, 64, 3, 3, (1, 1), (1, 1)),
            epilogue: ep,
            element: DType::F16,
        },
        ProfileTask::Conv2d {
            problem: Conv2dProblem::new(32, 56, 56, 64, 64, 3, 3, (1, 1), (1, 1)),
            epilogue: ep,
            element: DType::Bf16, // same geometry, distinct dtype => distinct workload
        },
        ProfileTask::Conv2d {
            problem: Conv2dProblem::new(8, 28, 28, 46, 32, 3, 3, (1, 1), (1, 1)),
            epilogue: ep,
            element: DType::F16,
        },
    ]
}

#[test]
fn shared_profiler_under_contention_never_duplicates_measurements() {
    let profiler = BoltProfiler::new(&t4(), 20);
    let tasks = mixed_tasks();

    // Eight threads race over the same overlapping workload set.
    let results: Vec<Vec<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let profiler = &profiler;
                let tasks = &tasks;
                s.spawn(move || {
                    tasks
                        .iter()
                        .map(|task| profiler.profile_task(task))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread joins"))
            .collect()
    });

    for later in &results[1..] {
        assert_eq!(
            later, &results[0],
            "all threads must observe identical winners"
        );
    }
    let stats = profiler.stats();
    assert_eq!(
        stats.workloads,
        tasks.len(),
        "each unique workload resolved exactly once"
    );
    let enumerated: usize = results[0]
        .iter()
        .map(|p| p.expect("profiles").candidates)
        .sum();
    assert_eq!(
        stats.measurements + stats.pruned,
        enumerated,
        "duplicate measurements under contention"
    );
    assert_eq!(stats.cache_hits, 8 * tasks.len() - tasks.len());
}

#[test]
fn concurrent_batches_resolve_each_workload_once() {
    let profiler = BoltProfiler::new(&t4(), 20);
    let tasks = mixed_tasks();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let profiler = &profiler;
            let tasks = &tasks;
            s.spawn(move || profiler.profile_batch(tasks));
        }
    });
    assert_eq!(profiler.stats().workloads, tasks.len());
}

fn gemm_task() -> impl Strategy<Value = ProfileTask> {
    (
        prop::sample::select(vec![64usize, 128, 512, 1280, 1536, 4096]),
        prop::sample::select(vec![16usize, 64, 768, 3072]),
        prop::sample::select(vec![64usize, 256, 768, 4096]),
        any::<bool>(),
    )
        .prop_map(|(m, n, k, bias)| ProfileTask::Gemm {
            problem: GemmProblem::fp16(m, n, k),
            epilogue: if bias {
                Epilogue::bias_activation(Activation::ReLU, DType::F16)
            } else {
                Epilogue::linear(DType::F16)
            },
        })
}

fn conv_task() -> impl Strategy<Value = ProfileTask> {
    (
        prop::sample::select(vec![1usize, 8, 32]),
        prop::sample::select(vec![14usize, 28, 56]),
        prop::sample::select(vec![3usize, 46, 64, 128]),
        prop::sample::select(vec![32usize, 64]),
        prop::sample::select(vec![DType::F16, DType::Bf16]),
    )
        .prop_map(|(n, hw, c, k, element)| ProfileTask::Conv2d {
            problem: Conv2dProblem::new(n, hw, hw, c, k, 3, 3, (1, 1), (1, 1)),
            epilogue: Epilogue::linear(DType::F16),
            element,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The engine's core soundness contract: batched profiling with
    // pruning selects bit-identical winners to an exhaustive,
    // task-by-task, pruning-free search — for any workload mix.
    #[test]
    fn pruned_parallel_matches_exhaustive_sequential(
        tasks in prop::collection::vec(prop_oneof![gemm_task(), conv_task()], 1..6),
    ) {
        let mut exhaustive = BoltProfiler::new(&t4(), 24);
        exhaustive.set_pruning(false);
        let sequential: Vec<_> = tasks.iter().map(|t| exhaustive.profile_task(t)).collect();

        let engine = BoltProfiler::new(&t4(), 24);
        engine.profile_batch(&tasks);
        let batched: Vec<_> = tasks.iter().map(|t| engine.profile_task(t)).collect();

        prop_assert_eq!(&batched, &sequential);
        prop_assert!(
            engine.stats().measurements <= exhaustive.stats().measurements,
            "pruning may only reduce measurements"
        );
    }
}

#[test]
fn corrupt_cache_is_quarantined_and_rebuilt() {
    let path = scratch("corrupt.tune");
    let mut corrupt_name = path.file_name().unwrap().to_os_string();
    corrupt_name.push(".corrupt");
    let corrupt = path.with_file_name(corrupt_name);
    let _ = std::fs::remove_file(&corrupt);
    std::fs::write(&path, "total garbage\nthis is not a cache\n").unwrap();

    // Garbage is quarantined, not propagated: the load reports zero
    // entries, the original path is freed, the evidence moves aside.
    let profiler = BoltProfiler::new(&t4(), 20);
    assert_eq!(profiler.load_cache(&path).unwrap(), 0);
    assert!(!path.exists(), "corrupt file is renamed away");
    assert!(corrupt.exists(), "evidence preserved as *.corrupt");

    // A bad entry under a valid header is also corrupt.
    let header = format!(
        "bolt-tune-bundle v1\nshard arch={:016x} entries=1 name=Tesla T4\n",
        arch_fingerprint(&t4())
    );
    std::fs::write(&path, format!("{header}gemm 1 2 not-a-number\n")).unwrap();
    assert_eq!(profiler.load_cache(&path).unwrap(), 0);
    assert!(!path.exists());

    // A truncated file (torn write: footer missing) is caught too.
    let ep = Epilogue::linear(DType::F16);
    profiler
        .profile_gemm(&GemmProblem::fp16(1280, 3072, 768), &ep)
        .unwrap();
    profiler.save_cache(&path).unwrap();
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    assert_eq!(
        profiler.load_cache(&path).unwrap(),
        0,
        "torn write detected"
    );
    assert!(!path.exists());

    // The compiler warm-starts through the quarantine, compiles cold,
    // and its save rebuilds a clean cache at the original path.
    std::fs::write(&path, "total garbage\n").unwrap();
    let config = BoltConfig {
        cache_path: Some(path.clone()),
        ..BoltConfig::default()
    };
    let model = BoltCompiler::new(t4(), config).compile(&mlp()).unwrap();
    assert!(model.tuning.measurements > 0, "cold compile must measure");
    assert!(path.exists(), "cache rebuilt on save after quarantine");
    let rebuilt = BoltProfiler::new(&t4(), 20);
    assert!(
        rebuilt.load_cache(&path).unwrap() > 0,
        "rebuilt cache is valid"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&corrupt);
}

#[test]
fn version_mismatched_cache_is_skipped_without_error() {
    let path = scratch("version.tune");
    // A future bundle version, and the retired single-arch cache format.
    for header in [
        format!(
            "bolt-tune-bundle v999\nshard arch={:016x} entries=0 name=Tesla T4\n",
            arch_fingerprint(&t4())
        ),
        format!("bolt-tune-cache v2 arch={:016x}\n", arch_fingerprint(&t4())),
    ] {
        std::fs::write(&path, &header).unwrap();
        let profiler = BoltProfiler::new(&t4(), 20);
        assert_eq!(
            profiler.load_cache(&path).unwrap(),
            0,
            "another format version loads zero entries: {header:?}"
        );
        assert!(path.exists(), "a valid file of another version stays put");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn arch_mismatched_cache_is_skipped_without_error() {
    let path = scratch("arch.tune");
    let ep = Epilogue::linear(DType::F16);
    let problem = GemmProblem::fp16(1280, 3072, 768);

    let on_t4 = BoltProfiler::new(&t4(), 20);
    on_t4.profile_gemm(&problem, &ep).unwrap();
    on_t4.save_cache(&path).unwrap();

    let on_v100 = BoltProfiler::new(&GpuArch::tesla_v100(), 20);
    assert_eq!(
        on_v100.load_cache(&path).unwrap(),
        0,
        "foreign-arch cache must be ignored"
    );
    on_v100.profile_gemm(&problem, &ep).unwrap();
    assert!(
        on_v100.stats().measurements > 0,
        "V100 must re-measure, not reuse T4 configs"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cache_path_config_warms_a_fresh_compiler_to_zero_measurements() {
    let path = scratch("roundtrip.tune");
    let _ = std::fs::remove_file(&path);
    let config = BoltConfig {
        cache_path: Some(path.clone()),
        ..BoltConfig::default()
    };
    let graph = mlp();

    let first = BoltCompiler::new(t4(), config.clone())
        .compile(&graph)
        .unwrap();
    assert!(first.tuning.measurements > 0);
    assert!(first.tuning.tuning_seconds > 0.0);
    assert!(path.exists(), "compile must persist the cache");

    // A fresh compiler instance (fresh process in spirit: nothing shared
    // but the file) starts fully warm.
    let second = BoltCompiler::new(t4(), config).compile(&graph).unwrap();
    assert_eq!(
        second.tuning.measurements, 0,
        "warm compile must not measure"
    );
    assert_eq!(second.tuning.pruned, 0);
    assert_eq!(
        second.tuning.tuning_seconds, 0.0,
        "warm compile must cost zero tuning time"
    );
    assert_eq!(second.steps().len(), first.steps().len());
    for (a, b) in first.steps().iter().zip(second.steps().iter()) {
        assert_eq!(a.name, b.name, "warm compile must pick identical kernels");
    }
    let _ = std::fs::remove_file(&path);
}
