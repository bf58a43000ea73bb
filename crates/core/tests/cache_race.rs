//! Regression test for the autotune-cache save path: `save_cache` must
//! replace the file atomically (write a sibling temp file, then rename),
//! so a reader that races a writer either sees the previous complete
//! cache or the new complete cache — never a torn, partially-written
//! file that fails to parse.

use bolt::BoltProfiler;
use bolt_cutlass::{Epilogue, GemmProblem};
use bolt_gpu_sim::GpuArch;
use bolt_tensor::DType;

#[test]
fn concurrent_save_and_load_never_observe_a_torn_cache() {
    let arch = GpuArch::tesla_t4();
    let profiler = BoltProfiler::new(&arch, 8);
    let ep = Epilogue::linear(DType::F16);
    for i in 0..4 {
        profiler
            .profile_gemm(&GemmProblem::fp16(64 << i, 64, 64), &ep)
            .expect("workload profiles");
    }

    let dir = std::env::temp_dir().join(format!("bolt-cache-race-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.tune");
    profiler.save_cache(&path).unwrap();
    let expected = BoltProfiler::new(&arch, 8).load_cache(&path).unwrap();
    assert_eq!(expected, 4);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..200 {
                profiler.save_cache(&path).unwrap();
            }
        });
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..200 {
                    let fresh = BoltProfiler::new(&arch, 8);
                    let n = fresh
                        .load_cache(&path)
                        .expect("a racing load must never see a torn file");
                    assert_eq!(n, expected, "load observed a partially-written cache");
                }
            });
        }
    });

    // Every staged temp file was renamed into place or cleaned up.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|name| name != "cache.tune")
        .collect();
    assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
