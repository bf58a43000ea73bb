//! Cross-architecture cache behavior: the portable tune-bundle flow a
//! heterogeneous fleet depends on.
//!
//! * A shard tuned for one architecture loaded into another's profiler
//!   is rejected with a **typed** mismatch, not silently ignored.
//! * Packing per-arch shards into a bundle keeps the faster winner when
//!   shards overlap, and the bundle round-trips bit-identically.
//! * A compiler of *any* arch booted from the packed bundle compiles
//!   with zero measurements — `tuning_seconds == 0` — while per-arch
//!   winners differ where the simulator says they should and functional
//!   outputs stay bit-identical across architectures.

use bolt::{arch_fingerprint, BoltCompiler, BoltConfig, BoltError, TuneBundle};
use bolt_gpu_sim::GpuArch;
use bolt_graph::{Graph, GraphBuilder};
use bolt_tensor::{Activation, DType, Tensor};

fn mlp() -> Graph {
    let mut b = GraphBuilder::new(DType::F16);
    let x = b.input(&[64, 128]);
    let h = b.dense_bias(x, 256, "fc1");
    let r = b.activation(h, Activation::ReLU, "relu");
    let o = b.dense_bias(r, 64, "fc2");
    b.finish(&[o])
}

/// A large-GEMM model where T4 and A100 tuning guidelines genuinely
/// disagree (bigger SM arrays want bigger tiles / more stages).
fn wide_gemm() -> Graph {
    let mut b = GraphBuilder::new(DType::F16);
    let x = b.input(&[1024, 1024]);
    let h = b.dense_bias(x, 4096, "ffn");
    let o = b.dense_bias(h, 1024, "head");
    b.finish(&[o])
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("bolt_fleet_bundle_test");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{}_{name}", std::process::id()))
}

fn tuned_compiler(arch: GpuArch) -> BoltCompiler {
    BoltCompiler::new(
        arch,
        BoltConfig {
            profiler_candidates: 12,
            ..BoltConfig::default()
        },
    )
}

#[test]
fn wrong_arch_shard_is_rejected_with_typed_mismatch() {
    let shard_path = tmp("v100.tune");
    let v100 = tuned_compiler(GpuArch::tesla_v100());
    v100.compile(&mlp()).unwrap();
    v100.profiler().save_cache(&shard_path).unwrap();

    // The saved V100 cache is a bundle holding only the V100 shard. A
    // strict load into a T4 profiler is a typed rejection, and the error
    // says what the bundle does contain.
    let t4 = tuned_compiler(GpuArch::tesla_t4());
    match t4.profiler().load_bundle(&shard_path) {
        Err(BoltError::CacheArchMismatch {
            expected, found, ..
        }) => {
            assert!(
                expected.contains("Tesla T4"),
                "expected names T4: {expected}"
            );
            assert!(found.contains("Tesla V100"), "found names V100: {found}");
        }
        other => panic!("expected CacheArchMismatch, got {other:?}"),
    }
    let after_reject = t4.compile(&mlp()).unwrap();
    assert!(
        after_reject.tuning.measurements > 0,
        "nothing may be merged from a wrong-arch shard: T4 must still tune"
    );

    let _ = std::fs::remove_file(&shard_path);
}

#[test]
fn missing_bundle_is_a_typed_load_error() {
    let t4 = tuned_compiler(GpuArch::tesla_t4());
    match t4.profiler().load_bundle(&tmp("nonexistent.bundle")) {
        Err(BoltError::CacheLoad { reason, .. }) => {
            assert!(!reason.is_empty());
        }
        other => panic!("expected CacheLoad, got {other:?}"),
    }
}

#[test]
fn packed_bundle_cold_boots_every_arch_with_zero_tuning_seconds() {
    let bundle_path = tmp("fleet.bundle");
    let graph = wide_gemm();

    // Tune once per architecture and pack the shards into one bundle —
    // the `bolt-tune pack` flow, via the library API.
    let mut bundle = TuneBundle::new();
    for arch in [GpuArch::tesla_t4(), GpuArch::tesla_v100(), GpuArch::a100()] {
        let compiler = tuned_compiler(arch);
        let tuned = compiler.compile(&graph).unwrap();
        assert!(tuned.tuning.measurements > 0, "cold tuning really measured");
        bundle.absorb(compiler.profiler().export_shard());
    }
    bundle.write(&bundle_path).unwrap();
    assert_eq!(bundle.shards().len(), 3);

    // Every arch boots warm from the same shipped bundle.
    for arch in [GpuArch::tesla_t4(), GpuArch::tesla_v100(), GpuArch::a100()] {
        let name = arch.name.clone();
        let warm = BoltCompiler::new(
            arch.clone(),
            BoltConfig {
                profiler_candidates: 12,
                bundle_path: Some(bundle_path.clone()),
                ..BoltConfig::default()
            },
        );
        let model = warm.compile(&graph).unwrap();
        assert_eq!(
            model.tuning.measurements, 0,
            "{name}: bundle boot must not measure"
        );
        assert_eq!(
            model.tuning.tuning_seconds, 0.0,
            "{name}: bundle boot must report zero tuning seconds"
        );

        // The shipped bundle also serves as a writable cache: the boot
        // loads this arch's shard, and the compile's save keeps every
        // other arch's shard, so the file comes back byte for byte.
        let cache_path = tmp("fleet_as_cache.bundle");
        let mut corrupt_name = cache_path.file_name().unwrap().to_os_string();
        corrupt_name.push(".corrupt");
        let corrupt = cache_path.with_file_name(corrupt_name);
        let _ = std::fs::remove_file(&corrupt);
        std::fs::copy(&bundle_path, &cache_path).unwrap();
        let cached = BoltCompiler::new(
            arch,
            BoltConfig {
                profiler_candidates: 12,
                cache_path: Some(cache_path.clone()),
                ..BoltConfig::default()
            },
        );
        let model = cached.compile(&graph).unwrap();
        assert_eq!(
            model.tuning.measurements, 0,
            "{name}: cache boot from the bundle must not measure"
        );
        assert_eq!(
            model.tuning.tuning_seconds, 0.0,
            "{name}: cache boot from the bundle must report zero tuning seconds"
        );
        assert!(!corrupt.exists(), "{name}: the bundle was quarantined");
        assert_eq!(
            std::fs::read(&cache_path).unwrap(),
            std::fs::read(&bundle_path).unwrap(),
            "{name}: the compile's save must keep every arch's shard"
        );
        let _ = std::fs::remove_file(&cache_path);
    }
    let _ = std::fs::remove_file(&bundle_path);
}

/// Parses a saved cache file into `(workload key, winner config)` pairs,
/// dropping the measured time and candidate count so configs can be
/// compared across architectures.
fn winner_configs(path: &std::path::Path) -> std::collections::BTreeMap<String, String> {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines()
        .filter(|l| l.contains(" | "))
        .map(|line| {
            let (key, tail) = line.rsplit_once(" | ").unwrap();
            let fields: Vec<&str> = tail.split_whitespace().collect();
            // last two fields are time-bits and candidate count
            (key.to_string(), fields[..fields.len() - 2].join(" "))
        })
        .collect()
}

#[test]
fn winners_differ_across_arches_but_outputs_are_bit_identical() {
    let graph = wide_gemm();
    let t4 = tuned_compiler(GpuArch::tesla_t4());
    let a100 = tuned_compiler(GpuArch::a100());
    t4.compile(&graph).unwrap();
    a100.compile(&graph).unwrap();

    // The tuned winners are arch-specific where the simulator says they
    // should be: the caches do not carry identical configs for identical
    // workloads across a 40-SM Turing and a 108-SM Ampere.
    let t4_path = tmp("winners_t4.tune");
    let a100_path = tmp("winners_a100.tune");
    t4.profiler().save_cache(&t4_path).unwrap();
    a100.profiler().save_cache(&a100_path).unwrap();
    let t4_winners = winner_configs(&t4_path);
    let a100_winners = winner_configs(&a100_path);
    let t4_keys: Vec<&String> = t4_winners.keys().collect();
    let a100_keys: Vec<&String> = a100_winners.keys().collect();
    assert_eq!(t4_keys, a100_keys, "same workload set on both arches");
    assert!(
        t4_winners.iter().any(|(k, cfg)| &a100_winners[k] != cfg),
        "per-arch tuning must pick different winners on these shapes"
    );
    let _ = std::fs::remove_file(&t4_path);
    let _ = std::fs::remove_file(&a100_path);

    // Functional outputs are independent of the tuned configs: the same
    // input produces bit-identical results on both architectures.
    let real = mlp();
    let t4_model = t4.compile(&real).unwrap();
    let a100_model = a100.compile(&real).unwrap();
    let input = Tensor::randn(&[64, 128], DType::F16, 7);
    let out_t4 = t4_model.run(std::slice::from_ref(&input)).unwrap();
    let out_a100 = a100_model.run(&[input]).unwrap();
    assert_eq!(
        out_t4[0].max_abs_diff(&out_a100[0]).unwrap(),
        0.0,
        "outputs must stay bit-identical across architectures"
    );
}

#[test]
fn pack_merge_prefers_faster_winner_from_overlapping_sessions() {
    // Two T4 sessions tune overlapping workload sets with different
    // candidate budgets; packing both must keep the better (faster)
    // winner per key and the union of keys.
    let narrow = BoltCompiler::new(
        GpuArch::tesla_t4(),
        BoltConfig {
            profiler_candidates: 2,
            ..BoltConfig::default()
        },
    );
    let wide = BoltCompiler::new(
        GpuArch::tesla_t4(),
        BoltConfig {
            profiler_candidates: 24,
            ..BoltConfig::default()
        },
    );
    let graph = wide_gemm();
    narrow.compile(&graph).unwrap();
    wide.compile(&graph).unwrap();
    wide.compile(&mlp()).unwrap(); // extra keys only in `wide`

    let mut packed = TuneBundle::new();
    packed.absorb(narrow.profiler().export_shard());
    packed.absorb(wide.profiler().export_shard());
    assert_eq!(packed.shards().len(), 1, "same arch: one merged shard");
    let merged = packed
        .shard_for(arch_fingerprint(&GpuArch::tesla_t4()))
        .unwrap();
    assert_eq!(
        merged.len(),
        wide.profiler().export_shard().len(),
        "merged shard holds the union of keys"
    );

    // A fresh profiler booted from the merged bundle resolves the wide
    // session's winners (they are at least as fast as the narrow ones).
    let bundle_path = tmp("merged.bundle");
    packed.write(&bundle_path).unwrap();
    let warm = BoltCompiler::new(
        GpuArch::tesla_t4(),
        BoltConfig {
            profiler_candidates: 24,
            bundle_path: Some(bundle_path.clone()),
            ..BoltConfig::default()
        },
    );
    let model = warm.compile(&graph).unwrap();
    assert_eq!(model.tuning.measurements, 0);
    let wide_time: f64 = wide.compile(&graph).unwrap().time().total_us;
    let warm_time: f64 = model.time().total_us;
    assert!(
        warm_time <= wide_time * 1.0001,
        "merge kept winners at least as fast: {warm_time} vs {wide_time}"
    );
    let _ = std::fs::remove_file(&bundle_path);
}
