//! Golden values for a cold compile of every Figure 10 model.
//!
//! Each model is compiled on a fresh T4 compiler (no tune cache) at the
//! paper's batch 32 and at a ragged batch of 29. The test pins what the
//! compile produced: the tuning summary (tuning seconds by bits), the
//! device kernel count, the simulated latency by bits, and an FNV-1a
//! digest of the plan's steps in `Debug` form. Any refactor of passes,
//! lowering or the profiler that changes a selected kernel, a fusion
//! decision, a step name or a simulated figure fails here.
//!
//! FNV-1a is written out below because `std`'s `DefaultHasher` is not
//! stable across Rust releases.

use bolt::{BoltCompiler, BoltConfig};
use bolt_gpu_sim::GpuArch;
use bolt_models::{model_by_name, FIGURE10_MODELS};

/// One cold compile's pinned figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    model: &'static str,
    batch: usize,
    workloads: usize,
    measurements: usize,
    pruned: usize,
    tuning_seconds_bits: u64,
    kernels: usize,
    total_us_bits: u64,
    steps_fnv1a: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn compile_cold(model: &'static str, batch: usize) -> Golden {
    let graph = model_by_name(model, batch).graph;
    let compiler = BoltCompiler::new(GpuArch::tesla_t4(), BoltConfig::default());
    let compiled = compiler.compile(&graph).expect("figure 10 model compiles");
    let tuning = compiled.tuning;
    Golden {
        model,
        batch,
        workloads: tuning.workloads,
        measurements: tuning.measurements,
        pruned: tuning.pruned,
        tuning_seconds_bits: tuning.tuning_seconds.to_bits(),
        kernels: compiled.kernel_count(),
        total_us_bits: compiled.time().total_us.to_bits(),
        steps_fnv1a: fnv1a(format!("{:?}", compiled.plan().steps()).as_bytes()),
    }
}

/// A compile-path refactor must reproduce these bit for bit. A change
/// meant to move them recaptures the rows the test prints and says why.
#[rustfmt::skip]
const EXPECTED: &[Golden] = &[
    Golden { model: "vgg-16", batch: 32, workloads: 12, measurements: 29, pruned: 331, tuning_seconds_bits: 0x406359999999999a, kernels: 16, total_us_bits: 0x40e12fa0965e8016, steps_fnv1a: 0x4123f18fd1e89b51 },
    Golden { model: "vgg-16", batch: 29, workloads: 12, measurements: 27, pruned: 333, tuning_seconds_bits: 0x40630ccccccccccd, kernels: 16, total_us_bits: 0x40df69ec5e293e08, steps_fnv1a: 0x1c24eb3eaed03cde },
    Golden { model: "vgg-19", batch: 32, workloads: 12, measurements: 29, pruned: 331, tuning_seconds_bits: 0x406359999999999a, kernels: 19, total_us_bits: 0x40e520baf7308d7f, steps_fnv1a: 0x84bbb180824f1312 },
    Golden { model: "vgg-19", batch: 29, workloads: 12, measurements: 27, pruned: 333, tuning_seconds_bits: 0x40630ccccccccccd, kernels: 19, total_us_bits: 0x40e34cbf246d1392, steps_fnv1a: 0x7ccc9e2c127e9df9 },
    Golden { model: "resnet-18", batch: 32, workloads: 16, measurements: 85, pruned: 395, tuning_seconds_bits: 0x406bc00000000000, kernels: 21, total_us_bits: 0x40b9742234601bf9, steps_fnv1a: 0x5a7026a75040056a },
    Golden { model: "resnet-18", batch: 29, workloads: 16, measurements: 69, pruned: 411, tuning_seconds_bits: 0x406959999999999a, kernels: 21, total_us_bits: 0x40b83d36cea8d57b, steps_fnv1a: 0x45d7f27531a0e1f1 },
    Golden { model: "resnet-50", batch: 32, workloads: 24, measurements: 99, pruned: 621, tuning_seconds_bits: 0x406dd9999999999a, kernels: 54, total_us_bits: 0x40d03ff3c873b05d, steps_fnv1a: 0xdda085bd2b60636f },
    Golden { model: "resnet-50", batch: 29, workloads: 24, measurements: 93, pruned: 627, tuning_seconds_bits: 0x406cf33333333333, kernels: 54, total_us_bits: 0x40cead1b67cfdd4b, steps_fnv1a: 0x9e8e32099c4d088e },
    Golden { model: "repvgg-a0", batch: 32, workloads: 9, measurements: 39, pruned: 231, tuning_seconds_bits: 0x4064d9999999999a, kernels: 23, total_us_bits: 0x40af8fa5af150bb4, steps_fnv1a: 0xfdacf35b181c0bd6 },
    Golden { model: "repvgg-a0", batch: 29, workloads: 9, measurements: 41, pruned: 229, tuning_seconds_bits: 0x4065266666666666, kernels: 23, total_us_bits: 0x40ae2d48c8f97287, steps_fnv1a: 0xbd933030f582d54b },
    Golden { model: "repvgg-b0", batch: 32, workloads: 9, measurements: 47, pruned: 223, tuning_seconds_bits: 0x40660ccccccccccd, kernels: 29, total_us_bits: 0x40bf3e511ec7e85a, steps_fnv1a: 0x1a8a841bea9c9673 },
    Golden { model: "repvgg-b0", batch: 29, workloads: 9, measurements: 41, pruned: 229, tuning_seconds_bits: 0x4065266666666666, kernels: 29, total_us_bits: 0x40be2a596472de28, steps_fnv1a: 0x949cd20131d3b9aa },
];

#[test]
fn cold_figure10_compiles_match_golden_values() {
    let mut actual = Vec::new();
    for model in FIGURE10_MODELS {
        for batch in [32, 29] {
            actual.push(compile_cold(model, batch));
        }
    }
    // Printed in `EXPECTED`'s syntax; the harness shows it on failure.
    for row in &actual {
        eprintln!(
            "    Golden {{ model: {:?}, batch: {}, workloads: {}, measurements: {}, pruned: {}, \
             tuning_seconds_bits: {:#018x}, kernels: {}, total_us_bits: {:#018x}, \
             steps_fnv1a: {:#018x} }},",
            row.model,
            row.batch,
            row.workloads,
            row.measurements,
            row.pruned,
            row.tuning_seconds_bits,
            row.kernels,
            row.total_us_bits,
            row.steps_fnv1a,
        );
    }
    assert_eq!(actual.len(), EXPECTED.len(), "one golden row per compile");
    for (got, want) in actual.iter().zip(EXPECTED) {
        assert_eq!(got, want, "{} at batch {}", want.model, want.batch);
    }
}
