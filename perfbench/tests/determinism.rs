//! Two short runs with the same seed give byte-identical simulated
//! metrics and counts; a different seed changes the generated inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`:
//! the workloads execute the real stack, which is slow unoptimized.

use bolt_perfbench::{compile, llm, run, serve, Args, Workload};

/// Metrics that must repeat bit for bit for a seed: every simulated
/// figure and every count. A layer a workload does not call reads 0 and
/// trivially repeats.
const EXACT: &[&str] = &[
    "sim_us_per_op",
    "core.profiler.measurements",
    "core.profiler.pruned_share",
    "core.profiler.sim_tune_s",
    "core.plan.kernels",
    "serve.continuous.tokens_per_step",
    "serve.continuous.padding_fraction",
    "core.kv.preemptions",
    "core.kv.recompute_tokens",
    "core.kv.fresh_allocations",
    "serve.continuous.sim_prefill_us",
    "serve.continuous.sim_decode_step_us",
    "serve.continuous.sim_ttft_p50_ms",
    "serve.continuous.sim_ttft_tail_ms",
    "serve.continuous.sim_itl_p50_ms",
    "serve.continuous.sim_itl_tail_ms",
];

/// `serve`'s simulated cost per request depends on which batches formed,
/// which depends on thread timing.
const SERVE_EXEMPT: &[&str] = &["sim_us_per_op"];

fn exact_metrics(workload: Workload, seed: u64) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    for trace in [false, true] {
        let report = run(&Args {
            workload,
            seed,
            seconds: 0.5,
            trace,
        })
        .expect("set-up succeeds");
        assert!(
            report.correct(),
            "{workload:?} trace={trace}: {:?}",
            report.problems
        );
        for m in &report.metrics {
            let exempt = workload == Workload::Serve && SERVE_EXEMPT.contains(&m.name);
            if EXACT.contains(&m.name) && !exempt {
                out.push((m.name, m.value.to_bits()));
            }
        }
    }
    out
}

fn same_seed_repeats(workload: Workload) {
    let a = exact_metrics(workload, 11);
    let b = exact_metrics(workload, 11);
    assert_eq!(
        a, b,
        "{workload:?}: same seed, same simulated metrics and counts"
    );
}

#[test]
fn compile_repeats_exactly_for_a_seed() {
    same_seed_repeats(Workload::Compile);
}

#[test]
fn serve_repeats_exactly_for_a_seed() {
    same_seed_repeats(Workload::Serve);
}

#[test]
fn llm_repeats_exactly_for_a_seed() {
    same_seed_repeats(Workload::Llm);
}

#[test]
fn a_different_seed_changes_the_inputs() {
    assert_ne!(compile::cycle(1), compile::cycle(2));
    let prompts = |seed| {
        llm::cycle(seed)
            .into_iter()
            .map(|r| r.prompt)
            .collect::<Vec<_>>()
    };
    assert_ne!(prompts(1), prompts(2));
    let first_input = |seed| serve::pool(seed)[0][0][0].data().to_vec();
    assert_ne!(first_input(1), first_input(2));
}

#[test]
fn simulated_cost_per_op_depends_on_the_seed() {
    for workload in [Workload::Compile, Workload::Llm] {
        let sim = |seed| {
            run(&Args {
                workload,
                seed,
                seconds: 0.2,
                trace: false,
            })
            .expect("set-up succeeds")
            .metrics
            .iter()
            .find(|m| m.name == "sim_us_per_op")
            .expect("reported")
            .value
        };
        assert_ne!(sim(1), sim(2), "{workload:?}");
    }
}
