//! `compile`: cold compiles of the six Figure 10 CNNs — the paper's own
//! tuning-time and latency experiment.
//!
//! One op is a cold compile: a fresh `BoltCompiler` with no tune cache
//! compiles one graph and prices the result on the simulated T4
//! (`CompiledModel::time`). Graph passes, lowering and the profiler do
//! nearly all the work; the functional executor does none.
//!
//! A cycle holds every model at [`BATCHES_PER_MODEL`] seeded batch sizes
//! around the paper's 32, in seeded order. The timed phase repeats whole
//! cycles; every cycle must reproduce the first one's simulated latency
//! and tuning figures exactly. At a single fixed batch the simulated
//! figures would not depend on the seed at all.

use std::time::Instant;

use bolt::{BoltCompiler, BoltConfig};
use bolt_gpu_sim::GpuArch;
use bolt_graph::passes::PassManager;
use bolt_graph::Graph;
use bolt_models::{model_by_name, FIGURE10_MODELS};

use crate::stats::{self, SplitMix};
use crate::trace::Tracer;
use crate::{Args, Phase, Report, Values, END_TO_END, PER_LAYER};

/// Seeded batch sizes per model in one cycle.
pub const BATCHES_PER_MODEL: usize = 8;
/// Smallest batch a cycle draws.
pub const MIN_BATCH: usize = 28;
/// Largest batch a cycle draws.
pub const MAX_BATCH: usize = 36;

/// The cycle's `(model, batch)` jobs for `seed`.
pub fn cycle(seed: u64) -> Vec<(&'static str, usize)> {
    let mut rng = SplitMix::new(seed, 1);
    let mut jobs: Vec<(&'static str, usize)> = FIGURE10_MODELS
        .iter()
        .flat_map(|&model| vec![model; BATCHES_PER_MODEL])
        .map(|model| (model, rng.range(MIN_BATCH, MAX_BATCH)))
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

/// What one compile produced, for the per-cycle identity check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Compiled {
    /// Simulated T4 latency of one batch, µs.
    pub latency_us: f64,
    /// Simulated tuning time, s.
    pub tuning_s: f64,
    /// Candidate measurements.
    pub measurements: usize,
    /// Candidates pruned by the roofline bound.
    pub pruned: usize,
    /// Device kernels in the plan.
    pub kernels: usize,
}

fn cold_compiler(deployment_passes: bool) -> BoltCompiler {
    BoltCompiler::new(
        GpuArch::tesla_t4(),
        BoltConfig {
            deployment_passes,
            ..BoltConfig::default()
        },
    )
}

/// The untraced op: `BoltCompiler::compile` end to end, then pricing.
fn compile_op(graph: &Graph) -> Result<Compiled, String> {
    let compiler = cold_compiler(true);
    let model = compiler.compile(graph).map_err(|e| e.to_string())?;
    Ok(Compiled {
        latency_us: model.time().total_us,
        tuning_s: model.tuning.tuning_seconds,
        measurements: model.tuning.measurements,
        pruned: model.tuning.pruned,
        kernels: model.kernel_count(),
    })
}

/// A compiler for graphs whose deployment passes already ran: the traced
/// path runs the passes itself so they get their own span.
pub fn passes_off_compiler() -> BoltCompiler {
    cold_compiler(false)
}

/// One compile through `compiler` (from [`passes_off_compiler`]), split
/// at the layer boundaries `BoltCompiler::compile` crosses internally:
/// deployment passes, the profiler's batched search, then lowering and
/// plan build of the already-profiled graph, then pricing. Counts are the
/// profiler's deltas, so a shared compiler charges only new work.
pub fn traced_compile(
    compiler: &BoltCompiler,
    graph: &Graph,
    tracer: &mut Tracer,
    op: u64,
) -> Result<Compiled, String> {
    let outer = tracer.enter("core.compile", op);
    let result = (|| {
        let before = compiler.profiler().stats();
        let optimized = tracer
            .time("graph.passes", op, || PassManager::deployment().run(graph))
            .map_err(|e| e.to_string())?;
        tracer
            .time("core.profiler.search", op, || {
                let tasks = compiler.profile_tasks(&optimized)?;
                compiler.profiler().profile_batch(&tasks);
                Ok::<_, bolt::BoltError>(())
            })
            .map_err(|e| e.to_string())?;
        let model = tracer
            .time("core.lower_plan", op, || compiler.compile(&optimized))
            .map_err(|e| e.to_string())?;
        let after = compiler.profiler().stats();
        let latency_us = tracer.time("gpu_sim.price", op, || model.time().total_us);
        Ok(Compiled {
            latency_us,
            tuning_s: after.tuning_seconds() - before.tuning_seconds(),
            measurements: after.measurements - before.measurements,
            pruned: after.pruned - before.pruned,
            kernels: model.kernel_count(),
        })
    })();
    tracer.exit(outer);
    result
}

struct Job {
    model: &'static str,
    batch: usize,
    graph: Graph,
}

/// Runs whole cycles until `budget` has passed (at least one cycle).
/// `first` holds the first cycle's results; later cycles are checked
/// against it.
fn timed_cycles(
    jobs: &[Job],
    budget: std::time::Duration,
    mut op: impl FnMut(&Graph, u64) -> Result<Compiled, String>,
    first: &mut Vec<Compiled>,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase::begin();
    let mut op_id = 0u64;
    loop {
        for (i, job) in jobs.iter().enumerate() {
            report.attempted += 1;
            let t0 = Instant::now();
            let cpu0 = crate::process_cpu_s();
            let result = op(&job.graph, op_id);
            let cpu_ms = (crate::process_cpu_s() - cpu0) * 1e3;
            let end = Instant::now();
            op_id += 1;
            let compiled = match result {
                Ok(c) => c,
                Err(e) => {
                    report.failed += 1;
                    report
                        .problems
                        .push(format!("{}@{}: compile failed: {e}", job.model, job.batch));
                    continue;
                }
            };
            phase.record(end, (end - t0).as_secs_f64() * 1e3, cpu_ms, 1);
            if !(compiled.latency_us.is_finite() && compiled.latency_us > 0.0) {
                report.failed += 1;
                report.problems.push(format!(
                    "{}@{}: simulated latency {} is not finite and positive",
                    job.model, job.batch, compiled.latency_us
                ));
            }
            match first.get(i) {
                None => first.push(compiled),
                Some(expected) if *expected != compiled => {
                    report.failed += 1;
                    report.problems.push(format!(
                        "{}@{}: cycle result {compiled:?} differs from the first cycle's {expected:?}",
                        job.model, job.batch
                    ));
                }
                Some(_) => {}
            }
        }
        phase.note_peak_rss();
        if phase.elapsed() >= budget {
            break;
        }
    }
    phase.finish();
    phase
}

/// Runs the `compile` workload.
///
/// # Errors
///
/// Never fails at set-up beyond an unknown model (a bug).
pub fn run(args: &Args) -> Result<Report, String> {
    let plan = cycle(args.seed);
    // Set-up: build the cycle's graphs.
    let (setup_s, jobs) = crate::repeated_setup(|| {
        Ok(plan
            .iter()
            .map(|&(model, batch)| Job {
                model,
                batch,
                graph: model_by_name(model, batch).graph,
            })
            .collect::<Vec<Job>>())
    })?;

    let mut report = Report::default();
    let mut values = Values::default();
    let mut first = Vec::new();
    let untraced = timed_cycles(
        &jobs,
        args.untraced_budget(),
        |g, _| compile_op(g),
        &mut first,
        &mut report,
    );
    let sim_us_per_op = stats::geomean(&first.iter().map(|c| c.latency_us).collect::<Vec<_>>());
    report.notes.push(format!(
        "cycle: {} compiles ({} models x {} seeded batches in {}..={}); {} cycles timed",
        jobs.len(),
        FIGURE10_MODELS.len(),
        BATCHES_PER_MODEL,
        MIN_BATCH,
        MAX_BATCH,
        untraced.samples() / jobs.len().max(1)
    ));
    report
        .notes
        .push(untraced.describe("per-compile CPU and wall times"));
    report.notes.push(untraced.describe_wall());

    if !args.trace {
        crate::end_to_end(&mut values, setup_s, &untraced, sim_us_per_op);
        report.metrics = values.emit(END_TO_END);
        return Ok(report);
    }

    let mut tracer = Tracer::new(true);
    let traced = timed_cycles(
        &jobs,
        args.traced_budget(),
        |g, op| traced_compile(&passes_off_compiler(), g, &mut tracer, op),
        &mut first,
        &mut report,
    );
    report
        .notes
        .push(crate::wall_and_overhead(&mut values, &untraced, &traced));
    compile_layers(&mut values, &tracer, &first);
    report.metrics = values.emit(PER_LAYER);
    report.tracer = Some(tracer);
    Ok(report)
}

/// The compile-path per-layer metrics: mean self times per compile from
/// `tracer`, counts and simulated tuning per compile from `compiled`.
pub fn compile_layers(values: &mut Values, tracer: &Tracer, compiled: &[Compiled]) {
    values.set("graph.passes_ms", tracer.mean_self_ms("graph.passes"));
    values.set(
        "core.profiler.search_ms",
        tracer.mean_self_ms("core.profiler.search"),
    );
    values.set("core.lower_plan_ms", tracer.mean_self_ms("core.lower_plan"));
    values.set("gpu_sim.price_ms", tracer.mean_self_ms("gpu_sim.price"));
    let n = compiled.len().max(1) as f64;
    let measured: usize = compiled.iter().map(|c| c.measurements).sum();
    let pruned: usize = compiled.iter().map(|c| c.pruned).sum();
    values.set("core.profiler.measurements", measured as f64 / n);
    values.set(
        "core.profiler.pruned_share",
        pruned as f64 / (pruned + measured).max(1) as f64,
    );
    values.set(
        "core.profiler.sim_tune_s",
        compiled.iter().map(|c| c.tuning_s).sum::<f64>() / n,
    );
    values.set(
        "core.plan.kernels",
        compiled.iter().map(|c| c.kernels).sum::<usize>() as f64 / n,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_holds_every_model_at_seeded_batches() {
        let a = cycle(7);
        assert_eq!(a.len(), FIGURE10_MODELS.len() * BATCHES_PER_MODEL);
        for model in FIGURE10_MODELS {
            assert_eq!(
                a.iter().filter(|(m, _)| *m == model).count(),
                BATCHES_PER_MODEL
            );
        }
        assert!(a.iter().all(|&(_, b)| (MIN_BATCH..=MAX_BATCH).contains(&b)));
        assert_eq!(a, cycle(7));
        assert_ne!(a, cycle(8));
    }

    #[test]
    fn traced_op_matches_the_untraced_compile() {
        let graph = model_by_name("resnet-18", 30).graph;
        let plain = compile_op(&graph).expect("compiles");
        let mut tracer = Tracer::new(true);
        let traced =
            traced_compile(&passes_off_compiler(), &graph, &mut tracer, 0).expect("compiles");
        assert_eq!(plain, traced);
        for layer in [
            "graph.passes",
            "core.profiler.search",
            "core.lower_plan",
            "gpu_sim.price",
        ] {
            assert!(tracer.self_times().contains_key(layer), "{layer}");
        }
    }
}
