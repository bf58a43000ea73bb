//! The repository benchmark: three closed-loop workloads over the Bolt
//! stack, each checked for correct outputs, reporting host wall-clock
//! and simulated-GPU metrics side by side (never mixed in one figure).
//!
//! * `compile` — cold compiles of the six Figure 10 CNNs.
//! * `serve` — single-sample requests through `BoltServer`.
//! * `llm` — `tiny-lm` sequences through the continuous batcher.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]). A
//! traced run reports the per-layer metrics ([`PER_LAYER`]) from spans
//! around the benchmark's own calls into each layer, plus the tracing
//! overhead. See `README.md` for what every metric means.

pub mod compile;
pub mod llm;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use trace::Tracer;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_cpu_s", "1/s"),
    ("op_cpu_p50_ms", "ms"),
    ("op_cpu_tail_ms", "ms"),
    ("sim_us_per_op", "us"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A
/// layer the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.passes_ms", "ms"),
    ("core.profiler.search_ms", "ms"),
    ("core.profiler.measurements", "count"),
    ("core.profiler.pruned_share", "fraction"),
    ("core.profiler.sim_tune_s", "s"),
    ("core.lower_plan_ms", "ms"),
    ("core.plan.kernels", "count"),
    ("gpu_sim.price_ms", "ms"),
    ("serve.server.submit_us", "us"),
    ("serve.server.mean_batch", "requests"),
    ("serve.server.full_batch_share", "fraction"),
    ("serve.server.padding_fraction", "fraction"),
    ("core.plan.run_batched_ms.mlp-small", "ms"),
    ("core.plan.run_batched_ms.mlp-large", "ms"),
    ("core.plan.run_batched_ms.cnn-small", "ms"),
    ("cutlass.gemm_ms", "ms"),
    ("cutlass.conv2d_ms", "ms"),
    ("core.plan.host_step_ms", "ms"),
    ("serve.server.overhead_ms_per_batch", "ms"),
    ("serve.metrics.snapshot_ms", "ms"),
    ("serve.server.heap_allocs_per_request", "count"),
    ("serve.continuous.decode_step_ms", "ms"),
    ("serve.continuous.prefill_step_ms", "ms"),
    ("core.plan.decode_gemm_ms", "ms"),
    ("models.llm.attention_ms", "ms"),
    ("serve.continuous.self_ms", "ms"),
    ("serve.continuous.heap_allocs_per_step", "count"),
    ("serve.continuous.tokens_per_step", "tokens"),
    ("serve.continuous.padding_fraction", "fraction"),
    ("core.kv.preemptions", "count"),
    ("core.kv.recompute_tokens", "tokens"),
    ("core.kv.fresh_allocations", "count"),
    ("serve.continuous.sim_prefill_us", "us"),
    ("serve.continuous.sim_decode_step_us", "us"),
    ("serve.continuous.sim_ttft_p50_ms", "ms"),
    ("serve.continuous.sim_ttft_tail_ms", "ms"),
    ("serve.continuous.sim_itl_p50_ms", "ms"),
    ("serve.continuous.sim_itl_tail_ms", "ms"),
    ("wall.ops_s", "1/s"),
    ("wall.op_p50_ms", "ms"),
    ("wall.op_tail_ms", "ms"),
    ("trace.overhead_share", "fraction"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold compiles of the Figure 10 CNNs.
    Compile,
    /// Requests through the dynamic-batching server.
    Serve,
    /// Sequences through the continuous LLM batcher.
    Llm,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "compile" => Some(Workload::Compile),
            "serve" => Some(Workload::Serve),
            "llm" => Some(Workload::Llm),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Serve => "serve",
            Workload::Llm => "llm",
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Length of the untraced timed phase: the whole run, or the first
    /// half of a traced run (the baseline its tracing overhead is taken
    /// against).
    pub fn untraced_budget(&self) -> Duration {
        if self.trace {
            self.traced_budget()
        } else {
            Duration::from_secs_f64(self.seconds)
        }
    }

    /// Length of a traced run's traced phase: the second half.
    pub fn traced_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }
}

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted (compiles, requests or sequences).
    pub attempted: u64,
    /// Ops that failed or whose outputs did not check out.
    pub failed: u64,
    /// Human-readable description of every failed check.
    pub problems: Vec<String>,
    /// The reported metrics: [`END_TO_END`] untraced, [`PER_LAYER`] traced.
    pub metrics: Vec<Metric>,
    /// Extra lines for the printed table (sample counts, percentiles).
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// True when every op succeeded, every check passed and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The JSON object the benchmark prints as its last line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-tripping decimal for a finite value. JSON has no NaN;
/// a non-finite metric prints as 0 and marks the run incorrect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Collects named values and emits them in a fixed metric order.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` (which must appear in the metric list it is emitted with).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Every metric of `list` in order; unset names read 0.
    pub fn emit(&self, list: &[(&'static str, &'static str)]) -> Vec<Metric> {
        debug_assert!(
            self.0.keys().all(|k| list.iter().any(|(n, _)| n == k)),
            "a value was set under a name outside the metric list"
        );
        list.iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;

/// Builds the workload's system `SETUP_REPEATS` times, dropping each
/// instance before the next is built, and returns the median CPU time of
/// one build in seconds with the last instance.
///
/// # Errors
///
/// The first build error.
pub fn repeated_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut last: Option<T> = None;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let cpu = process_cpu_s();
        last = Some(build()?);
        times.push(process_cpu_s() - cpu);
    }
    Ok((stats::median(&times), last.expect("SETUP_REPEATS > 0")))
}

/// CPU time this process (all threads) has run, in seconds.
///
/// Host cost is gated in CPU time rather than wall time. On a shared
/// virtual machine the hypervisor takes each virtual CPU away for
/// stretches (steal time) that came in minute-long bursts of up to 40%
/// on the reference host, moving wall-clock figures by up to 2x between
/// back-to-back runs; the kernel accounts CPU time without steal.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), the only memory the call writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Length of the windows a phase's figures are taken over.
pub const WINDOW_S: f64 = 1.0;

/// Record of one measured phase: every completed op with its completion
/// time, wall and CPU latency, and weight.
///
/// The reported figures are medians over [`WINDOW_S`] windows — the
/// median window's throughput, p50 and p90 — so a stretch of contention
/// covering less than half the phase does not move them.
#[derive(Debug, Clone)]
pub struct Phase {
    start: Instant,
    events: Vec<Event>,
    /// Phase length, s.
    pub wall_s: f64,
    /// `VmHWM` once the phase finished a fixed amount of work (see
    /// [`Phase::note_peak_rss`]), MB.
    pub peak_rss_mb: f64,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    /// Completion, seconds since the phase began.
    at_s: f64,
    wall_ms: f64,
    cpu_ms: f64,
    ops: u64,
}

/// Figures of one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Ops per second of process CPU time.
    pub ops_per_cpu_s: f64,
    /// Median process CPU time per op, ms.
    pub cpu_p50_ms: f64,
    /// p90 process CPU time per op, ms.
    pub cpu_tail_ms: f64,
    /// Ops completed per wall second.
    pub ops_s: f64,
    /// Median op wall latency, ms.
    pub wall_p50_ms: f64,
    /// p90 op wall latency, ms.
    pub wall_tail_ms: f64,
    /// Latency samples.
    pub samples: usize,
}

impl Phase {
    /// Starts a phase now.
    pub fn begin() -> Self {
        Phase {
            start: Instant::now(),
            events: Vec::new(),
            wall_s: 0.0,
            peak_rss_mb: 0.0,
        }
    }

    /// When the phase began.
    pub fn started(&self) -> Instant {
        self.start
    }

    /// Time since the phase began.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Records an op completed at `at` that took `wall_ms` of wall time
    /// and `cpu_ms` of process CPU time, and did `ops` units of work (a
    /// compile, a request, a step's tokens).
    pub fn record(&mut self, at: Instant, wall_ms: f64, cpu_ms: f64, ops: u64) {
        self.events.push(Event {
            at_s: at.saturating_duration_since(self.start).as_secs_f64(),
            wall_ms,
            cpu_ms,
            ops,
        });
    }

    /// Ends the phase now.
    pub fn finish(&mut self) {
        self.wall_s = self.start.elapsed().as_secs_f64();
    }

    /// Ends the phase at a fixed length (ops completing later are not
    /// recorded).
    pub fn finish_at(&mut self, length: Duration) {
        self.wall_s = length.as_secs_f64();
    }

    /// Units of work completed.
    pub fn ops(&self) -> u64 {
        self.events.iter().map(|e| e.ops).sum()
    }

    /// Latency samples recorded.
    pub fn samples(&self) -> usize {
        self.events.len()
    }

    /// The phase cut into [`WINDOW_S`] windows; a remainder shorter than
    /// a window joins the last one. A phase shorter than one window is
    /// one window.
    pub fn windows(&self) -> Vec<Window> {
        let full = (self.wall_s / WINDOW_S).floor().max(1.0) as usize;
        let mut by_window: Vec<Vec<Event>> = vec![Vec::new(); full];
        for e in &self.events {
            by_window[((e.at_s / WINDOW_S) as usize).min(full - 1)].push(*e);
        }
        by_window
            .iter()
            .enumerate()
            .map(|(w, events)| {
                let length = if w + 1 == full {
                    self.wall_s - WINDOW_S * w as f64
                } else {
                    WINDOW_S
                };
                let ops: u64 = events.iter().map(|e| e.ops).sum();
                let cpu_s: f64 = events.iter().map(|e| e.cpu_ms).sum::<f64>() / 1e3;
                let cpu: Vec<f64> = events.iter().map(|e| e.cpu_ms).collect();
                let wall: Vec<f64> = events.iter().map(|e| e.wall_ms).collect();
                Window {
                    ops_per_cpu_s: ops as f64 / cpu_s.max(1e-9),
                    cpu_p50_ms: stats::median(&cpu),
                    cpu_tail_ms: stats::percentile(&cpu, stats::WALL_TAIL_PERCENTILE),
                    ops_s: ops as f64 / length.max(1e-9),
                    wall_p50_ms: stats::median(&wall),
                    wall_tail_ms: stats::percentile(&wall, stats::WALL_TAIL_PERCENTILE),
                    samples: events.len(),
                }
            })
            .collect()
    }

    /// The median over windows of `f`.
    pub fn median_window(&self, f: fn(&Window) -> f64) -> f64 {
        stats::median(&self.windows().iter().map(f).collect::<Vec<_>>())
    }

    /// One line describing the windows, for the printed table.
    pub fn describe(&self, op: &str) -> String {
        let windows = self.windows();
        let fewest = windows.iter().map(|w| w.samples).min().unwrap_or(0);
        format!(
            "host figures: medians over {} windows of {WINDOW_S} s of the window's rate, \
             p50 and p{} of {op} ({} samples in all, at least {fewest} per window)",
            windows.len(),
            stats::WALL_TAIL_PERCENTILE,
            self.samples()
        )
    }

    /// The wall-clock figures, for the printed table.
    pub fn describe_wall(&self) -> String {
        format!(
            "wall clock (not gated): {:.1} ops/s, p50 {:.4} ms, p{} {:.4} ms",
            self.median_window(|w| w.ops_s),
            self.median_window(|w| w.wall_p50_ms),
            stats::WALL_TAIL_PERCENTILE,
            self.median_window(|w| w.wall_tail_ms)
        )
    }

    /// Records peak RSS the first time it is called. Workloads call it
    /// after a fixed amount of work (their first cycle, or a fixed
    /// request count) rather than at the end: the LLM batcher's memory
    /// grows with every cycle, and a figure taken at the end would move
    /// with host speed.
    pub fn note_peak_rss(&mut self) {
        if self.peak_rss_mb == 0.0 {
            self.peak_rss_mb = trace::peak_rss_mb();
        }
    }
}

/// Fills the end-to-end metrics shared by every workload.
pub fn end_to_end(values: &mut Values, setup_s: f64, phase: &Phase, sim_us_per_op: f64) {
    values.set("setup_s", setup_s);
    values.set("peak_rss_mb", phase.peak_rss_mb);
    values.set("ops_per_cpu_s", phase.median_window(|w| w.ops_per_cpu_s));
    values.set("op_cpu_p50_ms", phase.median_window(|w| w.cpu_p50_ms));
    values.set("op_cpu_tail_ms", phase.median_window(|w| w.cpu_tail_ms));
    values.set("sim_us_per_op", sim_us_per_op);
}

/// The traced run's wall-clock figures (from its untraced half) and
/// `trace.overhead_share`: the share of untraced throughput per CPU
/// second lost with tracing on.
pub fn wall_and_overhead(values: &mut Values, untraced: &Phase, traced: &Phase) -> String {
    values.set("wall.ops_s", untraced.median_window(|w| w.ops_s));
    values.set("wall.op_p50_ms", untraced.median_window(|w| w.wall_p50_ms));
    values.set(
        "wall.op_tail_ms",
        untraced.median_window(|w| w.wall_tail_ms),
    );
    let before = untraced.median_window(|w| w.ops_per_cpu_s);
    let after = traced.median_window(|w| w.ops_per_cpu_s);
    let share = 1.0 - after / before.max(1e-9);
    values.set("trace.overhead_share", share);
    format!(
        "tracing overhead: untraced {before:.1} ops per CPU second, traced {after:.1} ({:+.1}%)",
        share * 100.0
    )
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// A set-up failure (the system could not be built), as a message.
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload {
        Workload::Compile => compile::run(args),
        Workload::Serve => serve::run(args),
        Workload::Llm => llm::run(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        let mut v = Values::default();
        v.set("setup_s", 0.25);
        r.metrics = v.emit(END_TO_END);
        let line = r.json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let rest = &text[start..];
            rest[..rest.find(']').expect("closing bracket")].to_string()
        };
        let names = |section: &str| {
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect::<Vec<_>>()
        };
        let expect =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&section("end_to_end")), expect(END_TO_END));
        assert_eq!(names(&section("per_layer")), expect(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} has unit {unit} in BENCHMARK.json"
            );
        }
    }
}
