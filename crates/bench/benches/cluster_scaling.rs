//! Cluster scaling benchmark: aggregate SLO goodput of a sharded
//! multi-replica serving cluster vs. a single replica, on a dense model
//! heavy enough (~ms per batch on the simulator) that one replica's two
//! GPU streams saturate well below the top offered load.
//!
//! The host machine has a small number of real cores, so wall-clock
//! throughput cannot scale with replica count; what scales is the
//! *simulated* GPU capacity — each worker is one simulated stream, and
//! batches dispatched to a saturated stream queue behind each other on
//! its timeline. The scaling metric is therefore **SLO goodput**:
//! completions whose simulated end-to-end latency (queue wait + stream
//! backlog + kernel time) meets the SLO, divided by the wall-clock
//! duration of the run. An overloaded replica keeps completing requests,
//! but their simulated latency grows without bound and they fall out of
//! the SLO — exactly how an overloaded real serving tier fails.
//!
//! The matrix is offered load x replica count under least-loaded
//! routing. With the `chaos` feature a second section re-runs the top
//! configuration while seeded replica kills
//! ([`bolt::faults::FaultSite::ReplicaKill`]) crash two of the four
//! replicas mid-storm, and reports availability (completed / accepted)
//! — the router must re-route around each corpse without losing a
//! request.
//!
//! Results print as tables and are emitted to
//! `target/experiments/cluster_scaling.json` and `BENCH_cluster.json`
//! at the workspace root. After writing them the run exits 1, naming the
//! failed condition, when a cell lost a request, when 4 replicas give
//! less than 3.0x the single-replica goodput at the top offered load,
//! or (with `chaos`) when availability under replica kills is below 99%.
//!
//! Run with: `cargo bench --bench cluster_scaling --features chaos`
//! (without the feature the chaos section is emitted as `null`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt::BoltConfig;
use bolt_bench::{exit_on_failed_gates, fmt_us, percentile, write_results, Table};
use bolt_cluster::{Cluster, ClusterConfig, ClusterError, ModelSpec, PlacementPolicy, ReplicaSpec};
use bolt_gpu_sim::GpuArch;
use bolt_serve::{EngineRegistry, Outcome, ServeConfig};
use bolt_tensor::{DType, Tensor};

const MODEL: &str = "dense-deep";
const INPUT_FEATURES: usize = 1024;
const HIDDEN: usize = 8192;
const LAYERS: usize = 5;
const WORKERS_PER_REPLICA: usize = 2;
const MAX_BATCH: usize = 8;
/// Simulated end-to-end latency bound for the goodput metric.
const SLO_US: f64 = 25_000.0;
const OFFERED: [f64; 3] = [2_000.0, 8_000.0, 16_000.0];
const REPLICAS: [usize; 3] = [1, 2, 4];

/// The bench model: a deep, wide FFN stack — built shapes-only, so
/// workers price it on the simulator instead of computing it (the whole
/// point: saturate the simulated streams, not the host cores).
fn builder() -> bolt_serve::registry::GraphBuilder {
    Arc::new(|batch| {
        let mut b = bolt_graph::GraphBuilder::shapes_only(DType::F16);
        let mut h = b.input(&[batch, INPUT_FEATURES]);
        for layer in 0..LAYERS {
            h = b.dense_bias(h, HIDDEN, &format!("ffn{layer}"));
        }
        let out = b.dense_bias(h, INPUT_FEATURES, "head");
        b.finish(&[out])
    })
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS_PER_REPLICA,
        max_batch: MAX_BATCH,
        // Long enough for a batch to fill at per-replica arrival rates
        // near capacity; partial batches ride the smaller buckets.
        batch_timeout: Duration::from_millis(3),
        queue_capacity: 4096,
        ..ServeConfig::default()
    }
}

fn cluster(replicas: usize) -> Arc<Cluster> {
    Cluster::new(ClusterConfig::homogeneous(
        ReplicaSpec {
            arch: GpuArch::tesla_t4(),
            bolt: BoltConfig::default(),
            serve: serve_config(),
            models: vec![ModelSpec::Custom {
                name: MODEL.into(),
                build: builder(),
                tuned: false,
            }],
        },
        replicas,
        PlacementPolicy::LeastLoaded,
    ))
    .expect("cluster comes up")
}

/// Simulated kernel time of one batch-8 launch on the heuristic engine —
/// the unit of capacity: one replica sustains
/// `workers * 8 / batch8_us` requests per second.
fn probe_batch8_us() -> f64 {
    let reg = EngineRegistry::new(GpuArch::tesla_t4(), BoltConfig::default());
    let build = builder();
    reg.register_dynamic(MODEL, move |batch| build(batch))
        .expect("register probe model");
    let engine = reg
        .compile_heuristic_bucket(MODEL, MAX_BATCH)
        .expect("heuristic compile");
    engine.time().total_us
}

struct Cell {
    replicas: usize,
    offered_rps: f64,
    requests: usize,
    accepted: u64,
    completed: u64,
    in_slo: u64,
    achieved_rps: f64,
    goodput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    rejected_admission: u64,
    lost: u64,
}

/// Open-loop arrival process against a fresh cluster: request `i` is due
/// at `start + i/rate`, so late service never slows the arrivals down.
fn run_cell(replicas: usize, offered_rps: f64) -> Cell {
    let cluster = cluster(replicas);
    // ~0.5 s of offered traffic, bounded; inputs are pre-generated so
    // the pacer spends its budget submitting, not sampling.
    let requests = ((offered_rps * 0.5) as usize).clamp(400, 8000);
    let mut inputs: Vec<Vec<Tensor>> = (0..requests)
        .rev()
        .map(|i| vec![Tensor::randn(&[1, INPUT_FEATURES], DType::F16, i as u64)])
        .collect();

    let start = Instant::now();
    let mut handles = Vec::with_capacity(requests);
    let mut rejected_admission = 0u64;
    for i in 0..requests {
        let due = start + Duration::from_secs_f64(i as f64 / offered_rps);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sample = inputs.pop().expect("pre-generated");
        match cluster.submit(MODEL, sample, None) {
            Ok(handle) => handles.push(handle),
            Err(ClusterError::AllBackpressured { .. }) => rejected_admission += 1,
            Err(other) => panic!("unexpected cluster error: {other}"),
        }
    }
    let mut latencies: Vec<f64> = handles
        .iter()
        .filter_map(|h| match h.wait() {
            Outcome::Completed(response) => Some(response.latency.total_us),
            _ => None,
        })
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let end = cluster.shutdown();
    // Drain must resolve every accepted request; `main` fails the run on
    // any loss once the results are written.
    let lost = end.totals.unresolved();
    let in_slo = latencies.iter().filter(|&&l| l <= SLO_US).count() as u64;
    Cell {
        replicas,
        offered_rps,
        requests,
        accepted: end.totals.accepted,
        completed: end.totals.completed,
        in_slo,
        achieved_rps: end.totals.completed as f64 / elapsed,
        goodput_rps: in_slo as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        rejected_admission,
        lost,
    }
}

fn cell_json(c: &Cell) -> String {
    format!(
        concat!(
            "    {{\"replicas\": {}, \"offered_rps\": {:.0}, \"requests\": {}, ",
            "\"accepted\": {}, \"completed\": {},\n     \"in_slo\": {}, ",
            "\"achieved_rps\": {:.1}, \"goodput_rps\": {:.1}, ",
            "\"sim_p50_us\": {:.1}, \"sim_p99_us\": {:.1},\n     ",
            "\"rejected_admission\": {}, \"lost\": {}}}"
        ),
        c.replicas,
        c.offered_rps,
        c.requests,
        c.accepted,
        c.completed,
        c.in_slo,
        c.achieved_rps,
        c.goodput_rps,
        c.p50_us,
        c.p99_us,
        c.rejected_admission,
        c.lost,
    )
}

/// Chaos section: the 4-replica cluster takes the 8k-offered storm while
/// the seeded fault plan abruptly kills the routed replica at the 800th
/// and 2400th cluster submissions. Availability is completed/accepted —
/// the only acceptable losses are the handful of requests queued on a
/// corpse at kill time, each resolved as a typed `Rejected`.
/// Returns the section's JSON and the availability, in percent.
#[cfg(feature = "chaos")]
fn run_chaos() -> (String, Option<f64>) {
    use bolt::faults::{self, ChaosConfig, FaultSite};

    let replicas = 4usize;
    let offered_rps = 8_000.0f64;
    let requests = 4_000usize;
    let cluster = cluster(replicas);
    let guard = faults::install(ChaosConfig {
        seed: 42,
        replica_kills: vec![800, 2400],
        ..ChaosConfig::default()
    });

    let mut inputs: Vec<Vec<Tensor>> = (0..requests)
        .rev()
        .map(|i| vec![Tensor::randn(&[1, INPUT_FEATURES], DType::F16, i as u64)])
        .collect();
    let start = Instant::now();
    let mut handles = Vec::with_capacity(requests);
    for i in 0..requests {
        let due = start + Duration::from_secs_f64(i as f64 / offered_rps);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sample = inputs.pop().expect("pre-generated");
        match cluster.submit(MODEL, sample, None) {
            Ok(handle) => handles.push(handle),
            Err(ClusterError::AllBackpressured { .. } | ClusterError::NoReplicas) => {}
            Err(other) => panic!("unexpected cluster error: {other}"),
        }
    }
    let mut completed = 0u64;
    let mut rejected = 0u64;
    for handle in &handles {
        match handle.wait() {
            Outcome::Completed(_) => completed += 1,
            _ => rejected += 1,
        }
    }
    let kills = guard
        .events()
        .iter()
        .filter(|e| e.site == FaultSite::ReplicaKill)
        .count();
    drop(guard);
    assert_eq!(kills, 2, "both scheduled replica kills fired");

    let end = cluster.shutdown();
    assert_eq!(
        end.totals.unresolved(),
        0,
        "kills dropped accepted requests"
    );
    assert_eq!(
        end.retired.iter().filter(|r| !r.graceful).count(),
        2,
        "two replicas died abruptly"
    );
    let accepted = end.totals.accepted;
    let availability = completed as f64 / accepted.max(1) as f64 * 100.0;
    println!(
        "\nchaos: {kills} seeded replica kills mid-storm, {} of {} replicas survived; \
         accepted {accepted}, completed {completed}, rejected-on-corpse {rejected}, \
         availability {availability:.2}%, lost 0",
        replicas - kills,
        replicas,
    );
    let json = format!(
        concat!(
            "{{\n    \"replicas\": {}, \"offered_rps\": {:.0}, \"requests\": {}, ",
            "\"replica_kills\": [800, 2400],\n    \"accepted\": {}, \"completed\": {}, ",
            "\"rejected\": {}, \"availability_pct\": {:.2}, \"lost\": 0\n  }}"
        ),
        replicas, offered_rps, requests, accepted, completed, rejected, availability,
    );
    (json, Some(availability))
}

#[cfg(not(feature = "chaos"))]
fn run_chaos() -> (String, Option<f64>) {
    println!("\nchaos section skipped (run with --features chaos to include it)");
    ("null".into(), None)
}

fn main() {
    let batch8_us = probe_batch8_us();
    let replica_capacity_rps = WORKERS_PER_REPLICA as f64 * MAX_BATCH as f64 * 1e6 / batch8_us;
    println!(
        "bench model: {LAYERS}x dense({HIDDEN}) shapes-only, batch-8 kernel time {} \
         => ~{:.0} rps capacity per replica ({WORKERS_PER_REPLICA} streams)",
        fmt_us(batch8_us),
        replica_capacity_rps,
    );

    let mut table = Table::new(&[
        "replicas",
        "offered rps",
        "achieved rps",
        "goodput rps",
        "in-SLO",
        "sim p50",
        "sim p99",
        "queue full",
        "lost",
    ]);
    let mut cells: Vec<Cell> = Vec::new();
    for &offered in &OFFERED {
        for &replicas in &REPLICAS {
            let cell = run_cell(replicas, offered);
            table.row(&[
                cell.replicas.to_string(),
                format!("{:.0}", cell.offered_rps),
                format!("{:.0}", cell.achieved_rps),
                format!("{:.0}", cell.goodput_rps),
                format!("{}/{}", cell.in_slo, cell.completed),
                fmt_us(cell.p50_us),
                fmt_us(cell.p99_us),
                cell.rejected_admission.to_string(),
                cell.lost.to_string(),
            ]);
            cells.push(cell);
        }
    }
    table.print(&format!(
        "Cluster scaling: SLO goodput (sim latency <= {} ) by offered load x replica \
         count, least-loaded routing",
        fmt_us(SLO_US)
    ));
    table.write_csv("cluster_scaling");

    // The headline: goodput scaling at the top offered load, where one
    // replica is far past saturation.
    let top = OFFERED[OFFERED.len() - 1];
    let goodput_at = |replicas: usize| {
        cells
            .iter()
            .find(|c| c.replicas == replicas && c.offered_rps == top)
            .map(|c| c.goodput_rps)
            .expect("cell ran")
    };
    let (one, four) = (goodput_at(1), goodput_at(4));
    let scaling = four / one.max(1e-9);
    println!(
        "\nscaling at {top:.0} offered rps: 1 replica {one:.0} goodput rps, \
         4 replicas {four:.0} goodput rps => {scaling:.2}x"
    );

    let (chaos, availability) = run_chaos();

    let json = format!(
        "{{\n  \"model\": {{\"name\": \"{MODEL}\", \"layers\": {LAYERS}, \
         \"hidden\": {HIDDEN}, \"batch8_sim_us\": {batch8_us:.1}, \
         \"replica_capacity_rps\": {replica_capacity_rps:.1}}},\n  \
         \"slo_us\": {SLO_US:.1},\n  \"workers_per_replica\": {WORKERS_PER_REPLICA},\n  \
         \"cells\": [\n{}\n  ],\n  \"scaling_at_top_offered\": {{\"offered_rps\": {top:.0}, \
         \"goodput_1_replica\": {one:.1}, \"goodput_4_replicas\": {four:.1}, \
         \"speedup\": {scaling:.3}}},\n  \"chaos\": {}\n}}\n",
        cells.iter().map(cell_json).collect::<Vec<_>>().join(",\n"),
        chaos,
    );
    write_results("cluster_scaling", "BENCH_cluster.json", &json);

    // Gates, on the unrounded figures, after the results are written.
    let mut failed = Vec::new();
    for c in cells.iter().filter(|c| c.lost != 0) {
        failed.push(format!(
            "{} replicas at {:.0} offered rps lost {} requests",
            c.replicas, c.offered_rps, c.lost
        ));
    }
    if scaling < 3.0 {
        failed.push(format!(
            "4-replica goodput is {scaling:.3}x single-replica, below 3.0x"
        ));
    }
    if let Some(pct) = availability.filter(|&pct| pct < 99.0) {
        failed.push(format!(
            "availability under replica kills is {pct:.2}%, below 99%"
        ));
    }
    exit_on_failed_gates(&failed);
}
