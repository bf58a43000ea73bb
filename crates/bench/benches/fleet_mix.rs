//! Heterogeneous-fleet benchmark: portable autotune bundles and
//! cost/SLO-aware placement on a mixed T4 + A100 cluster.
//!
//! Three phases:
//!
//! 1. **Pack** — tune the bench model's serving buckets once per
//!    architecture and pack the per-arch shards into one bundle (the
//!    `bolt-tune pack` flow, via the library API). This is where the
//!    fleet pays its tuning seconds — once, offline.
//! 2. **Cold boot** — bring up a mixed fleet where every replica, of
//!    either arch, boots from that one bundle. Each replica must report
//!    **zero** tuning seconds: the bundle made the tuning cost portable.
//! 3. **Sweep** — at a fixed four-replica budget, compare fleet
//!    compositions (uniform T4x4 vs. mixed T4x2 + A100x2) under
//!    arch-blind consistent-hash routing vs. cost/SLO-aware placement.
//!    The metric is **SLO goodput**: completions whose simulated
//!    end-to-end latency meets the SLO, per wall-clock second (see
//!    `cluster_scaling.rs` for why simulated capacity, not host
//!    throughput, is what scales).
//!
//! Results are emitted to `target/experiments/fleet_mix.json` and
//! `BENCH_fleet.json` at the workspace root. A bundle-booted replica
//! that reports nonzero tuning seconds panics before anything is
//! written. After writing the results the run exits 1, naming each
//! failed condition, when a cell lost a request or when cost/SLO
//! placement gives the mixed fleet less goodput than arch-blind
//! hashing.
//!
//! Run with: `cargo bench --bench fleet_mix`

use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt::{BoltConfig, TuneBundle};
use bolt_bench::{experiments_dir, fmt_us, write_bench_json, Table};
use bolt_cluster::{
    Cluster, ClusterConfig, ClusterError, ModelSpec, PlacementClass, PlacementPolicy, ReplicaSpec,
};
use bolt_gpu_sim::GpuArch;
use bolt_serve::{EngineRegistry, Outcome, ServeConfig};
use bolt_tensor::{DType, Tensor};

const MODEL: &str = "dense-mid";
const INPUT_FEATURES: usize = 1024;
const HIDDEN: usize = 4096;
const LAYERS: usize = 4;
const WORKERS_PER_REPLICA: usize = 2;
const MAX_BATCH: usize = 8;
/// Simulated end-to-end latency bound for the goodput metric.
const SLO_US: f64 = 25_000.0;
/// Tuning budget per workload when packing the bundle — small, because
/// the point being measured is *where* the cost is paid, not its size.
const PACK_CANDIDATES: usize = 8;

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
        batch_timeout: Duration::from_millis(3),
        queue_capacity: 4096,
        ..ServeConfig::default()
    }
}

fn tuning_config() -> BoltConfig {
    BoltConfig {
        profiler_candidates: PACK_CANDIDATES,
        ..BoltConfig::default()
    }
}

struct PackedArch {
    name: String,
    tuning_seconds: f64,
    entries: usize,
}

/// Phase 1: tune the serving buckets once per arch, exporting each
/// profiler's shard into one bundle. Returns the per-arch tuning bill —
/// the cost the bundle makes portable.
fn pack_bundle(path: &std::path::Path, arches: &[GpuArch]) -> Vec<PackedArch> {
    let buckets = serve_config().buckets();
    let mut bundle = TuneBundle::new();
    let mut packed = Vec::new();
    for arch in arches {
        let registry = EngineRegistry::new(arch.clone(), tuning_config());
        let build = builder();
        registry
            .register_with(MODEL, &buckets, move |batch| build(batch))
            .expect("tuning registry compiles");
        let shard = registry.compiler().profiler().export_shard();
        packed.push(PackedArch {
            name: arch.name.clone(),
            tuning_seconds: registry.compiler().profiler().stats().tuning_seconds(),
            entries: shard.len(),
        });
        bundle.absorb(shard);
    }
    bundle.write(path).expect("bundle writes");
    packed
}

fn placement_class(
    name: &str,
    arch: GpuArch,
    replicas: usize,
    bundle: &std::path::Path,
) -> PlacementClass {
    PlacementClass {
        name: name.into(),
        spec: ReplicaSpec {
            arch,
            bolt: BoltConfig {
                bundle_path: Some(bundle.to_path_buf()),
                ..tuning_config()
            },
            serve: serve_config(),
            models: vec![ModelSpec::Custom {
                name: MODEL.into(),
                build: builder(),
                tuned: true,
            }],
        },
        initial_replicas: replicas,
        min_replicas: 1,
        max_replicas: replicas,
    }
}

/// Fleet compositions at the fixed four-replica budget.
fn fleet(kind: &str, bundle: &std::path::Path, policy: PlacementPolicy) -> Arc<Cluster> {
    let classes = match kind {
        "t4x4" => vec![placement_class("t4", GpuArch::tesla_t4(), 4, bundle)],
        "mixed" => vec![
            placement_class("t4", GpuArch::tesla_t4(), 2, bundle),
            placement_class("a100", GpuArch::a100(), 2, bundle),
        ],
        other => panic!("unknown fleet kind {other}"),
    };
    Cluster::new(ClusterConfig { classes, policy }).expect("fleet comes up")
}

/// One T4 replica's simulated capacity, from the tuned batch-8 engine.
fn probe_batch8_us() -> f64 {
    let reg = EngineRegistry::new(GpuArch::tesla_t4(), tuning_config());
    let build = builder();
    reg.register_dynamic(MODEL, move |batch| build(batch))
        .expect("register probe model");
    let engine = reg
        .compile_heuristic_bucket(MODEL, MAX_BATCH)
        .expect("heuristic compile");
    engine.time().total_us
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct Cell {
    fleet: String,
    policy: String,
    offered_rps: f64,
    requests: usize,
    accepted: u64,
    completed: u64,
    in_slo: u64,
    goodput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    rejected_admission: u64,
    lost: u64,
}

/// Open-loop arrival process: request `i` is due at `start + i/rate`, so
/// late service never slows the arrivals down.
fn run_cell(
    fleet_kind: &str,
    policy_name: &str,
    bundle: &std::path::Path,
    offered_rps: f64,
) -> Cell {
    let policy = match policy_name {
        "consistent_hash" => PlacementPolicy::ConsistentHash { virtual_nodes: 64 },
        "cost_slo" => PlacementPolicy::cost_slo(),
        other => panic!("unknown policy {other}"),
    };
    let cluster = fleet(fleet_kind, bundle, policy);
    let requests = ((offered_rps * 0.4) as usize).clamp(400, 6000);
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
        fleet: fleet_kind.into(),
        policy: policy_name.into(),
        offered_rps,
        requests,
        accepted: end.totals.accepted,
        completed: end.totals.completed,
        in_slo,
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
            "    {{\"fleet\": \"{}\", \"policy\": \"{}\", \"offered_rps\": {:.0}, ",
            "\"requests\": {}, \"accepted\": {}, \"completed\": {},\n     ",
            "\"in_slo\": {}, \"goodput_rps\": {:.1}, \"sim_p50_us\": {:.1}, ",
            "\"sim_p99_us\": {:.1}, \"rejected_admission\": {}, \"lost\": {}}}"
        ),
        c.fleet,
        c.policy,
        c.offered_rps,
        c.requests,
        c.accepted,
        c.completed,
        c.in_slo,
        c.goodput_rps,
        c.p50_us,
        c.p99_us,
        c.rejected_admission,
        c.lost,
    )
}

fn main() {
    let dir = experiments_dir();
    let _ = std::fs::create_dir_all(&dir);
    let bundle_path = dir.join("fleet.bundle");

    // Phase 1: pack per-arch shards into one bundle.
    let packed = pack_bundle(&bundle_path, &[GpuArch::tesla_t4(), GpuArch::a100()]);
    for arch in &packed {
        println!(
            "packed {}: {} tuned workloads, {:.1} s simulated tuning",
            arch.name, arch.entries, arch.tuning_seconds
        );
    }

    // Phase 2: a mixed fleet cold-boots every replica from the bundle.
    let boot = fleet("mixed", &bundle_path, PlacementPolicy::cost_slo());
    let mut boot_json = Vec::new();
    let mut max_boot_tuning = 0.0f64;
    for replica in boot.replicas() {
        let seconds = replica.tuning_seconds();
        max_boot_tuning = max_boot_tuning.max(seconds);
        println!(
            "cold boot: replica {} ({}, class {}) tuning_seconds = {seconds}",
            replica.id(),
            replica.arch().name,
            replica.class()
        );
        boot_json.push(format!(
            "    {{\"replica\": {}, \"class\": \"{}\", \"arch\": \"{}\", \"tuning_seconds\": {seconds:.3}}}",
            replica.id(),
            replica.class(),
            replica.arch().name
        ));
    }
    boot.shutdown();
    assert_eq!(
        max_boot_tuning, 0.0,
        "a bundle-booted replica must not re-measure anything"
    );

    // Phase 3: fixed-budget sweep, fleet composition x placement policy.
    let batch8_us = probe_batch8_us();
    let t4_capacity_rps = WORKERS_PER_REPLICA as f64 * MAX_BATCH as f64 * 1e6 / batch8_us;
    // Past one replica's capacity, well under four: arch-blind hashing
    // pins the model to a single ring owner and saturates it, while
    // cost-aware placement spreads by per-arch kernel cost.
    let offered = 2.5 * t4_capacity_rps;
    println!(
        "\nbench model: {LAYERS}x dense({HIDDEN}) shapes-only, T4 batch-8 kernel time {} \
         => ~{t4_capacity_rps:.0} rps per T4 replica; offering {offered:.0} rps",
        fmt_us(batch8_us),
    );

    let mut table = Table::new(&[
        "fleet",
        "policy",
        "offered rps",
        "goodput rps",
        "in-SLO",
        "sim p50",
        "sim p99",
        "queue full",
        "lost",
    ]);
    let mut cells: Vec<Cell> = Vec::new();
    for fleet_kind in ["t4x4", "mixed"] {
        for policy in ["consistent_hash", "cost_slo"] {
            let cell = run_cell(fleet_kind, policy, &bundle_path, offered);
            table.row(&[
                cell.fleet.clone(),
                cell.policy.clone(),
                format!("{:.0}", cell.offered_rps),
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
        "Fleet mix: SLO goodput (sim latency <= {}) at a fixed 4-replica budget, \
         composition x placement policy",
        fmt_us(SLO_US)
    ));
    table.write_csv("fleet_mix");

    let goodput = |fleet: &str, policy: &str| {
        cells
            .iter()
            .find(|c| c.fleet == fleet && c.policy == policy)
            .map(|c| c.goodput_rps)
            .expect("cell ran")
    };
    let blind = goodput("mixed", "consistent_hash");
    let aware = goodput("mixed", "cost_slo");
    println!(
        "\nmixed fleet at {offered:.0} offered rps: arch-blind hashing {blind:.0} goodput rps, \
         cost/SLO placement {aware:.0} goodput rps => {:.2}x",
        aware / blind.max(1e-9)
    );

    let json = format!(
        "{{\n  \"model\": {{\"name\": \"{MODEL}\", \"layers\": {LAYERS}, \"hidden\": {HIDDEN}, \
         \"t4_batch8_sim_us\": {batch8_us:.1}, \"t4_capacity_rps\": {t4_capacity_rps:.1}}},\n  \
         \"slo_us\": {SLO_US:.1},\n  \"pack\": [\n{}\n  ],\n  \
         \"cold_boot\": {{\"max_tuning_seconds\": {max_boot_tuning:.3}, \"replicas\": [\n{}\n  ]}},\n  \
         \"cells\": [\n{}\n  ],\n  \
         \"headline\": {{\"offered_rps\": {offered:.0}, \
         \"mixed_arch_blind_goodput\": {blind:.1}, \"mixed_cost_slo_goodput\": {aware:.1}, \
         \"uplift\": {:.3}}}\n}}\n",
        packed
            .iter()
            .map(|a| format!(
                "    {{\"arch\": \"{}\", \"entries\": {}, \"tuning_seconds\": {:.1}}}",
                a.name, a.entries, a.tuning_seconds
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        boot_json.join(",\n"),
        cells.iter().map(cell_json).collect::<Vec<_>>().join(",\n"),
        aware / blind.max(1e-9),
    );
    let path = dir.join("fleet_mix.json");
    if std::fs::write(&path, &json).is_ok() {
        println!("wrote {}", path.display());
    }
    write_bench_json("BENCH_fleet.json", &json);

    // Gates, on the unrounded figures, after the results are written.
    let mut failed = Vec::new();
    for c in cells.iter().filter(|c| c.lost != 0) {
        failed.push(format!(
            "{} fleet under {} lost {} requests",
            c.fleet, c.policy, c.lost
        ));
    }
    if aware < blind {
        failed.push(format!(
            "mixed-fleet cost/SLO goodput {aware:.1} rps is below arch-blind hashing {blind:.1} rps"
        ));
    }
    if !failed.is_empty() {
        for reason in &failed {
            eprintln!("gate failed: {reason}");
        }
        std::process::exit(1);
    }
}
