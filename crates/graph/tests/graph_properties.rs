//! Property tests over randomly generated graphs: structural invariants
//! that every pass and the partitioner must preserve regardless of
//! topology.

use proptest::prelude::*;

use bolt_graph::passes::{DeadCodeElimination, Pass, PassManager};
use bolt_graph::{extract_workloads, partition, Graph, GraphBuilder, NodeId, OpKind};
use bolt_tensor::{Activation, DType, Shape};

/// Instruction stream for building a random (but always valid) CNN-ish
/// graph: each step appends one operator wired to a random previous
/// rank-4 value.
#[derive(Debug, Clone, Copy)]
enum BuildStep {
    Conv { out_ch_idx: usize, stride1: bool },
    Act(usize),
    AddWithEarlier(usize),
    Pool,
    Dead(usize),
}

fn build_steps() -> impl Strategy<Value = Vec<BuildStep>> {
    let step = prop_oneof![
        (0usize..4, any::<bool>()).prop_map(|(o, s)| BuildStep::Conv {
            out_ch_idx: o,
            stride1: s
        }),
        (0usize..4).prop_map(BuildStep::Act),
        (0usize..8).prop_map(BuildStep::AddWithEarlier),
        Just(BuildStep::Pool),
        (0usize..4).prop_map(BuildStep::Dead),
    ];
    prop::collection::vec(step, 1..12)
}

const CHANNELS: [usize; 4] = [4, 8, 12, 16];
const ACTS: [Activation; 4] = [
    Activation::ReLU,
    Activation::Gelu,
    Activation::Hardswish,
    Activation::Softplus,
];

/// Materializes the instruction stream into a graph, tracking rank-4
/// values so every reference is valid by construction.
fn build(steps: &[BuildStep]) -> Graph {
    let mut b = GraphBuilder::shapes_only(DType::F16);
    let x = b.input(&[2, 4, 16, 16]);
    let mut values: Vec<NodeId> = vec![x];
    let mut cur = x;
    for (i, step) in steps.iter().enumerate() {
        cur = match *step {
            BuildStep::Conv {
                out_ch_idx,
                stride1,
            } => {
                let stride = if stride1 { (1, 1) } else { (2, 2) };
                // Guard: don't stride below 4x4 spatial.
                let shape = b.graph().node(cur).shape.clone();
                let stride = if shape.dim(2) < 8 { (1, 1) } else { stride };
                b.conv2d_bias(
                    cur,
                    CHANNELS[out_ch_idx],
                    3,
                    stride,
                    (1, 1),
                    &format!("conv{i}"),
                )
            }
            BuildStep::Act(a) => b.activation(cur, ACTS[a], &format!("act{i}")),
            BuildStep::AddWithEarlier(pick) => {
                // Find an earlier value with an identical shape, if any.
                let shape = b.graph().node(cur).shape.clone();
                let candidates: Vec<NodeId> = values
                    .iter()
                    .copied()
                    .filter(|&v| v != cur && b.graph().node(v).shape == shape)
                    .collect();
                if candidates.is_empty() {
                    b.activation(cur, Activation::ReLU, &format!("act_fallback{i}"))
                } else {
                    let other = candidates[pick % candidates.len()];
                    b.add(cur, other, &format!("add{i}"))
                }
            }
            BuildStep::Pool => {
                let shape = b.graph().node(cur).shape.clone();
                if shape.dim(2) >= 4 {
                    b.max_pool(cur, 2, 2, &format!("pool{i}"))
                } else {
                    b.activation(cur, Activation::ReLU, &format!("act_small{i}"))
                }
            }
            BuildStep::Dead(a) => {
                // A dead branch: computed but never consumed.
                let _ = b.activation(cur, ACTS[a], &format!("dead{i}"));
                cur
            }
        };
        values.push(cur);
    }
    b.finish(&[cur])
}

/// One edit of a same-shaped graph; indices pick existing nodes modulo
/// the graph's length.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Relu(usize),
    Add(usize, usize),
    /// `Add(x, x)`: one node reading the same input twice.
    AddTwice(usize),
    ReplaceUses(usize, usize),
    Output(usize),
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let edit = prop_oneof![
        (0usize..64).prop_map(Edit::Relu),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Edit::Add(a, b)),
        (0usize..64).prop_map(Edit::AddTwice),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Edit::ReplaceUses(a, b)),
        (0usize..64).prop_map(Edit::Output),
    ];
    prop::collection::vec(edit, 1..32)
}

/// `Graph::consumers` and `Graph::single_consumer` against a scan of
/// every node, for every id.
fn check_consumers(g: &Graph) -> Result<(), TestCaseError> {
    for node in g.nodes() {
        let id = node.id;
        let scan: Vec<NodeId> = g
            .nodes()
            .iter()
            .filter(|n| n.inputs.contains(&id))
            .map(|n| n.id)
            .collect();
        prop_assert_eq!(g.consumers(id), scan.as_slice(), "consumers of {}", id);
        let single = match scan.as_slice() {
            [only] if !g.outputs().contains(&id) => Some(*only),
            _ => None,
        };
        prop_assert_eq!(g.single_consumer(id), single, "single consumer of {}", id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn consumer_index_matches_a_scan_across_edits(edits in edits()) {
        let mut g = Graph::new();
        for name in ["x0", "x1"] {
            let input = OpKind::Input { shape: Shape::new(&[1, 2, 4, 4]), dtype: DType::F16 };
            g.add(input, &[], name).unwrap();
        }
        // Query after every edit, so a stale index from the previous
        // state would be read.
        check_consumers(&g)?;
        for edit in edits {
            let pick = |i: usize| g.nodes()[i % g.len()].id;
            match edit {
                Edit::Relu(a) => {
                    g.add(OpKind::Activation(Activation::ReLU), &[pick(a)], "relu").unwrap();
                }
                Edit::Add(a, b) => {
                    g.add(OpKind::Add, &[pick(a), pick(b)], "add").unwrap();
                }
                Edit::AddTwice(a) => {
                    let x = pick(a);
                    g.add(OpKind::Add, &[x, x], "add_twice").unwrap();
                }
                Edit::ReplaceUses(old, new) => {
                    let (old, new) = (pick(old), pick(new));
                    g.replace_uses(old, new);
                }
                Edit::Output(a) => {
                    let out = pick(a);
                    g.set_outputs(&[out]);
                }
            }
            check_consumers(&g)?;
        }
    }

    #[test]
    fn dce_preserves_outputs_and_removes_garbage(steps in build_steps()) {
        let g = build(&steps);
        let clean = DeadCodeElimination.run(&g).unwrap();
        // Outputs preserved with identical shapes.
        prop_assert_eq!(g.outputs().len(), clean.outputs().len());
        for (a, b) in g.outputs().iter().zip(clean.outputs()) {
            prop_assert_eq!(&g.node(*a).shape, &clean.node(*b).shape);
        }
        // Idempotent.
        let twice = DeadCodeElimination.run(&clean).unwrap();
        prop_assert_eq!(clean.len(), twice.len());
        // Everything remaining is reachable (no dead nodes named dead*
        // unless they became load-bearing, which build() never does).
        prop_assert!(clean.nodes().iter().all(|n| !n.name.starts_with("dead")));
    }

    #[test]
    fn deployment_passes_preserve_output_shapes(steps in build_steps()) {
        let g = build(&steps);
        let deployed = PassManager::deployment().run(&g).unwrap();
        for (a, b) in g.outputs().iter().zip(deployed.outputs()) {
            prop_assert_eq!(&g.node(*a).shape, &deployed.node(*b).shape);
            prop_assert_eq!(g.node(*a).dtype, deployed.node(*b).dtype);
        }
    }

    #[test]
    fn partition_covers_every_non_data_node_exactly_once(steps in build_steps()) {
        let g = build(&steps);
        let part = partition(&g, |graph, id| {
            matches!(
                graph.node(id).kind,
                OpKind::Dense | OpKind::Conv2d { .. } | OpKind::BiasAdd
                    | OpKind::Activation(_) | OpKind::Add
            )
        });
        let mut seen = std::collections::HashSet::new();
        for region in &part.regions {
            for &n in &region.nodes {
                prop_assert!(seen.insert(n), "node {n} in two regions");
            }
        }
        for &n in &part.fallback {
            prop_assert!(seen.insert(n), "fallback node {n} also in a region");
        }
        for node in g.nodes() {
            if !node.kind.is_data() {
                prop_assert!(seen.contains(&node.id), "node {} uncovered", node.id);
            }
        }
        // Regions are topologically ordered internally.
        for region in &part.regions {
            for pair in region.nodes.windows(2) {
                prop_assert!(pair[0] < pair[1]);
            }
        }
    }

    #[test]
    fn workload_extraction_counts_match_anchor_nodes(steps in build_steps()) {
        let g = build(&steps);
        let anchors = g.nodes().iter().filter(|n| n.kind.is_anchor()).count();
        let total: usize = extract_workloads(&g).iter().map(|(_, count)| count).sum();
        prop_assert_eq!(anchors, total);
    }

    #[test]
    fn topological_invariant_holds(steps in build_steps()) {
        let g = build(&steps);
        for node in g.nodes() {
            for &input in &node.inputs {
                prop_assert!(input < node.id, "edge {input} -> {} breaks topo order", node.id);
            }
        }
    }
}
