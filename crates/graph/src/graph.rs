//! The computational graph: nodes, edges, shape inference, rewriting.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use bolt_tensor::{DType, Shape, Tensor};

use crate::error::GraphError;
use crate::op::OpKind;
use crate::Result;

/// Identifier of a node within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index (stable within one graph instance).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// One operator instance in the graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// The operator.
    pub kind: OpKind,
    /// Data inputs, in operator-defined order.
    pub inputs: Vec<NodeId>,
    /// Human-readable name (unique not required).
    pub name: String,
    /// Inferred output shape.
    pub shape: Shape,
    /// Inferred output dtype.
    pub dtype: DType,
}

/// A directed acyclic computational graph. Nodes are stored in
/// topological (insertion) order: an edge always points from a lower to a
/// higher id.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
    /// Parameter data for `Constant` nodes (may be absent; the runtime
    /// materializes deterministic random data for timing-only runs).
    params: HashMap<NodeId, Tensor>,
    /// Every node's consumers, built by the first [`Graph::consumers`]
    /// query and reset by the edge mutators ([`Graph::add`],
    /// [`Graph::replace_uses`]).
    consumers: OnceLock<ConsumerIndex>,
}

/// The consumer index does not take part in equality: it is derived
/// from `nodes`.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.outputs == other.outputs && self.params == other.params
    }
}

/// Consumers of every node in compressed sparse row form: node `i`'s
/// consumers are `ids[offsets[i]..offsets[i + 1]]`, ascending, each
/// listed once however many times it reads `i`.
#[derive(Debug, Clone)]
struct ConsumerIndex {
    offsets: Vec<usize>,
    ids: Vec<NodeId>,
}

impl ConsumerIndex {
    fn build(nodes: &[Node]) -> Self {
        // Each distinct (producer, consumer) edge, visited in consumer
        // order so every producer's list comes out ascending.
        let edges = || {
            nodes.iter().flat_map(|node| {
                node.inputs
                    .iter()
                    .enumerate()
                    .filter(|&(j, input)| !node.inputs[..j].contains(input))
                    .map(move |(_, input)| (input.0, node.id))
            })
        };
        let mut offsets = vec![0usize; nodes.len() + 1];
        for (producer, _) in edges() {
            offsets[producer + 1] += 1;
        }
        for i in 0..nodes.len() {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..nodes.len()].to_vec();
        let mut ids = vec![NodeId(0); offsets[nodes.len()]];
        for (producer, consumer) in edges() {
            ids[next[producer]] = consumer;
            next[producer] += 1;
        }
        ConsumerIndex { offsets, ids }
    }
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node, inferring its output shape and dtype.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for dangling inputs and
    /// [`GraphError::Infer`] when shapes are inconsistent.
    pub fn add(
        &mut self,
        kind: OpKind,
        inputs: &[NodeId],
        name: impl Into<String>,
    ) -> Result<NodeId> {
        for &input in inputs {
            if input.0 >= self.nodes.len() {
                return Err(GraphError::UnknownNode { id: input.0 });
            }
        }
        let name = name.into();
        let (shape, dtype) = self.infer(&kind, inputs, &name)?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind,
            inputs: inputs.to_vec(),
            name,
            shape,
            dtype,
        });
        self.consumers.take();
        Ok(id)
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The declared graph outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Declares the graph outputs.
    pub fn set_outputs(&mut self, outputs: &[NodeId]) {
        self.outputs = outputs.to_vec();
    }

    /// The graph inputs (all `Input` nodes, in order).
    pub fn input_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Input { .. }))
            .map(|n| n.id)
            .collect()
    }

    /// Attaches parameter data to a `Constant` node.
    ///
    /// # Errors
    ///
    /// Returns an error if the node is not a constant or shapes mismatch.
    pub fn set_param(&mut self, id: NodeId, tensor: Tensor) -> Result<()> {
        let node = &self.nodes[id.0];
        match &node.kind {
            OpKind::Constant { shape, .. } => {
                if tensor.shape().numel() != shape.numel() {
                    return Err(GraphError::Infer {
                        node: node.name.clone(),
                        reason: format!(
                            "param numel {} != declared {}",
                            tensor.shape().numel(),
                            shape.numel()
                        ),
                    });
                }
                self.params.insert(id, tensor);
                Ok(())
            }
            other => Err(GraphError::Pass {
                pass: "set_param".into(),
                reason: format!("node {id} is {}, not a constant", other.name()),
            }),
        }
    }

    /// Parameter data for a constant node, if attached.
    pub fn param(&self, id: NodeId) -> Option<&Tensor> {
        self.params.get(&id)
    }

    /// The ids of all nodes that consume `id`, in ascending order; a node
    /// that reads `id` more than once is listed once.
    ///
    /// The first query indexes every node's consumers in one pass over
    /// the graph, so a caller that asks about each node in turn stays
    /// linear in graph size.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different graph.
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        let index = self
            .consumers
            .get_or_init(|| ConsumerIndex::build(&self.nodes));
        &index.ids[index.offsets[id.0]..index.offsets[id.0 + 1]]
    }

    /// The single consumer of `id`, if it has exactly one (and it is not a
    /// graph output consumed elsewhere).
    pub fn single_consumer(&self, id: NodeId) -> Option<NodeId> {
        match self.consumers(id) {
            &[only] if !self.outputs.contains(&id) => Some(only),
            _ => None,
        }
    }

    /// Redirects every use of `old` (including outputs) to `new`. Used by
    /// rewriting passes; the dead producer is removed later by DCE.
    pub fn replace_uses(&mut self, old: NodeId, new: NodeId) {
        self.consumers.take();
        for node in &mut self.nodes {
            for input in &mut node.inputs {
                if *input == old {
                    *input = new;
                }
            }
        }
        for out in &mut self.outputs {
            if *out == old {
                *out = new;
            }
        }
    }

    /// Rebuilds the graph keeping only nodes reachable from the outputs,
    /// returning the new graph and the old→new id mapping.
    pub fn eliminate_dead_nodes(&self) -> (Graph, HashMap<NodeId, NodeId>) {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.clone();
        while let Some(id) = stack.pop() {
            if live[id.0] {
                continue;
            }
            live[id.0] = true;
            stack.extend(self.nodes[id.0].inputs.iter().copied());
        }
        // Keep inputs alive even if unused, so signatures don't change.
        for n in &self.nodes {
            if matches!(n.kind, OpKind::Input { .. }) {
                live[n.id.0] = true;
            }
        }

        let mut mapping = HashMap::new();
        let mut out = Graph::new();
        for node in &self.nodes {
            if !live[node.id.0] {
                continue;
            }
            let new_inputs: Vec<NodeId> = node.inputs.iter().map(|i| mapping[i]).collect();
            let new_id = out
                .add(node.kind.clone(), &new_inputs, node.name.clone())
                .expect("rebuilding a valid graph cannot fail");
            mapping.insert(node.id, new_id);
            if let Some(p) = self.params.get(&node.id) {
                out.params.insert(new_id, p.clone());
            }
        }
        out.outputs = self.outputs.iter().map(|o| mapping[o]).collect();
        (out, mapping)
    }

    fn infer(&self, kind: &OpKind, inputs: &[NodeId], name: &str) -> Result<(Shape, DType)> {
        let err = |reason: String| GraphError::Infer {
            node: name.to_string(),
            reason,
        };
        let shape_of = |id: NodeId| self.nodes[id.0].shape.clone();
        let dtype_of = |id: NodeId| self.nodes[id.0].dtype;
        let need = |n: usize| -> Result<()> {
            if inputs.len() != n {
                Err(err(format!("expected {n} inputs, got {}", inputs.len())))
            } else {
                Ok(())
            }
        };

        match kind {
            OpKind::Input { shape, dtype } | OpKind::Constant { shape, dtype } => {
                need(0)?;
                Ok((shape.clone(), *dtype))
            }
            OpKind::Dense => {
                need(2)?;
                let x = shape_of(inputs[0]);
                let w = shape_of(inputs[1]);
                if x.rank() != 2 || w.rank() != 2 || x.dim(1) != w.dim(1) {
                    return Err(err(format!("dense shapes {x} @ {w}^T")));
                }
                Ok((Shape::new(&[x.dim(0), w.dim(0)]), dtype_of(inputs[0])))
            }
            OpKind::Conv2d {
                stride,
                padding,
                dilation,
            } => {
                need(2)?;
                let x = shape_of(inputs[0]);
                let w = shape_of(inputs[1]);
                if x.rank() != 4 || w.rank() != 4 {
                    return Err(err("conv2d needs rank-4 input and filter".into()));
                }
                if x.dim(1) != w.dim(1) {
                    return Err(err(format!(
                        "conv2d channels: input C={} filter C={}",
                        x.dim(1),
                        w.dim(1)
                    )));
                }
                let (h, w_in) = (x.dim(2), x.dim(3));
                let (r, s) = (w.dim(2), w.dim(3));
                let p = (h + 2 * padding.0)
                    .checked_sub(dilation.0 * (r - 1) + 1)
                    .ok_or_else(|| err("filter larger than padded input".into()))?
                    / stride.0
                    + 1;
                let q = (w_in + 2 * padding.1)
                    .checked_sub(dilation.1 * (s - 1) + 1)
                    .ok_or_else(|| err("filter larger than padded input".into()))?
                    / stride.1
                    + 1;
                Ok((Shape::new(&[x.dim(0), w.dim(0), p, q]), dtype_of(inputs[0])))
            }
            OpKind::BiasAdd => {
                need(2)?;
                let x = shape_of(inputs[0]);
                let b = shape_of(inputs[1]);
                let channels = if x.rank() == 4 {
                    x.dim(1)
                } else {
                    x.dim(x.rank() - 1)
                };
                if b.rank() != 1 || b.dim(0) != channels {
                    return Err(err(format!("bias {b} vs channels {channels}")));
                }
                Ok((x, dtype_of(inputs[0])))
            }
            OpKind::Activation(_) | OpKind::Softmax => {
                need(1)?;
                Ok((shape_of(inputs[0]), dtype_of(inputs[0])))
            }
            OpKind::Add => {
                need(2)?;
                let a = shape_of(inputs[0]);
                let b = shape_of(inputs[1]);
                if a != b {
                    return Err(err(format!("add shapes {a} vs {b}")));
                }
                Ok((a, dtype_of(inputs[0])))
            }
            OpKind::BatchNorm { .. } => {
                need(5)?;
                let x = shape_of(inputs[0]);
                if x.rank() != 4 {
                    return Err(err("batch_norm needs rank-4 input".into()));
                }
                let c = x.dim(1);
                for &p in &inputs[1..] {
                    let s = shape_of(p);
                    if s.rank() != 1 || s.dim(0) != c {
                        return Err(err(format!("bn param {s} vs channels {c}")));
                    }
                }
                Ok((x, dtype_of(inputs[0])))
            }
            OpKind::Pool {
                window,
                stride,
                padding,
                ..
            } => {
                need(1)?;
                let x = shape_of(inputs[0]);
                if x.rank() != 4 {
                    return Err(err("pool needs rank-4 input".into()));
                }
                let p = (x.dim(2) + 2 * padding - window) / stride + 1;
                let q = (x.dim(3) + 2 * padding - window) / stride + 1;
                Ok((Shape::new(&[x.dim(0), x.dim(1), p, q]), dtype_of(inputs[0])))
            }
            OpKind::GlobalAvgPool => {
                need(1)?;
                let x = shape_of(inputs[0]);
                if x.rank() != 4 {
                    return Err(err("global_avg_pool needs rank-4 input".into()));
                }
                Ok((Shape::new(&[x.dim(0), x.dim(1)]), dtype_of(inputs[0])))
            }
            OpKind::Concat => {
                if inputs.is_empty() {
                    return Err(err("concat needs at least one input".into()));
                }
                let first = shape_of(inputs[0]);
                let mut channels = 0usize;
                for &i in inputs {
                    let s = shape_of(i);
                    if s.rank() != first.rank() || s.rank() < 2 {
                        return Err(err(format!("concat rank mismatch: {first} vs {s}")));
                    }
                    for d in 0..s.rank() {
                        if d != 1 && s.dim(d) != first.dim(d) {
                            return Err(err(format!("concat dim {d}: {first} vs {s}")));
                        }
                    }
                    channels += s.dim(1);
                }
                let mut dims = first.dims().to_vec();
                dims[1] = channels;
                Ok((Shape::new(&dims), dtype_of(inputs[0])))
            }
            OpKind::Flatten => {
                need(1)?;
                let x = shape_of(inputs[0]);
                if x.rank() < 2 {
                    return Err(err("flatten needs rank >= 2".into()));
                }
                let rest: usize = x.dims()[1..].iter().product();
                Ok((Shape::new(&[x.dim(0), rest]), dtype_of(inputs[0])))
            }
        }
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph ({} nodes):", self.nodes.len())?;
        for n in &self.nodes {
            let inputs: Vec<String> = n.inputs.iter().map(|i| i.to_string()).collect();
            writeln!(
                f,
                "  {} = {}({})  # {} {} \"{}\"",
                n.id,
                n.kind.name(),
                inputs.join(", "),
                n.shape,
                n.dtype,
                n.name
            )?;
        }
        writeln!(
            f,
            "  outputs: {:?}",
            self.outputs.iter().map(|o| o.0).collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_tensor::Activation;

    fn input4(g: &mut Graph, dims: &[usize]) -> NodeId {
        g.add(
            OpKind::Input {
                shape: Shape::new(dims),
                dtype: DType::F16,
            },
            &[],
            "x",
        )
        .unwrap()
    }

    fn constant(g: &mut Graph, dims: &[usize]) -> NodeId {
        g.add(
            OpKind::Constant {
                shape: Shape::new(dims),
                dtype: DType::F16,
            },
            &[],
            "w",
        )
        .unwrap()
    }

    #[test]
    fn conv_shape_inference() {
        let mut g = Graph::new();
        let x = input4(&mut g, &[32, 3, 224, 224]);
        let w = constant(&mut g, &[64, 3, 7, 7]);
        let c = g
            .add(
                OpKind::Conv2d {
                    stride: (2, 2),
                    padding: (3, 3),
                    dilation: (1, 1),
                },
                &[x, w],
                "conv1",
            )
            .unwrap();
        assert_eq!(g.node(c).shape.dims(), &[32, 64, 112, 112]);
    }

    #[test]
    fn dense_shape_inference() {
        let mut g = Graph::new();
        let x = g
            .add(
                OpKind::Input {
                    shape: Shape::new(&[32, 512]),
                    dtype: DType::F16,
                },
                &[],
                "x",
            )
            .unwrap();
        let w = constant(&mut g, &[1000, 512]);
        let d = g.add(OpKind::Dense, &[x, w], "fc").unwrap();
        assert_eq!(g.node(d).shape.dims(), &[32, 1000]);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let mut g = Graph::new();
        let x = input4(&mut g, &[1, 3, 8, 8]);
        let w = constant(&mut g, &[8, 4, 3, 3]);
        let r = g.add(
            OpKind::Conv2d {
                stride: (1, 1),
                padding: (1, 1),
                dilation: (1, 1),
            },
            &[x, w],
            "bad",
        );
        assert!(r.is_err());
    }

    #[test]
    fn pool_flatten_pipeline() {
        let mut g = Graph::new();
        let x = input4(&mut g, &[2, 8, 8, 8]);
        let p = g
            .add(
                OpKind::Pool {
                    kind: crate::op::PoolKind::Max,
                    window: 2,
                    stride: 2,
                    padding: 0,
                },
                &[x],
                "pool",
            )
            .unwrap();
        assert_eq!(g.node(p).shape.dims(), &[2, 8, 4, 4]);
        let f = g.add(OpKind::Flatten, &[p], "flat").unwrap();
        assert_eq!(g.node(f).shape.dims(), &[2, 128]);
        let gap = g.add(OpKind::GlobalAvgPool, &[p], "gap").unwrap();
        assert_eq!(g.node(gap).shape.dims(), &[2, 8]);
    }

    #[test]
    fn consumers_and_single_consumer() {
        let mut g = Graph::new();
        let x = input4(&mut g, &[1, 2, 4, 4]);
        let a = g
            .add(OpKind::Activation(Activation::ReLU), &[x], "r1")
            .unwrap();
        let b = g
            .add(OpKind::Activation(Activation::Gelu), &[x], "r2")
            .unwrap();
        g.set_outputs(&[a, b]);
        assert_eq!(g.consumers(x).len(), 2);
        assert_eq!(g.single_consumer(x), None);
        assert_eq!(g.single_consumer(a), None); // graph output
    }

    #[test]
    fn replace_uses_and_dce() {
        let mut g = Graph::new();
        let x = input4(&mut g, &[1, 2, 4, 4]);
        let dead = g
            .add(OpKind::Activation(Activation::Gelu), &[x], "dead")
            .unwrap();
        let live = g
            .add(OpKind::Activation(Activation::ReLU), &[dead], "live")
            .unwrap();
        g.set_outputs(&[live]);
        // Bypass `dead`.
        g.replace_uses(dead, x);
        let (clean, mapping) = g.eliminate_dead_nodes();
        assert_eq!(clean.len(), 2); // input + live
        assert!(mapping.contains_key(&live));
        assert!(!mapping.contains_key(&dead));
        assert_eq!(clean.outputs().len(), 1);
    }

    #[test]
    fn params_round_trip() {
        let mut g = Graph::new();
        let w = constant(&mut g, &[4, 4]);
        assert!(g.param(w).is_none());
        g.set_param(w, Tensor::ones(&[4, 4], DType::F16)).unwrap();
        assert!(g.param(w).is_some());
        let bad = Tensor::ones(&[3, 3], DType::F16);
        assert!(g.set_param(w, bad).is_err());
        let x = input4(&mut g, &[1, 1, 2, 2]);
        assert!(g
            .set_param(x, Tensor::ones(&[1, 1, 2, 2], DType::F16))
            .is_err());
    }

    #[test]
    fn dangling_input_rejected() {
        let mut g = Graph::new();
        let r = g.add(OpKind::Flatten, &[NodeId(99)], "bad");
        assert!(matches!(r, Err(GraphError::UnknownNode { id: 99 })));
    }

    #[test]
    fn display_renders() {
        let mut g = Graph::new();
        let x = input4(&mut g, &[1, 2, 4, 4]);
        g.set_outputs(&[x]);
        let s = g.to_string();
        assert!(s.contains("input"));
        assert!(s.contains("%0"));
    }
}
