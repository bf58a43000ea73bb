//! Graph-rewriting passes.
//!
//! Passes are graph→graph transformations built on a rebuild-walk (the
//! Relay mutator pattern): nodes are visited in topological order and
//! mapped into a fresh graph, with pattern-matched subgraphs replaced.
//! Includes:
//!
//! * [`BatchNormFold`] — folds inference-mode BatchNorm into the preceding
//!   convolution's weights and bias (standard deployment canonicalization;
//!   required before Bolt sees the graph, since CUTLASS has no BN);
//! * [`RepVggReparam`] — RepVGG's structural re-parameterization (Ding et
//!   al., 2021): merges parallel 3×3 / 1×1 / identity branches into a
//!   single 3×3 convolution for inference, exactly the model family of the
//!   paper's Section 4.3 case study;
//! * [`DeadCodeElimination`] — drops unreachable nodes after rewrites.

use std::collections::HashMap;

use bolt_tensor::{DType, Shape, Tensor};

use crate::error::GraphError;
use crate::graph::{Graph, Node, NodeId};
use crate::op::OpKind;
use crate::Result;

/// A graph transformation.
pub trait Pass {
    /// Pass name for logs and errors.
    fn name(&self) -> &'static str;
    /// Runs the pass, producing a rewritten graph.
    ///
    /// # Errors
    ///
    /// Pass-specific; see each pass.
    fn run(&self, graph: &Graph) -> Result<Graph>;
}

/// Runs a sequence of passes in order.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("PassManager")
            .field("passes", &names)
            .finish()
    }
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// The standard deployment pipeline: BN folding, then
    /// re-parameterization. Both end in dead-code elimination, so no
    /// separate DCE pass follows them.
    pub fn deployment() -> Self {
        let mut pm = PassManager::new();
        pm.add(BatchNormFold);
        pm.add(RepVggReparam);
        pm
    }

    /// Appends a pass.
    pub fn add<P: Pass + 'static>(&mut self, pass: P) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs all passes in order.
    ///
    /// # Errors
    ///
    /// Propagates the first pass failure.
    pub fn run(&self, graph: &Graph) -> Result<Graph> {
        let Some((first, rest)) = self.passes.split_first() else {
            return Ok(graph.clone());
        };
        let mut g = first.run(graph)?;
        for pass in rest {
            g = pass.run(&g)?;
        }
        Ok(g)
    }
}

/// Rebuild-walk helper: copies nodes into a new graph with id mapping.
struct Rebuilder {
    new: Graph,
    map: HashMap<NodeId, NodeId>,
}

impl Rebuilder {
    fn new() -> Self {
        Rebuilder {
            new: Graph::new(),
            map: HashMap::new(),
        }
    }

    /// Copies `node` verbatim (with mapped inputs and params).
    fn emit_copy(&mut self, node: &Node, old: &Graph) -> Result<NodeId> {
        let inputs: Vec<NodeId> = node.inputs.iter().map(|i| self.map[i]).collect();
        let id = self
            .new
            .add(node.kind.clone(), &inputs, node.name.clone())?;
        if let Some(p) = old.param(node.id) {
            self.new.set_param(id, p.clone())?;
        }
        self.map.insert(node.id, id);
        Ok(id)
    }

    /// Adds a fresh constant with optional data.
    fn emit_constant(
        &mut self,
        dims: &[usize],
        dtype: DType,
        data: Option<Tensor>,
        name: String,
    ) -> Result<NodeId> {
        let id = self.new.add(
            OpKind::Constant {
                shape: Shape::new(dims),
                dtype,
            },
            &[],
            name,
        )?;
        if let Some(t) = data {
            self.new.set_param(id, t)?;
        }
        Ok(id)
    }

    fn finish(mut self, old: &Graph) -> Graph {
        let outputs: Vec<NodeId> = old.outputs().iter().map(|o| self.map[o]).collect();
        self.new.set_outputs(&outputs);
        self.new
    }
}

/// Removes nodes unreachable from the outputs.
#[derive(Debug, Clone, Copy)]
pub struct DeadCodeElimination;

impl Pass for DeadCodeElimination {
    fn name(&self) -> &'static str {
        "dead_code_elimination"
    }

    fn run(&self, graph: &Graph) -> Result<Graph> {
        Ok(graph.eliminate_dead_nodes().0)
    }
}

/// Folds `BatchNorm(Conv2d(x, W))` into `BiasAdd(Conv2d(x, W'), b')` with
/// `W' = W * gamma / sqrt(var + eps)` (per output channel) and
/// `b' = beta - mean * gamma / sqrt(var + eps)`.
#[derive(Debug, Clone, Copy)]
pub struct BatchNormFold;

impl Pass for BatchNormFold {
    fn name(&self) -> &'static str {
        "batch_norm_fold"
    }

    fn run(&self, graph: &Graph) -> Result<Graph> {
        if !graph
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::BatchNorm { .. }))
        {
            // Nothing to fold: the rewrite walk would copy every node.
            return Ok(graph.eliminate_dead_nodes().0);
        }
        let mut rb = Rebuilder::new();
        for node in graph.nodes() {
            if let OpKind::BatchNorm { eps } = node.kind {
                if let Some(folded) = try_fold_bn(graph, node, eps, &mut rb)? {
                    rb.map.insert(node.id, folded);
                    continue;
                }
            }
            rb.emit_copy(node, graph)?;
        }
        Ok(rb.finish(graph).eliminate_dead_nodes().0)
    }
}

fn bn_scale_shift(graph: &Graph, bn_inputs: &[NodeId], eps: f32) -> Option<(Vec<f32>, Vec<f32>)> {
    let gamma = graph.param(bn_inputs[1])?;
    let beta = graph.param(bn_inputs[2])?;
    let mean = graph.param(bn_inputs[3])?;
    let var = graph.param(bn_inputs[4])?;
    let scale: Vec<f32> = gamma
        .data()
        .iter()
        .zip(var.data())
        .map(|(g, v)| g / (v + eps).sqrt())
        .collect();
    let shift: Vec<f32> = beta
        .data()
        .iter()
        .zip(mean.data())
        .zip(&scale)
        .map(|((b, m), s)| b - m * s)
        .collect();
    Some((scale, shift))
}

fn try_fold_bn(graph: &Graph, bn: &Node, eps: f32, rb: &mut Rebuilder) -> Result<Option<NodeId>> {
    let conv_id = bn.inputs[0];
    let conv = graph.node(conv_id);
    let OpKind::Conv2d {
        stride,
        padding,
        dilation,
    } = conv.kind
    else {
        return Ok(None);
    };
    // The conv must feed only this BN, or the rewrite would change other
    // consumers.
    if graph.consumers(conv_id).len() != 1 || graph.outputs().contains(&conv_id) {
        return Ok(None);
    }
    let w_id = conv.inputs[1];
    let w_node = graph.node(w_id);
    let (k, dims) = match &w_node.kind {
        OpKind::Constant { shape, .. } => (shape.dim(0), shape.dims().to_vec()),
        _ => return Ok(None),
    };

    let Some((scale, shift)) = bn_scale_shift(graph, &bn.inputs, eps) else {
        return Ok(None); // parameters not materialized: leave BN in place
    };

    // Scaled weights.
    let new_w = if let Some(w) = graph.param(w_id) {
        let per_filter: usize = dims[1..].iter().product();
        let mut data = w.data().to_vec();
        for ki in 0..k {
            for e in 0..per_filter {
                data[ki * per_filter + e] *= scale[ki];
            }
        }
        Some(Tensor::from_vec(&dims, w.dtype(), data).map_err(GraphError::from)?)
    } else {
        None
    };
    let bias = Tensor::from_vec(&[k], bn.dtype, shift).map_err(GraphError::from)?;

    let x_new = rb.map[&conv.inputs[0]];
    let w_new = rb.emit_constant(
        &dims,
        w_node.dtype,
        new_w,
        format!("{}.folded_weight", conv.name),
    )?;
    let conv_new = rb.new.add(
        OpKind::Conv2d {
            stride,
            padding,
            dilation,
        },
        &[x_new, w_new],
        format!("{}.folded", conv.name),
    )?;
    let b_new = rb.emit_constant(
        &[k],
        bn.dtype,
        Some(bias),
        format!("{}.folded_bias", conv.name),
    )?;
    let out = rb.new.add(
        OpKind::BiasAdd,
        &[conv_new, b_new],
        format!("{}.bn_bias", conv.name),
    )?;
    Ok(Some(out))
}

/// RepVGG structural re-parameterization: collapses
/// `Add(conv3x3-branch, conv1x1-branch [, identity-branch])` (each branch
/// optionally `BiasAdd`-terminated, identity optionally a `BatchNorm`)
/// into a single 3×3 convolution plus bias. Run after [`BatchNormFold`].
#[derive(Debug, Clone, Copy)]
pub struct RepVggReparam;

#[derive(Debug)]
enum Branch {
    /// `BiasAdd(Conv2d(x, W), b)` or bare `Conv2d(x, W)`, kernel 1 or 3.
    Conv {
        weight: NodeId,
        bias: Option<NodeId>,
        kernel: usize,
    },
    /// The source tensor itself (pure identity).
    Identity,
    /// `BatchNorm(x)` identity branch (unfolded BN directly on x).
    IdentityBn { bn: NodeId, eps: f32 },
}

impl Pass for RepVggReparam {
    fn name(&self) -> &'static str {
        "repvgg_reparam"
    }

    fn run(&self, graph: &Graph) -> Result<Graph> {
        if !graph.nodes().iter().any(|n| n.kind == OpKind::Add) {
            // Nothing to merge: the rewrite walk would copy every node.
            return Ok(graph.eliminate_dead_nodes().0);
        }
        let mut rb = Rebuilder::new();
        for node in graph.nodes() {
            if node.kind == OpKind::Add {
                if let Some(mapped) = try_reparam(graph, node, &mut rb)? {
                    rb.map.insert(node.id, mapped);
                    continue;
                }
            }
            rb.emit_copy(node, graph)?;
        }
        Ok(rb.finish(graph).eliminate_dead_nodes().0)
    }
}

fn flatten_add(graph: &Graph, id: NodeId, out: &mut Vec<NodeId>) {
    let node = graph.node(id);
    if node.kind == OpKind::Add && graph.consumers(id).len() <= 1 {
        flatten_add(graph, node.inputs[0], out);
        flatten_add(graph, node.inputs[1], out);
    } else {
        out.push(id);
    }
}

fn classify_branch(graph: &Graph, id: NodeId, source: NodeId) -> Option<Branch> {
    if id == source {
        return Some(Branch::Identity);
    }
    let node = graph.node(id);
    match &node.kind {
        OpKind::BatchNorm { eps } if node.inputs[0] == source => {
            Some(Branch::IdentityBn { bn: id, eps: *eps })
        }
        OpKind::BiasAdd => {
            let conv = graph.node(node.inputs[0]);
            if let OpKind::Conv2d {
                stride,
                padding,
                dilation,
            } = conv.kind
            {
                if conv.inputs[0] != source || stride != (1, 1) || dilation != (1, 1) {
                    return None;
                }
                let w = graph.node(conv.inputs[1]);
                let kernel = w.shape.dim(2);
                let pad_ok =
                    (kernel == 3 && padding == (1, 1)) || (kernel == 1 && padding == (0, 0));
                if !pad_ok || w.shape.dim(2) != w.shape.dim(3) {
                    return None;
                }
                Some(Branch::Conv {
                    weight: conv.inputs[1],
                    bias: Some(node.inputs[1]),
                    kernel,
                })
            } else {
                None
            }
        }
        OpKind::Conv2d {
            stride,
            padding,
            dilation,
        } => {
            if node.inputs[0] != source || *stride != (1, 1) || *dilation != (1, 1) {
                return None;
            }
            let w = graph.node(node.inputs[1]);
            let kernel = w.shape.dim(2);
            let pad_ok = (kernel == 3 && *padding == (1, 1)) || (kernel == 1 && *padding == (0, 0));
            if !pad_ok {
                return None;
            }
            Some(Branch::Conv {
                weight: node.inputs[1],
                bias: None,
                kernel,
            })
        }
        _ => None,
    }
}

/// Finds the common source feeding every branch of the Add tree.
fn common_source(graph: &Graph, branches: &[NodeId]) -> Option<NodeId> {
    let mut candidates: Vec<NodeId> = Vec::new();
    for &b in branches {
        let node = graph.node(b);
        let src = match &node.kind {
            OpKind::BiasAdd => graph.node(node.inputs[0]).inputs.first().copied()?,
            OpKind::Conv2d { .. } | OpKind::BatchNorm { .. } => node.inputs[0],
            _ => b, // identity candidate: the branch is the source itself
        };
        candidates.push(src);
    }
    // The source is the candidate every branch agrees on (identity branches
    // vote for themselves).
    candidates
        .iter()
        .find(|&&c| {
            candidates.iter().all(|&x| x == c)
                || branches
                    .iter()
                    .zip(&candidates)
                    .all(|(&b, &s)| s == c || b == c)
        })
        .copied()
}

fn try_reparam(graph: &Graph, add: &Node, rb: &mut Rebuilder) -> Result<Option<NodeId>> {
    // Only the top Add of a branch tree is rewritten.
    if graph
        .consumers(add.id)
        .iter()
        .any(|&c| graph.node(c).kind == OpKind::Add && graph.consumers(add.id).len() == 1)
    {
        return Ok(None);
    }
    let mut branch_ids = Vec::new();
    flatten_add(graph, add.id, &mut branch_ids);
    if branch_ids.len() < 2 || branch_ids.len() > 3 {
        return Ok(None);
    }
    let Some(source) = common_source(graph, &branch_ids) else {
        return Ok(None);
    };
    let branches: Option<Vec<Branch>> = branch_ids
        .iter()
        .map(|&b| classify_branch(graph, b, source))
        .collect();
    let Some(branches) = branches else {
        return Ok(None);
    };
    // Exactly one 3x3 conv branch anchors the merge.
    let k3 = branches
        .iter()
        .filter(|b| matches!(b, Branch::Conv { kernel: 3, .. }))
        .count();
    if k3 != 1 {
        return Ok(None);
    }
    let src_shape = &graph.node(source).shape;
    let (c_in, k_out) = (src_shape.dim(1), add.shape.dim(1));
    let identity_present = branches
        .iter()
        .any(|b| matches!(b, Branch::Identity | Branch::IdentityBn { .. }));
    if identity_present && c_in != k_out {
        return Ok(None); // identity branch requires matching channels
    }

    // Merge parameters when all branch params are materialized.
    let dtype = add.dtype;
    let merged = merge_branch_params(graph, &branches, c_in, k_out);
    let (w_data, b_data) = match merged {
        Some((w, b)) => (
            Some(Tensor::from_vec(&[k_out, c_in, 3, 3], dtype, w).map_err(GraphError::from)?),
            Some(Tensor::from_vec(&[k_out], dtype, b).map_err(GraphError::from)?),
        ),
        None => (None, None),
    };

    let x_new = rb.map[&source];
    let w_new = rb.emit_constant(
        &[k_out, c_in, 3, 3],
        dtype,
        w_data,
        format!("{}.reparam_weight", add.name),
    )?;
    let conv = rb.new.add(
        OpKind::Conv2d {
            stride: (1, 1),
            padding: (1, 1),
            dilation: (1, 1),
        },
        &[x_new, w_new],
        format!("{}.reparam", add.name),
    )?;
    let b_new = rb.emit_constant(
        &[k_out],
        dtype,
        b_data,
        format!("{}.reparam_bias", add.name),
    )?;
    let out = rb.new.add(
        OpKind::BiasAdd,
        &[conv, b_new],
        format!("{}.reparam_bias_add", add.name),
    )?;
    Ok(Some(out))
}

fn merge_branch_params(
    graph: &Graph,
    branches: &[Branch],
    c_in: usize,
    k_out: usize,
) -> Option<(Vec<f32>, Vec<f32>)> {
    let mut w = vec![0.0f32; k_out * c_in * 9];
    let mut b = vec![0.0f32; k_out];
    let center = |k: usize, c: usize| (k * c_in + c) * 9 + 4; // (1,1) of 3x3

    for branch in branches {
        match branch {
            Branch::Conv {
                weight,
                bias,
                kernel,
            } => {
                let wt = graph.param(*weight)?;
                match kernel {
                    3 => {
                        for (dst, src) in w.iter_mut().zip(wt.data()) {
                            *dst += src;
                        }
                    }
                    1 => {
                        for k in 0..k_out {
                            for c in 0..c_in {
                                w[center(k, c)] += wt.data()[k * c_in + c];
                            }
                        }
                    }
                    _ => return None,
                }
                if let Some(bias) = bias {
                    let bt = graph.param(*bias)?;
                    for (dst, src) in b.iter_mut().zip(bt.data()) {
                        *dst += src;
                    }
                }
            }
            Branch::Identity => {
                for k in 0..k_out {
                    w[center(k, k)] += 1.0;
                }
            }
            Branch::IdentityBn { bn, eps } => {
                let bn_node = graph.node(*bn);
                let (scale, shift) = bn_scale_shift(graph, &bn_node.inputs, *eps)?;
                for k in 0..k_out {
                    w[center(k, k)] += scale[k];
                    b[k] += shift[k];
                }
            }
        }
    }
    Some((w, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use bolt_tensor::Activation;

    #[test]
    fn bn_fold_removes_batch_norms() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input(&[1, 4, 8, 8]);
        let c = b.conv2d(x, 8, 3, (1, 1), (1, 1), "conv");
        let bn = b.batch_norm(c, "bn");
        let r = b.activation(bn, Activation::ReLU, "relu");
        let g = b.finish(&[r]);
        let folded = BatchNormFold.run(&g).unwrap();
        assert!(
            !folded
                .nodes()
                .iter()
                .any(|n| matches!(n.kind, OpKind::BatchNorm { .. })),
            "BN must be folded away:\n{folded}"
        );
        // The folded graph has a BiasAdd instead.
        assert!(folded.nodes().iter().any(|n| n.kind == OpKind::BiasAdd));
        // Output shape preserved.
        let out = folded.outputs()[0];
        assert_eq!(folded.node(out).shape.dims(), &[1, 8, 8, 8]);
    }

    #[test]
    fn bn_fold_skips_shared_convs() {
        // A conv consumed by BN *and* another op must not be folded.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input(&[1, 4, 8, 8]);
        let c = b.conv2d(x, 4, 3, (1, 1), (1, 1), "conv");
        let bn = b.batch_norm(c, "bn");
        let extra = b.activation(c, Activation::ReLU, "extra");
        let sum = b.add(bn, extra, "sum");
        let g = b.finish(&[sum]);
        let folded = BatchNormFold.run(&g).unwrap();
        assert!(folded
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::BatchNorm { .. })));
    }

    #[test]
    fn repvgg_block_reparams_to_single_conv() {
        // conv3x3+BN, conv1x1+BN, identity BN — the full RepVGG block.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input(&[1, 8, 8, 8]);
        let c3 = b.conv2d(x, 8, 3, (1, 1), (1, 1), "b3.conv");
        let bn3 = b.batch_norm(c3, "b3.bn");
        let c1 = b.conv2d(x, 8, 1, (1, 1), (0, 0), "b1.conv");
        let bn1 = b.batch_norm(c1, "b1.bn");
        let bnid = b.batch_norm(x, "bid.bn");
        let s1 = b.add(bn3, bn1, "add1");
        let s2 = b.add(s1, bnid, "add2");
        let out = b.activation(s2, Activation::ReLU, "relu");
        let g = b.finish(&[out]);

        let deployed = PassManager::deployment().run(&g).unwrap();
        let convs = deployed
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Conv2d { .. }))
            .count();
        assert_eq!(
            convs, 1,
            "three branches must merge into one conv:\n{deployed}"
        );
        assert!(!deployed.nodes().iter().any(|n| n.kind == OpKind::Add));
        let out = deployed.outputs()[0];
        assert_eq!(deployed.node(out).shape.dims(), &[1, 8, 8, 8]);
    }

    #[test]
    fn reparam_preserves_merged_weights_center() {
        // Identity branch adds 1.0 to the center tap of filter k, channel k.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input(&[1, 4, 6, 6]);
        let c3 = b.conv2d_bias(x, 4, 3, (1, 1), (1, 1), "c3");
        let sum = b.add(c3, x, "add");
        let g = b.finish(&[sum]);
        let orig_w = {
            let w = g.nodes().iter().find(|n| n.name == "c3.weight").unwrap();
            g.param(w.id).unwrap().clone()
        };
        let rewritten = RepVggReparam.run(&g).unwrap();
        let merged = rewritten
            .nodes()
            .iter()
            .find(|n| n.name.contains("reparam_weight"))
            .expect("merged weight");
        let mw = rewritten.param(merged.id).unwrap();
        // Center tap of (k=1, c=1) got +1.
        let (k, c) = (1, 1);
        let idx = (k * 4 + c) * 9 + 4;
        let expect = orig_w.data()[idx] + 1.0;
        assert!((mw.data()[idx] - expect).abs() < 1e-4);
        // Off-center (k=1,c=0) unchanged.
        let idx2 = (k * 4) * 9 + 4;
        assert!((mw.data()[idx2] - orig_w.data()[idx2]).abs() < 1e-6);
    }

    #[test]
    fn reparam_skips_mismatched_channels() {
        // Identity requires C == K; 4 -> 8 conv must not merge with x.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input(&[1, 4, 6, 6]);
        let c3 = b.conv2d_bias(x, 4, 3, (1, 1), (1, 1), "c3");
        let c1 = b.conv2d_bias(x, 4, 1, (1, 1), (0, 0), "c1");
        let sum = b.add(c3, c1, "add");
        let g = b.finish(&[sum]);
        let rewritten = RepVggReparam.run(&g).unwrap();
        // Two-conv (no identity) merge is fine: one conv remains.
        let convs = rewritten
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Conv2d { .. }))
            .count();
        assert_eq!(convs, 1);
    }

    #[test]
    fn dce_is_idempotent() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[1, 2, 4, 4]);
        let live = b.activation(x, Activation::ReLU, "live");
        let _dead = b.activation(x, Activation::Gelu, "dead");
        let g = b.finish(&[live]);
        let once = DeadCodeElimination.run(&g).unwrap();
        let twice = DeadCodeElimination.run(&once).unwrap();
        assert_eq!(once.len(), twice.len());
        assert!(once.len() < g.len());
    }
}
