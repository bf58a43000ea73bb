//! The compiled-model runtime.
//!
//! A [`CompiledModel`] is a handle to an [`ExecutionPlan`]
//! — the ordered [`Step`] list produced by the lowering pipeline plus its
//! prepacked constants and buffer-slot plan — together with the
//! [`TuningSummary`] of the compilation that built it. It executes in two
//! modes:
//!
//! * **functional** ([`CompiledModel::run`]) — really computes every step
//!   with the templated kernel executors and host reference ops, so fused
//!   and unfused compilations can be compared for numerical equality;
//! * **timing** ([`CompiledModel::time`]) — prices every step on the GPU
//!   simulator and returns a per-kernel [`Timeline`], the measurement
//!   behind Figures 8-10.
//!
//! This module also hosts the step vocabulary ([`Step`], [`StepKind`]),
//! the host (TVM-fallback) operator implementations and their pricing,
//! and the batch stacking/slicing helpers the serving layer uses.

use std::collections::HashMap;
use std::sync::Arc;

use bolt_cutlass::{B2bConvKernel, B2bGemmKernel, Conv2dKernel, GemmKernel, PersistentGemmChain};
use bolt_gpu_sim::{simulate_kernel, GpuArch, KernelProfile, KernelTime, Timeline};
use bolt_graph::{Graph, NodeId, OpKind, PoolKind};
use bolt_tensor::{activation::apply_slice, DType, Layout, Tensor};

use crate::config::BoltConfig;
use crate::error::BoltError;
use crate::plan::ExecutionPlan;
use crate::Result;

/// What one step executes.
#[derive(Debug, Clone)]
pub enum StepKind {
    /// A templated GEMM (dense layer) with fused epilogue.
    Gemm {
        /// The instantiated kernel.
        kernel: GemmKernel,
        /// Weight constant node (`(units, in)` logical).
        weight: NodeId,
        /// Optional bias constant node.
        bias: Option<NodeId>,
        /// Optional residual activation input (fused as the full-C
        /// operand).
        residual: Option<NodeId>,
    },
    /// A templated implicit-GEMM convolution with fused epilogue.
    Conv2d {
        /// The instantiated kernel (problem uses *padded* channels when
        /// `pad_to` is set).
        kernel: Conv2dKernel,
        /// Filter constant node (`(K, C, R, S)` logical).
        filter: NodeId,
        /// Optional per-channel bias constant node.
        bias: Option<NodeId>,
        /// Input channels after automatic padding, if padding applied.
        pad_to: Option<usize>,
        /// True when the pad is folded into the boundary layout-transform
        /// kernel (first layer) instead of a standalone pad kernel.
        pad_fused: bool,
    },
    /// A persistent back-to-back GEMM kernel.
    B2bGemm {
        /// The fused kernel.
        kernel: B2bGemmKernel,
        /// Weights and biases of both main loops.
        w0: NodeId,
        /// First bias, if any.
        b0: Option<NodeId>,
        /// Second weight.
        w1: NodeId,
        /// Second bias, if any.
        b1: Option<NodeId>,
    },
    /// A persistent chain of three or more fused GEMMs (the paper's
    /// "more than two" extension, Section 3.1.1).
    GemmChain {
        /// The fused chain.
        chain: PersistentGemmChain,
        /// Weight constant node per stage.
        weights: Vec<NodeId>,
        /// Optional bias constant node per stage.
        biases: Vec<Option<NodeId>>,
    },
    /// A persistent back-to-back Conv kernel.
    B2bConv {
        /// The fused kernel.
        kernel: B2bConvKernel,
        /// Filters and biases of both main loops.
        f0: NodeId,
        /// First bias, if any.
        b0: Option<NodeId>,
        /// Second filter.
        f1: NodeId,
        /// Second bias, if any.
        b1: Option<NodeId>,
        /// Input channels of the first conv after automatic padding.
        pad_to: Option<usize>,
    },
    /// An NCHW↔NHWC layout transformation at a region boundary. A
    /// functional no-op (the runtime tracks layouts); charged in timing.
    LayoutTransform {
        /// Tensor bytes moved (read + write counted separately).
        bytes: f64,
        /// Folded into the adjacent kernel (no extra launch).
        fused: bool,
    },
    /// A standalone channel-padding kernel (Table 3's overhead).
    PadChannels {
        /// Bytes read + written by the pad kernel.
        bytes: f64,
    },
    /// A host (TVM-fallback) operator executed outside Bolt.
    Host,
}

/// One executable step of a compiled model.
#[derive(Debug, Clone)]
pub struct Step {
    /// Display name.
    pub name: String,
    /// What to execute.
    pub kind: StepKind,
    /// Graph activation inputs, in kernel order.
    pub inputs: Vec<NodeId>,
    /// The graph node whose value this step produces.
    pub output: NodeId,
    /// Every graph node folded into this step (for coverage checks).
    pub covered: Vec<NodeId>,
}

/// Summary of the profiling effort that built a model (Figure 10b).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TuningSummary {
    /// Unique workloads profiled.
    pub workloads: usize,
    /// Candidate measurements performed.
    pub measurements: usize,
    /// Candidates skipped by analytic lower-bound pruning.
    pub pruned: usize,
    /// Simulated tuning wall-clock seconds attributable to *this*
    /// compilation (template generation is charged to the first compile
    /// that measures; cache-warm compiles cost zero).
    pub tuning_seconds: f64,
}

/// Timing-mode result.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Per-kernel timeline.
    pub timeline: Timeline,
    /// End-to-end latency in microseconds.
    pub total_us: f64,
}

impl TimingReport {
    /// Throughput in inferences (images) per second for a given batch.
    pub fn images_per_sec(&self, batch: usize) -> f64 {
        batch as f64 / (self.total_us / 1e6)
    }
}

/// A compiled model: a shared handle to the [`ExecutionPlan`] plus the
/// profiling-cost summary of the compilation that built it.
///
/// Cloning is cheap (the plan is behind an `Arc`); the serving layer
/// shares the same plan across batch buckets and worker threads.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    pub(crate) plan: Arc<ExecutionPlan>,
    /// Profiling-cost summary.
    pub tuning: TuningSummary,
}

impl CompiledModel {
    /// The execution plan this model is a handle to.
    pub fn plan(&self) -> &Arc<ExecutionPlan> {
        &self.plan
    }

    /// The executable steps in order.
    pub fn steps(&self) -> &[Step] {
        self.plan.steps()
    }

    /// The optimized graph this model executes.
    pub fn graph(&self) -> &Graph {
        self.plan.graph()
    }

    /// The target architecture.
    pub fn arch(&self) -> &GpuArch {
        self.plan.arch()
    }

    /// The configuration the model was compiled with.
    pub fn compile_config(&self) -> &BoltConfig {
        self.plan.config()
    }

    /// Number of device kernel launches (excludes host steps and fused
    /// transforms) — what persistent fusion and epilogue fusion reduce.
    pub fn kernel_count(&self) -> usize {
        self.plan.kernel_count()
    }

    /// Peak intermediate memory of the planned execution
    /// ([`ExecutionPlan::workspace_bytes`]).
    pub fn workspace_bytes(&self) -> u64 {
        self.plan.workspace_bytes()
    }

    /// Every step priced on the simulator ([`ExecutionPlan::time`]).
    pub fn time(&self) -> &TimingReport {
        self.plan.time()
    }

    /// Executes the model on real inputs (one tensor per graph input, in
    /// `Graph::input_ids` order). Rank-4 inputs may be NCHW (converted
    /// internally) or NHWC.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::BadInput`] for arity/rank/shape mismatches
    /// (including a mismatched batch dimension) and missing parameter
    /// data. Malformed inputs never panic: every message spells out the
    /// expected vs. received shape.
    pub fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        self.plan.run(inputs)
    }

    /// The batch capacity this model was compiled for
    /// ([`ExecutionPlan::batch_size`]).
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::BadInput`] when the graph has no inputs, an
    /// input is scalar, or the inputs disagree on the batch dimension.
    pub fn batch_size(&self) -> Result<usize> {
        self.plan.batch_size()
    }

    /// Batch-slicing execution for the serving layer
    /// ([`ExecutionPlan::run_batched`]).
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::BadInput`] for an empty or oversized sample
    /// list, per-sample arity/shape mismatches, or any error from
    /// [`CompiledModel::run`].
    pub fn run_batched(&self, samples: &[Vec<Tensor>]) -> Result<Vec<Vec<Tensor>>> {
        self.plan.run_batched(samples)
    }
}

/// The tensor's dimensions in the graph's logical convention: rank-4
/// activations report NCHW regardless of storage layout, everything else
/// reports shape order as stored.
pub(crate) fn logical_dims(tensor: &Tensor) -> Vec<usize> {
    if tensor.shape().rank() == 4 {
        let (n, c, h, w) = tensor.dims4();
        vec![n, c, h, w]
    } else {
        tensor.shape().dims().to_vec()
    }
}

/// True when `layout` keeps the batch (dimension 0) outermost in storage,
/// so batch stacking/slicing is a contiguous copy.
fn batch_outermost(layout: Layout) -> bool {
    !matches!(layout, Layout::Matrix(bolt_tensor::MatrixLayout::ColMajor))
}

/// Stacks single-sample tensors along the batch dimension into one tensor
/// of batch `pad_to`, zero-filling any padding rows.
/// Every supported layout (NCHW, NHWC, row-major matrix, contiguous)
/// stores the batch outermost, so stacking is a contiguous copy.
///
/// # Errors
///
/// Returns [`BoltError::BadInput`] when `samples` is empty or larger than
/// `pad_to`, when a sample's batch dimension is not 1, when samples
/// disagree on shape/layout/dtype, or for column-major matrices (batch
/// rows are not contiguous there).
pub fn stack_batch(samples: &[&Tensor], pad_to: usize) -> Result<Tensor> {
    let proto = samples.first().ok_or_else(|| BoltError::BadInput {
        reason: "stack_batch needs at least one sample".into(),
    })?;
    if samples.len() > pad_to {
        return Err(BoltError::BadInput {
            reason: format!(
                "{} samples do not fit in a batch of {pad_to}",
                samples.len()
            ),
        });
    }
    if !batch_outermost(proto.layout()) {
        return Err(BoltError::BadInput {
            reason: "stack_batch requires a batch-outermost layout (got a column-major matrix)"
                .into(),
        });
    }
    if proto.shape().rank() == 0 || proto.shape().dim(0) != 1 {
        return Err(BoltError::BadInput {
            reason: format!(
                "stack_batch samples must have batch dimension 1, got shape {}",
                proto.shape()
            ),
        });
    }
    for (s, t) in samples.iter().enumerate().skip(1) {
        if t.shape() != proto.shape() || t.layout() != proto.layout() || t.dtype() != proto.dtype()
        {
            return Err(BoltError::BadInput {
                reason: format!(
                    "sample {s} disagrees with sample 0: {} {:?} {:?} vs {} {:?} {:?}",
                    t.shape(),
                    t.layout(),
                    t.dtype(),
                    proto.shape(),
                    proto.layout(),
                    proto.dtype()
                ),
            });
        }
    }

    let per = proto.numel();
    let mut data = Vec::with_capacity(per * pad_to);
    for t in samples {
        data.extend_from_slice(t.data());
    }
    // Zero-pad the tail of a partial batch. Replicating the last sample
    // (the old behavior) would leak one request's activations into the
    // padding rows of another's launch and inflate their measured work;
    // zero rows are dead weight the batch slicing drops.
    data.resize(per * pad_to, 0.0);

    if proto.layout() == Layout::Nhwc {
        let (_, c, h, w) = proto.dims4();
        let mut t = Tensor::zeros_nhwc(pad_to, c, h, w, proto.dtype());
        t.data_mut().copy_from_slice(&data);
        Ok(t)
    } else {
        let mut dims = proto.shape().dims().to_vec();
        dims[0] = pad_to;
        Ok(Tensor::from_vec(&dims, proto.dtype(), data)?)
    }
}

/// Extracts sample `index` (batch dimension 1) from a batched tensor —
/// the inverse of [`stack_batch`].
///
/// # Errors
///
/// Returns [`BoltError::BadInput`] for an out-of-range index or a layout
/// whose batch rows are not contiguous (column-major matrices).
pub fn slice_batch(batched: &Tensor, index: usize) -> Result<Tensor> {
    if !batch_outermost(batched.layout()) {
        return Err(BoltError::BadInput {
            reason: "slice_batch requires a batch-outermost layout (got a column-major matrix)"
                .into(),
        });
    }
    if batched.shape().rank() == 0 {
        return Err(BoltError::BadInput {
            reason: "slice_batch requires a batched (non-scalar) tensor".into(),
        });
    }
    let batch = batched.shape().dim(0);
    if index >= batch {
        return Err(BoltError::BadInput {
            reason: format!("sample index {index} out of range for batch {batch}"),
        });
    }
    let per = batched.numel() / batch;
    let data = batched.data()[index * per..(index + 1) * per].to_vec();
    if batched.layout() == Layout::Nhwc {
        let (_, c, h, w) = batched.dims4();
        let mut t = Tensor::zeros_nhwc(1, c, h, w, batched.dtype());
        t.data_mut().copy_from_slice(&data);
        Ok(t)
    } else {
        let mut dims = batched.shape().dims().to_vec();
        dims[0] = 1;
        Ok(Tensor::from_vec(&dims, batched.dtype(), data)?)
    }
}

/// Where a host operator finds its activation inputs. The reference
/// interpreter looks values up in its hash-map environment; the slot
/// executor resolves them through the plan's slot table (plus
/// chain-local values for fused groups).
pub(crate) trait ValueLookup {
    /// The tensor currently bound to `id`, if any.
    fn lookup(&self, id: NodeId) -> Option<&Tensor>;
}

impl ValueLookup for HashMap<NodeId, Tensor> {
    fn lookup(&self, id: NodeId) -> Option<&Tensor> {
        self.get(&id)
    }
}

/// Executes one host (TVM-fallback) operator functionally.
pub(crate) fn run_host_op(graph: &Graph, id: NodeId, env: &impl ValueLookup) -> Result<Tensor> {
    let node = graph.node(id);
    let input = |i: usize| -> Result<&Tensor> {
        let nid = node.inputs[i];
        if let Some(t) = env.lookup(nid) {
            return Ok(t);
        }
        graph.param(nid).ok_or_else(|| BoltError::BadInput {
            reason: format!("host op {} input {nid} unavailable", node.name),
        })
    };
    match &node.kind {
        OpKind::Activation(act) => {
            let mut t = input(0)?.clone();
            apply_slice(*act, t.data_mut());
            let dtype = t.dtype();
            for v in t.data_mut() {
                *v = dtype.quantize(*v);
            }
            Ok(t)
        }
        OpKind::Add => {
            let a = input(0)?;
            let b = input(1)?;
            add_tensors(a, b)
        }
        OpKind::BiasAdd => {
            let x = input(0)?;
            let b = input(1)?;
            bias_add(x, b)
        }
        OpKind::BatchNorm { eps } => {
            let x = input(0)?;
            let gamma = input(1)?.clone();
            let beta = input(2)?.clone();
            let mean = input(3)?.clone();
            let var = input(4)?.clone();
            let (n, c, h, w) = x.dims4();
            let mut out = x.clone();
            for ci in 0..c {
                let scale = gamma.data()[ci] / (var.data()[ci] + eps).sqrt();
                let shift = beta.data()[ci] - mean.data()[ci] * scale;
                for ni in 0..n {
                    for hi in 0..h {
                        for wi in 0..w {
                            out.set4(ni, ci, hi, wi, x.get4(ni, ci, hi, wi) * scale + shift);
                        }
                    }
                }
            }
            Ok(out)
        }
        OpKind::Pool {
            kind,
            window,
            stride,
            padding,
        } => {
            let x = input(0)?;
            pool(x, *kind, *window, *stride, *padding)
        }
        OpKind::GlobalAvgPool => {
            let x = input(0)?;
            let (n, c, h, w) = x.dims4();
            let mut out = Tensor::zeros(&[n, c], x.dtype());
            for ni in 0..n {
                for ci in 0..c {
                    let mut acc = 0.0;
                    for hi in 0..h {
                        for wi in 0..w {
                            acc += x.get4(ni, ci, hi, wi);
                        }
                    }
                    out.set2(ni, ci, acc / (h * w) as f32);
                }
            }
            Ok(out)
        }
        OpKind::Flatten => {
            let x = input(0)?;
            if x.shape().rank() == 4 {
                let (n, c, h, w) = x.dims4();
                let mut out = Tensor::zeros(&[n, c * h * w], x.dtype());
                for ni in 0..n {
                    for ci in 0..c {
                        for hi in 0..h {
                            for wi in 0..w {
                                // NCHW flatten order (the framework view).
                                let col = (ci * h + hi) * w + wi;
                                out.set2(ni, col, x.get4(ni, ci, hi, wi));
                            }
                        }
                    }
                }
                Ok(out)
            } else {
                let numel: usize = x.shape().dims()[1..].iter().product();
                Ok(Tensor::from_vec(
                    &[x.shape().dim(0), numel],
                    x.dtype(),
                    x.data().to_vec(),
                )?)
            }
        }
        OpKind::Softmax => {
            let x = input(0)?;
            let (rows, cols) = (x.shape().dim(0), x.shape().dim(1));
            let mut out = Tensor::zeros(&[rows, cols], x.dtype());
            for r in 0..rows {
                let mut max = f32::NEG_INFINITY;
                for c in 0..cols {
                    max = max.max(x.get2(r, c));
                }
                let mut denom = 0.0;
                for c in 0..cols {
                    denom += (x.get2(r, c) - max).exp();
                }
                for c in 0..cols {
                    out.set2(r, c, (x.get2(r, c) - max).exp() / denom);
                }
            }
            Ok(out)
        }
        OpKind::Concat => {
            let parts: Vec<&Tensor> = (0..node.inputs.len()).map(input).collect::<Result<_>>()?;
            let (n, _, h, w) = parts[0].dims4();
            let total_c: usize = parts.iter().map(|p| p.dims4().1).sum();
            let mut out = Tensor::zeros_nhwc(n, total_c, h, w, parts[0].dtype());
            let mut offset = 0;
            for part in parts {
                let (_, c, _, _) = part.dims4();
                for ni in 0..n {
                    for ci in 0..c {
                        for hi in 0..h {
                            for wi in 0..w {
                                out.set4(ni, offset + ci, hi, wi, part.get4(ni, ci, hi, wi));
                            }
                        }
                    }
                }
                offset += c;
            }
            Ok(out)
        }
        other => Err(BoltError::BadInput {
            reason: format!("host execution of {} is not supported", other.name()),
        }),
    }
}

fn add_tensors(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.shape().rank() == 4 {
        let (n, c, h, w) = a.dims4();
        let mut out = a.clone();
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        out.set4(
                            ni,
                            ci,
                            hi,
                            wi,
                            a.get4(ni, ci, hi, wi) + b.get4(ni, ci, hi, wi),
                        );
                    }
                }
            }
        }
        Ok(out)
    } else {
        let mut out = a.clone();
        add_rows_into(a, b, out.data_mut());
        Ok(out)
    }
}

/// Host `Add` below rank 4: `out[i] = a[i] + b[i]` over the raw storage,
/// rounded to `a`'s dtype. The plan's residual adds call it with a buffer
/// leased from the run workspace instead of a clone of `a`.
pub(crate) fn add_rows_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let dtype = a.dtype();
    for ((o, &x), &y) in out.iter_mut().zip(a.data()).zip(b.data()) {
        *o = dtype.quantize(x + y);
    }
}

fn bias_add(x: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = x.clone();
    if x.shape().rank() == 4 {
        let (n, c, h, w) = x.dims4();
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        out.set4(ni, ci, hi, wi, x.get4(ni, ci, hi, wi) + b.data()[ci]);
                    }
                }
            }
        }
    } else {
        let (rows, cols) = (x.shape().dim(0), x.shape().dim(1));
        for r in 0..rows {
            for c in 0..cols {
                out.set2(r, c, x.get2(r, c) + b.data()[c]);
            }
        }
    }
    Ok(out)
}

fn pool(
    x: &Tensor,
    kind: PoolKind,
    window: usize,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let (n, c, h, w) = x.dims4();
    let p = (h + 2 * padding - window) / stride + 1;
    let q = (w + 2 * padding - window) / stride + 1;
    let mut out = Tensor::zeros_nhwc(n, c, p, q, x.dtype());
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..p {
                for ox in 0..q {
                    let mut acc = if kind == PoolKind::Max {
                        f32::NEG_INFINITY
                    } else {
                        0.0
                    };
                    let mut count = 0usize;
                    for ky in 0..window {
                        for kx in 0..window {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let v = x.get4(ni, ci, iy as usize, ix as usize);
                            match kind {
                                PoolKind::Max => acc = acc.max(v),
                                PoolKind::Avg => acc += v,
                            }
                            count += 1;
                        }
                    }
                    let v = match kind {
                        PoolKind::Max => acc,
                        PoolKind::Avg => acc / count.max(1) as f32,
                    };
                    out.set4(ni, ci, oy, ox, v);
                }
            }
        }
    }
    Ok(out)
}

/// True for operators TVM's injective fusion merges into one elementwise
/// kernel.
pub(crate) fn is_injective(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Activation(_) | OpKind::BiasAdd | OpKind::Add | OpKind::BatchNorm { .. }
    )
}

/// Prices a fused group of host operators as one kernel: external inputs
/// are read once, only group outputs are written, intermediates stay in
/// registers (TVM's injective fusion). A single-node group degenerates to
/// [`host_op_time`].
pub(crate) fn host_group_time(arch: &GpuArch, graph: &Graph, nodes: &[NodeId]) -> KernelTime {
    if nodes.len() <= 1 {
        return host_op_time(arch, graph, nodes[0]);
    }
    let elt = DType::F16.size_bytes() as f64;
    let group: std::collections::HashSet<NodeId> = nodes.iter().copied().collect();
    let mut in_bytes = 0.0;
    let mut out_bytes = 0.0;
    for &id in nodes {
        let node = graph.node(id);
        for &input in &node.inputs {
            if !group.contains(&input) && !matches!(graph.node(input).kind, OpKind::Constant { .. })
            {
                in_bytes += graph.node(input).shape.numel() as f64 * elt;
            }
        }
        let escapes =
            graph.consumers(id).iter().any(|c| !group.contains(c)) || graph.outputs().contains(&id);
        if escapes {
            out_bytes += node.shape.numel() as f64 * elt;
        }
    }
    let profile = KernelProfile::memory_only("tvm_fused_eltwise", in_bytes + out_bytes);
    simulate_kernel(arch, &profile)
}

/// Prices one host (TVM-fallback) operator: memory-bound elementwise /
/// reduction kernels at full alignment.
pub(crate) fn host_op_time(arch: &GpuArch, graph: &Graph, id: NodeId) -> KernelTime {
    let node = graph.node(id);
    let elt = DType::F16.size_bytes() as f64;
    let out_bytes = node.shape.numel() as f64 * elt;
    let in_bytes: f64 = node
        .inputs
        .iter()
        .map(|&i| graph.node(i).shape.numel() as f64 * elt)
        .sum();
    let bytes = match node.kind {
        OpKind::Flatten => 0.0, // a view, no kernel
        OpKind::Softmax => 3.0 * (in_bytes + out_bytes) / 2.0,
        _ => in_bytes + out_bytes,
    };
    if bytes == 0.0 {
        return KernelTime {
            compute_us: 0.0,
            dram_us: 0.0,
            smem_us: 0.0,
            launch_us: 0.0,
            tail_us: 0.0,
            total_us: 0.0,
            bound: bolt_gpu_sim::Boundedness::Launch,
            occupancy: bolt_gpu_sim::Occupancy {
                blocks_per_sm: 0,
                active_warps_per_sm: 0,
                fraction: 0.0,
                limited_by: bolt_gpu_sim::OccupancyLimit::Threads,
            },
        };
    }
    let profile = KernelProfile::memory_only(node.kind.name(), bytes);
    simulate_kernel(arch, &profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_graph::GraphBuilder;
    use bolt_tensor::Activation;

    #[test]
    fn host_ops_execute() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input(&[1, 2, 4, 4]);
        let p = b.max_pool(x, 2, 2, "pool");
        let g = b.global_avg_pool(p, "gap");
        let graph = b.finish(&[g]);

        let mut env = HashMap::new();
        let input = Tensor::randn(&[1, 2, 4, 4], DType::F32, 1)
            .to_activation_layout(Layout::Nhwc)
            .unwrap();
        env.insert(graph.input_ids()[0], input.clone());
        let pooled = run_host_op(&graph, p, &env).unwrap();
        assert_eq!(pooled.dims4(), (1, 2, 2, 2));
        // Max pool really takes the max.
        let manual = input
            .get4(0, 0, 0, 0)
            .max(input.get4(0, 0, 0, 1))
            .max(input.get4(0, 0, 1, 0))
            .max(input.get4(0, 0, 1, 1));
        assert_eq!(pooled.get4(0, 0, 0, 0), manual);

        env.insert(p, pooled);
        let gap = run_host_op(&graph, g, &env).unwrap();
        assert_eq!(gap.shape().dims(), &[1, 2]);
    }

    #[test]
    fn softmax_normalizes() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input(&[2, 4]);
        let s = b.softmax(x, "sm");
        let graph = b.finish(&[s]);
        let mut env = HashMap::new();
        env.insert(graph.input_ids()[0], Tensor::randn(&[2, 4], DType::F32, 2));
        let out = run_host_op(&graph, s, &env).unwrap();
        for r in 0..2 {
            let sum: f32 = (0..4).map(|c| out.get2(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn flatten_uses_nchw_order() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input(&[1, 2, 2, 2]);
        let f = b.flatten(x, "flat");
        let graph = b.finish(&[f]);
        // NHWC-stored input whose logical NCHW values are 0..8.
        let nchw = Tensor::from_vec(
            &[1, 2, 2, 2],
            DType::F32,
            (0..8).map(|v| v as f32).collect(),
        )
        .unwrap();
        let nhwc = nchw.to_activation_layout(Layout::Nhwc).unwrap();
        let mut env = HashMap::new();
        env.insert(graph.input_ids()[0], nhwc);
        let out = run_host_op(&graph, f, &env).unwrap();
        // Flatten must follow NCHW logical order regardless of storage.
        let expect: Vec<f32> = (0..8).map(|v| v as f32).collect();
        assert_eq!(out.data(), &expect[..]);
    }

    #[test]
    fn host_add_and_bias_add_execute() {
        let mut g2 = GraphBuilder::new(DType::F32);
        let x2 = g2.input(&[2, 3]);
        let r = g2.activation(x2, Activation::ReLU, "relu");
        let graph = g2.finish(&[r]);
        let mut env = HashMap::new();
        env.insert(
            graph.input_ids()[0],
            Tensor::from_vec(&[2, 3], DType::F32, vec![-1.0, 2.0, -3.0, 4.0, -5.0, 6.0]).unwrap(),
        );
        let out = run_host_op(&graph, r, &env).unwrap();
        assert_eq!(out.data(), &[0.0, 2.0, 0.0, 4.0, 0.0, 6.0]);
    }

    /// Compile-time proof that compiled artifacts can be shared across
    /// threads behind an `Arc` (the serving layer depends on it): no
    /// interior mutability hides in `Step` or the kernels.
    #[test]
    fn compiled_model_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledModel>();
        assert_send_sync::<ExecutionPlan>();
        assert_send_sync::<Step>();
        assert_send_sync::<StepKind>();
        assert_send_sync::<TimingReport>();
    }

    fn compiled_mlp(batch: usize) -> CompiledModel {
        use bolt_tensor::Activation;
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[batch, 16]);
        let h = b.dense_bias(x, 8, "fc");
        let y = b.activation(h, Activation::ReLU, "relu");
        let graph = b.finish(&[y]);
        crate::BoltCompiler::new(GpuArch::tesla_t4(), crate::BoltConfig::default())
            .compile(&graph)
            .expect("mlp compiles")
    }

    #[test]
    fn run_rejects_wrong_input_count_with_typed_error() {
        let model = compiled_mlp(4);
        let err = model.run(&[]).unwrap_err();
        match &err {
            BoltError::BadInput { reason } => {
                assert!(reason.contains("expected 1 inputs, got 0"), "{reason}");
            }
            other => panic!("expected BadInput, got {other}"),
        }
    }

    #[test]
    fn run_rejects_mismatched_batch_with_expected_vs_got() {
        let model = compiled_mlp(4);
        let bad = Tensor::randn(&[2, 16], DType::F16, 3);
        let err = model.run(&[bad]).unwrap_err();
        match &err {
            BoltError::BadInput { reason } => {
                assert!(reason.contains("batch dimension mismatch"), "{reason}");
                assert!(reason.contains("4") && reason.contains("2"), "{reason}");
            }
            other => panic!("expected BadInput, got {other}"),
        }
    }

    #[test]
    fn run_rejects_wrong_rank_without_panicking() {
        let model = compiled_mlp(4);
        // Rank-4 tensor against a rank-2 input used to panic in
        // `Shape::dim` before validation compared ranks first.
        let bad = Tensor::randn(&[4, 2, 2, 4], DType::F16, 5);
        let err = model.run(&[bad]).unwrap_err();
        match &err {
            BoltError::BadInput { reason } => {
                assert!(reason.contains("rank mismatch"), "{reason}");
            }
            other => panic!("expected BadInput, got {other}"),
        }
    }

    #[test]
    fn run_batched_matches_per_sample_run_and_pads_partial_batches() {
        let model = compiled_mlp(4);
        let samples: Vec<Vec<Tensor>> = (0..3)
            .map(|s| vec![Tensor::randn(&[1, 16], DType::F16, 100 + s)])
            .collect();
        let batched = model.run_batched(&samples).expect("batched run");
        assert_eq!(batched.len(), 3, "padding rows must be dropped");

        let single = compiled_mlp(1);
        for (s, sample) in samples.iter().enumerate() {
            let direct = single.run(sample).expect("single run");
            assert_eq!(batched[s].len(), direct.len());
            for (a, b) in batched[s].iter().zip(&direct) {
                assert_eq!(a.shape(), b.shape());
                assert!(a.allclose(b, 1e-3).unwrap(), "sample {s} diverged");
            }
        }
    }

    #[test]
    fn run_batched_rejects_oversized_and_empty_batches() {
        let model = compiled_mlp(2);
        assert!(matches!(
            model.run_batched(&[]),
            Err(BoltError::BadInput { .. })
        ));
        let samples: Vec<Vec<Tensor>> = (0..3)
            .map(|s| vec![Tensor::randn(&[1, 16], DType::F16, s)])
            .collect();
        assert!(matches!(
            model.run_batched(&samples),
            Err(BoltError::BadInput { .. })
        ));
    }

    #[test]
    fn stack_and_slice_batch_round_trip_nhwc() {
        let samples: Vec<Tensor> = (0..2)
            .map(|s| {
                Tensor::randn(&[1, 3, 4, 4], DType::F32, 7 + s)
                    .to_activation_layout(Layout::Nhwc)
                    .unwrap()
            })
            .collect();
        let refs: Vec<&Tensor> = samples.iter().collect();
        let stacked = stack_batch(&refs, 4).expect("stack");
        assert_eq!(stacked.dims4(), (4, 3, 4, 4));
        assert_eq!(stacked.layout(), Layout::Nhwc);
        for (s, sample) in samples.iter().enumerate() {
            let back = slice_batch(&stacked, s).expect("slice");
            assert_eq!(back.data(), sample.data());
        }
        // Padding rows are zero-filled, not replicas of another sample.
        let pad = slice_batch(&stacked, 3).expect("pad slice");
        assert!(pad.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn host_timing_is_positive_for_pool() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[32, 64, 56, 56]);
        let p = b.max_pool(x, 2, 2, "pool");
        let graph = b.finish(&[p]);
        let t = host_op_time(&GpuArch::tesla_t4(), &graph, p);
        assert!(t.total_us > 3.0);
        // Flatten is free.
        let mut b2 = GraphBuilder::new(DType::F16);
        let x2 = b2.input(&[32, 64, 7, 7]);
        let f = b2.flatten(x2, "flat");
        let g2 = b2.finish(&[f]);
        assert_eq!(host_op_time(&GpuArch::tesla_t4(), &g2, f).total_us, 0.0);
    }
}
