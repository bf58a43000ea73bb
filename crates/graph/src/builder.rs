//! Ergonomic graph construction, used by the model zoo.

use bolt_tensor::{Activation, DType, Shape, Tensor};

use crate::graph::{Graph, NodeId};
use crate::op::{OpKind, PoolKind};
use crate::Result;

/// A builder wrapping a [`Graph`] with layer-style helpers. Parameters are
/// declared as constants and (optionally) materialized with deterministic
/// random data so functional execution works out of the box.
///
/// ```
/// use bolt_graph::GraphBuilder;
/// use bolt_tensor::{Activation, DType};
///
/// let mut b = GraphBuilder::new(DType::F16);
/// let x = b.input(&[32, 3, 32, 32]);
/// let c = b.conv2d(x, 16, 3, (1, 1), (1, 1), "conv1");
/// let r = b.activation(c, Activation::ReLU, "relu1");
/// let g = b.finish(&[r]);
/// assert_eq!(g.node(r).shape.dims(), &[32, 16, 32, 32]);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    graph: Graph,
    dtype: DType,
    seed: u64,
    /// If true (default), parameter tensors are materialized.
    pub materialize_params: bool,
}

impl GraphBuilder {
    /// Creates a builder producing tensors of `dtype`.
    pub fn new(dtype: DType) -> Self {
        GraphBuilder {
            graph: Graph::new(),
            dtype,
            seed: 0x0b017,
            materialize_params: true,
        }
    }

    /// Creates a builder that only declares parameter shapes (faster for
    /// timing-only compilation of big models).
    pub fn shapes_only(dtype: DType) -> Self {
        GraphBuilder {
            materialize_params: false,
            ..Self::new(dtype)
        }
    }

    /// Access to the graph under construction.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// `Conv2d` with a possibly non-square `(kh, kw)` filter and
    /// asymmetric padding (Inception-style factorized convolutions),
    /// followed by `BiasAdd`.
    pub fn conv2d_rect_bias(
        &mut self,
        x: NodeId,
        out_ch: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        name: &str,
    ) -> NodeId {
        let in_ch = self.graph.node(x).shape.dim(1);
        let w = self.constant(
            &[out_ch, in_ch, kernel.0, kernel.1],
            &format!("{name}.weight"),
        );
        let c = self
            .graph
            .add(
                OpKind::Conv2d {
                    stride,
                    padding,
                    dilation: (1, 1),
                },
                &[x, w],
                name,
            )
            .expect("validated conv");
        let b = self.constant(&[out_ch], &format!("{name}.bias"));
        self.graph
            .add(OpKind::BiasAdd, &[c, b], format!("{name}.bias_add"))
            .expect("bias")
    }

    /// Adds a graph input of the given logical shape.
    pub fn input(&mut self, dims: &[usize]) -> NodeId {
        self.graph
            .add(
                OpKind::Input {
                    shape: Shape::new(dims),
                    dtype: self.dtype,
                },
                &[],
                "input",
            )
            .expect("input nodes cannot fail")
    }

    /// Declares a constant of the given shape, materializing data when
    /// enabled.
    pub fn constant(&mut self, dims: &[usize], name: &str) -> NodeId {
        let id = self
            .graph
            .add(
                OpKind::Constant {
                    shape: Shape::new(dims),
                    dtype: self.dtype,
                },
                &[],
                name,
            )
            .expect("constant nodes cannot fail");
        if self.materialize_params {
            self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let scale = 1.0 / (dims.iter().skip(1).product::<usize>().max(1) as f32).sqrt();
            let t = Tensor::randn(dims, self.dtype, self.seed);
            let data = t.data().iter().map(|v| v * scale).collect();
            let t = Tensor::from_vec(dims, self.dtype, data).expect("same length");
            self.graph
                .set_param(id, t)
                .expect("constant accepts params");
        }
        id
    }

    /// Attaches explicit parameter data to a constant created by
    /// [`GraphBuilder::constant`].
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn set_param(&mut self, id: NodeId, tensor: Tensor) -> Result<()> {
        self.graph.set_param(id, tensor)
    }

    /// `Conv2d` with a fresh `(out_ch, in_ch, k, k)` filter.
    pub fn conv2d(
        &mut self,
        x: NodeId,
        out_ch: usize,
        kernel: usize,
        stride: (usize, usize),
        padding: (usize, usize),
        name: &str,
    ) -> NodeId {
        let in_ch = self.graph.node(x).shape.dim(1);
        let w = self.constant(&[out_ch, in_ch, kernel, kernel], &format!("{name}.weight"));
        self.graph
            .add(
                OpKind::Conv2d {
                    stride,
                    padding,
                    dilation: (1, 1),
                },
                &[x, w],
                name,
            )
            .expect("validated conv")
    }

    /// `Conv2d` followed by `BiasAdd`.
    pub fn conv2d_bias(
        &mut self,
        x: NodeId,
        out_ch: usize,
        kernel: usize,
        stride: (usize, usize),
        padding: (usize, usize),
        name: &str,
    ) -> NodeId {
        let c = self.conv2d(x, out_ch, kernel, stride, padding, name);
        let b = self.constant(&[out_ch], &format!("{name}.bias"));
        self.graph
            .add(OpKind::BiasAdd, &[c, b], format!("{name}.bias_add"))
            .expect("bias")
    }

    /// Inference-form batch normalization with fresh parameters.
    pub fn batch_norm(&mut self, x: NodeId, name: &str) -> NodeId {
        let c = self.graph.node(x).shape.dim(1);
        let gamma = self.constant(&[c], &format!("{name}.gamma"));
        let beta = self.constant(&[c], &format!("{name}.beta"));
        let mean = self.constant(&[c], &format!("{name}.mean"));
        let var = self.constant(&[c], &format!("{name}.var"));
        // Variance must be positive: rewrite the materialized data.
        if self.materialize_params {
            let t = self.graph.param(var).expect("materialized").clone();
            let data = t.data().iter().map(|v| 0.5 + v.abs()).collect();
            let t = Tensor::from_vec(&[c], self.dtype, data).expect("same length");
            self.graph.set_param(var, t).expect("constant");
        }
        self.graph
            .add(
                OpKind::BatchNorm { eps: 1e-5 },
                &[x, gamma, beta, mean, var],
                name,
            )
            .expect("bn")
    }

    /// Elementwise activation.
    pub fn activation(&mut self, x: NodeId, act: Activation, name: &str) -> NodeId {
        self.graph
            .add(OpKind::Activation(act), &[x], name)
            .expect("activation")
    }

    /// Elementwise addition.
    pub fn add(&mut self, a: NodeId, b: NodeId, name: &str) -> NodeId {
        self.graph
            .add(OpKind::Add, &[a, b], name)
            .expect("add shapes match")
    }

    /// Max pooling.
    pub fn max_pool(&mut self, x: NodeId, window: usize, stride: usize, name: &str) -> NodeId {
        self.graph
            .add(
                OpKind::Pool {
                    kind: PoolKind::Max,
                    window,
                    stride,
                    padding: 0,
                },
                &[x],
                name,
            )
            .expect("pool")
    }

    /// Global average pooling.
    pub fn global_avg_pool(&mut self, x: NodeId, name: &str) -> NodeId {
        self.graph
            .add(OpKind::GlobalAvgPool, &[x], name)
            .expect("gap")
    }

    /// Flatten to `(N, features)`.
    pub fn flatten(&mut self, x: NodeId, name: &str) -> NodeId {
        self.graph
            .add(OpKind::Flatten, &[x], name)
            .expect("flatten")
    }

    /// Dense layer with a fresh `(units, in)` weight and bias.
    pub fn dense_bias(&mut self, x: NodeId, units: usize, name: &str) -> NodeId {
        let in_f = self.graph.node(x).shape.dim(1);
        let w = self.constant(&[units, in_f], &format!("{name}.weight"));
        let d = self.graph.add(OpKind::Dense, &[x, w], name).expect("dense");
        let b = self.constant(&[units], &format!("{name}.bias"));
        self.graph
            .add(OpKind::BiasAdd, &[d, b], format!("{name}.bias_add"))
            .expect("bias")
    }

    /// Dense layer without bias.
    pub fn dense(&mut self, x: NodeId, units: usize, name: &str) -> NodeId {
        let in_f = self.graph.node(x).shape.dim(1);
        let w = self.constant(&[units, in_f], &format!("{name}.weight"));
        self.graph.add(OpKind::Dense, &[x, w], name).expect("dense")
    }

    /// Channel-axis concatenation.
    pub fn concat(&mut self, inputs: &[NodeId], name: &str) -> NodeId {
        self.graph
            .add(OpKind::Concat, inputs, name)
            .expect("concat shapes agree")
    }

    /// Average pooling with padding.
    pub fn avg_pool(
        &mut self,
        x: NodeId,
        window: usize,
        stride: usize,
        padding: usize,
        name: &str,
    ) -> NodeId {
        self.graph
            .add(
                OpKind::Pool {
                    kind: PoolKind::Avg,
                    window,
                    stride,
                    padding,
                },
                &[x],
                name,
            )
            .expect("pool")
    }

    /// Softmax over the last dimension.
    pub fn softmax(&mut self, x: NodeId, name: &str) -> NodeId {
        self.graph
            .add(OpKind::Softmax, &[x], name)
            .expect("softmax")
    }

    /// Finalizes the graph with the given outputs.
    pub fn finish(mut self, outputs: &[NodeId]) -> Graph {
        self.graph.set_outputs(outputs);
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_builds() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[8, 16]);
        let h = b.dense_bias(x, 32, "fc1");
        let r = b.activation(h, Activation::ReLU, "relu");
        let o = b.dense_bias(r, 4, "fc2");
        let g = b.finish(&[o]);
        assert_eq!(g.node(o).shape.dims(), &[8, 4]);
        assert_eq!(g.outputs(), &[o]);
        // Dense weights and biases materialized.
        let weights = g
            .nodes()
            .iter()
            .filter(|n| n.name.ends_with(".weight"))
            .count();
        assert_eq!(weights, 2);
    }

    #[test]
    fn shapes_only_skips_params() {
        let mut b = GraphBuilder::shapes_only(DType::F16);
        let x = b.input(&[8, 16]);
        let h = b.dense_bias(x, 32, "fc1");
        let g = b.finish(&[h]);
        let w = g.nodes().iter().find(|n| n.name == "fc1.weight").unwrap();
        assert!(g.param(w.id).is_none());
    }

    #[test]
    fn bn_variance_is_positive() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[1, 4, 8, 8]);
        let bn = b.batch_norm(x, "bn1");
        let g = b.finish(&[bn]);
        let var = g.nodes().iter().find(|n| n.name == "bn1.var").unwrap();
        let t = g.param(var.id).unwrap();
        assert!(t.data().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn residual_block_builds() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[2, 8, 16, 16]);
        let c1 = b.conv2d_bias(x, 8, 3, (1, 1), (1, 1), "c1");
        let r1 = b.activation(c1, Activation::ReLU, "r1");
        let c2 = b.conv2d_bias(r1, 8, 3, (1, 1), (1, 1), "c2");
        let sum = b.add(c2, x, "residual");
        let out = b.activation(sum, Activation::ReLU, "r2");
        let g = b.finish(&[out]);
        assert_eq!(g.node(out).shape.dims(), &[2, 8, 16, 16]);
    }
}
