//! Autoregressive transformer decoder workload (ISSUE 9): the
//! LLM-serving shape regime Bolt's fixed-shape zoo never exercised.
//!
//! A decoder forward pass is a stack of GEMMs whose M extent is the
//! number of token rows flowing through it: **prefill** pushes a whole
//! prompt at once (wide GEMM, M = prompt length), while each **decode
//! step** pushes one row per live sequence (skinny GEMM whose M shifts
//! every iteration as sequences join and finish). Attention itself is
//! not expressible in the graph IR (there is no activation×activation
//! matmul operator), which mirrors how serving stacks split the model:
//! the GEMM stacks compile through Bolt per M-bucket, and the
//! per-sequence attention runs as host glue against the persistent KV
//! workspace (`bolt::KvWorkspace`).
//!
//! Per decoder layer the graph work is split into two compilable
//! sub-models plus the shared LM head:
//!
//! * **qkv** — `(M, hidden) → dense_bias → (M, 3·hidden)`: the fused
//!   Q/K/V projection.
//! * **post** — attention output + residual in, block output out:
//!   `Wo` projection with fused residual add, then the two-GEMM MLP
//!   (`ffn` up with GELU, `hidden` down with fused residual add).
//! * **lm_head** — `(M, hidden) → (M, vocab)` logits.
//!
//! Every sub-model's parameters are reseeded deterministically from
//! `(model salt, constant name)` after graph construction, so the same
//! layer gets identical weights at every M bucket — the property that
//! makes continuous batching bit-identical to sequential execution
//! (GEMM rows are independent, and f32 accumulation order per output
//! element never depends on M).

use bolt_graph::{Graph, GraphBuilder, OpKind};
use bolt_tensor::{Activation, DType, Tensor};

/// Architecture of a toy autoregressive decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderSpec {
    /// Decoder layers.
    pub layers: usize,
    /// Model width (must divide evenly into `heads`).
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// MLP inner width.
    pub ffn: usize,
    /// Vocabulary size (token ids are `0..vocab`).
    pub vocab: usize,
    /// Maximum sequence length (prompt + generated) a KV cache holds.
    pub max_seq: usize,
}

impl DecoderSpec {
    /// The `tiny-lm` zoo preset: small enough that per-step functional
    /// execution is fast, deep enough (2 layers × 3 GEMM stacks + LM
    /// head) that every serving-path mechanism is exercised.
    pub fn tiny() -> Self {
        DecoderSpec {
            layers: 2,
            hidden: 64,
            heads: 4,
            ffn: 128,
            vocab: 128,
            max_seq: 160,
        }
    }

    /// Per-head width.
    pub fn head_dim(&self) -> usize {
        debug_assert_eq!(self.hidden % self.heads, 0, "heads must divide hidden");
        self.hidden / self.heads
    }

    /// KV row width per layer (all heads concatenated).
    pub fn kv_dim(&self) -> usize {
        self.hidden
    }

    /// Approximate parameter count across all sub-models.
    pub fn params(&self) -> u64 {
        let per_layer = 3 * self.hidden * self.hidden   // qkv
            + self.hidden * self.hidden                 // wo
            + 2 * self.hidden * self.ffn; // mlp up + down
        (self.layers * per_layer + self.vocab * self.hidden) as u64
    }
}

/// Splitmix64 — deterministic parameter/prompt seeding.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Deterministic per-name seed: identical for the same `(salt, name)`
/// whatever M the graph was built at.
fn name_seed(salt: u64, name: &str) -> u64 {
    let mut h = salt ^ 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h = mix(h ^ u64::from(*b));
    }
    h | 1
}

/// Overwrites every materialized constant with a tensor seeded from
/// `(salt, node name)` and scaled by `1/sqrt(fan_in)` — the same
/// init scale `GraphBuilder::constant` uses, but keyed by *name*
/// instead of creation order so weights are layer-distinct yet
/// identical across M buckets.
fn reseed_params(graph: &mut Graph, salt: u64) {
    let consts: Vec<_> = graph
        .nodes()
        .iter()
        .filter_map(|n| match &n.kind {
            OpKind::Constant { shape, dtype } => {
                Some((n.id, shape.dims().to_vec(), *dtype, n.name.clone()))
            }
            _ => None,
        })
        .collect();
    for (id, dims, dtype, name) in consts {
        let scale = 1.0 / (dims.iter().skip(1).product::<usize>().max(1) as f32).sqrt();
        let t = Tensor::randn(&dims, dtype, name_seed(salt, &name));
        let data = t.data().iter().map(|v| v * scale).collect();
        let t = Tensor::from_vec(&dims, dtype, data).expect("same length");
        graph.set_param(id, t).expect("constant accepts params");
    }
}

/// The fused Q/K/V projection of `layer`: `(rows, hidden)` activations
/// in, `(rows, 3·hidden)` out (Q then K then V, each `hidden` wide).
pub fn qkv_graph(spec: &DecoderSpec, salt: u64, layer: usize, rows: usize) -> Graph {
    let mut b = GraphBuilder::new(DType::F16);
    let x = b.input(&[rows.max(1), spec.hidden]);
    let qkv = b.dense_bias(x, 3 * spec.hidden, &format!("l{layer}.qkv"));
    let mut g = b.finish(&[qkv]);
    reseed_params(&mut g, salt);
    g
}

/// Everything after attention in `layer`: the `Wo` projection with the
/// block residual fused, then the GELU MLP with its own fused residual.
/// Inputs: `[attention_output, block_residual]`, both `(rows, hidden)`.
pub fn post_graph(spec: &DecoderSpec, salt: u64, layer: usize, rows: usize) -> Graph {
    let mut b = GraphBuilder::new(DType::F16);
    let attn = b.input(&[rows.max(1), spec.hidden]);
    let residual = b.input(&[rows.max(1), spec.hidden]);
    let wo = b.dense_bias(attn, spec.hidden, &format!("l{layer}.wo"));
    let h = b.add(wo, residual, &format!("l{layer}.res0"));
    let up = b.dense_bias(h, spec.ffn, &format!("l{layer}.ffn.up"));
    let act = b.activation(up, Activation::Gelu, &format!("l{layer}.ffn.gelu"));
    let down = b.dense_bias(act, spec.hidden, &format!("l{layer}.ffn.down"));
    let out = b.add(down, h, &format!("l{layer}.res1"));
    let mut g = b.finish(&[out]);
    reseed_params(&mut g, salt);
    g
}

/// The shared LM head: `(rows, hidden)` hidden states to `(rows,
/// vocab)` logits.
pub fn lm_head_graph(spec: &DecoderSpec, salt: u64, rows: usize) -> Graph {
    let mut b = GraphBuilder::new(DType::F16);
    let x = b.input(&[rows.max(1), spec.hidden]);
    let logits = b.dense_bias(x, spec.vocab, "lm_head");
    let mut g = b.finish(&[logits]);
    reseed_params(&mut g, salt);
    g
}

/// Serving registry name of `layer`'s QKV sub-model.
pub fn qkv_name(model: &str, layer: usize) -> String {
    format!("{model}/l{layer}.qkv")
}

/// Serving registry name of `layer`'s post-attention sub-model.
pub fn post_name(model: &str, layer: usize) -> String {
    format!("{model}/l{layer}.post")
}

/// Serving registry name of the LM head sub-model.
pub fn lm_head_name(model: &str) -> String {
    format!("{model}/lm_head")
}

/// Host-side state shared by every execution path: the token embedding
/// table and the spec. The graph sub-models carry the projection
/// weights; this carries what the graph IR cannot express.
#[derive(Debug)]
pub struct DecoderModel {
    spec: DecoderSpec,
    salt: u64,
    /// `(vocab, hidden)` F16 embedding table.
    embed: Tensor,
}

impl DecoderModel {
    /// Builds the host-side model for `spec`, with all randomness
    /// derived from `salt` (the same salt the graph sub-models must be
    /// built with).
    pub fn new(spec: DecoderSpec, salt: u64) -> Self {
        assert_eq!(spec.hidden % spec.heads, 0, "heads must divide hidden");
        let dims = [spec.vocab, spec.hidden];
        let scale = 1.0 / (spec.hidden as f32).sqrt();
        let t = Tensor::randn(&dims, DType::F16, name_seed(salt, "embed"));
        let data = t.data().iter().map(|v| v * scale).collect();
        let embed = Tensor::from_vec(&dims, DType::F16, data).expect("same length");
        DecoderModel { spec, salt, embed }
    }

    /// The architecture.
    pub fn spec(&self) -> &DecoderSpec {
        &self.spec
    }

    /// The parameter salt graph sub-models must share.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// The embedding row of `token`.
    pub fn embed_token(&self, token: u32) -> &[f32] {
        let row = (token as usize) % self.spec.vocab;
        let h = self.spec.hidden;
        &self.embed.data()[row * h..(row + 1) * h]
    }

    /// Greedy deterministic sampling: the lowest-index maximal logit.
    pub fn argmax(&self, logits: &[f32]) -> u32 {
        debug_assert_eq!(logits.len(), self.spec.vocab);
        let mut best = 0usize;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = i;
            }
        }
        best as u32
    }

    /// Causal multi-head attention for one query row against `n` cached
    /// rows (the current position's K/V already written into the
    /// cache). `keys`/`values` arrive as lists of contiguous whole-row
    /// chunks in position order — the per-block runs a paged KV cache
    /// (`bolt::KvWorkspace::key_chunks`) hands out — concatenating to
    /// at least `n` rows of width `hidden`. Pure, sequential,
    /// per-sequence host math, and positions are visited strictly in
    /// order across chunk boundaries, so the float-op order (and hence
    /// the result, bit for bit) is identical however the rows are
    /// paged: its result depends only on this sequence's history, never
    /// on batch composition or block size, which is half of the
    /// bit-identity argument for continuous batching.
    ///
    /// A wrapper over [`DecoderModel::attention_into`] that allocates
    /// its result and scratch.
    pub fn attention(&self, q: &[f32], keys: &[&[f32]], values: &[&[f32]], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; self.spec.hidden];
        self.attention_into(
            q,
            keys.iter().copied(),
            values.iter().copied(),
            n,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    /// [`DecoderModel::attention`] written into the caller's `out` row
    /// (`hidden` wide), with the caller's `scores` as the softmax
    /// scratch, so a warm decode step allocates nothing. `keys` and
    /// `values` walk the cached rows' chunks in position order (a
    /// `bolt::KvChunks`, or any other chunk iterator); each is cloned
    /// once per head to walk the rows again. Bit-identical to
    /// [`DecoderModel::attention`].
    pub fn attention_into<'a>(
        &self,
        q: &[f32],
        keys: impl Iterator<Item = &'a [f32]> + Clone,
        values: impl Iterator<Item = &'a [f32]> + Clone,
        n: usize,
        scores: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let h = self.spec.hidden;
        let heads = self.spec.heads;
        let d = self.spec.head_dim();
        debug_assert_eq!(q.len(), h);
        debug_assert_eq!(out.len(), h);
        debug_assert!(keys.clone().map(<[f32]>::len).sum::<usize>() >= n * h);
        debug_assert!(values.clone().map(<[f32]>::len).sum::<usize>() >= n * h);
        let inv_sqrt_d = 1.0 / (d as f32).sqrt();
        out.fill(0.0);
        scores.clear();
        scores.resize(n, 0.0);
        for head in 0..heads {
            let o = head * d;
            // Scaled dot-product scores over the causal window.
            let mut max = f32::NEG_INFINITY;
            let mut t = 0usize;
            'keys: for chunk in keys.clone() {
                for k_row in chunk.chunks_exact(h) {
                    if t >= n {
                        break 'keys;
                    }
                    let mut dot = 0.0f32;
                    for (qe, ke) in q[o..o + d].iter().zip(&k_row[o..o + d]) {
                        dot += qe * ke;
                    }
                    scores[t] = dot * inv_sqrt_d;
                    max = max.max(scores[t]);
                    t += 1;
                }
            }
            // Max-subtracted softmax, then the value mix.
            let mut denom = 0.0f32;
            for s in scores.iter_mut() {
                *s = (*s - max).exp();
                denom += *s;
            }
            let inv = 1.0 / denom;
            let mut t = 0usize;
            'values: for chunk in values.clone() {
                for v_row in chunk.chunks_exact(h) {
                    if t >= n {
                        break 'values;
                    }
                    let w = scores[t] * inv;
                    for (oe, ve) in out[o..o + d].iter_mut().zip(&v_row[o..o + d]) {
                        *oe += w * ve;
                    }
                    t += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_graphs_build_and_shapes_check() {
        let spec = DecoderSpec::tiny();
        for rows in [1usize, 7, 32] {
            let q = qkv_graph(&spec, 9, 0, rows);
            let out = q.node(q.outputs()[0]);
            assert_eq!(out.shape.dims(), &[rows, 3 * spec.hidden]);

            let p = post_graph(&spec, 9, 1, rows);
            let out = p.node(p.outputs()[0]);
            assert_eq!(out.shape.dims(), &[rows, spec.hidden]);
            assert_eq!(p.input_ids().len(), 2);

            let l = lm_head_graph(&spec, 9, rows);
            let out = l.node(l.outputs()[0]);
            assert_eq!(out.shape.dims(), &[rows, spec.vocab]);
        }
    }

    #[test]
    fn params_are_identical_across_m_buckets_and_distinct_across_layers() {
        let spec = DecoderSpec::tiny();
        let narrow = qkv_graph(&spec, 9, 0, 1);
        let wide = qkv_graph(&spec, 9, 0, 32);
        let weight = |g: &Graph, name: &str| {
            let n = g
                .nodes()
                .iter()
                .find(|n| n.name == name)
                .unwrap_or_else(|| panic!("{name} missing"));
            g.param(n.id).expect("materialized").data().to_vec()
        };
        assert_eq!(
            weight(&narrow, "l0.qkv.weight"),
            weight(&wide, "l0.qkv.weight"),
            "same layer weights at every M bucket"
        );
        let other_layer = qkv_graph(&spec, 9, 1, 1);
        assert_ne!(
            weight(&narrow, "l0.qkv.weight"),
            weight(&other_layer, "l1.qkv.weight"),
            "layers have distinct weights"
        );
        let other_salt = qkv_graph(&spec, 10, 0, 1);
        assert_ne!(
            weight(&narrow, "l0.qkv.weight"),
            weight(&other_salt, "l0.qkv.weight"),
            "salt changes weights"
        );
    }

    #[test]
    fn attention_is_a_convex_value_mix() {
        let spec = DecoderSpec::tiny();
        let model = DecoderModel::new(spec, 1);
        let h = spec.hidden;
        let n = 5;
        let q = vec![0.1f32; h];
        let keys: Vec<f32> = (0..n * h).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect();
        // All values equal => any softmax weighting returns that value.
        let values = vec![0.75f32; n * h];
        let out = model.attention(&q, &[&keys], &[&values], n);
        assert_eq!(out.len(), h);
        for v in &out {
            assert!((v - 0.75).abs() < 1e-5, "got {v}");
        }
        // Paging the same rows into uneven chunks is bit-identical:
        // positions are visited in order regardless of chunking.
        let split = 2 * h;
        let chunked_keys: Vec<&[f32]> = vec![&keys[..split], &keys[split..]];
        let chunked_values: Vec<&[f32]> = vec![&values[..split], &values[split..]];
        let paged = model.attention(&q, &chunked_keys, &chunked_values, n);
        assert_eq!(out, paged, "chunking must not change a single bit");
        // Dirty caller scratch and output rows change nothing either.
        let mut scores = vec![f32::NAN; 3 * n];
        let mut row = vec![f32::NAN; h];
        model.attention_into(
            &q,
            chunked_keys.iter().copied(),
            chunked_values.iter().copied(),
            n,
            &mut scores,
            &mut row,
        );
        assert_eq!(out, row, "attention_into is attention, in place");
    }

    #[test]
    fn argmax_breaks_ties_toward_lower_index() {
        let spec = DecoderSpec::tiny();
        let model = DecoderModel::new(spec, 1);
        let mut logits = vec![0.0f32; spec.vocab];
        logits[3] = 2.0;
        logits[90] = 2.0;
        assert_eq!(model.argmax(&logits), 3);
    }

    #[test]
    fn embedding_is_deterministic_per_salt() {
        let spec = DecoderSpec::tiny();
        let a = DecoderModel::new(spec, 7);
        let b = DecoderModel::new(spec, 7);
        let c = DecoderModel::new(spec, 8);
        assert_eq!(a.embed_token(42), b.embed_token(42));
        assert_ne!(a.embed_token(42), c.embed_token(42));
        assert_eq!(a.embed_token(5).len(), spec.hidden);
    }
}
