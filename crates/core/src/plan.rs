//! The execution plan: the compiled artifact the runtime executes.
//!
//! Bolt's graph-level wins (epilogue fusion, persistent kernels, padding,
//! layout planning — §3.1–3.2) only show up end-to-end when the runtime
//! does not give them back in per-request overhead. The
//! [`ExecutionPlan`] makes the artifact/interpreter split explicit, the
//! same way TVM compiles to a statically planned module:
//!
//! * **Constant prepacking** — every weight is repacked into its
//!   kernel-native layout once at plan-build time (dense `(units, in)` →
//!   GEMM `B` operand `(in, units)`; conv filters KCRS → KRSC with
//!   channel padding folded in) and stored in the plan behind an `Arc`.
//!   Execution never touches the logical parameter again.
//! * **Liveness-planned buffer slots** — a backward liveness pass over
//!   the step list assigns every non-constant value to a reusable buffer
//!   slot; a value's slot is freed at its last use and handed to later
//!   intermediates. Peak memory is [`ExecutionPlan::workspace_bytes`],
//!   bounded by the widest set of simultaneously-live values instead of
//!   the whole graph.
//! * **One step-level executor** — the functional and timing paths drive
//!   the same step walk; a [`StepObserver`] hook sees every step with its
//!   simulated [`KernelTime`], so benches and the serving layer can
//!   attribute latency per kernel without a second interpreter.
//!
//! [`ExecutionPlan::run_reference`] keeps the pre-refactor interpreter
//! (hash-map environment, clone-per-fetch, repack-per-call) alive as a
//! semantic oracle and benchmark baseline.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bolt_gpu_sim::{simulate_kernel, GpuArch, KernelProfile, KernelTime, Timeline};
use bolt_graph::{Graph, NodeId, OpKind};
use bolt_tensor::conv_ref::filter_as_matrix;
use bolt_tensor::{DType, Layout, MatrixLayout, Shape, Tensor};

use crate::config::BoltConfig;
use crate::error::BoltError;
use crate::runtime::{
    host_group_time, run_host_op, slice_batch, stack_batch, Step, StepKind, TimingReport,
    ValueLookup,
};
use crate::Result;

// ---------------------------------------------------------------------------
// Prepacked constants
// ---------------------------------------------------------------------------

/// A step's constants, repacked once into kernel-native layouts.
///
/// `weights`/`biases` are in kernel-operand order (one entry per GEMM /
/// conv stage for persistent kernels). Steps without constants carry
/// empty vectors.
#[derive(Debug, Clone, Default)]
pub struct PackedConsts {
    /// Prepacked weight operands (dense `(in, units)`, filters KRSC).
    pub weights: Vec<Arc<Tensor>>,
    /// Conv filters additionally prepacked as implicit-GEMM `B` operands
    /// (`(R*S*C, K)` row-major), one per conv stage — the per-call
    /// `filter_as_matrix` repack the old executor paid on every run.
    pub filter_mats: Vec<Arc<Tensor>>,
    /// Per-stage bias vectors, if present.
    pub biases: Vec<Option<Arc<Tensor>>>,
    /// False when the graph carries shapes-only parameters (nothing to
    /// pack); functional execution then fails lazily like the old
    /// interpreter, while timing remains fully usable.
    pub materialized: bool,
}

/// Dense weight `(units, in)` → GEMM `B` operand `(in, units)`.
pub(crate) fn pack_dense_weight(w: &Tensor) -> Tensor {
    let (u, k) = (w.shape().dim(0), w.shape().dim(1));
    let mut b = Tensor::zeros(&[k, u], w.dtype());
    for i in 0..u {
        for j in 0..k {
            b.set2(j, i, w.get2(i, j));
        }
    }
    b
}

/// Conv filter logical `(K, C, R, S)` → physical KRSC, optionally
/// zero-padded to `pad_c` input channels.
pub(crate) fn pack_conv_filter(w: &Tensor, pad_c: Option<usize>) -> Tensor {
    let dims = w.shape().dims();
    let (k, c, r, s) = (dims[0], dims[1], dims[2], dims[3]);
    let cc = pad_c.unwrap_or(c);
    let mut out = Tensor::zeros(&[k, r, s, cc], w.dtype());
    let src = w.data();
    let dst = out.data_mut();
    for ki in 0..k {
        for ci in 0..c {
            for ri in 0..r {
                for si in 0..s {
                    let from = ((ki * c + ci) * r + ri) * s + si;
                    let to = ((ki * r + ri) * s + si) * cc + ci;
                    dst[to] = src[from];
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Buffer-slot plan (liveness)
// ---------------------------------------------------------------------------

/// The memory plan: which buffer slot each value lives in and when each
/// slot is released back for reuse.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotPlan {
    /// Value (graph input or step output) → slot index.
    pub(crate) slot_of: HashMap<NodeId, usize>,
    /// Slots whose resident value dies at step `i` (released after the
    /// step's result is computed, before it is stored — so the result may
    /// reuse a dying input's slot).
    pub(crate) release_after: Vec<Vec<usize>>,
    /// Per-slot capacity: the largest value (logical dtype bytes) ever
    /// resident in the slot.
    pub(crate) slot_bytes: Vec<u64>,
    /// Sum of all planned values' bytes — what the old grow-only
    /// environment kept live simultaneously.
    pub(crate) total_value_bytes: u64,
}

impl SlotPlan {
    /// Runs liveness over `steps` and assigns slots first-fit from a
    /// free list (LIFO, so reuse favors the most recently freed — and
    /// therefore similarly sized — buffer).
    fn build(graph: &Graph, steps: &[Step]) -> SlotPlan {
        let is_const = |id: NodeId| matches!(graph.node(id).kind, OpKind::Constant { .. });
        let outputs: HashSet<NodeId> = graph.outputs().iter().copied().collect();

        // Last step (index) that reads each non-constant value. Constants
        // are excluded: they live in the plan (prepacked) or the graph.
        let mut last_use: HashMap<NodeId, usize> = HashMap::new();
        for (i, step) in steps.iter().enumerate() {
            for &input in &step.inputs {
                if !is_const(input) {
                    last_use.insert(input, i);
                }
            }
        }

        let mut plan = SlotPlan {
            release_after: vec![Vec::new(); steps.len()],
            ..SlotPlan::default()
        };
        let mut free: Vec<usize> = Vec::new();

        for id in graph.input_ids() {
            plan.assign(graph, id, &mut free);
        }
        for (i, step) in steps.iter().enumerate() {
            // Free dying inputs before placing the output: the executor
            // computes a step's result while its inputs are still
            // resident, releases, then stores — so the output may land in
            // a slot an input just vacated.
            let mut seen = HashSet::new();
            for &input in &step.inputs {
                if is_const(input)
                    || input == step.output
                    || outputs.contains(&input)
                    || last_use.get(&input) != Some(&i)
                    || !seen.insert(input)
                {
                    continue;
                }
                if let Some(&slot) = plan.slot_of.get(&input) {
                    free.push(slot);
                    plan.release_after[i].push(slot);
                }
            }
            // Pad/layout steps forward their input (`output == input`,
            // already assigned); everything else gets a slot here.
            if !plan.slot_of.contains_key(&step.output) {
                plan.assign(graph, step.output, &mut free);
            }
        }
        plan
    }

    fn assign(&mut self, graph: &Graph, id: NodeId, free: &mut Vec<usize>) {
        let node = graph.node(id);
        let bytes = (node.shape.numel() * node.dtype.size_bytes()) as u64;
        self.total_value_bytes += bytes;
        let slot = free.pop().unwrap_or_else(|| {
            self.slot_bytes.push(0);
            self.slot_bytes.len() - 1
        });
        self.slot_bytes[slot] = self.slot_bytes[slot].max(bytes);
        self.slot_of.insert(id, slot);
    }
}

// ---------------------------------------------------------------------------
// Workspace pool
// ---------------------------------------------------------------------------

/// Reusable scratch memory for one in-flight run.
///
/// A plan keeps a pool of these ([`ExecutionPlan`] `pool` field); `run` /
/// `run_batched` acquire a workspace, thread it through every step, and
/// release it back when done. After a couple of warmup runs the spare
/// stack holds a buffer for every intermediate the plan produces, so the
/// steady-state hot path performs **zero** heap allocations for
/// intermediates (only escaping outputs are freshly allocated).
#[derive(Debug, Default)]
struct Workspace {
    /// Retired intermediate buffers, LIFO. The executor's lease/recycle
    /// sequence is deterministic per plan, so pop-from-the-top hands each
    /// step the same (already right-sized) buffer on every run.
    spare: Vec<Vec<f32>>,
    /// GEMM tile accumulator scratch.
    acc: Vec<f32>,
    /// im2col scratch for conv steps.
    cols: Vec<f32>,
    /// Persistent-kernel intermediate scratch (B2B stage handoff / chain
    /// ping).
    d0: Vec<f32>,
    /// Chain pong scratch.
    d1: Vec<f32>,
    /// The slot table, kept between runs so a warm run does not
    /// allocate one (see [`Frame`]).
    values: Vec<Option<Value>>,
}

impl Workspace {
    /// Pops a spare buffer (or allocates on the first runs) and resizes
    /// it to `numel`. Callers overwrite every element.
    fn lease(&mut self, numel: usize) -> Vec<f32> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.resize(numel, 0.0);
        buf
    }

    /// Returns a retired buffer to the spare stack.
    fn recycle(&mut self, buf: Vec<f32>) {
        self.spare.push(buf);
    }
}

/// Upper bound on pooled workspaces (one per concurrently executing
/// run; beyond this, extra workspaces are simply dropped).
const WORKSPACE_POOL_CAP: usize = 8;

// ---------------------------------------------------------------------------
// KV workspaces (autoregressive decode) — paged block allocator
// ---------------------------------------------------------------------------

/// Geometry of a per-sequence attention KV cache: `layers` decoder
/// layers, each holding a key matrix and a value matrix of up to
/// `max_seq` rows of width `kv_dim`, paged into fixed-size blocks of
/// `block_rows` sequence positions each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvSpec {
    /// Decoder layers (each owns one K and one V region).
    pub layers: usize,
    /// Row width: `heads * head_dim`.
    pub kv_dim: usize,
    /// Capacity in sequence positions (prompt + generated tokens).
    pub max_seq: usize,
    /// Sequence positions per block — the paging granularity. One
    /// block extends a sequence's usable context by `block_rows`
    /// positions across the *whole* stack: it holds `block_rows` K
    /// rows and `block_rows` V rows for every layer.
    pub block_rows: usize,
}

impl KvSpec {
    /// Total f32 elements one *full-context* sequence occupies (its
    /// block table grown to cover `max_seq`).
    pub fn numel(&self) -> usize {
        self.blocks_for(self.max_seq) * self.block_numel()
    }

    /// Full-context footprint in bytes (f32 canonical storage).
    pub fn bytes(&self) -> u64 {
        self.numel() as u64 * 4
    }

    /// f32 elements in one block.
    pub fn block_numel(&self) -> usize {
        self.layers * 2 * self.block_rows * self.kv_dim
    }

    /// One block's backing-store footprint in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_numel() as u64 * 4
    }

    /// Blocks needed to cover `rows` sequence positions (ceiling).
    pub fn blocks_for(&self, rows: usize) -> usize {
        rows.div_ceil(self.block_rows.max(1))
    }
}

/// A per-sequence KV cache backed by a **block table**: a list of
/// fixed-size tensors, each covering `block_rows` consecutive sequence
/// positions for every layer and both K/V regions. The table grows one
/// block at a time via [`KvArena::reserve`] as the sequence lengthens,
/// so resident KV memory tracks the *actual* context length instead of
/// `max_seq` — the paged-KV discipline of vLLM-style servers.
///
/// Blocks come from the arena's free list, so steady-state decode
/// performs **zero** tensor allocations: `bolt_tensor::alloc_count()`
/// stays flat across appends — the property the `kv_no_alloc` tier-1
/// test pins.
///
/// Writes and commits are separated so a mid-step failure needs no
/// rollback: rows written past [`KvWorkspace::len`] are invisible
/// until [`KvWorkspace::commit`] publishes them, and a retried step
/// simply overwrites them. Capacity misuse surfaces as typed
/// [`BoltError::KvCapacity`] errors, not panics, so the serving layer
/// can preempt-and-recompute instead of losing a worker.
#[derive(Debug)]
pub struct KvWorkspace {
    spec: KvSpec,
    /// Committed sequence length (rows visible to readers).
    len: usize,
    /// Block table: entry `b` covers positions `[b*block_rows,
    /// (b+1)*block_rows)`. Each block is `[layers * 2 * block_rows,
    /// kv_dim]`: per layer, `block_rows` K rows then `block_rows` V
    /// rows.
    blocks: Vec<Tensor>,
}

impl KvWorkspace {
    /// An empty workspace with no blocks reserved. Rows become
    /// writable only after [`KvArena::reserve`] grows the block table.
    pub fn new(spec: KvSpec) -> Self {
        assert!(
            spec.layers > 0 && spec.kv_dim > 0 && spec.max_seq > 0 && spec.block_rows > 0,
            "degenerate KvSpec {spec:?}"
        );
        KvWorkspace {
            spec,
            len: 0,
            blocks: Vec::new(),
        }
    }

    /// The geometry this workspace pages against.
    pub fn spec(&self) -> KvSpec {
        self.spec
    }

    /// Committed sequence length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first commit.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sequence positions the block table currently covers (writable
    /// without further reservation), capped at `max_seq`.
    pub fn reserved_rows(&self) -> usize {
        (self.blocks.len() * self.spec.block_rows).min(self.spec.max_seq)
    }

    /// Blocks currently in the table.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Writes one K row and one V row for `layer` at position `pos`,
    /// in place. `pos` may lie at or past [`KvWorkspace::len`] (the
    /// rows stay invisible until committed) but must fall inside the
    /// reserved block table — otherwise a recoverable
    /// [`BoltError::KvCapacity`] is returned. An out-of-range layer or a
    /// row of the wrong width is a [`BoltError::BadInput`]; nothing is
    /// written either way.
    pub fn write_row(
        &mut self,
        layer: usize,
        pos: usize,
        k_row: &[f32],
        v_row: &[f32],
    ) -> Result<()> {
        let d = self.spec.kv_dim;
        self.check_layer(layer)?;
        for (what, row) in [("K", k_row), ("V", v_row)] {
            if row.len() != d {
                return Err(BoltError::BadInput {
                    reason: format!("{what} row of width {} for kv_dim {d}", row.len()),
                });
            }
        }
        if pos >= self.reserved_rows() {
            return Err(BoltError::KvCapacity {
                pos,
                reserved: self.reserved_rows(),
                max_seq: self.spec.max_seq,
            });
        }
        let br = self.spec.block_rows;
        let (block, row) = (pos / br, pos % br);
        let kb = ((layer * 2) * br + row) * d;
        let vb = ((layer * 2 + 1) * br + row) * d;
        let data = self.blocks[block].data_mut();
        data[kb..kb + d].copy_from_slice(k_row);
        data[vb..vb + d].copy_from_slice(v_row);
        Ok(())
    }

    /// Publishes (or rolls back to) a committed length. The single
    /// transaction point: a decode step writes its rows, finishes the
    /// whole layer stack, then commits `len + 1` once. Committing past
    /// the reserved block table is a recoverable
    /// [`BoltError::KvCapacity`].
    pub fn commit(&mut self, len: usize) -> Result<()> {
        if len > self.reserved_rows() {
            return Err(BoltError::KvCapacity {
                pos: len,
                reserved: self.reserved_rows(),
                max_seq: self.spec.max_seq,
            });
        }
        self.len = len;
        Ok(())
    }

    /// The first `n` key rows of `layer` as per-block contiguous
    /// chunks, in position order; the chunks concatenate to exactly
    /// `n * kv_dim` elements. `n` may exceed the committed length (up
    /// to the reserved rows) so a step can read rows it has written
    /// but not yet published. Reading past the reserved block table is
    /// a recoverable [`BoltError::KvCapacity`], and an out-of-range
    /// layer a [`BoltError::BadInput`].
    pub fn key_chunks(&self, layer: usize, n: usize) -> Result<KvChunks<'_>> {
        self.chunks(layer, 0, n)
    }

    /// The first `n` value rows of `layer`; see
    /// [`KvWorkspace::key_chunks`].
    pub fn value_chunks(&self, layer: usize, n: usize) -> Result<KvChunks<'_>> {
        self.chunks(layer, 1, n)
    }

    fn chunks(&self, layer: usize, region: usize, n: usize) -> Result<KvChunks<'_>> {
        self.check_layer(layer)?;
        if n > self.reserved_rows() {
            return Err(BoltError::KvCapacity {
                pos: n,
                reserved: self.reserved_rows(),
                max_seq: self.spec.max_seq,
            });
        }
        let (br, d) = (self.spec.block_rows, self.spec.kv_dim);
        Ok(KvChunks {
            blocks: self.blocks.iter(),
            base: (layer * 2 + region) * br * d,
            remaining: n,
            block_rows: br,
            kv_dim: d,
        })
    }

    fn check_layer(&self, layer: usize) -> Result<()> {
        if layer < self.spec.layers {
            Ok(())
        } else {
            Err(BoltError::BadInput {
                reason: format!("KV layer {layer} of a {}-layer cache", self.spec.layers),
            })
        }
    }

    /// Forgets all committed rows (the block table is retained), so a
    /// preempted-and-readmitted sequence can replay its prefill into
    /// already-reserved blocks without touching the pool.
    pub fn reset(&mut self) {
        self.len = 0;
    }

    /// Appends one block to the table (arena reserve path).
    fn push_block(&mut self, block: Tensor) {
        self.blocks.push(block);
    }

    /// Detaches the block table (arena release path).
    fn take_blocks(&mut self) -> Vec<Tensor> {
        self.len = 0;
        std::mem::take(&mut self.blocks)
    }
}

/// The first rows of one K or V region of a [`KvWorkspace`], walked as
/// per-block contiguous chunks in position order (see
/// [`KvWorkspace::key_chunks`]). Walking allocates nothing, and a clone
/// restarts the walk, so attention can pass over the rows once per head.
#[derive(Debug, Clone)]
pub struct KvChunks<'a> {
    blocks: std::slice::Iter<'a, Tensor>,
    /// Offset of the region's first row inside each block.
    base: usize,
    /// Rows not yet walked.
    remaining: usize,
    block_rows: usize,
    kv_dim: usize,
}

impl<'a> Iterator for KvChunks<'a> {
    type Item = &'a [f32];

    fn next(&mut self) -> Option<&'a [f32]> {
        if self.remaining == 0 {
            return None;
        }
        let block = self.blocks.next()?;
        let rows = self.remaining.min(self.block_rows);
        self.remaining -= rows;
        Some(&block.data()[self.base..self.base + rows * self.kv_dim])
    }
}

/// A budgeted pool of fixed-size KV blocks shared by every sequence in
/// a batcher — the allocation arm of the KV memory governor.
///
/// The pool hands out at most `budget_blocks` blocks at a time.
/// Released blocks return to a free list and are reused LIFO, so a
/// warm pool serves reservations with **zero** fresh tensor
/// allocations ([`KvArena::fresh_allocations`] stops growing).
/// When every block under the budget is in use (or withheld by
/// memory-pressure injection — [`KvArena::set_withheld`]), a
/// reservation fails with a recoverable [`BoltError::KvExhausted`]
/// and the serving layer preempts a victim sequence or queues the
/// admission. Exhaustion is a scheduling event here, never a panic.
#[derive(Debug)]
pub struct KvArena {
    spec: KvSpec,
    budget: usize,
    pool: Mutex<KvPool>,
    fresh: AtomicU64,
    reused: AtomicU64,
}

#[derive(Debug)]
struct KvPool {
    /// Materialized blocks awaiting reuse (LIFO).
    free: Vec<Tensor>,
    /// Blocks currently attached to live workspaces.
    in_use: usize,
    /// Blocks transiently unusable (chaos `KvPressure` or an external
    /// cap). Pure accounting: no specific tensor is marked, the count
    /// just shrinks what reservations may take.
    withheld: usize,
}

impl KvArena {
    /// An arena paging blocks of geometry `spec`, handing out at most
    /// `budget_blocks` at a time.
    pub fn new(spec: KvSpec, budget_blocks: usize) -> Self {
        KvArena {
            spec,
            budget: budget_blocks.max(1),
            pool: Mutex::new(KvPool {
                free: Vec::new(),
                in_use: 0,
                withheld: 0,
            }),
            fresh: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// The geometry every block serves.
    pub fn spec(&self) -> KvSpec {
        self.spec
    }

    /// The hard cap on simultaneously outstanding blocks.
    pub fn budget_blocks(&self) -> usize {
        self.budget
    }

    /// An empty workspace; its block table grows via
    /// [`KvArena::reserve`].
    pub fn lease(&self) -> KvWorkspace {
        KvWorkspace::new(self.spec)
    }

    /// Grows `ws`'s block table until it covers `rows` sequence
    /// positions, taking blocks from the free list (or materializing
    /// fresh ones while the pool is cold). On [`BoltError::KvExhausted`]
    /// the blocks acquired so far stay attached — after the caller
    /// frees capacity (preempting a victim), retrying reserves only the
    /// remainder. `rows > max_seq` is a [`BoltError::KvCapacity`].
    pub fn reserve(&self, ws: &mut KvWorkspace, rows: usize) -> Result<()> {
        assert_eq!(ws.spec(), self.spec, "workspace geometry mismatch");
        if rows > self.spec.max_seq {
            return Err(BoltError::KvCapacity {
                pos: rows,
                reserved: ws.reserved_rows(),
                max_seq: self.spec.max_seq,
            });
        }
        let target = self.spec.blocks_for(rows);
        while ws.block_count() < target {
            let block = {
                let mut pool = self.pool.lock().unwrap();
                if pool.in_use + pool.withheld >= self.budget {
                    return Err(BoltError::KvExhausted {
                        needed: target - ws.block_count(),
                        in_use: pool.in_use,
                        budget: self.budget,
                        withheld: pool.withheld,
                    });
                }
                pool.in_use += 1;
                pool.free.pop()
            };
            let block = match block {
                Some(b) => {
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    b
                }
                None => {
                    self.fresh.fetch_add(1, Ordering::Relaxed);
                    Tensor::zeros(
                        &[
                            self.spec.layers * 2 * self.spec.block_rows,
                            self.spec.kv_dim,
                        ],
                        DType::F32,
                    )
                }
            };
            ws.push_block(block);
        }
        Ok(())
    }

    /// Returns every block of a retired (or preempted) workspace to
    /// the free list. Workspaces of mismatched geometry are dropped
    /// whole (their blocks were never this pool's).
    pub fn release(&self, mut ws: KvWorkspace) {
        if ws.spec() != self.spec {
            return;
        }
        let blocks = ws.take_blocks();
        if blocks.is_empty() {
            return;
        }
        let mut pool = self.pool.lock().unwrap();
        pool.in_use = pool.in_use.saturating_sub(blocks.len());
        pool.free.extend(blocks);
    }

    /// Transiently withholds `n` blocks from the usable budget (chaos
    /// `KvPressure`, or an external cap). Accounting only: live
    /// workspaces keep their blocks, but new reservations see a pool
    /// shrunk by `n` until the count is restored to 0. May push
    /// `in_use + withheld` past the budget — reservations then fail
    /// until enough live blocks release.
    pub fn set_withheld(&self, n: usize) {
        self.pool.lock().unwrap().withheld = n.min(self.budget);
    }

    /// Blocks currently withheld from the usable budget.
    pub fn withheld(&self) -> usize {
        self.pool.lock().unwrap().withheld
    }

    /// Blocks attached to live workspaces right now.
    pub fn in_use_blocks(&self) -> usize {
        self.pool.lock().unwrap().in_use
    }

    /// Blocks a reservation could still take: budget minus in-use
    /// minus withheld (saturating at 0).
    pub fn free_blocks(&self) -> usize {
        let pool = self.pool.lock().unwrap();
        self.budget.saturating_sub(pool.in_use + pool.withheld)
    }

    /// Bytes of KV backing store currently materialized (live blocks
    /// plus the warm free list) — the number the online engine
    /// manager charges against its memory budget.
    pub fn resident_bytes(&self) -> u64 {
        let pool = self.pool.lock().unwrap();
        (pool.in_use + pool.free.len()) as u64 * self.spec.block_bytes()
    }

    /// Blocks materialized from scratch (cold-start cost).
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Reservations served from the free list (the steady-state path).
    pub fn reuses(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Currently pooled free blocks (materialized, awaiting reuse).
    pub fn free_list_len(&self) -> usize {
        self.pool.lock().unwrap().free.len()
    }
}

/// A value resident in a buffer slot during one run. Graph inputs that
/// are already in the internal layout are read straight from the
/// caller's slice — the old executor cloned every input up front.
#[derive(Debug)]
enum Value {
    /// An intermediate, converted input or packed batch owned by this
    /// run; its backing buffer is recycled into the workspace when it
    /// dies.
    Owned(Tensor),
    /// Caller input `i`, borrowed for the duration of the run.
    Input(usize),
}

/// The slot table of one run. The table is the workspace's, taken for
/// the run and handed back by [`Frame::finish`], so a warm run
/// allocates none.
struct Frame<'a> {
    /// The caller's inputs, for [`Value::Input`].
    inputs: &'a [Tensor],
    values: Vec<Option<Value>>,
    /// Samples the batch fills, out of `capacity`.
    live: usize,
    capacity: usize,
}

impl<'a> Frame<'a> {
    /// An empty table for `plan`, running `live` of `capacity` samples.
    fn new(
        plan: &ExecutionPlan,
        ws: &mut Workspace,
        inputs: &'a [Tensor],
        live: usize,
        capacity: usize,
    ) -> Self {
        let mut values = std::mem::take(&mut ws.values);
        values.resize_with(plan.slots.slot_bytes.len(), || None);
        Frame {
            inputs,
            values,
            live,
            capacity,
        }
    }

    /// The value resident in `slot`, if any.
    fn get(&self, slot: usize) -> Option<&Tensor> {
        self.values[slot].as_ref().map(|v| match v {
            Value::Owned(t) => t,
            Value::Input(i) => &self.inputs[*i],
        })
    }

    /// How many of a GEMM's `m` rows hold live samples. Every graph op
    /// keeps the batch outermost, so a GEMM whose M is `capacity × r`
    /// holds `r` rows per sample and only the first `live × r` matter;
    /// any other M is computed whole.
    fn live_rows(&self, m: usize) -> usize {
        if self.live < self.capacity && m.is_multiple_of(self.capacity) {
            m / self.capacity * self.live
        } else {
            m
        }
    }

    /// Recycles every buffer the run still owns and hands the emptied
    /// table back to the workspace.
    fn finish(mut self, ws: &mut Workspace) {
        for value in self.values.drain(..) {
            if let Some(Value::Owned(t)) = value {
                ws.recycle(t.into_data());
            }
        }
        ws.values = self.values;
    }
}

// ---------------------------------------------------------------------------
// Step observation
// ---------------------------------------------------------------------------

/// Per-step observation hook shared by the functional and timing paths.
///
/// The executor calls [`StepObserver::observe`] once per step, in
/// execution order, with the step's simulated [`KernelTime`] — the hook
/// benches and the serving layer use to attribute latency per kernel.
pub trait StepObserver {
    /// Called after step `index` executes (functional mode) or is priced
    /// (timing mode).
    fn observe(&mut self, index: usize, step: &Step, time: &KernelTime);
}

/// One observed step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTiming {
    /// Step index in plan order.
    pub index: usize,
    /// The step's display name.
    pub name: String,
    /// Simulated time including launch overhead, µs.
    pub total_us: f64,
    /// Launch overhead portion, µs.
    pub launch_us: f64,
}

/// A [`StepObserver`] that records every step's name and simulated time.
#[derive(Debug, Clone, Default)]
pub struct StepTimings {
    /// Observed steps, in execution order.
    pub steps: Vec<StepTiming>,
}

impl StepObserver for StepTimings {
    fn observe(&mut self, index: usize, step: &Step, time: &KernelTime) {
        self.steps.push(StepTiming {
            index,
            name: step.name.clone(),
            total_us: time.total_us,
            launch_us: time.launch_us,
        });
    }
}

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// The compiled artifact: ordered steps, prepacked constants, and a
/// liveness-planned slot table, executable in functional or timing mode.
#[derive(Debug)]
pub struct ExecutionPlan {
    pub(crate) arch: GpuArch,
    pub(crate) graph: Graph,
    pub(crate) steps: Vec<Step>,
    pub(crate) config: BoltConfig,
    /// The graph inputs, in `Graph::input_ids` order.
    input_ids: Vec<NodeId>,
    /// Per-step prepacked constants (index-aligned with `steps`).
    packed: Vec<PackedConsts>,
    /// The memory plan.
    slots: SlotPlan,
    /// Pool of reusable run workspaces (LIFO).
    pool: Mutex<Vec<Workspace>>,
    /// The simulator's price of one run, computed on first use.
    pricing: OnceLock<Pricing>,
}

/// What pricing a plan yields. Pricing is a pure function of the plan, so
/// each plan is priced once and every caller reads the same numbers.
#[derive(Debug)]
struct Pricing {
    report: TimingReport,
    timings: StepTimings,
    flops: f64,
}

/// Looks up values for host ops during slot execution: fused-chain
/// locals first, then the slot table (params resolve inside
/// `run_host_op` via the graph).
struct HostScope<'a, 'b> {
    plan: &'a ExecutionPlan,
    frame: &'a Frame<'b>,
    locals: &'a HashMap<NodeId, Tensor>,
}

impl ValueLookup for HostScope<'_, '_> {
    fn lookup(&self, id: NodeId) -> Option<&Tensor> {
        self.locals.get(&id).or_else(|| {
            self.plan
                .slots
                .slot_of
                .get(&id)
                .and_then(|&slot| self.frame.get(slot))
        })
    }
}

/// Drops standalone [`StepKind::PadChannels`] steps whose padding a
/// downstream conv step absorbs (fusion-aware plan building).
///
/// A pad step forwards its input unchanged (`output == inputs[0]`) — it
/// exists only to charge the padding kernel Bolt's §3.2.3 transform
/// would launch. The implicit-GEMM lowering reads missing channels as
/// zero directly from the unpadded NHWC activation, so when persistent
/// kernels are enabled the pad is folded into the consuming conv's main
/// loop: the step disappears and the conv is marked `pad_fused`.
fn fold_pad_steps(steps: Vec<Step>, enabled: bool) -> Vec<Step> {
    if !enabled {
        return steps;
    }
    let padded: Vec<NodeId> = steps
        .iter()
        .filter(|s| matches!(s.kind, StepKind::PadChannels { .. }))
        .map(|s| s.output)
        .collect();
    if padded.is_empty() {
        return steps;
    }
    steps
        .into_iter()
        .filter(|s| !matches!(s.kind, StepKind::PadChannels { .. }))
        .map(|mut s| {
            if let StepKind::Conv2d {
                pad_to: Some(_),
                pad_fused,
                ..
            } = &mut s.kind
            {
                if s.inputs.iter().any(|i| padded.contains(i)) {
                    *pad_fused = true;
                }
            }
            s
        })
        .collect()
}

impl ExecutionPlan {
    /// Builds a plan from lowered steps: folds standalone pad steps into
    /// their consuming convs (when persistent kernels are enabled),
    /// prepacks every constant the graph materializes, and runs the
    /// liveness pass. Shapes-only graphs build fine (timing needs no
    /// parameter data); their steps are marked unmaterialized and
    /// functional runs fail lazily.
    pub fn build(arch: GpuArch, graph: Graph, steps: Vec<Step>, config: BoltConfig) -> Self {
        let steps = fold_pad_steps(steps, config.persistent_kernels);
        let slots = SlotPlan::build(&graph, &steps);
        let plan = ExecutionPlan {
            arch,
            input_ids: graph.input_ids(),
            graph,
            steps,
            config,
            packed: Vec::new(),
            slots,
            pool: Mutex::new(Vec::new()),
            pricing: OnceLock::new(),
        };
        let packed = plan
            .steps
            .iter()
            .map(|step| plan.pack_step(step).unwrap_or_default())
            .collect();
        ExecutionPlan { packed, ..plan }
    }

    fn acquire_workspace(&self) -> Workspace {
        self.pool.lock().unwrap().pop().unwrap_or_default()
    }

    fn release_workspace(&self, ws: Workspace) {
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < WORKSPACE_POOL_CAP {
            pool.push(ws);
        }
    }

    /// The executable steps in order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The optimized graph this plan executes.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The target architecture.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// The configuration the plan was compiled with.
    pub fn config(&self) -> &BoltConfig {
        &self.config
    }

    /// Number of device kernel launches (excludes host steps and fused
    /// transforms) — what persistent fusion and epilogue fusion reduce.
    pub fn kernel_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| {
                !matches!(
                    s.kind,
                    StepKind::Host | StepKind::LayoutTransform { fused: true, .. }
                )
            })
            .count()
    }

    /// Floating-point work one run of this plan performs across its
    /// compute kernels (host glue and layout transforms are free). Used
    /// by the serving metrics to weight pad rows into the
    /// `padding_fraction` gauge. Memoized with the plan's price.
    pub fn flops(&self) -> f64 {
        self.pricing().flops
    }

    fn count_flops(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| match &s.kind {
                StepKind::Gemm { kernel, .. } => kernel.problem.flops(),
                StepKind::Conv2d { kernel, .. } => {
                    let (m, n, k) = kernel.problem.implicit_gemm_mnk();
                    2.0 * (m as f64) * (n as f64) * (k as f64)
                }
                StepKind::B2bGemm { kernel, .. } => kernel.gemm0.flops() + kernel.gemm1.flops(),
                StepKind::GemmChain { chain, .. } => {
                    chain.stages.iter().map(|st| st.problem.flops()).sum()
                }
                StepKind::B2bConv { kernel, .. } => {
                    let b2b = kernel.as_b2b_gemm();
                    b2b.gemm0.flops() + b2b.gemm1.flops()
                }
                _ => 0.0,
            })
            .sum()
    }

    /// Peak intermediate memory of the planned execution: the sum of the
    /// slot capacities. Strictly less than
    /// [`ExecutionPlan::total_value_bytes`] whenever liveness found any
    /// reuse.
    pub fn workspace_bytes(&self) -> u64 {
        self.slots.slot_bytes.iter().sum()
    }

    /// What the pre-refactor grow-only environment held at the end of a
    /// run: every input and intermediate, simultaneously.
    pub fn total_value_bytes(&self) -> u64 {
        self.slots.total_value_bytes
    }

    /// Number of reusable buffer slots the liveness pass allocated.
    pub fn buffer_slots(&self) -> usize {
        self.slots.slot_bytes.len()
    }

    /// Memory this plan keeps resident while loaded: the prepacked
    /// constants plus the planned peak workspace. This is the number an
    /// engine-lifecycle manager accounts (and evicts) engines by.
    pub fn resident_bytes(&self) -> u64 {
        self.packed_const_bytes() + self.workspace_bytes()
    }

    /// Bytes of prepacked constants resident in the plan.
    pub fn packed_const_bytes(&self) -> u64 {
        self.packed
            .iter()
            .flat_map(|p| {
                p.weights
                    .iter()
                    .chain(p.filter_mats.iter())
                    .map(|w| (w.numel() * w.dtype().size_bytes()) as u64)
                    .chain(
                        p.biases
                            .iter()
                            .flatten()
                            .map(|b| (b.numel() * b.dtype().size_bytes()) as u64),
                    )
            })
            .sum()
    }

    /// The prepacked constants of step `index` (for plan inspection and
    /// golden tests).
    pub fn packed_consts(&self, index: usize) -> &PackedConsts {
        &self.packed[index]
    }

    // -----------------------------------------------------------------
    // Timing mode
    // -----------------------------------------------------------------

    /// Every step priced on the simulator. The plan is priced once, on
    /// first use, and every later call reads the same report.
    pub fn time(&self) -> &TimingReport {
        &self.pricing().report
    }

    /// The per-step view of [`ExecutionPlan::time`]: each step's name,
    /// simulated time and launch overhead, in execution order.
    pub fn step_timings(&self) -> &StepTimings {
        &self.pricing().timings
    }

    fn pricing(&self) -> &Pricing {
        self.pricing.get_or_init(|| {
            let mut timings = StepTimings::default();
            let mut timeline = Timeline::new();
            for (i, step) in self.steps.iter().enumerate() {
                let time = self.step_time(step);
                timings.observe(i, step, &time);
                timeline.push(step.name.clone(), &time);
            }
            Pricing {
                report: TimingReport {
                    total_us: timeline.total_us(),
                    timeline,
                },
                timings,
                flops: self.count_flops(),
            }
        })
    }

    pub(crate) fn step_time(&self, step: &Step) -> KernelTime {
        match &step.kind {
            StepKind::Gemm { kernel, .. } => kernel.time(&self.arch),
            StepKind::Conv2d { kernel, .. } => kernel.time(&self.arch),
            StepKind::B2bGemm { kernel, .. } => kernel.time(&self.arch),
            StepKind::GemmChain { chain, .. } => chain.time(&self.arch),
            StepKind::B2bConv { kernel, .. } => kernel.time(&self.arch),
            StepKind::LayoutTransform { bytes, fused } => {
                let mut profile = KernelProfile::memory_only("layout_transform", *bytes * 2.0);
                // NCHW reads are W-contiguous, NHWC writes C-contiguous;
                // one side is strided.
                profile.alignment_elems = 4;
                let mut t = simulate_kernel(&self.arch, &profile);
                if *fused {
                    // Folded into the adjacent kernel: no launch.
                    t.total_us -= t.launch_us;
                    t.launch_us = 0.0;
                }
                t
            }
            StepKind::PadChannels { bytes } => {
                let mut profile = KernelProfile::memory_only("pad_channels", *bytes);
                profile.alignment_elems = 2; // source is the unaligned tensor
                simulate_kernel(&self.arch, &profile)
            }
            StepKind::Host => host_group_time(&self.arch, &self.graph, &step.covered),
        }
    }

    // -----------------------------------------------------------------
    // Functional mode (slot executor)
    // -----------------------------------------------------------------

    /// Executes the plan on real inputs (one tensor per graph input, in
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
        self.run_impl(inputs, None)
    }

    /// [`ExecutionPlan::run`], reporting each executed step with its
    /// simulated time to `observer`.
    pub fn run_observed(
        &self,
        inputs: &[Tensor],
        observer: &mut dyn StepObserver,
    ) -> Result<Vec<Tensor>> {
        self.run_impl(inputs, Some(observer))
    }

    fn run_impl(
        &self,
        inputs: &[Tensor],
        observer: Option<&mut dyn StepObserver>,
    ) -> Result<Vec<Tensor>> {
        self.validate_inputs(inputs)?;
        let mut ws = self.acquire_workspace();
        // One of one sample live: the whole batch is computed.
        let mut frame = Frame::new(self, &mut ws, inputs, 1, 1);
        let result = self.run_frame(&mut frame, &mut ws, observer);
        frame.finish(&mut ws);
        self.release_workspace(ws);
        result
    }

    /// Binds the caller's inputs, runs every step, and takes the outputs.
    fn run_frame(
        &self,
        frame: &mut Frame<'_>,
        ws: &mut Workspace,
        observer: Option<&mut dyn StepObserver>,
    ) -> Result<Vec<Tensor>> {
        for (i, (&id, tensor)) in self.input_ids.iter().zip(frame.inputs).enumerate() {
            // Normalize rank-4 activations to NHWC internally (Bolt's
            // layout transform); anything already in the internal layout
            // is borrowed in place, clone-free.
            let value = if tensor.shape().rank() == 4 && tensor.layout() != Layout::Nhwc {
                Value::Owned(tensor.to_activation_layout(Layout::Nhwc)?)
            } else {
                Value::Input(i)
            };
            frame.values[self.slots.slot_of[&id]] = Some(value);
        }
        self.run_steps(frame, ws, observer)?;
        self.take_outputs(frame, ws)
    }

    /// Executes every step over a bound slot table.
    fn run_steps(
        &self,
        frame: &mut Frame<'_>,
        ws: &mut Workspace,
        mut observer: Option<&mut dyn StepObserver>,
    ) -> Result<()> {
        for (i, step) in self.steps.iter().enumerate() {
            let produced = self.execute_step(i, step, frame, ws)?;
            if let Some(obs) = observer.as_deref_mut() {
                let time = self.step_time(step);
                obs.observe(i, step, &time);
            }
            // Release dying inputs, then store: the output may reuse a
            // slot released on this very step. Owned buffers go back to
            // the workspace for the next step (or run) to lease.
            for &slot in &self.slots.release_after[i] {
                if let Some(Value::Owned(t)) = frame.values[slot].take() {
                    ws.recycle(t.into_data());
                }
            }
            if let Some(tensor) = produced {
                frame.values[self.slots.slot_of[&step.output]] = Some(Value::Owned(tensor));
            }
        }
        Ok(())
    }

    /// Moves the graph outputs out of a finished run, converting
    /// activations back to the framework's NCHW convention.
    fn take_outputs(&self, frame: &mut Frame<'_>, ws: &mut Workspace) -> Result<Vec<Tensor>> {
        let outs = self.graph.outputs();
        let mut outputs = Vec::with_capacity(outs.len());
        for (k, &out) in outs.iter().enumerate() {
            let slot = self.slots.slot_of.get(&out).copied();
            // Move the value out of its slot unless a later output reads
            // the same node again.
            let taken = match slot {
                Some(s) if outs[k + 1..].contains(&out) => frame.get(s).cloned(),
                Some(s) => frame.values[s].take().map(|v| match v {
                    Value::Owned(t) => t,
                    Value::Input(i) => frame.inputs[i].clone(),
                }),
                None => None,
            };
            let t = taken.ok_or_else(|| BoltError::BadInput {
                reason: format!("output {out} was never produced"),
            })?;
            let t = if t.shape().rank() == 4 && t.layout() == Layout::Nhwc {
                let nchw = t.to_activation_layout(Layout::Nchw)?;
                ws.recycle(t.into_data());
                nchw
            } else {
                t
            };
            outputs.push(t);
        }
        Ok(outputs)
    }

    fn validate_inputs(&self, inputs: &[Tensor]) -> Result<()> {
        let input_ids = &self.input_ids;
        if inputs.len() != input_ids.len() {
            return Err(BoltError::BadInput {
                reason: format!("expected {} inputs, got {}", input_ids.len(), inputs.len()),
            });
        }
        for (pos, (&id, tensor)) in input_ids.iter().zip(inputs).enumerate() {
            let want = &self.graph.node(id).shape;
            let got = crate::runtime::logical_dims(tensor);
            if tensor.shape().rank() != want.rank() {
                return Err(BoltError::BadInput {
                    reason: format!(
                        "input {pos} ({id}) rank mismatch: expected rank {} shape {want}, \
                         got rank {} shape {got:?}",
                        want.rank(),
                        tensor.shape().rank(),
                    ),
                });
            }
            if got != want.dims() {
                let what =
                    if !got.is_empty() && got[0] != want.dim(0) && got[1..] == want.dims()[1..] {
                        "batch dimension mismatch"
                    } else {
                        "shape mismatch"
                    };
                return Err(BoltError::BadInput {
                    reason: format!("input {pos} ({id}) {what}: expected {want}, got {got:?}"),
                });
            }
        }
        Ok(())
    }

    fn value<'f>(&self, frame: &'f Frame<'_>, id: NodeId) -> Result<&'f Tensor> {
        self.slots
            .slot_of
            .get(&id)
            .and_then(|&slot| frame.get(slot))
            .ok_or_else(|| BoltError::BadInput {
                reason: format!("step input {id} not yet computed"),
            })
    }

    /// True when `t` is a rank-2 matrix whose raw data is row-major
    /// (`row * cols + col`) — the precondition for the allocation-free
    /// GEMM fast path.
    fn row_major_2d(t: &Tensor) -> bool {
        t.shape().rank() == 2
            && matches!(
                t.layout(),
                Layout::Matrix(MatrixLayout::RowMajor) | Layout::Contiguous
            )
    }

    /// Executes one step against the slot table, borrowing inputs in
    /// place (no clones on the hot path), leasing the output buffer from
    /// the workspace, and returning the produced tensor, if the step
    /// produces one.
    ///
    /// Each kernel step first tries the allocation-free `run_into` fast
    /// path (prepacked operands, pooled scratch, direct output write);
    /// inputs in an unexpected layout fall back to the general `run`
    /// entry points, which are bit-identical.
    fn execute_step(
        &self,
        index: usize,
        step: &Step,
        frame: &Frame<'_>,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>> {
        // Prepacked constants, or a lazy repack for shapes-only graphs
        // (which fails with the same missing-parameter error the old
        // interpreter raised).
        let lazy;
        let packed = if self.packed[index].materialized {
            &self.packed[index]
        } else {
            lazy = self.pack_step(step)?;
            &lazy
        };
        match &step.kind {
            StepKind::Gemm {
                kernel, residual, ..
            } => {
                let a = self.value(frame, step.inputs[0])?;
                let c: Option<&Tensor> = match residual {
                    Some(r) => Some(self.value(frame, *r)?),
                    None => packed.biases[0].as_deref(),
                };
                if Self::row_major_2d(a) && Self::row_major_2d(&packed.weights[0]) {
                    let p = &kernel.problem;
                    // Tensor stores quantize, so an activation or weight
                    // tensor of the kernel's element dtype holds
                    // exactly-representable values and the per-load
                    // rounding can be skipped.
                    let aq = a.dtype() == p.element;
                    let wq = packed.weights[0].dtype() == p.element;
                    let mut buf = ws.lease(p.m * p.n);
                    kernel.run_into(
                        a.data(),
                        packed.weights[0].data(),
                        c,
                        &mut ws.acc,
                        &mut buf,
                        frame.live_rows(p.m),
                        aq,
                        wq,
                    )?;
                    let d =
                        Tensor::from_quantized_vec(&[p.m, p.n], kernel.epilogue.out_dtype, buf)?;
                    return Ok(Some(d));
                }
                let (d, _) = kernel.run(a, &packed.weights[0], c)?;
                Ok(Some(d))
            }
            StepKind::Conv2d { kernel, pad_to, .. } => {
                let x = self.value(frame, step.inputs[0])?;
                if x.layout() == Layout::Nhwc {
                    // The implicit-GEMM lowering reads channels past the
                    // activation's physical extent as zero, folding the
                    // channel pad into the main loop — no standalone pad
                    // kernel, no materialized padded copy.
                    let p = &kernel.problem;
                    let in_c = x.dims4().1;
                    let xq = x.dtype() == kernel.element;
                    let fq = packed.filter_mats[0].dtype() == kernel.element;
                    let mut buf = ws.lease(p.n * p.out_h() * p.out_w() * p.k);
                    kernel.run_into(
                        x.data(),
                        in_c,
                        packed.filter_mats[0].data(),
                        packed.biases[0].as_deref(),
                        &mut ws.cols,
                        &mut ws.acc,
                        &mut buf,
                        xq,
                        fq,
                    )?;
                    let d = Tensor::from_quantized_vec_nhwc(
                        p.n,
                        p.k,
                        p.out_h(),
                        p.out_w(),
                        kernel.epilogue.out_dtype,
                        buf,
                    )?;
                    return Ok(Some(d));
                }
                let padded;
                let x = match pad_to {
                    Some(pc) if x.dims4().1 < *pc => {
                        padded = x.pad_channels_nhwc(*pc)?;
                        &padded
                    }
                    _ => x,
                };
                let d = kernel.run(x, &packed.weights[0], packed.biases[0].as_deref())?;
                Ok(Some(d))
            }
            StepKind::B2bGemm { kernel, .. } => {
                let a = self.value(frame, step.inputs[0])?;
                if Self::row_major_2d(a) {
                    let (m, n1) = (kernel.gemm1.m, kernel.gemm1.n);
                    let aq = a.dtype() == kernel.gemm0.element;
                    let wq = packed.weights[0].dtype() == kernel.gemm0.element
                        && packed.weights[1].dtype() == kernel.gemm1.element;
                    let mut buf = ws.lease(m * n1);
                    kernel.run_into(
                        a.data(),
                        packed.weights[0].data(),
                        packed.biases[0].as_deref(),
                        packed.weights[1].data(),
                        packed.biases[1].as_deref(),
                        &mut ws.acc,
                        &mut ws.d0,
                        &mut buf,
                        frame.live_rows(m),
                        aq,
                        wq,
                    )?;
                    let d = Tensor::from_quantized_vec(&[m, n1], kernel.epilogue1.out_dtype, buf)?;
                    return Ok(Some(d));
                }
                let d = kernel.run(
                    a,
                    &packed.weights[0],
                    packed.biases[0].as_deref(),
                    &packed.weights[1],
                    packed.biases[1].as_deref(),
                )?;
                Ok(Some(d))
            }
            StepKind::GemmChain { chain, .. } => {
                let a = self.value(frame, step.inputs[0])?;
                if Self::row_major_2d(a) {
                    let last = chain.stages.last().expect("chain has stages");
                    let (m, n) = (last.problem.m, last.problem.n);
                    let w_slices: Vec<&[f32]> = packed.weights.iter().map(|w| w.data()).collect();
                    let b_refs: Vec<Option<&Tensor>> =
                        packed.biases.iter().map(|b| b.as_deref()).collect();
                    let aq = a.dtype() == chain.stages[0].problem.element;
                    let wq = chain
                        .stages
                        .iter()
                        .zip(packed.weights.iter())
                        .all(|(stage, w)| w.dtype() == stage.problem.element);
                    let mut buf = ws.lease(m * n);
                    chain.run_into(
                        a.data(),
                        &w_slices,
                        &b_refs,
                        &mut ws.acc,
                        &mut ws.d0,
                        &mut ws.d1,
                        &mut buf,
                        frame.live_rows(m),
                        aq,
                        wq,
                    )?;
                    let d = Tensor::from_quantized_vec(&[m, n], last.epilogue.out_dtype, buf)?;
                    return Ok(Some(d));
                }
                let w_refs: Vec<&Tensor> = packed.weights.iter().map(|w| w.as_ref()).collect();
                let b_refs: Vec<Option<&Tensor>> =
                    packed.biases.iter().map(|b| b.as_deref()).collect();
                let d = chain.run(a, &w_refs, &b_refs)?;
                Ok(Some(d))
            }
            StepKind::B2bConv { kernel, pad_to, .. } => {
                let x = self.value(frame, step.inputs[0])?;
                if x.layout() == Layout::Nhwc {
                    let p1 = &kernel.conv1;
                    let in_c = x.dims4().1;
                    let xq = x.dtype() == kernel.element;
                    let fq = packed.filter_mats[0].dtype() == kernel.element
                        && packed.filter_mats[1].dtype() == kernel.element;
                    let mut buf = ws.lease(p1.n * p1.out_h() * p1.out_w() * p1.k);
                    kernel.run_into(
                        x.data(),
                        in_c,
                        packed.filter_mats[0].data(),
                        packed.biases[0].as_deref(),
                        packed.filter_mats[1].data(),
                        packed.biases[1].as_deref(),
                        &mut ws.cols,
                        &mut ws.acc,
                        &mut ws.d0,
                        &mut buf,
                        xq,
                        fq,
                    )?;
                    let d = Tensor::from_quantized_vec_nhwc(
                        p1.n,
                        p1.k,
                        p1.out_h(),
                        p1.out_w(),
                        kernel.epilogue1.out_dtype,
                        buf,
                    )?;
                    return Ok(Some(d));
                }
                let padded;
                let x = match pad_to {
                    Some(pc) if x.dims4().1 < *pc => {
                        padded = x.pad_channels_nhwc(*pc)?;
                        &padded
                    }
                    _ => x,
                };
                let d = kernel.run(
                    x,
                    &packed.weights[0],
                    packed.biases[0].as_deref(),
                    &packed.weights[1],
                    packed.biases[1].as_deref(),
                )?;
                Ok(Some(d))
            }
            StepKind::LayoutTransform { .. } | StepKind::PadChannels { .. } => {
                // Functional no-ops: the executor already tracks layouts
                // and padding inside the kernel steps.
                Ok(None)
            }
            StepKind::Host => {
                if let Some(sum) = self.residual_add(step, frame, ws)? {
                    return Ok(Some(sum));
                }
                // A Host step may cover a fused injective chain: execute
                // its nodes in topological order against chain-local
                // values, returning only the step output.
                let mut nodes = step.covered.clone();
                nodes.sort_unstable();
                let mut locals: HashMap<NodeId, Tensor> = HashMap::new();
                for node in nodes {
                    let t = {
                        let scope = HostScope {
                            plan: self,
                            frame,
                            locals: &locals,
                        };
                        run_host_op(&self.graph, node, &scope)?
                    };
                    locals.insert(node, t);
                }
                locals
                    .remove(&step.output)
                    .map(Some)
                    .ok_or_else(|| BoltError::BadInput {
                        reason: format!(
                            "host step {} did not produce its output {}",
                            step.name, step.output
                        ),
                    })
            }
        }
    }

    /// A host step that is a lone rank-2 `Add` of two computed values (a
    /// transformer block's residual) writes `a + b`, rounded to `a`'s
    /// dtype exactly as the host op does, into a leased buffer instead of
    /// a clone of `a`. Returns `None` for every other host step.
    fn residual_add(
        &self,
        step: &Step,
        frame: &Frame<'_>,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>> {
        let node = self.graph.node(step.output);
        if step.covered.len() != 1 || !matches!(node.kind, OpKind::Add) {
            return Ok(None);
        }
        let (Ok(a), Ok(b)) = (
            self.value(frame, node.inputs[0]),
            self.value(frame, node.inputs[1]),
        ) else {
            return Ok(None);
        };
        if !Self::row_major_2d(a) || a.shape() != b.shape() {
            return Ok(None);
        }
        let mut buf = ws.lease(a.numel());
        crate::runtime::add_rows_into(a, b, &mut buf);
        Ok(Some(Tensor::from_quantized_vec(
            a.shape().dims(),
            a.dtype(),
            buf,
        )?))
    }

    // -----------------------------------------------------------------
    // Batch capacity and serving entry points
    // -----------------------------------------------------------------

    /// The batch capacity this plan was compiled for: dimension 0 shared
    /// by every graph input.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::BadInput`] when the graph has no inputs, an
    /// input is scalar, or the inputs disagree on the batch dimension.
    pub fn batch_size(&self) -> Result<usize> {
        let mut batch = None;
        for &id in &self.input_ids {
            let shape = &self.graph.node(id).shape;
            if shape.rank() == 0 {
                return Err(BoltError::BadInput {
                    reason: format!("input {id} is scalar; it has no batch dimension"),
                });
            }
            let b = shape.dim(0);
            match batch {
                None => batch = Some(b),
                Some(prev) if prev != b => {
                    return Err(BoltError::BadInput {
                        reason: format!(
                            "inputs disagree on the batch dimension: {prev} vs {b} (input {id})"
                        ),
                    })
                }
                Some(_) => {}
            }
        }
        batch.ok_or_else(|| BoltError::BadInput {
            reason: "model has no inputs".into(),
        })
    }

    /// Batch-native execution for the serving layer: packs per-request
    /// single-sample inputs once into pooled, zero-padded batch buffers
    /// (rank-4 NCHW samples are transposed straight into the NHWC batch
    /// — no intermediate stacked tensor, no layout pass over the whole
    /// batch), runs through the pooled-workspace executor, and slices
    /// the outputs back per sample (padding rows are dropped).
    ///
    /// The simulator prices the whole bucket, but the host computes only
    /// the rows the samples fill: GEMM-family steps run at
    /// `samples.len()` live samples and zero their padding rows (see
    /// [`GemmKernel::run_into`](bolt_cutlass::GemmKernel::run_into)).
    ///
    /// `samples[s]` holds sample `s`'s inputs in `Graph::input_ids`
    /// order, each with batch dimension 1. At most
    /// [`ExecutionPlan::batch_size`] samples are admitted per call.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::BadInput`] for an empty or oversized sample
    /// list, per-sample arity/shape mismatches, or any error from
    /// [`ExecutionPlan::run`].
    pub fn run_batched(&self, samples: &[Vec<Tensor>]) -> Result<Vec<Vec<Tensor>>> {
        let capacity = self.batch_size()?;
        self.validate_batch(samples, capacity)?;
        self.run_packed(
            samples.len(),
            |i, want, dst| Self::pack_samples(samples, i, want, dst),
            |frame, ws| {
                let outputs = self.take_outputs(frame, ws)?;
                let mut per_sample = vec![Vec::with_capacity(outputs.len()); samples.len()];
                for output in &outputs {
                    for (s, slot) in per_sample.iter_mut().enumerate() {
                        slot.push(slice_batch(output, s)?);
                    }
                }
                Ok(per_sample)
            },
        )
    }

    /// Row-major entry for rank-2 plans, the continuous batcher's path:
    /// `inputs[i]` holds `rows` row-major rows of graph input `i`, in
    /// `Graph::input_ids` order. The rows are packed straight into leased
    /// workspace buffers, rounded to each input's declared dtype, run at
    /// `rows` live samples (see [`ExecutionPlan::run_batched`]), and the
    /// output's `rows` rows are appended to `out`. No tensor is built per
    /// row and, once the plan's workspace is warm, nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::BadInput`] for a plan that is not rank 2 with
    /// one output, a wrong input count, `rows` outside `1..=`
    /// [`ExecutionPlan::batch_size`], or an input slice that is not
    /// `rows` rows long, and any error from [`ExecutionPlan::run`].
    pub fn run_rows_into(&self, inputs: &[&[f32]], rows: usize, out: &mut Vec<f32>) -> Result<()> {
        let capacity = self.batch_size()?;
        let bad = |reason: String| BoltError::BadInput { reason };
        let outs = self.graph.outputs();
        let rank2 = |id: NodeId| self.graph.node(id).shape.rank() == 2;
        if outs.len() != 1 || !rank2(outs[0]) || !self.input_ids.iter().all(|&id| rank2(id)) {
            return Err(bad(
                "run_rows_into needs a rank-2 plan with one output".into()
            ));
        }
        if inputs.len() != self.input_ids.len() {
            return Err(bad(format!(
                "expected {} inputs, got {}",
                self.input_ids.len(),
                inputs.len()
            )));
        }
        if rows == 0 || rows > capacity {
            return Err(bad(format!(
                "{rows} rows do not fit the compiled batch capacity {capacity}"
            )));
        }
        self.run_packed(
            rows,
            |i, want, dst| {
                let src = inputs[i];
                if src.len() != dst.len() {
                    return Err(bad(format!(
                        "input {i}: {rows} rows of {want} need {} values, got {}",
                        dst.len(),
                        src.len()
                    )));
                }
                let dtype = self.graph.node(self.input_ids[i]).dtype;
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d = dtype.quantize(v);
                }
                Ok(dtype)
            },
            |frame, _| {
                let output = self.value(frame, outs[0])?;
                if !Self::row_major_2d(output) {
                    return Err(bad("run_rows_into needs a row-major output".into()));
                }
                let per = output.numel() / capacity;
                out.extend_from_slice(&output.data()[..rows * per]);
                Ok(())
            },
        )
    }

    /// The batch-native core of [`ExecutionPlan::run_batched`] and
    /// [`ExecutionPlan::run_rows_into`]: leases one batch buffer per
    /// graph input, has `pack(i, shape, dst)` fill input `i`'s first
    /// `live` samples and name the batch dtype, zero-fills the padding
    /// samples (dead weight, never another request's activations), runs
    /// every step with `live` samples live, and lets `finish` read the
    /// results. Every buffer the run still owns then goes back to the
    /// workspace.
    fn run_packed<T>(
        &self,
        live: usize,
        pack: impl FnMut(usize, &Shape, &mut [f32]) -> Result<DType>,
        finish: impl FnOnce(&mut Frame<'_>, &mut Workspace) -> Result<T>,
    ) -> Result<T> {
        let capacity = self.batch_size()?;
        let mut ws = self.acquire_workspace();
        let mut frame = Frame::new(self, &mut ws, &[], live, capacity);
        let result = self
            .pack_inputs(&mut frame, &mut ws, pack)
            .and_then(|()| self.run_steps(&mut frame, &mut ws, None))
            .and_then(|()| finish(&mut frame, &mut ws));
        frame.finish(&mut ws);
        self.release_workspace(ws);
        result
    }

    /// Packs every graph input into a leased batch buffer bound to its
    /// slot (see [`ExecutionPlan::run_packed`]).
    fn pack_inputs(
        &self,
        frame: &mut Frame<'_>,
        ws: &mut Workspace,
        mut pack: impl FnMut(usize, &Shape, &mut [f32]) -> Result<DType>,
    ) -> Result<()> {
        let capacity = frame.capacity;
        for (i, &id) in self.input_ids.iter().enumerate() {
            let want = &self.graph.node(id).shape;
            let per = want.numel() / capacity.max(1);
            let mut buf = ws.lease(capacity * per);
            let dtype = match pack(i, want, &mut buf[..frame.live * per]) {
                Ok(dtype) => dtype,
                Err(e) => {
                    ws.recycle(buf);
                    return Err(e);
                }
            };
            buf[frame.live * per..].fill(0.0);
            let dims = want.dims();
            let tensor = if want.rank() == 4 {
                Tensor::from_quantized_vec_nhwc(capacity, dims[1], dims[2], dims[3], dtype, buf)?
            } else {
                Tensor::from_quantized_vec(dims, dtype, buf)?
            };
            frame.values[self.slots.slot_of[&id]] = Some(Value::Owned(tensor));
        }
        Ok(())
    }

    fn validate_batch(&self, samples: &[Vec<Tensor>], capacity: usize) -> Result<()> {
        if samples.is_empty() {
            return Err(BoltError::BadInput {
                reason: "run_batched needs at least one sample".into(),
            });
        }
        if samples.len() > capacity {
            return Err(BoltError::BadInput {
                reason: format!(
                    "{} samples exceed the compiled batch capacity {capacity}",
                    samples.len()
                ),
            });
        }
        let arity = self.input_ids.len();
        for (s, sample) in samples.iter().enumerate() {
            if sample.len() != arity {
                return Err(BoltError::BadInput {
                    reason: format!("sample {s}: expected {arity} inputs, got {}", sample.len()),
                });
            }
        }
        Ok(())
    }

    /// Packs input column `i` of every sample into `dst`, one row block
    /// per sample (rank-4 NCHW samples are transposed to NHWC in the
    /// same pass).
    ///
    /// The batch takes sample 0's dtype. A sample of another dtype is
    /// rounded to it while packing, so the batch holds only values its
    /// dtype can represent, as the kernels that read it in place assume.
    fn pack_samples(
        samples: &[Vec<Tensor>],
        i: usize,
        want: &Shape,
        dst: &mut [f32],
    ) -> Result<DType> {
        let dtype = samples[0][i].dtype();
        let per = dst.len() / samples.len();
        for (s, (sample, dst)) in samples.iter().zip(dst.chunks_exact_mut(per)).enumerate() {
            let t = &sample[i];
            let got = crate::runtime::logical_dims(t);
            let ok = got.len() == want.rank()
                && !got.is_empty()
                && got[0] == 1
                && got[1..] == want.dims()[1..];
            if !ok {
                return Err(BoltError::BadInput {
                    reason: format!(
                        "sample {s} input {i}: expected batch-1 shape of {want}, got {got:?}"
                    ),
                });
            }
            if want.rank() == 4 && t.layout() != Layout::Nhwc {
                // NCHW (or contiguous) sample → NHWC row block.
                let (_, c, h, w) = t.dims4();
                let src = t.data();
                for ci in 0..c {
                    for hi in 0..h {
                        for wi in 0..w {
                            dst[(hi * w + wi) * c + ci] = src[(ci * h + hi) * w + wi];
                        }
                    }
                }
            } else {
                dst.copy_from_slice(t.data());
            }
            if t.dtype() != dtype {
                for v in dst.iter_mut() {
                    *v = dtype.quantize(*v);
                }
            }
        }
        Ok(dtype)
    }

    /// The pre-refactor serving path, kept as the batched oracle and
    /// benchmark baseline: stack every sample into a fresh batch tensor
    /// (one allocation plus a whole-batch layout pass per input), run
    /// the reference interpreter, and slice the outputs.
    ///
    /// # Errors
    ///
    /// Same contract as [`ExecutionPlan::run_batched`].
    pub fn run_batched_reference(&self, samples: &[Vec<Tensor>]) -> Result<Vec<Vec<Tensor>>> {
        let capacity = self.batch_size()?;
        self.validate_batch(samples, capacity)?;
        let arity = self.input_ids.len();

        let mut batched = Vec::with_capacity(arity);
        for i in 0..arity {
            let columns: Vec<&Tensor> = samples.iter().map(|s| &s[i]).collect();
            batched.push(stack_batch(&columns, capacity)?);
        }
        let outputs = self.run_reference(&batched)?;

        let mut per_sample = vec![Vec::with_capacity(outputs.len()); samples.len()];
        for output in &outputs {
            for (s, slot) in per_sample.iter_mut().enumerate() {
                slot.push(slice_batch(output, s)?);
            }
        }
        Ok(per_sample)
    }

    // -----------------------------------------------------------------
    // Constant packing
    // -----------------------------------------------------------------

    fn param(&self, id: NodeId) -> Result<&Tensor> {
        self.graph.param(id).ok_or_else(|| BoltError::BadInput {
            reason: format!(
                "constant {id} ({}) has no data; build the model with materialized parameters",
                self.graph.node(id).name
            ),
        })
    }

    fn packed_bias(&self, id: Option<NodeId>) -> Result<Option<Arc<Tensor>>> {
        match id {
            Some(id) => Ok(Some(Arc::new(self.param(id)?.clone()))),
            None => Ok(None),
        }
    }

    /// Packs one step's constants into kernel-native layouts. Fails when
    /// the graph carries shapes-only parameters.
    fn pack_step(&self, step: &Step) -> Result<PackedConsts> {
        let mut packed = PackedConsts {
            materialized: true,
            ..PackedConsts::default()
        };
        match &step.kind {
            StepKind::Gemm { weight, bias, .. } => {
                packed
                    .weights
                    .push(Arc::new(pack_dense_weight(self.param(*weight)?)));
                packed.biases.push(self.packed_bias(*bias)?);
            }
            StepKind::Conv2d {
                kernel,
                filter,
                bias,
                pad_to,
                ..
            } => {
                let krsc = pack_conv_filter(self.param(*filter)?, *pad_to);
                packed
                    .filter_mats
                    .push(Arc::new(filter_as_matrix(&kernel.problem, &krsc)?));
                packed.weights.push(Arc::new(krsc));
                packed.biases.push(self.packed_bias(*bias)?);
            }
            StepKind::B2bGemm { w0, b0, w1, b1, .. } => {
                packed
                    .weights
                    .push(Arc::new(pack_dense_weight(self.param(*w0)?)));
                packed
                    .weights
                    .push(Arc::new(pack_dense_weight(self.param(*w1)?)));
                packed.biases.push(self.packed_bias(*b0)?);
                packed.biases.push(self.packed_bias(*b1)?);
            }
            StepKind::GemmChain {
                weights, biases, ..
            } => {
                for w in weights {
                    packed
                        .weights
                        .push(Arc::new(pack_dense_weight(self.param(*w)?)));
                }
                for b in biases {
                    packed.biases.push(self.packed_bias(*b)?);
                }
            }
            StepKind::B2bConv {
                kernel,
                f0,
                b0,
                f1,
                b1,
                pad_to,
            } => {
                let krsc0 = pack_conv_filter(self.param(*f0)?, *pad_to);
                let krsc1 = pack_conv_filter(self.param(*f1)?, None);
                packed
                    .filter_mats
                    .push(Arc::new(filter_as_matrix(&kernel.conv0, &krsc0)?));
                packed
                    .filter_mats
                    .push(Arc::new(filter_as_matrix(&kernel.conv1, &krsc1)?));
                packed.weights.push(Arc::new(krsc0));
                packed.weights.push(Arc::new(krsc1));
                packed.biases.push(self.packed_bias(*b0)?);
                packed.biases.push(self.packed_bias(*b1)?);
            }
            StepKind::LayoutTransform { .. } | StepKind::PadChannels { .. } | StepKind::Host => {}
        }
        Ok(packed)
    }

    // -----------------------------------------------------------------
    // Reference interpreter (pre-refactor semantics)
    // -----------------------------------------------------------------

    /// The pre-refactor interpreter: a grow-only `HashMap` environment,
    /// every input cloned out per step, every weight repacked per call.
    /// Kept as the semantic oracle (the slot executor must match it
    /// bit-for-bit) and as the baseline the benchmarks compare the
    /// compiled path against.
    ///
    /// # Errors
    ///
    /// Same contract as [`ExecutionPlan::run`].
    pub fn run_reference(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        self.validate_inputs(inputs)?;
        let mut env: HashMap<NodeId, Tensor> = HashMap::new();
        for (&id, tensor) in self.input_ids.iter().zip(inputs) {
            if tensor.shape().rank() == 4 {
                let nhwc = if tensor.layout() == Layout::Nhwc {
                    tensor.clone()
                } else {
                    tensor.to_activation_layout(Layout::Nhwc)?
                };
                env.insert(id, nhwc);
            } else {
                env.insert(id, tensor.clone());
            }
        }

        for step in &self.steps {
            self.run_step_reference(step, &mut env)?;
        }

        let mut outputs = Vec::new();
        for &out in self.graph.outputs() {
            let t = env.get(&out).ok_or_else(|| BoltError::BadInput {
                reason: format!("output {out} was never produced"),
            })?;
            let t = if t.shape().rank() == 4 && t.layout() == Layout::Nhwc {
                t.to_activation_layout(Layout::Nchw)?
            } else {
                t.clone()
            };
            outputs.push(t);
        }
        Ok(outputs)
    }

    fn run_step_reference(&self, step: &Step, env: &mut HashMap<NodeId, Tensor>) -> Result<()> {
        let fetch = |env: &HashMap<NodeId, Tensor>, id: NodeId| -> Result<Tensor> {
            env.get(&id).cloned().ok_or_else(|| BoltError::BadInput {
                reason: format!("step input {id} not yet computed"),
            })
        };
        match &step.kind {
            StepKind::Gemm {
                kernel,
                weight,
                bias,
                residual,
            } => {
                let a = fetch(env, step.inputs[0])?;
                let b = pack_dense_weight(self.param(*weight)?);
                let c = if let Some(r) = residual {
                    Some(fetch(env, *r)?)
                } else if let Some(b) = bias {
                    Some(self.param(*b)?.clone())
                } else {
                    None
                };
                let (d, _) = kernel.run(&a, &b, c.as_ref())?;
                env.insert(step.output, d);
            }
            StepKind::Conv2d {
                kernel,
                filter,
                bias,
                pad_to,
                ..
            } => {
                let mut x = fetch(env, step.inputs[0])?;
                if let Some(pc) = pad_to {
                    if x.dims4().1 < *pc {
                        x = x.pad_channels_nhwc(*pc)?;
                    }
                }
                let f = pack_conv_filter(self.param(*filter)?, *pad_to);
                let b = match bias {
                    Some(b) => Some(self.param(*b)?.clone()),
                    None => None,
                };
                let d = kernel.run(&x, &f, b.as_ref())?;
                env.insert(step.output, d);
            }
            StepKind::B2bGemm {
                kernel,
                w0,
                b0,
                w1,
                b1,
            } => {
                let a = fetch(env, step.inputs[0])?;
                let w0t = pack_dense_weight(self.param(*w0)?);
                let w1t = pack_dense_weight(self.param(*w1)?);
                let b0t = match b0 {
                    Some(b) => Some(self.param(*b)?.clone()),
                    None => None,
                };
                let b1t = match b1 {
                    Some(b) => Some(self.param(*b)?.clone()),
                    None => None,
                };
                let d = kernel.run(&a, &w0t, b0t.as_ref(), &w1t, b1t.as_ref())?;
                env.insert(step.output, d);
            }
            StepKind::GemmChain {
                chain,
                weights,
                biases,
            } => {
                let a = fetch(env, step.inputs[0])?;
                let ws: Vec<Tensor> = weights
                    .iter()
                    .map(|w| Ok(pack_dense_weight(self.param(*w)?)))
                    .collect::<Result<_>>()?;
                let w_refs: Vec<&Tensor> = ws.iter().collect();
                let bs: Vec<Option<Tensor>> = biases
                    .iter()
                    .map(|b| match b {
                        Some(b) => Ok(Some(self.param(*b)?.clone())),
                        None => Ok(None),
                    })
                    .collect::<Result<_>>()?;
                let b_refs: Vec<Option<&Tensor>> = bs.iter().map(|b| b.as_ref()).collect();
                let d = chain.run(&a, &w_refs, &b_refs)?;
                env.insert(step.output, d);
            }
            StepKind::B2bConv {
                kernel,
                f0,
                b0,
                f1,
                b1,
                pad_to,
            } => {
                let mut x = fetch(env, step.inputs[0])?;
                if let Some(pc) = pad_to {
                    if x.dims4().1 < *pc {
                        x = x.pad_channels_nhwc(*pc)?;
                    }
                }
                let f0t = pack_conv_filter(self.param(*f0)?, *pad_to);
                let f1t = pack_conv_filter(self.param(*f1)?, None);
                let b0t = match b0 {
                    Some(b) => Some(self.param(*b)?.clone()),
                    None => None,
                };
                let b1t = match b1 {
                    Some(b) => Some(self.param(*b)?.clone()),
                    None => None,
                };
                let d = kernel.run(&x, &f0t, b0t.as_ref(), &f1t, b1t.as_ref())?;
                env.insert(step.output, d);
            }
            StepKind::LayoutTransform { .. } | StepKind::PadChannels { .. } => {}
            StepKind::Host => {
                let mut nodes = step.covered.clone();
                nodes.sort_unstable();
                for node in nodes {
                    let t = run_host_op(&self.graph, node, env)?;
                    env.insert(node, t);
                }
            }
        }
        Ok(())
    }
}
