//! Continuous batching for autoregressive LLM serving (ISSUE 9
//! tentpole): per-step slot admission and retirement over a decode-step
//! transformer, replacing pad-to-bucket batching for the autoregressive
//! path while the existing [`crate::BoltServer`] batcher keeps serving
//! fixed-shape models.
//!
//! # Why the fixed-shape batcher cannot serve an LLM
//!
//! The legacy scheduler forms a batch once and runs it to completion on
//! a bucket-sized engine. An autoregressive sequence instead needs one
//! skinny GEMM launch *per generated token*, and different sequences
//! finish at different times: under pad-to-bucket semantics a cohort of
//! 8 sequences keeps launching 8-row kernels until the *last* one
//! finishes, burning pad-row FLOPs on every finished slot and making
//! queued prompts wait for the whole cohort to drain.
//!
//! The [`ContinuousBatcher`] instead re-forms the batch **every decode
//! step**:
//!
//! * **Admission** — free slots are filled from the queue at each step;
//!   a prompt runs its prefill (wide GEMM, M = prompt length)
//!   immediately and joins the next decode step. Step-level deadline
//!   accounting sheds queued sequences whose deadline already passed and
//!   evicts live sequences mid-generation.
//! * **Decode** — all live sequences advance together through skinny
//!   GEMMs whose M is the *live* count, shifting every step as
//!   sequences join and finish. Unseen `(sub-model, M)` buckets are
//!   served through the [`OnlineEngineManager`] heuristic fallback and
//!   hot-swap to tuned engines mid-stream.
//! * **Retirement** — finished sequences leave their slot at the end of
//!   the step (mid-batch eviction); their KV workspace returns to the
//!   [`bolt::KvArena`] for allocation-free re-admission.
//!
//! # Bit-identity
//!
//! Token streams are **bit-identical** to sequential per-sequence
//! execution, whatever the interleaving: GEMM rows are independent and
//! f32 accumulation order per output element never depends on M (or on
//! the tile config a hot-swapped engine picked), sub-model weights are
//! reseeded by name so every M bucket carries identical parameters, and
//! attention is per-sequence host math against the sequence's own KV
//! rows. The decode step is **transactional**: KV rows are written in
//! place but published only by `commit`, and tokens append only after
//! the whole step's compute succeeded — a mid-step worker kill (chaos
//! [`bolt::FaultSite::WorkerKill`]) retries the step with no rollback
//! logic and no lost or duplicated tokens.
//!
//! # The KV memory governor
//!
//! KV memory is paged: sequences hold fixed-size blocks
//! ([`bolt::KvSpec::block_rows`] positions each) from a budgeted
//! [`bolt::KvArena`] pool, growing their block table one block at a
//! time as decode advances. Because real accelerator memory is finite,
//! the batcher governs the pool with two policies:
//!
//! * **Watermark admission** — a prompt is admitted only when its
//!   prefill blocks *plus* a configurable reserve
//!   ([`LlmServeConfig::kv_reserve_blocks`], headroom for the live
//!   batch's decode growth) fit in the free pool; otherwise it waits at
//!   the head of the queue.
//! * **Preempt-and-recompute** — when decode growth itself runs out of
//!   blocks (admitted optimistically, or squeezed by a chaos
//!   [`bolt::FaultSite::KvPressure`] episode withholding part of the
//!   pool), the governor evicts the victim with the fewest generated
//!   tokens (ties: youngest), releases its blocks, and re-queues it at
//!   the front. The victim replays prompt + generated tokens through a
//!   later prefill — recompute instead of swap, exactly like the
//!   recomputation path of vLLM-style paged attention.
//!
//! Preemption preserves every guarantee above: argmax decoding is
//! deterministic and attention visits positions in order across block
//! boundaries, so a replayed prefill reproduces the victim's KV state
//! bit for bit and its continuation is the stream it would have
//! generated unpreempted. Replayed tokens are counted once (the replay
//! prefill's "first token" is genuinely new output); the recompute cost
//! is visible in [`LlmStats::recompute_tokens`].

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use bolt::{BoltConfig, BoltError, KvArena, KvSpec};
use bolt_gpu_sim::GpuArch;
use bolt_models::llm::{
    lm_head_graph, lm_head_name, post_graph, post_name, qkv_graph, qkv_name, DecoderModel,
};
use bolt_models::llm_by_name;

use crate::metrics::{KvGovernorSnapshot, Metrics, MetricsSnapshot};
use crate::online::{OnlineConfig, OnlineEngineManager};
use crate::registry::{EngineRegistry, ModelEngines};
use crate::{Result, ServeError};

/// How the batcher re-forms batches across decode steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// Per-step join/leave: finished sequences are evicted mid-batch and
    /// free slots refill from the queue every step.
    Continuous,
    /// The pad-to-bucket baseline: a cohort is admitted only when all
    /// slots are free, and finished sequences keep occupying their rows
    /// as padding until the whole cohort drains.
    StaticCohort,
}

/// One autoregressive generation request.
#[derive(Debug, Clone)]
pub struct SequenceRequest {
    /// Prompt token ids, each `< vocab`; non-empty, shorter than the
    /// model's context window.
    pub prompt: Vec<u32>,
    /// Tokens to generate (≥ 1); generation may stop earlier on context
    /// exhaustion or deadline.
    pub max_new_tokens: usize,
    /// Absolute simulated-clock deadline, µs. Queued sequences past it
    /// are shed unstarted; live sequences are evicted mid-generation.
    pub deadline_us: Option<f64>,
}

/// Why a sequence left its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// Generated `max_new_tokens`.
    Length,
    /// The KV workspace reached the model's context window.
    ContextFull,
    /// Shed before starting or evicted mid-generation past its deadline.
    DeadlineExceeded,
    /// The step's compute failed (engine error); partial tokens stand.
    Failed,
}

/// A retired sequence.
#[derive(Debug, Clone)]
pub struct SequenceResult {
    /// Id assigned at [`ContinuousBatcher::submit`], in submission order.
    pub id: u64,
    /// Prompt length, tokens.
    pub prompt_len: usize,
    /// Generated tokens (prompt excluded), in order.
    pub tokens: Vec<u32>,
    /// Simulated time from submission to the first generated token;
    /// `None` when shed before prefill.
    pub ttft_us: Option<f64>,
    /// Simulated submission timestamp, µs.
    pub submitted_us: f64,
    /// Simulated retirement timestamp, µs.
    pub finished_us: f64,
    /// Why the sequence retired.
    pub finish: FinishReason,
}

/// What one [`ContinuousBatcher::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepReport {
    /// Sequences admitted (prefilled) this step.
    pub admitted: usize,
    /// Tokens decoded this step (one per live sequence).
    pub decoded: usize,
    /// Sequences retired this step (finished, evicted, or shed).
    pub retired: usize,
    /// Live slots after the step.
    pub live: usize,
    /// Queued sequences after the step.
    pub queued: usize,
    /// Simulated time the step consumed, µs.
    pub sim_us: f64,
}

/// Cumulative batcher counters (see [`ContinuousBatcher::metrics`] for
/// the full serving-metrics view including `padding_fraction`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LlmStats {
    /// Decode steps executed (committed, not counting chaos retries).
    pub steps: u64,
    /// Prefills run (sequences admitted to a slot).
    pub prefills: u64,
    /// Tokens generated across all sequences (prefill first tokens plus
    /// decode tokens).
    pub generated_tokens: u64,
    /// Decode attempts retried after a mid-step worker kill.
    pub step_retries: u64,
    /// Kernel launches issued (prefill + decode, all sub-models).
    pub launches: u64,
    /// Launches served on an online-tuning fallback engine (heuristic or
    /// over-padded) before the tuned bucket hot-swapped in.
    pub fallback_launches: u64,
    /// Live sequences evicted by the KV governor to free blocks; each
    /// re-queues and replays through prefill.
    pub preemptions: u64,
    /// Tokens replayed by preempted sequences' recovery prefills (the
    /// recompute cost of preempt-and-recompute).
    pub recompute_tokens: u64,
    /// Chaos-injected KV memory-pressure episodes observed
    /// ([`bolt::FaultSite::KvPressure`]).
    pub kv_pressure_events: u64,
    /// Simulated clock, µs.
    pub sim_us: f64,
}

/// Configuration for [`ContinuousBatcher::new`].
#[derive(Debug, Clone)]
pub struct LlmServeConfig {
    /// LLM zoo model name (see [`bolt_models::LLM_MODELS`]).
    pub model: String,
    /// Parameter salt shared by every sub-model and the host embedding.
    pub salt: u64,
    /// Concurrent sequence slots.
    pub max_slots: usize,
    /// Continuous vs. pad-to-bucket batching.
    pub mode: BatchMode,
    /// Online tuning over the per-M sub-model buckets.
    pub online: OnlineConfig,
    /// Hard ceiling on KV blocks the arena may materialize — the
    /// governor's memory budget. `None` sizes the pool so every slot
    /// can hold a full-context sequence (no preemption ever needed);
    /// tighter budgets trade preemption-and-recompute for memory.
    pub kv_budget_blocks: Option<usize>,
    /// Free blocks the watermark admission keeps in reserve for the
    /// live batch's decode growth before admitting another prompt.
    pub kv_reserve_blocks: usize,
    /// KV rows per block (the paging granularity).
    pub kv_block_rows: usize,
}

impl Default for LlmServeConfig {
    fn default() -> Self {
        LlmServeConfig {
            model: "tiny-lm".into(),
            salt: 9,
            max_slots: 8,
            mode: BatchMode::Continuous,
            online: OnlineConfig::default(),
            kv_budget_blocks: None,
            kv_reserve_blocks: 1,
            kv_block_rows: 16,
        }
    }
}

/// A queued, not-yet-admitted sequence. A fresh submission and a
/// preempted sequence awaiting its recompute replay share this shape:
/// for a replay, `prompt` is the original prompt *plus* every token
/// already generated, `prompt_len` still marks the original prompt
/// boundary, and `ttft_us` carries the first-token latency already
/// observed (replays must not reset TTFT).
#[derive(Debug)]
struct Pending {
    id: u64,
    prompt: Vec<u32>,
    /// Original prompt length; `< prompt.len()` for a preemption replay.
    prompt_len: usize,
    max_new: usize,
    deadline_us: Option<f64>,
    submitted_us: f64,
    /// `Some` once the sequence has produced its first token (set when a
    /// live sequence is preempted back into the queue).
    ttft_us: Option<f64>,
}

/// A live slot.
#[derive(Debug)]
struct Slot {
    id: u64,
    /// Prompt followed by generated tokens.
    tokens: Vec<u32>,
    prompt_len: usize,
    max_new: usize,
    deadline_us: Option<f64>,
    submitted_us: f64,
    ttft_us: f64,
    kv: bolt::KvWorkspace,
    /// `Some` once finished; in [`BatchMode::StaticCohort`] the slot
    /// stays resident as padding until the whole cohort drains.
    done: Option<FinishReason>,
}

/// Per-attempt launch accounting, folded into the batcher only at the
/// step's commit point (so a retried attempt charges nothing twice —
/// except wall-clock the retry really spent, tracked separately).
#[derive(Debug, Clone, Copy, Default)]
struct StagedLaunches {
    real_flops: f64,
    launched_flops: f64,
    sim_us: f64,
    launches: u64,
    fallback_launches: u64,
}

/// One row of the layer stack: `(slot index, sequence position)`.
type Row = (usize, usize);

/// Buffers the layer stack reuses across steps (`scores` sized for the
/// longest context up front), so a warm decode step allocates nothing.
/// `tokens` holds a decode attempt's `(slot, token)`s until commit.
#[derive(Debug, Default)]
struct Scratch {
    rows: Vec<Row>,
    x: Vec<f32>,
    qkv: Vec<f32>,
    attn: Vec<f32>,
    scores: Vec<f32>,
    logits: Vec<f32>,
    tokens: Vec<(usize, u32)>,
}

/// The GEMM-execution side of the batcher, split out so the layer stack
/// can borrow it while mutating slots and scratch.
struct ExecCtx {
    registry: Arc<EngineRegistry>,
    online: OnlineEngineManager,
    handles: HashMap<String, Arc<ModelEngines>>,
}

impl ExecCtx {
    /// Runs one sub-model over `m` rows (`inputs[i]` holds input `i`'s
    /// rows back to back) into `out`, placing the batch through the
    /// online manager — bucket-padded, split on overflow. `real_rows` of
    /// the `m` are genuinely live (the rest are resident padding in
    /// static-cohort mode); accounting charges pad rows to
    /// `staged.launched_flops` only.
    fn run_rows<const N: usize>(
        &self,
        name: &str,
        inputs: [&[f32]; N],
        m: usize,
        real_rows: usize,
        out: &mut Vec<f32>,
        staged: &mut StagedLaunches,
    ) -> Result<()> {
        out.clear();
        if m == 0 {
            return Ok(());
        }
        let engines = self
            .handles
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel { name: name.into() })?;
        let placed = self.online.acquire(engines, m)?;
        let bucket = placed.bucket.max(1);

        let mut launches = 0u64;
        for r0 in (0..m).step_by(bucket) {
            let rows = bucket.min(m - r0);
            let chunk = inputs.map(|input| {
                let width = input.len() / m;
                &input[r0 * width..(r0 + rows) * width]
            });
            placed.engine.run_rows_into(&chunk, rows, out)?;
            launches += 1;
        }
        let flops = placed.engine.flops();
        staged.real_flops += flops * real_rows as f64 / bucket as f64;
        staged.launched_flops += flops * launches as f64;
        staged.sim_us += placed.engine.time().total_us * launches as f64;
        staged.launches += launches;
        if placed.fallback {
            staged.fallback_launches += launches;
        }
        Ok(())
    }
}

/// Registry names of the model's compilable sub-models.
struct SubModelNames {
    qkv: Vec<String>,
    post: Vec<String>,
    lm_head: String,
}

/// The continuous-batching LLM scheduler (see module docs).
pub struct ContinuousBatcher {
    model: DecoderModel,
    names: SubModelNames,
    exec: ExecCtx,
    arena: KvArena,
    mode: BatchMode,
    max_slots: usize,
    /// Watermark: free blocks admission keeps back for decode growth.
    kv_reserve_blocks: usize,
    /// Steps left in the current chaos memory-pressure episode; the
    /// arena's withheld count resets to zero when it expires.
    pressure_steps_left: u64,
    queue: VecDeque<Pending>,
    slots: Vec<Slot>,
    scratch: Scratch,
    finished: Vec<SequenceResult>,
    metrics: Metrics,
    stats: LlmStats,
    sim_now_us: f64,
    next_id: u64,
}

impl std::fmt::Debug for ContinuousBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinuousBatcher")
            .field("mode", &self.mode)
            .field("max_slots", &self.max_slots)
            .field("live", &self.slots.len())
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ContinuousBatcher {
    /// Builds a batcher for one LLM zoo model on `arch`: registers every
    /// per-layer sub-model dynamically (zero precompiled buckets — the
    /// online manager fills them in as the live-row count shifts) and
    /// sizes the KV block pool from the governor budget.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] when `config.model` is not an LLM
    /// zoo entry, [`ServeError::Config`] for a zero slot count, zero
    /// `kv_block_rows`, or a block budget too small to ever hold one
    /// full-context sequence (such a budget could deadlock: a lone
    /// sequence would exhaust the pool with no victim to preempt).
    pub fn new(arch: GpuArch, bolt_config: BoltConfig, config: LlmServeConfig) -> Result<Self> {
        let spec = llm_by_name(&config.model).ok_or_else(|| ServeError::UnknownModel {
            name: config.model.clone(),
        })?;
        if config.max_slots == 0 {
            return Err(ServeError::Config {
                reason: "max_slots must be at least 1".into(),
            });
        }
        if config.kv_block_rows == 0 {
            return Err(ServeError::Config {
                reason: "kv_block_rows must be at least 1".into(),
            });
        }
        let registry = Arc::new(EngineRegistry::new(arch, bolt_config));
        let salt = config.salt;
        let mut names = SubModelNames {
            qkv: Vec::with_capacity(spec.layers),
            post: Vec::with_capacity(spec.layers),
            lm_head: lm_head_name(&config.model),
        };
        let mut handles = HashMap::new();
        for layer in 0..spec.layers {
            let name = qkv_name(&config.model, layer);
            let h = registry
                .register_dynamic(&name, move |rows| qkv_graph(&spec, salt, layer, rows))?;
            handles.insert(name.clone(), h);
            names.qkv.push(name);

            let name = post_name(&config.model, layer);
            let h = registry
                .register_dynamic(&name, move |rows| post_graph(&spec, salt, layer, rows))?;
            handles.insert(name.clone(), h);
            names.post.push(name);
        }
        let h = registry
            .register_dynamic(&names.lm_head, move |rows| lm_head_graph(&spec, salt, rows))?;
        handles.insert(names.lm_head.clone(), h);

        let online = OnlineEngineManager::new(Arc::clone(&registry), config.online.clone());
        let kv_spec = KvSpec {
            layers: spec.layers,
            kv_dim: spec.kv_dim(),
            max_seq: spec.max_seq,
            block_rows: config.kv_block_rows,
        };
        let full_seq = kv_spec.blocks_for(spec.max_seq);
        let budget = config
            .kv_budget_blocks
            .unwrap_or(config.max_slots * full_seq);
        if budget < full_seq {
            return Err(ServeError::Config {
                reason: format!(
                    "kv_budget_blocks {budget} cannot hold one full-context sequence \
                     ({full_seq} blocks of {} rows)",
                    kv_spec.block_rows
                ),
            });
        }
        Ok(ContinuousBatcher {
            model: DecoderModel::new(spec, salt),
            names,
            exec: ExecCtx {
                registry,
                online,
                handles,
            },
            arena: KvArena::new(kv_spec, budget),
            mode: config.mode,
            max_slots: config.max_slots,
            kv_reserve_blocks: config.kv_reserve_blocks,
            pressure_steps_left: 0,
            queue: VecDeque::new(),
            slots: Vec::new(),
            scratch: Scratch {
                scores: Vec::with_capacity(spec.max_seq),
                ..Scratch::default()
            },
            finished: Vec::new(),
            metrics: Metrics::default(),
            stats: LlmStats::default(),
            sim_now_us: 0.0,
            next_id: 0,
        })
    }

    /// Queues a sequence; ids are assigned in submission order.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] for an empty prompt, a prompt that
    /// leaves no room to generate inside the context window, an
    /// out-of-vocabulary token, or `max_new_tokens == 0`.
    pub fn submit(&mut self, request: SequenceRequest) -> Result<u64> {
        self.metrics.submitted();
        let spec = self.model.spec();
        let model = self.names.lm_head.clone();
        let reject = |reason: String| ServeError::InvalidInput {
            model: model.clone(),
            reason,
        };
        if request.prompt.is_empty() {
            self.metrics.rejected_invalid_input();
            return Err(reject("prompt must be non-empty".into()));
        }
        if request.prompt.len() >= spec.max_seq {
            self.metrics.rejected_invalid_input();
            return Err(reject(format!(
                "prompt of {} tokens leaves no room in the {}-token context",
                request.prompt.len(),
                spec.max_seq
            )));
        }
        if let Some(&t) = request.prompt.iter().find(|&&t| t as usize >= spec.vocab) {
            self.metrics.rejected_invalid_input();
            return Err(reject(format!("token {t} outside vocab {}", spec.vocab)));
        }
        if request.max_new_tokens == 0 {
            self.metrics.rejected_invalid_input();
            return Err(reject("max_new_tokens must be at least 1".into()));
        }
        self.metrics.accepted();
        let id = self.next_id;
        self.next_id += 1;
        let prompt_len = request.prompt.len();
        self.queue.push_back(Pending {
            id,
            prompt: request.prompt,
            prompt_len,
            max_new: request.max_new_tokens,
            deadline_us: request.deadline_us,
            submitted_us: self.sim_now_us,
            ttft_us: None,
        });
        Ok(id)
    }

    /// Runs one serving step: poll chaos memory pressure, admit
    /// (prefill) into free slots under the watermark, reserve every live
    /// sequence's next KV row (preempting victims if the pool is dry),
    /// decode one token for every live sequence, retire finished ones.
    /// A mid-step worker kill (chaos) retries the decode attempt; the
    /// commit discipline makes the retry exactly-once.
    pub fn step(&mut self) -> StepReport {
        let sim_before = self.sim_now_us;
        self.poll_pressure();
        let admitted = self.admit();
        // Sequences already finished at prefill (max_new_tokens == 1, or
        // a prompt that filled the context window) must retire before
        // the decode GEMM, or they would over-generate by one token.
        let mut retired = self.retire();
        // Every surviving live sequence holds a reservation for its next
        // KV row before the decode GEMM launches: decode itself can then
        // never hit pool exhaustion mid-step.
        self.reserve_for_decode();
        let mut decoded = 0;
        if !self.slots.is_empty() {
            loop {
                match catch_unwind(AssertUnwindSafe(|| self.decode_once())) {
                    Err(_) => {
                        // Mid-step worker kill: uncommitted KV rows are
                        // invisible, no token was appended — retry.
                        self.stats.step_retries += 1;
                    }
                    Ok(Err(_)) => {
                        self.fail_all_live();
                        break;
                    }
                    Ok(Ok(launches)) => {
                        decoded = self.commit_step(launches);
                        break;
                    }
                }
            }
        }
        retired += self.retire();
        // Engines and KV blocks share accelerator memory: charge the
        // pool's resident footprint against the online tuner's budget so
        // eviction pressure sees the governor's growth.
        self.exec
            .online
            .set_external_resident_bytes(self.arena.resident_bytes());
        StepReport {
            admitted,
            decoded,
            retired,
            live: self.slots.len(),
            queued: self.queue.len(),
            sim_us: self.sim_now_us - sim_before,
        }
    }

    /// Steps until the queue and every slot drain, then returns all
    /// finished sequences (ascending by id).
    pub fn run_to_completion(&mut self) -> Vec<SequenceResult> {
        while !self.queue.is_empty() || !self.slots.is_empty() {
            self.step();
        }
        self.take_finished()
    }

    /// Drains the finished-sequence buffer, ascending by id.
    pub fn take_finished(&mut self) -> Vec<SequenceResult> {
        let mut out = std::mem::take(&mut self.finished);
        out.sort_by_key(|r| r.id);
        out
    }

    /// Live slot count.
    pub fn live(&self) -> usize {
        self.slots.len()
    }

    /// Queued (not yet admitted) sequence count.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The simulated clock, µs: every kernel launch advances it by the
    /// engine's priced time.
    pub fn sim_now_us(&self) -> f64 {
        self.sim_now_us
    }

    /// Cumulative batcher counters.
    pub fn stats(&self) -> LlmStats {
        self.stats
    }

    /// The KV arena, for liveness assertions (fresh allocations vs.
    /// recycled workspaces).
    pub fn kv_arena(&self) -> &KvArena {
        &self.arena
    }

    /// The sub-model engine registry, for inspecting which per-M buckets
    /// the online tuner has hot-swapped in.
    pub fn registry(&self) -> &Arc<EngineRegistry> {
        &self.exec.registry
    }

    /// Full serving-metrics snapshot — including `padding_fraction` over
    /// every launch, the online-tuning counters, and the KV governor
    /// gauges — directly comparable with [`crate::BoltServer::metrics`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot(
            self.sim_now_us.max(1.0),
            Vec::new(),
            Some(self.exec.online.snapshot()),
        );
        snap.kv_governor = Some(self.kv_governor());
        snap
    }

    /// Point-in-time KV governor gauges: block-pool occupancy plus the
    /// admission/preemption counters.
    pub fn kv_governor(&self) -> KvGovernorSnapshot {
        KvGovernorSnapshot {
            kv_blocks_in_use: self.arena.in_use_blocks(),
            kv_blocks_free: self.arena.free_blocks(),
            kv_budget_blocks: self.arena.budget_blocks(),
            kv_block_rows: self.arena.spec().block_rows,
            kv_resident_bytes: self.arena.resident_bytes(),
            preemptions: self.stats.preemptions,
            recompute_tokens: self.stats.recompute_tokens,
            kv_fresh_allocations: self.arena.fresh_allocations(),
            kv_pressure_events: self.stats.kv_pressure_events,
        }
    }

    /// Blocks until no background sub-model compile is queued or
    /// running, up to `timeout` (`false` on timeout). Useful to pin down
    /// hot-swap timing in tests; never required for correctness.
    pub fn wait_tuned(&self, timeout: Duration) -> bool {
        self.exec.online.wait_idle(timeout)
    }

    /// Polls the chaos memory-pressure site and ticks the running
    /// episode: while one is active, a fraction of the block budget is
    /// withheld from the pool — pure accounting, live blocks are never
    /// touched — stalling admission and forcing decode growth to
    /// preempt exactly as a real co-tenant's allocation would. The
    /// withholding lifts when the episode's step count expires.
    fn poll_pressure(&mut self) {
        if self.pressure_steps_left > 0 {
            self.pressure_steps_left -= 1;
            if self.pressure_steps_left == 0 {
                self.arena.set_withheld(0);
            }
        }
        if let Some((fraction, steps)) = bolt::faults::kv_pressure() {
            let withheld = (self.arena.budget_blocks() as f64 * fraction).round() as usize;
            self.arena.set_withheld(withheld);
            self.pressure_steps_left = steps;
            self.stats.kv_pressure_events += 1;
        }
    }

    /// Reserves the next KV row for every live slot before the decode
    /// GEMM launches, so decode itself can never hit pool exhaustion
    /// mid-step. When the pool runs dry, the governor preempts victims
    /// (fewest generated tokens, ties youngest) until the reservation
    /// fits; preempting the requester itself also counts as progress —
    /// its blocks go back to the pool for the sequences kept.
    fn reserve_for_decode(&mut self) {
        let mut i = 0;
        while i < self.slots.len() {
            if self.slots[i].done.is_some() {
                i += 1;
                continue;
            }
            let rows = self.slots[i].kv.len() + 1;
            match self.arena.reserve(&mut self.slots[i].kv, rows) {
                Ok(()) => i += 1,
                Err(_) => {
                    let Some(victim) = self.pick_victim() else {
                        break;
                    };
                    self.preempt(victim);
                    if victim < i {
                        i -= 1;
                    }
                    // victim == i retries the slot now sitting at i;
                    // victim > i retries slot i itself, one block richer.
                }
            }
        }
    }

    /// The preemption victim among live slots: fewest generated tokens
    /// (cheapest recompute), ties broken by youngest (largest id — the
    /// governor protects the progress of the oldest work first).
    fn pick_victim(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.done.is_none())
            .min_by_key(|(_, slot)| {
                (
                    slot.tokens.len() - slot.prompt_len,
                    std::cmp::Reverse(slot.id),
                )
            })
            .map(|(i, _)| i)
    }

    /// Evicts slot `idx` back to the head of the queue: its blocks
    /// return to the pool and its prompt *plus generated tokens* replay
    /// through a later prefill (recompute, not swap). The replay's
    /// "first token" is the next genuinely new token, so token
    /// accounting stays exactly-once; TTFT keeps its original value.
    fn preempt(&mut self, idx: usize) {
        let slot = self.slots.remove(idx);
        self.stats.preemptions += 1;
        self.stats.recompute_tokens += slot.kv.len() as u64;
        self.metrics.requeued();
        self.arena.release(slot.kv);
        self.queue.push_front(Pending {
            id: slot.id,
            prompt: slot.tokens,
            prompt_len: slot.prompt_len,
            max_new: slot.max_new,
            deadline_us: slot.deadline_us,
            submitted_us: slot.submitted_us,
            ttft_us: Some(slot.ttft_us),
        });
    }

    /// Terminal result for a sequence leaving the queue without
    /// (re)entering a slot. A preemption replay keeps the tokens it
    /// already generated and its observed TTFT; a fresh submission has
    /// neither.
    fn queue_result(pending: &Pending, now: f64, finish: FinishReason) -> SequenceResult {
        SequenceResult {
            id: pending.id,
            prompt_len: pending.prompt_len,
            tokens: pending.prompt[pending.prompt_len..].to_vec(),
            ttft_us: pending.ttft_us,
            submitted_us: pending.submitted_us,
            finished_us: now,
            finish,
        }
    }

    /// Admits queued sequences into free slots (all slots must be free
    /// first in static-cohort mode), shedding those past their deadline,
    /// and prefills each admission. Admission is watermark-gated: the
    /// prompt's prefill blocks plus a decode-growth reserve must fit in
    /// the free pool, or the prompt waits at the head of the queue (the
    /// reserve is waived when no sequence is live — a lone admission can
    /// never be starved by headroom for nobody). Returns the number
    /// admitted.
    fn admit(&mut self) -> usize {
        if self.mode == BatchMode::StaticCohort && !self.slots.is_empty() {
            return 0;
        }
        let kv_spec = self.arena.spec();
        let mut admitted = 0;
        while self.slots.len() < self.max_slots {
            let Some(pending) = self.queue.pop_front() else {
                break;
            };
            if pending
                .deadline_us
                .is_some_and(|deadline| self.sim_now_us > deadline)
            {
                self.metrics.deadline_shed();
                self.finished.push(Self::queue_result(
                    &pending,
                    self.sim_now_us,
                    FinishReason::DeadlineExceeded,
                ));
                continue;
            }
            let needed = kv_spec.blocks_for(pending.prompt.len());
            let reserve = if self.slots.is_empty() {
                0
            } else {
                self.kv_reserve_blocks
            };
            if self.arena.free_blocks() < needed + reserve {
                self.queue.push_front(pending);
                break;
            }
            self.metrics.dequeued(1);
            match self.prefill(&pending) {
                Ok(()) => {
                    self.stats.prefills += 1;
                    self.stats.generated_tokens += 1;
                    admitted += 1;
                }
                // Lost the blocks race despite the watermark: bounce
                // back to the queue head — transient pressure must never
                // fail a request.
                Err(ServeError::Compile(
                    BoltError::KvExhausted { .. } | BoltError::KvCapacity { .. },
                )) => {
                    self.metrics.requeued();
                    self.queue.push_front(pending);
                    break;
                }
                Err(_) => {
                    self.metrics.rejected_execution();
                    self.finished.push(Self::queue_result(
                        &pending,
                        self.sim_now_us,
                        FinishReason::Failed,
                    ));
                }
            }
        }
        admitted
    }

    /// Runs one prompt's prefill into a new slot: positions `0..n` through
    /// [`Self::run_layers`] (a wide GEMM per sub-model), the first token
    /// from the last position's logits. Reserves the prompt's blocks up
    /// front; commits the KV transaction and the simulated time only on
    /// success, dropping the slot and its blocks on failure. For a
    /// preemption replay, `pending.prompt` already includes the
    /// generated tokens, so this same path rebuilds the victim's KV
    /// state bit for bit.
    fn prefill(&mut self, pending: &Pending) -> Result<()> {
        let n = pending.prompt.len();
        // Room for every token the sequence can ever hold, so decode
        // steps never grow it.
        let capacity = pending.prompt_len.saturating_add(pending.max_new);
        let mut tokens = Vec::with_capacity(capacity.min(self.model.spec().max_seq));
        tokens.extend_from_slice(&pending.prompt);
        self.slots.push(Slot {
            id: pending.id,
            tokens,
            prompt_len: pending.prompt_len,
            max_new: pending.max_new,
            deadline_us: pending.deadline_us,
            submitted_us: pending.submitted_us,
            ttft_us: 0.0,
            kv: self.arena.lease(),
            done: None,
        });
        let idx = self.slots.len() - 1;
        let mut staged = StagedLaunches::default();
        let result = (|| -> Result<u32> {
            self.arena.reserve(&mut self.slots[idx].kv, n)?;
            self.scratch.rows.clear();
            self.scratch.rows.extend((0..n).map(|pos| (idx, pos)));
            // Only the last position's logits matter for the first token.
            self.run_layers(1, &mut staged)?;
            self.slots[idx].kv.commit(n)?;
            Ok(self.model.argmax(&self.scratch.logits))
        })();
        match result {
            Ok(first) => {
                self.charge(staged);
                let slot = &mut self.slots[idx];
                slot.tokens.push(first);
                slot.ttft_us = pending
                    .ttft_us
                    .unwrap_or(self.sim_now_us - pending.submitted_us);
                Ok(())
            }
            Err(e) => {
                let slot = self.slots.pop().expect("the slot pushed above");
                self.arena.release(slot.kv);
                Err(e)
            }
        }
    }

    /// One decode attempt over every resident slot: each slot's last
    /// token at its next position through [`Self::run_layers`] (M =
    /// resident rows), staging one token per *live* slot in
    /// `scratch.tokens`. Mutates only uncommitted KV rows — safe to
    /// retry after a mid-step panic.
    fn decode_once(&mut self) -> Result<StagedLaunches> {
        bolt::faults::panic_if_scheduled(bolt::faults::FaultSite::WorkerKill);
        let mut staged = StagedLaunches::default();
        let rows = self.slots.iter().map(|s| s.tokens.len() - 1).enumerate();
        self.scratch.rows.clear();
        self.scratch.rows.extend(rows);
        self.run_layers(self.slots.len(), &mut staged)?;
        let s = &mut self.scratch;
        s.tokens.clear();
        let vocab = self.model.spec().vocab;
        for (&(i, _), logits) in s.rows.iter().zip(s.logits.chunks_exact(vocab)) {
            if self.slots[i].done.is_none() {
                s.tokens.push((i, self.model.argmax(logits)));
            }
        }
        Ok(staged)
    }

    /// The layer stack prefill and decode share, over `scratch.rows`. Per
    /// layer: the QKV GEMM; per live row, its K/V written at `(layer,
    /// pos)` and attention over its slot's positions `0..=pos` (finished
    /// cohort rows are GEMM padding only); then the post GEMM. The LM
    /// head's logits for the last `head_rows` rows land in
    /// `scratch.logits`. KV rows are written, not committed, so a failed
    /// or retried attempt publishes nothing.
    fn run_layers(&mut self, head_rows: usize, staged: &mut StagedLaunches) -> Result<()> {
        let (model, slots, s) = (&self.model, &mut self.slots, &mut self.scratch);
        let (h, m) = (model.spec().hidden, s.rows.len());
        let live = |rows: &[Row]| rows.iter().filter(|r| slots[r.0].done.is_none()).count();
        let (real, head_real) = (live(&s.rows), live(&s.rows[m - head_rows..]));
        s.x.clear();
        for &(slot, pos) in &s.rows {
            s.x.extend_from_slice(model.embed_token(slots[slot].tokens[pos]));
        }
        for layer in 0..model.spec().layers {
            let (qkv, post) = (&self.names.qkv[layer], &self.names.post[layer]);
            self.exec
                .run_rows(qkv, [&s.x], m, real, &mut s.qkv, staged)?;
            s.attn.clear();
            s.attn.resize(m * h, 0.0);
            let per_row = s.rows.iter().zip(s.qkv.chunks_exact(3 * h));
            for ((&(slot, pos), qkv_row), attn_row) in per_row.zip(s.attn.chunks_exact_mut(h)) {
                let slot = &mut slots[slot];
                if slot.done.is_some() {
                    continue;
                }
                let (q, kv_row) = qkv_row.split_at(h);
                slot.kv.write_row(layer, pos, &kv_row[..h], &kv_row[h..])?;
                let keys = slot.kv.key_chunks(layer, pos + 1)?;
                let values = slot.kv.value_chunks(layer, pos + 1)?;
                model.attention_into(q, keys, values, pos + 1, &mut s.scores, attn_row);
            }
            // The spent QKV buffer takes the post output, which becomes
            // the next layer's input.
            self.exec
                .run_rows(post, [&s.attn, &s.x], m, real, &mut s.qkv, staged)?;
            std::mem::swap(&mut s.x, &mut s.qkv);
        }
        let head = &s.x[(m - head_rows) * h..];
        let lm_head = &self.names.lm_head;
        self.exec
            .run_rows(lm_head, [head], head_rows, head_real, &mut s.logits, staged)
    }

    /// The step's transaction point: publish every live slot's KV row
    /// and append its staged token, then charge the attempt's time and
    /// FLOPs. Returns the tokens decoded.
    fn commit_step(&mut self, launches: StagedLaunches) -> usize {
        let live = self.scratch.tokens.len();
        for &(i, token) in &self.scratch.tokens {
            let slot = &mut self.slots[i];
            slot.kv
                .commit(slot.tokens.len())
                .expect("decode rows were reserved before the step");
            slot.tokens.push(token);
            self.stats.generated_tokens += 1;
        }
        let sim_us = launches.sim_us;
        self.charge(launches);
        self.stats.steps += 1;
        let tokens_per_sec = if sim_us > 0.0 {
            live as f64 * 1e6 / sim_us
        } else {
            0.0
        };
        self.metrics.batch(live, tokens_per_sec);
        live
    }

    /// Folds one attempt's launch accounting into the clock and metrics.
    fn charge(&mut self, launches: StagedLaunches) {
        self.sim_now_us += launches.sim_us;
        self.stats.sim_us = self.sim_now_us;
        self.stats.launches += launches.launches;
        self.stats.fallback_launches += launches.fallback_launches;
        self.metrics
            .launch_flops(launches.real_flops, launches.launched_flops);
    }

    /// A failed decode attempt fails every live sequence (partial tokens
    /// stand); cohort padding rows retire with their original reason.
    fn fail_all_live(&mut self) {
        for slot in &mut self.slots {
            if slot.done.is_none() {
                slot.done = Some(FinishReason::Failed);
                self.metrics.rejected_execution();
            }
        }
    }

    /// Marks finished sequences and evicts them: immediately in
    /// continuous mode (mid-batch), only when the whole cohort drained
    /// in static-cohort mode. Returns the number retired.
    fn retire(&mut self) -> usize {
        let max_seq = self.model.spec().max_seq;
        for slot in &mut self.slots {
            if slot.done.is_some() {
                continue;
            }
            let generated = slot.tokens.len() - slot.prompt_len;
            slot.done = if generated >= slot.max_new {
                Some(FinishReason::Length)
            } else if slot.tokens.len() >= max_seq {
                Some(FinishReason::ContextFull)
            } else if slot
                .deadline_us
                .is_some_and(|deadline| self.sim_now_us > deadline)
            {
                Some(FinishReason::DeadlineExceeded)
            } else {
                None
            };
        }
        let drain_cohort =
            self.mode == BatchMode::StaticCohort && self.slots.iter().all(|s| s.done.is_some());
        let mut retired = 0;
        let mut i = 0;
        while i < self.slots.len() {
            let evict = match self.mode {
                BatchMode::Continuous => self.slots[i].done.is_some(),
                BatchMode::StaticCohort => drain_cohort,
            };
            if !evict {
                i += 1;
                continue;
            }
            let slot = self.slots.remove(i);
            let finish = slot.done.expect("evicted slots are finished");
            if finish != FinishReason::Failed {
                self.metrics.completed(self.sim_now_us - slot.submitted_us);
            }
            self.finished.push(SequenceResult {
                id: slot.id,
                prompt_len: slot.prompt_len,
                tokens: slot.tokens[slot.prompt_len..].to_vec(),
                ttft_us: Some(slot.ttft_us),
                submitted_us: slot.submitted_us,
                finished_us: self.sim_now_us,
                finish,
            });
            self.arena.release(slot.kv);
            retired += 1;
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::test_arch;
    use bolt_models::{sample_prompts, PromptLengths};

    fn batcher(config: LlmServeConfig) -> ContinuousBatcher {
        ContinuousBatcher::new(test_arch(), BoltConfig::default(), config).expect("tiny-lm builds")
    }

    fn submit_prompts(
        engine: &mut ContinuousBatcher,
        prompts: &[Vec<u32>],
        max_new: usize,
    ) -> Vec<u64> {
        prompts
            .iter()
            .map(|p| {
                engine
                    .submit(SequenceRequest {
                        prompt: p.clone(),
                        max_new_tokens: max_new,
                        deadline_us: None,
                    })
                    .expect("valid prompt")
            })
            .collect()
    }

    /// The sequential oracle: one slot, sequences run start-to-finish
    /// one at a time — continuous batching must match it bit for bit.
    fn sequential_tokens(prompts: &[Vec<u32>], max_new: usize) -> Vec<Vec<u32>> {
        let mut engine = batcher(LlmServeConfig {
            max_slots: 1,
            ..LlmServeConfig::default()
        });
        submit_prompts(&mut engine, prompts, max_new);
        let results = engine.run_to_completion();
        results.into_iter().map(|r| r.tokens).collect()
    }

    /// Every step is charged the price of the engines it really ran on,
    /// also across hot-swaps: a plan carries its own price, so an engine
    /// built where a dropped one lived cannot inherit that engine's price.
    #[test]
    fn step_prices_follow_hot_swapped_engines() {
        let mut engine = batcher(LlmServeConfig {
            max_slots: 1,
            ..LlmServeConfig::default()
        });
        let registry = Arc::clone(engine.registry());
        // Launch order within one pass through the model.
        let names: Vec<String> = (0..2)
            .flat_map(|l| [qkv_name("tiny-lm", l), post_name("tiny-lm", l)])
            .chain([lm_head_name("tiny-lm")])
            .collect();
        // Installs fresh engines compiled for `rows` rows as bucket 1,
        // dropping the old ones first; a 2-row engine pads the one live
        // row and costs more.
        let install = |rows: usize| {
            for name in &names {
                registry.remove_bucket(name, 1).expect("registered");
                let (plan, _) = registry.compile_bucket(name, rows).expect("compiles");
                registry.insert_bucket(name, 1, plan).expect("registered");
            }
        };
        let pass_us = || {
            names.iter().fold(0.0, |sum, name| {
                let engines = registry.get(name).expect("registered");
                let (bucket, plan) = engines.engine_for(1).expect("bucket 1 installed");
                assert_eq!(bucket, 1);
                sum + plan.time().total_us
            })
        };
        // A one-token prompt keeps every prefill and decode launch at
        // bucket 1, one launch per sub-model per pass.
        submit_prompts(&mut engine, &[vec![3]], 8);
        let mut seen = Vec::new();
        for rows in [1, 2, 1, 2] {
            install(rows);
            let launches = engine.stats().launches;
            let report = engine.step();
            let passes = (engine.stats().launches - launches) / names.len() as u64;
            assert!(passes >= 1, "the step launched every sub-model");
            let pass = pass_us();
            let want = passes as f64 * pass;
            assert!(
                (report.sim_us - want).abs() <= 1e-9 * want,
                "step charged {} µs, its engines cost {want} µs",
                report.sim_us
            );
            seen.push(pass);
        }
        assert_ne!(seen[0], seen[1], "the swap changed the engines' price");
    }

    #[test]
    fn generates_exactly_once_and_in_submission_order() {
        let prompts = sample_prompts("tiny-lm", 6, PromptLengths::uniform(2, 9), 42).unwrap();
        let mut engine = batcher(LlmServeConfig::default());
        let ids = submit_prompts(&mut engine, &prompts, 4);
        let results = engine.run_to_completion();
        assert_eq!(results.len(), 6, "every sequence retires exactly once");
        for (result, (id, prompt)) in results.iter().zip(ids.iter().zip(&prompts)) {
            assert_eq!(result.id, *id);
            assert_eq!(result.prompt_len, prompt.len());
            assert_eq!(result.tokens.len(), 4);
            assert_eq!(result.finish, FinishReason::Length);
            assert!(result.ttft_us.is_some());
            assert!(result.finished_us >= result.submitted_us);
        }
        let stats = engine.stats();
        assert_eq!(stats.generated_tokens, 24);
        assert_eq!(stats.prefills, 6);
        assert!(stats.sim_us > 0.0);
        let m = engine.metrics();
        assert_eq!(m.completed, 6);
        assert_eq!((m.queue_depth, m.inflight), (0, 0), "gauges drained");
    }

    #[test]
    fn continuous_matches_sequential_bit_for_bit() {
        let prompts = sample_prompts("tiny-lm", 8, PromptLengths::uniform(1, 12), 7).unwrap();
        let oracle = sequential_tokens(&prompts, 5);

        let mut engine = batcher(LlmServeConfig {
            max_slots: 8,
            ..LlmServeConfig::default()
        });
        submit_prompts(&mut engine, &prompts, 5);
        let results = engine.run_to_completion();
        for (result, want) in results.iter().zip(&oracle) {
            assert_eq!(
                &result.tokens, want,
                "sequence {} diverged from sequential execution",
                result.id
            );
        }
    }

    #[test]
    fn static_cohort_matches_sequential_and_wastes_more_flops() {
        // Ragged max_new: in the cohort, early finishers become padding.
        let prompts = sample_prompts("tiny-lm", 4, PromptLengths::uniform(2, 6), 3).unwrap();
        // Strongly ragged lengths (2, 8, 14, 20): the early finishers sit
        // dead in the cohort for most of its lifetime, so the structural
        // waste dwarfs any bucket-placement noise from tuner timing.
        let max_new = |i: usize| 2 + i * 6;
        let oracle: Vec<Vec<u32>> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| sequential_tokens(std::slice::from_ref(p), max_new(i)).remove(0))
            .collect();

        let run = |mode: BatchMode| {
            let mut engine = batcher(LlmServeConfig {
                max_slots: 4,
                mode,
                ..LlmServeConfig::default()
            });
            for (i, p) in prompts.iter().enumerate() {
                engine
                    .submit(SequenceRequest {
                        prompt: p.clone(),
                        max_new_tokens: max_new(i),
                        deadline_us: None,
                    })
                    .expect("valid");
            }
            let results = engine.run_to_completion();
            let padding = engine.metrics().padding_fraction;
            (results, padding)
        };
        let (cont, cont_padding) = run(BatchMode::Continuous);
        let (stat, stat_padding) = run(BatchMode::StaticCohort);
        for ((c, s), want) in cont.iter().zip(&stat).zip(&oracle) {
            let n = c.tokens.len();
            assert_eq!(c.tokens, s.tokens, "modes agree");
            assert_eq!(c.tokens[..], want[..n], "prefix of the oracle stream");
        }
        assert!(
            stat_padding > cont_padding,
            "pad-to-bucket wastes more: static {stat_padding:.3} vs continuous {cont_padding:.3}"
        );
    }

    #[test]
    fn interleaved_joins_match_sequential() {
        let prompts = sample_prompts("tiny-lm", 6, PromptLengths::uniform(1, 8), 99).unwrap();
        let oracle = sequential_tokens(&prompts, 4);

        // Join mid-stream: two up front, then one more after every step.
        let mut engine = batcher(LlmServeConfig {
            max_slots: 4,
            ..LlmServeConfig::default()
        });
        submit_prompts(&mut engine, &prompts[..2], 4);
        let mut next = 2;
        while engine.live() > 0 || engine.queued() > 0 || next < prompts.len() {
            if next < prompts.len() {
                submit_prompts(&mut engine, &prompts[next..next + 1], 4);
                next += 1;
            }
            engine.step();
        }
        let mut results = engine.take_finished();
        results.sort_by_key(|r| r.id);
        assert_eq!(results.len(), 6);
        for (result, want) in results.iter().zip(&oracle) {
            assert_eq!(&result.tokens, want, "sequence {}", result.id);
        }
    }

    #[test]
    fn hot_swapped_engines_keep_streams_bit_identical() {
        let prompts = sample_prompts("tiny-lm", 4, PromptLengths::uniform(2, 7), 5).unwrap();
        // Run A drains compiles after every step (maximum hot-swapping
        // mid-stream); run B never waits (mostly heuristic fallbacks).
        let mut waits = batcher(LlmServeConfig::default());
        submit_prompts(&mut waits, &prompts, 4);
        while waits.live() > 0 || waits.queued() > 0 {
            waits.step();
            assert!(waits.wait_tuned(Duration::from_secs(120)));
        }
        let swapped = waits.take_finished();
        assert!(
            !waits
                .registry()
                .get(&qkv_name("tiny-lm", 0))
                .unwrap()
                .bucket_sizes()
                .is_empty(),
            "tuned buckets hot-swapped in"
        );

        let mut cold = batcher(LlmServeConfig::default());
        submit_prompts(&mut cold, &prompts, 4);
        let unswapped = cold.run_to_completion();
        for (a, b) in swapped.iter().zip(&unswapped) {
            assert_eq!(a.tokens, b.tokens, "engine hot-swap changed tokens");
        }
    }

    #[test]
    fn deadlines_shed_queued_and_evict_live_sequences() {
        let mut engine = batcher(LlmServeConfig {
            max_slots: 1,
            ..LlmServeConfig::default()
        });
        // First sequence: generous deadline; runs long enough that the
        // queued second sequence's tight deadline expires before a slot
        // frees up.
        engine
            .submit(SequenceRequest {
                prompt: vec![1, 2, 3],
                max_new_tokens: 20,
                deadline_us: None,
            })
            .expect("valid");
        engine
            .submit(SequenceRequest {
                prompt: vec![4, 5],
                max_new_tokens: 4,
                deadline_us: Some(1e-3),
            })
            .expect("valid");
        // Run the first sequence out, then calibrate the third
        // sequence's deadline from this engine's own observed per-step
        // cost — a separate cold probe would race the online tuner
        // (tuned engines can be several times faster than the
        // fallbacks a fresh batcher starts on).
        while engine.live() > 0 || engine.stats().steps == 0 {
            engine.step();
        }
        let warm = engine.stats();
        let per_step_us = engine.sim_now_us() / warm.steps.max(1) as f64;
        // Deadline a handful of steps out: far more than admission +
        // prefill + one decode, far less than 140 tokens' worth even if
        // every remaining launch sped up by an order of magnitude.
        engine
            .submit(SequenceRequest {
                prompt: vec![6],
                max_new_tokens: 140,
                deadline_us: Some(engine.sim_now_us() + 6.0 * per_step_us),
            })
            .expect("valid");
        let results = engine.run_to_completion();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].finish, FinishReason::Length);
        assert_eq!(results[0].tokens.len(), 20);
        assert_eq!(results[1].finish, FinishReason::DeadlineExceeded);
        assert!(results[1].tokens.is_empty(), "shed before prefill");
        assert_eq!(results[2].finish, FinishReason::DeadlineExceeded);
        assert!(
            !results[2].tokens.is_empty() && results[2].tokens.len() < 140,
            "evicted mid-generation with partial output, got {}",
            results[2].tokens.len()
        );
        let m = engine.metrics();
        assert_eq!(m.deadline_shed, 1);
        assert_eq!(m.completed, 2, "shed sequences are not completions");
    }

    #[test]
    fn context_window_exhaustion_retires_with_context_full() {
        let spec = llm_by_name("tiny-lm").unwrap();
        let mut engine = batcher(LlmServeConfig::default());
        let prompt: Vec<u32> = (0..(spec.max_seq - 3) as u32).map(|t| t % 64).collect();
        engine
            .submit(SequenceRequest {
                prompt,
                max_new_tokens: 50,
                deadline_us: None,
            })
            .expect("valid");
        let results = engine.run_to_completion();
        assert_eq!(results[0].finish, FinishReason::ContextFull);
        assert_eq!(results[0].tokens.len(), 3, "prompt + 3 fills the window");
    }

    #[test]
    fn kv_workspaces_recycle_across_admissions() {
        let prompts = sample_prompts("tiny-lm", 6, PromptLengths::fixed(3), 1).unwrap();
        let mut engine = batcher(LlmServeConfig {
            max_slots: 2,
            ..LlmServeConfig::default()
        });
        submit_prompts(&mut engine, &prompts, 3);
        engine.run_to_completion();
        let arena = engine.kv_arena();
        assert!(
            arena.fresh_allocations() <= 2,
            "at most one workspace per slot is ever allocated, got {}",
            arena.fresh_allocations()
        );
        assert!(arena.reuses() >= 4, "later admissions reuse retired KV");
    }

    /// The governor's acceptance gate: a budget at the floor (one
    /// full-context sequence) with 8 competing sequences forces real
    /// preemptions, and every stream must still match the sequential
    /// oracle bit for bit with exactly-once token accounting.
    #[test]
    fn tight_kv_budget_preempts_and_recomputes_bit_identically() {
        let spec = llm_by_name("tiny-lm").unwrap();
        // Geometry the squeeze relies on: 10 blocks of 16 rows, prompts
        // of 14 that cross into a second block mid-decode.
        assert_eq!(spec.max_seq, 160);
        let prompts = sample_prompts("tiny-lm", 8, PromptLengths::fixed(14), 11).unwrap();
        let oracle = sequential_tokens(&prompts, 8);

        let mut engine = batcher(LlmServeConfig {
            max_slots: 8,
            kv_budget_blocks: Some(10),
            ..LlmServeConfig::default()
        });
        submit_prompts(&mut engine, &prompts, 8);
        let results = engine.run_to_completion();

        let stats = engine.stats();
        assert!(stats.preemptions > 0, "the budget must actually squeeze");
        assert!(stats.recompute_tokens > 0, "replays recompute KV state");
        assert_eq!(results.len(), 8, "every sequence retires exactly once");
        for (result, want) in results.iter().zip(&oracle) {
            assert_eq!(result.finish, FinishReason::Length);
            assert_eq!(
                &result.tokens, want,
                "sequence {} diverged under preemption",
                result.id
            );
        }
        // Exactly-once accounting: 8 sequences × 8 tokens, however many
        // replays happened — replayed positions count only as recompute.
        assert_eq!(stats.generated_tokens, 64);
        let gov = engine.kv_governor();
        assert_eq!(gov.kv_blocks_in_use, 0, "drained pool");
        assert_eq!(gov.kv_budget_blocks, 10);
        assert!(
            gov.kv_fresh_allocations <= 10,
            "the arena never materializes past its budget, got {}",
            gov.kv_fresh_allocations
        );
        assert_eq!(gov.preemptions, stats.preemptions);
        assert_eq!(gov.recompute_tokens, stats.recompute_tokens);
        let m = engine.metrics();
        assert_eq!(m.completed, 8);
        assert_eq!((m.queue_depth, m.inflight), (0, 0), "gauges drained");
        assert_eq!(m.kv_governor, Some(gov));
    }

    /// Victim policy, pinned deterministically: under a squeeze the
    /// governor evicts the live sequence with the fewest generated
    /// tokens, breaking ties toward the youngest — never the elder
    /// that has the most progress to lose.
    #[test]
    fn preemption_victims_are_fewest_generated_then_youngest() {
        let prompts = sample_prompts("tiny-lm", 3, PromptLengths::fixed(14), 4).unwrap();
        let oracle = sequential_tokens(&prompts, 10);
        let mut engine = batcher(LlmServeConfig {
            max_slots: 3,
            kv_budget_blocks: Some(10),
            ..LlmServeConfig::default()
        });
        // The elder runs two steps ahead; the juniors join together, so
        // they tie on generated tokens and only age can split them.
        let elder = submit_prompts(&mut engine, &prompts[..1], 10);
        engine.step();
        engine.step();
        let juniors = submit_prompts(&mut engine, &prompts[1..], 10);
        engine.step();
        assert_eq!(engine.live(), 3);

        // Withhold every block the three live sequences are not already
        // holding: the next block-table growth must preempt someone.
        engine.arena.set_withheld(10 - engine.arena.in_use_blocks());
        let before = engine.stats().preemptions;
        for _ in 0..20 {
            if engine.stats().preemptions > before {
                break;
            }
            engine.step();
            assert!(engine.live() > 0, "the squeeze must preempt, not wedge");
        }
        assert_eq!(
            engine.stats().preemptions,
            before + 1,
            "freeing one victim's blocks unblocks the step"
        );
        assert_eq!(
            engine.queue.front().expect("victim re-queued").id,
            juniors[1],
            "victim is the youngest of the tied juniors"
        );
        assert!(
            engine.slots.iter().any(|s| s.id == elder[0]),
            "the elder's progress is protected"
        );

        // Pressure lifts; the victim replays and every stream still
        // matches the oracle.
        engine.arena.set_withheld(0);
        let results = engine.run_to_completion();
        assert_eq!(results.len(), 3);
        for (result, want) in results.iter().zip(&oracle) {
            assert_eq!(&result.tokens, want, "sequence {} diverged", result.id);
        }
    }

    /// A budget below one full-context sequence could deadlock (a lone
    /// sequence exhausts the pool with nobody to preempt) and must be
    /// rejected at construction.
    #[test]
    fn sub_context_budgets_are_rejected() {
        for (budget, block_rows) in [(Some(9), 16), (Some(0), 16), (Some(39), 4)] {
            assert!(matches!(
                ContinuousBatcher::new(
                    test_arch(),
                    BoltConfig::default(),
                    LlmServeConfig {
                        kv_budget_blocks: budget,
                        kv_block_rows: block_rows,
                        ..LlmServeConfig::default()
                    }
                )
                .err(),
                Some(ServeError::Config { .. })
            ));
        }
        assert!(matches!(
            ContinuousBatcher::new(
                test_arch(),
                BoltConfig::default(),
                LlmServeConfig {
                    kv_block_rows: 0,
                    ..LlmServeConfig::default()
                }
            )
            .err(),
            Some(ServeError::Config { .. })
        ));
    }

    #[test]
    fn submit_validation_rejects_bad_requests() {
        let spec = llm_by_name("tiny-lm").unwrap();
        let mut engine = batcher(LlmServeConfig::default());
        let bad = [
            SequenceRequest {
                prompt: vec![],
                max_new_tokens: 1,
                deadline_us: None,
            },
            SequenceRequest {
                prompt: vec![0; spec.max_seq],
                max_new_tokens: 1,
                deadline_us: None,
            },
            SequenceRequest {
                prompt: vec![spec.vocab as u32],
                max_new_tokens: 1,
                deadline_us: None,
            },
            SequenceRequest {
                prompt: vec![1],
                max_new_tokens: 0,
                deadline_us: None,
            },
        ];
        for request in bad {
            assert!(matches!(
                engine.submit(request),
                Err(ServeError::InvalidInput { .. })
            ));
        }
        assert_eq!(engine.metrics().rejected_invalid_input, 4);
        assert!(matches!(
            ContinuousBatcher::new(
                test_arch(),
                BoltConfig::default(),
                LlmServeConfig {
                    model: "mlp-small".into(),
                    ..LlmServeConfig::default()
                }
            )
            .err(),
            Some(ServeError::UnknownModel { .. })
        ));
        assert!(matches!(
            ContinuousBatcher::new(
                test_arch(),
                BoltConfig::default(),
                LlmServeConfig {
                    max_slots: 0,
                    ..LlmServeConfig::default()
                }
            )
            .err(),
            Some(ServeError::Config { .. })
        ));
    }
}
