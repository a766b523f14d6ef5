//! Continuous-batching scheduler: requests join, decode, cancel and retire
//! **while the engine is running**.
//!
//! The closed model — push everything, then run — is fine for offline
//! evaluation ([`SchedulerConfig::unbounded`] is that configuration) but
//! is the wrong shape for serving: real traffic churns. This module is the
//! serving loop proper:
//!
//! * [`Scheduler::submit`] accepts a request **at any time**, including
//!   mid-run, and returns a [`RequestHandle`] that can cancel it (queued or
//!   mid-stream).
//! * Each [`tick`](Scheduler::tick) first **admits** queued requests — in
//!   [`Priority`] order (higher classes first, FIFO within a class), up
//!   to [`max_slots`](SchedulerConfig::max_slots) concurrent decodes and
//!   within the KV block budget — then advances every live slot by one
//!   model step.
//! * Admission is **capacity-based**: a request is admitted only when its
//!   worst-case KV footprint (`prompt + max_new` tokens across every
//!   layer) fits in the unreserved remainder of the pool budget, so the
//!   pool can never be exhausted mid-decode. Actual allocation stays
//!   **lazy** — a request that stops after three tokens only ever
//!   allocated blocks for three tokens — so the reservation is an upper
//!   bound the blocks of finished requests immediately flow back out of.
//! * When a higher-priority request cannot fit, the scheduler (with
//!   [`preemption`](SchedulerConfig::preemption) on) **preempts** a
//!   strictly lower-priority victim slot: the victim's KV is swapped to
//!   a cold buffer (restored verbatim on resume) or, past the
//!   [`swap_budget_bytes`](SchedulerConfig::swap_budget_bytes) cap,
//!   dropped and deterministically recomputed. Preempted requests resume
//!   ahead of equal-priority fresh admissions and finish with exactly
//!   the tokens of an uninterrupted run.
//! * Every slot whose next step is a **plain model step** takes it in one
//!   shared step: slots are gathered per model and fed through one
//!   [`Model::step`] — one pass over the weights for all of them, out of
//!   one scratch the scheduler owns. A prompt position is a prefill column
//!   (every MLP row kept); the prompt's last token and a decode token are
//!   *engine columns* of an engine that lends its [`ColumnStage`]: its
//!   prediction, weight storage and accounting run per column, and columns
//!   over one MLP storage share one pass of it. Slots whose engine cannot
//!   lend a stage (a speculative pair, a wrapper) take their prefill chunks
//!   in the shared step and everything else on their own, as does a slot
//!   walking its cached prefix (one position per tick).
//! * The cadence is **decode first, within one column group**
//!   ([`COLUMN_GROUP`] columns, after Sarathi-Serve's token budget): in a
//!   tick where some slot produces a token, the prefilling slots share the
//!   rest of the group in slot order, at least one position each; in a
//!   tick where none does, each takes up to [`PREFILL_CHUNK`] — nothing
//!   waits on that tick, so its weight pass may as well be full. When a
//!   prompt's rest fits its share, its last token joins the same step as
//!   an engine column, and its first token is sampled in that tick. Every
//!   column is bitwise the position computed alone, so the cadence moves
//!   tick stamps and cross-request interleaving, never a token.
//!   [`SchedulerStats::prefill_positions`] over
//!   [`prefill_batches`](SchedulerStats::prefill_batches) is the mean
//!   number of columns per weight pass, and
//!   [`mlp_rows_loaded`](SchedulerStats::mlp_rows_loaded) the MLP rows the
//!   passes loaded for the union of their columns.
//! * The moment a request finishes (budget, stop token, cancellation or
//!   failure) its slot **retires**: engine and step scratch and the
//!   session's KV blocks are released and the freed capacity admits the
//!   next queued request on the very next tick.
//!
//! # Determinism contract
//!
//! Admission order is a pure function of the submission sequence:
//! priority classes first, FIFO within a class (head-of-line blocking
//! included: when the best candidate does not fit, nothing lesser jumps
//! it), slots advance in admission order, and events are delivered in
//! slot order — so a fixed submission sequence yields a fixed admission
//! *and preemption* schedule, a fixed event stream, and **bit-identical
//! tokens per request to running that request alone** — whether the
//! request was never preempted, swapped out and restored, or dropped and
//! recomputed — at any slot-thread count
//! ([`parallel`](Scheduler::parallel)) and any kernel-thread count. A
//! request's [`BatchOutput::ops`] and [`BatchOutput::stats`] are its solo
//! run's too (a recomputed request is billed for its replay). Interleaving
//! is pure scheduling; it never touches the math.
//!
//! # Example
//!
//! ```
//! use sparseinfer_model::{generator::WeightGenerator, ModelConfig};
//! use sparseinfer_sparse::engine::EngineBuilder;
//! use sparseinfer_sparse::request::GenerateRequest;
//! use sparseinfer_sparse::scheduler::{Scheduler, SchedulerConfig};
//!
//! let model = WeightGenerator::new(&ModelConfig::tiny(), 3).build();
//! let mut scheduler = Scheduler::new(SchedulerConfig {
//!     max_slots: 2,                  // at most two concurrent decodes
//!     block_tokens: 8,               // KV page granularity
//!     kv_block_budget: usize::MAX,   // no memory cap in this example
//!     ..SchedulerConfig::default()   // prefix cache on, default cap
//! });
//! let first = scheduler
//!     .submit(
//!         EngineBuilder::new(&model).build().unwrap(),
//!         &GenerateRequest::new(&[1, 2]).max_new(4),
//!     )
//!     .unwrap();
//! scheduler.tick(|_| {}); // decoding has started…
//! let late = scheduler
//!     .submit(
//!         EngineBuilder::new(&model).build().unwrap(),
//!         &GenerateRequest::new(&[3]).max_new(3),
//!     )
//!     .unwrap(); // …and this request joins mid-run on the next tick.
//! let outputs = scheduler.run();
//! assert_eq!(outputs.len(), 2);
//! assert_eq!(outputs[0].id, first.id());
//! assert_eq!(outputs[1].id, late.id());
//! assert_eq!(outputs[1].tokens.len(), 3);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use sparseinfer_model::kv::{
    KvBlockPool, KvDtype, PrefixHit, PrefixIndex, SwappedKvCache, DEFAULT_BLOCK_TOKENS,
};
use sparseinfer_model::model::DecodeSession;
use sparseinfer_model::{Model, PrefillScratch, PromptChunk, PromptTokens, PREFILL_CHUNK};
use sparseinfer_tensor::gemv::COLUMN_GROUP;
use sparseinfer_tensor::{ParallelOptions, ThreadPool, Vector};

use crate::engine::{ColumnStage, Engine, MemoryEstimate, SparsityStats, SpeculativeStats};
use crate::error::EngineError;
use crate::ops::OpCounter;
use crate::request::{FinishReason, GenerateRequest, Priority, RequestRun, TokenEvent};
use crate::step::{StepColumns, StepGroups};

mod admission;
mod preemption;
mod stats;
#[cfg(test)]
mod tests;

pub use stats::{PreemptionStats, PrefixCacheStats, SchedulerStats};

use preemption::{PreemptedRequest, PreemptedState};

/// A token emitted by one request inside a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEvent {
    /// The request id ([`RequestHandle::id`]) of [`Scheduler::submit`].
    pub request: usize,
    /// Zero-based position in that request's continuation.
    pub index: usize,
    /// The token id.
    pub token: u32,
}

/// The finished result of one scheduled request, with per-request
/// accounting.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// The request id ([`RequestHandle::id`]) of [`Scheduler::submit`].
    pub id: usize,
    /// The generated tokens.
    pub tokens: Vec<u32>,
    /// Why decoding stopped.
    pub finish: FinishReason,
    /// Operations this request executed (prefill through the bare model is
    /// not counted, matching the single-request path).
    pub ops: OpCounter,
    /// Sparsity statistics, for sparse engines.
    pub stats: Option<SparsityStats>,
    /// The engine configuration name that served the request.
    pub engine: String,
    /// Prompt positions whose KV was attached from the scheduler's prefix
    /// cache instead of being prefilled — the per-request hit accounting.
    /// At least `shared full blocks × block_tokens` for a warm-prefix
    /// request; zero on a cold miss or with the cache disabled.
    pub prefill_skipped_tokens: usize,
    /// Times this request was preempted (swapped out or dropped for
    /// recompute) to make room for a higher-priority admission.
    pub preemptions: usize,
    /// KV blocks this request's preemptions swapped out to cold buffers
    /// (summed over every swap-out; zero for the recompute path).
    pub swapped_blocks: usize,
    /// Draft/accept counters, for requests served by a
    /// [`SpeculativeEngine`](crate::engine::SpeculativeEngine); `None` for
    /// engines that never draft. Acceptance only measures how much dense
    /// work each verified block amortized — the tokens themselves are
    /// bit-identical to dense-only decode.
    pub speculative: Option<SpeculativeStats>,
    /// Scheduler tick count when the request was submitted (the index of
    /// the earliest tick that could have admitted it). Tick stamps are a
    /// pure function of the submission sequence — identical at any slot-
    /// or kernel-thread count — which is what lets a load harness report
    /// deterministic queue-wait numbers next to wall-clock percentiles.
    pub submitted_tick: u64,
    /// Tick of the request's *first* admission into a decode slot (later
    /// preemption/resume cycles do not move it); `None` when it never
    /// occupied a slot (cancelled or failed while queued). Queue wait in
    /// ticks is `admitted_tick - submitted_tick`.
    pub admitted_tick: Option<u64>,
    /// Tick the request retired on (finish, cancellation, expiry or
    /// failure — whichever tick actually removed it).
    pub finished_tick: u64,
}

/// Default cap on retained-but-unreferenced prefix blocks (see
/// [`SchedulerConfig::prefix_retain_blocks`]).
pub const DEFAULT_PREFIX_RETAIN_BLOCKS: usize = 512;

/// Admission-control knobs of a [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum concurrently decoding requests. Queued requests past this
    /// wait for a slot to retire.
    pub max_slots: usize,
    /// Tokens per KV block — the paging granularity. Smaller blocks waste
    /// less on short answers; larger blocks take the pool lock less often
    /// and share more aggressively (only *full* blocks of a prompt's
    /// densely prefilled region are prefix-sharable).
    pub block_tokens: usize,
    /// Total KV blocks the scheduler's pool may ever hold (across all
    /// layers of all live requests, plus prefix-cache retention).
    /// Admission reserves each request's worst case against this, so
    /// decode can never run out mid-flight. `usize::MAX` disables the
    /// memory gate.
    pub kv_block_budget: usize,
    /// Enables prompt-prefix sharing: full KV blocks of each request's
    /// densely prefilled prompt region are published to a
    /// [`PrefixIndex`] and re-attached (copy-on-write, refcounted) to
    /// later requests with the same prompt prefix, skipping their prefill
    /// work and deduplicating their KV memory. Sharing never changes
    /// tokens or event order — a warm run is bit-identical to a cold one.
    pub prefix_cache: bool,
    /// Cap on prefix blocks retained while **no live session references
    /// them** (the warm cache kept for future requests). Exceeding it
    /// evicts least-recently-used unreferenced entries; blocks attached
    /// to live sessions are pinned and never count against the cap.
    pub prefix_retain_blocks: usize,
    /// Enables preemption: when the admission head outranks a live slot
    /// and cannot fit, the scheduler evicts a victim slot (swap-out or
    /// drop-and-recompute) instead of waiting for it to finish. Safe to
    /// leave on for single-priority workloads — preemption only ever
    /// fires across *strictly different* priority classes.
    pub preemption: bool,
    /// Cap on how many times one request may be preempted. Past it, a
    /// slot becomes non-preemptable and higher-priority arrivals wait
    /// for it like any other capacity — bounding worst-case thrash (each
    /// preemption re-pays restore or recompute work).
    pub max_preemptions_per_request: usize,
    /// Byte budget for swapped-out cold KV buffers. A preemption whose
    /// victim does not fit under it falls back to drop-and-recompute
    /// (memory-free, but the resume re-runs prefill and replays the
    /// generated tokens). `u64::MAX` means swap always; `0` means
    /// recompute always.
    pub swap_budget_bytes: u64,
    /// Element type of the KV block pool every session pages out of.
    /// [`KvDtype::F16`] halves KV memory (`memory_bytes`/`in_use_bytes`
    /// report true halved bytes); attention dequantizes in-loop, so the
    /// storage rounding is the only numeric difference — scheduling,
    /// sharing, swap and event order are unaffected, and each
    /// configuration remains bit-identical to its own solo decode.
    pub kv_dtype: KvDtype,
}

impl Default for SchedulerConfig {
    /// Eight slots, default block size, no KV budget, prefix cache on
    /// with the default retention cap, preemption on (swap preferred,
    /// at most three preemptions per request).
    fn default() -> Self {
        Self {
            max_slots: 8,
            block_tokens: DEFAULT_BLOCK_TOKENS,
            kv_block_budget: usize::MAX,
            prefix_cache: true,
            prefix_retain_blocks: DEFAULT_PREFIX_RETAIN_BLOCKS,
            preemption: true,
            max_preemptions_per_request: 3,
            swap_budget_bytes: u64::MAX,
            kv_dtype: KvDtype::F32,
        }
    }
}

impl SchedulerConfig {
    /// No admission limits at all: every submitted request is admitted on
    /// the next tick and advances round-robin, one model step per tick —
    /// the closed, push-everything-then-[`run`](Scheduler::run)
    /// configuration of offline evaluation and the paper experiments. The
    /// prefix cache is off, so a fully finished batch holds zero decode
    /// memory.
    ///
    /// # Example
    ///
    /// ```
    /// use sparseinfer_model::{generator::WeightGenerator, ModelConfig};
    /// use sparseinfer_predictor::AlphaSchedule;
    /// use sparseinfer_sparse::engine::EngineBuilder;
    /// use sparseinfer_sparse::request::GenerateRequest;
    /// use sparseinfer_sparse::scheduler::{Scheduler, SchedulerConfig};
    ///
    /// let model = WeightGenerator::new(&ModelConfig::tiny(), 3).build();
    /// let mut batch = Scheduler::new(SchedulerConfig::unbounded());
    /// for (i, prompt) in [[1u32, 2], [3, 4], [5, 6]].iter().enumerate() {
    ///     let engine = if i % 2 == 0 {
    ///         EngineBuilder::new(&model).build().unwrap()
    ///     } else {
    ///         EngineBuilder::new(&model).signbit(AlphaSchedule::uniform(1.0)).build().unwrap()
    ///     };
    ///     batch.submit(engine, &GenerateRequest::new(prompt).max_new(4)).unwrap();
    /// }
    /// let outputs = batch.run(); // in submission order
    /// assert_eq!(outputs.len(), 3);
    /// assert!(outputs.iter().all(|o| o.tokens.len() == 4));
    /// ```
    pub fn unbounded() -> Self {
        Self {
            max_slots: usize::MAX,
            block_tokens: DEFAULT_BLOCK_TOKENS,
            kv_block_budget: usize::MAX,
            prefix_cache: false,
            prefix_retain_blocks: 0,
            preemption: false,
            max_preemptions_per_request: 0,
            swap_budget_bytes: 0,
            kv_dtype: KvDtype::F32,
        }
    }

    /// Checks the capacity knobs a frontend takes from its user, so a bad
    /// flag is reported as data instead of a panic in [`Scheduler::new`].
    ///
    /// ```
    /// use sparseinfer_sparse::scheduler::SchedulerConfig;
    ///
    /// let config = SchedulerConfig { max_slots: 4, ..SchedulerConfig::default() };
    /// assert!(config.validate().is_ok());
    /// assert!(SchedulerConfig { block_tokens: 0, ..config }.validate().is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// [`EngineError::SchedulerConfig`] when `max_slots`, `block_tokens`
    /// or `kv_block_budget` is zero.
    pub fn validate(&self) -> Result<(), EngineError> {
        let reason = if self.max_slots == 0 {
            "max_slots must be positive"
        } else if self.block_tokens == 0 {
            "block_tokens must be positive"
        } else if self.kv_block_budget == 0 {
            "kv_block_budget must be positive"
        } else {
            return Ok(());
        };
        Err(EngineError::SchedulerConfig { reason })
    }
}

/// Out-of-band stop signals a [`RequestHandle`] can raise, in the shared
/// atomic the scheduler polls each tick. The first raised signal wins:
/// whichever of cancel/expire lands first determines the finish reason.
const SIGNAL_LIVE: u8 = 0;
const SIGNAL_CANCELLED: u8 = 1;
const SIGNAL_EXPIRED: u8 = 2;

/// A cancellation/deadline handle for one submitted request.
///
/// Cheaply cloneable (one `Arc` bump) and fully thread-safe (`Send +
/// Sync`), so a serving frontend can hand clones to connection threads
/// that cancel or expire requests without ever touching the scheduler
/// thread. [`cancel`](Self::cancel) and [`expire`](Self::expire) take
/// effect at the start of the next tick, whether the request is still
/// queued or already decoding. The request still appears in the outputs,
/// finished with [`FinishReason::Cancelled`] /
/// [`FinishReason::DeadlineExceeded`] and whatever tokens it had produced.
#[derive(Debug, Clone)]
pub struct RequestHandle {
    id: usize,
    signal: Arc<AtomicU8>,
}

impl RequestHandle {
    /// The request id (also [`BatchOutput::id`]).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Raises `signal` unless one was already raised — the first signal
    /// decides the finish reason, so a cancel racing an expiry is
    /// deterministic per request: whichever atomically lands first wins.
    fn raise(&self, signal: u8) {
        let _ =
            self.signal
                .compare_exchange(SIGNAL_LIVE, signal, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Requests cancellation. Idempotent; a no-op after
    /// [`expire`](Self::expire) already fired.
    pub fn cancel(&self) {
        self.raise(SIGNAL_CANCELLED);
    }

    /// Marks the request's deadline as exceeded, finishing it with
    /// [`FinishReason::DeadlineExceeded`] on the next tick. Idempotent; a
    /// no-op after [`cancel`](Self::cancel) already fired.
    pub fn expire(&self) {
        self.raise(SIGNAL_EXPIRED);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.signal.load(Ordering::Relaxed) == SIGNAL_CANCELLED
    }

    /// Whether deadline expiry has been signalled.
    pub fn is_expired(&self) -> bool {
        self.signal.load(Ordering::Relaxed) == SIGNAL_EXPIRED
    }
}

/// A request waiting for admission.
struct QueuedRequest<'m> {
    id: usize,
    engine: Box<dyn Engine + 'm>,
    req: GenerateRequest,
    signal: Arc<AtomicU8>,
    /// Gross worst-case KV blocks (`prompt + max_new` tokens × layers);
    /// admission nets out prefix hits before reserving.
    worst_blocks: usize,
    /// Prefix-index identity of the engine's model (see
    /// [`Scheduler::model_key`]).
    model_key: usize,
    /// Tick count at submission (see [`BatchOutput::submitted_tick`]).
    submitted_tick: u64,
}

/// A request occupying a decode slot.
struct LiveSlot<'m> {
    id: usize,
    engine: Box<dyn Engine + 'm>,
    run: RequestRun,
    /// The original request — kept so preemption can rebuild the run
    /// (recompute path) and admission can read the priority class.
    req: GenerateRequest,
    signal: Arc<AtomicU8>,
    /// KV blocks this slot's reservation still covers. Starts at the
    /// admission-time net worst case; shrinks when the slot publishes
    /// blocks to the prefix index (ownership shifts to the index's
    /// retention accounting).
    worst_blocks: usize,
    /// Gross worst-case blocks (no prefix netting) — what a swap-out
    /// resume must re-reserve, since a restored cache is all-private.
    gross_blocks: usize,
    model_key: usize,
    /// Whether this slot's densely prefilled prompt blocks have been
    /// offered to the prefix index (done at most once per request).
    published: bool,
    /// Times this request has been preempted so far (capped by
    /// [`SchedulerConfig::max_preemptions_per_request`]).
    preempt_count: usize,
    /// KV blocks this request's preemptions have swapped out so far.
    swapped_blocks: usize,
    /// Tick count at submission (see [`BatchOutput::submitted_tick`]).
    submitted_tick: u64,
    /// Tick of the first admission (see [`BatchOutput::admitted_tick`]);
    /// carried unchanged through preemption/resume cycles.
    admitted_tick: u64,
}

impl<'m> LiveSlot<'m> {
    /// Consumes a finished slot into its output, dropping the engine's
    /// per-session scratch and returning the session's KV blocks to the
    /// pool.
    fn into_output(self, finished_tick: u64) -> BatchOutput {
        let prefill_skipped_tokens = self.run.prefill_skipped_tokens();
        let generation = self.run.into_generation();
        BatchOutput {
            id: self.id,
            tokens: generation.tokens,
            finish: generation.finish,
            ops: *self.engine.ops(),
            stats: self.engine.stats().cloned(),
            engine: self.engine.name().to_string(),
            prefill_skipped_tokens,
            preemptions: self.preempt_count,
            swapped_blocks: self.swapped_blocks,
            speculative: self.engine.speculative_stats(),
            submitted_tick: self.submitted_tick,
            admitted_tick: Some(self.admitted_tick),
            finished_tick,
        }
    }
}

/// The output of a request that never occupied a decode slot (cancelled in
/// the queue, or — defensively — failed at admission): no tokens, counters
/// as the engine left them.
fn unstarted_output(q: QueuedRequest<'_>, finish: FinishReason, finished_tick: u64) -> BatchOutput {
    BatchOutput {
        id: q.id,
        tokens: Vec::new(),
        finish,
        ops: *q.engine.ops(),
        stats: q.engine.stats().cloned(),
        engine: q.engine.name().to_string(),
        prefill_skipped_tokens: 0,
        preemptions: 0,
        swapped_blocks: 0,
        speculative: q.engine.speculative_stats(),
        submitted_tick: q.submitted_tick,
        admitted_tick: None,
        finished_tick,
    }
}

/// Recycled state of the per-tick step — one for the whole scheduler, so
/// step scratch memory does not grow with requests served. It is sized by
/// the columns of the ticks since the last retirement: a tick that retires
/// a slot releases it, as a retired slot's engine scratch is released.
#[derive(Debug, Default)]
struct StepBatcher {
    scratch: PrefillScratch,
    groups: StepGroups,
    /// Per slot: already advanced this tick by the shared step.
    stepped: Vec<bool>,
    /// Per slot: the positions its step may take this tick, or 0 when the
    /// slot does not join it.
    shares: Vec<usize>,
    /// The group being stepped: each run's tokens with its session,
    /// borrowed from the run for the duration of the step.
    batch: Vec<(PromptChunk, DecodeSession)>,
    /// Slot index of each `batch` entry, and whether its last column is an
    /// engine column.
    owners: Vec<(usize, bool)>,
    /// The engines' stages and the runs' logits buffers, one per engine
    /// column, in column order — borrowed like the sessions.
    stages: Vec<ColumnStage>,
    logits: Vec<Vector>,
    /// Per column of the step: its stage, or `None` for a prefill column.
    columns: Vec<Option<(usize, usize)>>,
}

impl StepBatcher {
    /// Heap bytes of the step's scratch: the forward step's buffers and
    /// those of its passes over more than one weight storage.
    fn memory_bytes(&self) -> u64 {
        self.scratch.memory_bytes() + self.groups.memory_bytes()
    }

    /// Drops every recycled buffer, keeping the rows counter.
    fn release(&mut self) {
        let rows_loaded = self.groups.rows_loaded;
        *self = Self::default();
        self.groups.rows_loaded = rows_loaded;
    }
}

/// A continuous-batching scheduler over a paged KV cache.
///
/// See the [module docs](self) for the serving model and the determinism
/// contract. Constructed via [`new`](Scheduler::new) (plus
/// [`parallel`](Scheduler::parallel) for slot-level thread parallelism);
/// driven either tick by tick ([`tick`](Scheduler::tick) +
/// [`take_finished`](Scheduler::take_finished), the open-ended serving
/// loop) or to completion ([`run`](Scheduler::run) /
/// [`run_streaming`](Scheduler::run_streaming)).
pub struct Scheduler<'m> {
    config: SchedulerConfig,
    pool: ThreadPool,
    kv: KvBlockPool,
    /// Published prompt-prefix blocks, re-attached to later requests.
    /// Every physical block is covered by exactly one of: a live slot's
    /// reservation, or the index's retention — the invariant the budget
    /// math in [`admit`](Self::admit) rests on.
    index: PrefixIndex,
    queue: VecDeque<QueuedRequest<'m>>,
    slots: Vec<LiveSlot<'m>>,
    /// Preempted requests waiting to resume, in eviction order. At equal
    /// priority the resume queue is served *ahead* of fresh admissions —
    /// a preempted request already earned its admission once.
    preempted: VecDeque<PreemptedRequest<'m>>,
    finished: Vec<BatchOutput>,
    next_id: usize,
    /// Completed [`tick`](Self::tick) calls — the deterministic clock the
    /// per-request tick stamps ([`BatchOutput::submitted_tick`] etc.) are
    /// read from.
    ticks: u64,
    /// Requests retired over the scheduler's lifetime (the lifetime
    /// counterpart of the drain-able [`finished`](Self::take_finished)
    /// buffer).
    retired: usize,
    /// Worst-case blocks reserved by the live slots (net of prefix hits
    /// and already-published blocks).
    reserved_blocks: usize,
    /// KV dimension established by the first submission: every session
    /// pages out of one fixed-block-size pool, so later submissions must
    /// match (validated in [`submit`](Self::submit)).
    kv_dim: Option<usize>,
    /// Lifetime prefix-cache counters behind
    /// [`prefix_stats`](Self::prefix_stats).
    attached_requests: usize,
    skipped_tokens: u64,
    published_blocks: usize,
    evicted_blocks: usize,
    /// Lifetime preemption counters behind
    /// [`preemption_stats`](Self::preemption_stats).
    preemptions: usize,
    swapped_out: usize,
    recomputed: usize,
    resumed: usize,
    /// Bytes currently held by cold swap buffers across all preempted
    /// requests — gated by [`SchedulerConfig::swap_budget_bytes`].
    cold_bytes: u64,
    /// Draft/accept counters of requests already retired, behind
    /// [`speculative_stats`](Self::speculative_stats) (live slots are
    /// added at query time).
    spec_retired: SpeculativeStats,
    step: StepBatcher,
    /// Lifetime counters of the shared step (see
    /// [`SchedulerStats::prefill_batches`]).
    prefill_batches: u64,
    prefill_positions: u64,
}

impl std::fmt::Debug for Scheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("queued", &self.queue.len())
            .field("active", &self.slots.len())
            .field("preempted", &self.preempted.len())
            .field("finished", &self.finished.len())
            .field("reserved_blocks", &self.reserved_blocks)
            .finish()
    }
}

impl<'m> Scheduler<'m> {
    /// An empty scheduler with the given admission-control configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_slots`, `config.block_tokens` or
    /// `config.kv_block_budget` is zero.
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(config.max_slots > 0, "max_slots must be positive");
        Self {
            kv: KvBlockPool::with_budget_dtype(
                config.block_tokens,
                config.kv_block_budget,
                config.kv_dtype,
            ),
            config,
            pool: ThreadPool::single(),
            index: PrefixIndex::new(),
            queue: VecDeque::new(),
            slots: Vec::new(),
            preempted: VecDeque::new(),
            finished: Vec::new(),
            next_id: 0,
            ticks: 0,
            retired: 0,
            reserved_blocks: 0,
            kv_dim: None,
            attached_requests: 0,
            skipped_tokens: 0,
            published_blocks: 0,
            evicted_blocks: 0,
            preemptions: 0,
            swapped_out: 0,
            recomputed: 0,
            resumed: 0,
            cold_bytes: 0,
            spec_retired: SpeculativeStats::default(),
            step: StepBatcher::default(),
            prefill_batches: 0,
            prefill_positions: 0,
        }
    }

    /// Sets slot-level parallelism: the shared step partitions its weight
    /// rows and attention columns across `parallel.threads` threads, and
    /// the slots that step on their own advance up to that many at once.
    /// Token streams and event order are bit-identical to the sequential
    /// schedule. The shared step runs on this pool alone: an engine's own
    /// kernel threads ([`EngineBuilder::parallel`](crate::engine::EngineBuilder::parallel)
    /// or [`pool`](crate::engine::EngineBuilder::pool)) serve only the
    /// steps it takes on its own.
    pub fn parallel(mut self, parallel: ParallelOptions) -> Self {
        self.pool = ThreadPool::new(parallel);
        self
    }

    /// The admission-control configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The scheduler's KV block pool — exposed for capacity monitoring
    /// (`blocks_in_use`, `memory_bytes`) and tests.
    pub fn kv_pool(&self) -> &KvBlockPool {
        &self.kv
    }

    /// Submits a request, at any time — before the first tick or while
    /// other requests are mid-decode. The request waits in the admission
    /// queue — served in [`Priority`] order, FIFO within its class —
    /// until a slot and enough unreserved KV budget are available. The
    /// engine's counters are reset so the eventual [`BatchOutput::ops`]
    /// is exactly this request's work.
    ///
    /// # Errors
    ///
    /// [`EngineError::EmptyPrompt`] if the prompt is empty;
    /// [`EngineError::KvBudgetExceeded`] if the request's worst-case KV
    /// footprint exceeds the *total* budget (it could never be admitted:
    /// prefix sharing dedupes blocks *across* requests, but this
    /// request's shared-plus-private blocks still all exist physically);
    /// [`EngineError::KvDimensionMismatch`] if the engine's model uses a
    /// different KV dimension than this scheduler's earlier submissions —
    /// every session pages out of one shared pool of fixed-size blocks,
    /// so one scheduler serves models of one KV width (mixed *engine
    /// kinds* over one model remain fully supported).
    pub fn submit(
        &mut self,
        mut engine: Box<dyn Engine + 'm>,
        req: &GenerateRequest,
    ) -> Result<RequestHandle, EngineError> {
        if req.prompt.is_empty() {
            return Err(EngineError::EmptyPrompt);
        }
        let model_dim = engine.model().config().hidden_dim;
        if let Some(dim) = self.kv_dim {
            if dim != model_dim {
                return Err(EngineError::KvDimensionMismatch {
                    scheduler_dim: dim,
                    model_dim,
                });
            }
        }
        let worst_blocks = self.worst_case_blocks(engine.as_ref(), req);
        if worst_blocks > self.config.kv_block_budget {
            return Err(EngineError::KvBudgetExceeded {
                required_blocks: worst_blocks,
                budget_blocks: self.config.kv_block_budget,
            });
        }
        let model_key = Self::model_key(engine.model());
        // Latch the pool's dimension only once the request is accepted — a
        // rejected submit must not pin the scheduler to its model.
        self.kv_dim = Some(model_dim);
        engine.reset_ops();
        let id = self.next_id;
        self.next_id += 1;
        let signal = Arc::new(AtomicU8::new(SIGNAL_LIVE));
        self.queue.push_back(QueuedRequest {
            id,
            engine,
            req: req.clone(),
            signal: Arc::clone(&signal),
            worst_blocks,
            model_key,
            submitted_tick: self.ticks,
        });
        Ok(RequestHandle { id, signal })
    }

    /// One scheduling round: admit what fits, apply pending cancellations,
    /// advance every live slot by one model step — every plain model step
    /// together, one shared step per model, the others concurrently when
    /// built with [`parallel`](Self::parallel) — deliver this round's tokens to
    /// `on_token` in slot order, and retire finished slots (releasing
    /// their KV blocks and engine scratch immediately). Returns the number
    /// of unfinished requests (queued + live) remaining.
    ///
    /// A slot whose engine fails mid-decode finishes with
    /// [`FinishReason::Failed`] and retires like any other; the scheduler
    /// keeps serving its remaining requests.
    pub fn tick(&mut self, mut on_token: impl FnMut(BatchEvent)) -> usize {
        self.admit();
        for slot in &mut self.slots {
            match slot.signal.load(Ordering::Relaxed) {
                SIGNAL_CANCELLED => slot.run.cancel(),
                SIGNAL_EXPIRED => slot.run.expire(),
                _ => {}
            }
        }
        self.step_slots();
        let stepped = &self.step.stepped;
        self.pool.run_tasks(&mut self.slots, |i, slot| {
            if stepped[i] {
                return;
            }
            // A finished run's advance is a no-op that clears its event
            // buffer (so a cancellation arriving after a token tick never
            // re-delivers stale events); an Err has already marked the run
            // finished with a Failed reason, and retirement below records
            // it — tokens emitted earlier in the failing block included.
            let _ = slot.run.advance(slot.engine.as_mut());
        });
        // Publish freshly completed prompt prefixes before retirement, so
        // a request finishing this very tick still leaves its prefix warm.
        self.publish_prefixes();
        // Deliver this tick's tokens in slot order — a block step emits up
        // to `k + 1` events at once, streamed as individual tokens — so
        // streaming callbacks see a deterministic sequence even when slots
        // advance on worker threads.
        for slot in &self.slots {
            for &TokenEvent { index, token } in slot.run.events() {
                on_token(BatchEvent {
                    request: slot.id,
                    index,
                    token,
                });
            }
        }
        // Retire in slot order; `Vec::remove` keeps admission order for
        // the survivors (max_slots is small, the O(n) shift is noise).
        let mut i = 0;
        while i < self.slots.len() {
            if self.slots[i].run.finished() {
                let slot = self.slots.remove(i);
                self.reserved_blocks -= slot.worst_blocks;
                let output = slot.into_output(self.ticks);
                self.record_finished(output);
                self.step.release();
            } else {
                i += 1;
            }
        }
        self.enforce_prefix_cap();
        self.ticks += 1;
        if cfg!(debug_assertions) {
            self.check_invariants();
        }
        self.unfinished_requests()
    }

    /// Asserts the accounting every [`tick`](Self::tick) leaves true (at
    /// the end of each tick, in builds with debug assertions).
    fn check_invariants(&self) {
        let reserved: usize = self.slots.iter().map(|slot| slot.worst_blocks).sum();
        assert_eq!(self.reserved_blocks, reserved, "reservations drifted");
        assert!(self.kv.blocks_in_use() <= self.config.kv_block_budget);
        let mut bytes = 0;
        for p in &self.preempted {
            if let PreemptedState::Swapped { run, cold, .. } = &p.state {
                assert_eq!(run.kv_blocks_held(), 0, "request {} is preempted", p.id);
                bytes += cold.iter().map(SwappedKvCache::bytes).sum::<u64>();
            }
        }
        assert_eq!(self.cold_bytes, bytes, "cold bytes are the swapped buffers");
        assert!(self.cold_bytes <= self.config.swap_budget_bytes);
        let StepBatcher {
            batch,
            owners,
            stages,
            logits,
            ..
        } = &self.step;
        let lent = [batch.len(), owners.len(), stages.len(), logits.len()];
        assert_eq!(lent, [0; 4], "a session, stage or logits buffer was kept");
        self.check_block_coverage();
        // The index keeps no more than the cap of blocks no live session
        // reaches.
        let unreferenced = self.index.blocks().filter(|b| b.ref_count() == 1).count();
        assert!(
            unreferenced <= self.config.prefix_retain_blocks,
            "the prefix index retains {unreferenced} unreferenced blocks over its cap of {}",
            self.config.prefix_retain_blocks
        );
    }

    /// Every physical KV block is covered exactly once: by the prefix
    /// index's retention, or — held by one live session and nothing else —
    /// by that slot's reservation; and the pool's blocks in use are exactly
    /// the blocks live sessions and the index reach. Allocation-free, so
    /// that debug builds keep the tick's allocation guarantee.
    fn check_block_coverage(&self) {
        let mut private = 0;
        for slot in &self.slots {
            let blocks = slot.run.kv_caches().iter().flat_map(|c| c.block_refs());
            let mut own = 0;
            for block in blocks {
                if block.ref_count() == 1 {
                    own += 1;
                } else {
                    let indexed = self.index.blocks().any(|b| b.id() == block.id());
                    assert!(
                        indexed,
                        "request {} shares a block the index does not retain",
                        slot.id
                    );
                }
            }
            assert!(
                own <= slot.worst_blocks,
                "request {} holds {own} private blocks over its {}-block reservation",
                slot.id,
                slot.worst_blocks
            );
            private += own;
        }
        assert_eq!(
            self.kv.blocks_in_use(),
            private + self.index.retained_blocks(),
            "blocks in use are the blocks sessions and the index reach"
        );
    }

    /// Takes this tick's step for every live slot whose next step is a
    /// plain model step — a dense-prefill chunk (recompute replays
    /// included), and with an engine that lends its [`ColumnStage`] the
    /// prompt's last token or a decode token — grouped by model: each group
    /// is **one** [`Model::step`], one pass over that model's weights however
    /// many slots join, rows partitioned across the slot pool. Marks the
    /// slots in `step.stepped`; the caller advances the rest.
    ///
    /// The tick is decode-first within a budget of [`COLUMN_GROUP`]
    /// columns (the module docs' cadence rule): the slots that produce a
    /// token this tick come first, and the prefilling slots share the rest
    /// in slot order, at least one position each — or, in a tick without
    /// such slots, take [`PREFILL_CHUNK`] each. Every column is bitwise the
    /// position computed alone, so tokens do not depend on the shares.
    fn step_slots(&mut self) {
        let StepBatcher {
            scratch,
            groups,
            stepped,
            shares,
            batch,
            owners,
            stages,
            logits,
            columns,
        } = &mut self.step;
        let slots = &mut self.slots;
        stepped.clear();
        stepped.resize(slots.len(), false);
        let decoders = slots.iter().filter(|s| s.run.awaits_token()).count();
        let prefilling = slots
            .iter()
            .filter(|s| s.run.next_is_dense_prefill())
            .count();
        let spare = COLUMN_GROUP.saturating_sub(decoders);
        shares.clear();
        let mut nth = 0;
        for slot in slots.iter_mut() {
            let share = if slot.run.next_is_dense_prefill() {
                nth += 1;
                if decoders == 0 {
                    PREFILL_CHUNK
                } else {
                    (spare / prefilling + usize::from(nth <= spare % prefilling)).max(1)
                }
            } else {
                usize::from(slot.run.awaits_token() && slot.engine.column_stage().is_some())
            };
            shares.push(share);
        }
        while let Some(first) = shares.iter().position(|&share| share > 0) {
            let key = slots[first].model_key;
            for (i, slot) in slots.iter_mut().enumerate().skip(first) {
                if shares[i] == 0 || slot.model_key != key {
                    continue;
                }
                let d = slot.engine.model().config().hidden_dim;
                let lends = slot.engine.column_stage().is_some();
                let (tokens, session, lent) = slot
                    .run
                    .take_step(std::mem::take(&mut shares[i]), lends)
                    .expect("the slot was listed as stepping");
                let n = tokens.tokens().len();
                columns.extend(std::iter::repeat_n(None, n - 1));
                let scored = lent.is_some();
                if let Some(buffer) = lent {
                    let stage = slot.engine.column_stage().expect("the engine lends");
                    let mut stage = std::mem::take(stage);
                    stage.begin_column(d, &session, n - 1);
                    columns.push(Some((stages.len(), 0)));
                    stages.push(stage);
                    logits.push(buffer);
                } else {
                    columns.push(None);
                }
                owners.push((i, scored));
                batch.push((tokens, session));
                stepped[i] = true;
            }
            let model = slots[first].engine.model();
            let mut hook = StepColumns::new(stages, |c| columns[c], groups);
            let wants = |c: usize| columns[c].is_some();
            model.step(batch, &mut hook, wants, logits, &self.pool, scratch);
            self.prefill_batches += 1;
            self.prefill_positions += columns.len() as u64;
            columns.clear();
            let (mut stages, mut logits) = (stages.drain(..), logits.drain(..));
            for ((_, session), (i, scored)) in batch.drain(..).zip(owners.drain(..)) {
                let slot = &mut slots[i];
                let mut lent = None;
                if scored {
                    let stage = slot.engine.column_stage().expect("the engine lent it");
                    *stage = stages.next().expect("one stage per engine column");
                    lent = logits.next();
                }
                // An Err has already marked the run finished with a Failed
                // reason; retirement records it.
                let _ = slot.run.finish_step(session, lent);
            }
        }
    }

    /// Drains the outputs of every request finished so far, in finish
    /// order — the incremental collection point for open-ended serving
    /// loops that never drain the scheduler completely.
    pub fn take_finished(&mut self) -> Vec<BatchOutput> {
        std::mem::take(&mut self.finished)
    }

    /// Runs every remaining request to completion and returns the
    /// outputs, in submission order, of every request not already drained
    /// through [`take_finished`](Self::take_finished) — on a scheduler
    /// that never called it, that is every request ever submitted (and
    /// `outputs[handle.id()]` indexing is valid).
    pub fn run(self) -> Vec<BatchOutput> {
        self.run_streaming(|_| {})
    }

    /// Runs every remaining request to completion, streaming each token
    /// through `on_token` as it is produced, interleaved across requests.
    /// Returns the outputs of every request not already drained through
    /// [`take_finished`](Self::take_finished), in submission order.
    pub fn run_streaming(mut self, mut on_token: impl FnMut(BatchEvent)) -> Vec<BatchOutput> {
        while self.tick(&mut on_token) > 0 {}
        let mut outputs = self.finished;
        outputs.sort_by_key(|o| o.id);
        outputs
    }
}
