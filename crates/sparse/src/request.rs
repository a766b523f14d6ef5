//! The request layer: prompts in, sampled token streams out.
//!
//! A [`GenerateRequest`] bundles everything one generation needs — prompt,
//! budget, stop tokens and an optional [`Sampler`] — and [`generate`] /
//! [`generate_streaming`] run it against any [`Engine`]. The same
//! [`RequestRun`] state machine drives the single-request path here and the
//! multi-session [`Scheduler`](crate::scheduler::Scheduler), so a request
//! decodes bit-identically alone or interleaved with others.
//!
//! Prefill is always dense (the paper exploits sparsity only during
//! decode): every prompt token but the last keeps every MLP row of the bare
//! model, the last goes through the engine so decode statistics start with
//! the first generated token, and its logits give the first token in the
//! same step. A run whose engine lends its
//! [`ColumnStage`] takes one [`Model::step`] per
//! [`advance`](RequestRun::advance), up to [`PREFILL_CHUNK`] prompt
//! positions — nothing waits on a lone run's step — with the last prompt
//! token as the step's engine column once the rest of the prompt fits, then
//! one decode token per step. The scheduler lends the sessions of all its
//! slots to one such step per tick. An engine that cannot lend its stage
//! (a speculative pair, a wrapper) takes its dense chunks through
//! [`Model::prefill_step`] and everything else through its own methods. How
//! many positions share a step never shows in the KV or the logits: they
//! are bitwise what one position at a time leaves.
//!
//! [`Model::step`]: sparseinfer_model::Model::step
//! [`Model::prefill_step`]: sparseinfer_model::Model::prefill_step

use sparseinfer_model::kv::{
    KvBlockPool, PagedKvCache, PrefixHit, SwappedKvCache, DEFAULT_BLOCK_TOKENS,
};
use sparseinfer_model::model::DecodeSession;
use sparseinfer_model::sampling::Sampler;
use sparseinfer_model::{Model, PrefillScratch, PromptChunk, PromptTokens, PREFILL_CHUNK};
use sparseinfer_tensor::{ThreadPool, Vector};

use crate::engine::{ColumnStage, Engine, StepBlock};
use crate::error::EngineError;
use crate::step::{StepColumns, StepGroups};

/// Why a generation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// The `max_new` budget was exhausted.
    MaxTokens,
    /// A stop token was sampled (the token is not part of the output).
    Stop(u32),
    /// The request was cancelled (queued or mid-stream) through a
    /// [`RequestHandle`](crate::scheduler::RequestHandle); the tokens
    /// generated before the cancellation are preserved.
    Cancelled,
    /// The request's deadline passed before it finished (queued or
    /// mid-stream), signalled through
    /// [`RequestHandle::expire`](crate::scheduler::RequestHandle::expire)
    /// by a serving loop enforcing per-request deadlines. Like
    /// cancellation, the tokens generated before expiry are preserved.
    DeadlineExceeded,
    /// Decoding failed mid-run; the tokens generated before the failure
    /// are preserved. Produced by the
    /// [`Scheduler`](crate::scheduler::Scheduler), which must keep serving
    /// its other slots — the single-request [`generate`] path surfaces the
    /// error as `Err` instead.
    Failed(EngineError),
}

/// Scheduling priority class of a request.
///
/// Priority orders **admission**, never math: the scheduler admits FIFO
/// within a class and higher classes first, and may preempt lower-class
/// slots to make room — but a request's tokens depend only on its own
/// engine, sampler and prompt, so priority (like preemption) can change
/// *when* tokens arrive, never *which* tokens arrive. Ordered so that
/// `Batch < Normal < High`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Throughput traffic: admitted last, first in line for preemption.
    Batch,
    /// The default class for interactive traffic.
    #[default]
    Normal,
    /// Latency-critical traffic: admitted first, may preempt lower
    /// classes under slot or KV pressure.
    High,
}

impl Priority {
    /// The wire/CLI name of the class (`"high"`, `"normal"`, `"batch"`).
    pub fn name(&self) -> &'static str {
        match self {
            Priority::Batch => "batch",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// One generation request.
///
/// # Example
///
/// ```
/// use sparseinfer_model::Sampler;
/// use sparseinfer_sparse::request::{GenerateRequest, Priority};
///
/// let req = GenerateRequest::new(&[1, 2, 3])
///     .max_new(32)
///     .stop_at(0)
///     .priority(Priority::High)
///     .sampler(Sampler::top_k(8, 0.7, 42));
/// assert_eq!(req.max_new, 32);
/// ```
#[derive(Debug, Clone)]
pub struct GenerateRequest {
    /// Prompt token ids (must be non-empty at run time).
    pub prompt: Vec<u32>,
    /// Maximum number of new tokens to generate.
    pub max_new: usize,
    /// Tokens that end the generation when sampled (e.g. EOS).
    pub stop: Vec<u32>,
    /// Sampling policy; `None` falls back to the engine's default sampler.
    pub sampler: Option<Sampler>,
    /// Scheduling priority class (admission order and preemption
    /// eligibility inside the scheduler; ignored by the single-request
    /// [`generate`] path).
    pub priority: Priority,
}

impl GenerateRequest {
    /// A request with a 16-token budget, no stop tokens, `Normal` priority
    /// and the engine's default sampler.
    pub fn new(prompt: &[u32]) -> Self {
        Self {
            prompt: prompt.to_vec(),
            max_new: 16,
            stop: Vec::new(),
            sampler: None,
            priority: Priority::Normal,
        }
    }

    /// Sets the new-token budget.
    pub fn max_new(mut self, max_new: usize) -> Self {
        self.max_new = max_new;
        self
    }

    /// Adds a stop token.
    pub fn stop_at(mut self, token: u32) -> Self {
        self.stop.push(token);
        self
    }

    /// Sets the sampling policy.
    pub fn sampler(mut self, sampler: Sampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Sets the scheduling priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// A finished generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generation {
    /// The generated tokens (stop token excluded).
    pub tokens: Vec<u32>,
    /// Why decoding stopped.
    pub finish: FinishReason,
}

/// One streamed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    /// Zero-based position in the generated continuation.
    pub index: usize,
    /// The token id.
    pub token: u32,
}

/// The per-request decode state machine.
///
/// Each [`advance`](RequestRun::advance) call performs exactly one model
/// step (a chunk of prompt tokens, or a decode *block*), which is the
/// granularity the batch scheduler interleaves at. A step that ends the
/// prompt samples the first token; a decode step emits between one and
/// `k + 1` [`TokenEvent`]s (plain engines emit exactly one, speculative
/// engines emit one per accepted draft plus the correction/bonus token),
/// collected via [`events`](Self::events); a step inside the prompt emits
/// none. Used directly only by the scheduler; normal callers go through
/// [`generate`] / [`generate_streaming`].
#[derive(Debug)]
pub struct RequestRun {
    prompt: Vec<u32>,
    fed: usize,
    /// Leading prompt positions whose KV arrived pre-computed from a
    /// prefix-cache hit. [`advance`](Self::advance) still *consumes* one
    /// call per cached position but performs no model work for them — so
    /// a scheduler tick spent on one costs the slots decoding beside it
    /// nothing. (A cold run's dense prefill may take several positions per
    /// step, so a warm run can need *more* steps than a cold one; its
    /// tokens are the same.)
    prefill_cached: usize,
    max_new: usize,
    stop: Vec<u32>,
    sampler: Sampler,
    session: DecodeSession,
    /// Scratch of the steps with prompt positions this run takes on its own
    /// ([`advance`](Self::advance)), and of their passes over more than one
    /// weight storage; both stay empty for a run the scheduler steps with
    /// its other slots.
    prefill: PrefillScratch,
    groups: StepGroups,
    /// Recycled logits buffer of the run's engine columns: the step that
    /// scores one writes here, and the run samples from it at once.
    logits: Vector,
    /// The sampled-but-not-yet-fed token decode feeds on its next tick:
    /// the acceptance loop always ends on a token whose KV the engine has
    /// not seen (the correction after a mismatch, or the bonus token after
    /// a fully accepted block).
    pending: Option<u32>,
    /// Recycled block-step buffer (draft proposals + verified logits).
    block: StepBlock,
    /// Tokens emitted by the most recent [`advance`](Self::advance) call,
    /// cleared at the start of the next — recycled, so steady-state decode
    /// allocates nothing at the request layer.
    events: Vec<TokenEvent>,
    tokens: Vec<u32>,
    /// Tokens this run must regenerate silently after a drop-and-recompute
    /// preemption: sampling re-derives them bit-identically (same seed,
    /// same prompt), and [`advance`](Self::advance) suppresses their
    /// [`TokenEvent`]s — the stream already delivered them before the
    /// preemption. Empty on a normal run.
    replay: Vec<u32>,
    finish: Option<FinishReason>,
}

impl RequestRun {
    /// Prepares a run of `req` on `engine` (fresh session, resolved
    /// sampler) over a **private** KV block pool: cache blocks are
    /// allocated lazily as tokens are produced — a request that stops at
    /// token three never paid for `prompt + max_new` positions of KV.
    /// Serving layers that multiplex many runs over one budgeted pool use
    /// [`with_kv_pool`](Self::with_kv_pool) instead.
    ///
    /// # Errors
    ///
    /// [`EngineError::EmptyPrompt`] if the prompt is empty.
    pub fn new(req: &GenerateRequest, engine: &dyn Engine) -> Result<Self, EngineError> {
        Self::with_kv_pool(req, engine, &KvBlockPool::new(DEFAULT_BLOCK_TOKENS))
    }

    /// Prepares a run whose session pages its KV storage out of `pool` —
    /// the entry point the continuous-batching
    /// [`Scheduler`](crate::scheduler::Scheduler) uses so every slot
    /// draws on one budgeted pool and returns its blocks at retirement.
    ///
    /// # Errors
    ///
    /// [`EngineError::EmptyPrompt`] if the prompt is empty.
    pub fn with_kv_pool(
        req: &GenerateRequest,
        engine: &dyn Engine,
        pool: &KvBlockPool,
    ) -> Result<Self, EngineError> {
        Self::with_prefix(req, engine, pool, None)
    }

    /// Prepares a pool-backed run whose session starts with the shared KV
    /// blocks of a prefix-cache hit, when one is given: the hit's
    /// positions are attached (aliased, not recomputed), and
    /// [`advance`](Self::advance) walks through them as **no-op prefill
    /// steps** — one call per position, zero model work. The run's tokens
    /// are bit-identical to the cold run's; the steps they arrive on are
    /// not (a cold run's dense prefill takes up to [`PREFILL_CHUNK`]
    /// positions per step). The saved prefill *compute* is the win,
    /// reported via [`prefill_skipped_tokens`](Self::prefill_skipped_tokens).
    ///
    /// The hit must come from an index keyed by this engine's model and
    /// this run's prompt tokens (the scheduler guarantees both), and must
    /// cover at most `prompt.len() - 1` positions — the densely prefilled
    /// region, which is all that is engine-independent.
    ///
    /// # Errors
    ///
    /// [`EngineError::EmptyPrompt`] if the prompt is empty.
    ///
    /// # Panics
    ///
    /// Panics if the hit covers the whole prompt or more (the final
    /// prompt token must go through the engine).
    pub fn with_prefix(
        req: &GenerateRequest,
        engine: &dyn Engine,
        pool: &KvBlockPool,
        prefix: Option<&PrefixHit>,
    ) -> Result<Self, EngineError> {
        Self::with_replay(req, engine, pool, prefix, Vec::new())
    }

    /// Prepares a pool-backed run that **recomputes** a preempted request:
    /// decoding restarts from the prompt (optionally warm through
    /// `prefix`), and the first `replay.len()` sampled tokens — which
    /// deterministic seeded sampling reproduces bit-identically — are
    /// regenerated *silently*: [`advance`](Self::advance) rebuilds their
    /// KV state but emits no [`TokenEvent`] for them, because the stream
    /// already delivered them before the preemption. Token events resume
    /// at index `replay.len()`, so a consumer sees one gapless stream.
    ///
    /// # Errors
    ///
    /// [`EngineError::EmptyPrompt`] if the prompt is empty.
    ///
    /// # Panics
    ///
    /// Panics if `replay` is not shorter than `max_new` (a run that
    /// exhausted its budget is finished and cannot be recomputed), or if
    /// the prefix hit covers the whole prompt.
    pub fn with_replay(
        req: &GenerateRequest,
        engine: &dyn Engine,
        pool: &KvBlockPool,
        prefix: Option<&PrefixHit>,
        replay: Vec<u32>,
    ) -> Result<Self, EngineError> {
        assert!(
            replay.is_empty() || replay.len() < req.max_new,
            "replay of {} tokens must stay under the {}-token budget",
            replay.len(),
            req.max_new
        );
        if req.prompt.is_empty() {
            return Err(EngineError::EmptyPrompt);
        }
        let prefill_cached = prefix.map_or(0, |hit| hit.tokens);
        assert!(
            prefill_cached < req.prompt.len(),
            "prefix hit ({prefill_cached} tokens) must stay within the densely \
             prefilled region of a {}-token prompt",
            req.prompt.len()
        );
        let sampler = req
            .sampler
            .clone()
            .unwrap_or_else(|| engine.default_sampler());
        Ok(Self {
            prompt: req.prompt.clone(),
            fed: 0,
            prefill_cached,
            max_new: req.max_new,
            stop: req.stop.clone(),
            sampler,
            // Lazy paged growth: blocks are allocated as tokens are
            // produced, never reserved for the whole budget up front. A
            // prefix hit attaches its shared blocks and starts the
            // session's position past them.
            session: match prefix {
                Some(hit) => engine.model().start_paged_session_with_prefix(pool, hit),
                None => engine.model().start_paged_session(pool),
            },
            prefill: PrefillScratch::new(),
            groups: StepGroups::default(),
            logits: Vector::zeros(0),
            pending: None,
            block: StepBlock::new(),
            events: Vec::new(),
            // The whole budget at once (capped at the model's sequence
            // length, so a client-chosen budget cannot size it): one
            // allocation instead of a doubling series, and a run that spends
            // its budget hands back a list holding no spare capacity.
            tokens: Vec::with_capacity(req.max_new.min(engine.model().config().max_seq_len)),
            replay,
            // A zero budget can produce nothing: finish immediately rather
            // than paying a full engine step whose logits are never
            // sampled.
            finish: if req.max_new == 0 {
                Some(FinishReason::MaxTokens)
            } else {
                None
            },
        })
    }

    /// Whether the run has finished.
    pub fn finished(&self) -> bool {
        self.finish.is_some()
    }

    /// Marks a still-running request as cancelled: the next
    /// [`advance`](Self::advance) is a no-op and retirement records
    /// [`FinishReason::Cancelled`] with the tokens produced so far. A run
    /// that already finished keeps its original reason.
    pub fn cancel(&mut self) {
        if self.finish.is_none() {
            self.finish = Some(FinishReason::Cancelled);
        }
    }

    /// Marks a still-running request as past its deadline: the next
    /// [`advance`](Self::advance) is a no-op and retirement records
    /// [`FinishReason::DeadlineExceeded`] with the tokens produced so far.
    /// A run that already finished keeps its original reason.
    pub fn expire(&mut self) {
        if self.finish.is_none() {
            self.finish = Some(FinishReason::DeadlineExceeded);
        }
    }

    /// Context tokens absorbed so far (prompt fed plus tokens decoded) —
    /// the quantity KV memory is proportional to under paged growth.
    pub fn context_len(&self) -> usize {
        self.session.context_len()
    }

    /// The tokens generated so far.
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// The prompt this run decodes from.
    pub fn prompt(&self) -> &[u32] {
        &self.prompt
    }

    /// Prompt positions attached from a prefix-cache hit instead of being
    /// prefilled — the per-request hit accounting
    /// ([`BatchOutput::prefill_skipped_tokens`](crate::scheduler::BatchOutput::prefill_skipped_tokens)).
    pub fn prefill_skipped_tokens(&self) -> usize {
        self.prefill_cached
    }

    /// Whether the densely prefilled prompt region (every prompt token but
    /// the last) has been fully absorbed — the point its full KV blocks
    /// become publishable to a
    /// [`PrefixIndex`](sparseinfer_model::kv::PrefixIndex): everything up
    /// to here depends only on the model weights and the token ids, never
    /// on the engine kind or sampler.
    pub fn dense_prefill_complete(&self) -> bool {
        self.fed + 1 >= self.prompt.len()
    }

    /// The session's per-layer KV caches — read access for prefix
    /// publication.
    pub fn kv_caches(&self) -> &[PagedKvCache] {
        &self.session.caches
    }

    /// The prompt positions the run's next dense-prefill step absorbs when
    /// allowed up to `limit`: empty unless the run is live, past its cached
    /// prefix and before its last prompt token (which is the engine's).
    fn dense_chunk(&self, limit: usize) -> std::ops::Range<usize> {
        let last = self.prompt.len() - 1;
        if self.finish.is_some() || self.fed < self.prefill_cached {
            return self.fed..self.fed;
        }
        self.fed..last.min(self.fed + limit)
    }

    /// Whether the run's next step feeds prompt tokens through dense
    /// prefill.
    pub(crate) fn next_is_dense_prefill(&self) -> bool {
        !self.dense_chunk(1).is_empty()
    }

    /// Whether the run's next step produces a token: it is live and every
    /// prompt token but at most the last is fed.
    pub(crate) fn awaits_token(&self) -> bool {
        self.finish.is_none() && self.dense_prefill_complete()
    }

    /// Lends out the run's session for its next plain model step, with the
    /// tokens that step feeds it — `None` (and nothing lent) while the run
    /// is finished or walking its cached prefix. The step takes up to
    /// `share` (at most [`PREFILL_CHUNK`]) prompt positions; with `scored`,
    /// the last prompt token joins them as the step's *engine column* once
    /// the rest of the prompt fits in `share`, and a decode step is the
    /// pending token alone, also an engine column. Without `scored` only
    /// dense positions are lent, and `None` once they are all fed.
    ///
    /// For an engine column the run's logits buffer is lent too: the caller
    /// feeds the tokens through [`Model::step`](sparseinfer_model::Model::step)
    /// (the last column being the engine's, its logits into the buffer),
    /// and hands session and buffer back through
    /// [`finish_step`](Self::finish_step). The pair replaces one
    /// [`advance`](Self::advance) call; until then the run has no session
    /// and must not be advanced.
    pub(crate) fn take_step(
        &mut self,
        share: usize,
        scored: bool,
    ) -> Option<(PromptChunk, DecodeSession, Option<Vector>)> {
        self.events.clear();
        let (fed, len) = (self.fed, self.prompt.len());
        let (tokens, scored) = if self.finish.is_some() || fed < self.prefill_cached {
            return None;
        } else if scored && fed < len && len - fed <= share {
            (&self.prompt[fed..], true)
        } else if fed + 1 < len {
            (&self.prompt[self.dense_chunk(share)], false)
        } else if let Some(pending) = self.pending.as_ref().filter(|_| scored) {
            (std::slice::from_ref(pending), true)
        } else {
            return None;
        };
        let logits = scored.then(|| std::mem::take(&mut self.logits));
        let session = std::mem::take(&mut self.session);
        Some((PromptChunk::new(tokens), session, logits))
    }

    /// Takes back what [`take_step`](Self::take_step) lent — the session,
    /// now the lent tokens longer, and for an engine column the logits it
    /// left — and completes the step: an engine column's logits are sampled
    /// at once, whether they follow the last prompt token or a decode
    /// token.
    ///
    /// # Errors
    ///
    /// As [`advance`](Self::advance).
    pub(crate) fn finish_step(
        &mut self,
        session: DecodeSession,
        logits: Option<Vector>,
    ) -> Result<(), EngineError> {
        debug_assert!(self.session.caches.is_empty(), "no session was lent");
        self.fed = session.context_len().min(self.prompt.len());
        self.session = session;
        let Some(logits) = logits else {
            return Ok(());
        };
        self.logits = logits;
        self.pending = None;
        self.sample()
    }

    /// Performs one step: feeds the next prompt tokens (up to
    /// [`PREFILL_CHUNK`] — a run advanced on its own has nothing waiting on
    /// its step — the last of them through the engine, sampling the first
    /// token), or decodes the next token block. Tokens emitted by this
    /// step (none inside the prompt, one to `k + 1` past it) are collected
    /// via [`events`](Self::events), which is cleared and refilled by every
    /// call.
    ///
    /// # Errors
    ///
    /// [`EngineError::EmptyVocab`] if the engine produced no logits to
    /// sample from; the run is then marked finished with
    /// [`FinishReason::Failed`] — a degenerate input fails one request, it
    /// does not abort a serving process. Tokens emitted earlier in the same
    /// failing block are kept.
    pub fn advance(&mut self, engine: &mut dyn Engine) -> Result<(), EngineError> {
        self.events.clear();
        if self.finish.is_some() {
            return Ok(());
        }
        if self.fed < self.prefill_cached {
            // This position's KV was attached from a prefix-cache hit:
            // consume the step without touching the model — the skipped
            // prefill work.
            self.fed += 1;
            return Ok(());
        }
        if let Some(stage) = engine.column_stage() {
            let mut stage = std::mem::take(stage);
            let stepped = self.step_alone(engine.model(), &mut stage);
            *engine.column_stage().expect("the stage was lent above") = stage;
            return stepped;
        }
        // An engine that steps alone: dense chunks through the bare model,
        // the last prompt token and each decode block through the engine.
        let last = self.prompt.len() - 1;
        if let Some((tokens, mut session, _)) = self.take_step(PREFILL_CHUNK, false) {
            let batch = &mut [(tokens, &mut session)];
            engine
                .model()
                .prefill_step(batch, &ThreadPool::single(), &mut self.prefill);
            self.finish_step(session, None)
        } else if self.fed == last {
            // Always a single-token step — drafting starts once decode owns
            // a sampled token to feed.
            engine.step_into(self.prompt[last], &mut self.session, &mut self.logits);
            self.fed += 1;
            self.sample()
        } else {
            let pending = self
                .pending
                .take()
                .expect("a live decoding run has a token to feed");
            self.decode_block(engine, pending)
        }
    }

    /// [`advance`](Self::advance) through the engine's lent `stage`: the
    /// scheduler's tick with this run as the only slot. A step of the engine
    /// column alone runs out of the stage's own scratch, as the engine's
    /// calls do; one with prompt positions out of the run's. So a lone run
    /// leaves the engine's scratch, and its memory estimate, as stepping
    /// through the engine's own calls would: a wrapper that lends no stage
    /// reports what the bare engine reports.
    fn step_alone(&mut self, model: &Model, stage: &mut ColumnStage) -> Result<(), EngineError> {
        let (tokens, session, mut logits) = self
            .take_step(PREFILL_CHUNK, true)
            .expect("a live run past its cached prefix has a step");
        let n = tokens.tokens().len();
        let scored = logits.is_some();
        if scored {
            stage.begin_column(model.config().hidden_dim, &session, n - 1);
        }
        let (mut own, pool) = (std::mem::take(&mut stage.step), stage.pool.clone());
        let scratch = if scored && n == 1 {
            &mut own
        } else {
            &mut self.prefill
        };
        let column = |c: usize| (scored && c == n - 1).then_some((0, 0));
        let mut hook = StepColumns::new(std::slice::from_mut(stage), column, &mut self.groups);
        let mut batch = [(tokens, session)];
        let wants = |c: usize| column(c).is_some();
        model.step(
            &mut batch,
            &mut hook,
            wants,
            logits.as_mut_slice(),
            &pool,
            scratch,
        );
        stage.step = own;
        let [(_, session)] = batch;
        self.finish_step(session, logits)
    }

    /// Samples the next token from the logits of the run's latest engine
    /// column: a stop token finishes the run, any other is emitted and —
    /// budget permitting — becomes the token decode feeds next.
    fn sample(&mut self) -> Result<(), EngineError> {
        let Some(next) = self.sampler.sample(&self.logits) else {
            return Err(self.fail(EngineError::EmptyVocab));
        };
        let next = next as u32;
        if self.stop.contains(&next) {
            self.finish = Some(FinishReason::Stop(next));
            return Ok(());
        }
        self.emit(next);
        if self.tokens.len() >= self.max_new {
            self.finish = Some(FinishReason::MaxTokens);
        } else {
            self.pending = Some(next);
        }
        Ok(())
    }

    /// One decode block: feeds `pending` (plus up to `limit - 1` draft
    /// proposals from a speculative engine), then samples the verified
    /// logits position by position, accepting the longest run of proposals
    /// that match what the sampler actually draws. Every emitted token is
    /// sampled from **verified** logits over exactly the context a
    /// non-speculative run would have fed — one sampler draw per emitted
    /// token, in the same order — so the token stream is bit-identical to
    /// plain decode. Rejected draft positions are rolled back out of the
    /// session via [`DecodeSession::truncate`].
    fn decode_block(&mut self, engine: &mut dyn Engine, pending: u32) -> Result<(), EngineError> {
        // Remaining budget bounds the block: `tokens.len() < max_new`
        // whenever a pending token exists, so `limit >= 1`, and the
        // engine feeds at most `limit` positions — KV stays within the
        // `prompt + max_new` worst case the scheduler admitted under.
        let limit = self.max_new - self.tokens.len();
        let base = self.session.context_len();
        engine.step_block_into(pending, &mut self.session, limit, &mut self.block);
        let proposals = self.block.proposals().len();
        let mut accepted = 0;
        for i in 0..=proposals {
            // `logits(0)` follows `pending`; `logits(i)` follows proposal
            // `i - 1` — sampling it decides whether proposal `i` (the
            // token the draft fed next) was what the sampler wanted.
            let Some(next) = self.sampler.sample(self.block.logits(i)) else {
                self.session.truncate(base + 1 + accepted);
                return Err(self.fail(EngineError::EmptyVocab));
            };
            let next = next as u32;
            if self.stop.contains(&next) {
                // The stop token is never emitted — exactly the plain
                // decode exit, regardless of what the draft proposed.
                self.finish = Some(FinishReason::Stop(next));
                break;
            }
            self.emit(next);
            let matched = i < proposals && next == self.block.proposals()[i];
            if matched {
                // The engine already fed this token as a draft position:
                // its KV (and verified logits) are in place.
                accepted += 1;
            }
            if self.tokens.len() >= self.max_new {
                self.finish = Some(FinishReason::MaxTokens);
                break;
            }
            if !matched {
                // Mismatch correction (i < proposals) or the bonus token
                // after a fully accepted block (i == proposals): either
                // way the engine has not seen this token — feed it next
                // tick.
                self.pending = Some(next);
                break;
            }
        }
        engine.note_accepted(accepted);
        // Drop the rejected draft positions so the context is exactly the
        // accepted tokens — a later preemption, prefix publication or swap
        // never observes speculative KV.
        self.session.truncate(base + 1 + accepted);
        Ok(())
    }

    /// Records a sampled token: appends it to the output and emits its
    /// [`TokenEvent`] unless the token replays a preemption-recomputed
    /// position (already delivered before the preemption).
    fn emit(&mut self, token: u32) {
        let index = self.tokens.len();
        self.tokens.push(token);
        if index < self.replay.len() {
            debug_assert_eq!(
                token, self.replay[index],
                "deterministic recompute diverged at replay index {index}"
            );
            return;
        }
        self.events.push(TokenEvent { index, token });
    }

    /// The tokens emitted by the most recent [`advance`](Self::advance)
    /// call, in sample order: empty for prefill steps, one to `k + 1`
    /// events for decode steps.
    pub fn events(&self) -> &[TokenEvent] {
        &self.events
    }

    /// Swaps the session's KV caches out to cold buffers, one per layer:
    /// block contents are copied, every block handle is released (private
    /// storage returns to the pool immediately), and the run is frozen
    /// until [`restore_kv`](Self::restore_kv) — sampler state, pending
    /// logits and produced tokens all stay in place, so a restored run
    /// continues exactly where it stopped.
    pub fn swap_out_kv(&mut self) -> Vec<SwappedKvCache> {
        self.session
            .caches
            .iter_mut()
            .map(PagedKvCache::swap_out)
            .collect()
    }

    /// Restores previously swapped-out KV caches into freshly allocated
    /// private blocks — the inverse of [`swap_out_kv`](Self::swap_out_kv),
    /// bit-identical contents included.
    ///
    /// # Panics
    ///
    /// Panics if `swapped` does not hold one buffer per layer, or if the
    /// caches are not empty (double restore).
    pub fn restore_kv(&mut self, swapped: &[SwappedKvCache]) {
        assert_eq!(
            swapped.len(),
            self.session.caches.len(),
            "one cold buffer per layer"
        );
        for (cache, cold) in self.session.caches.iter_mut().zip(swapped) {
            cache.restore(cold);
        }
    }

    /// Bytes of KV content currently held across the session's caches —
    /// the cold-buffer size a swap-out of this run would produce.
    pub fn kv_content_bytes(&self) -> u64 {
        self.session
            .caches
            .iter()
            .map(PagedKvCache::content_bytes)
            .sum()
    }

    /// Block handles currently held across the session's caches (shared
    /// prefix attachments included).
    pub fn kv_blocks_held(&self) -> usize {
        self.session
            .caches
            .iter()
            .map(PagedKvCache::blocks_held)
            .sum()
    }

    /// Marks the run finished with a failure and hands the error back for
    /// propagation.
    fn fail(&mut self, error: EngineError) -> EngineError {
        self.finish = Some(FinishReason::Failed(error));
        error
    }

    /// Consumes the run into its result.
    ///
    /// # Panics
    ///
    /// Panics if the run has not finished.
    pub fn into_generation(self) -> Generation {
        Generation {
            tokens: self.tokens,
            finish: self.finish.expect("run must be finished"),
        }
    }
}

/// Runs `req` to completion on `engine`.
///
/// # Errors
///
/// [`EngineError::EmptyPrompt`] if the prompt is empty;
/// [`EngineError::EmptyVocab`] if decoding fails on a degenerate engine (no
/// logits to sample from).
pub fn generate(engine: &mut dyn Engine, req: &GenerateRequest) -> Result<Generation, EngineError> {
    generate_streaming(engine, req, |_| {})
}

/// Runs `req` to completion, invoking `on_token` for every generated token
/// as soon as it is sampled — the serving-style streaming interface.
///
/// # Errors
///
/// [`EngineError::EmptyPrompt`] if the prompt is empty;
/// [`EngineError::EmptyVocab`] if decoding fails on a degenerate engine (no
/// logits to sample from).
pub fn generate_streaming(
    engine: &mut dyn Engine,
    req: &GenerateRequest,
    mut on_token: impl FnMut(TokenEvent),
) -> Result<Generation, EngineError> {
    let mut run = RequestRun::new(req, engine)?;
    while !run.finished() {
        run.advance(engine)?;
        for event in run.events() {
            on_token(*event);
        }
    }
    Ok(run.into_generation())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use sparseinfer_model::generator::WeightGenerator;
    use sparseinfer_model::{Model, ModelConfig};
    use sparseinfer_predictor::AlphaSchedule;

    fn model() -> Model {
        WeightGenerator::new(&ModelConfig::tiny(), 7).build()
    }

    #[test]
    fn empty_prompt_is_an_error() {
        let m = model();
        let mut e = EngineBuilder::new(&m).build().unwrap();
        let err = generate(e.as_mut(), &GenerateRequest::new(&[])).unwrap_err();
        assert_eq!(err, EngineError::EmptyPrompt);
    }

    #[test]
    fn greedy_request_matches_model_generate_greedy() {
        let m = model();
        let mut e = EngineBuilder::new(&m).build().unwrap();
        let req = GenerateRequest::new(&[1, 2, 3])
            .max_new(6)
            .stop_at(u32::MAX);
        let got = generate(e.as_mut(), &req).unwrap();
        assert_eq!(got.tokens, m.generate_greedy(&[1, 2, 3], 6, u32::MAX));
        assert_eq!(got.finish, FinishReason::MaxTokens);
    }

    #[test]
    fn streaming_sees_every_token_in_order() {
        let m = model();
        let mut e = EngineBuilder::new(&m)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap();
        let req = GenerateRequest::new(&[2, 4]).max_new(5);
        let mut streamed = Vec::new();
        let gen = generate_streaming(e.as_mut(), &req, |ev| {
            assert_eq!(ev.index, streamed.len());
            streamed.push(ev.token);
        })
        .unwrap();
        assert_eq!(streamed, gen.tokens);
        assert_eq!(streamed.len(), 5);
    }

    #[test]
    fn stop_token_finishes_and_is_excluded() {
        let m = model();
        let mut e = EngineBuilder::new(&m).build().unwrap();
        // Find what greedy decoding emits first, then declare it a stop.
        let first = generate(e.as_mut(), &GenerateRequest::new(&[1]).max_new(1))
            .unwrap()
            .tokens[0];
        let gen = generate(
            e.as_mut(),
            &GenerateRequest::new(&[1]).max_new(8).stop_at(first),
        )
        .unwrap();
        assert!(gen.tokens.is_empty());
        assert_eq!(gen.finish, FinishReason::Stop(first));
    }

    #[test]
    fn zero_budget_generates_nothing() {
        let m = model();
        let mut e = EngineBuilder::new(&m).build().unwrap();
        let gen = generate(e.as_mut(), &GenerateRequest::new(&[5, 6]).max_new(0)).unwrap();
        assert!(gen.tokens.is_empty());
        assert_eq!(gen.finish, FinishReason::MaxTokens);
    }

    /// An engine that advances the session but never produces logits — the
    /// degenerate case that used to abort via `expect("nonzero vocab")`.
    #[derive(Debug)]
    struct EmptyLogitsEngine<'m> {
        model: &'m Model,
        ops: crate::ops::OpCounter,
    }

    impl Engine for EmptyLogitsEngine<'_> {
        fn model(&self) -> &Model {
            self.model
        }

        fn score_block_into(
            &mut self,
            tokens: &[u32],
            session: &mut sparseinfer_model::model::DecodeSession,
            logits: &mut [Vector],
        ) {
            assert_eq!(tokens.len(), logits.len(), "one logit vector per token");
            session.position += tokens.len();
            for out in logits {
                *out = Vector::zeros(0);
            }
        }

        fn ops(&self) -> &crate::ops::OpCounter {
            &self.ops
        }

        fn reset_ops(&mut self) {}

        fn name(&self) -> &str {
            "empty-logits"
        }
    }

    #[test]
    fn empty_logits_surface_as_engine_error_not_panic() {
        let m = model();
        let mut e = EmptyLogitsEngine {
            model: &m,
            ops: crate::ops::OpCounter::default(),
        };
        let err = generate(&mut e, &GenerateRequest::new(&[1, 2]).max_new(4)).unwrap_err();
        assert_eq!(err, EngineError::EmptyVocab);
        // Streaming takes the same exit.
        let err =
            generate_streaming(&mut e, &GenerateRequest::new(&[9]).max_new(2), |_| {}).unwrap_err();
        assert_eq!(err, EngineError::EmptyVocab);
    }

    #[test]
    fn failed_run_records_the_finish_reason() {
        let m = model();
        let mut e = EmptyLogitsEngine {
            model: &m,
            ops: crate::ops::OpCounter::default(),
        };
        let mut run = RequestRun::new(&GenerateRequest::new(&[1]).max_new(4), &e).unwrap();
        while !run.finished() {
            if run.advance(&mut e).is_err() {
                break;
            }
        }
        assert!(run.finished(), "a failed run is finished");
        assert_eq!(
            run.into_generation().finish,
            FinishReason::Failed(EngineError::EmptyVocab)
        );
    }

    #[test]
    fn seeded_sampling_requests_are_reproducible() {
        let m = model();
        let mut e = EngineBuilder::new(&m).build().unwrap();
        let req = GenerateRequest::new(&[3, 1])
            .max_new(8)
            .sampler(Sampler::temperature(1.0, 99));
        let a = generate(e.as_mut(), &req).unwrap();
        let b = generate(e.as_mut(), &req).unwrap();
        assert_eq!(a, b, "same request, same seed, same tokens");
    }
}
