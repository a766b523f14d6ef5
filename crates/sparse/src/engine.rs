//! The unified serving-grade engine API.
//!
//! One object-safe [`Engine`] trait fronts every way this workspace can run
//! a model — dense (the llama.cpp baseline) or sparse under any
//! [`SparsityPredictor`] (sign-bit, DejaVu-style trained, oracle, random) —
//! and one [`EngineBuilder`] constructs them all. Behind the trait there is
//! **one** execution core: the gated MLP of every layer runs under a skip
//! mask, dense is the all-active mask of an engine built without a
//! predictor, and the weight storage (`f32` or int8) only selects which
//! monomorphized instance of the one generic executor
//! ([`sparse_mlp_forward_into`]) a layer calls. The only other
//! `impl Engine` is the [`SpeculativeEngine`] that pairs two such engines.
//!
//! ```
//! use sparseinfer_model::{generator::WeightGenerator, ModelConfig, Sampler};
//! use sparseinfer_predictor::AlphaSchedule;
//! use sparseinfer_sparse::engine::EngineBuilder;
//! use sparseinfer_sparse::request::{generate, GenerateRequest};
//!
//! let model = WeightGenerator::new(&ModelConfig::tiny(), 42).build();
//!
//! // Dense baseline: a builder with no predictor.
//! let mut dense = EngineBuilder::new(&model).build().unwrap();
//!
//! // SparseInfer: the training-free sign-bit predictor.
//! let mut sparse = EngineBuilder::new(&model)
//!     .signbit(AlphaSchedule::uniform(1.0))
//!     .sampler(Sampler::greedy())
//!     .build()
//!     .unwrap();
//!
//! let req = GenerateRequest::new(&[1, 2, 3]).max_new(8);
//! let a = generate(dense.as_mut(), &req).unwrap();
//! let b = generate(sparse.as_mut(), &req).unwrap();
//! assert_eq!(a.tokens.len(), 8);
//! assert_eq!(b.tokens.len(), 8);
//! println!("sparse skipped {} rows", sparse.ops().rows_skipped);
//! ```
//!
//! The trait is deliberately small: [`Engine::score_block_into`] — the one
//! required decode entry point — teacher-forces a token run through one
//! [`DecodeSession`] and writes per-position logits into caller-owned
//! buffers (the allocation-free decode hot path; [`Engine::step_into`] is
//! its k = 1 case, and [`Engine::step_block_into`] layers optional
//! speculative drafting on top — see [`SpeculativeEngine`]). Everything
//! above it —
//! sampling policies, [`GenerateRequest`](crate::request::GenerateRequest)s,
//! streaming callbacks, and the continuous-batching
//! [`Scheduler`](crate::scheduler::Scheduler) that admits, interleaves and
//! retires many concurrent sessions — composes against `&mut dyn Engine`,
//! so batching, sharding and async layers can be added without touching
//! the execution cores.
//!
//! # Hot-path architecture
//!
//! * **Workspace reuse** — every engine owns a
//!   [`Workspace`], a per-session
//!   [`PredictorScratch`] and two recycled [`SkipMask`]s; with a
//!   capacity-reserved session, a steady-state decode step performs **zero
//!   heap allocations** (proven by the workspace allocation-guard test).
//! * **Thread parallelism** — [`EngineBuilder::parallel`] plumbs a
//!   [`ParallelOptions`] thread count into every GEMV/down-projection;
//!   outputs are bit-identical at any thread count because each output
//!   element has a single writer and a fixed reduction order.
//! * **Shared predictors** — predictors sit behind `Arc`, so a
//!   [`Scheduler`](crate::scheduler::Scheduler) of N sessions loads one copy of the
//!   packed sign tables (or DejaVu weights): batch memory is O(1) in
//!   in-flight requests (see [`MemoryEstimate`]), while per-slot
//!   [`OpCounter`]/[`SparsityStats`]/sampler state stays isolated.
//!
//! Engines accumulate [`OpCounter`] statistics and per-layer sparsity so
//! the benchmark harness can hand *measured* masks and traffic to the GPU
//! cost model. Construction errors ([`EngineError`]) are values, not
//! panics: a layer-count mismatch between predictor and model comes back as
//! `Err`, the contract a serving frontend needs.

use std::sync::Arc;

use sparseinfer_model::model::DecodeSession;
use sparseinfer_model::sampling::Sampler;
use sparseinfer_model::Model;
use sparseinfer_predictor::{
    AlphaSchedule, DejaVuPredictor, OraclePredictor, PredictorScratch, RandomPredictor,
    SignBitPredictor, SkipMask, SparsityPredictor,
};
use sparseinfer_tensor::{ParallelOptions, ThreadPool, Vector, Workspace};

use crate::error::EngineError;
use crate::mlp::{sparse_mlp_forward_into, MlpOptions};
use crate::ops::OpCounter;
use crate::quantized::FusedQuantizedMlp;

/// MLP weight storage format executed by an engine.
///
/// `F32` reads the model's own matrices; `Int8` executes a block-quantized
/// copy (one scale per 32 columns) through the same generic kernels, whose
/// int8 instance dequantizes inside the reduction and loads one byte per
/// weight instead of four. Either way, decode is
/// bit-identical to its own solo run at every thread count — quantization
/// perturbs *values* once at weight-prep time, never the reduction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WeightFormat {
    /// Full-precision `f32` — the model's own matrices.
    #[default]
    F32,
    /// Block-quantized INT8 via [`QuantizedWeights`].
    Int8,
}

impl WeightFormat {
    /// Short stable name for flags and stats ("f32" / "int8").
    pub fn label(self) -> &'static str {
        match self {
            WeightFormat::F32 => "f32",
            WeightFormat::Int8 => "int8",
        }
    }
}

/// One model's MLP weights quantized to block-INT8 — the weight analogue
/// of a shared predictor. Build once at load time, share across engines
/// via `Arc` ([`EngineBuilder::quantized_shared`]) so a batch of N slots
/// holds one INT8 copy, not N.
#[derive(Debug)]
pub struct QuantizedWeights {
    layers: Vec<FusedQuantizedMlp>,
}

impl QuantizedWeights {
    /// Quantizes every layer's gate/up/down matrices (one-time, at load).
    pub fn quantize(model: &Model) -> Self {
        Self {
            layers: model
                .layers()
                .iter()
                .map(|l| FusedQuantizedMlp::quantize(l.mlp()))
                .collect(),
        }
    }

    /// Per-layer quantized MLP blocks, in model layer order.
    pub fn layers(&self) -> &[FusedQuantizedMlp] {
        &self.layers
    }

    /// Total INT8 payload bytes (values plus block scales) — the shrunken
    /// weight footprint [`MemoryEstimate::weight_bytes`] reports.
    pub fn size_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.size_bytes() as u64).sum()
    }

    fn fits(&self, model: &Model) -> bool {
        self.layers.len() == model.layers().len()
            && self.layers.iter().zip(model.layers()).all(|(q, l)| {
                q.mlp_dim() == l.mlp().mlp_dim() && q.hidden_dim() == l.mlp().hidden_dim()
            })
    }
}

/// Per-engine execution options (the paper's Fig. 4 variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// MLP execution switches.
    pub mlp: MlpOptions,
}

impl EngineOptions {
    /// Full SparseInfer configuration: kernel fusion + actual sparsity.
    pub fn sparseinfer() -> Self {
        Self {
            mlp: MlpOptions {
                kernel_fusion: true,
                actual_sparsity: true,
            },
        }
    }

    /// Base variant: prediction only, no fusion, no actual sparsity.
    pub fn base() -> Self {
        Self {
            mlp: MlpOptions {
                kernel_fusion: false,
                actual_sparsity: false,
            },
        }
    }

    /// Base + kernel fusion.
    pub fn with_kernel_fusion() -> Self {
        Self {
            mlp: MlpOptions {
                kernel_fusion: true,
                actual_sparsity: false,
            },
        }
    }

    /// Base + actual sparsity.
    pub fn with_actual_sparsity() -> Self {
        Self {
            mlp: MlpOptions {
                kernel_fusion: false,
                actual_sparsity: true,
            },
        }
    }
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self::sparseinfer()
    }
}

/// Accumulated per-layer sparsity statistics of a decode run.
#[derive(Debug, Clone, Default)]
pub struct SparsityStats {
    predicted_sum: Vec<f64>,
    effective_sum: Vec<f64>,
    tokens: u64,
}

impl SparsityStats {
    fn new(n_layers: usize) -> Self {
        Self {
            predicted_sum: vec![0.0; n_layers],
            effective_sum: vec![0.0; n_layers],
            tokens: 0,
        }
    }

    /// Mean predicted sparsity per layer.
    pub fn mean_predicted(&self) -> Vec<f64> {
        self.means(&self.predicted_sum)
    }

    /// Mean effective (predicted ∪ actual) sparsity per layer.
    pub fn mean_effective(&self) -> Vec<f64> {
        self.means(&self.effective_sum)
    }

    /// Number of tokens recorded.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Merges another run's statistics into this one (token-weighted, so
    /// the means stay means over the union of tokens). An empty accumulator
    /// adopts the other side's layer count.
    ///
    /// # Panics
    ///
    /// Panics if both sides are non-empty and cover different layer counts.
    pub fn merge(&mut self, other: &SparsityStats) {
        if other.tokens == 0 {
            return;
        }
        if self.tokens == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.predicted_sum.len(),
            other.predicted_sum.len(),
            "cannot merge stats over different layer counts"
        );
        for (a, b) in self.predicted_sum.iter_mut().zip(&other.predicted_sum) {
            *a += b;
        }
        for (a, b) in self.effective_sum.iter_mut().zip(&other.effective_sum) {
            *a += b;
        }
        self.tokens += other.tokens;
    }

    fn means(&self, sums: &[f64]) -> Vec<f64> {
        if self.tokens == 0 {
            return vec![0.0; sums.len()];
        }
        sums.iter().map(|s| s / self.tokens as f64).collect()
    }
}

/// Split memory footprint of one engine: state that can be shared across
/// concurrent sessions versus state every session must own.
///
/// The split is what makes the ROADMAP's batch-memory story measurable:
/// `Scheduler::memory_estimate` counts `shared_bytes` once per *distinct*
/// predictor (deduplicated by `Arc` identity) and `per_session_bytes` once
/// per slot, so a 32-slot batch over one shared predictor costs
/// `shared + 32·per_session` instead of `32·(shared + per_session)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Bytes of shared, read-only state (packed sign tables, DejaVu
    /// weights, oracle gate copies, quantized weight copies). Zero for
    /// the plain dense baseline.
    pub shared_bytes: u64,
    /// Of `shared_bytes`, how much is quantized MLP weight payload —
    /// zero under [`WeightFormat::F32`] (the engine reads the model's own
    /// matrices, accounted with the model), the INT8 copy's bytes (~¼ of
    /// the f32 matrices) under [`WeightFormat::Int8`]. A subcomponent,
    /// not an addend: [`total`](Self::total) must not add it again.
    pub weight_bytes: u64,
    /// Bytes of per-session state (scratch buffers, masks, workspace pool,
    /// statistics). Model weights and KV caches are accounted elsewhere.
    pub per_session_bytes: u64,
    /// Bytes of cold KV buffers held by swapped-out preempted requests
    /// (see [`Scheduler::preemption_stats`](crate::scheduler::Scheduler::preemption_stats)).
    /// Counted separately from the pool so swap-out can never hide
    /// memory from the estimate. Always zero for a single engine.
    pub swapped_bytes: u64,
}

impl MemoryEstimate {
    /// Shared plus per-session plus swapped-out bytes.
    pub fn total(&self) -> u64 {
        self.shared_bytes + self.per_session_bytes + self.swapped_bytes
    }
}

/// Lifetime draft/accept counters of a speculative engine.
///
/// `drafted` counts proposals put forward by the draft engine; `accepted`
/// counts those confirmed by dense verification. The ratio is the
/// *acceptance rate* — the knob-quality signal of speculative decoding
/// (tokens are bit-identical to dense-only decode regardless; acceptance
/// only decides how much dense work each verified block amortizes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculativeStats {
    /// Draft tokens proposed.
    pub drafted: u64,
    /// Draft tokens confirmed by the verifier and emitted.
    pub accepted: u64,
}

impl SpeculativeStats {
    /// `accepted / drafted` (0 when nothing was drafted).
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted == 0 {
            0.0
        } else {
            self.accepted as f64 / self.drafted as f64
        }
    }

    /// Adds another counter pair into this one.
    pub fn merge(&mut self, other: &SpeculativeStats) {
        self.drafted += other.drafted;
        self.accepted += other.accepted;
    }
}

/// One block-decode step's outputs, recycled across calls.
///
/// Holds the draft proposals and one verified logit vector per fed
/// position: `logits(0)` follows the fed token, `logits(i)` follows
/// `proposals()[i - 1]`. Buffers are grow-only — vectors keep their
/// allocations between steps, so steady-state block decode stays
/// allocation-free.
#[derive(Debug, Default)]
pub struct StepBlock {
    proposals: Vec<u32>,
    logits: Vec<Vector>,
    /// Logit vectors valid this step (`proposals.len() + 1`).
    scored: usize,
}

impl StepBlock {
    /// An empty block buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the proposals and makes exactly `slots` logit vectors
    /// addressable, reusing prior allocations.
    pub fn reset(&mut self, slots: usize) {
        self.proposals.clear();
        if self.logits.len() < slots {
            self.logits.resize_with(slots, || Vector::zeros(0));
        }
        self.scored = slots;
    }

    /// Records one draft proposal (in draft order).
    ///
    /// # Panics
    ///
    /// Panics if the proposal would outnumber the logit slots reserved by
    /// [`reset`](Self::reset).
    pub fn push_proposal(&mut self, token: u32) {
        assert!(
            self.proposals.len() + 1 < self.scored,
            "proposals must leave one logit slot for the fed token"
        );
        self.proposals.push(token);
    }

    /// Shrinks the addressable logit slots to `slots` (when fewer
    /// proposals materialized than were reserved for).
    pub fn truncate_scored(&mut self, slots: usize) {
        debug_assert!(slots > self.proposals.len(), "one slot per fed position");
        self.scored = self.scored.min(slots);
    }

    /// The draft proposals of this step, in order (empty for
    /// non-speculative engines).
    pub fn proposals(&self) -> &[u32] {
        &self.proposals
    }

    /// The verified logits after the `i`-th fed position (`0` is the fed
    /// token, `i >= 1` is proposal `i - 1`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is past the scored positions.
    pub fn logits(&self, i: usize) -> &Vector {
        assert!(
            i < self.scored,
            "position {i} not scored (of {})",
            self.scored
        );
        &self.logits[i]
    }

    /// Mutable access to every scored logit slot, for engines filling the
    /// block.
    pub fn logits_mut(&mut self) -> &mut [Vector] {
        &mut self.logits[..self.scored]
    }
}

/// One decode-capable execution configuration of a model.
///
/// Object-safe on purpose: the request layer, the eval harness and the
/// [`Scheduler`](crate::scheduler::Scheduler) all drive `&mut dyn Engine` /
/// `Box<dyn Engine>`, so dense and sparse configurations mix freely in one
/// scheduler. `Send` is a supertrait so the scheduler can advance
/// independent sessions on worker threads.
pub trait Engine: std::fmt::Debug + Send {
    /// The model this engine executes.
    fn model(&self) -> &Model;

    /// Teacher-forced scoring over a token run — the **one** required
    /// decode entry point. Feeds `tokens[i]` at position
    /// `session.position + i` and writes the logits following it into
    /// `logits[i]` (resized in place); the session advances by
    /// `tokens.len()` positions. Single-token stepping is the
    /// `tokens.len() == 1` case, and speculative verification is one call
    /// over `[fed token, draft₁, …, draftₖ]` — every position's logits are
    /// bit-identical to feeding the same run one
    /// [`step_into`](Self::step_into) at a time. With a capacity-reserved
    /// session and recycled `logits` buffers, a warm engine performs zero
    /// heap allocations per call (existing workspaces are reused across
    /// positions).
    ///
    /// # Panics
    ///
    /// Implementations panic if `tokens.len() != logits.len()`.
    fn score_block_into(
        &mut self,
        tokens: &[u32],
        session: &mut DecodeSession,
        logits: &mut [Vector],
    );

    /// Advances `session` by one token, writing the logits into `logits`
    /// (resized in place) — the k = 1 case of
    /// [`score_block_into`](Self::score_block_into).
    fn step_into(&mut self, token: u32, session: &mut DecodeSession, logits: &mut Vector) {
        self.score_block_into(
            std::slice::from_ref(&token),
            session,
            std::slice::from_mut(logits),
        );
    }

    /// Advances `session` by one token and returns the logits — convenience
    /// wrapper over the block API (allocates the returned buffer).
    fn step(&mut self, token: u32, session: &mut DecodeSession) -> Vector {
        let mut logits = Vector::zeros(0);
        self.step_into(token, session, &mut logits);
        logits
    }

    /// One block-decode step: feeds `token`, optionally drafts up to
    /// `limit - 1` speculative proposals, and scores every fed position,
    /// leaving `out` with the proposals and one logit vector per fed
    /// position (`out.logits(0)` follows `token`, `out.logits(i)` follows
    /// `out.proposals()[i - 1]`). The session advances by
    /// `1 + out.proposals().len()` positions; the **caller** samples
    /// acceptance and rolls rejected positions back via
    /// [`DecodeSession::truncate`]. `limit` is the caller's remaining
    /// token budget (`>= 1`); the default implementation never drafts —
    /// plain engines behave exactly like single-token stepping.
    fn step_block_into(
        &mut self,
        token: u32,
        session: &mut DecodeSession,
        limit: usize,
        out: &mut StepBlock,
    ) {
        debug_assert!(limit >= 1, "a block step must be allowed one token");
        let _ = limit;
        out.reset(1);
        self.score_block_into(std::slice::from_ref(&token), session, out.logits_mut());
    }

    /// Feedback from the acceptance loop: how many of the last block's
    /// proposals were accepted. Non-speculative engines ignore it.
    fn note_accepted(&mut self, accepted: usize) {
        let _ = accepted;
    }

    /// Accumulated draft/accept counters; `None` for engines that never
    /// draft.
    fn speculative_stats(&self) -> Option<SpeculativeStats> {
        None
    }

    /// The accumulated operation counts.
    fn ops(&self) -> &OpCounter;

    /// Resets counters and sparsity statistics.
    fn reset_ops(&mut self);

    /// Accumulated sparsity statistics; `None` for engines that never skip
    /// (the dense baseline).
    fn stats(&self) -> Option<&SparsityStats> {
        None
    }

    /// The sampler requests fall back to when they don't carry their own
    /// (set via [`EngineBuilder::sampler`]).
    fn default_sampler(&self) -> Sampler {
        Sampler::greedy()
    }

    /// Shared-vs-per-session memory footprint of this engine's execution
    /// state (excluding model weights and KV caches).
    fn memory_estimate(&self) -> MemoryEstimate {
        MemoryEstimate::default()
    }

    /// Identity of the shared predictor state, if any — the same value for
    /// engines sharing one `Arc`ed predictor, used by
    /// [`Scheduler::memory_estimate`](crate::scheduler::Scheduler::memory_estimate)
    /// to count shared bytes once.
    fn shared_state_id(&self) -> Option<usize> {
        None
    }

    /// The MLP weight storage format this engine executes. Speculative
    /// engines report their *draft's* format (the sparse hot path; the
    /// verifier's is visible through its own engine).
    fn weight_format(&self) -> WeightFormat {
        WeightFormat::F32
    }

    /// Short, stable configuration name for printouts.
    fn name(&self) -> &str;
}

/// The one non-speculative engine: the gated MLP of every layer runs under
/// a skip mask, and *dense* is the case with no predictor.
///
/// With a predictor, each layer's mask is predicted per token and the MLP
/// runs under the configured [`EngineOptions`]. Without one, the mask is
/// all-active and the options are the base ones (no fusion, no actual
/// sparsity) — the llama.cpp baseline, exactly the seed's
/// `dense_mlp_forward`. Weight storage is orthogonal: either case reads
/// the model's own `f32` matrices or a shared [`QuantizedWeights`] copy.
///
/// The predictor and the quantized weights sit behind `Arc`s and are
/// **read-only**: any number of engines (batch slots) share one copy, while
/// each engine owns the mutable per-session pieces — scratch buffers,
/// masks, workspace, counters, sampler.
#[derive(Debug)]
struct MaskedEngine<'m> {
    model: &'m Model,
    predictor: Option<Arc<dyn SparsityPredictor>>,
    /// Base options when there is no predictor.
    options: MlpOptions,
    ops: OpCounter,
    /// `Some` exactly when there is a predictor.
    stats: Option<SparsityStats>,
    sampler: Sampler,
    label: String,
    pool: ThreadPool,
    ws: Workspace,
    scratch: PredictorScratch,
    /// The predicted mask, or the all-active one.
    mask: SkipMask,
    effective: SkipMask,
    quantized: Option<Arc<QuantizedWeights>>,
}

impl Engine for MaskedEngine<'_> {
    fn model(&self) -> &Model {
        self.model
    }

    fn score_block_into(
        &mut self,
        tokens: &[u32],
        session: &mut DecodeSession,
        logits: &mut [Vector],
    ) {
        assert_eq!(tokens.len(), logits.len(), "one logit vector per token");
        let model = self.model;
        for (&token, out) in tokens.iter().zip(logits.iter_mut()) {
            let mut h = self.ws.take(model.config().hidden_dim);
            model.embed_into(token, &mut h);
            for (li, (layer, cache)) in model
                .layers()
                .iter()
                .zip(session.caches.iter_mut())
                .enumerate()
            {
                let mid =
                    layer.attention_half_ws(&h, session.position, cache, &self.pool, &mut self.ws);
                account_attention(&mut self.ops, layer.hidden_dim(), cache.len());
                let mut x = self.ws.take(layer.hidden_dim());
                layer.mlp_norm().forward_into(&mid, &mut x);

                match &self.predictor {
                    Some(predictor) => {
                        predictor.predict_into(li, &x, &mut self.scratch, &mut self.mask);
                        let cost = predictor.prediction_cost(li);
                        self.ops.xor_popc += cost.xor_popc;
                        self.ops.predictor_macs += cost.macs;
                        self.ops.weight_bytes_loaded += cost.bytes_loaded;
                    }
                    None => {
                        if self.mask.len() != layer.mlp().mlp_dim() {
                            self.mask.reset_dense(layer.mlp().mlp_dim());
                        }
                    }
                }

                // The storage format picks the monomorphized executor once
                // per MLP call; nothing below this match dispatches on it.
                let (predicted, effective) = match &self.quantized {
                    Some(q) => sparse_mlp_forward_into(
                        &q.layers()[li],
                        &x,
                        &self.mask,
                        self.options,
                        &self.pool,
                        &mut self.ws,
                        &mut self.effective,
                        &mut self.ops,
                        &mut h,
                    ),
                    None => sparse_mlp_forward_into(
                        layer.mlp(),
                        &x,
                        &self.mask,
                        self.options,
                        &self.pool,
                        &mut self.ws,
                        &mut self.effective,
                        &mut self.ops,
                        &mut h,
                    ),
                };
                if let Some(stats) = &mut self.stats {
                    stats.predicted_sum[li] += predicted;
                    stats.effective_sum[li] += effective;
                }

                self.ws.give(x);
                h.add_assign(&mid);
                self.ws.give(mid);
            }
            if let Some(stats) = &mut self.stats {
                stats.tokens += 1;
            }
            session.position += 1;
            model.logits_into(&h, &self.pool, &mut self.ws, out);
            self.ws.give(h);
        }
    }

    fn ops(&self) -> &OpCounter {
        &self.ops
    }

    fn reset_ops(&mut self) {
        self.ops = OpCounter::default();
        if let Some(stats) = &mut self.stats {
            *stats = SparsityStats::new(self.model.layers().len());
        }
    }

    fn stats(&self) -> Option<&SparsityStats> {
        self.stats.as_ref()
    }

    fn default_sampler(&self) -> Sampler {
        self.sampler.clone()
    }

    fn memory_estimate(&self) -> MemoryEstimate {
        let weight_bytes = self.quantized.as_ref().map_or(0, |q| q.size_bytes());
        let predictor_bytes = self.predictor.as_ref().map_or(0, |p| p.memory_bytes());
        let stats_bytes = self
            .stats
            .as_ref()
            .map_or(0, |s| s.predicted_sum.len() as u64 * 16);
        MemoryEstimate {
            shared_bytes: predictor_bytes + weight_bytes,
            weight_bytes,
            per_session_bytes: self.ws.pooled_bytes()
                + self.scratch.memory_bytes()
                + mask_bytes(&self.mask)
                + mask_bytes(&self.effective)
                + stats_bytes,
            swapped_bytes: 0,
        }
    }

    fn shared_state_id(&self) -> Option<usize> {
        // Identity covers *all* shared state: engines share bytes only when
        // they share both the predictor and (if any) the quantized weights.
        let p = self.predictor.as_ref().map(arc_id);
        let q = self.quantized.as_ref().map(arc_id);
        match (p, q) {
            (Some(p), Some(q)) => Some(p ^ q),
            (p, q) => p.or(q),
        }
    }

    fn weight_format(&self) -> WeightFormat {
        if self.quantized.is_some() {
            WeightFormat::Int8
        } else {
            WeightFormat::F32
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

fn arc_id<T: ?Sized>(shared: &Arc<T>) -> usize {
    Arc::as_ptr(shared) as *const () as usize
}

fn mask_bytes(mask: &SkipMask) -> u64 {
    (mask.len().div_ceil(64) * 8) as u64
}

/// Lossless speculative decoding: a cheap **draft** engine (typically
/// sparse) proposes up to `k` tokens per block step, an exact **verify**
/// engine (typically dense) scores the whole run in one teacher-forced
/// [`score_block_into`](Engine::score_block_into) pass, and the request
/// layer accepts the longest agreeing prefix — so emitted tokens are
/// **bit-identical to dense-only decode** while each verified block
/// amortizes the dense work over `1 + accepted` tokens.
///
/// Both engines execute the *same* model (enforced at construction); the
/// draft keeps its own `f32` KV session over a private pool, resynced to the
/// request's context by truncation (plus a one-position dense copy after a
/// fully accepted block) — draft KV never enters the request's session, the
/// scheduler's block budget, or the prefix index.
#[derive(Debug)]
pub struct SpeculativeEngine<'m> {
    draft: Box<dyn Engine + 'm>,
    verify: Box<dyn Engine + 'm>,
    k: usize,
    /// The draft's private KV context (`f32`, over its own pool).
    draft_session: DecodeSession,
    draft_logits: Vector,
    tokens_buf: Vec<u32>,
    spec: SpeculativeStats,
    ops: OpCounter,
    label: String,
}

impl<'m> SpeculativeEngine<'m> {
    /// Pairs a draft engine with a verify engine at draft length `k`.
    ///
    /// # Errors
    ///
    /// [`EngineError::SpeculativeConfig`] if the two engines execute
    /// different models or `k == 0`.
    pub fn new(
        draft: Box<dyn Engine + 'm>,
        verify: Box<dyn Engine + 'm>,
        k: usize,
    ) -> Result<Self, EngineError> {
        if k == 0 {
            return Err(EngineError::SpeculativeConfig {
                reason: "draft length k must be at least 1",
            });
        }
        if !std::ptr::eq(draft.model(), verify.model()) {
            return Err(EngineError::SpeculativeConfig {
                reason: "draft and verify engines must execute the same model",
            });
        }
        let label = format!("speculative:{}+{}", draft.name(), verify.name());
        let draft_session = verify.model().start_session();
        Ok(Self {
            draft,
            verify,
            k,
            draft_session,
            draft_logits: Vector::zeros(0),
            tokens_buf: Vec::new(),
            spec: SpeculativeStats::default(),
            ops: OpCounter::default(),
            label,
        })
    }

    /// The configured draft length (maximum proposals per block).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Brings the draft session level with the request's context: rolls
    /// back past-the-context draft positions (rejected proposals) and
    /// copies any missing positions' KV from the request session (the
    /// initial prompt sync, and the one position a fully accepted block
    /// leaves behind).
    fn resync_draft(&mut self, session: &DecodeSession) {
        let pos = session.position;
        let ds = &mut self.draft_session;
        if ds.position > pos {
            ds.truncate(pos);
        }
        if ds.position < pos {
            for (dst, src) in ds.caches.iter_mut().zip(&session.caches) {
                for t in dst.len()..pos {
                    // Raw words from an f32 session, lossless f16→f32
                    // widening from an f16 one.
                    dst.push_from(src, t);
                }
            }
            ds.position = pos;
        }
    }

    fn refresh_ops(&mut self) {
        let mut ops = *self.draft.ops();
        ops.merge(self.verify.ops());
        self.ops = ops;
    }
}

impl Engine for SpeculativeEngine<'_> {
    fn model(&self) -> &Model {
        self.verify.model()
    }

    fn score_block_into(
        &mut self,
        tokens: &[u32],
        session: &mut DecodeSession,
        logits: &mut [Vector],
    ) {
        // Exactness flows from the verifier: plain scoring (the prefill
        // hand-off, replays, k = 1 stepping) is always dense.
        self.verify.score_block_into(tokens, session, logits);
        self.refresh_ops();
    }

    fn step_block_into(
        &mut self,
        token: u32,
        session: &mut DecodeSession,
        limit: usize,
        out: &mut StepBlock,
    ) {
        debug_assert!(limit >= 1, "a block step must be allowed one token");
        let budget = limit.saturating_sub(1).min(self.k);
        if budget == 0 {
            // No room to speculate: a pure dense step.
            out.reset(1);
            self.verify
                .score_block_into(std::slice::from_ref(&token), session, out.logits_mut());
            self.refresh_ops();
            return;
        }
        self.resync_draft(session);
        out.reset(budget + 1);
        // Draft: greedy argmax chain through the cheap engine.
        let mut t = token;
        for _ in 0..budget {
            self.draft
                .step_into(t, &mut self.draft_session, &mut self.draft_logits);
            let Some(next) = self.draft_logits.argmax() else {
                break;
            };
            let next = next as u32;
            out.push_proposal(next);
            t = next;
        }
        let drafted = out.proposals().len();
        out.truncate_scored(drafted + 1);
        // Verify: one exact teacher-forced pass over the fed token plus
        // every proposal. The caller samples acceptance from these logits
        // and truncates the rejected tail out of `session`.
        self.tokens_buf.clear();
        self.tokens_buf.push(token);
        self.tokens_buf.extend_from_slice(out.proposals());
        self.verify
            .score_block_into(&self.tokens_buf, session, out.logits_mut());
        self.spec.drafted += drafted as u64;
        self.refresh_ops();
    }

    fn ops(&self) -> &OpCounter {
        &self.ops
    }

    fn reset_ops(&mut self) {
        self.draft.reset_ops();
        self.verify.reset_ops();
        self.ops = OpCounter::default();
        self.spec = SpeculativeStats::default();
    }

    fn stats(&self) -> Option<&SparsityStats> {
        self.draft.stats()
    }

    fn default_sampler(&self) -> Sampler {
        self.verify.default_sampler()
    }

    fn note_accepted(&mut self, accepted: usize) {
        self.spec.accepted += accepted as u64;
    }

    fn speculative_stats(&self) -> Option<SpeculativeStats> {
        Some(self.spec)
    }

    fn memory_estimate(&self) -> MemoryEstimate {
        let d = self.draft.memory_estimate();
        let v = self.verify.memory_estimate();
        let draft_kv: u64 = self
            .draft_session
            .caches
            .iter()
            .map(|c| c.content_bytes())
            .sum();
        MemoryEstimate {
            shared_bytes: d.shared_bytes + v.shared_bytes,
            weight_bytes: d.weight_bytes + v.weight_bytes,
            per_session_bytes: d.per_session_bytes + v.per_session_bytes + draft_kv,
            swapped_bytes: d.swapped_bytes + v.swapped_bytes,
        }
    }

    fn shared_state_id(&self) -> Option<usize> {
        self.draft.shared_state_id()
    }

    fn weight_format(&self) -> WeightFormat {
        self.draft.weight_format()
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Builds any engine configuration against one model.
///
/// No predictor ⇒ the dense baseline (all-active mask, base options);
/// otherwise the same engine over the shared predictor. Convenience methods
/// cover every predictor family in the paper. `build` validates the
/// configuration and returns `Err` instead of panicking.
/// [`parallel`](Self::parallel) sets the kernel thread count;
/// [`predictor_shared`](Self::predictor_shared) lets many engines share one
/// predictor's memory and [`pool`](Self::pool) lets them share one set of
/// parked worker threads.
#[derive(Debug)]
pub struct EngineBuilder<'m> {
    model: &'m Model,
    predictor: Option<Arc<dyn SparsityPredictor>>,
    options: EngineOptions,
    sampler: Sampler,
    parallel: ParallelOptions,
    pool: Option<ThreadPool>,
    weight_format: WeightFormat,
    quantized: Option<Arc<QuantizedWeights>>,
}

impl<'m> EngineBuilder<'m> {
    /// Starts a builder for `model` (dense, SparseInfer options, greedy
    /// sampler, single-threaded until told otherwise).
    pub fn new(model: &'m Model) -> Self {
        Self {
            model,
            predictor: None,
            options: EngineOptions::default(),
            sampler: Sampler::greedy(),
            parallel: ParallelOptions::single(),
            pool: None,
            weight_format: WeightFormat::default(),
            quantized: None,
        }
    }

    /// Selects the MLP weight storage format. [`WeightFormat::Int8`]
    /// quantizes the model's MLP weights at `build` time (unless a shared
    /// copy arrives via [`quantized_shared`](Self::quantized_shared)) and
    /// runs every decode GEMV on the int8 instance of the generic kernels —
    /// 4× less weight traffic, bit-identical across thread counts.
    pub fn weight_format(mut self, format: WeightFormat) -> Self {
        self.weight_format = format;
        self
    }

    /// Uses an already-quantized weight set (and implies
    /// [`WeightFormat::Int8`]) — engines built from clones of the same
    /// `Arc` share one INT8 copy, the weight analogue of
    /// [`predictor_shared`](Self::predictor_shared). Serving layers that
    /// build engines per request should quantize once at startup and pass
    /// clones here.
    pub fn quantized_shared(mut self, weights: Arc<QuantizedWeights>) -> Self {
        self.quantized = Some(weights);
        self.weight_format = WeightFormat::Int8;
        self
    }

    /// Uses an explicit boxed predictor (moved behind an `Arc`).
    pub fn predictor(mut self, predictor: Box<dyn SparsityPredictor>) -> Self {
        self.predictor = Some(Arc::from(predictor));
        self
    }

    /// Uses an already-shared predictor — engines built from clones of the
    /// same `Arc` share one copy of its state (the O(1)-batch-memory knob).
    pub fn predictor_shared(mut self, predictor: Arc<dyn SparsityPredictor>) -> Self {
        self.predictor = Some(predictor);
        self
    }

    /// Uses the training-free sign-bit predictor at `schedule` (packs the
    /// model's gate sign bits now — the one-time load-time step).
    pub fn signbit(self, schedule: AlphaSchedule) -> Self {
        let p = SignBitPredictor::from_model(self.model, schedule);
        self.predictor(Box::new(p))
    }

    /// Uses the exact oracle predictor (upper bound / test reference).
    pub fn oracle(self) -> Self {
        let p = OraclePredictor::from_model(self.model);
        self.predictor(Box::new(p))
    }

    /// Uses the random-skipping baseline at skip probability `p`.
    pub fn random(self, p: f64, seed: u64) -> Self {
        let cfg = self.model.config();
        let r = RandomPredictor::new(p, cfg.mlp_dim, cfg.n_layers, seed);
        self.predictor(Box::new(r))
    }

    /// Uses a trained DejaVu-style predictor (the PowerInfer role).
    pub fn dejavu(self, predictor: DejaVuPredictor) -> Self {
        self.predictor(Box::new(predictor))
    }

    /// Sets the execution options (kernel fusion / actual sparsity).
    pub fn options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the default sampler requests fall back to.
    pub fn sampler(mut self, sampler: Sampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the kernel thread count. Decoded tokens are bit-identical at
    /// every setting; only wall-clock changes. Each engine built this way
    /// spawns its own parked workers — to share one worker set across many
    /// engines (e.g. batch slots), build a [`ThreadPool`] once and pass
    /// clones via [`pool`](Self::pool) instead.
    pub fn parallel(mut self, parallel: ParallelOptions) -> Self {
        self.parallel = parallel;
        self
    }

    /// Uses an existing thread pool — the worker-thread analogue of
    /// [`predictor_shared`](Self::predictor_shared): `ThreadPool` is a
    /// cheap `Arc`-backed clone handle, so N engines built from clones of
    /// one pool share one set of parked workers instead of keeping
    /// `N·(threads−1)` idle threads alive. Takes precedence over
    /// [`parallel`](Self::parallel). Tokens are unaffected either way
    /// (dispatch never changes results, only wall-clock).
    pub fn pool(mut self, pool: ThreadPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Builds the engine, validating the configuration.
    ///
    /// # Errors
    ///
    /// [`EngineError::LayerCountMismatch`] if a predictor covers a
    /// different number of layers than the model.
    ///
    /// # Panics
    ///
    /// Panics if [`parallel`](Self::parallel) requested `threads > 1` and
    /// the OS refuses to spawn a worker thread (see [`ThreadPool::new`]);
    /// serving layers that build engines per request should construct one
    /// pool at startup and pass clones via [`pool`](Self::pool), which
    /// spawns nothing here.
    pub fn build(self) -> Result<Box<dyn Engine + 'm>, EngineError> {
        let pool = self.pool.unwrap_or_else(|| ThreadPool::new(self.parallel));
        let quantized = match self.weight_format {
            WeightFormat::F32 => None,
            WeightFormat::Int8 => {
                let q = self
                    .quantized
                    .unwrap_or_else(|| Arc::new(QuantizedWeights::quantize(self.model)));
                if !q.fits(self.model) {
                    return Err(EngineError::QuantizedWeightsMismatch {
                        reason: "layer count or MLP dimensions disagree with the model",
                    });
                }
                Some(q)
            }
        };
        let n_layers = self.model.layers().len();
        // The one place that says what "dense" is: no predictor, no
        // statistics, base options.
        let (mut label, options, stats) = match &self.predictor {
            Some(p) if p.n_layers() != n_layers => {
                return Err(EngineError::LayerCountMismatch {
                    model_layers: n_layers,
                    predictor_layers: p.n_layers(),
                });
            }
            Some(p) => (
                format!("sparse:{}", p.name()),
                self.options.mlp,
                Some(SparsityStats::new(n_layers)),
            ),
            None => ("dense".to_string(), EngineOptions::base().mlp, None),
        };
        if quantized.is_some() {
            label.push_str("+int8");
        }
        Ok(Box::new(MaskedEngine {
            model: self.model,
            predictor: self.predictor,
            options,
            ops: OpCounter::default(),
            stats,
            sampler: self.sampler,
            label,
            pool,
            ws: Workspace::new(),
            scratch: PredictorScratch::new(),
            mask: SkipMask::all_dense(0),
            effective: SkipMask::all_dense(0),
            quantized,
        }))
    }

    /// Wraps a draft/verify engine pair into a lossless
    /// [`SpeculativeEngine`]: the draft proposes up to `k` tokens per
    /// block, the verifier confirms them in one exact scoring pass, and
    /// emitted tokens are bit-identical to running the verifier alone.
    /// Compose it from two `build()` calls over the same model — e.g. a
    /// sign-bit sparse draft and a dense verifier:
    ///
    /// ```
    /// use sparseinfer_model::{generator::WeightGenerator, ModelConfig};
    /// use sparseinfer_predictor::AlphaSchedule;
    /// use sparseinfer_sparse::engine::EngineBuilder;
    ///
    /// let model = WeightGenerator::new(&ModelConfig::tiny(), 42).build();
    /// let draft = EngineBuilder::new(&model)
    ///     .signbit(AlphaSchedule::uniform(1.0))
    ///     .build()
    ///     .unwrap();
    /// let verify = EngineBuilder::new(&model).build().unwrap();
    /// let engine = EngineBuilder::speculative(draft, verify, 4).unwrap();
    /// assert_eq!(engine.name(), "speculative:sparse:sparseinfer+dense");
    /// ```
    ///
    /// # Errors
    ///
    /// [`EngineError::SpeculativeConfig`] if the engines execute different
    /// models or `k == 0`.
    pub fn speculative(
        draft: Box<dyn Engine + 'm>,
        verify: Box<dyn Engine + 'm>,
        k: usize,
    ) -> Result<Box<dyn Engine + 'm>, EngineError> {
        Ok(Box::new(SpeculativeEngine::new(draft, verify, k)?))
    }
}

/// Counts the dense attention work of one layer at context length `ctx`:
/// four `d×d` projections plus score/value accumulation over the context.
fn account_attention(ops: &mut OpCounter, d: usize, ctx: usize) {
    let d = d as u64;
    let ctx = ctx as u64;
    ops.macs += 4 * d * d + 2 * ctx * d;
    ops.weight_bytes_loaded += 4 * d * d * OpCounter::WEIGHT_BYTES;
    // KV cache traffic: read ctx keys + values.
    ops.activation_bytes += 2 * ctx * d * OpCounter::ACTIVATION_BYTES;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer_model::generator::WeightGenerator;
    use sparseinfer_model::ModelConfig;

    fn model() -> Model {
        WeightGenerator::new(&ModelConfig::tiny(), 77).build()
    }

    fn greedy(engine: &mut dyn Engine, prompt: &[u32], max_new: usize) -> Vec<u32> {
        let req = crate::request::GenerateRequest::new(prompt).max_new(max_new);
        crate::request::generate(engine, &req).unwrap().tokens
    }

    #[test]
    fn dense_engine_matches_model_decode() {
        let m = model();
        let mut engine = EngineBuilder::new(&m).build().unwrap();
        let expected = m.generate_greedy(&[1, 2, 3], 6, u32::MAX);
        let actual = greedy(engine.as_mut(), &[1, 2, 3], 6);
        assert_eq!(actual, expected);
        assert!(engine.ops().macs > 0);
    }

    #[test]
    fn no_predictor_builds_the_dense_engine() {
        let m = model();
        let mut built = EngineBuilder::new(&m).build().unwrap();
        let mut session = m.start_session();
        let logits = built.step(3, &mut session);
        let mut session2 = m.start_session();
        let expected = m.forward_token(3, &mut session2);
        assert_eq!(logits, expected);
        assert_eq!(built.name(), "dense");
        assert!(built.stats().is_none());
    }

    #[test]
    fn oracle_sparse_engine_matches_dense_decode_exactly() {
        let m = model();
        let mut engine = EngineBuilder::new(&m).oracle().build().unwrap();
        let dense = m.generate_greedy(&[1, 2, 3], 8, u32::MAX);
        let sparse = crate::request::generate(
            engine.as_mut(),
            &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(8),
        )
        .unwrap()
        .tokens;
        assert_eq!(sparse, dense, "oracle-masked execution must be lossless");
        // And it must skip a large fraction of rows on the calibrated model.
        let eff = engine
            .stats()
            .expect("sparse engine has stats")
            .mean_effective();
        let mean: f64 = eff.iter().sum::<f64>() / eff.len() as f64;
        assert!(mean > 0.5, "mean effective sparsity {mean}");
    }

    #[test]
    fn signbit_engine_decodes_and_skips_rows() {
        let m = model();
        let mut engine = EngineBuilder::new(&m)
            .predictor(Box::new(SignBitPredictor::from_model(
                &m,
                AlphaSchedule::uniform(1.0),
            )))
            .options(EngineOptions::sparseinfer())
            .build()
            .unwrap();
        let out = greedy(engine.as_mut(), &[1, 2, 3], 6);
        assert_eq!(out.len(), 6);
        assert!(
            engine.ops().xor_popc > 0,
            "predictor cost must be accounted"
        );
        assert!(engine.ops().rows_skipped > 0);
        assert!(engine.stats().expect("sparse stats").tokens() > 0);
        assert_eq!(engine.name(), "sparse:sparseinfer");
    }

    #[test]
    fn sparse_engine_does_less_mlp_work_than_dense() {
        let m = model();
        let mut dense = EngineBuilder::new(&m).build().unwrap();
        let _ = greedy(dense.as_mut(), &[1, 2, 3], 6);

        let mut sparse = EngineBuilder::new(&m)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap();
        let _ = crate::request::generate(
            sparse.as_mut(),
            &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(6),
        )
        .unwrap();

        assert!(
            sparse.ops().macs < dense.ops().macs,
            "sparse {} vs dense {}",
            sparse.ops().macs,
            dense.ops().macs
        );
    }

    #[test]
    fn random_predictor_engine_diverges_from_dense() {
        let m = model();
        let dense_out = m.generate_greedy(&[1, 2, 3], 8, u32::MAX);
        let mut engine = EngineBuilder::new(&m).random(0.9, 5).build().unwrap();
        let sparse_out = crate::request::generate(
            engine.as_mut(),
            &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(8),
        )
        .unwrap()
        .tokens;
        assert_ne!(
            sparse_out, dense_out,
            "random 90% skipping must corrupt decode"
        );
    }

    #[test]
    fn actual_sparsity_raises_effective_over_predicted() {
        let m = model();
        // A conservative schedule under-predicts, leaving room for actual
        // sparsity to help.
        let mut engine = EngineBuilder::new(&m)
            .signbit(AlphaSchedule::uniform(1.5))
            .options(EngineOptions::sparseinfer())
            .build()
            .unwrap();
        let _ = crate::request::generate(
            engine.as_mut(),
            &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(4),
        )
        .unwrap();
        let stats = engine.stats().expect("sparse stats");
        let predicted = stats.mean_predicted();
        let effective = stats.mean_effective();
        for (l, (p, e)) in predicted.iter().zip(&effective).enumerate() {
            assert!(e >= p, "layer {l}: effective {e} < predicted {p}");
        }
        let gain: f64 = effective.iter().sum::<f64>() - predicted.iter().sum::<f64>();
        assert!(gain > 0.0, "actual sparsity must add something");
    }

    #[test]
    fn predictor_layer_mismatch_is_an_error_not_a_panic() {
        let m = model();
        let p = RandomPredictor::new(0.5, m.config().mlp_dim, 1, 1);
        let err = EngineBuilder::new(&m)
            .predictor(Box::new(p))
            .build()
            .expect_err("mismatch must be rejected");
        assert_eq!(
            err,
            EngineError::LayerCountMismatch {
                model_layers: m.layers().len(),
                predictor_layers: 1
            }
        );
    }

    #[test]
    fn builder_sampler_becomes_engine_default() {
        let m = model();
        let engine = EngineBuilder::new(&m)
            .sampler(Sampler::temperature(0.5, 3))
            .build()
            .unwrap();
        assert_eq!(engine.default_sampler().name(), "temperature");
    }

    #[test]
    fn parallel_engine_decodes_identically_to_sequential() {
        let m = model();
        let sequential = {
            let mut e = EngineBuilder::new(&m)
                .signbit(AlphaSchedule::uniform(1.0))
                .build()
                .unwrap();
            crate::request::generate(
                e.as_mut(),
                &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(8),
            )
            .unwrap()
            .tokens
        };
        for threads in [2, 4] {
            let mut e = EngineBuilder::new(&m)
                .signbit(AlphaSchedule::uniform(1.0))
                .parallel(ParallelOptions::threads(threads))
                .build()
                .unwrap();
            let tokens = crate::request::generate(
                e.as_mut(),
                &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(8),
            )
            .unwrap()
            .tokens;
            assert_eq!(tokens, sequential, "{threads} threads");
        }
    }

    #[test]
    fn engines_sharing_one_pool_decode_identically() {
        let m = model();
        let req = crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(6);
        let solo = {
            let mut e = EngineBuilder::new(&m)
                .signbit(AlphaSchedule::uniform(1.0))
                .build()
                .unwrap();
            crate::request::generate(e.as_mut(), &req).unwrap().tokens
        };
        // One worker set serves many engines — including concurrently from
        // batch slot threads, where the pool's in-flight-dispatch fallback
        // keeps the second dispatcher inline.
        let kernel_pool = ThreadPool::new(ParallelOptions::threads(2));
        let shared: Arc<dyn SparsityPredictor> = Arc::new(SignBitPredictor::from_model(
            &m,
            AlphaSchedule::uniform(1.0),
        ));
        use crate::scheduler::{Scheduler, SchedulerConfig};
        let mut batch =
            Scheduler::new(SchedulerConfig::unbounded()).parallel(ParallelOptions::threads(2));
        for _ in 0..4 {
            let engine = EngineBuilder::new(&m)
                .predictor_shared(Arc::clone(&shared))
                .pool(kernel_pool.clone())
                .build()
                .unwrap();
            batch.submit(engine, &req).unwrap();
        }
        for output in batch.run() {
            assert_eq!(output.tokens, solo, "request {}", output.id);
        }
    }

    #[test]
    fn shared_predictor_reports_one_shared_state_id() {
        let m = model();
        let shared: Arc<dyn SparsityPredictor> = Arc::new(SignBitPredictor::from_model(
            &m,
            AlphaSchedule::uniform(1.0),
        ));
        let a = EngineBuilder::new(&m)
            .predictor_shared(Arc::clone(&shared))
            .build()
            .unwrap();
        let b = EngineBuilder::new(&m)
            .predictor_shared(Arc::clone(&shared))
            .build()
            .unwrap();
        assert_eq!(a.shared_state_id(), b.shared_state_id());
        assert!(a.shared_state_id().is_some());
        assert_eq!(
            a.memory_estimate().shared_bytes,
            shared.memory_bytes(),
            "shared bytes are the predictor's packed tables"
        );
        // A separately built engine has different shared identity.
        let c = EngineBuilder::new(&m)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap();
        assert_ne!(a.shared_state_id(), c.shared_state_id());
        // The dense baseline shares nothing.
        let d = EngineBuilder::new(&m).build().unwrap();
        assert_eq!(d.shared_state_id(), None);
        assert_eq!(d.memory_estimate().shared_bytes, 0);
    }

    #[test]
    fn score_block_matches_sequential_single_steps() {
        let m = model();
        fn dense(m: &Model) -> Box<dyn Engine + '_> {
            EngineBuilder::new(m).build().unwrap()
        }
        fn sparse(m: &Model) -> Box<dyn Engine + '_> {
            EngineBuilder::new(m)
                .signbit(AlphaSchedule::uniform(1.0))
                .build()
                .unwrap()
        }
        type Build = fn(&Model) -> Box<dyn Engine + '_>;
        let builders: [Build; 2] = [dense, sparse];
        for build in builders {
            let tokens = [3u32, 1, 4, 1, 5];
            let mut blocked = build(&m);
            let mut block_session = m.start_session();
            let mut block_logits: Vec<Vector> =
                (0..tokens.len()).map(|_| Vector::zeros(0)).collect();
            blocked.score_block_into(&tokens, &mut block_session, &mut block_logits);
            assert_eq!(block_session.position, tokens.len());

            let mut stepped = build(&m);
            let mut step_session = m.start_session();
            let mut logits = Vector::zeros(0);
            for (i, &t) in tokens.iter().enumerate() {
                stepped.step_into(t, &mut step_session, &mut logits);
                assert_eq!(
                    block_logits[i],
                    logits,
                    "{}: position {i} must score identically",
                    blocked.name()
                );
            }
        }
    }

    fn speculative_over(m: &Model, k: usize) -> Box<dyn Engine + '_> {
        let draft = EngineBuilder::new(m)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap();
        let verify = EngineBuilder::new(m).build().unwrap();
        EngineBuilder::speculative(draft, verify, k).unwrap()
    }

    #[test]
    fn speculative_decode_is_bit_identical_to_dense() {
        let m = model();
        let dense = m.generate_greedy(&[1, 2, 3], 12, u32::MAX);
        for k in [1, 2, 4, 8] {
            let mut engine = speculative_over(&m, k);
            let tokens = crate::request::generate(
                engine.as_mut(),
                &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(12),
            )
            .unwrap()
            .tokens;
            assert_eq!(tokens, dense, "k = {k} must be lossless");
            let spec = engine.speculative_stats().expect("speculative counters");
            assert!(spec.drafted > 0, "k = {k} must draft");
        }
    }

    #[test]
    fn oracle_draft_gets_full_acceptance() {
        let m = model();
        // The oracle predictor's sparse decode is exactly dense decode, so
        // every greedy proposal matches what the verifier samples.
        let draft = EngineBuilder::new(&m).oracle().build().unwrap();
        let verify = EngineBuilder::new(&m).build().unwrap();
        let mut engine = EngineBuilder::speculative(draft, verify, 4).unwrap();
        let tokens = crate::request::generate(
            engine.as_mut(),
            &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(12),
        )
        .unwrap()
        .tokens;
        assert_eq!(tokens, m.generate_greedy(&[1, 2, 3], 12, u32::MAX));
        let spec = engine.speculative_stats().expect("speculative counters");
        assert_eq!(
            spec.accepted, spec.drafted,
            "an exact draft must never be rejected"
        );
        assert!(spec.drafted > 0);
        assert!((spec.acceptance_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn speculative_matches_dense_under_seeded_sampling() {
        let m = model();
        // Sampled decode disagrees with the draft's greedy chain often,
        // exercising the mismatch-correction and rollback paths — tokens
        // must still be bit-identical to the dense-only stream.
        let req = crate::request::GenerateRequest::new(&[2, 4])
            .max_new(10)
            .sampler(Sampler::temperature(1.0, 123));
        let dense = {
            let mut e = EngineBuilder::new(&m).build().unwrap();
            crate::request::generate(e.as_mut(), &req).unwrap().tokens
        };
        let mut engine = speculative_over(&m, 4);
        let spec_tokens = crate::request::generate(engine.as_mut(), &req)
            .unwrap()
            .tokens;
        assert_eq!(spec_tokens, dense);
    }

    #[test]
    fn speculative_step_block_respects_the_limit() {
        let m = model();
        let mut engine = speculative_over(&m, 8);
        let mut session = m.start_session();
        let mut logits = Vector::zeros(0);
        engine.step_into(7, &mut session, &mut logits);
        let mut block = StepBlock::new();
        // limit = 1 leaves no room to speculate: a pure dense step.
        engine.step_block_into(3, &mut session, 1, &mut block);
        assert!(block.proposals().is_empty());
        assert_eq!(session.position, 2);
        // limit = 3 caps drafting at 2 proposals even though k = 8.
        engine.step_block_into(5, &mut session, 3, &mut block);
        assert!(block.proposals().len() <= 2, "{}", block.proposals().len());
        assert_eq!(session.position, 3 + block.proposals().len());
    }

    #[test]
    fn speculative_pairing_is_validated() {
        let m = model();
        let draft = EngineBuilder::new(&m).build().unwrap();
        let verify = EngineBuilder::new(&m).build().unwrap();
        let err = EngineBuilder::speculative(draft, verify, 0).unwrap_err();
        assert!(matches!(err, EngineError::SpeculativeConfig { .. }));

        let other = WeightGenerator::new(&ModelConfig::tiny(), 78).build();
        let draft = EngineBuilder::new(&other).build().unwrap();
        let verify = EngineBuilder::new(&m).build().unwrap();
        let err = EngineBuilder::speculative(draft, verify, 4).unwrap_err();
        assert!(matches!(err, EngineError::SpeculativeConfig { .. }));
    }

    #[test]
    fn int8_engines_decode_and_report_shrunken_weights() {
        let m = model();
        let mut engine = EngineBuilder::new(&m)
            .signbit(AlphaSchedule::uniform(1.0))
            .weight_format(WeightFormat::Int8)
            .build()
            .unwrap();
        assert_eq!(engine.name(), "sparse:sparseinfer+int8");
        assert_eq!(engine.weight_format(), WeightFormat::Int8);
        let out = crate::request::generate(
            engine.as_mut(),
            &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(6),
        )
        .unwrap()
        .tokens;
        assert_eq!(out.len(), 6);
        assert!(engine.ops().rows_skipped > 0);

        let est = engine.memory_estimate();
        let cfg = m.config();
        let fp32_mlp =
            (3 * cfg.n_layers * cfg.mlp_dim * cfg.hidden_dim * std::mem::size_of::<f32>()) as u64;
        let ratio = fp32_mlp as f64 / est.weight_bytes as f64;
        assert!(
            (3.4..4.01).contains(&ratio),
            "int8 copy must be ~4x smaller: {ratio}"
        );
        assert!(
            est.shared_bytes >= est.weight_bytes,
            "subcomponent invariant"
        );

        let mut dense8 = EngineBuilder::new(&m)
            .weight_format(WeightFormat::Int8)
            .build()
            .unwrap();
        assert_eq!(dense8.name(), "dense+int8");
        assert_eq!(dense8.weight_format(), WeightFormat::Int8);
        let out = crate::request::generate(
            dense8.as_mut(),
            &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(6),
        )
        .unwrap()
        .tokens;
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn int8_decode_is_bit_identical_across_thread_counts() {
        let m = model();
        // One shared INT8 copy so all three configurations execute the same
        // quantized values; the claim under test is reduction-order
        // invariance across thread counts.
        let q = Arc::new(QuantizedWeights::quantize(&m));
        let run = |threads: usize| {
            let mut e = EngineBuilder::new(&m)
                .signbit(AlphaSchedule::uniform(1.0))
                .quantized_shared(Arc::clone(&q))
                .parallel(ParallelOptions::threads(threads))
                .build()
                .unwrap();
            crate::request::generate(
                e.as_mut(),
                &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(8),
            )
            .unwrap()
            .tokens
        };
        let solo = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), solo, "{threads} threads");
        }
    }

    #[test]
    fn quantized_weights_share_one_copy_and_reject_foreign_models() {
        let m = model();
        let q = Arc::new(QuantizedWeights::quantize(&m));
        let shared: Arc<dyn SparsityPredictor> = Arc::new(SignBitPredictor::from_model(
            &m,
            AlphaSchedule::uniform(1.0),
        ));
        let a = EngineBuilder::new(&m)
            .predictor_shared(Arc::clone(&shared))
            .quantized_shared(Arc::clone(&q))
            .build()
            .unwrap();
        let b = EngineBuilder::new(&m)
            .predictor_shared(Arc::clone(&shared))
            .quantized_shared(Arc::clone(&q))
            .build()
            .unwrap();
        assert_eq!(a.shared_state_id(), b.shared_state_id());
        assert_eq!(a.memory_estimate().weight_bytes, q.size_bytes());

        // A different predictor instance changes the shared identity even
        // with the same quantized copy.
        let c = EngineBuilder::new(&m)
            .signbit(AlphaSchedule::uniform(1.0))
            .quantized_shared(Arc::clone(&q))
            .build()
            .unwrap();
        assert_ne!(a.shared_state_id(), c.shared_state_id());

        // Quantized weights from another model are rejected as a value.
        let mut wide = ModelConfig::tiny();
        wide.mlp_dim = 128;
        let other = WeightGenerator::new(&wide, 5).build();
        let err = EngineBuilder::new(&other)
            .quantized_shared(Arc::clone(&q))
            .build();
        assert!(matches!(
            err,
            Err(EngineError::QuantizedWeightsMismatch { .. })
        ));
    }

    #[test]
    fn speculative_int8_draft_stays_lossless() {
        let m = model();
        // An INT8 sparse draft proposes, the f32 dense verifier confirms:
        // emitted tokens must still be bit-identical to dense-only decode.
        let draft = EngineBuilder::new(&m)
            .signbit(AlphaSchedule::uniform(1.0))
            .weight_format(WeightFormat::Int8)
            .build()
            .unwrap();
        let verify = EngineBuilder::new(&m).build().unwrap();
        let mut engine = EngineBuilder::speculative(draft, verify, 4).unwrap();
        assert_eq!(engine.weight_format(), WeightFormat::Int8, "draft's format");
        let tokens = crate::request::generate(
            engine.as_mut(),
            &crate::request::GenerateRequest::new(&[1, 2, 3]).max_new(12),
        )
        .unwrap()
        .tokens;
        assert_eq!(tokens, m.generate_greedy(&[1, 2, 3], 12, u32::MAX));
        assert!(engine.speculative_stats().expect("counters").drafted > 0);
    }

    #[test]
    fn speculative_reset_clears_both_engines_and_counters() {
        let m = model();
        let mut engine = speculative_over(&m, 4);
        let _ = crate::request::generate(
            engine.as_mut(),
            &crate::request::GenerateRequest::new(&[1, 2]).max_new(6),
        )
        .unwrap();
        assert!(engine.ops().macs > 0);
        assert!(engine.speculative_stats().expect("counters").drafted > 0);
        engine.reset_ops();
        assert_eq!(engine.ops().macs, 0);
        assert_eq!(
            engine.speculative_stats().expect("counters"),
            SpeculativeStats::default()
        );
    }
}
