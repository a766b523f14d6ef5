//! The full decoder-only model: embedding → layers → final norm → LM head.
//!
//! One forward body runs every position: [`Model::step`], some consecutive
//! positions of each of `B` sessions in **one pass over the weights** —
//! a prompt chunk, a decode token, a speculative verify run — each
//! column's MLP under its caller's row filter and logits for the columns
//! that want them, everything out of a recycled [`PrefillScratch`].
//! Each session's KV and logits are bitwise what the column would get in
//! a step of its own. [`Model::prefill_step`] is the call with every row
//! kept and no logits; [`Model::forward_token`] the allocating one-column
//! call with every row kept and the logits out. `tests/reference_decoder.rs`
//! checks the step against a plain `f64` decoder that shares none of its
//! code.

use std::borrow::BorrowMut;

use sparseinfer_tensor::gemv::{gemm_rows_into, Rows};
use sparseinfer_tensor::{Matrix, ThreadPool, Vector};

use crate::attention::Attention;
use crate::config::ModelConfig;
use crate::kv::{KvBlockPool, PagedKvCache, PrefixHit, DEFAULT_BLOCK_TOKENS};
use crate::layer::DecoderLayer;
use crate::norm::RmsNorm;
use crate::prefill::{per_column, MlpHook, PrefillScratch, PromptTokens, PREFILL_CHUNK};

/// A decoder-only transformer with tied decode state.
///
/// The model itself is stateless; decoding state (KV caches, position) lives
/// in a [`DecodeSession`] so multiple engines (dense, SparseInfer,
/// PowerInfer-style) can run the *same* weights concurrently during
/// comparisons.
#[derive(Debug, Clone)]
pub struct Model {
    config: ModelConfig,
    embedding: Matrix, // vocab × d
    layers: Vec<DecoderLayer>,
    final_norm: RmsNorm,
    lm_head: Matrix, // vocab × d
}

impl Model {
    /// Assembles a model from parts (normally via
    /// [`WeightGenerator`](crate::generator::WeightGenerator)).
    ///
    /// # Panics
    ///
    /// Panics if the parts disagree with `config`.
    pub fn new(
        config: ModelConfig,
        embedding: Matrix,
        layers: Vec<DecoderLayer>,
        final_norm: RmsNorm,
        lm_head: Matrix,
    ) -> Self {
        assert_eq!(embedding.rows(), config.vocab_size, "embedding rows");
        assert_eq!(embedding.cols(), config.hidden_dim, "embedding cols");
        assert_eq!(layers.len(), config.n_layers, "layer count");
        assert_eq!(lm_head.rows(), config.vocab_size, "lm head rows");
        assert_eq!(lm_head.cols(), config.hidden_dim, "lm head cols");
        for (i, l) in layers.iter().enumerate() {
            assert_eq!(l.hidden_dim(), config.hidden_dim, "layer {i} dim");
            assert_eq!(l.n_heads(), config.n_heads, "layer {i} heads");
        }
        Self {
            config,
            embedding,
            layers,
            final_norm,
            lm_head,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The decoder layers.
    pub fn layers(&self) -> &[DecoderLayer] {
        &self.layers
    }

    /// Mutable access to the decoder layers (ReLUfication demos).
    pub fn layers_mut(&mut self) -> &mut [DecoderLayer] {
        &mut self.layers
    }

    /// Starts a decode session (fresh KV caches at position 0) over a
    /// private pool of [`DEFAULT_BLOCK_TOKENS`]-position blocks, taken as
    /// the context grows — what a solo request runs on. A caller that knows
    /// its budget uses
    /// [`start_session_with_capacity`](Self::start_session_with_capacity).
    pub fn start_session(&self) -> DecodeSession {
        self.start_paged_session(&KvBlockPool::new(DEFAULT_BLOCK_TOKENS))
    }

    /// Starts a decode session whose per-layer caches are each one private
    /// block of `tokens` positions ([`PagedKvCache::with_capacity`]):
    /// attention reads the context as a single run, and decoding within
    /// that budget allocates no cache storage after the first position.
    pub fn start_session_with_capacity(&self, tokens: usize) -> DecodeSession {
        DecodeSession {
            caches: (0..self.layers.len())
                .map(|_| PagedKvCache::with_capacity(self.config.hidden_dim, tokens))
                .collect(),
            position: 0,
        }
    }

    /// Starts a decode session whose per-layer KV caches page their
    /// storage out of `pool`: blocks are allocated lazily as tokens are
    /// produced and returned the moment the session drops — memory tracks
    /// tokens actually generated, never a `prompt + max_new` reservation.
    /// Decoded tokens are bit-identical over any block size.
    pub fn start_paged_session(&self, pool: &KvBlockPool) -> DecodeSession {
        DecodeSession {
            caches: (0..self.layers.len())
                .map(|_| PagedKvCache::new(pool))
                .collect(),
            position: 0,
        }
    }

    /// Starts a paged decode session whose per-layer caches begin with the
    /// shared blocks of a prefix-cache hit: the first `hit.tokens`
    /// positions of context are already present (aliased, not copied —
    /// attaching allocates nothing), and the session's position starts
    /// past them. The caller is responsible for the hit actually matching
    /// this model's weights and the prompt being fed (the serving layer
    /// keys its [`PrefixIndex`](crate::kv::PrefixIndex) accordingly);
    /// decode over attached blocks is bit-identical to recomputing them
    /// because dense prefill is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the hit does not cover exactly one block run per model
    /// layer, or if its blocks are partial/foreign to `pool`.
    pub fn start_paged_session_with_prefix(
        &self,
        pool: &KvBlockPool,
        hit: &PrefixHit,
    ) -> DecodeSession {
        assert_eq!(
            hit.layer_blocks.len(),
            self.layers.len(),
            "prefix hit layer count must match the model"
        );
        let caches: Vec<PagedKvCache> = hit
            .layer_blocks
            .iter()
            .map(|blocks| PagedKvCache::with_prefix(pool, blocks.clone()))
            .collect();
        for cache in &caches {
            assert_eq!(
                cache.len(),
                hit.tokens,
                "attached blocks must cover exactly the hit's token count"
            );
        }
        DecodeSession {
            caches,
            position: hit.tokens,
        }
    }

    /// One dense position of one session: a one-column
    /// [`step`](Self::step) keeping every row, on one thread and a fresh
    /// scratch. Advances the session and returns the logits.
    ///
    /// # Panics
    ///
    /// Panics if the session's cache count does not match this model, or
    /// if `token as usize >= vocab_size`.
    pub fn forward_token(&self, token: u32, session: &mut DecodeSession) -> Vector {
        self.step_column(token, session, &mut ())
    }

    /// One position of one session through [`step`](Self::step) with
    /// `hook` as its MLP stage, on one thread and a fresh scratch: the
    /// logits out.
    pub(crate) fn step_column<H: MlpHook>(
        &self,
        token: u32,
        session: &mut DecodeSession,
        hook: &mut H,
    ) -> Vector {
        let (pool, mut scratch) = (ThreadPool::single(), PrefillScratch::new());
        let mut logits = [Vector::zeros(0)];
        let batch = &mut [(token, session)];
        self.step(batch, hook, |_| true, &mut logits, &pool, &mut scratch);
        let [logits] = logits;
        logits
    }

    /// One forward step for a batch of sessions of this model: feeds each
    /// session its `tokens` (see [`PromptTokens`]) from `session.position`
    /// on, extending its KV caches and advancing its position by their
    /// number, with **one pass over the weights** for every position of
    /// every session (a *column*, session-major). Sessions may sit at
    /// different positions and page their KV from different pools (any
    /// block size, `f32` or `f16`); a column attends over its session's
    /// cache up to and including itself.
    ///
    /// Each layer's MLP is `hook`'s (see [`MlpHook`]): the layer's block or
    /// another storage of it, each column under the rows the hook keeps
    /// for it. The columns `wants_logits` picks get their logits, in column
    /// order, in `logits` (resized in place): one final norm and LM-head
    /// pass over them.
    ///
    /// Every column's KV and logits are bitwise those of its position fed
    /// alone, at any thread count. Everything comes out
    /// of `scratch`, so a step at a column count and context the scratch
    /// has seen allocates nothing (KV growth aside). `S` is
    /// `&mut DecodeSession` or an owned `DecodeSession`, which lets a
    /// caller gather sessions into a recycled `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if a session's cache count does not match this model, or if
    /// `logits` does not hold one vector per column `wants_logits` picks.
    pub fn step<T, S, H>(
        &self,
        batch: &mut [(T, S)],
        hook: &mut H,
        wants_logits: impl Fn(usize) -> bool,
        logits: &mut [Vector],
        pool: &ThreadPool,
        scratch: &mut PrefillScratch,
    ) where
        T: PromptTokens,
        S: BorrowMut<DecodeSession> + Sync,
        H: MlpHook,
    {
        let d = self.config.hidden_dim;
        let head_dim = d / self.config.n_heads;
        let columns: usize = batch.iter().map(|(t, _)| t.tokens().len()).sum();
        scratch.h.resize(columns * d, 0.0);
        scratch.rope.resize(columns * head_dim, 0.0);
        let rows = scratch.h.as_mut_slice().chunks_exact_mut(d);
        let tables = scratch.rope.as_mut_slice().chunks_exact_mut(head_dim);
        // Session-major: a session's tokens side by side, each at the next
        // position.
        let positions = batch.iter().flat_map(|(tokens, session)| {
            let session: &DecodeSession = session.borrow();
            assert_eq!(
                session.caches.len(),
                self.layers.len(),
                "session/model mismatch"
            );
            tokens.tokens().iter().zip(session.position..)
        });
        for (((token, position), h), table) in positions.zip(rows).zip(tables) {
            h.copy_from_slice(self.embedding.row(*token as usize));
            Attention::rope_table(position, table);
        }
        if columns > 0 {
            for (li, layer) in self.layers.iter().enumerate() {
                layer.step(li, batch, hook, pool, scratch);
            }
        }
        for (tokens, session) in batch.iter_mut() {
            session.borrow_mut().position += tokens.tokens().len();
        }

        let (wanted, n) = ((0..columns).filter(|&c| wants_logits(c)), logits.len());
        assert_eq!(wanted.clone().count(), n, "a logits vector per column");
        if n == 0 {
            return;
        }
        let (h, x) = (scratch.h.as_slice(), &mut scratch.x);
        x.resize(n * d, 0.0);
        for (c, x) in wanted.zip(x.as_mut_slice().chunks_exact_mut(d)) {
            self.final_norm.forward_slice(&h[c * d..][..d], x);
        }
        let (x, proj) = (scratch.x.as_slice(), &mut scratch.proj);
        gemm_rows_into(&self.lm_head, x, n, Rows::All, pool, proj);
        per_column(scratch.proj.as_slice(), n, &mut scratch.q);
        let columns = scratch.q.as_slice().chunks_exact(self.config.vocab_size);
        for (out, column) in logits.iter_mut().zip(columns) {
            out.copy_from(column);
        }
    }

    /// One dense prefill step: [`step`](Self::step) keeping every row of
    /// every layer's own MLP, and no logits (prefill never reads them;
    /// the position whose logits *are* sampled goes through an engine).
    ///
    /// # Panics
    ///
    /// Panics if a session's cache count does not match this model.
    pub fn prefill_step<T, S>(
        &self,
        batch: &mut [(T, S)],
        pool: &ThreadPool,
        scratch: &mut PrefillScratch,
    ) where
        T: PromptTokens,
        S: BorrowMut<DecodeSession> + Sync,
    {
        self.step(batch, &mut (), |_| false, &mut [], pool, scratch);
    }

    /// Runs a whole prompt densely — every token but the last through
    /// [`prefill_step`](Self::prefill_step), [`PREFILL_CHUNK`] positions per
    /// step — and returns the logits after the last one (the paper exploits
    /// sparsity only in decode, not prefill, so prefill is always dense).
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn prefill(&self, prompt: &[u32]) -> Vector {
        self.prefill_into(prompt, &mut self.start_session())
    }

    /// Greedy decode: prefill `prompt`, then generate until EOS/`max_new`.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn generate_greedy(&self, prompt: &[u32], max_new: usize, eos: u32) -> Vec<u32> {
        let mut session = self.start_session();
        let mut logits = self.prefill_into(prompt, &mut session);
        let mut out = Vec::new();
        for _ in 0..max_new {
            let next = logits.argmax().expect("nonzero vocab") as u32;
            if next == eos {
                break;
            }
            out.push(next);
            logits = self.forward_token(next, &mut session);
        }
        out
    }

    /// [`prefill`](Self::prefill) into `session`.
    fn prefill_into(&self, prompt: &[u32], session: &mut DecodeSession) -> Vector {
        let (last, head) = prompt
            .split_last()
            .expect("prefill requires at least one token");
        let mut scratch = PrefillScratch::new();
        for chunk in head.chunks(PREFILL_CHUNK) {
            self.prefill_step(
                &mut [(chunk, &mut *session)],
                &ThreadPool::single(),
                &mut scratch,
            );
        }
        self.forward_token(*last, session)
    }
}

/// Mutable decoding state: per-layer KV caches and the next position.
#[derive(Debug, Clone, Default)]
pub struct DecodeSession {
    /// One KV cache per layer.
    pub caches: Vec<PagedKvCache>,
    /// Position index of the next token.
    pub position: usize,
}

impl DecodeSession {
    /// Number of context tokens already absorbed (the next write position).
    pub fn context_len(&self) -> usize {
        self.position
    }

    /// Resets to an empty context.
    pub fn reset(&mut self) {
        for c in &mut self.caches {
            c.clear();
        }
        self.position = 0;
    }

    /// Rolls the whole session back to `len` context positions — every
    /// layer's KV cache is truncated (see [`PagedKvCache::truncate`]) and
    /// the next write position rewound. The rollback step of speculative
    /// decoding: rejected draft positions vanish from every layer at once,
    /// leaving the accepted context bit-identical.
    pub fn truncate(&mut self, len: usize) {
        for c in &mut self.caches {
            c.truncate(len);
        }
        self.position = self.position.min(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WeightGenerator;

    fn tiny_model(seed: u64) -> Model {
        WeightGenerator::new(&ModelConfig::tiny(), seed).build()
    }

    #[test]
    fn forward_token_returns_vocab_logits() {
        let m = tiny_model(1);
        let mut s = m.start_session();
        let logits = m.forward_token(3, &mut s);
        assert_eq!(logits.len(), m.config().vocab_size);
        assert_eq!(s.position, 1);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn decoding_is_deterministic() {
        let m = tiny_model(2);
        let a = m.generate_greedy(&[1, 2, 3], 8, u32::MAX);
        let b = m.generate_greedy(&[1, 2, 3], 8, u32::MAX);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn different_prompts_reach_different_states() {
        let m = tiny_model(3);
        let a = m.prefill(&[1, 2]);
        let b = m.prefill(&[4, 5]);
        let diff: f32 = a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4);
    }

    #[test]
    fn session_reset_reproduces_fresh_run() {
        let m = tiny_model(4);
        let mut s = m.start_session();
        let first: Vec<Vector> = [5, 6, 7].map(|t| m.forward_token(t, &mut s)).into();
        s.reset();
        let second: Vec<Vector> = [5, 6, 7].map(|t| m.forward_token(t, &mut s)).into();
        assert_eq!(first, second);
    }

    #[test]
    fn generate_stops_at_eos() {
        let m = tiny_model(5);
        // Find what the model wants to emit, then declare it EOS.
        let first = m.generate_greedy(&[1], 1, u32::MAX)[0];
        let out = m.generate_greedy(&[1], 8, first);
        assert!(out.is_empty());
    }

    /// Asserts every layer's KV of `got` equals `want` bit for bit.
    fn assert_same_kv(got: &DecodeSession, want: &DecodeSession, what: &str) {
        assert_eq!(got.position, want.position, "{what}: position");
        for (li, (g, w)) in got.caches.iter().zip(&want.caches).enumerate() {
            assert_eq!(g.len(), w.len(), "{what}: layer {li} length");
            for t in 0..g.len() {
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(g.key(t)), bits(w.key(t)), "{what}: layer {li} key {t}");
                assert_eq!(
                    bits(g.value(t)),
                    bits(w.value(t)),
                    "{what}: layer {li} value {t}"
                );
            }
        }
    }

    /// Feeds `sessions` the `tokens` (one row per position, one token per
    /// session) with `prefill_step` — `chunk` rows per step — at each
    /// thread count and with `forward_token`, and compares the KV.
    fn assert_step_matches_forward_token(
        m: &Model,
        sessions: &[DecodeSession],
        tokens: &[&[u32]],
        chunk: usize,
    ) {
        let mut want = sessions.to_vec();
        for row in tokens {
            for (session, token) in want.iter_mut().zip(*row) {
                let _ = m.forward_token(*token, session);
            }
        }
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(sparseinfer_tensor::ParallelOptions::threads(threads));
            let mut scratch = PrefillScratch::new();
            let mut got = sessions.to_vec();
            for rows in tokens.chunks(chunk) {
                let chunks: Vec<Vec<u32>> = (0..got.len())
                    .map(|i| rows.iter().map(|row| row[i]).collect())
                    .collect();
                let mut batch: Vec<(&[u32], &mut DecodeSession)> = chunks
                    .iter()
                    .map(Vec::as_slice)
                    .zip(got.iter_mut())
                    .collect();
                m.prefill_step(&mut batch, &pool, &mut scratch);
            }
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_same_kv(g, w, &format!("{threads} threads, session {i}"));
            }
        }
    }

    #[test]
    fn prefill_step_matches_forward_token_when_projections_split_across_workers() {
        // Wide enough that four sessions' projections exceed the per-worker
        // minimum several times over (see `gemv::MIN_MACS_PER_WORKER`).
        let mut cfg = ModelConfig::tiny();
        cfg.hidden_dim = 512;
        cfg.mlp_dim = 1024;
        cfg.n_heads = 8;
        cfg.n_layers = 1;
        cfg.vocab_size = 32;
        let m = WeightGenerator::new(&cfg, 11).build();
        let sessions = vec![m.start_session(); 4];
        let tokens: [&[u32]; 4] = [&[1, 2, 3, 4], &[5, 6, 7, 8], &[9, 8, 7, 6], &[5, 4, 3, 2]];
        assert_step_matches_forward_token(&m, &sessions, &tokens[..2], 1);
        // The same sessions with all four positions of each in one step:
        // sixteen columns through every projection.
        assert_step_matches_forward_token(&m, &sessions, &tokens, 4);
    }

    #[test]
    fn prefill_step_matches_forward_token_when_attention_splits_across_workers() {
        // Contexts long enough that two sessions' attention is a worker's
        // minimum; their KV is synthetic, which attention cannot tell.
        let m = tiny_model(12);
        let d = m.config().hidden_dim;
        let context = sparseinfer_tensor::gemv::MIN_MACS_PER_WORKER / (4 * d) + 40;
        let mut rng = sparseinfer_tensor::Prng::seed(13);
        let sessions: Vec<DecodeSession> = (0..4)
            .map(|i| {
                let mut session = m.start_session();
                for cache in &mut session.caches {
                    for _ in 0..context + i {
                        let k: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
                        let v: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
                        cache.push(&k, &v);
                    }
                }
                session.position = context + i;
                session
            })
            .collect();
        assert_step_matches_forward_token(&m, &sessions, &[&[1, 2, 3, 4]], 1);
        // Three positions per session in one step: a worker's columns then
        // end inside a session, and each column stops at its own position.
        let tokens: [&[u32]; 3] = [&[1, 2, 3, 4], &[5, 6, 7, 8], &[9, 8, 7, 6]];
        assert_step_matches_forward_token(&m, &sessions, &tokens, 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mlp input must be finite")]
    fn prefill_step_asserts_the_finiteness_its_row_skip_relies_on() {
        // A NaN in the embedding reaches the MLP input; the zero-gate row
        // skip is exact only for finite inputs, so debug builds refuse it.
        let good = tiny_model(14);
        let cfg = good.config().clone();
        let mut embedding = Matrix::zeros(cfg.vocab_size, cfg.hidden_dim);
        embedding.row_mut(0).fill(0.5);
        embedding.row_mut(0)[3] = f32::NAN;
        let m = Model::new(
            cfg.clone(),
            embedding,
            good.layers().to_vec(),
            RmsNorm::unit(cfg.hidden_dim),
            Matrix::zeros(cfg.vocab_size, cfg.hidden_dim),
        );
        let mut session = m.start_session();
        m.prefill_step(
            &mut [(0, &mut session)],
            &ThreadPool::single(),
            &mut PrefillScratch::new(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_prefill_panics() {
        let m = tiny_model(6);
        let _ = m.prefill(&[]);
    }
}
