//! Multi-head self-attention with rotary position embeddings and a KV cache.
//!
//! SparseInfer leaves the attention block dense (the paper exploits sparsity
//! only in the MLP; §III's profiling attributes 38% of decode time to
//! attention and 62% to the MLP). A complete attention implementation is
//! still required so the functional model decodes real token sequences and
//! the accuracy experiments exercise the same residual-stream dynamics as the
//! paper's models.
//!
//! Two entry points share every kernel. [`Attention::forward_ws`] is the
//! decode path: one token of one session. The batched prefill step
//! ([`Model::prefill_step`](crate::Model::prefill_step)) projects Q/K/V/O
//! for every column of the step — a column is one prompt position of one
//! session, and a session may bring several consecutive ones — in one pass
//! over each weight matrix, and then gives every column what `forward_ws`
//! gives its one token: RoPE, the KV push, and scores / softmax / value sum
//! over that session's own cache up to and including the column's own
//! position. The columns of one session attend together, up to
//! [`attn::QUERY_GROUP`] per pass, so a key block is read once for all of them
//! and a value row once for every two; every column still gets the bits it
//! would get alone.
//! The rotary angles are computed once per position — `head_dim / 2`
//! `(sin, cos)` pairs — and applied to every head of `q` and `k`, not once
//! per pair per head.
//!
//! `f32` caches are read in *runs* ([`PagedKvCache::run`]: one block — the
//! whole context of a capacity-reserved cache) through the head kernels of
//! [`sparseinfer_tensor::attn`] — vectorised where the build has AVX2, and
//! bitwise the scalar loop either way. `f16` caches keep the scalar loop
//! that converts each stored word as it is accumulated, one query at a
//! time.

use std::borrow::BorrowMut;
use std::ops::Range;

use sparseinfer_tensor::gemv::{gemm_rows_into, gemv_into, MIN_MACS_PER_WORKER};
use sparseinfer_tensor::{attn, Matrix, ThreadPool, Vector, Workspace};

use crate::kv::{KvDtype, PagedKvCache};
use crate::model::DecodeSession;
use crate::prefill::{per_column, PrefillScratch, PromptTokens};

/// [`PagedKvCache`] under the name the benchmark's pinned public API
/// (`benchmark/README.md`) imports from this module.
pub use crate::kv::PagedKvCache as KvCache;

/// Multi-head self-attention with RoPE.
#[derive(Debug, Clone, PartialEq)]
pub struct Attention {
    w_q: Matrix,
    w_k: Matrix,
    w_v: Matrix,
    w_o: Matrix,
    n_heads: usize,
}

impl Attention {
    /// Builds an attention block from four `d×d` projection matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrices are not square and equal-sized, or if the
    /// dimension is not divisible by `n_heads`.
    pub fn new(w_q: Matrix, w_k: Matrix, w_v: Matrix, w_o: Matrix, n_heads: usize) -> Self {
        let d = w_q.rows();
        for (name, m) in [("w_q", &w_q), ("w_k", &w_k), ("w_v", &w_v), ("w_o", &w_o)] {
            assert_eq!(m.rows(), d, "{name} rows");
            assert_eq!(m.cols(), d, "{name} cols");
        }
        assert_eq!(d % n_heads, 0, "dim {d} not divisible by {n_heads} heads");
        assert_eq!((d / n_heads) % 2, 0, "head_dim must be even for RoPE");
        Self {
            w_q,
            w_k,
            w_v,
            w_o,
            n_heads,
        }
    }

    /// Model dimension.
    pub fn hidden_dim(&self) -> usize {
        self.w_q.rows()
    }

    /// Number of heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Width of one head.
    pub(crate) fn head_dim(&self) -> usize {
        self.hidden_dim() / self.n_heads
    }

    /// Fills `table` (one head wide) with the rotary embedding of
    /// `position`: `sin` of the `head_dim / 2` rotation angles, then their
    /// `cos`. The angles depend on the position and the pair index only, so
    /// one table serves every head of `q` and `k` — and every layer.
    pub(crate) fn rope_table(position: usize, table: &mut [f32]) {
        let head_dim = table.len();
        let (sin, cos) = table.split_at_mut(head_dim / 2);
        for (i, (s, c)) in sin.iter_mut().zip(cos).enumerate() {
            let theta = (position as f32) * (10000.0f32).powf(-2.0 * i as f32 / head_dim as f32);
            (*s, *c) = theta.sin_cos();
        }
    }

    /// Rotates every head of `x` in place by a [`rope_table`](Self::rope_table).
    fn rope(x: &mut [f32], table: &[f32]) {
        let (sin, cos) = table.split_at(table.len() / 2);
        for head in x.chunks_exact_mut(table.len()) {
            for (pair, (sin, cos)) in head.chunks_exact_mut(2).zip(sin.iter().zip(cos)) {
                let (a, b) = (pair[0], pair[1]);
                pair[0] = a * cos - b * sin;
                pair[1] = a * sin + b * cos;
            }
        }
    }

    /// Processes one token at `position`, reading and extending `cache` —
    /// thin wrapper over [`forward_ws`](Self::forward_ws) that owns a
    /// throwaway workspace (bit-identical to the workspace path, which
    /// shares every kernel).
    ///
    /// Returns the attention output (before the residual connection).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.hidden_dim()`.
    pub fn forward(&self, x: &Vector, position: usize, cache: &mut PagedKvCache) -> Vector {
        let mut ws = Workspace::new();
        self.forward_ws(x, position, cache, &ThreadPool::single(), &mut ws)
    }

    /// Workspace variant of [`forward`](Self::forward): every intermediate
    /// (q/k/v, scores, head outputs) comes from `ws`, so after warm-up the
    /// call performs no heap allocation. QKV and output projections are
    /// row-partitioned across `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.hidden_dim()`.
    pub fn forward_ws(
        &self,
        x: &Vector,
        position: usize,
        cache: &mut PagedKvCache,
        pool: &ThreadPool,
        ws: &mut Workspace,
    ) -> Vector {
        let d = self.hidden_dim();
        assert_eq!(x.len(), d, "attention input length mismatch");

        let mut q = ws.take(d);
        let mut k = ws.take(d);
        let mut v = ws.take(d);
        gemv_into(&self.w_q, x, pool, &mut q);
        gemv_into(&self.w_k, x, pool, &mut k);
        gemv_into(&self.w_v, x, pool, &mut v);

        let mut table = ws.take(self.head_dim());
        Self::rope_table(position, table.as_mut_slice());
        Self::rope(q.as_mut_slice(), table.as_slice());
        Self::rope(k.as_mut_slice(), table.as_slice());
        ws.give(table);

        cache.push(k.as_slice(), v.as_slice());
        ws.give(k);
        ws.give(v);

        // One stretch per head, each sized to the held blocks (never short
        // of the context) so the buffer does not regrow, and reallocate,
        // token by token.
        let mut scores = ws.take(self.n_heads * cache.capacity_tokens());
        let mut out = ws.take(d);
        self.attend(
            cache,
            &mut [Query {
                q: q.as_slice(),
                context: cache.len(),
                scores: scores.as_mut_slice(),
                out: out.as_mut_slice(),
            }],
        );
        ws.give(q);
        ws.give(scores);

        let mut result = ws.take(d);
        gemv_into(&self.w_o, &out, pool, &mut result);
        ws.give(out);
        result
    }

    /// Causal attention of up to [`attn::QUERY_GROUP`] queries over one cache —
    /// each query over the first `context` positions, into its `out` — run
    /// by run, every head of a run while its keys (then its values) are
    /// close at hand, and each head's key and value reads shared by the
    /// queries ([`attn`]'s multi-query pass). Contexts may differ, as those
    /// of consecutive prompt positions do; every query's bits are those of
    /// attending alone: a head's scores, softmax and value chains do not
    /// depend on the order heads and runs are visited in, as long as each
    /// head takes its runs in ascending order. Shared by the decode path
    /// (one query) and the batched prefill step (a session's columns), so
    /// both produce the same bits.
    fn attend(&self, cache: &PagedKvCache, queries: &mut [Query<'_>]) {
        for query in queries.iter_mut() {
            query.out.fill(0.0);
        }
        if cache.dtype() == KvDtype::F16 {
            for query in queries {
                let scores = &mut query.scores[..query.context];
                self.attend_f16(query.q, cache, scores, query.out);
            }
            return;
        }
        let (n, heads) = (queries.len(), self.n_heads);
        let d = self.hidden_dim();
        let head_dim = self.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let context = queries.iter().map(|query| query.context).max().unwrap_or(0);
        for_each_run(cache, d, context, |run, keys, _| {
            for h in 0..heads {
                let span = h * head_dim..(h + 1) * head_dim;
                let mut qs = [&[][..]; attn::QUERY_GROUP];
                let mut scores: [&mut [f32]; attn::QUERY_GROUP] = Default::default();
                for ((q, slot), query) in qs.iter_mut().zip(&mut scores).zip(queries.iter_mut()) {
                    let part = query.head_part(h, heads, &run);
                    *q = &query.q[span.clone()];
                    *slot = &mut query.scores[part];
                }
                let keys = &keys[span.start..];
                attn::head_scores_into(&qs[..n], keys, d, scale, &mut scores[..n]);
            }
        });
        for query in queries.iter_mut() {
            let stretch = query.scores.len() / heads;
            for scores in query.scores.chunks_exact_mut(stretch).take(heads) {
                let scores = &mut scores[..query.context];
                let denom = exp_scores(scores);
                for w in scores.iter_mut() {
                    *w /= denom;
                }
            }
        }
        for_each_run(cache, d, context, |run, _, values| {
            for h in 0..heads {
                let span = h * head_dim..(h + 1) * head_dim;
                let mut weights = [&[][..]; attn::QUERY_GROUP];
                let mut outs: [&mut [f32]; attn::QUERY_GROUP] = Default::default();
                for ((w, out), query) in weights.iter_mut().zip(&mut outs).zip(queries.iter_mut()) {
                    *w = &query.scores[query.head_part(h, heads, &run)];
                    *out = &mut query.out[span.clone()];
                }
                let values = &values[span.start..];
                attn::add_weighted_values(&weights[..n], values, d, &mut outs[..n]);
            }
        });
    }

    /// [`attend`](Self::attend) over stored `F16` words, one position at a
    /// time: dequantizes in the accumulate — no materialized f32 copy of
    /// the cached row.
    fn attend_f16(&self, q: &[f32], cache: &PagedKvCache, scores: &mut [f32], out: &mut [f32]) {
        let head_dim = self.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        for h in 0..self.n_heads {
            let span = h * head_dim..(h + 1) * head_dim;
            let qh = &q[span.clone()];
            for (t, slot) in scores.iter_mut().enumerate() {
                let kh = &cache.key_h(t)[span.clone()];
                let s: f32 = qh.iter().zip(kh).map(|(a, b)| a * b.to_f32()).sum();
                *slot = s * scale;
            }
            let denom = exp_scores(scores);
            let out_h = &mut out[span.clone()];
            for (t, w) in scores.iter().enumerate() {
                let w = w / denom;
                let vh = &cache.value_h(t)[span.clone()];
                for (o, vv) in out_h.iter_mut().zip(vh) {
                    *o += w * vv.to_f32();
                }
            }
        }
    }

    /// The attention block of one batched prefill step (see
    /// [`Model::prefill_step`](crate::Model::prefill_step)): reads the
    /// normed inputs from `scratch.x` (one per column, session-major) and
    /// leaves the output projection in `scratch.proj` (per row). Q/K/V/O
    /// are one weight pass each for all columns. RoPE (from `scratch.rope`)
    /// and the KV push into the session's layer-`li` cache run column by
    /// column in position order; [`attend`](Self::attend) then takes each
    /// column over the cache *up to that column's own position* — what
    /// [`forward_ws`](Self::forward_ws) sees when the positions arrive one
    /// call at a time — with the columns spread across `pool` and the
    /// columns of one session on one worker attending together, up to
    /// [`attn::QUERY_GROUP`] per call.
    pub(crate) fn prefill_batch<T, S>(
        &self,
        li: usize,
        batch: &mut [(T, S)],
        pool: &ThreadPool,
        scratch: &mut PrefillScratch,
    ) where
        T: PromptTokens,
        S: BorrowMut<DecodeSession> + Sync,
    {
        let d = self.hidden_dim();
        let head_dim = self.head_dim();
        let b = scratch.x.len() / d;
        assert_eq!(scratch.rope.len(), b * head_dim, "one rope table each");

        let x = scratch.x.as_slice();
        gemm_rows_into(&self.w_q, x, b, |_| true, pool, &mut scratch.proj);
        per_column(scratch.proj.as_slice(), b, &mut scratch.q);
        gemm_rows_into(&self.w_k, x, b, |_| true, pool, &mut scratch.proj);
        per_column(scratch.proj.as_slice(), b, &mut scratch.k);
        gemm_rows_into(&self.w_v, x, b, |_| true, pool, &mut scratch.proj);
        per_column(scratch.proj.as_slice(), b, &mut scratch.v);

        let (mut score_len, mut context) = (0, 0);
        scratch.columns.clear();
        for (i, (tokens, session)) in batch.iter_mut().enumerate() {
            let cache = &mut session.borrow_mut().caches[li];
            for _ in tokens.tokens() {
                let c = scratch.columns.len();
                let table = &scratch.rope.as_slice()[c * head_dim..(c + 1) * head_dim];
                let span = c * d..(c + 1) * d;
                Self::rope(&mut scratch.q.as_mut_slice()[span.clone()], table);
                Self::rope(&mut scratch.k.as_mut_slice()[span.clone()], table);
                cache.push(
                    &scratch.k.as_slice()[span.clone()],
                    &scratch.v.as_slice()[span],
                );
                scratch.columns.push((i, cache.len()));
            }
            // As in `forward_ws`: sized to the held blocks, so the scratch
            // regrows only when a cache takes a block.
            context = context.max(cache.len());
            score_len = score_len.max(cache.capacity_tokens());
        }
        assert_eq!(scratch.columns.len(), b, "attention input shape mismatch");

        let lane = d + self.n_heads * score_len;
        scratch.lanes.resize(b * lane, 0.0);
        let q = scratch.q.as_slice();
        let sessions: &[(T, S)] = batch;
        let columns = scratch.columns.as_slice();
        // Scores and value sum: two multiply-accumulates per cached element.
        let min_columns = MIN_MACS_PER_WORKER.div_ceil(2 * d * context.max(1));
        let lanes = scratch.lanes.as_mut_slice();
        pool.run_rows(lanes, lane, min_columns, |first, mut lanes| {
            // A worker's columns, cut into runs of one session's columns of
            // at most `attn::QUERY_GROUP` each: one `attend` per run.
            let mine = &columns[first..first + lanes.len() / lane];
            let mut c = first;
            for session in mine.chunk_by(|a, b| a.0 == b.0) {
                let cache = &sessions[session[0].0].1.borrow().caches[li];
                for group in session.chunks(attn::QUERY_GROUP) {
                    let (group_lanes, rest) = lanes.split_at_mut(group.len() * lane);
                    lanes = rest;
                    let mut queries: [Query; attn::QUERY_GROUP] = Default::default();
                    let members = group_lanes.chunks_exact_mut(lane).zip(group);
                    for (query, (lane, &(_, context))) in queries.iter_mut().zip(members) {
                        let (out, scores) = lane.split_at_mut(d);
                        let q = &q[c * d..(c + 1) * d];
                        *query = Query {
                            q,
                            context,
                            scores,
                            out,
                        };
                        c += 1;
                    }
                    self.attend(cache, &mut queries[..group.len()]);
                }
            }
        });

        for (out, lane) in scratch
            .x
            .as_mut_slice()
            .chunks_exact_mut(d)
            .zip(scratch.lanes.as_slice().chunks_exact(lane))
        {
            out.copy_from_slice(&lane[..d]);
        }
        gemm_rows_into(
            &self.w_o,
            scratch.x.as_slice(),
            b,
            |_| true,
            pool,
            &mut scratch.proj,
        );
    }
}

/// One query of [`Attention::attend`]: a rotated query (every head), the
/// number of cached positions it attends over, its score scratch (one equal
/// stretch per head, each at least that long) and its output (every head).
#[derive(Default)]
struct Query<'a> {
    q: &'a [f32],
    context: usize,
    scores: &'a mut [f32],
    out: &'a mut [f32],
}

impl Query<'_> {
    /// Where head `h` of `heads` keeps the scores of the positions of `run`
    /// below this query's context.
    fn head_part(&self, h: usize, heads: usize, run: &Range<usize>) -> Range<usize> {
        let first = h * (self.scores.len() / heads);
        first + run.start.min(self.context)..first + run.end.min(self.context)
    }
}

/// Walks the first `context` positions of an `f32` cache of width `d` run
/// by run: `f` gets each run's positions and the key and value slabs that
/// start at its first one.
fn for_each_run(
    cache: &PagedKvCache,
    d: usize,
    context: usize,
    mut f: impl FnMut(Range<usize>, &[f32], &[f32]),
) {
    let mut t = 0;
    while t < context {
        let (keys, values) = cache.run(t);
        let end = context.min(t + keys.len() / d);
        f(t..end, keys, values);
        t = end;
    }
}

/// Softmax numerators in place (max-subtracted for stability); returns
/// their sum, accumulated in position order.
fn exp_scores(scores: &mut [f32]) -> f32 {
    let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut denom = 0.0f32;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        denom += *s;
    }
    denom
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kv::KvBlockPool;
    use sparseinfer_tensor::{gemv::gemv, Prng};

    fn random_attention(seed: u64, d: usize, heads: usize) -> Attention {
        let mut rng = Prng::seed(seed);
        let mut m = || Matrix::from_fn(d, d, |_, _| rng.normal(0.0, 0.15) as f32);
        Attention::new(m(), m(), m(), m(), heads)
    }

    /// [`Attention::forward`] as it was before the head kernels: the same
    /// projections, RoPE and push, then the scalar loop that looked every
    /// position of every head up through the cache — what the run-walking,
    /// vectorised path must reproduce bit for bit.
    pub(crate) fn forward_scalar(
        attn: &Attention,
        x: &Vector,
        position: usize,
        cache: &mut PagedKvCache,
    ) -> Vector {
        let (mut q, mut k, v) = (gemv(&attn.w_q, x), gemv(&attn.w_k, x), gemv(&attn.w_v, x));
        let mut table = vec![0.0; attn.head_dim()];
        Attention::rope_table(position, &mut table);
        Attention::rope(q.as_mut_slice(), &table);
        Attention::rope(k.as_mut_slice(), &table);
        cache.push(k.as_slice(), v.as_slice());

        let head_dim = attn.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let half_kv = cache.dtype() == KvDtype::F16;
        let mut scores = vec![0.0f32; cache.len()];
        let mut out = Vector::zeros(attn.hidden_dim());
        for h in 0..attn.n_heads {
            let span = h * head_dim..(h + 1) * head_dim;
            let qh = &q.as_slice()[span.clone()];
            for (t, slot) in scores.iter_mut().enumerate() {
                let s: f32 = if half_kv {
                    let kh = &cache.key_h(t)[span.clone()];
                    qh.iter().zip(kh).map(|(a, b)| a * b.to_f32()).sum()
                } else {
                    let kh = &cache.key(t)[span.clone()];
                    qh.iter().zip(kh).map(|(a, b)| a * b).sum()
                };
                *slot = s * scale;
            }
            let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for s in scores.iter_mut() {
                *s = (*s - max).exp();
                denom += *s;
            }
            let out_h = &mut out.as_mut_slice()[span.clone()];
            for (t, w) in scores.iter().enumerate() {
                let w = w / denom;
                if half_kv {
                    let vh = &cache.value_h(t)[span.clone()];
                    for (o, vv) in out_h.iter_mut().zip(vh) {
                        *o += w * vv.to_f32();
                    }
                } else {
                    let vh = &cache.value(t)[span.clone()];
                    for (o, vv) in out_h.iter_mut().zip(vh) {
                        *o += w * vv;
                    }
                }
            }
        }
        gemv(&attn.w_o, &out)
    }

    /// A cache over `pool` — or, without one, a single block with room for
    /// one more position — holding `context` synthetic positions.
    pub(crate) fn filled_cache(
        pool: Option<&KvBlockPool>,
        d: usize,
        context: usize,
    ) -> PagedKvCache {
        let mut rng = Prng::seed(context as u64 + 77);
        let mut cache = pool.map_or_else(
            || PagedKvCache::with_capacity(d, context + 1),
            PagedKvCache::new,
        );
        for _ in 0..context {
            let k: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
            let v: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
            cache.push(&k, &v);
        }
        cache
    }

    #[test]
    fn forward_is_bitwise_the_scalar_loop_over_every_layout() {
        // Contexts around the kernel's group of eight and the block of 16
        // (one run, a run ending mid-group, many runs), head widths the
        // vector path takes (32) and leaves to the fallback (12). Each
        // context is read as one block — `with_capacity`, or a pool sized
        // to it for f16 — and from pools of 16- and 3-token blocks, which
        // split it into runs, some unaligned to the kernel's groups.
        let bits = |v: &Vector| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (d, heads) in [(64, 2), (24, 2)] {
            let attn = random_attention(21, d, heads);
            let x = Vector::from_fn(d, |i| ((i * 3) as f32 * 0.19).sin());
            for context in [1usize, 8, 9, 64, 65, 200] {
                let f16 = |block| KvBlockPool::with_budget_dtype(block, usize::MAX, KvDtype::F16);
                let layouts = [
                    None,
                    Some(f16(context)),
                    Some(KvBlockPool::new(16)),
                    Some(f16(16)),
                    Some(KvBlockPool::new(3)),
                    Some(f16(3)),
                ];
                for pool in &layouts {
                    let mut cache = filled_cache(pool.as_ref(), d, context - 1);
                    let mut scalar_cache = cache.clone();
                    let got = attn.forward(&x, context - 1, &mut cache);
                    let want = forward_scalar(&attn, &x, context - 1, &mut scalar_cache);
                    let block = pool.as_ref().map_or(context, KvBlockPool::block_tokens);
                    assert_eq!(cache.blocks_held(), context.div_ceil(block));
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "d {d} context {context} {:?} block {block}",
                        cache.dtype(),
                    );
                }
            }
        }
    }

    #[test]
    fn flat_cache_stores_and_returns_positions() {
        let mut cache = PagedKvCache::with_capacity(4, 8);
        cache.push(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]);
        cache.push(&[9.0; 4], &[10.0; 4]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.blocks_held(), 1, "one block holds the whole budget");
        assert_eq!(cache.capacity_tokens(), 8);
        assert_eq!(cache.key(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cache.value(1), &[10.0; 4]);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.pool().blocks_free(), 1, "block retained for reuse");
        cache.push(&[0.5; 4], &[0.25; 4]);
        assert_eq!(cache.pool().blocks_created(), 1, "reuse allocates nothing");
    }

    #[test]
    fn paged_cache_attention_is_bitwise_identical_to_contiguous() {
        // Reading KV through the block table returns the same floats in the
        // same order, so attention outputs are bit-identical between one
        // block and many — including at block boundaries.
        let attn = random_attention(11, 16, 2);
        let pool = KvBlockPool::new(3); // deliberately unaligned
        let mut contiguous = PagedKvCache::with_capacity(16, 16);
        let mut paged = PagedKvCache::new(&pool);
        let mut ws = Workspace::new();
        let tp = ThreadPool::single();
        for pos in 0..10 {
            let x = Vector::from_fn(16, |i| ((i * 5 + pos * 2) as f32 * 0.17).sin());
            let a = attn.forward_ws(&x, pos, &mut contiguous, &tp, &mut ws);
            let b = attn.forward_ws(&x, pos, &mut paged, &tp, &mut ws);
            assert_eq!(a, b, "position {pos}");
            ws.give(a);
            ws.give(b);
        }
        assert_eq!(contiguous.blocks_held(), 1);
        assert_eq!(paged.len(), 10);
        assert_eq!(paged.capacity_tokens(), 12, "4 blocks of 3 tokens");
        paged.clear();
        assert_eq!(pool.blocks_in_use(), 0, "clear returns blocks");
    }

    #[test]
    fn single_token_attends_to_itself() {
        let attn = random_attention(1, 16, 2);
        let mut cache = PagedKvCache::with_capacity(16, 1);
        let x = Vector::from_fn(16, |i| (i as f32 * 0.7).sin());
        let out = attn.forward(&x, 0, &mut cache);
        assert_eq!(out.len(), 16);
        assert_eq!(cache.len(), 1);
        // With one position, softmax weight is exactly 1 → out = W_o · v.
        let v = gemv(&attn.w_v, &x);
        let expected = gemv(&attn.w_o, &v);
        for (a, b) in out.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn cache_grows_per_token() {
        let attn = random_attention(2, 16, 2);
        let pool = KvBlockPool::new(2);
        let mut cache = PagedKvCache::new(&pool);
        for pos in 0..5 {
            let x = Vector::from_fn(16, |i| ((i + pos) as f32).cos());
            let _ = attn.forward(&x, pos, &mut cache);
        }
        assert_eq!(cache.len(), 5);
        assert_eq!(pool.blocks_in_use(), 3, "blocks taken as the context grew");
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn rope_makes_attention_position_dependent() {
        // With a single cached position softmax renormalizes any score to 1,
        // so RoPE can only show up once the query attends over two or more
        // positions with different relative distances.
        let attn = random_attention(3, 16, 2);
        let x0 = Vector::from_fn(16, |i| (i as f32 * 0.3).sin());
        let x1 = Vector::from_fn(16, |i| (i as f32 * 0.9).cos());

        let mut c1 = PagedKvCache::with_capacity(16, 2);
        let _ = attn.forward(&x0, 0, &mut c1);
        let near = attn.forward(&x1, 1, &mut c1);

        let mut c2 = PagedKvCache::with_capacity(16, 2);
        let _ = attn.forward(&x0, 0, &mut c2);
        let far = attn.forward(&x1, 9, &mut c2);

        let diff: f32 = near
            .iter()
            .zip(far.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "RoPE had no effect: diff {diff}");
    }

    /// The rotation as it was before the angles were tabulated: `powf` and
    /// `sin_cos` per pair of every head.
    fn rope_per_pair(head: &mut [f32], position: usize) {
        let half = head.len() / 2;
        for i in 0..half {
            let theta = (position as f32) * (10000.0f32).powf(-2.0 * i as f32 / head.len() as f32);
            let (sin, cos) = theta.sin_cos();
            let a = head[2 * i];
            let b = head[2 * i + 1];
            head[2 * i] = a * cos - b * sin;
            head[2 * i + 1] = a * sin + b * cos;
        }
    }

    #[test]
    fn tabulated_rope_is_bitwise_the_per_pair_rotation() {
        let (heads, head_dim) = (3, 32);
        let mut rng = Prng::seed(31);
        let mut table = vec![0.0f32; head_dim];
        for position in 0..512 {
            let x: Vec<f32> = (0..heads * head_dim)
                .map(|_| rng.normal(0.0, 1.0) as f32)
                .collect();
            let mut expected = x.clone();
            for head in expected.chunks_exact_mut(head_dim) {
                rope_per_pair(head, position);
            }
            let mut got = x;
            Attention::rope_table(position, &mut table);
            Attention::rope(&mut got, &table);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expected), "position {position}");
        }
    }

    #[test]
    fn rope_preserves_norm() {
        let mut head: Vec<f32> = (0..8).map(|i| (i as f32) - 3.5).collect();
        let before: f32 = head.iter().map(|v| v * v).sum();
        let mut table = [0.0f32; 8];
        Attention::rope_table(7, &mut table);
        Attention::rope(&mut head, &table);
        let after: f32 = head.iter().map(|v| v * v).sum();
        assert!((before - after).abs() < 1e-3);
    }

    #[test]
    fn workspace_forward_is_bitwise_identical_to_plain_forward() {
        let attn = random_attention(9, 16, 2);
        let mut c1 = PagedKvCache::with_capacity(16, 16);
        let mut c2 = PagedKvCache::with_capacity(16, 16);
        let mut ws = Workspace::new();
        let pool = ThreadPool::single();
        for pos in 0..6 {
            let x = Vector::from_fn(16, |i| ((i + pos * 3) as f32 * 0.21).sin());
            let plain = attn.forward(&x, pos, &mut c1);
            let via_ws = attn.forward_ws(&x, pos, &mut c2, &pool, &mut ws);
            assert_eq!(plain, via_ws, "position {pos}");
        }
    }

    #[test]
    fn f16_paged_attention_is_layout_invariant_and_tracks_f32() {
        // The *rounding* is fixed by the pushed values, so two f16 pools
        // with different (and deliberately unaligned) block sizes must
        // produce bit-identical outputs — the block table never changes
        // what is read, only where it lives. Against f32 storage the
        // outputs agree to f16 precision.
        let attn = random_attention(17, 16, 2);
        let pool_a = KvBlockPool::with_budget_dtype(3, usize::MAX, KvDtype::F16);
        let pool_b = KvBlockPool::with_budget_dtype(64, usize::MAX, KvDtype::F16);
        let mut half_a = PagedKvCache::new(&pool_a);
        let mut half_b = PagedKvCache::new(&pool_b);
        let mut full = PagedKvCache::with_capacity(16, 16);
        assert_eq!(half_a.dtype(), KvDtype::F16);
        assert_eq!(full.dtype(), KvDtype::F32);
        let mut ws = Workspace::new();
        let tp = ThreadPool::single();
        let mut max_rel = 0.0f32;
        for pos in 0..10 {
            let x = Vector::from_fn(16, |i| ((i * 5 + pos * 2) as f32 * 0.17).sin());
            let a = attn.forward_ws(&x, pos, &mut half_a, &tp, &mut ws);
            let b = attn.forward_ws(&x, pos, &mut half_b, &tp, &mut ws);
            let f = attn.forward_ws(&x, pos, &mut full, &tp, &mut ws);
            assert_eq!(a, b, "position {pos}: layout must not matter");
            let norm: f32 = f.iter().map(|v| v.abs()).sum::<f32>() + 1e-6;
            let diff: f32 = a.iter().zip(f.iter()).map(|(p, q)| (p - q).abs()).sum();
            max_rel = max_rel.max(diff / norm);
            ws.give(a);
            ws.give(b);
            ws.give(f);
        }
        assert!(max_rel < 2e-3, "f16 KV drifted {max_rel} from f32");
        assert_eq!(
            pool_a.in_use_bytes(),
            2 * pool_a.blocks_in_use() as u64 * 3 * 16 * 2,
            "f16 bytes accounted at 2 per element"
        );
    }

    #[test]
    fn attention_output_is_finite_over_long_contexts() {
        let attn = random_attention(4, 32, 4);
        let pool = KvBlockPool::new(16);
        let mut cache = PagedKvCache::new(&pool);
        for pos in 0..64 {
            let x = Vector::from_fn(32, |i| ((i * 7 + pos * 3) as f32 * 0.13).sin());
            let out = attn.forward(&x, pos, &mut cache);
            assert!(out.iter().all(|v| v.is_finite()), "position {pos}");
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_head_count_panics() {
        let _ = random_attention(5, 16, 3);
    }
}
