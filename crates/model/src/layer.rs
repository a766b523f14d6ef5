//! One decoder layer: norm → attention → residual, norm → MLP → residual.
//!
//! The layer runs inside a forward step ([`Model::step`](crate::Model::step)):
//! the same sequence for every column of the step — one position of one
//! session — with one pass over each weight matrix and each column's MLP
//! under its own row filter.
//! [`attention_half_ws`](DecoderLayer::attention_half_ws) is the step's
//! attention half at one column over a lone cache.

use std::borrow::BorrowMut;

use sparseinfer_tensor::{ThreadPool, Vector, Workspace};

use crate::attention::Attention;
use crate::kv::PagedKvCache;
use crate::mlp::GatedMlp;
use crate::model::DecodeSession;
use crate::norm::RmsNorm;
use crate::prefill::{MlpHook, PrefillScratch, PromptTokens};

/// A pre-norm decoder layer (Llama topology).
#[derive(Debug, Clone)]
pub struct DecoderLayer {
    attn_norm: RmsNorm,
    attn: Attention,
    mlp_norm: RmsNorm,
    mlp: GatedMlp,
}

impl DecoderLayer {
    /// Assembles a layer.
    ///
    /// # Panics
    ///
    /// Panics if the norms, attention and MLP disagree on the hidden
    /// dimension.
    pub fn new(attn_norm: RmsNorm, attn: Attention, mlp_norm: RmsNorm, mlp: GatedMlp) -> Self {
        assert_eq!(attn_norm.dim(), attn.hidden_dim(), "attn norm dim");
        assert_eq!(mlp_norm.dim(), mlp.hidden_dim(), "mlp norm dim");
        assert_eq!(attn.hidden_dim(), mlp.hidden_dim(), "attn/mlp dim");
        Self {
            attn_norm,
            attn,
            mlp_norm,
            mlp,
        }
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.mlp.hidden_dim()
    }

    /// The MLP block (the predictor and sparse engine operate on this).
    pub fn mlp(&self) -> &GatedMlp {
        &self.mlp
    }

    /// Mutable access to the MLP block (ReLUfication demos).
    pub fn mlp_mut(&mut self) -> &mut GatedMlp {
        &mut self.mlp
    }

    /// Runs attention and its residual, returning the hidden state *before*
    /// the MLP sub-block: the attention half of a one-column step, the
    /// returned vector taken from `ws` (give it back when done).
    pub fn attention_half_ws(
        &self,
        h: &Vector,
        position: usize,
        cache: &mut PagedKvCache,
        pool: &ThreadPool,
        ws: &mut Workspace,
    ) -> Vector {
        let mut scratch = PrefillScratch::new();
        scratch.x.resize(h.len(), 0.0);
        self.attn_norm
            .forward_slice(h.as_slice(), scratch.x.as_mut_slice());
        self.attn
            .forward_column(position, cache, pool, &mut scratch);
        let mut out = ws.take(0);
        out.copy_from(scratch.x.as_slice());
        // Residual: x + y is commutative bitwise, so accumulating the
        // residual into the attention output equals the step's h + attn.
        out.add_assign(h);
        out
    }

    /// Number of attention heads.
    pub fn n_heads(&self) -> usize {
        self.attn.n_heads()
    }

    /// This layer's share of one forward step (see
    /// [`Model::step`](crate::Model::step)): advances every column's
    /// residual row in `scratch.h` through norm → attention → residual →
    /// norm → `hook`'s MLP → residual. `li` is this layer's index,
    /// selecting each session's KV cache.
    pub(crate) fn step<T, S, H>(
        &self,
        li: usize,
        batch: &mut [(T, S)],
        hook: &mut H,
        pool: &ThreadPool,
        scratch: &mut PrefillScratch,
    ) where
        T: PromptTokens,
        S: BorrowMut<DecodeSession> + Sync,
        H: MlpHook,
    {
        norm_rows(&self.attn_norm, scratch);
        self.attn.step(li, batch, pool, scratch);
        scratch.h.add_assign(&scratch.x);
        norm_rows(&self.mlp_norm, scratch);
        hook.mlp(li, &self.mlp, scratch.x.as_slice(), pool, &mut scratch.mlp);
        scratch.h.add_assign(&scratch.mlp.out);
    }
}

/// `scratch.x` = `norm` of every residual row of `scratch.h`.
fn norm_rows(norm: &RmsNorm, scratch: &mut PrefillScratch) {
    let d = norm.dim();
    scratch.x.resize(scratch.h.len(), 0.0);
    let rows = scratch.h.as_slice().chunks_exact(d);
    for (h, x) in rows.zip(scratch.x.as_mut_slice().chunks_exact_mut(d)) {
        norm.forward_slice(h, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use sparseinfer_tensor::{Matrix, Prng};

    fn layer(seed: u64, d: usize, k: usize) -> DecoderLayer {
        let mut rng = Prng::seed(seed);
        let mut sq = |s: f64| Matrix::from_fn(d, d, |_, _| rng.normal(0.0, s) as f32);
        let attn = Attention::new(sq(0.1), sq(0.1), sq(0.1), sq(0.1), 2);
        let mut rect = |s: f64| Matrix::from_fn(k, d, |_, _| rng.normal(0.0, s) as f32);
        let mlp = GatedMlp::new(rect(0.3), rect(0.3), rect(0.3), Activation::Relu);
        DecoderLayer::new(RmsNorm::unit(d), attn, RmsNorm::unit(d), mlp)
    }

    /// One column of [`DecoderLayer::step`] at `position`, its `cache`
    /// lent to a one-layer session: the residual row out.
    fn step_column(
        l: &DecoderLayer,
        h: &Vector,
        position: usize,
        cache: &mut PagedKvCache,
    ) -> Vector {
        let mut scratch = PrefillScratch::new();
        scratch.h.copy_from(h.as_slice());
        scratch.rope.resize(l.attn.head_dim(), 0.0);
        Attention::rope_table(position, scratch.rope.as_mut_slice());
        let caches = vec![std::mem::replace(cache, PagedKvCache::new(cache.pool()))];
        let mut session = DecodeSession { caches, position };
        let pool = ThreadPool::single();
        l.step(0, &mut [(0u32, &mut session)], &mut (), &pool, &mut scratch);
        *cache = session.caches.pop().expect("the lone cache");
        scratch.h
    }

    #[test]
    fn forward_is_attention_half_plus_mlp() {
        // The step's column is bitwise the attention half, then the MLP
        // norm and the `f32` reference MLP added to it.
        let l = layer(1, 16, 48);
        let h = Vector::from_fn(16, |i| (i as f32 * 0.31).sin());

        let mut c1 = PagedKvCache::with_capacity(16, 1);
        let full = step_column(&l, &h, 0, &mut c1);

        let mut c2 = PagedKvCache::with_capacity(16, 1);
        let (pool, mut ws) = (ThreadPool::single(), Workspace::new());
        let mid = l.attention_half_ws(&h, 0, &mut c2, &pool, &mut ws);
        let x = l.mlp_norm.forward(&mid);
        let mut manual = mid.clone();
        manual.add_assign(&l.mlp().forward(&x));

        let bits = |v: &Vector| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&full), bits(&manual));
    }

    #[test]
    fn attention_half_ws_is_bitwise_the_scalar_attention_plus_residual() {
        // The half every engine step runs, over one block and over 16-token
        // blocks, against the scalar reference — at contexts of one run, a
        // run ending mid-group, and many runs.
        use crate::attention::tests::{filled_cache, forward_scalar};
        let l = layer(4, 64, 96);
        let h = Vector::from_fn(64, |i| (i as f32 * 0.23).cos());
        let pool = ThreadPool::single();
        let mut ws = Workspace::new();
        for context in [1usize, 8, 9, 64, 65, 200] {
            let kv_pool = crate::kv::KvBlockPool::new(16);
            for kv_pool in [None, Some(&kv_pool)] {
                let mut cache = filled_cache(kv_pool, 64, context - 1);
                let mut scalar_cache = cache.clone();
                let got = l.attention_half_ws(&h, context - 1, &mut cache, &pool, &mut ws);
                let normed = l.attn_norm.forward(&h);
                let mut want = forward_scalar(&l.attn, &normed, context - 1, &mut scalar_cache);
                want.add_assign(&h);
                let bits = |v: &Vector| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "context {context}");
                ws.give(got);
            }
        }
    }

    #[test]
    fn residual_keeps_input_information() {
        let l = layer(2, 16, 48);
        let h = Vector::from_fn(16, |i| i as f32);
        let mut cache = PagedKvCache::with_capacity(16, 1);
        let out = step_column(&l, &h, 0, &mut cache);
        // Residual stream must correlate with the input, not replace it.
        let dot = out.dot(&h).unwrap();
        assert!(dot > 0.0);
    }

    #[test]
    #[should_panic(expected = "attn norm dim")]
    fn dimension_mismatch_panics() {
        let l = layer(3, 16, 48);
        let _ = DecoderLayer::new(
            RmsNorm::unit(8),
            l.attn.clone(),
            RmsNorm::unit(16),
            l.mlp.clone(),
        );
    }
}
