//! One decoder layer: norm → attention → residual, norm → MLP → residual.
//!
//! [`DecoderLayer::forward`] is the dense reference for one position of one
//! session; [`attention_half_ws`](DecoderLayer::attention_half_ws) is the
//! half engines share before running their own MLP. The layer's share of
//! the batched prefill step
//! ([`Model::prefill_step`](crate::Model::prefill_step)) runs the same
//! sequence for every column of the step — one prompt position of one
//! session — with one pass over each weight matrix, each column's residual
//! row bitwise what `forward` makes of it.

use std::borrow::BorrowMut;

use sparseinfer_tensor::{ThreadPool, Vector, Workspace};

use crate::attention::Attention;
use crate::kv::PagedKvCache;
use crate::mlp::GatedMlp;
use crate::model::DecodeSession;
use crate::norm::RmsNorm;
use crate::prefill::{PrefillScratch, PromptTokens};

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

    /// The pre-MLP norm. Exposed so sparse engines can reproduce the exact
    /// MLP input (`X = mlp_norm(h)`) that the dense path sees.
    pub fn mlp_norm(&self) -> &RmsNorm {
        &self.mlp_norm
    }

    /// Runs attention and its residual, returning the hidden state *before*
    /// the MLP sub-block. Split out so sparse engines can substitute their
    /// own MLP execution while sharing the attention path. Thin wrapper
    /// over [`attention_half_ws`](Self::attention_half_ws).
    pub fn attention_half(&self, h: &Vector, position: usize, cache: &mut PagedKvCache) -> Vector {
        let mut ws = Workspace::new();
        self.attention_half_ws(h, position, cache, &ThreadPool::single(), &mut ws)
    }

    /// Workspace variant of [`attention_half`](Self::attention_half): the
    /// returned vector and every intermediate come from `ws` (give the
    /// result back to `ws` when done). Bit-identical to the wrapper.
    pub fn attention_half_ws(
        &self,
        h: &Vector,
        position: usize,
        cache: &mut PagedKvCache,
        pool: &ThreadPool,
        ws: &mut Workspace,
    ) -> Vector {
        let mut normed = ws.take(h.len());
        self.attn_norm.forward_into(h, &mut normed);
        let mut out = self.attn.forward_ws(&normed, position, cache, pool, ws);
        ws.give(normed);
        // Residual: x + y is commutative bitwise, so accumulating the
        // residual into the attention output equals the seed's h + attn.
        out.add_assign(h);
        out
    }

    /// Number of attention heads.
    pub fn n_heads(&self) -> usize {
        self.attn.n_heads()
    }

    /// This layer's share of one batched prefill step (see
    /// [`Model::prefill_step`](crate::Model::prefill_step)): advances every
    /// column's residual row in `scratch.h` through norm → attention →
    /// residual → norm → MLP → residual, each row bitwise what
    /// [`forward`](Self::forward) makes of it. `li` is this layer's index,
    /// selecting each session's KV cache.
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
        let b = scratch.h.len() / d;
        let norm_rows = |norm: &RmsNorm, scratch: &mut PrefillScratch| {
            let rows = scratch.h.as_slice().chunks_exact(d);
            for (h, x) in rows.zip(scratch.x.as_mut_slice().chunks_exact_mut(d)) {
                norm.forward_slice(h, x);
            }
        };
        norm_rows(&self.attn_norm, scratch);
        self.attn.prefill_batch(li, batch, pool, scratch);
        for (i, h) in scratch.h.as_mut_slice().chunks_exact_mut(d).enumerate() {
            for (slot, row) in h.iter_mut().zip(scratch.proj.as_slice().chunks_exact(b)) {
                *slot += row[i];
            }
        }
        norm_rows(&self.mlp_norm, scratch);
        self.mlp.prefill_batch(pool, scratch);
        for (slot, y) in scratch
            .h
            .as_mut_slice()
            .iter_mut()
            .zip(scratch.mlp_out.iter())
        {
            *slot += y;
        }
    }

    /// Dense forward pass through the full layer.
    pub fn forward(&self, h: &Vector, position: usize, cache: &mut PagedKvCache) -> Vector {
        let mid = self.attention_half(h, position, cache);
        let x = self.mlp_norm.forward(&mid);
        let mlp_out = self.mlp.forward(&x);
        let mut out = mid;
        out.add_assign(&mlp_out);
        out
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

    #[test]
    fn forward_is_attention_half_plus_mlp() {
        let l = layer(1, 16, 48);
        let h = Vector::from_fn(16, |i| (i as f32 * 0.31).sin());

        let mut c1 = PagedKvCache::with_capacity(16, 1);
        let full = l.forward(&h, 0, &mut c1);

        let mut c2 = PagedKvCache::with_capacity(16, 1);
        let mid = l.attention_half(&h, 0, &mut c2);
        let x = l.mlp_norm().forward(&mid);
        let mut manual = mid.clone();
        manual.add_assign(&l.mlp().forward(&x));

        for (a, b) in full.iter().zip(manual.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
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
        let out = l.forward(&h, 0, &mut cache);
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
