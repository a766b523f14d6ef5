//! The common predictor interface.
//!
//! Predictors split cleanly into **shared, read-only state** (packed sign
//! tables, DejaVu weights, oracle gate copies — the memory that dominates
//! §V-A2's accounting) and **per-session scratch** (the token's packed
//! input signs, low-rank hidden buffers, a random stream). The trait makes
//! that split explicit: [`SparsityPredictor::predict_into`] takes `&self`
//! plus a caller-owned [`PredictorScratch`], so one predictor behind an
//! `Arc` serves every slot of a batch concurrently — batch memory is O(1)
//! in in-flight requests, the way DejaVu-style shared predictors avoid
//! re-loading per-slot copies of the same tables — while each session keeps
//! its own scratch for isolation and determinism.

use sparseinfer_tensor::{Prng, Vector};

use crate::mask::SkipMask;

/// Per-layer cost of producing one prediction, in the units the paper's
/// Table I uses: bitwise 32-bit XOR+popcount pairs, weight-precision MACs,
/// and bytes loaded. Consumed by the sparse engine's op accounting and the
/// GPU cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionCost {
    /// 32-bit XOR + popcount pairs (the sign-bit predictor's currency).
    pub xor_popc: u64,
    /// Multiply–accumulates (the trained predictor's currency).
    pub macs: u64,
    /// Bytes loaded from memory (packed sign tables or predictor weights).
    pub bytes_loaded: u64,
}

/// Per-session mutable state and scratch buffers for predictions.
///
/// One scratch belongs to one decode session (engine); the predictor itself
/// stays immutable and shareable. All buffers are recycled across calls, so
/// steady-state prediction performs no heap allocation. Fields cover the
/// needs of every predictor family in the workspace; a predictor uses only
/// what it needs and external implementations may ignore the scratch
/// entirely.
#[derive(Debug, Clone, Default)]
pub struct PredictorScratch {
    /// Packed sign bits of the current input (sign-bit predictor).
    pub sign_words: Vec<u32>,
    /// Hidden/preactivation buffer (DejaVu low-rank features, oracle gate
    /// preactivations).
    pub hidden: Vector,
    /// Classifier score buffer (DejaVu).
    pub scores: Vector,
    /// Private random streams, one per layer (random predictor), seeded
    /// lazily from the predictor's base seed so every session replays the
    /// same streams.
    pub rngs: Vec<Prng>,
}

impl PredictorScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes retained by this scratch (buffer capacities, matching
    /// `Workspace::pooled_bytes`) — the *per-session* predictor cost, as
    /// opposed to the shared
    /// [`memory_bytes`](SparsityPredictor::memory_bytes).
    pub fn memory_bytes(&self) -> u64 {
        let rngs = self.rngs.capacity() * std::mem::size_of::<Prng>();
        (self.sign_words.capacity() * 4
            + (self.hidden.capacity() + self.scores.capacity()) * 4
            + rngs) as u64
    }
}

/// A per-layer activation sparsity predictor.
///
/// Implementations receive the *normalized MLP input* `X` for a layer and
/// fill a [`SkipMask`] over the layer's `k` intermediate rows (true =
/// predicted sparse, skip the row). Shared state is read-only (`&self`);
/// anything mutable lives in the caller's [`PredictorScratch`], which is
/// what makes predictors `Send + Sync` and shareable across batch slots via
/// `Arc`. `Debug` is a supertrait so boxed predictors compose with
/// `#[derive(Debug)]` engines.
pub trait SparsityPredictor: std::fmt::Debug + Send + Sync {
    /// Predicts the skip mask for `layer` given the MLP input `x`, writing
    /// it into `mask` (resized in place; allocation-free once warm).
    ///
    /// # Panics
    ///
    /// Implementations panic if `layer` is out of range or `x` has the wrong
    /// dimension — both indicate plumbing bugs, not data-dependent errors.
    fn predict_into(
        &self,
        layer: usize,
        x: &Vector,
        scratch: &mut PredictorScratch,
        mask: &mut SkipMask,
    );

    /// Short, stable name used in experiment printouts.
    fn name(&self) -> &'static str;

    /// Number of layers this predictor covers.
    fn n_layers(&self) -> usize;

    /// The per-layer cost of one prediction. Defaults to free (used by the
    /// oracle and random baselines, which have no realizable hardware cost).
    fn prediction_cost(&self, _layer: usize) -> PredictionCost {
        PredictionCost::default()
    }

    /// Bytes of *shared* predictor state (packed sign tables, trained
    /// weights). Counted once per predictor regardless of how many sessions
    /// share it. Defaults to 0 for stateless baselines.
    fn memory_bytes(&self) -> u64 {
        0
    }

    /// Convenience one-shot prediction with a throwaway scratch —
    /// experiment and test ergonomics, not the serving hot path (allocates
    /// per call). Stateful predictors may override it to thread their own
    /// legacy mutable state (the random baseline does).
    fn predict(&mut self, layer: usize, x: &Vector) -> SkipMask {
        let mut scratch = PredictorScratch::new();
        let mut mask = SkipMask::all_dense(0);
        self.predict_into(layer, x, &mut scratch, &mut mask);
        mask
    }
}

/// Boxed predictors forward to the inner implementation, so `Box<dyn
/// SparsityPredictor>` plugs into anything generic over predictors — the
/// ergonomic backbone of the engine builder's dynamic configuration.
impl<P: SparsityPredictor + ?Sized> SparsityPredictor for Box<P> {
    fn predict_into(
        &self,
        layer: usize,
        x: &Vector,
        scratch: &mut PredictorScratch,
        mask: &mut SkipMask,
    ) {
        (**self).predict_into(layer, x, scratch, mask)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn n_layers(&self) -> usize {
        (**self).n_layers()
    }

    fn prediction_cost(&self, layer: usize) -> PredictionCost {
        (**self).prediction_cost(layer)
    }

    fn memory_bytes(&self) -> u64 {
        (**self).memory_bytes()
    }

    fn predict(&mut self, layer: usize, x: &Vector) -> SkipMask {
        (**self).predict(layer, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial in-module implementation proving object safety.
    #[derive(Debug)]
    struct NeverSkip {
        k: usize,
        layers: usize,
    }

    impl SparsityPredictor for NeverSkip {
        fn predict_into(
            &self,
            layer: usize,
            _x: &Vector,
            _scratch: &mut PredictorScratch,
            mask: &mut SkipMask,
        ) {
            assert!(layer < self.layers);
            mask.reset_dense(self.k);
        }
        fn name(&self) -> &'static str {
            "never-skip"
        }
        fn n_layers(&self) -> usize {
            self.layers
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn SparsityPredictor> = Box::new(NeverSkip { k: 8, layers: 2 });
        let mask = boxed.predict(0, &Vector::zeros(4));
        assert_eq!(mask.skip_count(), 0);
        assert_eq!(mask.len(), 8);
        assert_eq!(boxed.name(), "never-skip");
        assert_eq!(boxed.n_layers(), 2);
        assert_eq!(boxed.memory_bytes(), 0);
    }

    #[test]
    fn predictors_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Box<dyn SparsityPredictor>>();
        assert_send_sync::<std::sync::Arc<dyn SparsityPredictor>>();
    }

    #[test]
    fn scratch_reports_its_footprint() {
        let mut s = PredictorScratch::new();
        assert_eq!(s.memory_bytes(), 0);
        s.sign_words = vec![0; 10];
        assert!(s.memory_bytes() >= 40);
    }
}
