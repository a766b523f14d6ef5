//! Random skip baseline.
//!
//! The paper's §V-C sanity check: "random selection with the 90% activation
//! sparsity, instead of the prediction, resulted in 0% accuracy". This
//! predictor skips each row independently with a fixed probability,
//! demonstrating that the *selection* of which rows to skip — not merely the
//! amount skipped — is what preserves model quality.

use sparseinfer_tensor::{Prng, Vector};

use crate::mask::SkipMask;
use crate::traits::{PredictorScratch, SparsityPredictor};

/// Skips each row with probability `p`, independent of the input.
///
/// The random streams live in the caller's [`PredictorScratch`], one per
/// layer, seeded lazily from this predictor's base seed and the layer:
/// every decode session draws its own deterministic streams, so a request
/// decodes identically whether it runs alone, batched, across different
/// thread counts, or with several positions in one step (which predicts
/// layer by layer, each layer's positions in order) — the shared predictor
/// itself stays immutable.
#[derive(Debug, Clone)]
pub struct RandomPredictor {
    p: f64,
    rows: usize,
    layers: usize,
    seed: u64,
    /// Stream for the legacy one-shot [`predict`](SparsityPredictor::predict)
    /// convenience path only (it keeps advancing across calls, matching the
    /// pre-scratch behavior).
    rng: Prng,
}

impl RandomPredictor {
    /// Creates a random predictor for a model with `layers` layers of `rows`
    /// gate rows each.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64, rows: usize, layers: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        Self {
            p,
            rows,
            layers,
            seed,
            rng: Prng::seed(seed),
        }
    }

    /// The skip probability.
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl SparsityPredictor for RandomPredictor {
    fn predict_into(
        &self,
        layer: usize,
        _x: &Vector,
        scratch: &mut PredictorScratch,
        mask: &mut SkipMask,
    ) {
        assert!(layer < self.layers, "layer {layer} out of range");
        if scratch.rngs.len() < self.layers {
            let seed = self.seed;
            let streams =
                (scratch.rngs.len()..self.layers).map(|l| Prng::seed(layer_seed(seed, l)));
            scratch.rngs.extend(streams);
        }
        let rng = &mut scratch.rngs[layer];
        mask.reset_dense(self.rows);
        for r in 0..self.rows {
            if rng.flip(self.p) {
                mask.set_skip(r);
            }
        }
    }

    fn predict(&mut self, layer: usize, _x: &Vector) -> SkipMask {
        assert!(layer < self.layers, "layer {layer} out of range");
        let p = self.p;
        let rng = &mut self.rng;
        SkipMask::from_fn(self.rows, |_| rng.flip(p))
    }

    fn name(&self) -> &'static str {
        "random"
    }

    fn n_layers(&self) -> usize {
        self.layers
    }
}

/// The seed of layer `layer`'s stream under base seed `seed`.
fn layer_seed(seed: u64, layer: usize) -> u64 {
    seed ^ (layer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_rate_tracks_probability() {
        let mut p = RandomPredictor::new(0.9, 1000, 1, 1);
        let mask = p.predict(0, &Vector::zeros(4));
        let rate = mask.sparsity();
        assert!((rate - 0.9).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn zero_probability_skips_nothing() {
        let mut p = RandomPredictor::new(0.0, 64, 1, 2);
        assert_eq!(p.predict(0, &Vector::zeros(4)).skip_count(), 0);
    }

    #[test]
    fn masks_differ_between_calls() {
        let mut p = RandomPredictor::new(0.5, 256, 1, 3);
        let a = p.predict(0, &Vector::zeros(4));
        let b = p.predict(0, &Vector::zeros(4));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn invalid_probability_panics() {
        let _ = RandomPredictor::new(1.5, 8, 1, 4);
    }
}
