//! The SparseInfer sign-bit predictor (paper §IV-A, §IV-B1/2).
//!
//! At model-load time the sign bits of every `W_gate` are packed 32-per-word
//! ([`PackedSignMatrix`]); per token the input's signs are packed the same
//! way, and each row's decision is one XOR + popcount sweep:
//!
//! ```text
//! N_neg = Σ_w popcount(sign_words(W_gate,row) XOR sign_words(X))
//! skip  =  N_neg · 100  >  (d − N_neg) · alpha_int        (integer form)
//! ```
//!
//! which is Eq. (2), `alpha · N_pos < N_neg`, in the integer arithmetic the
//! CUDA kernel uses. (Listing 1 in the paper prints the two branch
//! assignments swapped relative to its own prose — more predicted-negative
//! products must mean *skip*; we implement the prose/Eq. 2 semantics and
//! note the typo here.)

use sparseinfer_model::Model;
use sparseinfer_tensor::sign::{pack_signs_into, xor_popcount_words, PackedSignMatrix, SignPack};
use sparseinfer_tensor::{Matrix, Vector};

use crate::alpha::AlphaSchedule;
use crate::mask::SkipMask;
use crate::traits::{PredictorScratch, SparsityPredictor};

/// Training-free sign-bit activation sparsity predictor.
///
/// # Example
///
/// ```
/// use sparseinfer_predictor::{AlphaSchedule, SignBitPredictor, SparsityPredictor};
/// use sparseinfer_tensor::{Matrix, Vector};
///
/// // One layer whose single gate row is the negation of the input signs:
/// // every product is negative, so the row is predicted sparse.
/// let w_gate = Matrix::from_fn(1, 32, |_, _| -1.0);
/// let mut p = SignBitPredictor::from_gate_matrices(&[w_gate], AlphaSchedule::uniform(1.0));
/// let x = Vector::from_fn(32, |_| 1.0);
/// assert!(p.predict(0, &x).is_skipped(0));
/// ```
#[derive(Debug, Clone)]
pub struct SignBitPredictor {
    layers: Vec<PackedSignMatrix>,
    schedule: AlphaSchedule,
}

impl SignBitPredictor {
    /// Packs the gate sign bits of every layer of `model` (the one-time
    /// load-time step of §IV-B1).
    pub fn from_model(model: &Model, schedule: AlphaSchedule) -> Self {
        let layers = model
            .layers()
            .iter()
            .map(|l| PackedSignMatrix::pack(l.mlp().w_gate()))
            .collect();
        Self { layers, schedule }
    }

    /// Builds from raw gate matrices (one per layer).
    pub fn from_gate_matrices(gates: &[Matrix], schedule: AlphaSchedule) -> Self {
        Self {
            layers: gates.iter().map(PackedSignMatrix::pack).collect(),
            schedule,
        }
    }

    /// Builds from already-packed sign matrices — the INT8/FP16 path, where
    /// signs were extracted from the quantized storage format.
    pub fn from_packed(layers: Vec<PackedSignMatrix>, schedule: AlphaSchedule) -> Self {
        Self { layers, schedule }
    }

    /// The alpha schedule.
    pub fn schedule(&self) -> &AlphaSchedule {
        &self.schedule
    }

    /// Replaces the alpha schedule (the DSE knob — no re-packing needed,
    /// which is the point of a training-free predictor).
    pub fn set_schedule(&mut self, schedule: AlphaSchedule) {
        self.schedule = schedule;
    }

    /// Total packed-sign memory across layers in bytes (§V-A2 accounting).
    pub fn memory_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.size_bytes()).sum()
    }

    /// Per-row predicted-negative counts for one layer — the raw `N_neg`
    /// values before thresholding. Exposed for instrumentation and for the
    /// threshold-sweep experiments.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or `x` has the wrong length.
    pub fn negative_counts(&self, layer: usize, x: &Vector) -> Vec<u32> {
        let packed = &self.layers[layer];
        assert_eq!(x.len(), packed.cols(), "input length mismatch");
        let x_signs = SignPack::pack(x.as_slice());
        (0..packed.rows())
            .map(|r| packed.row_xor_popcount(r, &x_signs))
            .collect()
    }

    /// The integer decision rule shared by [`predict`](Self::predict) and the
    /// GPU cost model: skip iff `n_neg · 100 > n_pos · alpha_percent`.
    #[inline]
    pub fn decide(n_neg: u32, total: u32, alpha_percent: u32) -> bool {
        debug_assert!(n_neg <= total);
        let n_pos = total - n_neg;
        u64::from(n_neg) * 100 > u64::from(n_pos) * u64::from(alpha_percent)
    }
}

impl SparsityPredictor for SignBitPredictor {
    fn predict_into(
        &self,
        layer: usize,
        x: &Vector,
        scratch: &mut PredictorScratch,
        mask: &mut SkipMask,
    ) {
        assert!(layer < self.layers.len(), "layer {layer} out of range");
        let packed = &self.layers[layer];
        assert_eq!(x.len(), packed.cols(), "input length mismatch");
        let alpha = self.schedule.alpha_percent(layer);
        let total = packed.cols() as u32;
        // The per-token sign pack goes into session scratch: packed sign
        // *tables* are shared across sessions, the input pack is not.
        pack_signs_into(x.as_slice(), &mut scratch.sign_words);
        // One sweep over the packed rows, 64 decisions per mask word.
        let x_signs = &scratch.sign_words;
        let counts = packed
            .iter_rows()
            .map(|row| xor_popcount_words(row, x_signs));
        mask.reset_from_iter(counts.map(|n_neg| Self::decide(n_neg, total, alpha)));
    }

    fn name(&self) -> &'static str {
        "sparseinfer"
    }

    fn n_layers(&self) -> usize {
        self.layers.len()
    }

    fn prediction_cost(&self, layer: usize) -> crate::traits::PredictionCost {
        let packed = &self.layers[layer];
        let words = (packed.rows() * packed.row_words()) as u64;
        crate::traits::PredictionCost {
            // One XOR+popc per packed word per row: k · d/32 (Table I).
            xor_popc: words,
            macs: 0,
            // Sign table traffic plus the freshly packed input signs.
            bytes_loaded: words * 4 + (packed.cols() as u64 / 8),
        }
    }

    fn memory_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.size_bytes() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer_model::generator::WeightGenerator;
    use sparseinfer_model::ModelConfig;
    use sparseinfer_tensor::Prng;

    fn anti_aligned_layer(d: usize, k: usize) -> Matrix {
        // Row r: negative everywhere for even r, positive for odd r.
        Matrix::from_fn(k, d, |r, _| if r % 2 == 0 { -1.0 } else { 1.0 })
    }

    #[test]
    fn fully_anti_aligned_rows_are_skipped() {
        let gate = anti_aligned_layer(64, 8);
        let mut p = SignBitPredictor::from_gate_matrices(
            std::slice::from_ref(&gate),
            AlphaSchedule::uniform(1.0),
        );
        let x = Vector::from_fn(64, |_| 0.5);
        let mask = p.predict(0, &x);
        for r in 0..8 {
            assert_eq!(mask.is_skipped(r), r % 2 == 0, "row {r}");
        }
    }

    #[test]
    fn decide_implements_eq2_integer_form() {
        // total = 100: at alpha=1.00 skip iff n_neg > 50.
        assert!(!SignBitPredictor::decide(50, 100, 100));
        assert!(SignBitPredictor::decide(51, 100, 100));
        // alpha = 1.03: 51·100 = 5100 vs 49·103 = 5047 → still skip;
        // 50.5 boundary shifts upward.
        assert!(SignBitPredictor::decide(51, 100, 103));
        // n_neg = 51, alpha = 1.10: 5100 vs 49·110 = 5390 → no skip.
        assert!(!SignBitPredictor::decide(51, 100, 110));
    }

    #[test]
    fn higher_alpha_is_monotonically_more_conservative() {
        for n_neg in 0..=64u32 {
            let mut prev = SignBitPredictor::decide(n_neg, 64, 100);
            for alpha in [101, 102, 105, 120, 200] {
                let now = SignBitPredictor::decide(n_neg, 64, alpha);
                // Once a row stops being skipped it must not reappear.
                assert!(!now || prev, "n_neg={n_neg} alpha={alpha}");
                prev = now;
            }
        }
    }

    #[test]
    fn negative_counts_match_scalar_reference() {
        let mut rng = Prng::seed(3);
        let d = 64;
        let k = 12;
        let gate = Matrix::from_fn(k, d, |_, _| rng.normal(0.0, 1.0) as f32);
        let x = Vector::from_fn(d, |_| rng.normal(0.2, 1.0) as f32);
        let p = SignBitPredictor::from_gate_matrices(
            std::slice::from_ref(&gate),
            AlphaSchedule::uniform(1.0),
        );
        let counts = p.negative_counts(0, &x);
        for (r, count) in counts.iter().enumerate().take(k) {
            let expected = gate
                .row(r)
                .iter()
                .zip(x.as_slice())
                .filter(|(w, xi)| w.is_sign_negative() != xi.is_sign_negative())
                .count() as u32;
            assert_eq!(*count, expected, "row {r}");
        }
    }

    #[test]
    fn predict_into_writes_decide_for_every_row() {
        // 688 rows end in a partial mask word (10 × 64 + 48); the mask starts
        // sized for another layer, so the sweep has to reset it in place.
        let mut rng = Prng::seed(10);
        let (d, k) = (256, 688);
        let gate = Matrix::from_fn(k, d, |_, _| rng.normal(0.0, 1.0) as f32);
        let x = Vector::from_fn(d, |_| rng.normal(0.2, 1.0) as f32);
        for alpha in [0.97, 1.00, 1.03] {
            let p = SignBitPredictor::from_gate_matrices(
                std::slice::from_ref(&gate),
                AlphaSchedule::uniform(alpha),
            );
            let counts = p.negative_counts(0, &x);
            let percent = p.schedule().alpha_percent(0);
            let expected = SkipMask::from_fn(k, |r| {
                SignBitPredictor::decide(counts[r], d as u32, percent)
            });
            assert!((1..k).contains(&expected.skip_count()), "alpha {alpha}");
            let mut mask = SkipMask::all_skipped(1000);
            p.predict_into(0, &x, &mut PredictorScratch::new(), &mut mask);
            assert_eq!(mask, expected, "alpha {alpha}");
        }
    }

    #[test]
    fn from_model_covers_all_layers() {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 5).build();
        let p = SignBitPredictor::from_model(&model, AlphaSchedule::default());
        assert_eq!(p.n_layers(), cfg.n_layers);
        assert_eq!(
            p.memory_bytes(),
            cfg.n_layers * cfg.mlp_dim * (cfg.hidden_dim / 32) * 4
        );
    }

    #[test]
    fn predictions_beat_chance_on_calibrated_model() {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 6).build();
        let mut p = SignBitPredictor::from_model(&model, AlphaSchedule::uniform(1.0));

        let mut correct = 0usize;
        let mut total = 0usize;
        let mut rng = Prng::seed(7);
        for _ in 0..40 {
            // Inputs shaped like the generator's target distribution.
            let x = Vector::from_fn(cfg.hidden_dim, |_| rng.normal(0.5, 0.9) as f32);
            let mask = p.predict(0, &x);
            let z = model.layers()[0].mlp().gate_preactivations(&x);
            for r in 0..cfg.mlp_dim {
                let truly_sparse = z[r] <= 0.0;
                if mask.is_skipped(r) == truly_sparse {
                    correct += 1;
                }
                total += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.75, "prediction accuracy {acc:.3}");
    }

    #[test]
    fn schedule_swap_changes_behavior_without_repacking() {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 8).build();
        let mut p = SignBitPredictor::from_model(&model, AlphaSchedule::uniform(1.0));
        let mut rng = Prng::seed(9);
        let x = Vector::from_fn(cfg.hidden_dim, |_| rng.normal(0.4, 1.0) as f32);
        let loose = p.predict(0, &x).skip_count();
        p.set_schedule(AlphaSchedule::uniform(3.0));
        let tight = p.predict(0, &x).skip_count();
        assert!(tight <= loose, "tight {tight} loose {loose}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_layer_panics() {
        let gate = anti_aligned_layer(32, 4);
        let mut p = SignBitPredictor::from_gate_matrices(
            std::slice::from_ref(&gate),
            AlphaSchedule::default(),
        );
        let _ = p.predict(1, &Vector::zeros(32));
    }
}
