//! DejaVu-style *trained* low-rank predictor (the PowerInfer baseline).
//!
//! DEJAVU attaches a small two-layer network per MLP block: project the
//! input to a low rank `r`, apply a nonlinearity, and classify each of the
//! `k` intermediate units as active/sparse. PowerInfer ships these
//! predictors with its models (rank 1024 for ProSparse-13B). The drawbacks
//! the paper highlights — and this module makes concrete — are:
//!
//! * it must be **trained** per model (and retrained per quantization);
//! * its weights occupy `(d·r + r·k) · 2 bytes` per layer (1480 MB for 13B);
//! * inference costs `d·r + r·k` FP16 MACs per block, more than the sparse
//!   MLP itself (Table I).
//!
//! The implementation uses a fixed random first layer and trains the second
//! layer + bias with logistic-loss SGD on activation traces — the standard
//! random-features shortcut; op count and memory match the full DejaVu
//! formula, and the learned quality is enough to reach high precision on the
//! synthetic models.

use sparseinfer_model::{MlpTrace, Model};
use sparseinfer_tensor::{
    gemv::{gemv, gemv_into},
    Matrix, Prng, ThreadPool, Vector,
};

use crate::mask::SkipMask;
use crate::traits::{PredictorScratch, SparsityPredictor};

/// One layer's low-rank predictor: `score = B · relu(A·x) + bias`.
#[derive(Debug, Clone)]
pub struct DejaVuLayer {
    /// Fixed random projection, `r × d`.
    a: Matrix,
    /// Trained classifier, `k × r`.
    b: Matrix,
    /// Trained per-unit bias, length `k`.
    bias: Vector,
}

impl DejaVuLayer {
    fn hidden(&self, x: &Vector) -> Vector {
        let mut h = gemv(&self.a, x);
        for v in h.as_mut_slice() {
            *v = v.max(0.0);
        }
        h
    }

    /// Scores every unit; positive score ⇒ predicted active.
    pub fn scores(&self, x: &Vector) -> Vector {
        let h = self.hidden(x);
        let mut s = gemv(&self.b, &h);
        s.add_assign(&self.bias);
        s
    }
}

/// The full multi-layer DejaVu-style predictor.
#[derive(Debug, Clone)]
pub struct DejaVuPredictor {
    layers: Vec<DejaVuLayer>,
    rank: usize,
}

impl DejaVuPredictor {
    /// The low-rank dimension.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// FP16 memory footprint of the predictor weights across layers
    /// (`(d·r + r·k) · 2` bytes per layer — §V-A2).
    pub fn memory_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| (l.a.element_count() + l.b.element_count()) * 2)
            .sum()
    }
}

impl SparsityPredictor for DejaVuPredictor {
    fn predict_into(
        &self,
        layer: usize,
        x: &Vector,
        scratch: &mut PredictorScratch,
        mask: &mut SkipMask,
    ) {
        assert!(layer < self.layers.len(), "layer {layer} out of range");
        let l = &self.layers[layer];
        let PredictorScratch { hidden, scores, .. } = scratch;
        let pool = ThreadPool::single();
        gemv_into(&l.a, x, &pool, hidden);
        for v in hidden.as_mut_slice() {
            *v = v.max(0.0);
        }
        gemv_into(&l.b, hidden, &pool, scores);
        scores.add_assign(&l.bias);
        mask.reset_dense(scores.len());
        for (r, s) in scores.iter().enumerate() {
            if *s < 0.0 {
                mask.set_skip(r);
            }
        }
    }

    fn name(&self) -> &'static str {
        "dejavu"
    }

    fn n_layers(&self) -> usize {
        self.layers.len()
    }

    fn prediction_cost(&self, layer: usize) -> crate::traits::PredictionCost {
        let l = &self.layers[layer];
        let macs = (l.a.element_count() + l.b.element_count()) as u64;
        crate::traits::PredictionCost {
            xor_popc: 0,
            // d·r + r·k FP16 MACs per block (Table I).
            macs,
            bytes_loaded: macs * 2,
        }
    }

    fn memory_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| ((l.a.element_count() + l.b.element_count()) * 2) as u64)
            .sum()
    }
}

/// Training hyper-parameters for [`Trainer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Low-rank dimension `r`.
    pub rank: usize,
    /// SGD epochs over the trace.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Weight of the positive (active) class in the loss; values > 1 push
    /// the predictor toward recall of active units, i.e. conservativeness.
    pub positive_weight: f32,
    /// RNG seed for the random projection and shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            rank: 16,
            epochs: 12,
            learning_rate: 0.15,
            positive_weight: 2.0,
            seed: 0xDE7A,
        }
    }
}

/// Trains a [`DejaVuPredictor`] from activation traces.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// Trains one predictor layer per model layer from `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no samples for some layer.
    pub fn train(&self, model: &Model, trace: &MlpTrace) -> DejaVuPredictor {
        let cfg = model.config();
        let mut rng = Prng::seed(self.config.seed);
        let mut layers = Vec::with_capacity(cfg.n_layers);
        for layer in 0..cfg.n_layers {
            let samples: Vec<_> = trace.layer_samples(layer).collect();
            assert!(!samples.is_empty(), "no trace samples for layer {layer}");
            layers.push(self.train_layer(cfg.hidden_dim, cfg.mlp_dim, &samples, &mut rng));
        }
        DejaVuPredictor {
            layers,
            rank: self.config.rank,
        }
    }

    fn train_layer(
        &self,
        d: usize,
        k: usize,
        samples: &[&sparseinfer_model::trace::MlpSample],
        rng: &mut Prng,
    ) -> DejaVuLayer {
        let r = self.config.rank;
        let scale = 1.0 / (d as f64).sqrt();
        let mut proj_rng = rng.fork(1);
        let a = Matrix::from_fn(r, d, |_, _| proj_rng.normal(0.0, scale) as f32);
        let mut b = Matrix::zeros(k, r);
        let mut bias = Vector::zeros(k);

        // Precompute hidden features per sample.
        let hiddens: Vec<Vector> = samples
            .iter()
            .map(|s| {
                let mut h = gemv(&a, &s.x);
                for v in h.as_mut_slice() {
                    *v = v.max(0.0);
                }
                h
            })
            .collect();

        let lr = self.config.learning_rate;
        let w_pos = self.config.positive_weight;
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for _ in 0..self.config.epochs {
            rng.shuffle(&mut order);
            for &si in &order {
                let h = &hiddens[si];
                let preact = &samples[si].preact;
                for unit in 0..k {
                    // Logistic regression per unit: target 1 = active.
                    let target = if preact[unit] > 0.0 { 1.0f32 } else { 0.0 };
                    let logit: f32 = b
                        .row(unit)
                        .iter()
                        .zip(h.as_slice())
                        .map(|(w, hv)| w * hv)
                        .sum::<f32>()
                        + bias[unit];
                    let p = 1.0 / (1.0 + (-logit).exp());
                    let weight = if target > 0.5 { w_pos } else { 1.0 };
                    let grad = weight * (p - target);
                    let row = b.row_mut(unit);
                    for (w, hv) in row.iter_mut().zip(h.as_slice()) {
                        *w -= lr * grad * hv;
                    }
                    bias[unit] -= lr * grad;
                }
            }
        }

        DejaVuLayer { a, b, bias }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LayerMetrics;
    use crate::oracle::OraclePredictor;
    use sparseinfer_model::generator::WeightGenerator;
    use sparseinfer_model::ModelConfig;

    fn trained_setup() -> (Model, DejaVuPredictor, MlpTrace) {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 21).build();
        let trace = MlpTrace::capture(&model, &(1..20).collect::<Vec<u32>>(), 0);
        let predictor = Trainer::new(TrainConfig::default()).train(&model, &trace);
        (model, predictor, trace)
    }

    #[test]
    fn training_produces_all_layers() {
        let (model, predictor, _) = trained_setup();
        assert_eq!(predictor.n_layers(), model.config().n_layers);
        assert_eq!(predictor.rank(), 16);
    }

    #[test]
    fn trained_predictor_beats_chance() {
        let (model, mut predictor, trace) = trained_setup();
        let mut oracle = OraclePredictor::from_model(&model);
        let mut metrics = LayerMetrics::new(model.config().n_layers);
        for s in trace.samples() {
            let predicted = predictor.predict(s.layer, &s.x);
            let truth = oracle.predict(s.layer, &s.x);
            metrics.record(s.layer, &predicted, &truth);
        }
        let overall = metrics.overall();
        // Trained on its own trace it must separate active from sparse far
        // better than the ~90/10 base rate would by chance.
        assert!(
            overall.precision() > 0.9,
            "precision {}",
            overall.precision()
        );
        assert!(overall.recall() > 0.5, "recall {}", overall.recall());
    }

    #[test]
    fn memory_matches_dejavu_formula() {
        let (model, predictor, _) = trained_setup();
        let cfg = model.config();
        let expected = cfg.n_layers * (cfg.hidden_dim * 16 + 16 * cfg.mlp_dim) * 2;
        assert_eq!(predictor.memory_bytes(), expected);
    }
}
