//! Exact ("oracle") sparsity predictor.
//!
//! Computes the true gate pre-activations and marks exactly the rows the
//! activation will zero out. It costs a full gate GEMV, so it is useless as
//! an accelerator — its roles are (a) the upper bound on what any predictor
//! can deliver and (b) the ground-truth source for precision/recall
//! measurement and for verifying that sparse execution with a perfect mask
//! is bit-exact with dense execution.

use sparseinfer_model::{Activation, Model};
use sparseinfer_tensor::{gemv::gemv_into, Matrix, ThreadPool, Vector};

use crate::mask::SkipMask;
use crate::traits::{PredictorScratch, SparsityPredictor};

/// Oracle predictor: recomputes the gate GEMV and thresholds exactly.
#[derive(Debug, Clone)]
pub struct OraclePredictor {
    gates: Vec<Matrix>,
    activations: Vec<Activation>,
}

impl OraclePredictor {
    /// Captures references to every layer's gate weights.
    pub fn from_model(model: &Model) -> Self {
        Self {
            gates: model
                .layers()
                .iter()
                .map(|l| l.mlp().w_gate().clone())
                .collect(),
            activations: model
                .layers()
                .iter()
                .map(|l| l.mlp().activation())
                .collect(),
        }
    }
}

impl SparsityPredictor for OraclePredictor {
    fn predict_into(
        &self,
        layer: usize,
        x: &Vector,
        scratch: &mut PredictorScratch,
        mask: &mut SkipMask,
    ) {
        assert!(layer < self.gates.len(), "layer {layer} out of range");
        gemv_into(
            &self.gates[layer],
            x,
            &ThreadPool::single(),
            &mut scratch.hidden,
        );
        let act = self.activations[layer];
        mask.reset_dense(scratch.hidden.len());
        for (r, z) in scratch.hidden.iter().enumerate() {
            if act.is_sparse_at(*z) {
                mask.set_skip(r);
            }
        }
    }

    fn name(&self) -> &'static str {
        "oracle"
    }

    fn n_layers(&self) -> usize {
        self.gates.len()
    }

    fn memory_bytes(&self) -> u64 {
        // The oracle holds a full copy of every gate matrix.
        self.gates
            .iter()
            .map(|g| (g.element_count() * 4) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer_model::generator::WeightGenerator;
    use sparseinfer_model::ModelConfig;
    use sparseinfer_tensor::Prng;

    #[test]
    fn oracle_matches_activation_zeros_exactly() {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 11).build();
        let mut oracle = OraclePredictor::from_model(&model);
        let mut rng = Prng::seed(12);
        for layer in 0..cfg.n_layers {
            let x = Vector::from_fn(cfg.hidden_dim, |_| rng.normal(0.3, 1.0) as f32);
            let mask = oracle.predict(layer, &x);
            let mlp = model.layers()[layer].mlp();
            let mut h1 = mlp.gate_preactivations(&x);
            mlp.activation().apply_slice(h1.as_mut_slice());
            for r in 0..cfg.mlp_dim {
                assert_eq!(mask.is_skipped(r), h1[r] == 0.0, "layer {layer} row {r}");
            }
        }
    }

    #[test]
    fn oracle_respects_fatrelu_threshold() {
        let cfg = ModelConfig::tiny();
        let mut model = WeightGenerator::new(&cfg, 13).build();
        for layer in model.layers_mut() {
            layer.mlp_mut().set_activation(Activation::FatRelu(0.2));
        }
        let mut oracle = OraclePredictor::from_model(&model);
        let mut rng = Prng::seed(14);
        let x = Vector::from_fn(cfg.hidden_dim, |_| rng.normal(0.3, 1.0) as f32);
        let mask = oracle.predict(0, &x);
        let mlp = model.layers()[0].mlp();
        let mut h1 = mlp.gate_preactivations(&x);
        mlp.activation().apply_slice(h1.as_mut_slice());
        for r in 0..cfg.mlp_dim {
            assert_eq!(mask.is_skipped(r), h1[r] == 0.0, "row {r}");
        }
        // FATReLU masks strictly more than plain ReLU would.
        let z = model.layers()[0].mlp().gate_preactivations(&x);
        let relu_sparse = (0..cfg.mlp_dim).filter(|r| z[*r] <= 0.0).count();
        assert!(mask.skip_count() >= relu_sparse);
    }
}
