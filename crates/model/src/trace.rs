//! Activation trace capture.
//!
//! Traces record, per layer, the MLP input `X` and the gate pre-activations
//! `z = X · W_gate` for a stream of decoded tokens. They feed three
//! consumers: the Fig. 2 distribution plots, predictor precision/recall
//! measurement (Fig. 3), and DejaVu predictor training data.

use sparseinfer_tensor::stats::Summary;
use sparseinfer_tensor::{ThreadPool, Vector};

use crate::mlp::{gated_mlp_into, GatedMlp, MlpBuffers};
use crate::model::{DecodeSession, Model};
use crate::prefill::MlpHook;

/// One layer's capture for one token: the MLP input and the gate
/// pre-activations.
#[derive(Debug, Clone)]
pub struct MlpSample {
    /// Layer index.
    pub layer: usize,
    /// The normalized MLP input `X` (length `d`).
    pub x: Vector,
    /// Gate pre-activations `z = X · W_gate` (length `k`); `z_i ≤ 0` means
    /// output element `i` is sparse under ReLU.
    pub preact: Vector,
}

/// A collection of [`MlpSample`]s across layers and tokens.
#[derive(Debug, Clone, Default)]
pub struct MlpTrace {
    samples: Vec<MlpSample>,
    n_layers: usize,
}

impl MlpTrace {
    /// Creates an empty trace for a model with `n_layers` layers.
    pub fn new(n_layers: usize) -> Self {
        Self {
            samples: Vec::new(),
            n_layers,
        }
    }

    /// Records a trace by running `prompt` (and `extra_tokens` greedy
    /// continuations) densely through `model`, capturing every layer's MLP
    /// input and pre-activations at every decoded position.
    pub fn capture(model: &Model, prompt: &[u32], extra_tokens: usize) -> Self {
        let mut trace = Self::new(model.config().n_layers);
        let mut session = model.start_session();
        let mut next = None;
        let total = prompt.len() + extra_tokens;
        for step in 0..total {
            let token = if step < prompt.len() {
                prompt[step]
            } else {
                next.expect("generation step requires previous logits")
            };
            let logits = trace.forward_capturing(model, token, &mut session);
            next = Some(logits.argmax().expect("nonzero vocab") as u32);
        }
        trace
    }

    /// Forward one token, capturing per-layer MLP inputs/pre-activations:
    /// a one-column [`Model::step`] with this trace as its MLP stage, so
    /// the logits are bitwise [`Model::forward_token`]'s.
    pub fn forward_capturing(
        &mut self,
        model: &Model,
        token: u32,
        session: &mut DecodeSession,
    ) -> Vector {
        model.step_column(token, session, self)
    }

    /// All samples.
    pub fn samples(&self) -> &[MlpSample] {
        &self.samples
    }

    /// Samples belonging to one layer.
    pub fn layer_samples(&self, layer: usize) -> impl Iterator<Item = &MlpSample> {
        self.samples.iter().filter(move |s| s.layer == layer)
    }

    /// Number of layers this trace was configured for.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Mean activation sparsity per layer (fraction of non-positive gate
    /// pre-activations under ReLU).
    pub fn sparsity_per_layer(&self) -> Vec<f64> {
        let mut zero_counts = vec![0u64; self.n_layers];
        let mut totals = vec![0u64; self.n_layers];
        for s in &self.samples {
            let zeros = s.preact.iter().filter(|v| **v <= 0.0).count() as u64;
            zero_counts[s.layer] += zeros;
            totals[s.layer] += s.preact.len() as u64;
        }
        zero_counts
            .iter()
            .zip(&totals)
            .map(|(z, t)| if *t == 0 { 0.0 } else { *z as f64 / *t as f64 })
            .collect()
    }

    /// Summary statistics of the MLP inputs of one layer (the `X` panel of
    /// Fig. 2).
    pub fn x_summary(&self, layer: usize) -> Summary {
        let mut s = Summary::new();
        for sample in self.layer_samples(layer) {
            s.extend(sample.x.iter().map(|v| *v as f64));
        }
        s
    }
}

/// Records every column's `x` and `X · W_gate`, and keeps every row.
impl MlpHook for MlpTrace {
    fn mlp(
        &mut self,
        layer: usize,
        mlp: &GatedMlp,
        xs: &[f32],
        pool: &ThreadPool,
        out: &mut MlpBuffers,
    ) {
        for x in xs.chunks_exact(mlp.hidden_dim()) {
            let x = Vector::from_vec(x.to_vec());
            let preact = mlp.gate_preactivations(&x);
            self.samples.push(MlpSample { layer, x, preact });
        }
        gated_mlp_into(mlp, xs, |_, _| 0, |_| true, pool, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::generator::WeightGenerator;

    #[test]
    fn capture_records_layers_times_tokens_samples() {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 7).build();
        let trace = MlpTrace::capture(&model, &[1, 2, 3], 2);
        assert_eq!(trace.samples().len(), cfg.n_layers * 5);
        assert_eq!(trace.layer_samples(0).count(), 5);
        assert_eq!(trace.layer_samples(cfg.n_layers - 1).count(), 5);
    }

    #[test]
    fn capturing_forward_matches_dense_forward() {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 8).build();

        let mut s1 = model.start_session();
        let dense = model.forward_token(4, &mut s1);

        let mut trace = MlpTrace::new(cfg.n_layers);
        let mut s2 = model.start_session();
        let captured = trace.forward_capturing(&model, 4, &mut s2);

        let bits = |v: &Vector| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&captured), bits(&dense));
    }

    #[test]
    fn sparsity_per_layer_is_computed_from_preacts() {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 9).build();
        let trace = MlpTrace::capture(&model, &[1, 2], 0);
        let sp = trace.sparsity_per_layer();
        assert_eq!(sp.len(), cfg.n_layers);
        for (l, s) in sp.iter().enumerate() {
            assert!((0.0..=1.0).contains(s), "layer {l}: {s}");
        }
    }

    #[test]
    fn x_summary_sees_layer_specific_data() {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 10).build();
        let trace = MlpTrace::capture(&model, &[1, 2, 3], 0);
        let s = trace.x_summary(0);
        assert_eq!(s.count(), (cfg.hidden_dim * 3) as u64);
    }
}
