//! CATS/TEAL-style threshold sparsification (related-work baseline).
//!
//! The paper's related work (§II) contrasts ReLUfication with a second
//! training-free family: keep SiLU, compute the gate *densely*, and zero
//! gate outputs whose magnitude falls below a calibrated, input-distribution
//! threshold (CATS for the FFN; TEAL extends it to attention). That family
//! needs no fine-tuning but delivers lower sparsity at comparable quality —
//! CATS reports a 15% speedup versus SparseInfer's ~21% over the trained
//! state of the art. This module implements the FFN variant so the
//! trade-off can be measured within the same engine framework.
//!
//! Note the structural difference: a CATS-style executor cannot skip the
//! *gate* GEMV (the threshold needs its exact outputs); it only skips the
//! up and down projections. SparseInfer's predictor skips all three.

use sparseinfer_model::{GatedMlp, MlpTrace};
use sparseinfer_predictor::SkipMask;
use sparseinfer_tensor::gemv::{gemm_rows_into, gemm_transposed_rows_into, gemv, Rows};
use sparseinfer_tensor::{ThreadPool, Vector};

use crate::mlp::bill;
use crate::ops::OpCounter;

/// Per-layer magnitude thresholds calibrated from an activation trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CatsThresholds {
    thresholds: Vec<f32>,
    target_sparsity: f64,
}

impl CatsThresholds {
    /// Calibrates per-layer thresholds so that `target_sparsity` of gate
    /// outputs (post-activation magnitudes) fall below the threshold —
    /// CATS's offline calibration step.
    ///
    /// # Panics
    ///
    /// Panics if `target_sparsity` is outside `(0, 1)` or the trace lacks
    /// samples for some layer.
    pub fn calibrate(
        trace: &MlpTrace,
        activation: sparseinfer_model::Activation,
        target_sparsity: f64,
    ) -> Self {
        assert!(
            target_sparsity > 0.0 && target_sparsity < 1.0,
            "target sparsity {target_sparsity} out of (0, 1)"
        );
        let mut thresholds = Vec::with_capacity(trace.n_layers());
        for layer in 0..trace.n_layers() {
            let mut magnitudes: Vec<f32> = trace
                .layer_samples(layer)
                .flat_map(|s| s.preact.iter().map(|z| activation.apply(*z).abs()))
                .collect();
            assert!(!magnitudes.is_empty(), "no trace samples for layer {layer}");
            magnitudes.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let idx =
                ((magnitudes.len() as f64 * target_sparsity) as usize).min(magnitudes.len() - 1);
            thresholds.push(magnitudes[idx]);
        }
        Self {
            thresholds,
            target_sparsity,
        }
    }

    /// The calibrated threshold of `layer`.
    pub fn threshold(&self, layer: usize) -> f32 {
        self.thresholds[layer]
    }

    /// Number of calibrated layers.
    pub fn n_layers(&self) -> usize {
        self.thresholds.len()
    }

    /// The sparsity level the calibration targeted.
    pub fn target_sparsity(&self) -> f64 {
        self.target_sparsity
    }
}

/// Result of one CATS-style block execution.
#[derive(Debug, Clone, PartialEq)]
pub struct CatsOutput {
    /// The block output.
    pub output: Vector,
    /// Fraction of gate outputs zeroed by the threshold.
    pub sparsity: f64,
}

/// Executes a gated MLP CATS-style: dense gate, threshold the activated
/// outputs, skip up/down rows for the zeroed positions.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn cats_mlp_forward(
    mlp: &GatedMlp,
    x: &Vector,
    threshold: f32,
    ops: &mut OpCounter,
) -> CatsOutput {
    assert_eq!(x.len(), mlp.hidden_dim(), "input length mismatch");
    let k = mlp.mlp_dim() as u64;
    let d = mlp.hidden_dim() as u64;

    // Dense gate GEMV — the structural cost of threshold-based methods.
    let mut h1 = gemv(mlp.w_gate(), x);
    ops.macs += k * d;
    ops.weight_bytes_loaded += k * d * OpCounter::WEIGHT_BYTES;
    ops.rows_computed += k;
    mlp.activation().apply_slice(h1.as_mut_slice());

    // Threshold: zero small-magnitude gate outputs.
    let mut zeroed = 0usize;
    for v in h1.as_mut_slice() {
        if v.abs() < threshold {
            *v = 0.0;
            zeroed += 1;
        }
    }
    let mask = SkipMask::from_exact_zeros(&h1);

    // Up and down projections load only the rows left.
    let (w_up, w_down_t) = (mlp.w_up(), mlp.w_down_t());
    let kept: Vec<u32> = mask.active_rows().map(|r| r as u32).collect();
    let (rows, pool) = (Rows::Kept(&kept), ThreadPool::single());
    let (mut h3, mut output) = (Vector::zeros(0), Vector::zeros(0));
    gemm_rows_into(w_up, x.as_slice(), 1, rows, &pool, &mut h3);
    for (h, &r) in h3.as_mut_slice().iter_mut().zip(&kept) {
        *h *= h1[r as usize];
    }
    gemm_transposed_rows_into(w_down_t, rows, h3.as_slice(), 1, false, &pool, &mut output);
    bill(ops, w_up, mask.skip_count());
    ops.atomic_adds += bill(ops, w_down_t, mask.skip_count());

    CatsOutput {
        output,
        sparsity: zeroed as f64 / h1.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer_model::generator::WeightGenerator;
    use sparseinfer_model::{Activation, ModelConfig};
    use sparseinfer_tensor::Prng;

    fn silu_model() -> sparseinfer_model::Model {
        let mut cfg = ModelConfig::tiny();
        cfg.activation = Activation::Silu;
        WeightGenerator::new(&cfg, 51).build()
    }

    #[test]
    fn calibration_hits_target_sparsity_on_the_trace() {
        let model = silu_model();
        let trace = MlpTrace::capture(&model, &(1..16).collect::<Vec<u32>>(), 0);
        let thresholds = CatsThresholds::calibrate(&trace, Activation::Silu, 0.7);
        assert_eq!(thresholds.n_layers(), model.config().n_layers);

        // Applying the threshold back onto the trace reproduces the target.
        let layer = 0;
        let t = thresholds.threshold(layer);
        let (below, total) = trace.layer_samples(layer).fold((0usize, 0usize), |acc, s| {
            let below = s
                .preact
                .iter()
                .filter(|z| Activation::Silu.apply(**z).abs() < t)
                .count();
            (acc.0 + below, acc.1 + s.preact.len())
        });
        let measured = below as f64 / total as f64;
        assert!((measured - 0.7).abs() < 0.05, "measured {measured}");
    }

    #[test]
    fn cats_forward_is_dense_forward_with_small_terms_removed() {
        let model = silu_model();
        let mlp = model.layers()[0].mlp();
        let mut rng = Prng::seed(52);
        let x = Vector::from_fn(model.config().hidden_dim, |_| rng.normal(0.4, 1.0) as f32);

        // Zero threshold = exact dense computation.
        let mut ops = OpCounter::default();
        let exact = cats_mlp_forward(mlp, &x, 0.0, &mut ops);
        let dense = mlp.forward(&x);
        for (a, b) in exact.output.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-5);
        }

        // A positive threshold trades a bounded output error for sparsity.
        let mut ops = OpCounter::default();
        let approx = cats_mlp_forward(mlp, &x, 0.01, &mut ops);
        assert!(approx.sparsity > 0.0);
        let err: f32 = approx
            .output
            .iter()
            .zip(dense.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(err > 0.0 && err / dense.norm().max(1e-6) < 0.5);
    }

    #[test]
    fn cats_cannot_skip_the_gate_gemv() {
        // The structural disadvantage vs SparseInfer: the gate is computed
        // densely regardless of threshold.
        let model = silu_model();
        let mlp = model.layers()[0].mlp();
        let x = Vector::from_fn(model.config().hidden_dim, |i| (i as f32 * 0.3).sin());
        let mut ops = OpCounter::default();
        let _ = cats_mlp_forward(mlp, &x, 10.0, &mut ops); // huge threshold
        let dk = (mlp.mlp_dim() * mlp.hidden_dim()) as u64;
        assert!(
            ops.macs >= dk,
            "gate GEMV must always run ({} < {dk})",
            ops.macs
        );
    }

    #[test]
    fn silu_without_threshold_has_no_exploitable_sparsity() {
        // The motivating observation: SiLU alone gives ~0% exact zeros.
        let model = silu_model();
        let mlp = model.layers()[0].mlp();
        let mut rng = Prng::seed(53);
        let x = Vector::from_fn(model.config().hidden_dim, |_| rng.normal(0.4, 1.0) as f32);
        let mut ops = OpCounter::default();
        let out = cats_mlp_forward(mlp, &x, 0.0, &mut ops);
        assert!(out.sparsity < 0.02, "SiLU sparsity {}", out.sparsity);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1)")]
    fn bad_target_sparsity_panics() {
        let model = silu_model();
        let trace = MlpTrace::capture(&model, &[1, 2], 0);
        let _ = CatsThresholds::calibrate(&trace, Activation::Silu, 1.0);
    }
}
