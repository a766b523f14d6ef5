//! INT8 gated-MLP weights (the quantization-portability story, end to end).
//!
//! §IV-A argues the sign-bit predictor is "robust to various standard
//! quantization methods ... as long as the sign bit can be extracted". This
//! module is the storage half of that claim: a gated MLP whose three weight
//! matrices are block-quantized INT8. It has no execution code of its own —
//! [`FusedQuantizedMlp`] implements [`MlpWeights`], so the one generic
//! executor ([`gated_mlp_into`](sparseinfer_model::gated_mlp_into), inside
//! an int8 engine's forward steps) and its two generic kernels run it. A trained predictor would have to
//! be retrained for a new format (the
//! paper's criticism of DejaVu); a sign-bit table is simply re-derived from
//! the INT8 payloads at load time (checked in this module's tests).

use sparseinfer_model::{Activation, GatedMlp};
use sparseinfer_tensor::BlockQuantizedMatrix;

use crate::mlp::MlpWeights;

/// A gated MLP block with *block-quantized* INT8 weights (one scale per
/// [`QUANT_BLOCK`](sparseinfer_tensor::gemv::QUANT_BLOCK) columns).
///
/// This is the serving hot path's INT8 weight format, wired into the engine
/// behind the `WeightFormat::Int8` knob. Rows are dequantized *inside* the
/// reduction ([`dot_q8`](sparseinfer_tensor::gemv::dot_q8)), never
/// materialized as `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedQuantizedMlp {
    gate: BlockQuantizedMatrix,
    up: BlockQuantizedMatrix,
    down_t: BlockQuantizedMatrix,
    activation: Activation,
}

impl FusedQuantizedMlp {
    /// Quantizes an existing full-precision block (one-time, at load).
    pub fn quantize(mlp: &GatedMlp) -> Self {
        Self {
            gate: BlockQuantizedMatrix::quantize(mlp.w_gate()),
            up: BlockQuantizedMatrix::quantize(mlp.w_up()),
            down_t: BlockQuantizedMatrix::quantize(mlp.w_down_t()),
            activation: mlp.activation(),
        }
    }

    /// Model dimension `d`.
    pub fn hidden_dim(&self) -> usize {
        self.gate.cols()
    }

    /// Intermediate dimension `k`.
    pub fn mlp_dim(&self) -> usize {
        self.gate.rows()
    }

    /// The quantized gate matrix.
    pub fn w_gate(&self) -> &BlockQuantizedMatrix {
        &self.gate
    }

    /// The quantized up matrix.
    pub fn w_up(&self) -> &BlockQuantizedMatrix {
        &self.up
    }

    /// The quantized (transposed) down matrix.
    pub fn w_down_t(&self) -> &BlockQuantizedMatrix {
        &self.down_t
    }

    /// The block's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Total INT8 weight bytes (values + block scales) — ~4× smaller than
    /// FP32.
    pub fn size_bytes(&self) -> usize {
        self.gate.size_bytes() + self.up.size_bytes() + self.down_t.size_bytes()
    }
}

impl MlpWeights for FusedQuantizedMlp {
    type Rows = BlockQuantizedMatrix;

    fn parts(&self) -> (&Self::Rows, &Self::Rows, &Self::Rows, Activation) {
        (&self.gate, &self.up, &self.down_t, self.activation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::tests::forward;
    use crate::mlp::MlpOptions;
    use sparseinfer_model::generator::WeightGenerator;
    use sparseinfer_model::ModelConfig;
    use sparseinfer_predictor::{
        AlphaSchedule, OraclePredictor, SignBitPredictor, SkipMask, SparsityPredictor,
    };
    use sparseinfer_tensor::sign::PackedSignMatrix;
    use sparseinfer_tensor::{Matrix, Prng, QuantizedMatrix, Vector};

    fn setup() -> (sparseinfer_model::Model, Vector) {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 41).build();
        let mut rng = Prng::seed(42);
        let x = Vector::from_fn(cfg.hidden_dim, |_| rng.normal(0.5, 0.9) as f32);
        (model, x)
    }

    #[test]
    fn quantized_output_tracks_fp32_output() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let qmlp = FusedQuantizedMlp::quantize(mlp);
        let mut oracle = OraclePredictor::from_model(&model);
        let mask = oracle.predict(0, &x);

        let (q_out, _, _) = forward(&qmlp, &x, &mask, MlpOptions::default());
        let (f_out, _, _) = forward(mlp, &x, &mask, MlpOptions::default());

        let ref_norm = f_out.norm().max(1e-6);
        let mut err = 0.0f32;
        for (a, b) in q_out.iter().zip(f_out.iter()) {
            err += (a - b) * (a - b);
        }
        let rel = err.sqrt() / ref_norm;
        assert!(rel < 0.1, "relative error {rel}");
    }

    #[test]
    fn signbit_masks_from_int8_match_fp32_masks_closely() {
        let (model, x) = setup();
        let schedule = AlphaSchedule::uniform(1.0);
        let mut fp32 = SignBitPredictor::from_model(&model, schedule.clone());

        let packed: Vec<PackedSignMatrix> = model
            .layers()
            .iter()
            .map(|l| QuantizedMatrix::quantize(l.mlp().w_gate()).packed_signs())
            .collect();
        let mut int8 = SignBitPredictor::from_packed(packed, schedule);

        let mut agree = 0usize;
        let mut total = 0usize;
        for layer in 0..model.config().n_layers {
            let a = fp32.predict(layer, &x);
            let b = int8.predict(layer, &x);
            for r in 0..model.config().mlp_dim {
                total += 1;
                if a.is_skipped(r) == b.is_skipped(r) {
                    agree += 1;
                }
            }
        }
        assert!(agree as f64 / total as f64 > 0.98, "{agree}/{total}");
    }

    #[test]
    fn int8_weights_are_about_4x_smaller_than_fp32() {
        let (model, _) = setup();
        let mlp = model.layers()[0].mlp();
        let int8_bytes: usize = [mlp.w_gate(), mlp.w_up(), mlp.w_down_t()]
            .iter()
            .map(|w| QuantizedMatrix::quantize(w).size_bytes())
            .sum();
        let fp32_bytes = 3 * mlp.mlp_dim() * mlp.hidden_dim() * std::mem::size_of::<f32>();
        let ratio = fp32_bytes as f64 / int8_bytes as f64;
        assert!((3.5..4.01).contains(&ratio), "compression ratio {ratio}");
    }

    #[test]
    fn all_skipped_is_zero_output_and_free() {
        let (model, x) = setup();
        let qmlp = FusedQuantizedMlp::quantize(model.layers()[0].mlp());
        let all_skipped = SkipMask::all_skipped(qmlp.mlp_dim());
        let (out, _, ops) = forward(&qmlp, &x, &all_skipped, MlpOptions::default());
        assert!(out.iter().all(|v| *v == 0.0));
        assert_eq!(ops.macs, 0);
    }

    #[test]
    fn fused_quantized_mlp_is_about_4x_smaller_than_fp32() {
        let (model, _) = setup();
        let mlp = model.layers()[0].mlp();
        let qmlp = FusedQuantizedMlp::quantize(mlp);
        let fp32_bytes = 3 * mlp.mlp_dim() * mlp.hidden_dim() * std::mem::size_of::<f32>();
        let ratio = fp32_bytes as f64 / qmlp.size_bytes() as f64;
        // Block scales (one f32 per 32 weights) cost a bit more than per-row
        // scales, but the ratio stays close to 4.
        assert!((3.4..4.01).contains(&ratio), "compression ratio {ratio}");
    }

    #[test]
    fn quantize_preserves_dims() {
        let gate = Matrix::zeros(12, 8);
        let mlp = GatedMlp::new(gate.clone(), gate.clone(), gate, Activation::Relu);
        let q = FusedQuantizedMlp::quantize(&mlp);
        assert_eq!(q.hidden_dim(), 8);
        assert_eq!(q.mlp_dim(), 12);
    }
}
