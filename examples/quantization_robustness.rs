//! The paper's portability claim (§IV-A): the sign-bit predictor works
//! unchanged across storage formats — FP32, FP16 and INT8 — because only
//! the MSB is consulted; a trained predictor must be retrained per format.
//!
//! This example packs sign bits from all three representations of the same
//! gate weights (INT8 in the block format the int8 engine serves) and shows
//! the resulting skip masks are (near-)identical.
//!
//! ```text
//! cargo run --release --example quantization_robustness
//! ```

use sparseinfer::model::{generator::WeightGenerator, ModelConfig};
use sparseinfer::predictor::{AlphaSchedule, SignBitPredictor, SparsityPredictor};
use sparseinfer::tensor::f16::quantize_slice;
use sparseinfer::tensor::sign::PackedSignMatrix;
use sparseinfer::tensor::{BlockQuantizedMatrix, Matrix, Prng, Vector};

fn main() {
    let mut config = ModelConfig::tiny();
    config.hidden_dim = 128;
    config.mlp_dim = 384;
    config.n_heads = 4;
    let model = WeightGenerator::new(&config, 99).build();
    let schedule = AlphaSchedule::uniform(1.0);

    // FP32 signs (the reference).
    let mut fp32 = SignBitPredictor::from_model(&model, schedule.clone());

    // FP16 signs: convert weights to half precision, pack MSBs.
    let fp16_layers: Vec<PackedSignMatrix> = model
        .layers()
        .iter()
        .map(|l| {
            let w = l.mlp().w_gate();
            let halves = quantize_slice(w.as_slice());
            let as_f32 = Matrix::from_vec(
                w.rows(),
                w.cols(),
                halves.iter().map(|h| h.to_f32()).collect(),
            )
            .expect("same shape");
            PackedSignMatrix::pack(&as_f32)
        })
        .collect();
    let mut fp16 = SignBitPredictor::from_packed(fp16_layers, schedule.clone());

    // INT8 signs: the int8 engine's block quantization (one scale per 32
    // columns), pack MSBs of the int8s.
    let int8_layers: Vec<PackedSignMatrix> = model
        .layers()
        .iter()
        .map(|l| BlockQuantizedMatrix::quantize(l.mlp().w_gate()).packed_signs())
        .collect();
    let mut int8 = SignBitPredictor::from_packed(int8_layers, schedule);

    let mut rng = Prng::seed(5);
    let mut fp16_agree = 0usize;
    let mut int8_agree = 0usize;
    let mut total = 0usize;
    for layer in 0..config.n_layers {
        for _ in 0..8 {
            let x = Vector::from_fn(config.hidden_dim, |_| rng.normal(0.4, 1.0) as f32);
            let m32 = fp32.predict(layer, &x);
            let m16 = fp16.predict(layer, &x);
            let m8 = int8.predict(layer, &x);
            for r in 0..config.mlp_dim {
                total += 1;
                if m32.is_skipped(r) == m16.is_skipped(r) {
                    fp16_agree += 1;
                }
                if m32.is_skipped(r) == m8.is_skipped(r) {
                    int8_agree += 1;
                }
            }
        }
    }

    println!("skip-mask agreement with the FP32 reference over {total} decisions:");
    println!("  FP16: {:.4}", fp16_agree as f64 / total as f64);
    println!(
        "  INT8: {:.4}  (int8 zeros pack as 'positive'; only sub-quantum weights differ)",
        int8_agree as f64 / total as f64
    );
    println!(
        "\nNo retraining, no recalibration — the predictor consumed each format's MSBs directly."
    );

    assert!(
        fp16_agree == total,
        "FP16 conversion preserves every sign bit"
    );
    assert!(int8_agree as f64 / total as f64 > 0.99);
}
