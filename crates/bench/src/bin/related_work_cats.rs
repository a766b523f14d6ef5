//! **A3 (related-work ablation, paper §II)**: ReLUfication + SparseInfer
//! versus CATS/TEAL-style threshold sparsification of a SiLU model.
//!
//! ```text
//! cargo run --release -p sparseinfer-bench --bin related_work_cats
//! ```
//!
//! Claims this checks qualitatively:
//! * SiLU alone has essentially zero exact sparsity (the motivation for
//!   ReLUfication);
//! * a calibrated magnitude threshold recovers sparsity from SiLU without
//!   fine-tuning, but it cannot skip the gate GEMV, so its *weight-traffic*
//!   saving is structurally capped at 2/3 of the MLP;
//! * SparseInfer on the ReLU-fied model skips all three projections and
//!   reaches higher total savings (the paper: CATS ~15% end-to-end speedup
//!   vs SparseInfer ~21% over the state of the art).

use sparseinfer::model::GatedMlp;
use sparseinfer::model::{generator::WeightGenerator, Activation, MlpTrace, ModelConfig};
use sparseinfer::predictor::SkipMask;
use sparseinfer::predictor::{AlphaSchedule, SignBitPredictor, SparsityPredictor};
use sparseinfer::sparse::cats::{cats_mlp_forward, CatsThresholds};
use sparseinfer::sparse::mlp::{sparse_mlp_forward_into, MlpOptions};
use sparseinfer::sparse::OpCounter;
use sparseinfer::tensor::{Prng, ThreadPool, Vector, Workspace};

/// One decode MLP call, billed into `ops`; returns the effective sparsity.
fn run_mlp(
    mlp: &GatedMlp,
    x: &Vector,
    mask: &SkipMask,
    options: MlpOptions,
    ops: &mut OpCounter,
) -> f64 {
    let mut out = Vector::zeros(0);
    let (_, effective) = sparse_mlp_forward_into(
        mlp,
        x,
        mask,
        options,
        &ThreadPool::single(),
        &mut Workspace::new(),
        &mut SkipMask::all_dense(0),
        ops,
        &mut out,
    );
    effective
}

fn main() {
    // One SiLU model and one ReLU-fied twin with identical dimensions.
    let mut cfg = ModelConfig::sim_7b();
    cfg.vocab_size = 512;
    let mut silu_cfg = cfg.clone();
    silu_cfg.activation = Activation::Silu;
    let silu_model = WeightGenerator::new(&silu_cfg, 71).build();
    let relu_model = WeightGenerator::new(&cfg, 71).build();

    let trace = MlpTrace::capture(&silu_model, &(1..=10).collect::<Vec<u32>>(), 4);

    // Intrinsic SiLU sparsity (exact zeros).
    let intrinsic: f64 = {
        let mut total = 0usize;
        let mut zeros = 0usize;
        for s in trace.samples() {
            for z in s.preact.iter() {
                total += 1;
                if Activation::Silu.apply(*z) == 0.0 {
                    zeros += 1;
                }
            }
        }
        zeros as f64 / total as f64
    };
    println!("intrinsic SiLU exact-zero sparsity: {intrinsic:.4}  (paper: ~0, the ReLUfication motivation)\n");

    // CATS at several calibrated sparsity targets vs SparseInfer.
    let mut rng = Prng::seed(72);
    let x = Vector::from_fn(cfg.hidden_dim, |_| rng.normal(0.6, 1.0) as f32);
    let layer = cfg.n_layers - 1;

    println!(
        "{:<28} {:>10} {:>16} {:>14}",
        "method", "sparsity", "weight bytes", "vs dense"
    );
    let mut dense_ops = OpCounter::default();
    let _ = run_mlp(
        relu_model.layers()[layer].mlp(),
        &x,
        &SkipMask::all_dense(cfg.mlp_dim),
        MlpOptions {
            kernel_fusion: false,
            actual_sparsity: false,
        },
        &mut dense_ops,
    );
    println!(
        "{:<28} {:>10.3} {:>16} {:>14}",
        "dense (llama.cpp)", 0.0, dense_ops.weight_bytes_loaded, "1.000"
    );

    for target in [0.5, 0.7, 0.9] {
        let thresholds = CatsThresholds::calibrate(&trace, Activation::Silu, target);
        let mut ops = OpCounter::default();
        let out = cats_mlp_forward(
            silu_model.layers()[layer].mlp(),
            &x,
            thresholds.threshold(layer),
            &mut ops,
        );
        println!(
            "{:<28} {:>10.3} {:>16} {:>14.3}",
            format!("CATS-style (target {target:.1})"),
            out.sparsity,
            ops.weight_bytes_loaded,
            ops.weight_bytes_loaded as f64 / dense_ops.weight_bytes_loaded as f64
        );
    }

    let mut predictor = SignBitPredictor::from_model(&relu_model, AlphaSchedule::uniform(1.0));
    let mask = predictor.predict(layer, &x);
    let mut ops = OpCounter::default();
    let effective = run_mlp(
        relu_model.layers()[layer].mlp(),
        &x,
        &mask,
        MlpOptions::default(),
        &mut ops,
    );
    println!(
        "{:<28} {:>10.3} {:>16} {:>14.3}",
        "SparseInfer (ReLU-fied)",
        effective,
        ops.weight_bytes_loaded,
        ops.weight_bytes_loaded as f64 / dense_ops.weight_bytes_loaded as f64
    );

    println!("\nStructural floor for threshold methods: the gate GEMV (1/3 of MLP weight");
    println!("traffic) is always paid; SparseInfer's predictor skips it too.");
}
