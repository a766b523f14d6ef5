//! Benchmarks of whole MLP-block execution: the pre-PR scalar dense
//! baseline, the unrolled dense path, SparseInfer's predicted-sparsity path
//! at several alphas, and the allocation-free workspace hot path — the
//! CPU-level analogue of the per-layer latency story in Fig. 4. Self-timed
//! with `std::time` (criterion is unavailable offline) and printed; nothing
//! is written.
//!
//! ```text
//! cargo bench --bench mlp_block                # full run
//! SPARSEINFER_BENCH_QUICK=1 cargo bench ...    # 1-iter CI smoke
//! ```

use sparseinfer::model::{generator::WeightGenerator, ModelConfig};
use sparseinfer::predictor::{
    AlphaSchedule, PredictorScratch, SignBitPredictor, SkipMask, SparsityPredictor,
};
use sparseinfer::sparse::mlp::{
    dense_mlp_forward, sparse_mlp_forward, sparse_mlp_forward_into, MlpOptions,
};
use sparseinfer::sparse::OpCounter;
use sparseinfer::tensor::gemv::{gemv_transposed, reference};
use sparseinfer::tensor::{Prng, ThreadPool, Vector, Workspace};
use sparseinfer_bench::{bench_iters, time_us};

fn main() {
    let cfg = ModelConfig::sim_13b();
    let model = WeightGenerator::new(&cfg, 3).build();
    let mlp = model.layers()[cfg.n_layers / 2].mlp();
    let mut rng = Prng::seed(4);
    let x = Vector::from_fn(cfg.hidden_dim, |_| rng.normal(0.6, 1.0) as f32);

    println!("== mlp_block ==");
    // The pre-PR dense path: single-accumulator scalar GEMVs, allocating —
    // exactly the seed's `GatedMlp::forward` composition, measured on this
    // machine so the "2x over pre-PR dense" criterion is self-contained.
    let t_scalar = time_us("dense_scalar_pre_pr_baseline", bench_iters(100), || {
        let mut h1 = reference::gemv(mlp.w_gate(), &x);
        mlp.activation().apply_slice(h1.as_mut_slice());
        let h2 = reference::gemv(mlp.w_up(), &x);
        let h3 = h1.hadamard(&h2).expect("same length");
        gemv_transposed(mlp.w_down_t(), &h3)
    });

    let t_dense = time_us("dense_unrolled (llama.cpp path)", bench_iters(100), || {
        let mut ops = OpCounter::default();
        dense_mlp_forward(mlp, &x, &mut ops)
    });
    println!(
        "  -> {:.1}x over the pre-PR scalar dense baseline",
        t_scalar / t_dense
    );

    for alpha in [1.00f64, 1.03] {
        let mut predictor = SignBitPredictor::from_model(&model, AlphaSchedule::uniform(alpha));
        let mask = predictor.predict(cfg.n_layers / 2, &x);
        let name = format!("sparseinfer_alpha_{alpha:.2}");
        let t = time_us(&name, bench_iters(200), || {
            let mut ops = OpCounter::default();
            sparse_mlp_forward(mlp, &x, &mask, MlpOptions::default(), &mut ops)
        });
        println!("  -> {:.1}x over dense", t_dense / t);
    }

    // The serving hot path: workspace-recycled buffers, zero allocations
    // per call once warm, plus the per-token prediction.
    let predictor = SignBitPredictor::from_model(&model, AlphaSchedule::uniform(1.0));
    let layer = cfg.n_layers / 2;
    let mut scratch = PredictorScratch::new();
    let mut mask = SkipMask::all_dense(0);
    let mut effective = SkipMask::all_dense(0);
    let mut ws = Workspace::new();
    let mut out = Vector::zeros(0);
    let pool1 = ThreadPool::single();
    let t_ws = time_us(
        "predict_then_sparse_mlp_workspace",
        bench_iters(200),
        || {
            predictor.predict_into(layer, &x, &mut scratch, &mut mask);
            let mut ops = OpCounter::default();
            sparse_mlp_forward_into(
                mlp,
                &x,
                &mask,
                MlpOptions::default(),
                &pool1,
                &mut ws,
                &mut effective,
                &mut ops,
                &mut out,
            );
        },
    );
    println!(
        "  -> {:.1}x over dense including prediction (allocation-free)",
        t_dense / t_ws
    );

    println!("\n== the same executor under an all-dense mask (no fusion, no compensation) ==");
    let dense_mask = SkipMask::all_dense(cfg.mlp_dim);
    let t_ws_dense = time_us("dense_mlp_block_1t", bench_iters(100), || {
        let mut ops = OpCounter::default();
        sparse_mlp_forward_into(
            mlp,
            &x,
            &dense_mask,
            MlpOptions {
                kernel_fusion: false,
                actual_sparsity: false,
            },
            &pool1,
            &mut ws,
            &mut effective,
            &mut ops,
            &mut out,
        );
    });
    println!(
        "  -> {:.2}x the allocating dense path's time",
        t_ws_dense / t_dense
    );
}
