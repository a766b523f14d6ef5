//! Property-style tests for the sparse execution crate, driven by seeded
//! pseudo-random sweeps (offline replacement for the `proptest` crate).

use sparseinfer_model::{Activation, GatedMlp};
use sparseinfer_predictor::SkipMask;
use sparseinfer_sparse::mlp::{sparse_mlp_forward_into, MlpOptions};
use sparseinfer_sparse::OpCounter;
use sparseinfer_tensor::gemv::{
    gemm_rows_into, gemm_transposed_rows_into, gemv, gemv_transposed, Rows,
};
use sparseinfer_tensor::{Matrix, Prng, ThreadPool, Vector, Workspace};

fn random_mlp(seed: u64, k: usize, d: usize) -> GatedMlp {
    let mut rng = Prng::seed(seed);
    let mut m = |mean: f64| Matrix::from_fn(k, d, |_, _| rng.normal(mean, 0.5) as f32);
    GatedMlp::new(m(-0.05), m(0.0), m(0.0), Activation::Relu)
}

/// The decode MLP on fresh buffers and one thread: the output and the
/// `(predicted, effective)` sparsities.
fn forward(mlp: &GatedMlp, x: &Vector, mask: &SkipMask, options: MlpOptions) -> (Vector, f64, f64) {
    let mut out = Vector::zeros(0);
    let (predicted, effective) = sparse_mlp_forward_into(
        mlp,
        x,
        mask,
        options,
        &ThreadPool::single(),
        &mut Workspace::new(),
        &mut SkipMask::all_dense(0),
        &mut OpCounter::default(),
        &mut out,
    );
    (out, predicted, effective)
}

/// Sparse GEMV — the GEMM at one column under the mask — equals dense GEMV
/// with skipped outputs forced to zero.
#[test]
fn sparse_gemv_equals_masked_dense() {
    for seed in 0..48u64 {
        let mut rng = Prng::seed(seed);
        let k = 1 + rng.below(23);
        let d = 1 + rng.below(47);
        let w = Matrix::from_fn(k, d, |_, _| rng.normal(0.0, 1.0) as f32);
        let x = Vector::from_fn(d, |_| rng.normal(0.0, 1.0) as f32);
        let mut mrng = Prng::seed(seed ^ 0x1111);
        let mask = SkipMask::from_fn(k, |_| mrng.flip(0.5));

        let mut sparse = Vector::zeros(0);
        let kept: Vec<u32> = mask.active_rows().map(|r| r as u32).collect();
        let pool = ThreadPool::single();
        gemm_rows_into(&w, x.as_slice(), 1, Rows::Kept(&kept), &pool, &mut sparse);
        let dense = gemv(&w, &x);
        assert_eq!(
            sparse.len(),
            kept.len(),
            "seed {seed}: one entry per kept row"
        );
        for (&r, got) in kept.iter().zip(sparse.iter()) {
            let r = r as usize;
            assert_eq!(got.to_bits(), dense[r].to_bits(), "seed {seed} row {r}");
        }
    }
}

/// Down projection under a mask equals the transposed GEMV on an h3 whose
/// masked entries are zeroed.
#[test]
fn down_proj_equals_zeroed_transposed_gemv() {
    for seed in 0..48u64 {
        let mut rng = Prng::seed(seed ^ 0x2222);
        let k = 1 + rng.below(23);
        let d = 1 + rng.below(31);
        let w = Matrix::from_fn(k, d, |_, _| rng.normal(0.0, 1.0) as f32);
        let h3 = Vector::from_fn(k, |_| rng.normal(0.0, 1.0) as f32);
        let mut mrng = Prng::seed(seed ^ 0x3333);
        let mask = SkipMask::from_fn(k, |_| mrng.flip(0.4));

        let mut masked = Vector::zeros(0);
        let kept: Vec<u32> = mask.active_rows().map(|r| r as u32).collect();
        let packed: Vec<f32> = kept.iter().map(|&r| h3[r as usize]).collect();
        let pool = ThreadPool::single();
        let rows = Rows::Kept(&kept);
        gemm_transposed_rows_into(&w, rows, &packed, 1, false, &pool, &mut masked);

        let mut zeroed = h3.clone();
        for r in mask.skipped_rows() {
            zeroed[r] = 0.0;
        }
        let reference = gemv_transposed(&w, &zeroed);
        for (a, b) in masked.iter().zip(reference.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}: {a} vs {b}");
        }
    }
}

/// Skipping rows whose gate output is truly zero is lossless: for any mask
/// that only contains true zeros, the sparse MLP equals dense.
#[test]
fn true_zero_masks_are_lossless() {
    for seed in 0..32u64 {
        let mut dims = Prng::seed(seed ^ 0xD1D5);
        let k = 8 + dims.below(40);
        let d = 4 + dims.below(20);
        let mlp = random_mlp(seed, k, d);
        let mut rng = Prng::seed(seed ^ 0xF00D);
        let x = Vector::from_fn(d, |_| rng.normal(0.2, 1.0) as f32);

        let z = mlp.gate_preactivations(&x);
        let mask = SkipMask::from_fn(k, |r| z[r] <= 0.0);
        let (sparse, _, _) = forward(&mlp, &x, &mask, MlpOptions::default());
        let dense = mlp.forward(&x);
        for (a, b) in sparse.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-4, "seed {seed}: {a} vs {b}");
        }
    }
}

/// Kernel fusion and actual sparsity never change the numeric output, for
/// any predicted mask.
#[test]
fn execution_options_are_numerically_neutral() {
    for seed in 0..32u64 {
        let k = 32;
        let d = 16;
        let mlp = random_mlp(seed, k, d);
        let mut rng = Prng::seed(seed ^ 0xBEEF);
        let x = Vector::from_fn(d, |_| rng.normal(0.2, 1.0) as f32);
        let mut mrng = Prng::seed(seed ^ 0x4444);
        let mask = SkipMask::from_fn(k, |_| mrng.flip(0.3));

        let mut outputs = Vec::new();
        for (kf, asp) in [(false, false), (true, false), (false, true), (true, true)] {
            let options = MlpOptions {
                kernel_fusion: kf,
                actual_sparsity: asp,
            };
            outputs.push(forward(&mlp, &x, &mask, options).0);
        }
        for w in outputs.windows(2) {
            assert_eq!(&w[0], &w[1], "seed {seed}");
        }
    }
}

/// Effective sparsity is always >= predicted sparsity, and both lie in
/// [0, 1].
#[test]
fn sparsity_bounds_hold() {
    for seed in 0..32u64 {
        let k = 40;
        let d = 16;
        let mlp = random_mlp(seed, k, d);
        let mut rng = Prng::seed(seed ^ 0xCAFE);
        let x = Vector::from_fn(d, |_| rng.normal(0.2, 1.0) as f32);
        let mut mrng = Prng::seed(seed ^ 0x5555);
        let p = mrng.uniform();
        let mask = SkipMask::from_fn(k, |_| mrng.flip(p));

        let (_, predicted, effective) = forward(&mlp, &x, &mask, MlpOptions::default());
        assert!(effective >= predicted - 1e-12, "seed {seed}");
        assert!((0.0..=1.0).contains(&predicted));
        assert!((0.0..=1.0).contains(&effective));
    }
}

/// Op counters merge additively.
#[test]
fn op_counter_merge_is_additive() {
    let mut rng = Prng::seed(25);
    for _ in 0..128 {
        let a_macs = rng.below(1_000_000) as u64;
        let b_macs = rng.below(1_000_000) as u64;
        let a_bytes = rng.below(1_000_000) as u64;
        let b_bytes = rng.below(1_000_000) as u64;
        let mut a = OpCounter {
            macs: a_macs,
            weight_bytes_loaded: a_bytes,
            ..Default::default()
        };
        let b = OpCounter {
            macs: b_macs,
            weight_bytes_loaded: b_bytes,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.macs, a_macs + b_macs);
        assert_eq!(a.weight_bytes_loaded, a_bytes + b_bytes);
    }
}
