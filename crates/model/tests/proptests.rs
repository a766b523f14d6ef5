//! Property-style tests for the model substrate, driven by seeded
//! pseudo-random sweeps (offline replacement for the `proptest` crate).

use sparseinfer_model::norm::RmsNorm;
use sparseinfer_model::{Activation, GatedMlp};
use sparseinfer_tensor::{Matrix, Prng, Vector};

fn finite_x(rng: &mut Prng) -> f32 {
    (rng.uniform() * 100.0 - 50.0) as f32
}

/// ReLU's sparsity predicate agrees with its output being exactly zero.
#[test]
fn relu_sparsity_predicate_is_exact() {
    let mut rng = Prng::seed(11);
    for _ in 0..512 {
        let x = finite_x(&mut rng);
        assert_eq!(
            Activation::Relu.is_sparse_at(x),
            Activation::Relu.apply(x) == 0.0
        );
    }
}

/// FATReLU dominates ReLU in sparsity for any positive threshold.
#[test]
fn fatrelu_is_sparser_than_relu() {
    let mut rng = Prng::seed(12);
    for _ in 0..512 {
        let x = finite_x(&mut rng);
        let t = (rng.uniform() * 5.0) as f32;
        if Activation::Relu.is_sparse_at(x) {
            assert!(Activation::FatRelu(t).is_sparse_at(x), "x={x} t={t}");
        }
    }
}

/// SiLU is bounded below by ≈ −0.2785 and is zero only at zero — the
/// "no exact sparsity" property motivating ReLUfication.
#[test]
fn silu_has_no_exact_zeros_except_origin() {
    let mut rng = Prng::seed(13);
    for _ in 0..512 {
        let x = finite_x(&mut rng);
        let y = Activation::Silu.apply(x);
        assert!(y >= -0.279, "silu({x}) = {y}");
        if x != 0.0 && x.abs() > 1e-3 && x > -30.0 {
            assert!(y != 0.0, "silu({x}) = {y}");
        }
    }
}

/// ReLUfication is idempotent and maps every activation to the ReLU family.
#[test]
fn relufication_is_idempotent() {
    let mut rng = Prng::seed(14);
    for _ in 0..64 {
        let t = (rng.uniform() * 2.0) as f32;
        for a in [
            Activation::Silu,
            Activation::Gelu,
            Activation::Relu,
            Activation::FatRelu(t),
        ] {
            let once = a.relufy();
            assert_eq!(once.relufy(), once);
            assert!(matches!(once, Activation::Relu | Activation::FatRelu(_)));
        }
    }
}

/// RMSNorm output of a unit-gain norm always has RMS ≈ 1 for nonzero
/// inputs.
#[test]
fn unit_rmsnorm_normalizes() {
    let mut rng = Prng::seed(15);
    for _ in 0..64 {
        let dim = 4 + rng.below(60);
        let values: Vec<f32> = (0..dim)
            .map(|_| (0.1 + rng.uniform() * 9.9) as f32)
            .collect();
        let norm = RmsNorm::unit(dim);
        let y = norm.forward(&Vector::from_vec(values));
        let rms = (y.as_slice().iter().map(|v| v * v).sum::<f32>() / dim as f32).sqrt();
        assert!((rms - 1.0).abs() < 1e-2, "rms {rms}");
    }
}

/// RMSNorm is scale-invariant: norm(c·x) == norm(x) for c > 0.
#[test]
fn rmsnorm_is_scale_invariant() {
    let mut rng = Prng::seed(16);
    for _ in 0..64 {
        let dim = 4 + rng.below(28);
        let values: Vec<f32> = (0..dim)
            .map(|_| (0.1 + rng.uniform() * 9.9) as f32)
            .collect();
        let c = (0.5 + rng.uniform() * 19.5) as f32;
        let norm = RmsNorm::unit(dim);
        let x = Vector::from_vec(values);
        let mut cx = x.clone();
        cx.scale(c);
        let a = norm.forward(&x);
        let b = norm.forward(&cx);
        for (u, v) in a.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-2, "{u} vs {v} at c={c}");
        }
    }
}

/// The gated MLP is zero on the zero input (no biases anywhere).
#[test]
fn mlp_maps_zero_to_zero() {
    for seed in 0..32u64 {
        let mut rng = Prng::seed(seed);
        let k = 1 + rng.below(23);
        let d = 1 + rng.below(15);
        let mut m = || Matrix::from_fn(k, d, |_, _| rng.normal(0.0, 1.0) as f32);
        let mlp = GatedMlp::new(m(), m(), m(), Activation::Relu);
        let y = mlp.forward(&Vector::zeros(d));
        assert!(y.iter().all(|v| *v == 0.0), "seed {seed}");
    }
}

/// Gate pre-activation sign determines sparsity: h1[r] == 0 iff z[r] <= 0
/// under ReLU, for random weights and inputs.
#[test]
fn gate_sign_is_sparsity() {
    for seed in 0..32u64 {
        let k = 24;
        let d = 12;
        let mut rng = Prng::seed(seed);
        let mut m = || Matrix::from_fn(k, d, |_, _| rng.normal(0.0, 1.0) as f32);
        let mlp = GatedMlp::new(m(), m(), m(), Activation::Relu);
        let x = Vector::from_fn(d, |_| rng.normal(0.3, 1.0) as f32);
        let z = mlp.gate_preactivations(&x);
        let mut h1 = z.clone();
        Activation::Relu.apply_slice(h1.as_mut_slice());
        for r in 0..k {
            assert_eq!(h1[r] == 0.0, z[r] <= 0.0, "seed {seed} row {r}");
        }
    }
}
