//! Synthetic, sparsity-calibrated weight generation.
//!
//! This is the substitute for the ProSparse-Llama2 checkpoints (see
//! DESIGN.md §2). The generator produces weights whose *statistics* match
//! what the SparseInfer paper observes and relies on:
//!
//! 1. **Gaussian shapes** (Fig. 2): MLP inputs `X` and gate rows `W_gate,i`
//!    are approximately normal; their products are symmetric around zero.
//! 2. **Calibrated activation sparsity**: for each layer the distribution of
//!    gate-row means is solved in closed form so the expected fraction of
//!    negative pre-activations equals `target_sparsity` (~0.92, ProSparse's
//!    level).
//! 3. **Early-layer pathology** (Fig. 2 discussion, §IV-A): the first layers
//!    get a *narrow, near-zero* `X` distribution, which makes the sign-count
//!    predictor measurably less precise there — the effect the paper's
//!    per-layer `alpha > 1` compensates.
//!
//! # The calibration math
//!
//! Per layer, the pre-MLP norm shapes `X` so each element is approximately
//! `N(mu_x, sigma_x^2)`. A gate row `r` is drawn elementwise as
//! `N(nu_r / sqrt(d), 1/d)`, with the row-level parameter
//! `nu_r ~ N(-m, s_m^2)`. The pre-activation `z_r = X · W_gate,r` then has
//! `E[z] = sqrt(d)·mu_x·nu_r` and `Var[z] ≈ sigma_x² + mu_x²`, so with
//! `c = sqrt(d)·mu_x / sqrt(sigma_x² + mu_x²)`:
//!
//! ```text
//! P(z < 0)  =  E_nu[ Φ(-c·nu) ]  =  Φ( c·m / sqrt(1 + c²·s_m²) )
//! ```
//!
//! Solving for `m` given the target sparsity `s` and a per-layer row
//! z-score spread `q = c·s_m`: `m = Φ⁻¹(s) · sqrt(1 + q²) / c`. Borderline
//! rows (`nu ≈ 0`) are exactly the ones the sign-count predictor gets wrong;
//! the spread ramps from small (early layers, many borderline rows, lower
//! precision) to large (stabilized layers, >99% precision), reproducing the
//! paper's precision/recall structure.

use sparseinfer_tensor::stats::normal_quantile;
use sparseinfer_tensor::{Matrix, Prng, Vector};

use crate::attention::Attention;
use crate::config::ModelConfig;
use crate::layer::DecoderLayer;
use crate::mlp::GatedMlp;
use crate::model::Model;
use crate::norm::RmsNorm;

/// MLP-input mean in fully "stabilized" layers.
const X_MEAN_LATE: f64 = 0.65;
/// MLP-input mean in the earliest layer (the near-zero pathology).
const X_MEAN_EARLY: f64 = 0.045;
/// MLP-input standard deviation (norm gain scale) in late layers.
const X_STD_LATE: f64 = 1.0;
/// MLP-input standard deviation in the earliest layer (narrow).
const X_STD_EARLY: f64 = 0.6;
/// Fraction of depth over which the early→late ramp completes.
const RAMP_FRACTION: f64 = 0.5;
/// Spread of row z-scores (`s_m · c`) in the earliest layer. A small spread
/// packs rows near the decision boundary, producing the paper's early-layer
/// prediction errors.
const ROW_ZSCORE_SPREAD_EARLY: f64 = 0.45;
/// Spread of row z-scores in stabilized layers. A large spread makes rows
/// decisively sparse or active, reproducing the paper's >99% late-layer
/// precision.
const ROW_ZSCORE_SPREAD_LATE: f64 = 9.0;

/// The value ramping from `early` (layer 0) to `late` (at
/// [`RAMP_FRACTION`] of depth and beyond) at layer `l` of `n_layers`.
fn ramped(early: f64, late: f64, l: usize, n_layers: usize) -> f64 {
    let r = if n_layers <= 1 {
        1.0
    } else {
        let t = l as f64 / (n_layers - 1) as f64;
        (t / RAMP_FRACTION).min(1.0)
    };
    early + (late - early) * r
}

/// Target MLP-input mean for layer `l`.
fn x_mean(l: usize, n_layers: usize) -> f64 {
    ramped(X_MEAN_EARLY, X_MEAN_LATE, l, n_layers)
}

/// Target MLP-input standard deviation for layer `l`.
fn x_std(l: usize, n_layers: usize) -> f64 {
    ramped(X_STD_EARLY, X_STD_LATE, l, n_layers)
}

/// Builder that turns a [`ModelConfig`] plus a seed into a full [`Model`].
///
/// # Example
///
/// ```
/// use sparseinfer_model::{ModelConfig, generator::WeightGenerator};
///
/// let model = WeightGenerator::new(&ModelConfig::tiny(), 1).build();
/// assert_eq!(model.layers().len(), 2);
/// ```
#[derive(Debug)]
pub struct WeightGenerator {
    config: ModelConfig,
    seed: u64,
}

impl WeightGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ModelConfig::validate`].
    pub fn new(config: &ModelConfig, seed: u64) -> Self {
        config.validate().expect("invalid model config");
        Self {
            config: config.clone(),
            seed,
        }
    }

    /// Closed-form row-mean parameters `(m, s_m)` for layer `l` (see module
    /// docs): solves `Φ(c·m / sqrt(1 + c²·s_m²)) = target_sparsity`.
    pub fn row_mean_params(&self, l: usize) -> (f64, f64) {
        let d = self.config.hidden_dim as f64;
        let n_layers = self.config.n_layers;
        let mu_x = x_mean(l, n_layers);
        let sigma_x = x_std(l, n_layers);
        let spread = ramped(ROW_ZSCORE_SPREAD_EARLY, ROW_ZSCORE_SPREAD_LATE, l, n_layers);
        let c = d.sqrt() * mu_x / (sigma_x * sigma_x + mu_x * mu_x).sqrt();
        let s_m = spread / c;
        let m = normal_quantile(self.config.target_sparsity) * (1.0 + spread * spread).sqrt() / c;
        (m, s_m)
    }

    /// Generates the full model.
    pub fn build(&self) -> Model {
        let cfg = &self.config;
        let d = cfg.hidden_dim;
        let mut root = Prng::seed(self.seed);

        // Embedding: zero-mean unit Gaussian per element.
        let mut emb_rng = root.fork(0xE4B);
        let embedding = Matrix::from_fn(cfg.vocab_size, d, |_, _| emb_rng.normal(0.0, 1.0) as f32);

        let mut layers = Vec::with_capacity(cfg.n_layers);
        for l in 0..cfg.n_layers {
            let mut rng = root.fork(l as u64 + 1);
            layers.push(self.build_layer(l, &mut rng));
        }

        let mut head_rng = root.fork(0x1EAD);
        let inv_sqrt_d = 1.0 / (d as f64).sqrt();
        let lm_head = Matrix::from_fn(cfg.vocab_size, d, |_, _| {
            head_rng.normal(0.0, inv_sqrt_d) as f32
        });

        Model::new(cfg.clone(), embedding, layers, RmsNorm::unit(d), lm_head)
    }

    fn build_layer(&self, l: usize, rng: &mut Prng) -> DecoderLayer {
        let cfg = &self.config;
        let d = cfg.hidden_dim;
        let k = cfg.mlp_dim;
        let inv_sqrt_d = 1.0 / (d as f64).sqrt();

        // Attention: modest zero-mean projections; the residual stream is
        // dominated by the embedding + MLP path, as in real models during
        // decode.
        let mut attn_rng = rng.fork(0xA77);
        let mut proj = |scale: f64| {
            Matrix::from_fn(d, d, |_, _| attn_rng.normal(0.0, scale * inv_sqrt_d) as f32)
        };
        let attn = Attention::new(proj(0.6), proj(0.6), proj(0.5), proj(0.35), cfg.n_heads);

        // Pre-MLP norm: shapes X to N(mu_x, sigma_x^2) per element.
        let mu_x = x_mean(l, cfg.n_layers);
        let sigma_x = x_std(l, cfg.n_layers);
        let mut norm_rng = rng.fork(0x0127);
        let gain = Vector::from_fn(d, |_| {
            (sigma_x * (1.0 + 0.08 * norm_rng.standard_normal())) as f32
        });
        let bias = Vector::from_fn(d, |_| {
            (mu_x * (1.0 + 0.10 * norm_rng.standard_normal())) as f32
        });
        let mlp_norm = RmsNorm::with_bias(gain, bias);

        // Gate matrix: per-row mean nu_r/sqrt(d) with nu_r ~ N(-m, s_m^2).
        let (m, s_m) = self.row_mean_params(l);
        let mut gate_rng = rng.fork(0x6A7E);
        let mut w_gate = Matrix::zeros(k, d);
        for r in 0..k {
            let nu = gate_rng.normal(-m, s_m);
            let row_mean = nu * inv_sqrt_d;
            let row = w_gate.row_mut(r);
            for w in row.iter_mut() {
                *w = gate_rng.normal(row_mean, inv_sqrt_d) as f32;
            }
        }

        // Up projection: zero-mean.
        let mut up_rng = rng.fork(0x0B0);
        let w_up = Matrix::from_fn(k, d, |_, _| up_rng.normal(0.0, inv_sqrt_d) as f32);

        // Down projection (stored transposed, k×d): scaled so that the MLP
        // residual update stays O(0.5) given ~(1-s)·k active elements.
        let active = ((1.0 - cfg.target_sparsity) * k as f64).max(1.0);
        let sigma_down = 0.5 / active.sqrt();
        let mut down_rng = rng.fork(0xD047);
        let w_down_t = Matrix::from_fn(k, d, |_, _| down_rng.normal(0.0, sigma_down) as f32);

        let mlp = GatedMlp::new(w_gate, w_up, w_down_t, cfg.activation);
        DecoderLayer::new(RmsNorm::unit(d), attn, mlp_norm, mlp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MlpTrace;

    fn mid_config() -> ModelConfig {
        ModelConfig {
            name: "mid".into(),
            hidden_dim: 64,
            mlp_dim: 192,
            n_layers: 6,
            n_heads: 2,
            vocab_size: 96,
            max_seq_len: 64,
            activation: crate::Activation::Relu,
            target_sparsity: 0.9,
        }
    }

    #[test]
    fn build_produces_consistent_shapes() {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 1).build();
        assert_eq!(model.layers().len(), cfg.n_layers);
        assert_eq!(model.layers()[0].mlp().mlp_dim(), cfg.mlp_dim);
        assert_eq!(model.layers()[0].mlp().hidden_dim(), cfg.hidden_dim);
    }

    #[test]
    fn same_seed_reproduces_weights() {
        let cfg = ModelConfig::tiny();
        let a = WeightGenerator::new(&cfg, 7).build();
        let b = WeightGenerator::new(&cfg, 7).build();
        let x = Vector::from_fn(cfg.hidden_dim, |i| (i as f32 * 0.1).sin());
        let ya = a.layers()[0].mlp().forward(&x);
        let yb = b.layers()[0].mlp().forward(&x);
        assert_eq!(ya, yb);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ModelConfig::tiny();
        let a = WeightGenerator::new(&cfg, 1).build();
        let b = WeightGenerator::new(&cfg, 2).build();
        assert_ne!(
            a.layers()[0].mlp().w_gate().as_slice()[..8],
            b.layers()[0].mlp().w_gate().as_slice()[..8]
        );
    }

    #[test]
    fn measured_sparsity_tracks_target() {
        let cfg = mid_config();
        let model = WeightGenerator::new(&cfg, 42).build();
        let prompt: Vec<u32> = (1..24).collect();
        let trace = MlpTrace::capture(&model, &prompt, 0);
        let per_layer = trace.sparsity_per_layer();
        let mean: f64 = per_layer.iter().sum::<f64>() / per_layer.len() as f64;
        assert!(
            (mean - cfg.target_sparsity).abs() < 0.08,
            "mean sparsity {mean:.3} vs target {}",
            cfg.target_sparsity
        );
    }

    #[test]
    fn early_layers_have_narrow_near_zero_inputs() {
        let cfg = mid_config();
        let model = WeightGenerator::new(&cfg, 43).build();
        let prompt: Vec<u32> = (1..16).collect();
        let trace = MlpTrace::capture(&model, &prompt, 0);
        let early = trace.x_summary(0);
        let late = trace.x_summary(cfg.n_layers - 1);
        assert!(
            early.mean().abs() < late.mean().abs(),
            "early mean {} vs late mean {}",
            early.mean(),
            late.mean()
        );
        assert!(
            early.std_dev() < late.std_dev(),
            "early std {} vs late std {}",
            early.std_dev(),
            late.std_dev()
        );
    }

    #[test]
    fn row_mean_params_solve_the_closed_form() {
        let cfg = mid_config();
        let generator = WeightGenerator::new(&cfg, 1);
        let (m, s_m) = generator.row_mean_params(cfg.n_layers - 1);
        // Re-evaluate the forward formula.
        let d = cfg.hidden_dim as f64;
        let mu = x_mean(cfg.n_layers - 1, cfg.n_layers);
        let sd = x_std(cfg.n_layers - 1, cfg.n_layers);
        let c = d.sqrt() * mu / (sd * sd + mu * mu).sqrt();
        let predicted =
            sparseinfer_tensor::stats::normal_cdf(c * m / (1.0 + c * c * s_m * s_m).sqrt());
        assert!(
            (predicted - cfg.target_sparsity).abs() < 1e-6,
            "closed form gives {predicted}"
        );
    }

    #[test]
    fn hidden_states_remain_finite_over_depth() {
        let cfg = mid_config();
        let model = WeightGenerator::new(&cfg, 44).build();
        let logits = model.prefill(&(1..32).collect::<Vec<u32>>());
        assert!(logits.iter().all(|v| v.is_finite()));
        let norm = logits.norm();
        assert!(norm > 1e-3 && norm < 1e4, "logit norm {norm}");
    }
}
