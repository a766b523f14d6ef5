//! The sparse gated-MLP executor (steps 1–4 of §III under a skip mask).
//!
//! Execution is *sequential* (gate before up), the variant the paper argues
//! for in §IV: it enables kernel fusion and — more importantly — lets the
//! exact zeros discovered after the gate GEMV ("actual sparsity") be unioned
//! into the mask used by the up and down projections, compensating rows the
//! conservative predictor kept alive unnecessarily.
//!
//! There is one executor, [`sparse_mlp_forward_into`], generic over the
//! block's weight storage ([`MlpWeights`]): the model's own `f32`
//! [`GatedMlp`] and the int8
//! [`FusedQuantizedMlp`](crate::quantized::FusedQuantizedMlp) run the same
//! steps through the same generic kernels. Dense execution is the same call
//! under the all-active mask ([`dense_mlp_forward`]).

use sparseinfer_model::{Activation, GatedMlp};
use sparseinfer_predictor::SkipMask;
use sparseinfer_tensor::{Matrix, ThreadPool, Vector, WeightRows, Workspace};

use crate::gemv::{sparse_down_proj_into, sparse_gemv_into};
use crate::ops::OpCounter;

/// The weights of one gated-MLP block, in whatever storage they are
/// executed from.
pub trait MlpWeights {
    /// The storage of the three matrices.
    type Rows: WeightRows;

    /// `(W_gate, W_up, W_downᵀ, activation)` — gate and up are `k × d`, the
    /// transposed down projection is `k × d` too, so sparsity skips whole
    /// rows of all three.
    fn parts(&self) -> (&Self::Rows, &Self::Rows, &Self::Rows, Activation);
}

impl MlpWeights for GatedMlp {
    type Rows = Matrix;

    fn parts(&self) -> (&Self::Rows, &Self::Rows, &Self::Rows, Activation) {
        (
            self.w_gate(),
            self.w_up(),
            self.w_down_t(),
            self.activation(),
        )
    }
}

/// Switches for the sparse MLP execution, matching the four SparseInfer
/// variants of the paper's Fig. 4 (`base`, `+KF`, `+AS`, `+KF+AS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlpOptions {
    /// Fuse steps 1–3 into one "kernel": numerically identical, but X is
    /// loaded once and `h1`/`h2` never round-trip through memory (§IV-B4's
    /// traffic analysis). Affects only the byte accounting.
    pub kernel_fusion: bool,
    /// Union the exact zeros found after step 1 into the mask used by steps
    /// 2–4 (the paper's "actual sparsity").
    pub actual_sparsity: bool,
}

impl Default for MlpOptions {
    fn default() -> Self {
        Self {
            kernel_fusion: true,
            actual_sparsity: true,
        }
    }
}

/// Result of one sparse MLP execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMlpOutput {
    /// The block output (length `d`).
    pub output: Vector,
    /// Sparsity of the predicted mask that entered the block.
    pub predicted_sparsity: f64,
    /// Sparsity of the mask actually applied to steps 2–4 (≥ predicted when
    /// actual-sparsity compensation is on).
    pub effective_sparsity: f64,
}

/// Executes the gated MLP under `predicted`, reporting into `ops`.
///
/// Skipped gate rows produce `h1[r] = activation(0)`, which is zero for the
/// ReLU family — exactly the approximation the paper makes. (For SiLU/GELU
/// the function still zeroes the skipped rows; that *would* perturb the
/// result, which is why SparseInfer targets ReLU-fied models.)
///
/// # Panics
///
/// Panics if `x` or `predicted` disagree with the block's dimensions.
pub fn sparse_mlp_forward(
    mlp: &GatedMlp,
    x: &Vector,
    predicted: &SkipMask,
    options: MlpOptions,
    ops: &mut OpCounter,
) -> SparseMlpOutput {
    let mut ws = Workspace::new();
    let mut effective = SkipMask::all_dense(0);
    let mut output = Vector::zeros(0);
    let (predicted_sparsity, effective_sparsity) = sparse_mlp_forward_into(
        mlp,
        x,
        predicted,
        options,
        &ThreadPool::single(),
        &mut ws,
        &mut effective,
        ops,
        &mut output,
    );
    SparseMlpOutput {
        output,
        predicted_sparsity,
        effective_sparsity,
    }
}

/// Workspace variant of [`sparse_mlp_forward`] — the decode hot path, for
/// any weight storage.
///
/// All intermediates (`h1`, `h2`) come from `ws`, the applied mask is built
/// in place in `effective` (enter with any contents; leaves holding
/// `predicted ∪ actual`), the block output lands in `out`, and the three
/// GEMVs fan out across `pool`. After warm-up the call performs zero heap
/// allocations, and its output is bit-identical to the allocating wrapper
/// at every thread count (shared kernels, fixed reduction order).
///
/// Over int8 weights the kernels reduce in exactly the order they would
/// over the dequantized `f32` weights, so the whole forward is bit-identical
/// to running it on the dequantized matrices: quantization perturbs values
/// once, at weight-prep time, never the execution. Activation traffic is
/// format-independent (intermediates stay `f32`).
///
/// Returns `(predicted_sparsity, effective_sparsity)`.
///
/// # Panics
///
/// Panics if `x` or `predicted` disagree with the block's dimensions.
#[allow(clippy::too_many_arguments)] // the hot path threads every resource explicitly
pub fn sparse_mlp_forward_into<M: MlpWeights>(
    mlp: &M,
    x: &Vector,
    predicted: &SkipMask,
    options: MlpOptions,
    pool: &ThreadPool,
    ws: &mut Workspace,
    effective: &mut SkipMask,
    ops: &mut OpCounter,
    out: &mut Vector,
) -> (f64, f64) {
    let (w_gate, w_up, w_down_t, activation) = mlp.parts();
    assert_eq!(x.len(), w_gate.cols(), "input length mismatch");
    assert_eq!(predicted.len(), w_gate.rows(), "mask length mismatch");

    let d = w_gate.cols() as u64;
    let k = w_gate.rows() as u64;
    let predicted_sparsity = predicted.sparsity();

    // Step 1 (gate computation) under the predicted mask.
    let mut h1 = ws.take(w_gate.rows());
    sparse_gemv_into(w_gate, x, predicted, pool, ops, &mut h1);
    activation.apply_slice(h1.as_mut_slice());

    // Actual-sparsity compensation: exact zeros after the activation join
    // the mask for steps 2–4.
    effective.copy_from(predicted);
    if options.actual_sparsity {
        effective.union_exact_zeros(&h1);
    }
    let effective_sparsity = effective.sparsity();

    // Step 2 (input processing) and step 3 (gate application, in place:
    // h1 becomes h3 = h1 ⊙ h2).
    let mut h2 = ws.take(w_gate.rows());
    sparse_gemv_into(w_up, x, effective, pool, ops, &mut h2);
    for (a, b) in h1.as_mut_slice().iter_mut().zip(h2.as_slice()) {
        *a *= b;
    }

    // Step 4 (output generation) over the transposed down projection.
    sparse_down_proj_into(w_down_t, &h1, effective, pool, ops, out);
    ws.give(h1);
    ws.give(h2);

    // Inter-kernel activation traffic (§IV-B4):
    //   fused:   load X once + write h3;      then step 4: read h3, write out.
    //   unfused: load X twice, h1 and h2 each store+load, h3 store;
    //            then step 4: read h3, write out.
    let elems = if options.kernel_fusion {
        2 * d + 2 * k
    } else {
        3 * d + 6 * k
    };
    ops.activation_bytes += elems * OpCounter::ACTIVATION_BYTES;

    (predicted_sparsity, effective_sparsity)
}

/// The name the int8 forward used to have as a second body; kept as an
/// alias because callers outside the workspace import it.
pub use self::sparse_mlp_forward_into as sparse_mlp_q8_forward_into;

/// Dense reference execution with identical accounting hooks: the all-active
/// mask under the base options — the llama.cpp-equivalent path an engine
/// built without a predictor runs.
pub fn dense_mlp_forward(mlp: &GatedMlp, x: &Vector, ops: &mut OpCounter) -> Vector {
    let out = sparse_mlp_forward(
        mlp,
        x,
        &SkipMask::all_dense(mlp.mlp_dim()),
        MlpOptions {
            kernel_fusion: false,
            actual_sparsity: false,
        },
        ops,
    );
    out.output
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer_model::generator::WeightGenerator;
    use sparseinfer_model::ModelConfig;
    use sparseinfer_predictor::{OraclePredictor, SparsityPredictor};
    use sparseinfer_tensor::Prng;

    fn setup() -> (sparseinfer_model::Model, Vector) {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 31).build();
        let mut rng = Prng::seed(32);
        let x = Vector::from_fn(cfg.hidden_dim, |_| rng.normal(0.5, 0.9) as f32);
        (model, x)
    }

    #[test]
    fn oracle_mask_reproduces_dense_output_exactly() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let mut oracle = OraclePredictor::from_model(&model);
        let mask = oracle.predict(0, &x);

        let mut ops = OpCounter::default();
        let sparse = sparse_mlp_forward(mlp, &x, &mask, MlpOptions::default(), &mut ops);
        let dense = mlp.forward(&x);
        for (a, b) in sparse.output.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn dense_mask_reproduces_dense_output() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let mut ops = OpCounter::default();
        let out = dense_mlp_forward(mlp, &x, &mut ops);
        let dense = mlp.forward(&x);
        for (a, b) in out.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        // Dense path computes 3·d·k MACs.
        assert_eq!(ops.macs, 3 * (mlp.hidden_dim() * mlp.mlp_dim()) as u64);
    }

    #[test]
    fn actual_sparsity_only_raises_effective_sparsity() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let predicted = SkipMask::all_dense(mlp.mlp_dim()); // predict nothing
        let mut ops = OpCounter::default();
        let out = sparse_mlp_forward(
            mlp,
            &x,
            &predicted,
            MlpOptions {
                kernel_fusion: false,
                actual_sparsity: true,
            },
            &mut ops,
        );
        assert_eq!(out.predicted_sparsity, 0.0);
        // The calibrated model is ~90% sparse, so actual sparsity must fire.
        assert!(
            out.effective_sparsity > 0.5,
            "effective {}",
            out.effective_sparsity
        );
        // And the result still matches dense exactly (zeros contribute
        // nothing to steps 2–4).
        let dense = mlp.forward(&x);
        for (a, b) in out.output.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn actual_sparsity_reduces_work_at_equal_output() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let predicted = SkipMask::all_dense(mlp.mlp_dim());

        let mut with = OpCounter::default();
        let _ = sparse_mlp_forward(
            mlp,
            &x,
            &predicted,
            MlpOptions {
                kernel_fusion: false,
                actual_sparsity: true,
            },
            &mut with,
        );
        let mut without = OpCounter::default();
        let _ = sparse_mlp_forward(
            mlp,
            &x,
            &predicted,
            MlpOptions {
                kernel_fusion: false,
                actual_sparsity: false,
            },
            &mut without,
        );
        assert!(
            with.macs < without.macs,
            "{} vs {}",
            with.macs,
            without.macs
        );
        assert!(with.weight_bytes_loaded < without.weight_bytes_loaded);
    }

    #[test]
    fn kernel_fusion_reduces_activation_traffic_only() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let mask = SkipMask::from_fn(mlp.mlp_dim(), |r| r % 3 == 0);

        let mut fused = OpCounter::default();
        let out_f = sparse_mlp_forward(
            mlp,
            &x,
            &mask,
            MlpOptions {
                kernel_fusion: true,
                actual_sparsity: false,
            },
            &mut fused,
        );
        let mut unfused = OpCounter::default();
        let out_u = sparse_mlp_forward(
            mlp,
            &x,
            &mask,
            MlpOptions {
                kernel_fusion: false,
                actual_sparsity: false,
            },
            &mut unfused,
        );
        assert_eq!(
            out_f.output, out_u.output,
            "fusion must be numerically neutral"
        );
        assert!(fused.activation_bytes < unfused.activation_bytes);
        assert_eq!(fused.macs, unfused.macs);
        assert_eq!(fused.weight_bytes_loaded, unfused.weight_bytes_loaded);
    }

    #[test]
    fn q8_forward_is_bitwise_equal_to_f32_forward_over_dequantized_weights() {
        // The quantized route's determinism contract, end to end: running
        // the fused INT8 forward is *exactly* running the f32 forward on the
        // dequantized weights — at every thread count.
        use crate::quantized::FusedQuantizedMlp;
        use sparseinfer_tensor::ParallelOptions;

        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let qmlp = FusedQuantizedMlp::quantize(mlp);
        let deq = GatedMlp::new(
            qmlp.w_gate().dequantize(),
            qmlp.w_up().dequantize(),
            qmlp.w_down_t().dequantize(),
            mlp.activation(),
        );
        let predicted = SkipMask::from_fn(mlp.mlp_dim(), |r| r % 3 == 0);

        let mut reference: Option<Vector> = None;
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            let mut ws = Workspace::new();
            let mut eff_q = SkipMask::all_dense(0);
            let mut out_q = Vector::zeros(0);
            let (ps_q, es_q) = sparse_mlp_q8_forward_into(
                &qmlp,
                &x,
                &predicted,
                MlpOptions::default(),
                &pool,
                &mut ws,
                &mut eff_q,
                &mut OpCounter::default(),
                &mut out_q,
            );
            let mut eff_f = SkipMask::all_dense(0);
            let mut out_f = Vector::zeros(0);
            let (ps_f, es_f) = sparse_mlp_forward_into(
                &deq,
                &x,
                &predicted,
                MlpOptions::default(),
                &pool,
                &mut ws,
                &mut eff_f,
                &mut OpCounter::default(),
                &mut out_f,
            );
            assert_eq!(ps_q, ps_f);
            assert_eq!(es_q, es_f, "effective sparsity @ {threads} threads");
            for (i, (a, b)) in out_q.iter().zip(out_f.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "element {i} @ {threads} threads");
            }
            match &reference {
                None => reference = Some(out_q),
                Some(r) => assert_eq!(&out_q, r, "thread identity @ {threads}"),
            }
        }
    }

    #[test]
    fn q8_forward_counts_one_byte_per_weight() {
        use crate::quantized::FusedQuantizedMlp;
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let qmlp = FusedQuantizedMlp::quantize(mlp);
        let mask = SkipMask::from_fn(mlp.mlp_dim(), |r| r % 2 == 0);
        let mut ws = Workspace::new();
        let mut eff = SkipMask::all_dense(0);
        let mut out = Vector::zeros(0);
        let mut ops = OpCounter::default();
        sparse_mlp_q8_forward_into(
            &qmlp,
            &x,
            &mask,
            MlpOptions::default(),
            &ThreadPool::single(),
            &mut ws,
            &mut eff,
            &mut ops,
            &mut out,
        );
        assert_eq!(ops.weight_bytes_loaded, ops.macs, "1 byte per MAC");
    }

    #[test]
    fn false_positive_skips_perturb_but_stay_bounded() {
        // Skipping a truly-active row zeroes its contribution: output should
        // differ from dense, demonstrating why precision matters.
        let (model, x) = setup();
        // Use the last (stabilized) layer, whose row calibration matches the
        // test input's distribution and leaves some rows active.
        let mlp = model.layers()[model.config().n_layers - 1].mlp();
        let z = mlp.gate_preactivations(&x);
        // Find an active row and force-skip it.
        let active_row = (0..mlp.mlp_dim())
            .find(|r| z[*r] > 0.0)
            .expect("some active row");
        let mask = SkipMask::from_fn(mlp.mlp_dim(), |r| r == active_row);
        let mut ops = OpCounter::default();
        let sparse = sparse_mlp_forward(mlp, &x, &mask, MlpOptions::default(), &mut ops);
        let dense = mlp.forward(&x);
        let diff: f32 = sparse
            .output
            .iter()
            .zip(dense.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.0, "skipping an active row must change the output");
    }
}
