//! The gate-based MLP block (paper §III).
//!
//! `MLP(X) = (σ(X·W_gate) ⊙ (X·W_up)) · W_downᵀ` with the four steps the
//! paper enumerates: gate computation, input processing, gate application and
//! output generation. This module holds the *dense* reference implementation
//! plus accessors the predictor and sparse engine build on. Weight layout
//! follows the paper's skip-friendly convention: `W_gate` and `W_up` are
//! stored `k×d` (one output element per row), and `W_down` is stored
//! transposed (`k×d` as well) at load time so output sparsity skips rows
//! (§IV-B4).

use sparseinfer_tensor::gemv::{gemm_rows_into, gemv, gemv_transposed, gemv_transposed_batch_into};
use sparseinfer_tensor::{Matrix, ThreadPool, Vector};

use crate::activation::Activation;
use crate::prefill::PrefillScratch;

/// One gated MLP block with skip-friendly weight layout.
///
/// # Example
///
/// ```
/// use sparseinfer_model::{GatedMlp, Activation};
/// use sparseinfer_tensor::{Matrix, Vector};
///
/// let mlp = GatedMlp::new(
///     Matrix::zeros(6, 4), // W_gate, k×d
///     Matrix::zeros(6, 4), // W_up, k×d
///     Matrix::zeros(6, 4), // W_down already transposed, k×d
///     Activation::Relu,
/// );
/// let y = mlp.forward(&Vector::zeros(4));
/// assert_eq!(y.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GatedMlp {
    w_gate: Matrix,
    w_up: Matrix,
    /// `W_down` stored transposed: row `i` holds the contribution weights of
    /// intermediate element `i` to the `d` outputs.
    w_down_t: Matrix,
    activation: Activation,
}

impl GatedMlp {
    /// Builds a block from weights already in skip-friendly layout
    /// (`w_gate`, `w_up`, `w_down_t` all `k×d`).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn new(w_gate: Matrix, w_up: Matrix, w_down_t: Matrix, activation: Activation) -> Self {
        assert_eq!(w_gate.rows(), w_up.rows(), "gate/up row mismatch");
        assert_eq!(w_gate.cols(), w_up.cols(), "gate/up col mismatch");
        assert_eq!(w_gate.rows(), w_down_t.rows(), "gate/down row mismatch");
        assert_eq!(w_gate.cols(), w_down_t.cols(), "gate/down col mismatch");
        Self {
            w_gate,
            w_up,
            w_down_t,
            activation,
        }
    }

    /// Builds a block from a `d×k` down-projection, transposing it at load
    /// time exactly as the paper's model loader does.
    pub fn with_untransposed_down(
        w_gate: Matrix,
        w_up: Matrix,
        w_down: Matrix,
        activation: Activation,
    ) -> Self {
        Self::new(w_gate, w_up, w_down.transposed(), activation)
    }

    /// Model dimension `d`.
    pub fn hidden_dim(&self) -> usize {
        self.w_gate.cols()
    }

    /// Intermediate dimension `k`.
    pub fn mlp_dim(&self) -> usize {
        self.w_gate.rows()
    }

    /// The gate projection matrix (`k×d`).
    pub fn w_gate(&self) -> &Matrix {
        &self.w_gate
    }

    /// The up projection matrix (`k×d`).
    pub fn w_up(&self) -> &Matrix {
        &self.w_up
    }

    /// The transposed down projection (`k×d`).
    pub fn w_down_t(&self) -> &Matrix {
        &self.w_down_t
    }

    /// The activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Replaces the activation (used by the ReLUfication demo).
    pub fn set_activation(&mut self, activation: Activation) {
        self.activation = activation;
    }

    /// Gate pre-activations `X · W_gate` (length `k`) — the vector whose
    /// signs the SparseInfer predictor approximates.
    pub fn gate_preactivations(&self, x: &Vector) -> Vector {
        gemv(&self.w_gate, x)
    }

    /// Dense reference forward pass (steps 1–4 of §III).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.hidden_dim()`.
    pub fn forward(&self, x: &Vector) -> Vector {
        let mut h1 = gemv(&self.w_gate, x); // step 1: gate computation
        self.activation.apply_slice(h1.as_mut_slice());
        let h2 = gemv(&self.w_up, x); // step 2: input processing
        let h3 = h1.hadamard(&h2).expect("h1/h2 same length"); // step 3
        gemv_transposed(&self.w_down_t, &h3) // step 4: output generation
    }

    /// Forward pass that also returns the intermediate `h1` (post-activation
    /// gate values), used by trace capture and the oracle predictor.
    pub fn forward_with_gate(&self, x: &Vector) -> (Vector, Vector) {
        let mut h1 = gemv(&self.w_gate, x);
        self.activation.apply_slice(h1.as_mut_slice());
        let h2 = gemv(&self.w_up, x);
        let h3 = h1.hadamard(&h2).expect("h1/h2 same length");
        (gemv_transposed(&self.w_down_t, &h3), h1)
    }

    /// The MLP block of one batched prefill step (see
    /// [`Model::prefill_step`](crate::Model::prefill_step)): reads the
    /// normed inputs from `scratch.x` (one per column) and leaves each
    /// column's output in `scratch.mlp_out` — bitwise
    /// [`forward`](Self::forward) of each input, from one pass over the
    /// weights.
    ///
    /// Only the gate projection is dense. The up projection runs for the
    /// rows where *some* column's post-activation gate is non-zero — the
    /// paper's *actual sparsity*, and exact: a zero `h1` makes `h3 = h1·h2`
    /// a zero of either sign whatever the (finite) `h2`, and the
    /// row-ascending down accumulation skips a zero `h3` just as
    /// [`gemv_transposed`] does. The one assumption — a skipped `h2` would
    /// have been finite — holds for finite inputs and is asserted on them
    /// in debug builds.
    pub(crate) fn prefill_batch(&self, pool: &ThreadPool, scratch: &mut PrefillScratch) {
        let k = self.mlp_dim();
        let b = scratch.x.len() / self.hidden_dim();
        debug_assert!(
            scratch.x.iter().all(|v| v.is_finite()),
            "mlp input must be finite for the zero-gate row skip to be exact"
        );
        let x = scratch.x.as_slice();
        gemm_rows_into(&self.w_gate, x, b, |_| true, pool, &mut scratch.gate);
        self.activation.apply_slice(scratch.gate.as_mut_slice());
        scratch.keep.clear();
        scratch.keep.extend(
            scratch
                .gate
                .as_slice()
                .chunks_exact(b)
                .map(|row| row.iter().any(|h1| *h1 != 0.0)),
        );
        debug_assert_eq!(scratch.keep.len(), k);
        gemm_rows_into(
            &self.w_up,
            x,
            b,
            |r| scratch.keep[r],
            pool,
            &mut scratch.proj,
        );
        for (h2, h1) in scratch
            .proj
            .as_mut_slice()
            .iter_mut()
            .zip(scratch.gate.iter())
        {
            *h2 *= h1;
        }
        gemv_transposed_batch_into(
            &self.w_down_t,
            scratch.proj.as_slice(),
            b,
            pool,
            &mut scratch.down_tmp,
            &mut scratch.mlp_out,
        );
    }

    /// Measured activation sparsity of the block for input `x` (fraction of
    /// exact zeros in `h1`).
    pub fn activation_sparsity(&self, x: &Vector) -> f64 {
        let (_, h1) = self.forward_with_gate(x);
        h1.sparsity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer_tensor::Prng;

    fn random_mlp(seed: u64, k: usize, d: usize, activation: Activation) -> GatedMlp {
        let mut rng = Prng::seed(seed);
        let m = |rng: &mut Prng| Matrix::from_fn(k, d, |_, _| rng.normal(0.0, 0.3) as f32);
        GatedMlp::new(m(&mut rng), m(&mut rng), m(&mut rng), activation)
    }

    #[test]
    fn forward_matches_manual_composition() {
        let mlp = random_mlp(1, 12, 8, Activation::Relu);
        let mut rng = Prng::seed(2);
        let x = Vector::from_fn(8, |_| rng.normal(0.0, 1.0) as f32);

        let z = mlp.gate_preactivations(&x);
        let mut h1 = z.clone();
        Activation::Relu.apply_slice(h1.as_mut_slice());
        let h2 = gemv(mlp.w_up(), &x);
        let h3 = h1.hadamard(&h2).unwrap();
        let expected = gemv_transposed(mlp.w_down_t(), &h3);

        let actual = mlp.forward(&x);
        for (a, b) in actual.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn relu_mlp_has_exact_zero_gates() {
        let mlp = random_mlp(3, 64, 32, Activation::Relu);
        let mut rng = Prng::seed(4);
        let x = Vector::from_fn(32, |_| rng.normal(0.0, 1.0) as f32);
        let (_, h1) = mlp.forward_with_gate(&x);
        // Zero-mean random weights give ~50% sparsity.
        let s = h1.sparsity();
        assert!(s > 0.25 && s < 0.75, "sparsity {s}");
    }

    #[test]
    fn silu_mlp_has_negligible_sparsity() {
        let mlp = random_mlp(5, 64, 32, Activation::Silu);
        let mut rng = Prng::seed(6);
        let x = Vector::from_fn(32, |_| rng.normal(0.0, 1.0) as f32);
        assert!(mlp.activation_sparsity(&x) < 0.05);
    }

    #[test]
    fn relufication_changes_only_activation() {
        let mut mlp = random_mlp(7, 16, 8, Activation::Silu);
        let x = Vector::from_fn(8, |i| (i as f32 - 3.5) / 2.0);
        let silu_out = mlp.forward(&x);
        mlp.set_activation(mlp.activation().relufy());
        assert_eq!(mlp.activation(), Activation::Relu);
        let relu_out = mlp.forward(&x);
        // Outputs differ but dimensions agree.
        assert_eq!(silu_out.len(), relu_out.len());
    }

    #[test]
    fn untransposed_constructor_matches_transposed() {
        let mut rng = Prng::seed(9);
        let k = 10;
        let d = 6;
        let w_gate = Matrix::from_fn(k, d, |_, _| rng.normal(0.0, 1.0) as f32);
        let w_up = Matrix::from_fn(k, d, |_, _| rng.normal(0.0, 1.0) as f32);
        let w_down = Matrix::from_fn(d, k, |_, _| rng.normal(0.0, 1.0) as f32);
        let a = GatedMlp::with_untransposed_down(
            w_gate.clone(),
            w_up.clone(),
            w_down.clone(),
            Activation::Relu,
        );
        let b = GatedMlp::new(w_gate, w_up, w_down.transposed(), Activation::Relu);
        let x = Vector::from_fn(d, |i| i as f32 * 0.1 - 0.2);
        for (u, v) in a.forward(&x).iter().zip(b.forward(&x).iter()) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn shape_mismatch_panics() {
        let _ = GatedMlp::new(
            Matrix::zeros(4, 2),
            Matrix::zeros(5, 2),
            Matrix::zeros(4, 2),
            Activation::Relu,
        );
    }
}
