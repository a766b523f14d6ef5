//! The gate-based MLP block (paper §III).
//!
//! `MLP(X) = (σ(X·W_gate) ⊙ (X·W_up)) · W_downᵀ` with the four steps the
//! paper enumerates: gate computation, input processing, gate application and
//! output generation. Weight layout follows the paper's skip-friendly
//! convention: `W_gate` and `W_up` are stored `k×d` (one output element per
//! row), and `W_down` is stored transposed (`k×d` as well) at load time so
//! output sparsity skips rows (§IV-B4).
//!
//! [`gated_mlp_into`] is the one executor every forward step runs, over any
//! weight storage ([`MlpWeights`]) and at any number of inputs, each under
//! its own skip words: prefill keeps every row, a sparse engine's decode and
//! verify columns keep their predicted ones. [`GatedMlp::forward`] is the
//! one-input `f32` form the executor's tests compare against.

use sparseinfer_tensor::gemv::{
    gemm_rows_into, gemm_transposed_rows_into, gemv, gemv_transposed, Rows,
};
use sparseinfer_tensor::{Matrix, ThreadPool, Vector, WeightRows};

use crate::activation::Activation;

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
        (&self.w_gate, &self.w_up, &self.w_down_t, self.activation)
    }
}

/// Steps 1–4 of §III for the inputs `xs` (back to back, `[b][d]`), gate
/// before up as §IV argues, one pass over each weight matrix's loaded rows,
/// input `b` dropping row `r` when bit `r % 64` of its skip word
/// `skips(b, r / 64)` is set (a skip mask's words; `|_, _| 0` keeps every
/// row) and taking the paper's actual sparsity when `actual_sparsity(b)`.
/// Beside the `k / 64` skip words of each input, the work is in proportion
/// to the kept rows: every step below touches only the rows of one list,
/// `kept`, and a row no input keeps costs nothing. The buffers of `bufs`
/// are resized in place and leave:
///
/// 1. `kept` — the rows some input keeps, ascending, read off the union of
///    the inputs' words by trailing zeros (every row kept: `0..k`); then
///    `gate` (`[n][b]`, entry `i` for row `kept[i]`) — `h1`:
///    [`gemm_rows_into`] over the list, `+0.0` where an input drops the
///    row (what a one-input call leaves), then the activation — zero at
///    zero for every [`Activation`] (the paper's approximation for the
///    ReLU family).
/// 2. Actual sparsity (§IV): the list drops a row, and `gate` its entries,
///    when every input keeping it takes actual sparsity and has a zero
///    `h1` there. A row out of the final list has a zero `h1` for every
///    input.
/// 3. `h3` (`[n][b]`, as `gate`) — the up projection over the list, times
///    `h1`.
/// 4. `out` (per input, `[b][d]`) — [`gemm_transposed_rows_into`] over the
///    list, which when some input takes actual sparsity also skips zero
///    `h3` entries.
///
/// Each input's output is bitwise its own one-input call, and actual
/// sparsity moves no bit: where the list holds a row that an input drops,
/// or whose `h1` is zero for it, that input's `h3` is `±0` (a zero `h1`
/// times a finite `h2`), and adding `w · (±0)` to the down projection's
/// accumulators, which start at `+0.0`, never changes a bit. With every
/// row kept it is bitwise [`GatedMlp::forward`].
///
/// # Panics
///
/// Panics if `xs` is not a whole number of `d`-wide inputs.
pub fn gated_mlp_into<M: MlpWeights>(
    mlp: &M,
    xs: &[f32],
    skips: impl Fn(usize, usize) -> u64,
    actual_sparsity: impl Fn(usize) -> bool,
    pool: &ThreadPool,
    bufs: &mut MlpBuffers,
) {
    let (w_gate, w_up, w_down_t, activation) = mlp.parts();
    let (k, batch) = (w_gate.rows(), xs.len() / w_gate.cols());
    let any_actual = (0..batch).any(&actual_sparsity);
    debug_assert!(
        !any_actual || xs.iter().all(|v| v.is_finite()),
        "mlp input must be finite for the zero-gate row skip to be exact"
    );
    let MlpBuffers {
        kept,
        gate,
        h3,
        out,
    } = bufs;
    let dropped = |b: usize, r: u32| (skips(b, r as usize / 64) >> (r % 64)) & 1 == 1;
    // Room for every row once, so that no later call allocates.
    kept.clear();
    kept.reserve(k);
    gate.reserve_len(k * batch);
    h3.reserve_len(k * batch);
    for word in 0..k.div_ceil(64) {
        let valid = u64::MAX >> (64 * (word + 1)).saturating_sub(k);
        let mut rows = (0..batch).fold(0, |union, b| union | !skips(b, word)) & valid;
        while rows != 0 {
            kept.push(64 * word as u32 + rows.trailing_zeros());
            rows &= rows - 1;
        }
    }
    gemm_rows_into(w_gate, xs, batch, Rows::Kept(kept), pool, gate);
    // An input that drops a row others load gets the `+0.0` its own call
    // would leave there.
    if batch > 1 {
        for (&r, h1) in kept.iter().zip(gate.as_mut_slice().chunks_exact_mut(batch)) {
            for (b, g) in h1.iter_mut().enumerate() {
                if dropped(b, r) {
                    *g = 0.0;
                }
            }
        }
    }
    activation.apply_slice(gate.as_mut_slice());
    if any_actual {
        let mut n = 0;
        for i in 0..kept.len() {
            let r = kept[i];
            let h1 = &gate.as_slice()[i * batch..][..batch];
            // An input dropping the row has a zero `h1` there already.
            let idle = |(b, v): (usize, &f32)| *v == 0.0 && (actual_sparsity(b) || dropped(b, r));
            if !h1.iter().enumerate().all(idle) {
                kept[n] = r;
                gate.as_mut_slice()
                    .copy_within(i * batch..(i + 1) * batch, n * batch);
                n += 1;
            }
        }
        kept.truncate(n);
        gate.truncate(n * batch);
    }
    gemm_rows_into(w_up, xs, batch, Rows::Kept(kept), pool, h3);
    for (h, g) in h3.as_mut_slice().iter_mut().zip(gate.as_slice()) {
        *h *= g;
    }
    let rows = Rows::Kept(kept);
    gemm_transposed_rows_into(w_down_t, rows, h3.as_slice(), batch, any_actual, pool, out);
}

/// The buffers of [`gated_mlp_into`], recycled across calls.
#[derive(Debug, Default)]
pub struct MlpBuffers {
    /// The rows the up and down projections load, ascending.
    pub kept: Vec<u32>,
    /// Post-activation gate values of the `kept` rows (`[n][b]`).
    pub gate: Vector,
    /// Up projection times the gate, of the `kept` rows (`[n][b]`).
    pub h3: Vector,
    /// The output, per input (`[b][d]`).
    pub out: Vector,
}

impl MlpBuffers {
    /// Heap bytes the buffers hold (capacity, not length).
    pub fn memory_bytes(&self) -> u64 {
        let buffers = [&self.gate, &self.h3, &self.out];
        let floats: usize = buffers.iter().map(|b| b.capacity()).sum();
        (floats + self.kept.capacity()) as u64 * 4
    }
}

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

    /// Dense reference forward pass (steps 1–4 of §III), one input, every
    /// row kept.
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
        let mut h1 = mlp.gate_preactivations(&x);
        Activation::Relu.apply_slice(h1.as_mut_slice());
        // Zero-mean random weights give ~50% sparsity.
        let s = h1.sparsity();
        assert!(s > 0.25 && s < 0.75, "sparsity {s}");
    }

    #[test]
    fn silu_mlp_has_negligible_sparsity() {
        let mlp = random_mlp(5, 64, 32, Activation::Silu);
        let mut rng = Prng::seed(6);
        let x = Vector::from_fn(32, |_| rng.normal(0.0, 1.0) as f32);
        let mut h1 = mlp.gate_preactivations(&x);
        Activation::Silu.apply_slice(h1.as_mut_slice());
        assert!(h1.sparsity() < 0.05);
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
    fn buffers_count_the_kept_row_list() {
        // After a call the buffers hold room for every row's list entry,
        // and their byte count includes it.
        let mlp = random_mlp(10, 100, 16, Activation::Relu);
        let mut bufs = MlpBuffers::default();
        let skips = |_, word: usize| if word == 0 { u64::MAX } else { 0 };
        gated_mlp_into(
            &mlp,
            &[0.5; 16],
            skips,
            |_| false,
            &ThreadPool::single(),
            &mut bufs,
        );
        assert_eq!(bufs.kept, (64..100).collect::<Vec<u32>>());
        assert!(bufs.kept.capacity() >= 100);
        let floats = bufs.gate.capacity() + bufs.h3.capacity() + bufs.out.capacity();
        let list = bufs.kept.capacity();
        assert_eq!(bufs.memory_bytes(), (floats + list) as u64 * 4);
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
