//! Scratch of the batched dense-prefill step
//! ([`Model::prefill_step`](crate::Model::prefill_step)).
//!
//! One step feeds one prompt position of each of `B` sessions through the
//! model with **one pass over the weights**: every projection is a
//! [`gemm_rows_into`](sparseinfer_tensor::gemv::gemm_rows_into) over the
//! `B` activation columns, and only RoPE, the KV push and the attention
//! over each session's own cache run per session. Two layouts recur:
//!
//! * **per session** — `[b][n]`, session `b`'s vector contiguous: what the
//!   norms, RoPE, attention and the kernels' *inputs* want;
//! * **per row** — `[row][b]`, as the kernels leave their *output* (a
//!   weight row's `B` results together, so rows partition across a pool
//!   with one writer per element).
//!
//! Every buffer is resized in place each step, so after the first step at
//! a given batch size and context the step allocates nothing.

use sparseinfer_tensor::Vector;

/// Recycled buffers of [`Model::prefill_step`](crate::Model::prefill_step).
/// Owned by whoever drives prefill — the scheduler keeps one for all its
/// slots — and reusable across models and batch sizes.
#[derive(Debug, Default)]
pub struct PrefillScratch {
    /// The residual stream, per session (`[b][d]`).
    pub(crate) h: Vector,
    /// Input of the projection about to run, per session (`[b][d]`): the
    /// normed residual, then the attention output.
    pub(crate) x: Vector,
    /// Output of the latest projection, per row.
    pub(crate) proj: Vector,
    /// Queries, keys and values, per session (`[b][d]`).
    pub(crate) q: Vector,
    pub(crate) k: Vector,
    pub(crate) v: Vector,
    /// Per session: the attention output (`d`) followed by that session's
    /// score scratch — one row of a pool dispatch.
    pub(crate) lanes: Vector,
    /// Per session: `sin` then `cos` of its position's `head_dim / 2`
    /// rotation angles.
    pub(crate) rope: Vector,
    /// Post-activation gate values, per row (`[k][b]`).
    pub(crate) gate: Vector,
    /// Per MLP row: whether any session's gate value is non-zero.
    pub(crate) keep: Vec<bool>,
    /// Column-range accumulators of the down projection.
    pub(crate) down_tmp: Vector,
    /// The MLP output, per session (`[b][d]`).
    pub(crate) mlp_out: Vector,
}

impl PrefillScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Rewrites a per-row kernel output (`[row][b]`) per session (`[b][row]`).
pub(crate) fn per_session(per_row: &[f32], batch: usize, out: &mut Vector) {
    let rows = per_row.len() / batch;
    out.resize(per_row.len(), 0.0);
    for (b, session) in out.as_mut_slice().chunks_exact_mut(rows).enumerate() {
        for (slot, row) in session.iter_mut().zip(per_row.chunks_exact(batch)) {
            *slot = row[b];
        }
    }
}
