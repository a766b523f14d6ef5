//! Inputs and scratch of the batched dense-prefill step
//! ([`Model::prefill_step`](crate::Model::prefill_step)).
//!
//! One step feeds some consecutive prompt positions of each of `B` sessions
//! through the model with **one pass over the weights**. Its unit is the
//! *column*: one prompt position of one session, columns ordered
//! session-major (a session's positions next to each other, ascending).
//! Every projection is a
//! [`gemm_rows_into`](sparseinfer_tensor::gemv::gemm_rows_into) over all
//! the columns, and only RoPE, the KV push and the attention over a
//! session's own cache run per column. Two layouts recur:
//!
//! * **per column** — `[c][n]`, column `c`'s vector contiguous: what the
//!   norms, RoPE, attention and the kernels' *inputs* want;
//! * **per row** — `[row][c]`, as the kernels leave their *output* (a
//!   weight row's results for every column together, so rows partition
//!   across a pool with one writer per element).
//!
//! Every buffer is resized in place each step, so after the first step at
//! a given column count and context the step allocates nothing.

use sparseinfer_tensor::Vector;

/// Prompt positions a session absorbs per prefill step when nothing waits
/// on the step (see [`Model::prefill_session`](crate::Model::prefill_session)
/// and the scheduler's cadence rule): one full column group of the GEMM
/// kernels, so a lone session's weight pass is as dense as four slots'.
pub const PREFILL_CHUNK: usize = sparseinfer_tensor::gemv::COLUMN_GROUP;

/// The consecutive prompt tokens one session absorbs in one
/// [`Model::prefill_step`](crate::Model::prefill_step): a single `u32`, a
/// borrowed `&[u32]`, or an owned [`PromptChunk`].
pub trait PromptTokens: Sync {
    /// The tokens, in prompt order.
    fn tokens(&self) -> &[u32];
}

impl PromptTokens for u32 {
    fn tokens(&self) -> &[u32] {
        std::slice::from_ref(self)
    }
}

impl PromptTokens for &[u32] {
    fn tokens(&self) -> &[u32] {
        self
    }
}

/// Up to [`PREFILL_CHUNK`] prompt tokens held inline — what a caller that
/// gathers steps into a recycled `Vec` (the scheduler) stores per session,
/// borrowing nothing and allocating nothing.
#[derive(Debug, Clone, Copy)]
pub struct PromptChunk {
    tokens: [u32; PREFILL_CHUNK],
    len: usize,
}

impl PromptChunk {
    /// Copies `tokens`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`PREFILL_CHUNK`].
    pub fn new(tokens: &[u32]) -> Self {
        let mut chunk = Self {
            tokens: [0; PREFILL_CHUNK],
            len: tokens.len(),
        };
        chunk.tokens[..tokens.len()].copy_from_slice(tokens);
        chunk
    }
}

impl PromptTokens for PromptChunk {
    fn tokens(&self) -> &[u32] {
        &self.tokens[..self.len]
    }
}

/// Recycled buffers of [`Model::prefill_step`](crate::Model::prefill_step).
/// Owned by whoever drives prefill — the scheduler keeps one for all its
/// slots — and reusable across models and batch sizes.
#[derive(Debug, Default)]
pub struct PrefillScratch {
    /// The residual stream, per column (`[c][d]`).
    pub(crate) h: Vector,
    /// Input of the projection about to run, per column (`[c][d]`): the
    /// normed residual, then the attention output.
    pub(crate) x: Vector,
    /// Output of the latest projection, per row.
    pub(crate) proj: Vector,
    /// Queries, keys and values, per column (`[c][d]`).
    pub(crate) q: Vector,
    pub(crate) k: Vector,
    pub(crate) v: Vector,
    /// Per column: the attention output (`d`) followed by that column's
    /// score scratch, one stretch per head — one row of a pool dispatch.
    pub(crate) lanes: Vector,
    /// Per column: `sin` then `cos` of its position's `head_dim / 2`
    /// rotation angles.
    pub(crate) rope: Vector,
    /// Per column: its session's index in the batch, and the context it
    /// attends over (the cache length once its own position is pushed).
    pub(crate) columns: Vec<(usize, usize)>,
    /// Post-activation gate values, per row (`[k][c]`).
    pub(crate) gate: Vector,
    /// Per MLP row: whether any column's gate value is non-zero.
    pub(crate) keep: Vec<bool>,
    /// Column-range accumulators of the down projection.
    pub(crate) down_tmp: Vector,
    /// The MLP output, per column (`[c][d]`).
    pub(crate) mlp_out: Vector,
}

impl PrefillScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Rewrites a per-row kernel output (`[row][c]`) per column (`[c][row]`).
pub(crate) fn per_column(per_row: &[f32], columns: usize, out: &mut Vector) {
    let rows = per_row.len() / columns;
    out.resize(per_row.len(), 0.0);
    for (c, column) in out.as_mut_slice().chunks_exact_mut(rows).enumerate() {
        for (slot, row) in column.iter_mut().zip(per_row.chunks_exact(columns)) {
            *slot = row[c];
        }
    }
}
