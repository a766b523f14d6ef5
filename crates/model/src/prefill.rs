//! Inputs, caller hook and scratch of the forward step
//! ([`Model::step`](crate::Model::step)).
//!
//! A step's unit is the *column*: one position of one session, columns
//! ordered session-major (a session's positions side by side, ascending).
//! Every projection is one
//! [`gemm_rows_into`](sparseinfer_tensor::gemv::gemm_rows_into) over all
//! the columns; RoPE, the KV push and attention run per column. Buffers
//! hold either **per column** (`[c][n]`: norms, RoPE, attention, the
//! kernels' inputs) or **per row** (`[row][c]`: the GEMM's output, so rows
//! partition across a pool with one writer per element). Every buffer is
//! resized in place, so after a step at a given column count and context
//! the step allocates nothing.

use sparseinfer_tensor::{ThreadPool, Vector};

use crate::mlp::{gated_mlp_into, GatedMlp, MlpBuffers};

/// Prompt positions a session absorbs per prefill step when nothing waits
/// on the step (see [`Model::prefill`](crate::Model::prefill)
/// and the scheduler's cadence rule): one full column group of the GEMM
/// kernels, so a lone session's weight pass is as dense as four slots'.
pub const PREFILL_CHUNK: usize = sparseinfer_tensor::gemv::COLUMN_GROUP;

/// The consecutive tokens one session feeds in one
/// [`Model::step`](crate::Model::step): a single `u32`, a borrowed
/// `&[u32]`, or an owned [`PromptChunk`].
pub trait PromptTokens: Sync {
    /// The tokens, in order.
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

/// A caller's MLP stage in a [`Model::step`](crate::Model::step): per layer,
/// given the layer's own block and every column's normed input, it runs
/// [`gated_mlp_into`] — over that block or another storage of it, each
/// column under the rows it decides from the column's input. The default,
/// and `()`, keeps every row: dense prefill.
pub trait MlpHook {
    /// Layer `layer`'s MLP over the inputs `xs` (`[c][d]`) into `out`.
    fn mlp(
        &mut self,
        layer: usize,
        mlp: &GatedMlp,
        xs: &[f32],
        pool: &ThreadPool,
        out: &mut MlpBuffers,
    ) {
        let _ = layer;
        gated_mlp_into(mlp, xs, |_, _| 0, |_| true, pool, out);
    }
}

impl MlpHook for () {}

/// Recycled buffers of [`Model::step`](crate::Model::step), reusable across
/// models and column counts: an engine owns one, the scheduler one for all
/// its slots.
#[derive(Debug, Default)]
pub struct PrefillScratch {
    /// The residual stream, per column (`[c][d]`).
    pub(crate) h: Vector,
    /// Input of the projection about to run, per column (`[c][d]`).
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
    /// The MLP stage's buffers; its output is per column (`[c][d]`).
    pub(crate) mlp: MlpBuffers,
}

impl PrefillScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes the buffers hold (capacity, not length).
    pub fn memory_bytes(&self) -> u64 {
        let buffers = [
            &self.h,
            &self.x,
            &self.proj,
            &self.q,
            &self.k,
            &self.v,
            &self.lanes,
            &self.rope,
        ];
        let vectors: u64 = buffers.iter().map(|b| b.capacity() as u64 * 4).sum();
        vectors + self.mlp.memory_bytes()
    }
}

/// Rewrites a per-row kernel output (`[row][c]`) per column (`[c][row]`).
pub(crate) fn per_column(per_row: &[f32], columns: usize, out: &mut Vector) {
    if columns == 1 {
        return out.copy_from(per_row);
    }
    let rows = per_row.len() / columns;
    out.resize(per_row.len(), 0.0);
    for (c, column) in out.as_mut_slice().chunks_exact_mut(rows).enumerate() {
        for (slot, row) in column.iter_mut().zip(per_row.chunks_exact(columns)) {
            *slot = row[c];
        }
    }
}
