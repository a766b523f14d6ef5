//! Matrix–vector and matrix–matrix kernels, dense or row-skipping.
//!
//! During LLM decoding every linear layer degenerates to a GEMV (`y = W·x`
//! with a single-token `x`), which is memory-bandwidth bound: each weight is
//! loaded exactly once per token, and a row the skip mask rejects not at all.
//!
//! # Kernel shape
//!
//! The inner dot product is a *chunked multi-accumulator* loop: eight
//! independent partial sums, combined in a fixed tree at the end. A
//! single-accumulator loop chains every FMA through one register and caps
//! throughput at one add per FP-add latency; eight independent chains break
//! the dependency and let rustc autovectorize. There is **one such loop per
//! storage format** — the `lanes_*` kernels for `f32` rows, the `lanes_q8_*`
//! kernels for block-quantized int8 rows — and every dot product in the
//! workspace, one column ([`dot`], [`dot_q8`]) or many ([`dot_batch`],
//! [`dot_q8_batch`]), is those kernels plus a shared tail and reduction
//! tree. The reduction order is therefore **fixed and shared by every
//! path** — sequential, row-partitioned parallel, dense and sparse, decode
//! and prefill — so all of them produce bit-identical outputs. The
//! pre-optimization scalar forms survive in [`mod@reference`] and the test
//! suite proves exact equivalence of the lane-ordered scalar forms and
//! close agreement of the single-accumulator form.
//!
//! An `f32` build with AVX2 computes those same chains in a **register
//! tile** instead: four weight rows × one or two columns per pass, each
//! (row, column) pair one 8-lane chain `acc = acc + w * x` — separate
//! multiply and add, **no FMA** — and each chain's tree
//! `((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7))` reduced in registers
//! (`extractf128`, `movehl`, `add_ss`: the same IEEE adds of the same
//! operands). A worker takes its rows four at a time at every column
//! count, one from each quarter of them (`kept_rows_by`), and a batch of
//! more than two takes further passes over the four rows while they are
//! in L1. Four row streams in flight set the pace of a pass beyond L2: on
//! one core of a 2-core Intel Xeon VM, 24 688×256 matrices cost 13.1 /
//! 9.2 / 7.4 µs per matrix and position at 2 / 4 / 8 columns against 25.7
//! at one, where two rows × four columns — the same eight chains — cost
//! 16.3 / 10.0 / 7.8 (medians of 3 kernels-bench runs). At one column, four
//! rows' chains overlap the add latency one chain waits on: over 16 runs
//! the tile took a median 0.79× the time of a loop of [`dot`] over the rows
//! of those matrices (856 µs against 1086), and 0.81× on a 512×256 LM head
//! in L2 (16.2 µs against 20.7). The `lanes_*` kernels stay the portable
//! path — no AVX2, or a row that is not whole 8-lane chunks — and int8
//! rows run the `lanes_q8_*` kernels row by row at every batch: a
//! one-column int8 tile (convert, scale and `x` multiplies, add per eight
//! weights) measured no end-to-end gain on the benchmark's `solo_decode`
//! and `open_mixed` workloads over 10 interleaved pairs each. The tests
//! hold every path to the scalar reference bit for bit.
//!
//! On a CPU that reports AVX-512F (detected at run time inside the AVX2
//! module, so a build without AVX2 never reaches it) a pass over four rows
//! of at least four columns runs a 512-bit body of the same chains
//! instead, two per zmm register (rows `2q` and `2q + 1` against one
//! broadcast column chunk), up to eight columns per pass. On one core of
//! a Sapphire Rapids VM it took 0.74-0.79 / 0.87-0.96 of the AVX2 tile's
//! time at 8 / 4 columns, but 0.92-1.05 at 3 and 1.0 at 2, where the AVX2
//! tile keeps the pass (kernels bench, 24 688×256 matrices).
//!
//! Two functions partition a weight matrix across a pool, for B activation
//! columns over a set of its rows ([`Rows`]): [`gemm_rows_into`] (`W · X`,
//! rows split between workers; [`gemv_into`] is its GEMV over every row)
//! and [`gemm_transposed_rows_into`] (`Wᵀ · H`, the MLP's down projection,
//! output columns or whole inputs split). Prefill calls them with B
//! positions, decode with one.
//!
//! # Row lists
//!
//! A sparse MLP loads a few scattered rows of each matrix: under the
//! sign-bit predictor ~56 of `serve_sim`'s 688. The kernels take them as
//! an ascending list of row indices ([`Rows::Kept`]), and their per-row
//! inputs and outputs packed in list order, so their work is in
//! proportion to the listed rows: nothing is tested, zeroed or skipped per
//! row left out. A listed walk asks for the head of the row `LOOKAHEAD`
//! (8) places ahead in its list ([`WeightRows::prefetch`]; a `prefetcht0` per
//! cache line on an AVX2 build, nothing on the portable one): the hardware
//! prefetchers follow a stream through a row, not a jump to the next
//! listed one. [`Rows::All`] — also what a list of every row walks as —
//! is the sequential walk without the hint, which the hardware serves
//! alone: whole-row prefetches there ran a dense decode token ~10 %
//! slower. The int8 down projection reads a row one 32-column scale block
//! at a time ([`WeightRows::SPAN`]), the block's scale out of the loop;
//! reading each element's scale by its column ran it at twice the time.
//!
//! Output-buffer (`*_into`) variants write into caller-provided storage so
//! the decode hot path can recycle buffers through a
//! [`Workspace`](crate::Workspace) instead of allocating per call; the
//! original allocating entry points survive as thin wrappers.

use crate::pool::ThreadPool;
use crate::{Matrix, ShapeError, Vector, WeightRows};

#[cfg(target_feature = "avx2")]
mod avx2;

/// Number of independent accumulators in the unrolled dot product. Eight
/// `f32` lanes fill one AVX2 register; on narrower ISAs the compiler splits
/// the array into two or four vector registers, still breaking the
/// dependency chain.
pub const DOT_LANES: usize = 8;

/// Columns per scale block of the fused int8 kernels ([`dot_q8`] and
/// [`crate::quant::BlockQuantizedMatrix`]): a multiple of [`DOT_LANES`], so
/// a block's eight-lane accumulate never straddles a scale boundary and the
/// lane assignment inside every block matches the f32 kernel's.
pub const QUANT_BLOCK: usize = 32;

/// Minimum weight rows per worker before [`gemm_rows_into`] fans out.
const MIN_ROWS_PER_WORKER: usize = 64;

/// Minimum output columns per worker before [`gemm_transposed_rows_into`]
/// fans out one input.
const MIN_COLS_PER_WORKER: usize = 64;

/// Inputs a [`gemm_transposed_rows_into`] worker accumulates per walk over
/// the kept rows: a prefill step's eight columns (two slots' chunks) in
/// one walk, which streams the weights once.
const TRANSPOSED_GROUP: usize = 8;

/// Minimum multiply-accumulates per worker before a kernel fans out. One
/// batched prefill step makes some ten dispatches per layer, each over a
/// matrix far smaller than a decode GEMV's working set; a parked
/// dispatch costs 16-60 us on the hosts measured, which is 100-500 thousand
/// of these kernels' MACs — below that, splitting a matrix loses (a 2-slot
/// step on 8 layers of 256x688 took 3.3 ms split across two threads, 1.2 ms
/// on one).
pub const MIN_MACS_PER_WORKER: usize = 1 << 19;

/// Activation columns per pass of the portable `lanes_*` kernels and of a
/// lone row through the AVX2 tile (a four-row tile takes two), and the
/// scheduler's column budget per tick: decode columns first, prefill
/// positions in the rest.
pub const COLUMN_GROUP: usize = 4;

/// Chunked multi-accumulator dot product with a fixed reduction order:
/// element `i` accumulates into lane `i % 8`, and the eight lanes combine
/// as `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
///
/// The one-column case of the `lanes_*` kernels every `f32` dot product in
/// the workspace reduces through, which is what makes dense/sparse,
/// sequential/parallel and decode/prefill paths bit-identical.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    let main = a.len() - a.len() % DOT_LANES;
    let [lanes] = lanes_1(&a[..main], b);
    finish(lanes, &a[main..], &b[main..])
}

/// [`dot`] of one weight row against a batch of activation columns in one
/// read of the row: `xs` holds `out.len()` columns of `a.len()` elements
/// back to back, and `out[n]` is **bitwise** `dot(a, column n)` — the same
/// lane assignment (`i % 8`), the same tail handling and the same reduction
/// tree, just an independent accumulator set per column (which also
/// overlaps the add latencies a single set serializes). Columns are reduced
/// four at a time.
///
/// # Panics
///
/// Panics if `xs.len() != out.len() * a.len()`.
pub fn dot_batch(a: &[f32], xs: &[f32], out: &mut [f32]) {
    dot_rows_batch([a], xs, [out]);
}

/// [`dot_batch`] of `R` weight rows against the same columns in one pass:
/// `out[i]` gets bitwise what `dot_batch(rows[i], xs, out[i])` writes, from
/// the AVX2 tile where the build has AVX2 and the rows are whole 8-lane
/// chunks, from the `lanes_*` kernels otherwise. The rows need not be
/// adjacent in their matrix.
///
/// # Panics
///
/// Panics if the rows differ in length or `xs` does not hold `out[i].len()`
/// columns of that length.
// Inlined down to the tile, into the row walk: passed through calls, the
// arrays of slices go through the stack, and 24 688x256 passes at 4 columns
// took 480 us instead of 365.
#[inline]
pub(crate) fn dot_rows_batch<const R: usize>(rows: [&[f32]; R], xs: &[f32], out: [&mut [f32]; R]) {
    let cols = rows[0].len();
    for (a, out) in rows.iter().zip(&out) {
        assert_eq!(a.len(), cols, "dot_batch row length mismatch");
        assert_eq!(xs.len(), out.len() * cols, "dot_batch shape mismatch");
    }
    #[cfg(target_feature = "avx2")]
    if cols.is_multiple_of(DOT_LANES) {
        return avx2::dot_tile(rows, xs, out);
    }
    for (a, out) in rows.into_iter().zip(out) {
        dot_groups_lanes(a, xs, out);
    }
}

/// The portable multi-column path: the `lanes_*` kernels, four columns per
/// pass, each result finished by [`finish`].
fn dot_groups_lanes(a: &[f32], xs: &[f32], out: &mut [f32]) {
    let cols = a.len();
    let main = cols - cols % DOT_LANES;
    let am = &a[..main];
    for (g, group) in out.chunks_mut(COLUMN_GROUP).enumerate() {
        let x = |j: usize| {
            let start = (g * COLUMN_GROUP + j) * cols;
            &xs[start..start + cols]
        };
        let mut acc = [[0.0f32; DOT_LANES]; COLUMN_GROUP];
        match group.len() {
            4 => acc = lanes_4(am, x(0), x(1), x(2), x(3)),
            3 => acc[..3].copy_from_slice(&lanes_3(am, x(0), x(1), x(2))),
            2 => acc[..2].copy_from_slice(&lanes_2(am, x(0), x(1))),
            _ => acc[..1].copy_from_slice(&lanes_1(am, x(0))),
        }
        for (j, (slot, lanes)) in group.iter_mut().zip(acc).enumerate() {
            *slot = finish(lanes, &a[main..], &x(j)[main..]);
        }
    }
}

/// What every `f32` dot product does after its `lanes_*` kernel: the
/// `len % 8` tail elements accumulate into lanes `0..`, then the fixed
/// reduction tree.
#[inline]
fn finish(mut lanes: [f32; DOT_LANES], a_tail: &[f32], x_tail: &[f32]) -> f32 {
    for (l, (ai, xi)) in a_tail.iter().zip(x_tail).enumerate() {
        lanes[l] += ai * xi;
    }
    reduce_lanes(lanes)
}

/// Defines the `f32` accumulation loop — the only one — for a fixed number
/// of columns: one named 8-lane accumulator set per column over the whole
/// 8-element chunks of `a`, returned unreduced.
// The shape is measured, not incidental (688x256 weights beyond L2, time
// per position): with one named array per column, out of line, and neither
// tail nor reduction tree in sight, every set stays one vector register —
// 35 / 22 / 17 / 15 us at 1 / 2 / 3 / 4 columns. Generic over the column
// count (an array of accumulators indexed in a loop LLVM may not unroll),
// or inlined next to the tail and the tree (LLVM regroups lanes by what
// happens to them later — the single-column loop `dot` once had took 50),
// the same arithmetic ran scalar for some counts, 40-140 us — which counts
// changed with the calling context. An AVX2 GEMV runs the one-column tile
// instead: 0.79x the time of this loop row by row on the 24 matrices
// (median of 16 kernels-bench runs, 856 us against 1086).
macro_rules! lanes_fn {
    ($name:ident, $n:literal: $($acc:ident $x:ident),+) => {
        #[inline(never)]
        fn $name(a: &[f32], $($x: &[f32]),+) -> [[f32; DOT_LANES]; $n] {
            $(let mut $acc = [0.0f32; DOT_LANES];)+
            for (c, ca) in a.chunks_exact(DOT_LANES).enumerate() {
                let at = c * DOT_LANES;
                $(
                    let cb = &$x[at..at + DOT_LANES];
                    for l in 0..DOT_LANES {
                        $acc[l] += ca[l] * cb[l];
                    }
                )+
            }
            [$($acc),+]
        }
    };
}
lanes_fn!(lanes_1, 1: acc0 x0);
lanes_fn!(lanes_2, 2: acc0 x0, acc1 x1);
lanes_fn!(lanes_3, 3: acc0 x0, acc1 x1, acc2 x2);
lanes_fn!(lanes_4, 4: acc0 x0, acc1 x1, acc2 x2, acc3 x3);

/// The fixed reduction tree every dot product in this module ends in.
#[inline]
fn reduce_lanes(acc: [f32; DOT_LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// Fused block-dequant dot product: int8 weights with one `f32` scale per
/// [`QUANT_BLOCK`] columns, dequantized on the fly — the quantized row is
/// never materialized as `f32` (each block is expanded into a
/// [`QUANT_BLOCK`]-element stack buffer that lives entirely in registers).
///
/// The reduction order is **exactly [`dot`]'s applied to the dequantized
/// row**: element `i` accumulates `(f32(q[i]) * scales[i / QUANT_BLOCK]) *
/// x[i]` into lane `i % 8`, and the eight lanes combine in the same fixed
/// tree. Folding the scale into the dequantize (rather than into each
/// product, or once per block sum) is what lets the compiler hoist one
/// broadcast per block and vectorize the int8→f32 converts. The order is a
/// pure function of the element index, so every caller — sequential or
/// row-partitioned across a [`crate::ThreadPool`] — produces
/// bit-identical results ([`reference::dot_q8_blocks`] is the scalar
/// restatement, asserted bitwise-equal, as is [`dot`] on the pre-dequantized
/// row). The one-column case of the `lanes_q8_*` kernels, as [`dot`] is of
/// the `f32` ones.
///
/// # Panics
///
/// Panics if `q` and `x` differ in length or `scales` does not hold one
/// entry per started block.
#[inline]
pub fn dot_q8(q: &[i8], scales: &[f32], x: &[f32]) -> f32 {
    assert_eq!(q.len(), x.len(), "dot_q8 operand length mismatch");
    assert_eq!(
        scales.len(),
        q.len().div_ceil(QUANT_BLOCK),
        "dot_q8 scale count mismatch"
    );
    let main = q.len() - q.len() % QUANT_BLOCK;
    let [lanes] = lanes_q8_1(&q[..main], &scales[..main / QUANT_BLOCK], x);
    finish_q8(lanes, &q[main..], scales.last(), &x[main..])
}

/// [`dot_q8`] of one int8 weight row against a batch of activation columns
/// (laid out as for [`dot_batch`]) in one read of the row: every scale block
/// is dequantized once per group of four columns, and `out[n]` is
/// **bitwise** the [`dot_q8`] result for column `n`.
///
/// # Panics
///
/// Panics if `xs.len() != out.len() * q.len()` or `scales` does not hold
/// one entry per started block.
pub fn dot_q8_batch(q: &[i8], scales: &[f32], xs: &[f32], out: &mut [f32]) {
    // One column skips the group loop: through it, the kernels bench's
    // one-column int8 GEMV (4096x1024, 90 % of rows kept) took 705 us
    // against 635 through `dot_q8` (medians, one core of a 2-core Xeon VM).
    if let [one] = out {
        *one = dot_q8(q, scales, xs);
        return;
    }
    let cols = q.len();
    assert_eq!(xs.len(), out.len() * cols, "dot_q8_batch shape mismatch");
    assert_eq!(
        scales.len(),
        cols.div_ceil(QUANT_BLOCK),
        "dot_q8_batch scale count mismatch"
    );
    let main = cols - cols % QUANT_BLOCK;
    let (qm, sm) = (&q[..main], &scales[..main / QUANT_BLOCK]);
    for (g, group) in out.chunks_mut(COLUMN_GROUP).enumerate() {
        let x = |j: usize| {
            let start = (g * COLUMN_GROUP + j) * cols;
            &xs[start..start + cols]
        };
        let mut acc = [[0.0f32; DOT_LANES]; COLUMN_GROUP];
        match group.len() {
            4 => acc = lanes_q8_4(qm, sm, x(0), x(1), x(2), x(3)),
            3 => acc[..3].copy_from_slice(&lanes_q8_3(qm, sm, x(0), x(1), x(2))),
            2 => acc[..2].copy_from_slice(&lanes_q8_2(qm, sm, x(0), x(1))),
            _ => acc[..1].copy_from_slice(&lanes_q8_1(qm, sm, x(0))),
        }
        for (j, (slot, lanes)) in group.iter_mut().zip(acc).enumerate() {
            *slot = finish_q8(lanes, &q[main..], scales.last(), &x(j)[main..]);
        }
    }
}

/// [`finish`] for an int8 row: the elements of the last, partial scale
/// block (none when the row is whole blocks; `scale` is that block's)
/// dequantize and accumulate into lane `i % 8`, then the fixed tree.
#[inline]
fn finish_q8(
    mut lanes: [f32; DOT_LANES],
    q_tail: &[i8],
    scale: Option<&f32>,
    x_tail: &[f32],
) -> f32 {
    if let Some(scale) = scale {
        for (i, (qv, xi)) in q_tail.iter().zip(x_tail).enumerate() {
            lanes[i % DOT_LANES] += f32::from(*qv) * scale * xi;
        }
    }
    reduce_lanes(lanes)
}

/// Defines the int8 accumulation loop — the only one — over whole scale
/// blocks for a fixed number of columns: one named accumulator set per
/// column, unreduced, for the reasons given on `lanes_fn` (26 / 18 / 15 /
/// 14 us per position at 1 / 2 / 3 / 4 columns on the same shape).
macro_rules! lanes_q8_fn {
    ($name:ident, $n:literal: $($acc:ident $x:ident),+) => {
        #[inline(never)]
        fn $name(q: &[i8], scales: &[f32], $($x: &[f32]),+) -> [[f32; DOT_LANES]; $n] {
            $(let mut $acc = [0.0f32; DOT_LANES];)+
            for (b, scale) in scales.iter().enumerate() {
                // Fixed-size array views elide the bounds checks that would
                // otherwise defeat autovectorization of the convert loop.
                let span = b * QUANT_BLOCK..(b + 1) * QUANT_BLOCK;
                let qb: &[i8; QUANT_BLOCK] = q[span.clone()].try_into().expect("full block");
                let mut deq = [0.0f32; QUANT_BLOCK];
                for (d, qv) in deq.iter_mut().zip(qb) {
                    *d = f32::from(*qv) * scale;
                }
                $(
                    let xb: &[f32; QUANT_BLOCK] =
                        $x[span.clone()].try_into().expect("full block");
                    for c in 0..QUANT_BLOCK / DOT_LANES {
                        for l in 0..DOT_LANES {
                            $acc[l] += deq[c * DOT_LANES + l] * xb[c * DOT_LANES + l];
                        }
                    }
                )+
            }
            [$($acc),+]
        }
    };
}
lanes_q8_fn!(lanes_q8_1, 1: acc0 x0);
lanes_q8_fn!(lanes_q8_2, 2: acc0 x0, acc1 x1);
lanes_q8_fn!(lanes_q8_3, 3: acc0 x0, acc1 x1, acc2 x2);
lanes_q8_fn!(lanes_q8_4, 4: acc0 x0, acc1 x1, acc2 x2, acc3 x3);

/// Computes `y = W · x` where `W` is `rows × cols` and `x` has `cols`
/// elements.
///
/// # Panics
///
/// Panics if `x.len() != w.cols()`. Model plumbing guarantees shapes; a
/// mismatch is a bug, not a recoverable condition. Use [`try_gemv`] for the
/// checked variant.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::{Matrix, Vector, gemv::gemv};
///
/// let w = Matrix::from_fn(2, 2, |r, c| if r == c { 2.0 } else { 0.0 });
/// let y = gemv(&w, &Vector::from_vec(vec![1.0, 3.0]));
/// assert_eq!(y.as_slice(), &[2.0, 6.0]);
/// ```
pub fn gemv(w: &Matrix, x: &Vector) -> Vector {
    try_gemv(w, x).expect("gemv shape mismatch")
}

/// Checked variant of [`gemv`].
///
/// # Errors
///
/// Returns [`ShapeError::DimensionMismatch`] if `x.len() != w.cols()`.
pub fn try_gemv(w: &Matrix, x: &Vector) -> Result<Vector, ShapeError> {
    if x.len() != w.cols() {
        return Err(ShapeError::DimensionMismatch {
            expected: w.cols(),
            actual: x.len(),
        });
    }
    let mut out = Vector::zeros(0);
    gemv_into(w, x, &ThreadPool::single(), &mut out);
    Ok(out)
}

/// `y = W · x` into a caller-provided buffer: [`gemm_rows_into`] with one
/// activation column over every row. `out` is resized to `w.rows()` (no
/// allocation when its capacity suffices) and every element is
/// overwritten. Bit-identical for every thread count.
///
/// # Panics
///
/// Panics if `x.len() != w.cols()`.
pub fn gemv_into(w: &Matrix, x: &Vector, pool: &ThreadPool, out: &mut Vector) {
    gemm_rows_into(w, x.as_slice(), 1, Rows::All, pool, out);
}

/// Computes `y = Wᵀ · x` without materializing the transpose, i.e.
/// `y[c] = Σ_r W[r][c] · x[r]`.
///
/// This is the access pattern of the down projection *before* the paper's
/// load-time transposition: output elements accumulate across rows, which on
/// a GPU forces `atomicAdd` across warps (§IV-B4). It is the reference
/// of [`gemm_transposed_rows_into`], the down projection the MLP runs.
///
/// # Panics
///
/// Panics if `x.len() != w.rows()`.
pub fn gemv_transposed(w: &Matrix, x: &Vector) -> Vector {
    assert_eq!(x.len(), w.rows(), "gemv_transposed shape mismatch");
    let mut out = vec![0.0f32; w.cols()];
    for (r, row) in w.iter_rows().enumerate() {
        let xr = x[r];
        if xr == 0.0 {
            continue;
        }
        for (c, wi) in row.iter().enumerate() {
            out[c] += wi * xr;
        }
    }
    Vector::from_vec(out)
}

/// The rows a row-partitioned kernel loads.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// Every row of the matrix, in order.
    All,
    /// The listed rows, ascending, each in range. A kernel's per-row
    /// entries are packed in list order: the `i`-th is row `list[i]`'s.
    Kept(&'a [u32]),
}

impl<'a> Rows<'a> {
    /// How many rows of a `rows`-row matrix these are.
    fn count(self, rows: usize) -> usize {
        match self {
            Rows::All => rows,
            Rows::Kept(list) => list.len(),
        }
    }

    /// These rows of a `rows`-row matrix, a list of every row as
    /// [`Rows::All`] (an ascending list of `rows` rows in range is
    /// `0..rows`): its walk is the sequential one, which the hardware
    /// prefetchers serve alone.
    fn of(self, rows: usize) -> Rows<'a> {
        match self {
            Rows::Kept(list) if list.len() == rows => Rows::All,
            listed => listed,
        }
    }
}

/// `Y = W · X` for `batch` activation columns in **one pass over the
/// weights** — the one row-partitioned kernel: prefill calls it with a
/// column per position, decode with a single column. `xs` holds the columns
/// back to back (column `b` at `xs[b * w.cols()..]`). Only the rows of
/// `rows` are loaded; `out` is resized to `batch` entries per loaded row,
/// and the `i`-th loaded row's results land together at `out[i * batch..]`
/// (with [`Rows::All`], row `r`'s at `out[r * batch..]`), so rows partition
/// across `pool` with one writer per element. A worker hands its rows to
/// [`WeightRows::dot_kept_rows`], which loads each row once and reduces it
/// against every column: `f32` rows four at a time through the tile, int8
/// rows one at a time. Every result is the format's fixed-order dot
/// product of its row and column, so it has the same bits at any batch
/// size, thread count and row list.
///
/// A worker gets at least `MIN_ROWS_PER_WORKER` loaded rows and
/// [`MIN_MACS_PER_WORKER`] multiply-accumulates.
///
/// # Panics
///
/// Panics if `xs.len() != batch * w.cols()`.
pub fn gemm_rows_into<W: WeightRows>(
    w: &W,
    xs: &[f32],
    batch: usize,
    rows: Rows<'_>,
    pool: &ThreadPool,
    out: &mut Vector,
) {
    assert_eq!(xs.len(), batch * w.cols(), "gemm activation shape mismatch");
    let rows = rows.of(w.rows());
    out.resize(rows.count(w.rows()) * batch, 0.0);
    if batch == 0 {
        return;
    }
    let min_rows = MIN_ROWS_PER_WORKER.max(MIN_MACS_PER_WORKER.div_ceil(xs.len().max(1)));
    pool.run_rows(out.as_mut_slice(), batch, min_rows, |first, chunk| {
        let share = match rows {
            Rows::All => Rows::All,
            Rows::Kept(list) => Rows::Kept(&list[first..first + chunk.len() / batch]),
        };
        w.dot_kept_rows((first, share), xs, batch, chunk)
    });
}

/// Kept rows per `f32` tile at every column count (see *Kernel shape*).
pub(crate) const COLUMN_ROWS: usize = 4;

/// How many rows of a list ahead of the one being reduced a walk asks the
/// memory system for ([`WeightRows::prefetch`]): a listed row is a jump
/// the hardware prefetchers cannot predict, so without the hint every one
/// starts with a wait on L3 or DRAM.
const LOOKAHEAD: usize = 8;

/// Bytes at the head of a row a prefetch asks for: a whole int8 row of the
/// serving shapes (256 columns), the first quarter of an `f32` one, whose
/// rest the hardware's stream prefetcher fetches once the row is being
/// read. Whole `f32` rows, 16 lines each, ran a `serve_sim` decode token's
/// MLP slower than no prefetch at all.
const PREFETCH_BYTES: usize = 256;

/// One worker's walk of its rows (`(first, rows)`: with [`Rows::All`] the
/// rows `first..`, else the listed ones) into `out`, `batch` results per
/// row in walk order, `R` rows at a time through `tile(rows, outs)`, fewer
/// than `R` left at the end one by one through `one`. The rows are split
/// into `R` equal parts and the `i`-th row of each part goes into one tile,
/// then the rows of the longer parts fill the tiles. `R` ascending walks
/// through `R` parts of the matrix are what the hardware prefetchers
/// follow: tiles of adjacent rows — reads 1 KB apart, in lockstep, through
/// one page — streamed 688x256 weights from DRAM at a third of the speed.
/// At `R = 1` this is the plain walk. A listed walk also calls
/// `prefetch(r)` on each part's row [`LOOKAHEAD`] places ahead (the first
/// ones before it starts); the walk over every row leaves its sequential
/// reads to the hardware.
#[inline]
pub(crate) fn kept_rows_by<const R: usize>(
    (first, rows): (usize, Rows<'_>),
    batch: usize,
    out: &mut [f32],
    tile: impl FnMut([usize; R], [&mut [f32]; R]),
    one: impl FnMut(usize, &mut [f32]),
    prefetch: impl Fn(usize),
) {
    match rows {
        Rows::All => walk(move |i| first + i, batch, out, tile, one, |_| {}),
        Rows::Kept(list) => walk(move |i| list[i] as usize, batch, out, tile, one, prefetch),
    }
}

/// [`kept_rows_by`] over the rows `row(0..)`.
#[inline]
fn walk<const R: usize>(
    row: impl Fn(usize) -> usize,
    batch: usize,
    out: &mut [f32],
    mut tile: impl FnMut([usize; R], [&mut [f32]; R]),
    mut one: impl FnMut(usize, &mut [f32]),
    prefetch: impl Fn(usize),
) {
    let part = (out.len() / batch).div_ceil(R);
    let mut rest = out;
    let mut ends = [0; R];
    let mut parts: [_; R] = std::array::from_fn(|p| {
        let len = (part * batch).min(rest.len());
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        let start = p * part;
        ends[p] = start + len / batch;
        (start..ends[p]).zip(head.chunks_exact_mut(batch))
    });
    for (p, end) in ends.iter().enumerate() {
        (p * part..(*end).min(p * part + LOOKAHEAD)).for_each(|i| prefetch(row(i)));
    }
    loop {
        let mut rows = [0; R];
        let mut outs: [&mut [f32]; R] = std::array::from_fn(|_| Default::default());
        for p in 0..R {
            let next = parts[p].next();
            if let Some((i, _)) = next.as_ref().filter(|(i, _)| i + LOOKAHEAD < ends[p]) {
                prefetch(row(i + LOOKAHEAD));
            }
            let Some((i, out)) = next.or_else(|| parts.iter_mut().find_map(Iterator::next)) else {
                let left = rows.into_iter().zip(outs).take(p);
                return left.for_each(|(r, out)| one(r, out));
            };
            (rows[p], outs[p]) = (row(i), out);
        }
        tile(rows, outs);
    }
}

/// `Y = Wᵀ · H` for `batch` columns of `H` over the rows `rows`: the gated
/// MLP's down projection over its transposed weights (`k × d`, so sparsity
/// skips whole rows; §IV-B4), for a decode token or a prefill step.
///
/// `hs` is laid out as [`gemm_rows_into`] leaves its output over the same
/// rows (the `i`-th row's `batch` entries at `hs[i * batch..]`); `out` is
/// resized to `batch * w.cols()` and holds input `b`'s outputs at
/// `out[b * w.cols()..]`. A row not in `rows` is never loaded. Each result
/// is one chain of additions onto an accumulator starting at `+0.0`,
/// `acc += W[r][c] · h`, over the rows in ascending order, applied four
/// rows per pass over the accumulators; `skip_zeros` leaves a `±0.0` entry
/// out of its input's chain. So every result has the bits of
/// [`gemv_transposed`] of its input with the entries of the rows left out
/// zeroed, at any batch and thread count, with or without `skip_zeros`:
///
/// * no chain depends on the batch or on which worker owns its output;
/// * adding `w · (±0)` (a `±0` for finite `w`) never changes such an
///   accumulator: a nonzero value plus a zero is that value, and
///   `+0 + (±0)` is `+0` — the only zero it can hold, since a sum rounds
///   to `−0` only when both addends are `−0`. Skipping a zero entry and
///   adding it agree, which is all [`gemv_transposed`]'s zero skip and
///   `skip_zeros` change.
///
/// Weights are read through [`WeightRows::row_span`], which dequantizes an
/// int8 element with the scale of its *global* column: int8 gives bitwise
/// the result of its dequantized `f32` matrix, however columns are split.
/// A listed walk prefetches the head of the row `LOOKAHEAD` places ahead.
///
/// Work partitions across `pool` with at least [`MIN_MACS_PER_WORKER`]
/// multiply-accumulates over the loaded rows per worker: one input's
/// output columns (at least `MIN_COLS_PER_WORKER` per worker), or several
/// inputs whole. Every output accumulates in place, a worker walking the
/// rows once per `TRANSPOSED_GROUP` of its inputs.
///
/// # Panics
///
/// Panics if `hs` does not hold `batch` entries per row of `rows`.
pub fn gemm_transposed_rows_into<W: WeightRows>(
    w: &W,
    rows: Rows<'_>,
    hs: &[f32],
    batch: usize,
    skip_zeros: bool,
    pool: &ThreadPool,
    out: &mut Vector,
) {
    let rows = rows.of(w.rows());
    let loaded = rows.count(w.rows());
    assert_eq!(hs.len(), batch * loaded, "transposed gemm shape mismatch");
    let cols = w.cols();
    out.resize(batch * cols, 0.0);
    if batch == 0 || cols == 0 {
        return;
    }
    if batch == 1 {
        let min_cols = MIN_COLS_PER_WORKER.max(MIN_MACS_PER_WORKER.div_ceil(loaded.max(1)));
        return pool.run_rows(out.as_mut_slice(), 1, min_cols, |first, chunk| {
            accumulate_kept_rows(w, first, rows, (hs, 1, 0), skip_zeros, &mut [chunk]);
        });
    }
    let min_inputs = MIN_MACS_PER_WORKER.div_ceil((loaded * cols).max(1));
    pool.run_rows(out.as_mut_slice(), cols, min_inputs, |first, chunk| {
        for (g, outs) in chunk.chunks_mut(TRANSPOSED_GROUP * cols).enumerate() {
            let mut acc: [&mut [f32]; TRANSPOSED_GROUP] = Default::default();
            let n = outs.len() / cols;
            for (a, o) in acc.iter_mut().zip(outs.chunks_exact_mut(cols)) {
                *a = o;
            }
            let group = first + g * TRANSPOSED_GROUP;
            accumulate_kept_rows(w, 0, rows, (hs, batch, group), skip_zeros, &mut acc[..n]);
        }
    });
}

/// One walk of a [`gemm_transposed_rows_into`] worker: for the inputs
/// `group..group + acc.len()` of `hs`, the chains of the output columns
/// from `start`, into one accumulator slice per input.
#[inline]
fn accumulate_kept_rows<W: WeightRows>(
    w: &W,
    start: usize,
    rows: Rows<'_>,
    hs: (&[f32], usize, usize),
    skip_zeros: bool,
    acc: &mut [&mut [f32]],
) {
    let len = acc.first().map_or(0, |a| a.len());
    match rows {
        Rows::All => accumulate(w, (start, |i| i), w.rows(), hs, skip_zeros, acc, |_| {}),
        Rows::Kept(list) => {
            let prefetch = |r| w.prefetch(r, start, len);
            let row = |i: usize| list[i] as usize;
            accumulate(w, (start, row), list.len(), hs, skip_zeros, acc, prefetch);
        }
    }
}

/// [`accumulate_kept_rows`] over the `n` rows `row(0..n)`.
#[inline]
fn accumulate<W: WeightRows>(
    w: &W,
    (start, row): (usize, impl Fn(usize) -> usize),
    n: usize,
    (hs, batch, group): (&[f32], usize, usize),
    skip_zeros: bool,
    acc: &mut [&mut [f32]],
    prefetch: impl Fn(usize),
) {
    // Per activation column, the rows not yet applied.
    let mut pending = [[(0usize, 0.0f32); 4]; TRANSPOSED_GROUP];
    let mut waiting = [0usize; TRANSPOSED_GROUP];
    for a in acc.iter_mut() {
        a.fill(0.0);
    }
    (0..n.min(LOOKAHEAD)).for_each(|i| prefetch(row(i)));
    for i in 0..n {
        if i + LOOKAHEAD < n {
            prefetch(row(i + LOOKAHEAD));
        }
        let r = row(i);
        let entries = &hs[i * batch + group..][..acc.len()];
        for (j, &s) in entries.iter().enumerate() {
            if skip_zeros && s == 0.0 {
                continue;
            }
            pending[j][waiting[j]] = (r, s);
            waiting[j] += 1;
            if waiting[j] == 4 {
                add_rows(w, start, acc[j], &pending[j]);
                waiting[j] = 0;
            }
        }
    }
    for (j, a) in acc.iter_mut().enumerate() {
        add_rows(w, start, a, &pending[j][..waiting[j]]);
    }
}

/// `acc[i] += W[r][start + i] · s` for each `(r, s)` of `rows`, in order,
/// one [`WeightRows::SPAN`] of columns at a time (for int8 a scale block,
/// whose one scale the reader takes out of the loop).
#[inline]
fn add_rows<W: WeightRows>(w: &W, start: usize, acc: &mut [f32], rows: &[(usize, f32)]) {
    let mut rest = acc;
    let mut column = start;
    while !rest.is_empty() {
        let len = rest.len().min(W::SPAN - column % W::SPAN);
        let (span, tail) = std::mem::take(&mut rest).split_at_mut(len);
        add_span(w, column, span, rows);
        (rest, column) = (tail, column + len);
    }
}

/// [`add_rows`] over columns within one span: four rows in one pass over
/// `acc` (each element's additions still one row at a time, so the chain
/// is the row-at-a-time one), fewer one by one.
#[inline]
fn add_span<W: WeightRows>(w: &W, start: usize, acc: &mut [f32], rows: &[(usize, f32)]) {
    let len = acc.len();
    match *rows {
        [(r0, s0), (r1, s1), (r2, s2), (r3, s3)] => {
            let row0 = w.row_span(r0, start, len);
            let row1 = w.row_span(r1, start, len);
            let row2 = w.row_span(r2, start, len);
            let row3 = w.row_span(r3, start, len);
            for (i, o) in acc.iter_mut().enumerate() {
                let mut a = *o;
                a += row0(i) * s0;
                a += row1(i) * s1;
                a += row2(i) * s2;
                a += row3(i) * s3;
                *o = a;
            }
        }
        _ => {
            for &(r, s) in rows {
                let row = w.row_span(r, start, len);
                for (i, o) in acc.iter_mut().enumerate() {
                    *o += row(i) * s;
                }
            }
        }
    }
}

/// Asks the memory system for the first [`PREFETCH_BYTES`] of `data`
/// ahead of their use: a hint, with no effect on any result, and none at
/// all in a build without AVX2.
#[inline]
pub(crate) fn prefetch<T>(data: &[T]) {
    let head = &data[..data.len().min(PREFETCH_BYTES / size_of::<T>())];
    #[cfg(target_feature = "avx2")]
    avx2::prefetch(head);
    #[cfg(not(target_feature = "avx2"))]
    let _ = head;
}

/// Pre-optimization scalar kernels, kept as verification references and as
/// the "before" baseline for the self-timed benchmarks.
///
/// [`reference::dot_lanes`] reproduces the unrolled kernel's exact lane
/// assignment and reduction tree in plain scalar code — the test suite
/// asserts **bitwise** equality with [`dot`]. [`reference::dot_scalar`] is
/// the original single-accumulator loop (different reduction order, so only
/// approximately equal), and [`reference::gemv`] the original allocating
/// GEMV built on it.
pub mod reference {
    use super::DOT_LANES;
    use crate::{Matrix, Vector};

    /// The seed implementation: one accumulator, strictly left-to-right.
    pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    /// Scalar re-statement of the unrolled kernel's reduction order:
    /// element `i` accumulates into lane `i % 8`, lanes combine in the same
    /// fixed tree. Bit-identical to [`super::dot`] by construction.
    pub fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; DOT_LANES];
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            acc[i % DOT_LANES] += x * y;
        }
        ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
    }

    /// The seed GEMV: allocating, single-accumulator rows.
    pub fn gemv(w: &Matrix, x: &Vector) -> Vector {
        let xs = x.as_slice();
        let mut out = Vec::with_capacity(w.rows());
        for row in w.iter_rows() {
            out.push(dot_scalar(row, xs));
        }
        Vector::from_vec(out)
    }

    /// Scalar re-statement of the fused block-dequant kernel's reduction
    /// order — which is [`dot_lanes`]' order applied to the dequantized
    /// row: element `i` accumulates
    /// `(f32(q[i]) * scales[i / QUANT_BLOCK]) * x[i]` into lane `i % 8`,
    /// lanes combine in the fixed tree. Bit-identical to [`super::dot_q8`]
    /// by construction.
    pub fn dot_q8_blocks(q: &[i8], scales: &[f32], x: &[f32]) -> f32 {
        let mut acc = [0.0f32; DOT_LANES];
        for (i, (qv, xv)) in q.iter().zip(x).enumerate() {
            acc[i % DOT_LANES] += f32::from(*qv) * scales[i / super::QUANT_BLOCK] * xv;
        }
        ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ParallelOptions;
    use crate::Prng;

    #[test]
    fn gemv_identity() {
        let w = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let x = Vector::from_vec(vec![1.0, -2.0, 3.0]);
        assert_eq!(gemv(&w, &x), x);
    }

    #[test]
    fn try_gemv_rejects_mismatch() {
        let w = Matrix::zeros(2, 3);
        let x = Vector::zeros(2);
        assert!(try_gemv(&w, &x).is_err());
    }

    #[test]
    fn unrolled_dot_is_bitwise_equal_to_lane_ordered_scalar() {
        let mut rng = Prng::seed(11);
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 64, 100, 448, 1210] {
            let a: Vec<f32> = (0..len).map(|_| rng.normal(0.0, 1.0) as f32).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.normal(0.1, 2.0) as f32).collect();
            let unrolled = dot(&a, &b);
            let scalar = reference::dot_lanes(&a, &b);
            assert_eq!(
                unrolled.to_bits(),
                scalar.to_bits(),
                "len {len}: {unrolled} vs {scalar}"
            );
        }
    }

    #[test]
    fn unrolled_dot_tracks_single_accumulator_reference() {
        let mut rng = Prng::seed(12);
        for len in [5usize, 64, 333, 1024] {
            let a: Vec<f32> = (0..len).map(|_| rng.normal(0.0, 1.0) as f32).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.normal(0.0, 1.0) as f32).collect();
            let unrolled = dot(&a, &b);
            let scalar = reference::dot_scalar(&a, &b);
            let scale = 1.0 + a.iter().map(|v| v.abs()).sum::<f32>();
            assert!(
                (unrolled - scalar).abs() / scale < 1e-5,
                "len {len}: {unrolled} vs {scalar}"
            );
        }
    }

    #[test]
    fn gemv_matches_reference_within_tolerance() {
        let mut rng = Prng::seed(13);
        let w = Matrix::from_fn(37, 129, |_, _| rng.normal(0.0, 0.5) as f32);
        let x = Vector::from_fn(129, |_| rng.normal(0.2, 1.0) as f32);
        let fast = gemv(&w, &x);
        let slow = reference::gemv(&w, &x);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn gemv_into_is_bitwise_identical_across_thread_counts() {
        let mut rng = Prng::seed(14);
        let w = Matrix::from_fn(301, 96, |_, _| rng.normal(0.0, 1.0) as f32);
        let x = Vector::from_fn(96, |_| rng.normal(0.0, 1.0) as f32);
        let mut expected = Vector::zeros(0);
        gemv_into(&w, &x, &ThreadPool::single(), &mut expected);
        assert_eq!(expected, gemv(&w, &x), "wrapper must share the kernel");
        for threads in [2, 4] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            let mut out = Vector::zeros(0);
            gemv_into(&w, &x, &pool, &mut out);
            assert_eq!(out, expected, "{threads} threads");
        }
    }

    #[test]
    fn gemv_into_overwrites_stale_output() {
        let w = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        let x = Vector::from_vec(vec![5.0, -6.0]);
        let mut out = Vector::from_vec(vec![9.0; 7]);
        gemv_into(&w, &x, &ThreadPool::single(), &mut out);
        assert_eq!(out.as_slice(), &[5.0, -6.0]);
    }

    #[test]
    fn transposed_gemv_matches_explicit_transpose() {
        let w = Matrix::from_fn(3, 4, |r, c| (r as f32) - (c as f32) * 0.5);
        let x = Vector::from_vec(vec![1.0, 2.0, -1.0]);
        let via_kernel = gemv_transposed(&w, &x);
        let via_transpose = gemv(&w.transposed(), &x);
        for (a, b) in via_kernel.iter().zip(via_transpose.iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn gemv_zero_rows_gives_empty_output() {
        let w = Matrix::zeros(0, 4);
        let x = Vector::zeros(4);
        assert!(gemv(&w, &x).is_empty());
    }

    /// A seeded int8 row + per-block scales + f32 input of length `len`.
    fn q8_case(seed: u64, len: usize) -> (Vec<i8>, Vec<f32>, Vec<f32>) {
        let mut rng = Prng::seed(seed);
        let q: Vec<i8> = (0..len)
            .map(|_| (rng.normal(0.0, 40.0) as f32).clamp(-127.0, 127.0) as i8)
            .collect();
        let scales: Vec<f32> = (0..len.div_ceil(QUANT_BLOCK))
            .map(|_| (rng.normal(0.0, 1.0) as f32).abs() * 0.01 + 1e-4)
            .collect();
        let x: Vec<f32> = (0..len).map(|_| rng.normal(0.1, 1.0) as f32).collect();
        (q, scales, x)
    }

    #[test]
    fn fused_q8_dot_is_bitwise_equal_to_block_ordered_scalar() {
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 64, 100, 448, 1210] {
            let (q, scales, x) = q8_case(21 + len as u64, len);
            let fused = dot_q8(&q, &scales, &x);
            let scalar = reference::dot_q8_blocks(&q, &scales, &x);
            assert_eq!(
                fused.to_bits(),
                scalar.to_bits(),
                "len {len}: {fused} vs {scalar}"
            );
        }
    }

    #[test]
    fn fused_q8_dot_is_bitwise_equal_to_the_dequantized_f32_dot() {
        // The contract in one line: dequantizing the row up front and
        // running the f32 kernel is *bitwise* the same computation — the
        // fused kernel only avoids materializing `deq`.
        for len in [0usize, 1, 31, 32, 33, 100, 448, 1210] {
            let (q, scales, x) = q8_case(77 + len as u64, len);
            let deq: Vec<f32> = q
                .iter()
                .enumerate()
                .map(|(i, v)| f32::from(*v) * scales[i / QUANT_BLOCK])
                .collect();
            let fused = dot_q8(&q, &scales, &x);
            let via_f32 = dot(&deq, &x);
            assert_eq!(
                fused.to_bits(),
                via_f32.to_bits(),
                "len {len}: {fused} vs {via_f32}"
            );
        }
    }

    /// A seeded `rows × cols` matrix and `rows` entries for the transposed
    /// kernel (or `cols` for the GEMM: `x` is as long as `w` is wide).
    fn random_case(seed: u64, rows: usize, cols: usize) -> (Matrix, Vector, Vector) {
        let mut rng = Prng::seed(seed);
        let w = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 1.0) as f32);
        let x = Vector::from_fn(cols, |_| rng.normal(0.0, 1.0) as f32);
        let h = Vector::from_fn(rows, |_| rng.normal(0.0, 1.0) as f32);
        (w, x, h)
    }

    /// The rows of `0..rows` that `keep` keeps, as a row list.
    fn listed(rows: usize, keep: impl Fn(usize) -> bool) -> Vec<u32> {
        (0..rows).filter(|&r| keep(r)).map(|r| r as u32).collect()
    }

    /// Both kernels at one column over the rows `keep` keeps: `(W · x,
    /// Wᵀ · h)`, the first spread back to one entry per row, zero where
    /// the row is left out.
    fn both_kernels<W: WeightRows>(
        w: &W,
        (x, h): (&Vector, &Vector),
        keep: impl Fn(usize) -> bool + Copy,
        pool: &ThreadPool,
    ) -> (Vector, Vector) {
        let list = listed(w.rows(), keep);
        let (mut y, mut z) = (Vector::zeros(0), Vector::zeros(0));
        gemm_rows_into(w, x.as_slice(), 1, Rows::Kept(&list), pool, &mut y);
        let hs: Vec<f32> = list.iter().map(|&r| h[r as usize]).collect();
        gemm_transposed_rows_into(w, Rows::Kept(&list), &hs, 1, false, pool, &mut z);
        let mut spread = Vector::zeros(w.rows());
        for (&r, v) in list.iter().zip(y.iter()) {
            spread[r as usize] = *v;
        }
        (spread, z)
    }

    #[test]
    fn all_dense_mask_matches_dense_gemv() {
        let (w, x, h) = random_case(1, 12, 8);
        let (y, z) = both_kernels(&w, (&x, &h), |_| true, &ThreadPool::single());
        assert_eq!(y, gemv(&w, &x));
        assert_eq!(z, gemv_transposed(&w, &h));
    }

    #[test]
    fn skipped_rows_are_exactly_zero_and_unloaded() {
        // Skipped rows hold NaN: a kernel that loaded one would show it.
        let (clean, x, h) = random_case(2, 10, 8);
        let skipped = |r: usize| r % 2 == 1;
        let w = Matrix::from_fn(
            10,
            8,
            |r, c| if skipped(r) { f32::NAN } else { clean[(r, c)] },
        );
        let (y, z) = both_kernels(&w, (&x, &h), |r| !skipped(r), &ThreadPool::single());
        let dense = gemv(&clean, &x);
        for r in 0..10 {
            let want = if skipped(r) { 0.0 } else { dense[r] };
            assert_eq!(y[r].to_bits(), want.to_bits(), "row {r}");
        }
        let zeroed = Vector::from_fn(10, |r| if skipped(r) { 0.0 } else { h[r] });
        assert_eq!(z, gemv_transposed(&clean, &zeroed));
    }

    #[test]
    fn all_skipped_gemv_is_free() {
        let w = Matrix::from_fn(6, 4, |_, _| f32::NAN);
        let (_, x, h) = random_case(3, 6, 4);
        let (y, z) = both_kernels(&w, (&x, &h), |_| false, &ThreadPool::single());
        assert!(y.iter().chain(z.iter()).all(|v| v.to_bits() == 0));
    }

    #[test]
    fn down_proj_matches_transposed_gemv_when_dense() {
        let (w, x, mut h) = random_case(4, 9, 5);
        h[2] = 0.0;
        h[7] = -0.0;
        let (_, z) = both_kernels(&w, (&x, &h), |_| true, &ThreadPool::single());
        assert_eq!(z, gemv_transposed(&w, &h));
    }

    #[test]
    fn down_proj_with_mask_equals_dense_on_zeroed_h3() {
        // Filtering row r out is identical to h3[r] = 0.
        let (w, x, h) = random_case(6, 9, 5);
        let (_, z) = both_kernels(&w, (&x, &h), |r| r >= 3, &ThreadPool::single());
        let zeroed = Vector::from_fn(9, |r| if r < 3 { 0.0 } else { h[r] });
        assert_eq!(z, gemv_transposed(&w, &zeroed));
    }

    /// Both kernels under a filter on 2048 × 1024 weights, which each
    /// splits between 2 and 4 workers: the same bits at every thread count.
    fn thread_identity<W: WeightRows>(w: &W, x: &Vector, h: &Vector) {
        let keep = |r: usize| !r.is_multiple_of(3);
        let single = both_kernels(w, (x, h), keep, &ThreadPool::single());
        for threads in [2, 4] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            assert_eq!(
                both_kernels(w, (x, h), keep, &pool),
                single,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn into_variants_are_bitwise_identical_across_thread_counts() {
        let (w, x, h) = random_case(9, 2048, 1024);
        thread_identity(&w, &x, &h);
    }

    #[test]
    fn q8_into_variants_are_bitwise_identical_across_thread_counts() {
        let (w, x, h) = random_case(19, 2048, 1024);
        thread_identity(&crate::BlockQuantizedMatrix::quantize(&w), &x, &h);
    }

    #[test]
    fn q8_kernels_are_bitwise_equal_to_f32_kernels_over_the_dequantized_weights() {
        // The determinism contract for the quantized route: each q8 kernel
        // produces exactly the result the f32 kernel would produce on the
        // dequantized weights — quantization changes *values* once, at
        // weight-prep time, never the reduction arithmetic.
        let (w, x, h) = random_case(21, 200, 96);
        let q = crate::BlockQuantizedMatrix::quantize(&w);
        let keep = |r: usize| !r.is_multiple_of(4);
        let pool = ThreadPool::single();
        let got = both_kernels(&q, (&x, &h), keep, &pool);
        assert_eq!(got, both_kernels(&q.dequantize(), (&x, &h), keep, &pool));
    }

    #[test]
    fn q8_kernels_count_one_byte_per_weight() {
        // Work over a kept row is billed at `ACCOUNTED_BYTES` per MAC; for
        // int8 that must be the one byte each kernel reads per weight of the
        // row — half the f32 route's fp16 accounting.
        let (w, x, h) = random_case(23, 128, 64);
        let q = crate::BlockQuantizedMatrix::quantize(&w);
        let keep = |r: usize| r % 2 == 1;
        let (mut loaded, mut macs) = (0, 0);
        for r in (0..q.rows()).filter(|&r| keep(r)) {
            loaded += std::mem::size_of_val(q.row(r)) as u64;
            macs += q.cols() as u64;
        }
        let per_mac = <crate::BlockQuantizedMatrix as WeightRows>::ACCOUNTED_BYTES;
        assert_eq!(loaded, macs * per_mac, "1 byte per MAC");
        assert_eq!(<Matrix as WeightRows>::ACCOUNTED_BYTES, 2 * per_mac);
        // Both kernels read those rows and only those: filtered rows hold NaN
        // in the dequantized twin, and the results still agree bitwise.
        let deq = q.dequantize();
        let poisoned =
            Matrix::from_fn(128, 64, |r, c| if keep(r) { deq[(r, c)] } else { f32::NAN });
        let pool = ThreadPool::single();
        assert_eq!(
            both_kernels(&q, (&x, &h), keep, &pool),
            both_kernels(&poisoned, (&x, &h), keep, &pool)
        );
    }

    #[test]
    fn into_variant_overwrites_stale_buffer_slots_once() {
        // A recycled workspace buffer arrives full of garbage: every entry
        // of the packed output, and every accumulator, is written.
        let (w, x, h) = random_case(11, 10, 8);
        let keep = |r: usize| r % 2 == 1;
        let list = listed(10, keep);
        let pool = ThreadPool::single();
        let mut y = Vector::from_vec(vec![f32::NAN; 10]);
        gemm_rows_into(&w, x.as_slice(), 1, Rows::Kept(&list), &pool, &mut y);
        let hs: Vec<f32> = list.iter().map(|&r| h[r as usize]).collect();
        let mut z = Vector::from_vec(vec![f32::NAN; 17]);
        gemm_transposed_rows_into(&w, Rows::Kept(&list), &hs, 1, true, &pool, &mut z);
        let (spread, want_z) = both_kernels(&w, (&x, &h), keep, &pool);
        let want_y: Vec<f32> = list.iter().map(|&r| spread[r as usize]).collect();
        assert_eq!((y.as_slice(), z), (&want_y[..], want_z));
    }

    #[test]
    fn listed_and_all_rows_walks_agree_at_the_list_edges() {
        // Lists of 0, 1, 3 and 5 rows, every row, rows only in the last
        // partial 64-row word and only in its first: the listed walk (with
        // its prefetch) packs exactly what the walk over every row leaves
        // at those rows, at 1, 2, 3 and 5 columns, in both formats.
        let (rows, cols) = (688, 40);
        let mut rng = Prng::seed(12);
        let w = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 1.0) as f32);
        let q = crate::BlockQuantizedMatrix::quantize(&w);
        let xs: Vec<f32> = (0..5 * cols).map(|_| rng.normal(0.0, 1.0) as f32).collect();
        let lists: [Vec<u32>; 7] = [
            vec![],
            vec![687],
            vec![0, 300, 687],
            vec![1, 2, 64, 639, 640],
            (0..688).collect(),
            (640..688).collect(),
            (0..64).step_by(7).collect(),
        ];
        let pool = ThreadPool::single();
        for list in &lists {
            for batch in [1usize, 2, 3, 5] {
                let xs = &xs[..batch * cols];
                let check = |all: &Vector, kept: &Vector, format: &str| {
                    assert_eq!(kept.len(), list.len() * batch, "{format} {list:?}");
                    for (i, &r) in list.iter().enumerate() {
                        let want = &all.as_slice()[r as usize * batch..][..batch];
                        let got = &kept.as_slice()[i * batch..][..batch];
                        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got), bits(want), "{format} row {r} batch {batch}");
                    }
                };
                let (mut all, mut kept) = (Vector::zeros(0), Vector::zeros(0));
                gemm_rows_into(&w, xs, batch, Rows::All, &pool, &mut all);
                gemm_rows_into(&w, xs, batch, Rows::Kept(list), &pool, &mut kept);
                check(&all, &kept, "f32");
                gemm_rows_into(&q, xs, batch, Rows::All, &pool, &mut all);
                gemm_rows_into(&q, xs, batch, Rows::Kept(list), &pool, &mut kept);
                check(&all, &kept, "int8");
            }
        }
    }

    #[test]
    fn both_tile_bodies_match_the_lane_reference() {
        // Both bodies of the four-row tile (the 512-bit one where this CPU
        // has AVX-512F), called directly at 1..=9 columns, bit for bit
        // against the scalar lane reference: through `gemm_rows_into` an
        // AVX-512F host never runs the AVX2 tile at 4 or more columns.
        // `gemm_rows_equals_gemv_bit_for_bit` (tests/proptests.rs) walks
        // rows and threads. Prints whether the 512-bit body was swept.
        #[cfg(not(target_feature = "avx2"))]
        println!("512-bit tile body: not built (no AVX2 in this build)");
        #[cfg(target_feature = "avx2")]
        {
            let wide = std::is_x86_feature_detected!("avx512f");
            println!(
                "512-bit tile body: {}",
                match wide {
                    true => "swept (AVX-512F detected)",
                    false => "skipped (no AVX-512F on this CPU)",
                }
            );
            let mut rng = Prng::seed(44);
            let mut normal =
                |n: usize| -> Vec<f32> { (0..n).map(|_| rng.normal(0.0, 1.0) as f32).collect() };
            for cols in [8usize, 24, 256] {
                let w = normal(4 * cols);
                let rows: [&[f32]; 4] = std::array::from_fn(|r| &w[r * cols..][..cols]);
                for batch in 1..=9usize {
                    let xs = normal(batch * cols);
                    for body in ["AVX2", "512-bit"] {
                        let mut out = vec![f32::NAN; 4 * batch];
                        let mut outs = out.chunks_exact_mut(batch);
                        let mut outs: [&mut [f32]; 4] =
                            std::array::from_fn(|_| outs.next().expect("four rows"));
                        let first = match body {
                            "AVX2" => 0,
                            _ => avx2::wide_tiles(rows, &xs, &mut outs),
                        };
                        let expect_wide = wide && body != "AVX2" && batch >= avx2::WIDE_MIN;
                        assert_eq!(first > 0, expect_wide, "{body} at {batch} columns");
                        avx2::narrow_tiles(rows, &xs, &mut outs, first);
                        for (r, row) in rows.iter().enumerate() {
                            for (n, x) in xs.chunks_exact(cols).enumerate() {
                                assert_eq!(
                                    out[r * batch + n].to_bits(),
                                    reference::dot_lanes(row, x).to_bits(),
                                    "{body} body, {cols} wide, {batch} columns: row {r} column {n}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// A matrix that records which threads read its rows.
    struct Spy {
        w: Matrix,
        seen: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    }

    impl WeightRows for Spy {
        const ACCOUNTED_BYTES: u64 = 2;

        fn rows(&self) -> usize {
            self.w.rows()
        }

        fn cols(&self) -> usize {
            self.w.cols()
        }

        fn dot_kept_rows(&self, rows: (usize, Rows<'_>), xs: &[f32], b: usize, out: &mut [f32]) {
            self.w.dot_kept_rows(rows, xs, b, out);
        }

        fn prefetch(&self, r: usize, start: usize, len: usize) {
            self.w.prefetch(r, start, len);
        }

        const SPAN: usize = usize::MAX;

        fn row_span(&self, r: usize, start: usize, len: usize) -> impl Fn(usize) -> f32 + Copy {
            let mut seen = self.seen.lock().unwrap();
            let id = std::thread::current().id();
            if !seen.contains(&id) {
                seen.push(id);
            }
            self.w.row_span(r, start, len)
        }
    }

    #[test]
    fn down_projection_fans_out_by_the_mac_rule() {
        // The threads that read the rows are the workers. A serving
        // model's down projection (688 × 256, 176k MACs) stays on the
        // calling thread of a 4-thread pool; 2048 × 512 (2^20 MACs) is two
        // workers' worth, over every row or over a list of them all.
        let pool = ThreadPool::new(ParallelOptions::threads(4));
        for (rows, cols, workers) in [(688, 256, 1), (2048, 512, 2)] {
            let list: Vec<u32> = (0..rows as u32).collect();
            for over in [Rows::All, Rows::Kept(&list)] {
                let w = Spy {
                    w: Matrix::zeros(rows, cols),
                    seen: std::sync::Mutex::new(Vec::new()),
                };
                let mut out = Vector::zeros(0);
                gemm_transposed_rows_into(&w, over, &vec![1.0; rows], 1, false, &pool, &mut out);
                assert_eq!(
                    w.seen.into_inner().unwrap().len(),
                    workers,
                    "{rows} x {cols}"
                );
            }
        }
    }

    #[test]
    fn quant_block_is_a_lane_multiple() {
        // The invariant the fused kernel's determinism rests on: a scale
        // block never splits an eight-lane accumulate.
        assert_eq!(QUANT_BLOCK % DOT_LANES, 0);
    }
}
