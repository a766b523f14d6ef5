//! Dense matrix–vector kernels.
//!
//! During LLM decoding every linear layer degenerates to a GEMV (`y = W·x`
//! with a single-token `x`), which is memory-bandwidth bound: each weight is
//! loaded exactly once per token. These reference kernels are the dense
//! baseline that the `sparse` crate's row-skipping kernels are verified
//! against, and that plays the role of llama.cpp in the benchmarks.
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
//! From two columns on, an `f32` build with AVX2 computes those same
//! chains in a **register tile** instead: two weight rows × up to four
//! columns, each (row, column) pair one 8-lane chain `acc = acc + w * x` —
//! separate multiply and add, **no FMA** — and each chain's tree
//! `((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7))` reduced in registers
//! (`extractf128`, `movehl`, `add_ss`: the same IEEE adds of the same
//! operands). Eight independent chains hide the add latency, each loaded
//! column serves both rows and each loaded row chunk every column, so a
//! prompt chunk costs what its arithmetic costs: 24 688×256 matrices at
//! 2 / 4 / 8 columns ran in 223 / 315 / 570 µs against the `lanes_*`
//! kernels' 320 / 525 / 1003 µs (one core of a 2-core AMD EPYC VM). The
//! `lanes_*` kernels stay the portable path — no AVX2, or a row that is
//! not whole 8-lane chunks — and the tests hold both to the scalar
//! reference bit for bit. One column keeps the one-column kernel: a GEMV
//! does one multiply-add per weight it loads, so it waits on the weights,
//! not on the adds a tile overlaps, and its loop is left as it was.
//!
//! One function partitions the rows of a weight matrix across a pool:
//! [`gemm_rows_into`] reads each (unfiltered) weight row once for B
//! activation columns. Prefill calls it with B positions, decode with one
//! ([`gemv_into`], the sparse GEMV), and
//! [`gemv_transposed_batch_into`] does the same for the transposed
//! accumulation of the down projection.
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

/// Minimum output columns per worker before the batched transposed
/// accumulation fans out.
const MIN_COLS_PER_WORKER: usize = 64;

/// Minimum multiply-accumulates per worker before a kernel fans out. One
/// batched prefill step makes some ten dispatches per layer, each over a
/// matrix far smaller than a decode GEMV's working set; a parked
/// dispatch costs 16-60 us on the hosts measured, which is 100-500 thousand
/// of these kernels' MACs — below that, splitting a matrix loses (a 2-slot
/// step on 8 layers of 256x688 took 3.3 ms split across two threads, 1.2 ms
/// on one).
pub const MIN_MACS_PER_WORKER: usize = 1 << 19;

/// Activation columns the batched dot products reduce per pass over a
/// weight row: the tile's two rows × four columns of 8-lane accumulators
/// plus the four loaded columns and a row chunk fit the 16 vector registers
/// of AVX2; a larger batch takes further passes over the rows while they
/// are still in L1.
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
// Inlined so that a decode GEMV's row loop reaches the one-column kernel
// without setting up the group loop's frame: that set-up is a fifth of an
// int8 row's time at 256 columns (688x256 GEMV: 25 us through the group
// loop, 21 us past it, 20 us for the single-column loop this replaced).
#[inline]
pub fn dot_batch(a: &[f32], xs: &[f32], out: &mut [f32]) {
    match out {
        [one] => *one = dot(a, xs),
        _ => dot_row_groups(a, xs, out),
    }
}

/// [`dot_batch`] of several columns: one row through `dot_rows_batch`.
// Out of line, so that the one-column row loop `dot_batch` is inlined into
// stays the loop it was: with the tile inlined next to it, a 688x256 GEMV
// took 4 % longer.
#[inline(never)]
fn dot_row_groups(a: &[f32], xs: &[f32], out: &mut [f32]) {
    dot_rows_batch([a], xs, [out]);
}

/// [`dot_batch`] of one or two weight rows against the same columns in one
/// pass: `out[i]` gets bitwise what `dot_batch(rows[i], xs, out[i])` writes,
/// from the AVX2 tile where the build has AVX2 and the rows are whole
/// 8-lane chunks, from the `lanes_*` kernels otherwise. The rows need not
/// be adjacent in their matrix.
///
/// # Panics
///
/// Panics if the rows differ in length or `xs` does not hold `out[i].len()`
/// columns of that length.
// Inlined down to the tile, into `rows_in_pairs`: passed through calls, the
// arrays of slices go through the stack, and 24 688x256 passes at 4 columns
// took 480 us instead of 365.
#[inline]
fn dot_rows_batch<const R: usize>(rows: [&[f32]; R], xs: &[f32], out: [&mut [f32]; R]) {
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
// changed with the calling context.
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
#[inline] // see `dot_batch`
pub fn dot_q8_batch(q: &[i8], scales: &[f32], xs: &[f32], out: &mut [f32]) {
    match out {
        [one] => *one = dot_q8(q, scales, xs),
        _ => dot_q8_groups(q, scales, xs, out),
    }
}

fn dot_q8_groups(q: &[i8], scales: &[f32], xs: &[f32], out: &mut [f32]) {
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
/// activation column and no row filter. `out` is resized to `w.rows()` (no
/// allocation when its capacity suffices) and every element is
/// overwritten. Bit-identical for every thread count.
///
/// # Panics
///
/// Panics if `x.len() != w.cols()`.
pub fn gemv_into(w: &Matrix, x: &Vector, pool: &ThreadPool, out: &mut Vector) {
    gemm_rows_into(w, x.as_slice(), 1, |_| true, pool, out);
}

/// Computes `y = Wᵀ · x` without materializing the transpose, i.e.
/// `y[c] = Σ_r W[r][c] · x[r]`.
///
/// This is the access pattern of the down projection *before* the paper's
/// load-time transposition: output elements accumulate across rows, which on
/// a GPU forces `atomicAdd` across warps (§IV-B4). The `sparse` crate prefers
/// [`gemv`] on a pre-transposed matrix; this kernel exists as the baseline
/// and for verification.
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

/// `Y = W · X` for `batch` activation columns in **one pass over the
/// weights** — the one row-partitioned kernel: prefill calls it with a
/// column per position, decode with a single column. `xs` holds the columns
/// back to back (column `b` at `xs[b * w.cols()..]`); `out` is resized to
/// `w.rows() * batch` and row `r`'s results land together at
/// `out[r * batch..]`, so rows partition across `pool` with one writer per
/// element. Each weight row is loaded once and reduced against every column
/// through [`WeightRows::dot_row_batch`], whose every result is the
/// format's fixed-order dot product of that row and column — so
/// `out[r * batch + b]` has the same bits at any batch size and thread
/// count.
///
/// Rows for which `keep(r)` is `false` are never loaded and their outputs
/// are `0.0` (the row skip of the sparse kernels, decided once for all
/// columns); `|_| true` keeps every row.
///
/// From two columns on, a worker hands its rows to
/// [`WeightRows::dot_kept_rows`]. An `f32` [`Matrix`] takes its kept rows
/// two at a time through the tile: the `i`-th kept row of the lower half of
/// its rows beside the `i`-th kept row of the upper half, then the rest of
/// the longer half two by two, and a last unpaired row alone. Two
/// ascending walks through two halves of the matrix are what the hardware
/// prefetchers follow: the same pairs taken from adjacent rows — two reads
/// 1 KB apart, in lockstep, through one page — streamed 688x256 weights
/// from DRAM at a third of the speed. Other formats (the int8
/// [`BlockQuantizedMatrix`](crate::BlockQuantizedMatrix)) have no tile and
/// keep the row-by-row walk, as does a single column through the
/// one-column kernel.
///
/// A worker gets at least `MIN_ROWS_PER_WORKER` rows and
/// [`MIN_MACS_PER_WORKER`] multiply-accumulates, counted as if no row were
/// filtered out.
///
/// # Panics
///
/// Panics if `xs.len() != batch * w.cols()`.
pub fn gemm_rows_into<W: WeightRows>(
    w: &W,
    xs: &[f32],
    batch: usize,
    keep: impl Fn(usize) -> bool + Sync,
    pool: &ThreadPool,
    out: &mut Vector,
) {
    assert_eq!(xs.len(), batch * w.cols(), "gemm activation shape mismatch");
    out.resize(w.rows() * batch, 0.0);
    if batch == 0 {
        return;
    }
    let min_rows = MIN_ROWS_PER_WORKER.max(MIN_MACS_PER_WORKER.div_ceil(xs.len().max(1)));
    if batch > 1 {
        return pool.run_rows(out.as_mut_slice(), batch, min_rows, |first_row, chunk| {
            w.dot_kept_rows(first_row, &keep, xs, batch, chunk)
        });
    }
    pool.run_rows(out.as_mut_slice(), batch, min_rows, |first_row, chunk| {
        for (i, out_row) in chunk.chunks_exact_mut(batch).enumerate() {
            let r = first_row + i;
            if keep(r) {
                w.dot_row_batch(r, xs, out_row);
            } else {
                out_row.fill(0.0);
            }
        }
    });
}

/// [`WeightRows::dot_kept_rows`] of a [`Matrix`]: a worker's kept rows in
/// pairs through [`dot_rows_batch`], one row from each half of its rows.
// Out of line and behind a closure of its own, so that the one-column loop
// of a decode GEMV compiles as it did before the tile existed: inlined into
// one closure with it, this loop cost the sparse MLP blocks built on that
// GEMV up to 35 %.
#[inline(never)]
pub(crate) fn rows_in_pairs(
    w: &Matrix,
    first_row: usize,
    keep: &impl Fn(usize) -> bool,
    xs: &[f32],
    batch: usize,
    out: &mut [f32],
) {
    let half = (out.len() / batch).div_ceil(2);
    let (lower, upper) = out.split_at_mut(half * batch);
    let mut lower = kept_rows(first_row, lower, batch, keep);
    let mut upper = kept_rows(first_row + half, upper, batch, keep);
    loop {
        let first = lower.next().or_else(|| upper.next());
        let second = upper.next().or_else(|| lower.next());
        match (first, second) {
            (Some((r0, out0)), Some((r1, out1))) => {
                dot_rows_batch([w.row(r0), w.row(r1)], xs, [out0, out1]);
            }
            (Some((r, out_row)), None) => dot_batch(w.row(r), xs, out_row),
            (None, _) => break,
        }
    }
}

/// The rows of `out` (`batch` results each, the first one row `first`)
/// that `keep` keeps, ascending; the others are zeroed as the walk passes.
fn kept_rows<'a>(
    first: usize,
    out: &'a mut [f32],
    batch: usize,
    keep: &'a impl Fn(usize) -> bool,
) -> impl Iterator<Item = (usize, &'a mut [f32])> {
    let rows = (first..).zip(out.chunks_exact_mut(batch));
    rows.filter_map(|(r, out_row)| {
        if keep(r) {
            return Some((r, out_row));
        }
        out_row.fill(0.0);
        None
    })
}

/// [`gemv_transposed`] for `batch` inputs in one pass over the weights:
/// `out[b * w.cols() + c] = Σ_r W[r][c] · xs[r * batch + b]`. `xs` is laid
/// out as [`gemm_rows_into`] leaves its output (row `r`'s `batch` values
/// together). Each weight row that any input needs is read once; for every
/// input the per-element addition chain is [`gemv_transposed`]'s — rows in
/// ascending order, a row whose `xs` entry `== 0.0` skipped — so each
/// input's result is bitwise its own [`gemv_transposed`], at any batch size
/// and thread count. Output columns partition across `pool` (one writer
/// per element); `tmp` holds the per-worker accumulators.
///
/// # Panics
///
/// Panics if `xs.len() != batch * w.rows()`.
pub fn gemv_transposed_batch_into(
    w: &Matrix,
    xs: &[f32],
    batch: usize,
    pool: &ThreadPool,
    tmp: &mut Vector,
    out: &mut Vector,
) {
    let cols = w.cols();
    assert_eq!(
        xs.len(),
        batch * w.rows(),
        "transposed batch shape mismatch"
    );
    out.resize(batch * cols, 0.0);
    if batch == 0 || cols == 0 {
        return;
    }
    // Output columns are cut into ranges of `width`; each range accumulates
    // into its own region of `tmp`, laid out `[input][column]` so the inner
    // loop runs along a weight row.
    let parts = pool
        .threads()
        .min(cols / MIN_COLS_PER_WORKER)
        .min(xs.len() * cols / MIN_MACS_PER_WORKER)
        .max(1);
    let width = cols.div_ceil(parts);
    let parts = cols.div_ceil(width);
    tmp.resize(parts * batch * width, 0.0);
    pool.run_rows(tmp.as_mut_slice(), batch * width, 1, |first, regions| {
        for (i, region) in regions.chunks_exact_mut(batch * width).enumerate() {
            let start = (first + i) * width;
            let len = width.min(cols - start);
            region.fill(0.0);
            for (r, scales) in xs.chunks_exact(batch).enumerate() {
                if scales.iter().all(|s| *s == 0.0) {
                    continue;
                }
                let row = &w.row(r)[start..start + len];
                for (acc, &s) in region.chunks_exact_mut(width).zip(scales) {
                    if s == 0.0 {
                        continue;
                    }
                    for (o, wi) in acc.iter_mut().zip(row) {
                        *o += wi * s;
                    }
                }
            }
        }
    });
    for (p, region) in tmp.as_slice().chunks_exact(batch * width).enumerate() {
        let start = p * width;
        let len = width.min(cols - start);
        for (b, acc) in region.chunks_exact(width).enumerate() {
            out.as_mut_slice()[b * cols + start..b * cols + start + len]
                .copy_from_slice(&acc[..len]);
        }
    }
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

    #[test]
    fn quant_block_is_a_lane_multiple() {
        // The invariant the fused kernel's determinism rests on: a scale
        // block never splits an eight-lane accumulate.
        assert_eq!(QUANT_BLOCK % DOT_LANES, 0);
    }
}
