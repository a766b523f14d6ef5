//! The AVX2 tile of the `f32` dot products: up to four weight rows × up to
//! four activation columns, every (row, column) pair one 8-lane register
//! chain, reduced in registers; and the prefetch hint of the listed row
//! walks.
//!
//! Each chain is exactly the `lanes_*` kernels' arithmetic for that pair:
//! element `i` accumulates into lane `i % 8` as `acc = acc + w * x` —
//! separate multiply and add, no FMA, `acc` starting at `+0.0` — and the
//! lanes combine as `((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7))`, one IEEE add per
//! `+` with the same operands in the same order. Only the schedule differs:
//! several independent chains hide the add latency one chain serializes,
//! each loaded column serves every row and each loaded row chunk every
//! column, and the tree runs in registers instead of through a stored lane
//! array. Rows that are not whole 8-lane chunks never get here (their tail
//! would need `finish`'s scalar adds).
//!
//! # Safety
//!
//! The crate is `#![deny(unsafe_code)]`; the allow below covers three
//! kinds of `unsafe` block, each with its proof beside it: the call of the
//! `#[target_feature(enable = "avx2")]` function from the entry point,
//! the unaligned vector load, and the prefetch hint. The arithmetic and
//! shuffle intrinsics are safe inside those functions.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_loadu_ps,
    _mm256_mul_ps, _mm256_setzero_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_movehdup_ps,
    _mm_movehl_ps, _mm_prefetch, _MM_HINT_T0,
};

use super::{COLUMN_GROUP, DOT_LANES};

/// One 8-lane chunk of a row or a column.
type Chunk = [f32; DOT_LANES];

/// `out[r][n]` = the dot product of `rows[r]` and column `n` of `xs` for
/// every row and column, [`COLUMN_GROUP`] columns per pass over the rows.
/// The caller has checked the shapes and that the rows are whole chunks.
#[inline] // see `dot_rows_batch`
pub(super) fn dot_tile<const R: usize>(rows: [&[f32]; R], xs: &[f32], out: [&mut [f32]; R]) {
    // SAFETY: this module is compiled only where AVX2 is statically
    // enabled, so every CPU this build may run on has the feature the
    // callee requires.
    unsafe { tiles(rows, xs, out) }
}

#[target_feature(enable = "avx2")]
fn tiles<const R: usize>(rows: [&[f32]; R], xs: &[f32], mut out: [&mut [f32]; R]) {
    let (cols, batch) = (rows[0].len(), out[0].len());
    let rows = rows.map(|row| row.as_chunks::<DOT_LANES>().0);
    for first in (0..batch).step_by(COLUMN_GROUP) {
        let column = |n: usize| xs[(first + n) * cols..][..cols].as_chunks::<DOT_LANES>().0;
        match (batch - first).min(COLUMN_GROUP) {
            4 => tile(
                rows,
                [column(0), column(1), column(2), column(3)],
                &mut out,
                first,
            ),
            3 => tile(rows, [column(0), column(1), column(2)], &mut out, first),
            2 => tile(rows, [column(0), column(1)], &mut out, first),
            _ => tile(rows, [column(0)], &mut out, first),
        }
    }
}

/// `R` rows × `N` columns, written to `out[r][first..first + N]`.
#[inline]
#[target_feature(enable = "avx2")]
fn tile<const R: usize, const N: usize>(
    rows: [&[Chunk]; R],
    columns: [&[Chunk]; N],
    out: &mut [&mut [f32]; R],
    first: usize,
) {
    // Re-slicing every operand to one length lets the indexing below go
    // unchecked by the compiler's own proof.
    let chunks = rows[0].len();
    let rows = rows.map(|row| &row[..chunks]);
    let columns = columns.map(|column| &column[..chunks]);
    let mut acc = [[_mm256_setzero_ps(); N]; R];
    for c in 0..chunks {
        let x = columns.map(|column| load(&column[c]));
        for (acc, row) in acc.iter_mut().zip(rows) {
            let w = load(&row[c]);
            for (acc, x) in acc.iter_mut().zip(x) {
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(w, x));
            }
        }
    }
    for (out, acc) in out.iter_mut().zip(acc) {
        for (slot, acc) in out[first..first + N].iter_mut().zip(acc) {
            *slot = reduce(acc);
        }
    }
}

#[inline]
#[target_feature(enable = "avx2")]
fn load(src: &Chunk) -> __m256 {
    // SAFETY: `src` is a live array of exactly `DOT_LANES` (eight) floats,
    // so the eight floats behind its pointer are readable; `loadu` has no
    // alignment requirement.
    unsafe { _mm256_loadu_ps(src.as_ptr()) }
}

/// `reduce_lanes` without leaving the registers.
#[inline]
#[target_feature(enable = "avx2")]
fn reduce(v: __m256) -> f32 {
    // [l0+l4, l1+l5, l2+l6, l3+l7]
    let pairs = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
    // [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7), ..]
    let halves = _mm_add_ps(pairs, _mm_movehl_ps(pairs, pairs));
    _mm_cvtss_f32(_mm_add_ss(halves, _mm_movehdup_ps(halves)))
}

/// Bytes per cache line.
const LINE: usize = 64;

/// One `prefetcht0` per cache line `data` touches.
#[inline]
pub(super) fn prefetch<T>(data: &[T]) {
    let bytes = std::mem::size_of_val(data);
    let base = data.as_ptr().cast::<i8>();
    let skew = base as usize % LINE;
    for offset in (0..bytes + skew).step_by(LINE) {
        // SAFETY: a prefetch is a hint that never faults and reads nothing
        // into the program's state, whatever the address; this one is the
        // start of a line `data` occupies, computed without dereferencing.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(base.wrapping_sub(skew).wrapping_add(offset)) };
    }
}
