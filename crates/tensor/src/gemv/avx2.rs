//! The register tile of the `f32` dot products: four weight rows × up to
//! two activation columns per pass (a lone row × up to four) on AVX2, and
//! four rows × up to eight columns per pass through a 512-bit body on CPUs
//! that report AVX-512F; every (row, column) pair one 8-lane register
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
//! The 512-bit body holds two of those chains per zmm register: rows `2q`
//! and `2q + 1` in its two halves against one column's chunk broadcast to
//! both, so four rows × eight columns are 16 registers. It reduces 16
//! chains at a time, the tree's three levels as three shuffle-and-add
//! steps over whole registers. It is chosen at run time, from inside this
//! AVX2-only module, so a build without AVX2 never reaches it; passes of
//! fewer than [`WIDE_MIN`] columns, and lone rows, stay on the AVX2 tile.
//!
//! # Safety
//!
//! The crate is `#![deny(unsafe_code)]`; the allow below covers four
//! kinds of `unsafe` block, each with its proof beside it: the calls of the
//! `#[target_feature]` functions from the entry points (AVX2 statically
//! enabled, AVX-512F detected), the unaligned vector load and store, and
//! the prefetch hint. The arithmetic and shuffle intrinsics are safe
//! inside those functions.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256, __m512, _mm256_add_ps, _mm256_castps256_ps128, _mm256_castps_pd, _mm256_extractf128_ps,
    _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps, _mm512_add_ps, _mm512_broadcast_f64x4,
    _mm512_castpd_ps, _mm512_castps_pd, _mm512_insertf64x4, _mm512_mul_ps, _mm512_setzero_ps,
    _mm512_shuffle_f32x4, _mm512_shuffle_ps, _mm512_storeu_ps, _mm_add_ps, _mm_add_ss,
    _mm_cvtss_f32, _mm_movehdup_ps, _mm_movehl_ps, _mm_prefetch, _MM_HINT_T0,
};

use super::{COLUMN_GROUP, DOT_LANES};

/// One 8-lane chunk of a row or a column.
type Chunk = [f32; DOT_LANES];

/// `out[r][n]` = the dot product of `rows[r]` and column `n` of `xs`:
/// over four rows, passes of up to [`WIDE_PASS`] columns through the
/// 512-bit body while at least [`WIDE_MIN`] are left and the CPU has
/// AVX-512F, the rest through the AVX2 tile. The caller has checked the
/// shapes and that the rows are whole chunks.
#[inline] // see `dot_rows_batch`
pub(super) fn dot_tile<const R: usize>(rows: [&[f32]; R], xs: &[f32], mut out: [&mut [f32]; R]) {
    let mut first = 0;
    if let (Ok(four), Ok(outs)) = (rows.as_slice().try_into(), out.as_mut_slice().try_into()) {
        first = wide_tiles(four, xs, outs);
    }
    narrow_tiles(rows, xs, &mut out, first);
}

/// The AVX2 body over the columns from `first` on: [`PASS`] columns per
/// pass over several rows, [`COLUMN_GROUP`] over one.
#[inline]
pub(super) fn narrow_tiles<const R: usize>(
    rows: [&[f32]; R],
    xs: &[f32],
    out: &mut [&mut [f32]; R],
    first: usize,
) {
    // SAFETY: this module is compiled only where AVX2 is statically
    // enabled, so every CPU this build may run on has the feature the
    // callee requires.
    unsafe { tiles(rows, xs, out, first) }
}

/// The 512-bit body over the leading columns, up to [`WIDE_PASS`] per
/// pass while at least [`WIDE_MIN`] are left: how many columns it wrote
/// (none on a CPU without AVX-512F).
#[inline]
pub(super) fn wide_tiles(rows: [&[f32]; 4], xs: &[f32], out: &mut [&mut [f32]; 4]) -> usize {
    if out[0].len() < WIDE_MIN || !is_x86_feature_detected!("avx512f") {
        return 0;
    }
    let rows = rows.map(|row| row.as_chunks::<DOT_LANES>().0);
    // SAFETY: the CPU has just reported AVX-512F, the one feature the
    // callee enables beyond this build's static AVX2.
    unsafe { zmm_tiles(rows, xs, out) }
}

/// Columns per pass over several rows: four rows × two columns are eight
/// chains in 11 of the 16 vector registers, and further passes re-read the
/// rows from L1. Four rows keep four streams for the prefetchers; two rows
/// × four columns (the same chains) ran a two-column pass 1.25× slower.
const PASS: usize = 2;

/// Columns per pass of the 512-bit body: four rows × eight columns are 32
/// chains, two to a register, in 16 of the 32 zmm registers, beside the
/// eight broadcast column chunks and two row pairs.
const WIDE_PASS: usize = 8;

/// Fewest columns a pass of the 512-bit body takes. Per the kernels bench
/// (24 688×256 matrices, AVX2 tile = 1): 0.74-0.79 at 8 columns, 0.87-0.96
/// at 4, 0.92-1.05 at 3 (above 1 when the host is loaded), 1.0 at 2;
/// below 4 the AVX2 tile keeps the pass.
pub(super) const WIDE_MIN: usize = 4;

#[target_feature(enable = "avx2")]
fn tiles<const R: usize>(rows: [&[f32]; R], xs: &[f32], out: &mut [&mut [f32]; R], first: usize) {
    let (cols, batch) = (rows[0].len(), out[0].len());
    let rows = rows.map(|row| row.as_chunks::<DOT_LANES>().0);
    let width = if R == 1 { COLUMN_GROUP } else { PASS };
    for first in (first..batch).step_by(width) {
        let column = |n: usize| xs[(first + n) * cols..][..cols].as_chunks::<DOT_LANES>().0;
        match (batch - first).min(width) {
            4 => tile(
                rows,
                [column(0), column(1), column(2), column(3)],
                out,
                first,
            ),
            3 => tile(rows, [column(0), column(1), column(2)], out, first),
            2 => tile(rows, [column(0), column(1)], out, first),
            _ => tile(rows, [column(0)], out, first),
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

/// The 512-bit passes of [`wide_tiles`]; returns the columns written.
// No closures in here or in `zmm_tile`: a closure takes on its function's
// target features, so `array::map` and `from_fn`, which have none, could
// not inline it, and the bounds checks of the loop below went unelided.
#[target_feature(enable = "avx512f")]
fn zmm_tiles(rows: [&[Chunk]; 4], xs: &[f32], out: &mut [&mut [f32]; 4]) -> usize {
    let (cols, batch) = (rows[0].len() * DOT_LANES, out[0].len());
    let mut first = 0;
    while batch - first >= WIDE_MIN {
        let width = (batch - first).min(WIDE_PASS);
        let xs = &xs[first * cols..];
        match width {
            8 => zmm_tile::<8>(rows, columns(xs, cols), out, first),
            7 => zmm_tile::<7>(rows, columns(xs, cols), out, first),
            6 => zmm_tile::<6>(rows, columns(xs, cols), out, first),
            5 => zmm_tile::<5>(rows, columns(xs, cols), out, first),
            _ => zmm_tile::<4>(rows, columns(xs, cols), out, first),
        }
        first += width;
    }
    first
}

/// The first `N` columns of `cols` elements in `xs`, as chunks.
#[inline]
fn columns<const N: usize>(xs: &[f32], cols: usize) -> [&[Chunk]; N] {
    std::array::from_fn(|n| xs[n * cols..][..cols].as_chunks().0)
}

/// Four rows × `N` columns, written to `out[r][first..first + N]`. The
/// register for row pair `q` and column `n` holds row `2q`'s chain in its
/// low eight lanes and row `2q + 1`'s in its high eight: each column chunk
/// is broadcast once to both halves and each row pair loaded once. (Pairs
/// of columns against a broadcast row chunk cost more: half a register
/// idles at odd column counts, and twice the inserts at eight, 0.74-0.83×
/// the AVX2 tile's time at 8 columns against 0.74-0.76×.)
#[inline]
#[target_feature(enable = "avx512f")]
fn zmm_tile<const N: usize>(
    mut rows: [&[Chunk]; 4],
    mut columns: [&[Chunk]; N],
    out: &mut [&mut [f32]; 4],
    first: usize,
) {
    let chunks = rows[0].len();
    for row in &mut rows {
        *row = &row[..chunks];
    }
    for column in &mut columns {
        *column = &column[..chunks];
    }
    let mut acc = [[_mm512_setzero_ps(); N]; 2];
    for c in 0..chunks {
        let mut x = [_mm512_setzero_ps(); N];
        for (x, column) in x.iter_mut().zip(columns) {
            *x = both(&column[c]);
        }
        for (q, acc) in acc.iter_mut().enumerate() {
            let w = pair(&rows[2 * q][c], &rows[2 * q + 1][c]);
            for (acc, x) in acc.iter_mut().zip(x) {
                *acc = _mm512_add_ps(*acc, _mm512_mul_ps(w, x));
            }
        }
    }
    let mut sums = [[0.0; 16]; 2];
    for (g, sums) in sums.iter_mut().enumerate().take((2 * N).div_ceil(8)) {
        let mut group = [_mm512_setzero_ps(); 8];
        for (i, z) in group.iter_mut().enumerate() {
            if let Some(acc) = acc.get((g * 8 + i) / N) {
                *z = acc[(g * 8 + i) % N];
            }
        }
        *sums = reduce16(group);
    }
    for q in 0..2 {
        for n in 0..N {
            let (g, i) = ((q * N + n) / 8, (q * N + n) % 8);
            let lane = 8 * (i % 2) + i / 2;
            out[2 * q][first + n] = sums[g][lane];
            out[2 * q + 1][first + n] = sums[g][lane + 4];
        }
    }
}

/// `reduce` of the 16 chains of eight registers at once: the same adds of
/// the same operands, a level of the tree per add of whole registers
/// (`vshuff32x4`, `vshufps` regroup the lanes between levels). Chain `h`
/// (0 low, 1 high) of `z[i]` comes out in lane `8 (i % 2) + 4 h + i / 2`.
#[inline]
#[target_feature(enable = "avx512f")]
fn reduce16(z: [__m512; 8]) -> [f32; 16] {
    // Four chains' [l0+l4, l1+l5, l2+l6, l3+l7] per register, one per
    // 128-bit quarter: `z[i]`'s low, its high, `z[i + 1]`'s low and high.
    let mut quads = [_mm512_setzero_ps(); 4];
    for (j, quad) in quads.iter_mut().enumerate() {
        let (a, b) = (z[2 * j], z[2 * j + 1]);
        let lo = _mm512_shuffle_f32x4::<0x88>(a, b);
        *quad = _mm512_add_ps(lo, _mm512_shuffle_f32x4::<0xdd>(a, b));
    }
    // Per quarter, two chains' [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7)].
    let mut halves = [_mm512_setzero_ps(); 2];
    for (j, half) in halves.iter_mut().enumerate() {
        let (a, b) = (quads[2 * j], quads[2 * j + 1]);
        let lo = _mm512_shuffle_ps::<0x44>(a, b);
        *half = _mm512_add_ps(lo, _mm512_shuffle_ps::<0xee>(a, b));
    }
    let lo = _mm512_shuffle_ps::<0x88>(halves[0], halves[1]);
    let hi = _mm512_shuffle_ps::<0xdd>(halves[0], halves[1]);
    let mut sums = [0.0; 16];
    // SAFETY: `sums` is 16 writable floats, exactly one zmm register;
    // `storeu` has no alignment requirement.
    unsafe { _mm512_storeu_ps(sums.as_mut_ptr(), _mm512_add_ps(lo, hi)) };
    sums
}

/// Chunk `lo` in the low eight lanes, `hi` in the high eight.
// Built from a broadcast, not a 256-bit load: without AVX-512VL a ymm
// register must be one of the low 16, and the accumulators spilled.
#[inline]
#[target_feature(enable = "avx512f")]
fn pair(lo: &Chunk, hi: &Chunk) -> __m512 {
    let lo = _mm512_castps_pd(both(lo));
    _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, _mm256_castps_pd(load(hi))))
}

/// Chunk `src` in both halves.
#[inline]
#[target_feature(enable = "avx512f")]
fn both(src: &Chunk) -> __m512 {
    _mm512_castpd_ps(_mm512_broadcast_f64x4(_mm256_castps_pd(load(src))))
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
