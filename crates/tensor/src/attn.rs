//! The two inner loops of one attention head over a *run* of cached
//! positions, for one query or several: the scores `q · k[t]` and the
//! weighted value sum `out += w[t] · v[t]`.
//!
//! A run is a slab of consecutive cached positions, `stride` words apart
//! (the model dimension), of which one head reads `head_dim` words each —
//! one block of a KV cache, which for a capacity-reserved cache is its
//! whole context. The words are a [`KvWord`]: `f32`, or the [`F16`] of a
//! half-precision cache, widened to `f32` in-register as they are read.
//! Widening is exact (every binary16 value is an `f32` value), so an `F16`
//! run gives the bits of its widened `f32` copy, and both dtypes share one
//! body. The caller walks the runs and keeps the softmax between the two
//! loops scalar (a vector `exp` would move bits).
//!
//! Several queries over one cache are the prompt positions one session
//! brings to a prefill step: consecutive positions, so their contexts
//! differ by one position each. Both entry points take a slice of queries
//! (decode passes one), and each query says through the length of its own
//! scores or weights how many positions of the run it reads — the rest
//! belong to the later positions of its session.
//!
//! Both loops exist twice. [`reference`](mod@reference) is the scalar code
//! attention ran before this module existed, one query at a time: one
//! sequential add chain per score, one position-ascending chain per output
//! element, each word widened by [`KvWord::widen`]. It is what the tests
//! compare against, and it is the portable path — a build without AVX2
//! and F16C (`RUSTFLAGS=""`), or a head width that is not a multiple of
//! eight, runs it query by query. On AVX2 the same chains are kept **bit
//! for bit** and computed eight at a time, for up to [`QUERY_GROUP`]
//! queries per pass:
//!
//! * **loads** — eight words per register: `f32` as stored, `F16` through
//!   F16C's `vcvtph2ps`, which widens exactly as [`F16::to_f32`] does on
//!   every word but the signalling NaNs (it quiets them) — and
//!   [`F16::from_f32`] never produces one, so no cache holds one.
//! * **scores** — eight positions per pass: 8 × 8 blocks of the key slab
//!   are transposed in registers so that lane `i` of column `j` holds
//!   `k[t + i][j]`, and `acc = acc + q[j] * column_j` (separate multiply
//!   and add, no FMA, `acc` starting at `-0.0` as `Iterator::sum` does)
//!   carries in lane `i` exactly the reference chain of position `t + i`.
//!   Without the transposes a lane would have to sum across positions or
//!   across `j` in another order; with them the add latency of one chain
//!   overlaps seven others. Each transposed block serves every query of
//!   the pass, each query with its own accumulator — so a four-query pass
//!   transposes the keys once, not four times. A query shorter than the
//!   pass stores only its own positions.
//! * **value sum** — eight output elements per register, up to 32 in
//!   flight: each element's chain is independent and position-ascending,
//!   so the accumulators stay in registers across the whole run instead of
//!   round-tripping through `out` per position. Two queries per pass share
//!   each loaded value row over the positions both of them read; then each
//!   continues its own chains, still in registers, over the positions only
//!   it reads.
//!
//! A one-query pass is the loop decode always ran. Four queries of one
//! session over 125–128 cached positions (d 256, 8 heads) take both
//! kernels in 6.9 µs against 14.0 µs for four one-query calls
//! (`crates/bench`'s `attend_f32_ctx128_{4x1q,4q}_us`, one core of a 2-core
//! AMD EPYC VM). Over `F16` runs the kernels cost what they cost over
//! `f32`: one query over 128 positions takes 13.4 µs against 12.5 µs, where
//! the scalar loops, widening each word in software, take 94 µs
//! (`attend_{f16,f32}_ctx128_*`, one core of a 2-core Xeon VM).
//!
//! # Safety
//!
//! The crate is `#![deny(unsafe_code)]`; the allow below covers two kinds
//! of `unsafe` block, both with local proofs. The vector functions are
//! `#[target_feature(enable = "avx2")]`, which makes calling them from
//! ordinary code unsafe — the two entry points do so under
//! `cfg(all(target_feature = "avx2", target_feature = "f16c"))`, i.e. only
//! in a build that already requires both features of every CPU it runs
//! on. And the unaligned vector loads and store need eight readable
//! (writable) words behind their pointer — 32 bytes of `f32`, 16 of `F16`
//! — which a slice of checked length establishes right there. The
//! arithmetic, shuffle and conversion intrinsics are safe inside those
//! functions.

#![allow(unsafe_code)]

#[cfg(all(target_feature = "avx2", target_feature = "f16c"))]
use core::arch::x86_64::{__m256, _mm256_cvtph_ps, _mm256_loadu_ps, _mm_loadu_si128};

use crate::F16;

/// Queries a score pass takes over a run: one accumulator each, beside the
/// eight transposed key columns and a broadcast query element, fit the 16
/// vector registers of AVX2. A caller with more queries of one cache
/// passes them in groups of this size, each group reading the keys once.
pub const QUERY_GROUP: usize = 4;

/// Words per vector register, and positions per score pass.
#[cfg(all(target_feature = "avx2", target_feature = "f16c"))]
const LANES: usize = 8;

/// A word a KV run stores: `f32`, or the [`F16`] of a half-precision
/// cache.
pub trait KvWord: Copy + 'static {
    /// The word as `f32` — exact for both types: what
    /// [`reference`](mod@reference) reads.
    fn widen(self) -> f32;

    /// The first eight words of `src`, widened, as one register: what the
    /// vector kernels read. Bitwise [`widen`](Self::widen) of each word,
    /// except that F16C quiets an `F16` signalling NaN.
    ///
    /// # Panics
    ///
    /// Panics if `src` holds fewer than eight words.
    #[cfg(all(target_feature = "avx2", target_feature = "f16c"))]
    fn load8(src: &[Self]) -> __m256;
}

impl KvWord for f32 {
    #[inline]
    fn widen(self) -> f32 {
        self
    }

    #[cfg(all(target_feature = "avx2", target_feature = "f16c"))]
    #[inline]
    fn load8(src: &[f32]) -> __m256 {
        let src = &src[..LANES];
        // SAFETY: `src` is a live slice of exactly `LANES` floats, so the
        // 32 bytes behind its pointer are readable; `loadu` has no
        // alignment requirement, and the build requires AVX.
        unsafe { _mm256_loadu_ps(src.as_ptr()) }
    }
}

impl KvWord for F16 {
    #[inline]
    fn widen(self) -> f32 {
        self.to_f32()
    }

    #[cfg(all(target_feature = "avx2", target_feature = "f16c"))]
    #[inline]
    fn load8(src: &[F16]) -> __m256 {
        let src = &src[..LANES];
        // SAFETY: `src` is a live slice of exactly `LANES` words, and `F16`
        // is `repr(transparent)` over `u16`, so the 16 bytes behind its
        // pointer are readable; `loadu` has no alignment requirement, and
        // the build requires F16C for the conversion.
        unsafe { _mm256_cvtph_ps(_mm_loadu_si128(src.as_ptr().cast())) }
    }
}

/// Writes `scores[i][t] = (Σ_j queries[i][j] · keys[t · stride + j]) ·
/// scale` for every query `i` and every `t < scores[i].len()` — each sum
/// taken in ascending `j` through one chain, bitwise
/// [`reference::head_scores_into`] of each query on its own.
///
/// `keys` starts at the head's first word of the run's first position.
///
/// # Panics
///
/// Panics if the queries differ in width, if there is not one score slice
/// per query, or if `keys` is too short for the longest one.
// Inlined (like `add_weighted_values`): out of line, the dispatch on the
// query count cost a one-query call of 16 positions a tenth of its time.
#[inline]
pub fn head_scores_into<E: KvWord>(
    queries: &[&[f32]],
    keys: &[E],
    stride: usize,
    scale: f32,
    scores: &mut [&mut [f32]],
) {
    assert_eq!(queries.len(), scores.len(), "one score slice per query");
    let width = queries.first().map_or(0, |q| q.len());
    assert!(
        queries.iter().all(|q| q.len() == width),
        "query widths differ"
    );
    #[cfg(all(target_feature = "avx2", target_feature = "f16c"))]
    if width.is_multiple_of(LANES) {
        for (qs, ss) in queries
            .chunks(QUERY_GROUP)
            .zip(scores.chunks_mut(QUERY_GROUP))
        {
            // SAFETY: compiled only where AVX2 and F16C are statically
            // enabled, so every CPU this build may run on has the feature
            // the callee requires.
            unsafe { avx2::head_scores_into(qs, keys, stride, scale, ss) };
        }
        return;
    }
    for (q, s) in queries.iter().zip(scores) {
        reference::head_scores_into(q, keys, stride, scale, s);
    }
}

/// Adds `weights[i][t] · values[t · stride + j]` to `outs[i][j]` for every
/// query `i` and every `t < weights[i].len()`, in ascending `t` — bitwise
/// [`reference::add_weighted_values`] of each query on its own. Called run
/// after run, each `outs[i]` carries one chain per element across the
/// whole context.
///
/// `values` starts at the head's first word of the run's first position.
///
/// # Panics
///
/// Panics if the outputs differ in width, if there is not one output per
/// weight slice, or if `values` is too short for the longest one.
#[inline] // see `head_scores_into`
pub fn add_weighted_values<E: KvWord>(
    weights: &[&[f32]],
    values: &[E],
    stride: usize,
    outs: &mut [&mut [f32]],
) {
    assert_eq!(weights.len(), outs.len(), "one output per weight slice");
    let width = outs.first().map_or(0, |o| o.len());
    assert!(
        outs.iter().all(|o| o.len() == width),
        "output widths differ"
    );
    #[cfg(all(target_feature = "avx2", target_feature = "f16c"))]
    if width.is_multiple_of(LANES) {
        let group = avx2::VALUE_QUERIES;
        for (ws, os) in weights.chunks(group).zip(outs.chunks_mut(group)) {
            // SAFETY: as in `head_scores_into`.
            unsafe { avx2::add_weighted_values(ws, values, stride, os) };
        }
        return;
    }
    for (w, o) in weights.iter().zip(outs) {
        reference::add_weighted_values(w, values, stride, o);
    }
}

/// Position `t`'s `width` words of a run.
#[inline]
fn row<E>(slab: &[E], stride: usize, t: usize, width: usize) -> &[E] {
    &slab[t * stride..t * stride + width]
}

/// The scalar loops, one query each: what defines the bits, and the
/// portable path.
pub mod reference {
    use super::{row, KvWord};

    /// Scalar [`head_scores_into`](super::head_scores_into) of one query.
    pub fn head_scores_into<E: KvWord>(
        q: &[f32],
        keys: &[E],
        stride: usize,
        scale: f32,
        scores: &mut [f32],
    ) {
        for (t, slot) in scores.iter_mut().enumerate() {
            let kh = row(keys, stride, t, q.len());
            let s: f32 = q.iter().zip(kh).map(|(a, b)| a * b.widen()).sum();
            *slot = s * scale;
        }
    }

    /// Scalar [`add_weighted_values`](super::add_weighted_values) of one
    /// query.
    pub fn add_weighted_values<E: KvWord>(
        weights: &[f32],
        values: &[E],
        stride: usize,
        out: &mut [f32],
    ) {
        for (t, w) in weights.iter().enumerate() {
            let vh = row(values, stride, t, out.len());
            for (o, vv) in out.iter_mut().zip(vh) {
                *o += w * vv.widen();
            }
        }
    }
}

#[cfg(all(target_feature = "avx2", target_feature = "f16c"))]
mod avx2 {
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_mul_ps, _mm256_permute2f128_ps, _mm256_set1_ps,
        _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
    };

    use super::{row, KvWord, LANES, QUERY_GROUP};

    const _: () = assert!(QUERY_GROUP == 4, "`head_scores_into` matches one to four");

    /// Output registers the value sum of one query keeps in flight: enough
    /// independent chains to cover the add latency, few enough to leave
    /// registers for the weight and the loaded row.
    const VALUE_BLOCK: usize = 4;

    /// Queries per value pass: two queries' blocks, the loaded row and a
    /// weight fit the 16 registers. Measured in a prefill step over paged
    /// 16-token blocks, the value sum of four queries took 8.6 ms as two
    /// passes of two, 11.4 ms as one pass of four with half the block each,
    /// 12.4 ms as one pass of four full blocks (spilling), 9.9 ms as four
    /// one-query passes.
    pub(super) const VALUE_QUERIES: usize = 2;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(v: __m256, dst: &mut [f32]) {
        let dst = &mut dst[..LANES];
        // SAFETY: `dst` is an exclusive slice of exactly `LANES` floats, so
        // the eight floats behind its pointer are writable and unaliased;
        // `storeu` has no alignment requirement.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
    }

    /// Transposes an 8 × 8 block: lane `i` of `result[j]` is lane `j` of
    /// `rows[i]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(r: [__m256; LANES]) -> [__m256; LANES] {
        let lo = |a, b| _mm256_unpacklo_ps(a, b);
        let hi = |a, b| _mm256_unpackhi_ps(a, b);
        let (t0, t1, t2, t3) = (
            lo(r[0], r[1]),
            hi(r[0], r[1]),
            lo(r[2], r[3]),
            hi(r[2], r[3]),
        );
        let (t4, t5, t6, t7) = (
            lo(r[4], r[5]),
            hi(r[4], r[5]),
            lo(r[6], r[7]),
            hi(r[6], r[7]),
        );
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }

    /// One to [`QUERY_GROUP`] (four) queries; the caller cuts longer lists.
    #[target_feature(enable = "avx2")]
    pub(super) fn head_scores_into<E: KvWord>(
        queries: &[&[f32]],
        keys: &[E],
        stride: usize,
        scale: f32,
        scores: &mut [&mut [f32]],
    ) {
        match queries.len() {
            4 => scores_pass::<E, 4>(fixed(queries), keys, stride, scale, fixed_mut(scores)),
            3 => scores_pass::<E, 3>(fixed(queries), keys, stride, scale, fixed_mut(scores)),
            2 => scores_pass::<E, 2>(fixed(queries), keys, stride, scale, fixed_mut(scores)),
            _ => scores_pass::<E, 1>(fixed(queries), keys, stride, scale, fixed_mut(scores)),
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn scores_pass<E: KvWord, const Q: usize>(
        queries: &[&[f32]; Q],
        keys: &[E],
        stride: usize,
        scale: f32,
        scores: &mut [&mut [f32]; Q],
    ) {
        let width = queries[0].len();
        let n = scores.iter().map(|s| s.len()).max().unwrap_or(0);
        let scale = _mm256_set1_ps(scale);
        for t in (0..n).step_by(LANES) {
            // The last group of a run may be short: its spare lanes repeat
            // the run's last position (always in bounds) and are dropped.
            let position = |i: usize| (t + i).min(n - 1);
            let mut acc = [_mm256_set1_ps(-0.0); Q];
            for j in (0..width).step_by(LANES) {
                let rows =
                    std::array::from_fn(|i| E::load8(&row(keys, stride, position(i), width)[j..]));
                let qs: [&[f32; LANES]; Q] = std::array::from_fn(|i| {
                    let chunk = &queries[i][j..j + LANES];
                    chunk.try_into().expect("a chunk of LANES floats")
                });
                for (l, column) in transpose(rows).into_iter().enumerate() {
                    for (acc, q) in acc.iter_mut().zip(qs) {
                        *acc = _mm256_add_ps(*acc, _mm256_mul_ps(_mm256_set1_ps(q[l]), column));
                    }
                }
            }
            for (acc, scores) in acc.into_iter().zip(scores.iter_mut()) {
                let Some(mine) = scores.get_mut(t..) else {
                    continue;
                };
                let group = _mm256_mul_ps(acc, scale);
                match mine.first_chunk_mut::<LANES>() {
                    Some(full) => store(group, full),
                    None => {
                        let mut spill = [0.0; LANES];
                        store(group, &mut spill);
                        let len = mine.len();
                        mine.copy_from_slice(&spill[..len]);
                    }
                }
            }
        }
    }

    /// One or two queries; the caller cuts longer lists.
    #[target_feature(enable = "avx2")]
    pub(super) fn add_weighted_values<E: KvWord>(
        weights: &[&[f32]],
        values: &[E],
        stride: usize,
        outs: &mut [&mut [f32]],
    ) {
        match weights.len() {
            2 => values_pass::<E, 2>(fixed(weights), values, stride, fixed_mut(outs)),
            _ => values_pass::<E, 1>(fixed(weights), values, stride, fixed_mut(outs)),
        }
    }

    /// A list of queries as the array its pass takes; the caller matched
    /// on the list's length.
    fn fixed<T, const Q: usize>(list: &[T]) -> &[T; Q] {
        list.try_into().expect("a list of the matched length")
    }

    fn fixed_mut<T, const Q: usize>(list: &mut [T]) -> &mut [T; Q] {
        list.try_into().expect("a list of the matched length")
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn values_pass<E: KvWord, const Q: usize>(
        weights: &[&[f32]; Q],
        values: &[E],
        stride: usize,
        outs: &mut [&mut [f32]; Q],
    ) {
        let width = outs[0].len();
        let mut first = 0;
        while first < width {
            let block = ((width - first) / LANES).min(VALUE_BLOCK);
            let at = (first, width);
            match block {
                4 => value_block::<E, Q, 4>(weights, values, stride, at, outs),
                3 => value_block::<E, Q, 3>(weights, values, stride, at, outs),
                2 => value_block::<E, Q, 2>(weights, values, stride, at, outs),
                _ => value_block::<E, Q, 1>(weights, values, stride, at, outs),
            }
            first += block * LANES;
        }
    }

    /// The chains of `N` registers' worth of every query's output elements,
    /// starting at element `first` of a head `width` wide: first over the
    /// positions every query reads, sharing each loaded value row, then
    /// each query alone over the positions only it reads.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn value_block<E: KvWord, const Q: usize, const N: usize>(
        weights: &[&[f32]; Q],
        values: &[E],
        stride: usize,
        (first, width): (usize, usize),
        outs: &mut [&mut [f32]; Q],
    ) {
        let mut acc: [[__m256; N]; Q] = std::array::from_fn(|i| {
            std::array::from_fn(|v| f32::load8(&outs[i][first + v * LANES..]))
        });
        let shared = weights.iter().map(|w| w.len()).min().unwrap_or(0);
        let common = weights.map(|w| &w[..shared]);
        for t in 0..shared {
            let vh = &row(values, stride, t, width)[first..];
            let v: [__m256; N] = std::array::from_fn(|v| E::load8(&vh[v * LANES..]));
            for (acc, w) in acc.iter_mut().zip(common) {
                let w = _mm256_set1_ps(w[t]);
                for (acc, v) in acc.iter_mut().zip(v) {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(w, v));
                }
            }
        }
        for (acc, weights) in acc.iter_mut().zip(weights) {
            for (t, w) in weights.iter().enumerate().skip(shared) {
                let w = _mm256_set1_ps(*w);
                let vh = &row(values, stride, t, width)[first..];
                for (v, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(w, E::load8(&vh[v * LANES..])));
                }
            }
        }
        for (out, acc) in outs.iter_mut().zip(acc) {
            for (v, acc) in acc.into_iter().enumerate() {
                store(acc, &mut out[first + v * LANES..]);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::F16;

        /// `load8` widened through the one vector store the kernels use.
        fn widened(words: &[F16]) -> [f32; LANES] {
            let mut lanes = [0.0; LANES];
            // SAFETY: the test binary is built with the features of the
            // module it tests, so the CPU it runs on has AVX2.
            unsafe { store(F16::load8(words), &mut lanes) };
            lanes
        }

        #[test]
        fn f16c_load_widens_every_word_as_to_f32_does() {
            // All 65,536 patterns, eight per load; the only ones allowed to
            // differ are the 1,022 signalling NaNs (exponent all ones,
            // quiet bit clear, mantissa non-zero), which F16C quiets and
            // `F16::from_f32` never returns.
            let words: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
            let mut signalling = 0;
            for chunk in words.chunks_exact(LANES) {
                for (word, got) in chunk.iter().zip(widened(chunk)) {
                    if word.is_nan() && word.to_bits() & 0x0200 == 0 {
                        signalling += 1;
                        assert!(got.is_nan(), "{word:?} stays a NaN");
                        continue;
                    }
                    assert_eq!(got.to_bits(), word.to_f32().to_bits(), "{word:?}");
                }
            }
            assert_eq!(signalling, 1022);
        }
    }
}
