//! The two inner loops of one attention head over a *run* of cached
//! positions: the scores `q · k[t]` and the weighted value sum
//! `out += w[t] · v[t]`.
//!
//! A run is a slab of consecutive cached positions, `stride` floats apart
//! (the model dimension), of which one head reads `head_dim` floats each —
//! one block of a KV cache, which for a capacity-reserved cache is its
//! whole context. The caller walks the runs and keeps the softmax between
//! the two loops scalar (a vector `exp` would move bits).
//!
//! Both loops exist twice. [`reference`](mod@reference) is the scalar code attention ran
//! before this module existed: one sequential add chain per score, one
//! position-ascending chain per output element. It is what the tests
//! compare against, and it is the portable path — a build without AVX2
//! (`RUSTFLAGS=""`), or a head width that is not a multiple of eight, runs
//! it. On AVX2 the same chains are kept **bit for bit** and computed eight
//! at a time:
//!
//! * **scores** — eight positions per pass: 8 × 8 blocks of the key slab
//!   are transposed in registers so that lane `i` of column `j` holds
//!   `k[t + i][j]`, and `acc = acc + q[j] * column_j` (separate multiply
//!   and add, no FMA, `acc` starting at `-0.0` as `Iterator::sum` does)
//!   carries in lane `i` exactly the reference chain of position `t + i`.
//!   Without the transposes a lane would have to sum across positions or
//!   across `j` in another order; with them the add latency of one chain
//!   overlaps seven others.
//! * **value sum** — eight output elements per register, up to 32 in
//!   flight: each element's chain is independent and position-ascending,
//!   so the accumulators stay in registers across the whole run instead of
//!   round-tripping through `out` per position.
//!
//! # Safety
//!
//! The crate is `#![deny(unsafe_code)]`; the allow below covers two kinds
//! of `unsafe` block, both with local proofs. The vector functions are
//! `#[target_feature(enable = "avx2")]`, which makes calling them from
//! ordinary code unsafe — the two entry points do so under
//! `cfg(target_feature = "avx2")`, i.e. only in a build that already
//! requires the feature of every CPU it runs on. And the unaligned vector
//! load and store need eight readable (writable) floats behind their
//! pointer, which a slice of checked length establishes right there. The
//! arithmetic and shuffle intrinsics are safe inside those functions.

#![allow(unsafe_code)]

/// Floats per vector register, and positions per score pass.
#[cfg(target_feature = "avx2")]
const LANES: usize = 8;

/// Writes `scores[t] = (Σ_j q[j] · keys[t · stride + j]) · scale` for every
/// `t` — the sum taken in ascending `j` through one chain, bitwise
/// [`reference::head_scores_into`].
///
/// `keys` starts at the head's first float of the run's first position.
///
/// # Panics
///
/// Panics if `keys` is too short for `scores.len()` positions.
pub fn head_scores_into(q: &[f32], keys: &[f32], stride: usize, scale: f32, scores: &mut [f32]) {
    #[cfg(target_feature = "avx2")]
    if q.len().is_multiple_of(LANES) {
        // SAFETY: compiled only where AVX2 is statically enabled, so every
        // CPU this build may run on has the feature the callee requires.
        return unsafe { avx2::head_scores_into(q, keys, stride, scale, scores) };
    }
    reference::head_scores_into(q, keys, stride, scale, scores);
}

/// Adds `weights[t] · values[t · stride + j]` to `out[j]` for every
/// position `t`, in ascending `t` — bitwise
/// [`reference::add_weighted_values`]. Called run after run, `out` carries
/// one chain per element across the whole context.
///
/// `values` starts at the head's first float of the run's first position.
///
/// # Panics
///
/// Panics if `values` is too short for `weights.len()` positions.
pub fn add_weighted_values(weights: &[f32], values: &[f32], stride: usize, out: &mut [f32]) {
    #[cfg(target_feature = "avx2")]
    if out.len().is_multiple_of(LANES) {
        // SAFETY: as in `head_scores_into`.
        return unsafe { avx2::add_weighted_values(weights, values, stride, out) };
    }
    reference::add_weighted_values(weights, values, stride, out);
}

/// Position `t`'s `width` floats of a run.
#[inline]
fn row(slab: &[f32], stride: usize, t: usize, width: usize) -> &[f32] {
    &slab[t * stride..t * stride + width]
}

/// The scalar loops: what defines the bits, and the portable path.
pub mod reference {
    use super::row;

    /// Scalar [`head_scores_into`](super::head_scores_into).
    pub fn head_scores_into(
        q: &[f32],
        keys: &[f32],
        stride: usize,
        scale: f32,
        scores: &mut [f32],
    ) {
        for (t, slot) in scores.iter_mut().enumerate() {
            let kh = row(keys, stride, t, q.len());
            let s: f32 = q.iter().zip(kh).map(|(a, b)| a * b).sum();
            *slot = s * scale;
        }
    }

    /// Scalar [`add_weighted_values`](super::add_weighted_values).
    pub fn add_weighted_values(weights: &[f32], values: &[f32], stride: usize, out: &mut [f32]) {
        for (t, w) in weights.iter().enumerate() {
            let vh = row(values, stride, t, out.len());
            for (o, vv) in out.iter_mut().zip(vh) {
                *o += w * vv;
            }
        }
    }
}

#[cfg(target_feature = "avx2")]
mod avx2 {
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_permute2f128_ps,
        _mm256_set1_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_unpackhi_ps,
        _mm256_unpacklo_ps,
    };

    use super::{row, LANES};

    /// Output registers the value sum keeps in flight: enough independent
    /// chains to cover the add latency, few enough to leave registers for
    /// the weight and the loaded row.
    const VALUE_BLOCK: usize = 4;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(src: &[f32]) -> __m256 {
        let src = &src[..LANES];
        // SAFETY: `src` is a live slice of exactly `LANES` floats, so the
        // eight floats behind its pointer are readable; `loadu` has no
        // alignment requirement.
        unsafe { _mm256_loadu_ps(src.as_ptr()) }
    }

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

    #[target_feature(enable = "avx2")]
    pub(super) fn head_scores_into(
        q: &[f32],
        keys: &[f32],
        stride: usize,
        scale: f32,
        scores: &mut [f32],
    ) {
        let n = scores.len();
        let scale = _mm256_set1_ps(scale);
        for t in (0..n).step_by(LANES) {
            // The last group of a run may be short: its spare lanes repeat
            // the run's last position (always in bounds) and are dropped.
            let position = |i: usize| (t + i).min(n - 1);
            let mut acc = _mm256_set1_ps(-0.0);
            for j in (0..q.len()).step_by(LANES) {
                let rows =
                    std::array::from_fn(|i| load(&row(keys, stride, position(i), q.len())[j..]));
                for (qj, column) in q[j..j + LANES].iter().zip(transpose(rows)) {
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(*qj), column));
                }
            }
            let group = _mm256_mul_ps(acc, scale);
            match scores[t..].first_chunk_mut::<LANES>() {
                Some(full) => store(group, full),
                None => {
                    let mut spill = [0.0; LANES];
                    store(group, &mut spill);
                    scores[t..].copy_from_slice(&spill[..n - t]);
                }
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn add_weighted_values(
        weights: &[f32],
        values: &[f32],
        stride: usize,
        out: &mut [f32],
    ) {
        let width = out.len();
        let mut first = 0;
        for block in out.chunks_mut(VALUE_BLOCK * LANES) {
            match block.len() / LANES {
                4 => value_block::<4>(weights, values, stride, first, width, block),
                3 => value_block::<3>(weights, values, stride, first, width, block),
                2 => value_block::<2>(weights, values, stride, first, width, block),
                _ => value_block::<1>(weights, values, stride, first, width, block),
            }
            first += block.len();
        }
    }

    /// The chains of `N` registers' worth of output elements, starting at
    /// element `first` of a head `width` wide, over every position.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn value_block<const N: usize>(
        weights: &[f32],
        values: &[f32],
        stride: usize,
        first: usize,
        width: usize,
        out: &mut [f32],
    ) {
        let mut acc: [__m256; N] = std::array::from_fn(|v| load(&out[v * LANES..]));
        for (t, w) in weights.iter().enumerate() {
            let w = _mm256_set1_ps(*w);
            let vh = &row(values, stride, t, width)[first..];
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(w, load(&vh[v * LANES..])));
            }
        }
        for (v, acc) in acc.into_iter().enumerate() {
            store(acc, &mut out[v * LANES..]);
        }
    }
}
