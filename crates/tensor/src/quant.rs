//! Per-row symmetric INT8 quantization.
//!
//! A second quantization scheme (besides [`crate::f16`]) used to demonstrate
//! the paper's claim that the sign-bit predictor is robust to the storage
//! format: symmetric INT8 maps `w` to `round(w / scale)` with a per-row
//! `scale = max|w| / 127`, which preserves the sign of every element (up to
//! values that quantize to zero, which contribute nothing to the inner
//! product anyway).

use crate::gemv::{dot_q8, dot_q8_batch, kept_rows_by, prefetch, Rows, DOT_LANES, QUANT_BLOCK};
use crate::matrix::WeightRows;
use crate::{sign::PackedSignMatrix, Matrix};

/// A matrix quantized to INT8 with one `f32` scale per row.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::{Matrix, QuantizedMatrix};
///
/// let m = Matrix::from_fn(2, 4, |r, c| (r as f32 + 1.0) * (c as f32 - 1.5));
/// let q = QuantizedMatrix::quantize(&m);
/// let back = q.dequantize();
/// for r in 0..2 {
///     for c in 0..4 {
///         assert!((back[(r, c)] - m[(r, c)]).abs() < 0.05);
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    values: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes `m` row by row with symmetric scaling.
    pub fn quantize(m: &Matrix) -> Self {
        let rows = m.rows();
        let cols = m.cols();
        let mut values = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for row in m.iter_rows() {
            let maxabs = row.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let scale = if maxabs == 0.0 { 1.0 } else { maxabs / 127.0 };
            scales.push(scale);
            for v in row {
                let q = (v / scale).round().clamp(-127.0, 127.0) as i8;
                values.push(q);
            }
        }
        Self {
            rows,
            cols,
            values,
            scales,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantized row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[i8] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.values[r * self.cols..(r + 1) * self.cols]
    }

    /// Per-row scale factors.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Reconstructs the full-precision approximation.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            f32::from(self.values[r * self.cols + c]) * self.scales[r]
        })
    }

    /// Packs the sign bits of the *quantized* representation.
    ///
    /// This is the INT8 path of the paper's portability claim: the predictor
    /// consumes MSBs of whatever format the weights are stored in. Elements
    /// that quantized to exactly 0 pack as "positive"; they are products that
    /// contribute nothing, and the Gaussian-symmetry argument is unaffected.
    pub fn packed_signs(&self) -> PackedSignMatrix {
        let as_f32 = Matrix::from_fn(self.rows, self.cols, |r, c| {
            f32::from(self.values[r * self.cols + c])
        });
        PackedSignMatrix::pack(&as_f32)
    }

    /// Storage footprint in bytes: one `i8` per element plus one `f32` scale
    /// per row.
    pub fn size_bytes(&self) -> usize {
        self.values.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Inner product of quantized row `r` with an f32 vector, dequantizing on
    /// the fly (the way a W8A32 GEMV kernel consumes the weights).
    ///
    /// Uses the same eight-lane accumulate and fixed reduction tree as
    /// [`crate::gemv::dot`] (a per-row scale is one block spanning the whole
    /// row), replacing the original single-accumulator loop — allocation-free
    /// and deterministic at any chunking.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn row_dot(&self, r: usize, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.cols, "row_dot length mismatch");
        let q = self.row(r);
        let main = q.len() - q.len() % DOT_LANES;
        let mut acc = [0.0f32; DOT_LANES];
        let (q_main, q_tail) = q.split_at(main);
        let (x_main, x_tail) = x.split_at(main.min(x.len()));
        for (ca, cb) in q_main
            .chunks_exact(DOT_LANES)
            .zip(x_main.chunks_exact(DOT_LANES))
        {
            for l in 0..DOT_LANES {
                acc[l] += f32::from(ca[l]) * cb[l];
            }
        }
        for (l, (qv, xv)) in q_tail.iter().zip(x_tail).enumerate() {
            acc[l] += f32::from(*qv) * xv;
        }
        let sum = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
        sum * self.scales[r]
    }
}

/// A matrix quantized to INT8 with one `f32` scale per [`QUANT_BLOCK`]
/// columns of each row — the storage format of the fused block-dequant GEMV
/// ([`crate::gemv::dot_q8`]).
///
/// Compared to the per-row [`QuantizedMatrix`], per-block scales bound the
/// quantization error by the local (not row-wide) magnitude, and they map
/// one-to-one onto the fused kernel's block loop: the row is dequantized
/// *inside* the eight-lane accumulate, never materialized as `f32`.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::{BlockQuantizedMatrix, Matrix};
///
/// let m = Matrix::from_fn(2, 64, |r, c| (r as f32 + 1.0) * ((c as f32) - 31.5) / 32.0);
/// let q = BlockQuantizedMatrix::quantize(&m);
/// let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.1).sin()).collect();
/// let exact: f32 = m.row(1).iter().zip(&x).map(|(w, xi)| w * xi).sum();
/// assert!((q.row_dot(1, &x) - exact).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockQuantizedMatrix {
    rows: usize,
    cols: usize,
    values: Vec<i8>,
    /// One scale per `QUANT_BLOCK` columns per row, row-major.
    scales: Vec<f32>,
    /// Scale blocks per row (`cols.div_ceil(QUANT_BLOCK)`).
    row_blocks: usize,
}

impl BlockQuantizedMatrix {
    /// Quantizes `m` with symmetric per-block scaling (`scale = max|w| / 127`
    /// over each block; an all-zero block takes scale 1).
    pub fn quantize(m: &Matrix) -> Self {
        let rows = m.rows();
        let cols = m.cols();
        let row_blocks = cols.div_ceil(QUANT_BLOCK);
        let mut values = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows * row_blocks);
        for row in m.iter_rows() {
            for block in row.chunks(QUANT_BLOCK) {
                let maxabs = block.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
                let scale = if maxabs == 0.0 { 1.0 } else { maxabs / 127.0 };
                scales.push(scale);
                for v in block {
                    values.push((v / scale).round().clamp(-127.0, 127.0) as i8);
                }
            }
        }
        Self {
            rows,
            cols,
            values,
            scales,
            row_blocks,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Scale blocks per row.
    pub fn row_blocks(&self) -> usize {
        self.row_blocks
    }

    /// The quantized row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[i8] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.values[r * self.cols..(r + 1) * self.cols]
    }

    /// The per-block scales of row `r` (block `b` covers columns
    /// `b * QUANT_BLOCK ..`).
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_scales(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.scales[r * self.row_blocks..(r + 1) * self.row_blocks]
    }

    /// Reconstructs the full-precision approximation.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            f32::from(self.values[r * self.cols + c])
                * self.scales[r * self.row_blocks + c / QUANT_BLOCK]
        })
    }

    /// Storage footprint in bytes: one `i8` per element plus one `f32` scale
    /// per block.
    pub fn size_bytes(&self) -> usize {
        self.values.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Fused block-dequant inner product of row `r` with `x` — one call to
    /// [`crate::gemv::dot_q8`], so the reduction order (and therefore the
    /// bits) is identical however callers partition rows across threads.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn row_dot(&self, r: usize, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.cols, "row_dot length mismatch");
        dot_q8(self.row(r), self.row_scales(r), x)
    }
}

impl WeightRows for BlockQuantizedMatrix {
    const ACCOUNTED_BYTES: u64 = 1;
    /// A span lies in one scale block, so its reader scales by one factor.
    const SPAN: usize = QUANT_BLOCK;

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn dot_kept_rows(&self, rows: (usize, Rows<'_>), xs: &[f32], batch: usize, out: &mut [f32]) {
        let one = |r, out: &mut [f32]| dot_q8_batch(self.row(r), self.row_scales(r), xs, out);
        let ahead = |r| self.prefetch(r, 0, self.cols);
        kept_rows_by(rows, batch, out, |[r], [out]| one(r, out), one, ahead);
    }

    #[inline]
    fn prefetch(&self, r: usize, start: usize, len: usize) {
        prefetch(&self.row(r)[start..start + len]);
        let blocks = start / QUANT_BLOCK..(start + len).div_ceil(QUANT_BLOCK);
        prefetch(&self.row_scales(r)[blocks]);
    }

    /// Dequantizes in the read with the scale of the span's block, chosen
    /// by the element's *global* column, so where a span starts cannot
    /// change the arithmetic.
    // Measured: without the hint the read is not inlined across the crate
    // boundary into the 4-row loop and the int8 down projection runs ~40%
    // slower.
    #[inline]
    fn row_span(&self, r: usize, start: usize, len: usize) -> impl Fn(usize) -> f32 + Copy + '_ {
        let row = &self.row(r)[start..start + len];
        let scale = self.row_scales(r)[start / QUANT_BLOCK];
        move |i| f32::from(row[i]) * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> Matrix {
        Matrix::from_fn(6, 32, |r, c| ((r * 31 + c * 17) % 23) as f32 / 11.0 - 1.0)
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let m = sample_matrix();
        let q = QuantizedMatrix::quantize(&m);
        let back = q.dequantize();
        for r in 0..m.rows() {
            let tol = q.scales()[r] * 0.5 + 1e-6;
            for c in 0..m.cols() {
                assert!(
                    (back[(r, c)] - m[(r, c)]).abs() <= tol,
                    "({r},{c}): {} vs {}",
                    back[(r, c)],
                    m[(r, c)]
                );
            }
        }
    }

    #[test]
    fn signs_preserved_for_non_underflowing_values() {
        let m = sample_matrix();
        let q = QuantizedMatrix::quantize(&m);
        for r in 0..m.rows() {
            for (c, qv) in q.row(r).iter().enumerate() {
                if *qv != 0 {
                    assert_eq!((*qv < 0), m[(r, c)] < 0.0, "sign flipped at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn zero_row_quantizes_without_dividing_by_zero() {
        let m = Matrix::zeros(2, 8);
        let q = QuantizedMatrix::quantize(&m);
        assert!(q.row(0).iter().all(|v| *v == 0));
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn row_dot_tracks_full_precision_dot() {
        let m = sample_matrix();
        let q = QuantizedMatrix::quantize(&m);
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        for r in 0..m.rows() {
            let exact: f32 = m.row(r).iter().zip(&x).map(|(w, xi)| w * xi).sum();
            let approx = q.row_dot(r, &x);
            assert!(
                (exact - approx).abs() < 0.25,
                "row {r}: {exact} vs {approx}"
            );
        }
    }

    #[test]
    fn size_accounting_is_elements_plus_scales() {
        let q = QuantizedMatrix::quantize(&Matrix::zeros(4, 16));
        assert_eq!(q.size_bytes(), 4 * 16 + 4 * 4);
    }

    #[test]
    fn block_quantize_round_trip_error_is_bounded_by_half_block_scale() {
        let m = Matrix::from_fn(5, 100, |r, c| {
            // Mixed magnitudes so per-block scales differ within a row.
            let base = ((r * 53 + c * 29) % 31) as f32 / 7.0 - 2.0;
            if c / QUANT_BLOCK == 1 {
                base * 20.0
            } else {
                base
            }
        });
        let q = BlockQuantizedMatrix::quantize(&m);
        let back = q.dequantize();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let tol = q.row_scales(r)[c / QUANT_BLOCK] * 0.5 + 1e-6;
                assert!(
                    (back[(r, c)] - m[(r, c)]).abs() <= tol,
                    "({r},{c}): {} vs {}",
                    back[(r, c)],
                    m[(r, c)]
                );
            }
        }
    }

    #[test]
    fn block_scales_beat_row_scales_on_mixed_magnitude_rows() {
        // One huge block inflates a row-wide scale and wrecks the small
        // blocks; per-block scales keep their error local.
        let m = Matrix::from_fn(1, 96, |_, c| {
            if c < QUANT_BLOCK {
                1000.0 + c as f32
            } else {
                ((c * 13) % 17) as f32 / 100.0
            }
        });
        let per_row = QuantizedMatrix::quantize(&m).dequantize();
        let per_block = BlockQuantizedMatrix::quantize(&m).dequantize();
        let err = |back: &Matrix| -> f32 {
            (QUANT_BLOCK..96)
                .map(|c| (back[(0, c)] - m[(0, c)]).abs())
                .sum()
        };
        assert!(
            err(&per_block) < err(&per_row) / 10.0,
            "block {} vs row {}",
            err(&per_block),
            err(&per_row)
        );
    }

    #[test]
    fn block_quantized_row_dot_matches_fused_kernel_reference_bitwise() {
        let m = sample_matrix();
        let q = BlockQuantizedMatrix::quantize(&m);
        let x: Vec<f32> = (0..m.cols()).map(|i| (i as f32 * 0.31).cos()).collect();
        for r in 0..m.rows() {
            let via_matrix = q.row_dot(r, &x);
            let via_reference =
                crate::gemv::reference::dot_q8_blocks(q.row(r), q.row_scales(r), &x);
            assert_eq!(via_matrix.to_bits(), via_reference.to_bits(), "row {r}");
        }
    }

    #[test]
    fn block_quantized_unaligned_tail_block_round_trips() {
        // 41 columns: one full block + a 9-column tail block.
        let m = Matrix::from_fn(3, 41, |r, c| ((r * 7 + c * 3) % 13) as f32 / 5.0 - 1.0);
        let q = BlockQuantizedMatrix::quantize(&m);
        assert_eq!(q.row_blocks(), 2);
        assert_eq!(q.row_scales(2).len(), 2);
        let back = q.dequantize();
        for r in 0..3 {
            for c in 0..41 {
                let tol = q.row_scales(r)[c / QUANT_BLOCK] * 0.5 + 1e-6;
                assert!((back[(r, c)] - m[(r, c)]).abs() <= tol, "({r},{c})");
            }
        }
    }

    #[test]
    fn block_quantized_size_is_elements_plus_block_scales() {
        let q = BlockQuantizedMatrix::quantize(&Matrix::zeros(4, 100));
        // 4 rows × 100 int8 + 4 rows × 4 blocks × 4-byte scales.
        assert_eq!(q.size_bytes(), 4 * 100 + 4 * 4 * 4);
        // ~4x smaller than f32 storage, scales included.
        let fp32 = 4 * 100 * std::mem::size_of::<f32>();
        let ratio = fp32 as f64 / q.size_bytes() as f64;
        assert!((3.4..4.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn block_quantize_preserves_signs_and_zero_blocks() {
        let mut m = Matrix::from_fn(2, 64, |_, c| (c as f32 - 31.5) / 8.0);
        for c in 0..QUANT_BLOCK {
            m[(1, c)] = 0.0;
        }
        let q = BlockQuantizedMatrix::quantize(&m);
        assert!(q.row(1)[..QUANT_BLOCK].iter().all(|v| *v == 0));
        assert_eq!(q.row_scales(1)[0], 1.0, "zero block takes unit scale");
        for r in 0..2 {
            for (c, qv) in q.row(r).iter().enumerate() {
                if *qv != 0 {
                    assert_eq!((*qv < 0), m[(r, c)] < 0.0, "sign flipped at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn packed_signs_match_source_signs_where_nonzero() {
        let m = sample_matrix();
        let q = QuantizedMatrix::quantize(&m);
        let signs = q.packed_signs();
        for r in 0..m.rows() {
            for (c, qv) in q.row(r).iter().enumerate() {
                if *qv != 0 {
                    let bit = (signs.row(r)[c / 32] >> (c % 32)) & 1 == 1;
                    assert_eq!(bit, m[(r, c)] < 0.0);
                }
            }
        }
    }
}
