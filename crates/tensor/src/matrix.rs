//! Dense row-major `f32` matrix used for model weights.

use crate::gemv::{dot_batch, rows_in_pairs};
use crate::{ShapeError, Vector};

/// Row-addressable weight storage: what a row-skipping kernel needs to know
/// about a matrix, and nothing about how its elements are encoded. The
/// sparse kernels are generic over this trait (statically dispatched), so
/// one kernel body serves [`Matrix`] and
/// [`BlockQuantizedMatrix`](crate::BlockQuantizedMatrix) — a storage format
/// only changes how a weight row is *read*, never the reduction order.
pub trait WeightRows: Sync {
    /// Bytes one weight counts for in the op accounting (what a skipped row
    /// saves in "DRAM" traffic).
    const ACCOUNTED_BYTES: u64;

    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// `W_r · x` for `out.len()` inputs — stored back to back in `xs` — in
    /// one read of the row; `out[n]` is input `n`'s product through the
    /// format's fixed-order reduction, whatever the number of inputs.
    fn dot_row_batch(&self, r: usize, xs: &[f32], out: &mut [f32]);

    /// One worker's share of [`gemm_rows_into`](crate::gemv::gemm_rows_into)
    /// at two or more inputs: the rows of `out` (`batch` results each, the
    /// first one row `first`) through [`dot_row_batch`](Self::dot_row_batch)
    /// where `keep` keeps the row, zeros where it does not. The row order
    /// does not change a bit of the results; the default walks the rows in
    /// order, [`Matrix`] takes them in pairs for its AVX2 tile.
    fn dot_kept_rows(
        &self,
        first: usize,
        keep: &impl Fn(usize) -> bool,
        xs: &[f32],
        batch: usize,
        out: &mut [f32],
    ) {
        for (r, out_row) in (first..).zip(out.chunks_exact_mut(batch)) {
            if keep(r) {
                self.dot_row_batch(r, xs, out_row);
            } else {
                out_row.fill(0.0);
            }
        }
    }

    /// Reader of columns `start..start + len` of row `r`: `read(i)` is the
    /// `f32` value of column `start + i`.
    fn row_span(&self, r: usize, start: usize, len: usize) -> impl Fn(usize) -> f32 + Copy + '_;
}

impl WeightRows for Matrix {
    /// `f32` in memory, accounted as the FP16 storage of the paper's GPU.
    const ACCOUNTED_BYTES: u64 = 2;

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    #[inline] // see the int8 impl
    fn dot_row_batch(&self, r: usize, xs: &[f32], out: &mut [f32]) {
        dot_batch(self.row(r), xs, out);
    }

    fn dot_kept_rows(
        &self,
        first: usize,
        keep: &impl Fn(usize) -> bool,
        xs: &[f32],
        batch: usize,
        out: &mut [f32],
    ) {
        rows_in_pairs(self, first, keep, xs, batch, out);
    }

    #[inline] // see the int8 impl
    fn row_span(&self, r: usize, start: usize, len: usize) -> impl Fn(usize) -> f32 + Copy + '_ {
        let row = &self.row(r)[start..start + len];
        move |i| row[i]
    }
}

/// A dense, row-major `f32` matrix.
///
/// In the SparseInfer setting a weight matrix `W ∈ R^{k×d}` is stored row-major
/// precisely because activation sparsity is exploited *per row*: if output
/// element `i` is predicted sparse, row `W_i` (one contiguous stripe of
/// memory) is never loaded. [`Matrix::row`] therefore returns a contiguous
/// slice, which is what the skip logic in the `sparse` crate operates on.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
/// assert_eq!(m[(0, 2)], 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::BadBuffer`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::BadBuffer {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The contiguous slice holding row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Read-only view of the whole row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the whole row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the transposed matrix (allocates).
    ///
    /// The paper stores `W_down` transposed at model-load time so that output
    /// sparsity skips *rows* instead of columns (§IV-B4); this is the helper
    /// that performs that one-time transformation.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Iterates over rows as contiguous slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Multiplies a row of this matrix with a vector (inner product).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::DimensionMismatch`] if `x.len() != self.cols()`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_dot(&self, r: usize, x: &Vector) -> Result<f32, ShapeError> {
        if x.len() != self.cols {
            return Err(ShapeError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        Ok(self
            .row(r)
            .iter()
            .zip(x.as_slice())
            .map(|(w, xi)| w * xi)
            .sum())
    }

    /// Total number of `f32` elements.
    pub fn element_count(&self) -> usize {
        self.data.len()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_validates_buffer_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![0.0; 5]),
            Err(ShapeError::BadBuffer {
                rows: 2,
                cols: 2,
                len: 5
            })
        ));
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let t = m.transposed();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert_eq!(t[(2, 1)], m[(1, 2)]);
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn row_dot_matches_manual() {
        let m = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let x = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        // row 1 = [1, 2, 3]
        assert_eq!(m.row_dot(1, &x).unwrap(), 1.0 + 4.0 + 9.0);
    }

    #[test]
    fn row_dot_rejects_bad_shape() {
        let m = Matrix::zeros(2, 3);
        let x = Vector::zeros(2);
        assert!(m.row_dot(0, &x).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.row(2);
    }

    #[test]
    fn iter_rows_yields_every_row() {
        let m = Matrix::from_fn(3, 2, |r, _| r as f32);
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[2.0, 2.0]);
    }

    #[test]
    fn index_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m[(1, 0)] = 7.0;
        assert_eq!(m.row(1), &[7.0, 0.0]);
    }
}
