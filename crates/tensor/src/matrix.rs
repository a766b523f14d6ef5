//! Dense row-major `f32` matrix used for model weights.

use crate::gemv::{dot_batch, dot_rows_batch, kept_rows_by, prefetch, Rows, COLUMN_ROWS};
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

    /// One worker's share of [`gemm_rows_into`](crate::gemv::gemm_rows_into)
    /// at any number of inputs: for each of its rows (`(first, rows)`: with
    /// [`Rows::All`] the rows `first..`, else the listed ones), the row's
    /// product with each of the `batch` inputs stored back to back in `xs`,
    /// through the format's fixed-order reduction, `batch` results per row
    /// in `out`, rows in order. Neither the batch nor the order the rows
    /// are taken in changes a bit of the results. `f32` rows go four at a
    /// time through a tile at any batch, int8 rows one at a time; a listed
    /// walk [`prefetch`](Self::prefetch)es the rows ahead.
    fn dot_kept_rows(&self, rows: (usize, Rows<'_>), xs: &[f32], batch: usize, out: &mut [f32]);

    /// Asks the memory system for the head (the first 256 bytes) of
    /// columns `start..start + len` of row `r` ahead of their use: a hint,
    /// which changes no result (and does nothing in a build without AVX2).
    fn prefetch(&self, r: usize, start: usize, len: usize);

    /// Columns a [`row_span`](Self::row_span) may cover: no span crosses a
    /// multiple of this many columns.
    const SPAN: usize;

    /// Reader of columns `start..start + len` of row `r`, a span that does
    /// not cross a multiple of [`SPAN`](Self::SPAN) columns: `read(i)` is
    /// the `f32` value of column `start + i`.
    fn row_span(&self, r: usize, start: usize, len: usize) -> impl Fn(usize) -> f32 + Copy + '_;
}

impl WeightRows for Matrix {
    /// `f32` in memory, accounted as the FP16 storage of the paper's GPU.
    const ACCOUNTED_BYTES: u64 = 2;
    const SPAN: usize = usize::MAX;

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn dot_kept_rows(&self, rows: (usize, Rows<'_>), xs: &[f32], batch: usize, out: &mut [f32]) {
        let row = |r| self.row(r);
        let tile = |rows: [usize; COLUMN_ROWS], outs: [&mut [f32]; COLUMN_ROWS]| {
            dot_rows_batch(rows.map(row), xs, outs)
        };
        let one = |r, out: &mut [f32]| dot_batch(row(r), xs, out);
        let ahead = |r| self.prefetch(r, 0, self.cols);
        kept_rows_by(rows, batch, out, tile, one, ahead);
    }

    #[inline]
    fn prefetch(&self, r: usize, start: usize, len: usize) {
        prefetch(&self.row(r)[start..start + len]);
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
/// slice, which is what the row-skipping kernels of [`crate::gemv`] operate on.
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
///
/// The first element sits on a 64-byte cache-line boundary
/// (see `LineAligned`), so a row of a multiple of 16 columns is whole lines
/// and no 32-byte load of a kernel splits one: the allocator's own
/// placement (16 bytes past a line for the large blocks it maps, 48 for
/// some small ones) made every other load of such a row a split load, and
/// a one-column pass over a 512×256 matrix in L2 took 1.28× the time.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: LineAligned<f32>,
}

impl Matrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: LineAligned::collect(rows * cols, std::iter::repeat(0.0)),
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for (c, v) in m.row_mut(r).iter_mut().enumerate() {
                *v = f(r, c);
            }
        }
        m
    }

    /// Wraps an existing row-major buffer (copied into aligned storage).
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
        Ok(Self {
            rows,
            cols,
            data: LineAligned::collect(rows * cols, data),
        })
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
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
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

/// Weight storage whose first element sits on an [`ALIGN`] boundary: up
/// to a line of padding ahead of the elements, in the same allocation, so
/// no `unsafe` is needed. A clone is aligned afresh; comparison and
/// `Debug` see the elements only. For element types whose size divides
/// [`ALIGN`] (`f32`, `i8`).
pub(crate) struct LineAligned<T> {
    /// The elements from `store[offset]`, the first line boundary in it.
    store: Vec<T>,
    offset: usize,
}

/// Alignment of a [`LineAligned`] buffer's first element, in bytes: one
/// cache line.
const ALIGN: usize = 64;

impl<T: Copy + Default> LineAligned<T> {
    /// The first `len` of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` has fewer.
    pub(crate) fn collect(len: usize, items: impl IntoIterator<Item = T>) -> Self {
        let size = size_of::<T>();
        let mut store = Vec::<T>::with_capacity(len + ALIGN / size - 1);
        let offset = store.as_ptr().addr().wrapping_neg() % ALIGN / size;
        store.resize(offset, T::default());
        store.extend(items.into_iter().take(len));
        assert_eq!(store.len(), offset + len, "too few elements");
        Self { store, offset }
    }
}

impl<T> std::ops::Deref for LineAligned<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.store[self.offset..]
    }
}

impl<T> std::ops::DerefMut for LineAligned<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.store[self.offset..]
    }
}

impl<T: Copy + Default> Clone for LineAligned<T> {
    fn clone(&self) -> Self {
        Self::collect(self.len(), self.iter().copied())
    }
}

impl<T: PartialEq> PartialEq for LineAligned<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for LineAligned<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
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
    fn storage_starts_on_a_cache_line_and_compares_by_contents() {
        let aligned = |m: &Matrix| m.as_slice().as_ptr().addr().is_multiple_of(ALIGN);
        for (rows, cols) in [(1, 1), (3, 5), (128, 128), (512, 256)] {
            let m = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
            let v = Matrix::from_vec(rows, cols, m.as_slice().to_vec()).unwrap();
            let copy = m.clone();
            for m in [&m, &v, &copy, &Matrix::zeros(rows, cols), &m.transposed()] {
                assert!(aligned(m), "{rows}x{cols}");
            }
            assert_eq!(m.as_slice().len(), rows * cols);
            assert_eq!((v == m, copy == m), (true, true));
            assert_eq!(format!("{copy:?}"), format!("{m:?}"));
        }
        assert_ne!(Matrix::zeros(2, 3), Matrix::zeros(3, 2));
    }

    #[test]
    fn index_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m[(1, 0)] = 7.0;
        assert_eq!(m.row(1), &[7.0, 0.0]);
    }
}
