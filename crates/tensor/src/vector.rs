//! Dense `f32` vector used for activations and hidden states.

/// A dense, heap-allocated `f32` vector.
///
/// `Vector` is the activation container used throughout the workspace: model
/// hidden states, gate/up projections, logits. It deliberately exposes its
/// storage as a slice so kernels can iterate without abstraction overhead.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::Vector;
///
/// let v = Vector::from_fn(4, |i| i as f32);
/// assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
/// assert_eq!(v.dot(&v).unwrap(), 14.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f32>,
}

impl Vector {
    /// Creates a zero-filled vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector by evaluating `f` at every index.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> f32) -> Self {
        Self {
            data: (0..len).map(f).collect(),
        }
    }

    /// Wraps an existing buffer.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self { data }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Number of elements the buffer can hold without reallocating (memory
    /// accounting uses this, not `len`, to count retained heap).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Inner product with `other`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::DimensionMismatch`](crate::ShapeError) if the
    /// lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f32, crate::ShapeError> {
        if self.len() != other.len() {
            return Err(crate::ShapeError::DimensionMismatch {
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Element-wise (Hadamard) product, used for the gate application step of
    /// the gated MLP (`h3 = h1 ⊙ h2`).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::DimensionMismatch`](crate::ShapeError) if the
    /// lengths differ.
    pub fn hadamard(&self, other: &Vector) -> Result<Vector, crate::ShapeError> {
        if self.len() != other.len() {
            return Err(crate::ShapeError::DimensionMismatch {
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(Vector::from_vec(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a * b)
                .collect(),
        ))
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ; residual additions inside the model are
    /// structurally guaranteed to agree, so this is a programming error.
    pub fn add_assign(&mut self, other: &Vector) {
        assert_eq!(self.len(), other.len(), "vector add length mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Resizes to `len`, filling any new tail elements with `value`. Does
    /// not allocate while `len` stays within the buffer's capacity — the
    /// property the workspace hot path relies on.
    pub fn resize(&mut self, len: usize, value: f32) {
        self.data.resize(len, value);
    }

    /// Makes room for `len` elements in all: resizing up to `len` then
    /// allocates nothing. Leaves the elements as they are.
    pub fn reserve_len(&mut self, len: usize) {
        self.data.reserve(len.saturating_sub(self.data.len()));
    }

    /// Shortens to `len` elements (no-op if already shorter). Never
    /// allocates or shrinks capacity.
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Replaces the contents with a copy of `src`, resizing as needed (no
    /// allocation while `src.len()` fits the existing capacity).
    pub fn copy_from(&mut self, src: &[f32]) {
        self.data.clear();
        self.data.extend_from_slice(src);
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Fraction of elements that are exactly zero — the *activation sparsity*
    /// of this vector in the paper's sense.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|v| **v == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Index of the maximum element (greedy decoding argmax). Ties resolve to
    /// the lowest index; an empty vector returns `None`.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, v) in self.data.iter().enumerate() {
            if *v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Iterates over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl From<Vec<f32>> for Vector {
    fn from(data: Vec<f32>) -> Self {
        Self { data }
    }
}

impl FromIterator<f32> for Vector {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f32> for Vector {
    fn extend<I: IntoIterator<Item = f32>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl AsRef<[f32]> for Vector {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = Vector::zeros(5);
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        assert!(v.as_slice().iter().all(|x| *x == 0.0));
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn dot_product_matches_manual_sum() {
        let a = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = Vector::from_vec(vec![4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn dot_rejects_mismatched_lengths() {
        let a = Vector::zeros(3);
        let b = Vector::zeros(4);
        assert!(matches!(
            a.dot(&b),
            Err(crate::ShapeError::DimensionMismatch {
                expected: 3,
                actual: 4
            })
        ));
    }

    #[test]
    fn hadamard_is_elementwise() {
        let a = Vector::from_vec(vec![1.0, -2.0, 0.0]);
        let b = Vector::from_vec(vec![3.0, 3.0, 9.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[3.0, -6.0, 0.0]);
    }

    #[test]
    fn sparsity_counts_exact_zeros() {
        let v = Vector::from_vec(vec![0.0, 1.0, 0.0, 2.0]);
        assert_eq!(v.sparsity(), 0.5);
        assert_eq!(Vector::zeros(0).sparsity(), 0.0);
    }

    #[test]
    fn argmax_picks_first_maximum() {
        let v = Vector::from_vec(vec![1.0, 5.0, 5.0, 0.0]);
        assert_eq!(v.argmax(), Some(1));
        assert_eq!(Vector::zeros(0).argmax(), None);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Vector::from_vec(vec![1.0, 2.0]);
        a.add_assign(&Vector::from_vec(vec![3.0, 4.0]));
        assert_eq!(a.as_slice(), &[4.0, 6.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn norm_is_euclidean() {
        let v = Vector::from_vec(vec![3.0, 4.0]);
        assert_eq!(v.norm(), 5.0);
    }

    #[test]
    fn resize_fill_copy_from_manage_length_in_place() {
        let mut v = Vector::from_vec(vec![1.0, 2.0]);
        v.resize(4, 9.0);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 9.0, 9.0]);
        v.truncate(3);
        assert_eq!(v.len(), 3);
        v.fill(0.5);
        assert_eq!(v.as_slice(), &[0.5, 0.5, 0.5]);
        v.copy_from(&[7.0]);
        assert_eq!(v.as_slice(), &[7.0]);
    }

    #[test]
    fn collect_and_extend() {
        let mut v: Vector = (0..3).map(|i| i as f32).collect();
        v.extend([9.0]);
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 9.0]);
    }
}
