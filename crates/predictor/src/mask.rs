//! Row skip masks.
//!
//! A [`SkipMask`] marks, for one MLP block and one token, which of the `k`
//! intermediate rows are predicted (or known) to be zero and can therefore be
//! skipped in the gate, up and down GEMVs. It is a plain bitset; the union
//! operation implements the paper's *actual sparsity* compensation — exact
//! zeros discovered after the gate GEMV are OR-ed into the predicted mask
//! before the later steps (§IV: "adjusted skip flags, which is the union of
//! the predicted sparsity or previous flags and the actual sparsity").

/// Per-row skip flags for one MLP block (true = skip).
///
/// # Example
///
/// ```
/// use sparseinfer_predictor::SkipMask;
///
/// let mut mask = SkipMask::all_dense(4);
/// mask.set_skip(1);
/// mask.set_skip(3);
/// assert_eq!(mask.skip_count(), 2);
/// assert_eq!(mask.sparsity(), 0.5);
/// assert!(mask.is_skipped(3));
/// assert_eq!(mask.active_rows().collect::<Vec<_>>(), vec![0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipMask {
    words: Vec<u64>,
    len: usize,
}

impl SkipMask {
    /// Creates a mask with every row active (nothing skipped).
    pub fn all_dense(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a mask with every row skipped.
    pub fn all_skipped(len: usize) -> Self {
        let mut mask = Self::all_dense(0);
        mask.reset_skipped(len);
        mask
    }

    /// Builds a mask from a predicate over row indices (true = skip).
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> bool) -> Self {
        let mut mask = Self::all_dense(0);
        mask.reset_from_iter((0..len).map(f));
        mask
    }

    /// Builds the *actual sparsity* mask of a gate output: rows whose
    /// post-activation value is exactly zero.
    pub fn from_exact_zeros(h1: &sparseinfer_tensor::Vector) -> Self {
        Self::from_fn(h1.len(), |i| h1[i] == 0.0)
    }

    /// Resizes to `len` rows with every row active, reusing the existing
    /// word buffer (no allocation once its capacity suffices) — the
    /// in-place reset the allocation-free predictor path starts from.
    pub fn reset_dense(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Resizes to `len` rows with every row skipped, reusing the word
    /// buffer.
    pub fn reset_skipped(&mut self, len: usize) {
        self.reset_dense(len);
        for (w, word) in self.words.iter_mut().enumerate() {
            *word = u64::MAX >> (64 * (w + 1)).saturating_sub(len);
        }
    }

    /// Resizes to one row per item of `skips` (true = skip), reusing the
    /// word buffer, and stores the decisions 64 rows per word — the
    /// in-place [`from_fn`](Self::from_fn) the predictor writes its mask
    /// with.
    pub fn reset_from_iter(&mut self, skips: impl ExactSizeIterator<Item = bool>) {
        self.len = skips.len();
        self.words.clear();
        let mut word = 0;
        for (i, skip) in skips.enumerate() {
            word |= u64::from(skip) << (i % 64);
            if i % 64 == 63 {
                self.words.push(std::mem::take(&mut word));
            }
        }
        if !self.len.is_multiple_of(64) {
            self.words.push(word);
        }
    }

    /// Replaces this mask's contents with a copy of `other`, reusing the
    /// word buffer (the in-place analogue of `clone`).
    pub fn copy_from(&mut self, other: &SkipMask) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// The skip flags, 64 rows per word: bit `i` of word `w` is row
    /// `64 * w + i`. Bits past the last row are clear.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks row `i` as skipped.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set_skip(&mut self, i: usize) {
        assert!(i < self.len, "row {i} out of bounds ({} rows)", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Marks row `i` as active.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set_active(&mut self, i: usize) {
        assert!(i < self.len, "row {i} out of bounds ({} rows)", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether row `i` is skipped.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn is_skipped(&self, i: usize) -> bool {
        assert!(i < self.len, "row {i} out of bounds ({} rows)", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of skipped rows.
    pub fn skip_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of skipped rows (0 for an empty mask).
    pub fn sparsity(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.skip_count() as f64 / self.len as f64
    }

    /// In-place union: afterwards a row is skipped if it was skipped in
    /// *either* mask. This is the actual-sparsity compensation operator.
    ///
    /// # Panics
    ///
    /// Panics if the masks differ in length.
    pub fn union_with(&mut self, other: &SkipMask) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates over indices of rows that are *not* skipped.
    pub fn active_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |i| !self.is_skipped(*i))
    }

    /// Iterates over indices of skipped rows.
    pub fn skipped_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |i| self.is_skipped(*i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer_tensor::Vector;

    #[test]
    fn all_dense_skips_nothing() {
        let m = SkipMask::all_dense(100);
        assert_eq!(m.skip_count(), 0);
        assert_eq!(m.sparsity(), 0.0);
        assert_eq!(m.active_rows().count(), 100);
    }

    #[test]
    fn all_skipped_skips_everything() {
        let m = SkipMask::all_skipped(70);
        assert_eq!(m.skip_count(), 70);
        assert_eq!(m.sparsity(), 1.0);
        assert_eq!(m.active_rows().count(), 0);
    }

    #[test]
    fn set_and_clear_round_trip() {
        let mut m = SkipMask::all_dense(65);
        m.set_skip(64);
        assert!(m.is_skipped(64));
        m.set_active(64);
        assert!(!m.is_skipped(64));
    }

    #[test]
    fn union_is_bitwise_or() {
        let a = SkipMask::from_fn(8, |i| i % 2 == 0);
        let mut b = SkipMask::from_fn(8, |i| i < 2);
        b.union_with(&a);
        let expected: Vec<usize> = vec![0, 1, 2, 4, 6];
        assert_eq!(b.skipped_rows().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn union_never_unskips() {
        let mut a = SkipMask::all_skipped(10);
        a.union_with(&SkipMask::all_dense(10));
        assert_eq!(a.skip_count(), 10);
    }

    #[test]
    fn from_exact_zeros_marks_zero_positions() {
        let h1 = Vector::from_vec(vec![0.0, 1.5, 0.0, 0.25]);
        let m = SkipMask::from_exact_zeros(&h1);
        assert!(m.is_skipped(0));
        assert!(!m.is_skipped(1));
        assert!(m.is_skipped(2));
        assert!(!m.is_skipped(3));
    }

    #[test]
    fn reset_and_copy_work_in_place() {
        let mut m = SkipMask::all_skipped(70);
        m.reset_dense(70);
        assert_eq!(m.skip_count(), 0);
        m.reset_dense(5);
        assert_eq!(m.len(), 5);

        let src = SkipMask::from_fn(8, |i| i % 2 == 0);
        m.copy_from(&src);
        assert_eq!(m, src);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let m = SkipMask::all_dense(4);
        let _ = m.is_skipped(4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn union_length_mismatch_panics() {
        let mut a = SkipMask::all_dense(4);
        a.union_with(&SkipMask::all_dense(5));
    }
}
