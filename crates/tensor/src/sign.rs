//! Sign-bit packing and XOR/popcount primitives.
//!
//! This module is the Rust analogue of the paper's §IV-B1/§IV-B2 CUDA code:
//! the sign bits (MSBs) of 32 consecutive `f32` values are packed into one
//! `u32` word. The predictor then XORs the packed signs of a weight row with
//! the packed signs of the input vector — a set bit in the result marks an
//! element-wise product that will be *negative* — and popcounts the result.
//!
//! IEEE-754 detail: the sign bit of `-0.0` is set and the sign bit of `+0.0`
//! is clear, so packing is exactly `f32::is_sign_negative`. A zero element
//! contributes nothing to the inner product either way, and with continuous
//! weight distributions exact zeros are measure-zero; the paper's predictor
//! makes the same approximation.

/// Lanes per packed word — mirrors the CUDA warp size, which the paper's
/// kernel exploits so that one warp processes one packed word per thread.
pub const LANES: usize = 32;

/// Packs the sign bits of `values` into `words` in place (bit `j` of word
/// `i` = sign of element `i*32+j`), reusing the buffer's capacity — the
/// per-token packing step of the predictor, allocation-free after warm-up.
pub fn pack_signs_into(values: &[f32], words: &mut Vec<u32>) {
    words.clear();
    words.resize(values.len().div_ceil(LANES), 0);
    for (chunk, word) in values.chunks(LANES).zip(words.iter_mut()) {
        let mut w = 0u32;
        for (j, v) in chunk.iter().enumerate() {
            w |= u32::from(v.is_sign_negative()) << j;
        }
        *word = w;
    }
}

/// XOR+popcount sweep: `Σ popcount(a[i] ^ b[i])` over the common length,
/// one `popcnt` per word. A predictor row is a handful of words (8 for a
/// 256-wide gate): unrolled into four accumulators or 64-bit pairs, the
/// compiler's vector code for the short remainder made a 128-wide row's
/// sweep twice as slow as this loop.
#[inline]
pub fn xor_popcount_words(a: &[u32], b: &[u32]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Packed sign bits of an `f32` sequence, 32 signs per `u32` word.
///
/// Bit `j` of word `i` holds the sign of element `i * 32 + j` (1 = negative).
/// When the element count is not a multiple of 32, the trailing bits of the
/// last word are zero (treated as "positive", contributing to `N_pos`); model
/// dimensions in practice are multiples of 32, matching the paper's kernel
/// which assumes `ncols % 32 == 0`.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::SignPack;
///
/// let signs = SignPack::pack(&[1.0, -1.0, 3.5, -0.0]);
/// assert_eq!(signs.bit(0), false);
/// assert_eq!(signs.bit(1), true);
/// assert_eq!(signs.bit(3), true); // -0.0 has its sign bit set
/// assert_eq!(signs.count_negative(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignPack {
    words: Vec<u32>,
    len: usize,
}

impl SignPack {
    /// Packs the sign bits of `values` (1 = negative).
    pub fn pack(values: &[f32]) -> Self {
        let mut words = Vec::new();
        pack_signs_into(values, &mut words);
        Self {
            words,
            len: values.len(),
        }
    }

    /// Packs sign bits from raw IEEE-754 bit patterns (e.g. stored `f16` or
    /// quantized payloads where only the MSB is consulted).
    pub fn pack_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0usize;
        for b in bits {
            if len.is_multiple_of(LANES) {
                words.push(0);
            }
            if b {
                *words.last_mut().expect("just pushed") |= 1u32 << (len % LANES);
            }
            len += 1;
        }
        Self { words, len }
    }

    /// Number of packed sign bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bits are packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of `u32` words backing this pack.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The packed words (bit `j` of word `i` = sign of element `i*32+j`).
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Sign bit of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "sign index {i} out of bounds ({} bits)",
            self.len
        );
        (self.words[i / LANES] >> (i % LANES)) & 1 == 1
    }

    /// Total number of negative elements.
    pub fn count_negative(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Core predictor primitive: the number of element-wise products
    /// `a[i] * b[i]` that are predicted *negative*, computed as
    /// `Σ popcount(self.words[i] XOR other.words[i])`.
    ///
    /// This mirrors lines 6–9 of the paper's Listing 1 exactly (one XOR and
    /// one `__popc` per packed word).
    ///
    /// # Panics
    ///
    /// Panics if the two packs have different lengths.
    pub fn xor_popcount(&self, other: &SignPack) -> u32 {
        assert_eq!(
            self.len, other.len,
            "xor_popcount requires equal-length sign packs"
        );
        xor_popcount_words(&self.words, &other.words)
    }

    /// Memory footprint of the packed representation in bytes.
    ///
    /// Used for the paper's §V-A2 memory accounting (337.5 MB for the 13B
    /// model: `k × d/32 × 4 bytes × layers`).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u32>()
    }
}

/// Packed sign bits for every row of a matrix, the predictor's load-time
/// artifact (§IV-B1: "pack the sign bits of 32 consecutive elements in
/// `W_gate` into a 32-bit integer when the model is loaded").
///
/// Rows are stored contiguously so that, like the CUDA kernel, a consumer can
/// stream `row_words` per row with perfectly coalesced accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSignMatrix {
    words: Vec<u32>,
    rows: usize,
    cols: usize,
    row_words: usize,
}

impl PackedSignMatrix {
    /// Packs the sign bits of every row of `m`.
    pub fn pack(m: &crate::Matrix) -> Self {
        let rows = m.rows();
        let cols = m.cols();
        let row_words = cols.div_ceil(LANES);
        let mut words = vec![0u32; rows * row_words];
        for (r, row) in m.iter_rows().enumerate() {
            let base = r * row_words;
            for (i, v) in row.iter().enumerate() {
                if v.is_sign_negative() {
                    words[base + i / LANES] |= 1u32 << (i % LANES);
                }
            }
        }
        Self {
            words,
            rows,
            cols,
            row_words,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of (unpacked) columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Packed words per row.
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// The packed words of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[u32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.words[r * self.row_words..(r + 1) * self.row_words]
    }

    /// The packed words of every row, in order (none for a matrix of zero
    /// columns, whose rows hold no words).
    pub fn iter_rows(&self) -> std::slice::ChunksExact<'_, u32> {
        self.words.chunks_exact(self.row_words.max(1))
    }

    /// Number of predicted-negative products between row `r` and the packed
    /// input signs — `Σ popcount(W_signs[r] XOR X_signs)`.
    ///
    /// # Panics
    ///
    /// Panics if `x_signs.len() != self.cols()`.
    pub fn row_xor_popcount(&self, r: usize, x_signs: &SignPack) -> u32 {
        assert_eq!(
            x_signs.len(),
            self.cols,
            "input sign pack length must equal matrix columns"
        );
        xor_popcount_words(self.row(r), x_signs.words())
    }

    /// Memory footprint in bytes (the §V-A2 accounting unit).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u32>()
    }
}

/// Counts negative element-wise products exactly, without packing — the
/// scalar reference the packed path is property-tested against.
pub fn count_negative_products(a: &[f32], b: &[f32]) -> u32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.is_sign_negative() != y.is_sign_negative())
        .count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn pack_sets_expected_bits() {
        let p = SignPack::pack(&[-1.0, 2.0, -3.0, 4.0]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.words()[0], 0b0101);
        assert_eq!(p.count_negative(), 2);
    }

    #[test]
    fn negative_zero_counts_as_negative_sign() {
        let p = SignPack::pack(&[-0.0, 0.0]);
        assert!(p.bit(0));
        assert!(!p.bit(1));
    }

    #[test]
    fn pack_spans_multiple_words() {
        let values: Vec<f32> = (0..70)
            .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let p = SignPack::pack(&values);
        assert_eq!(p.word_count(), 3);
        assert_eq!(
            p.count_negative(),
            values.iter().filter(|v| **v < 0.0).count() as u32
        );
        for (i, v) in values.iter().enumerate() {
            assert_eq!(p.bit(i), *v < 0.0, "bit {i}");
        }
    }

    #[test]
    fn xor_popcount_equals_scalar_negative_product_count() {
        let a: Vec<f32> = (0..96).map(|i| ((i * 37 + 11) % 17) as f32 - 8.0).collect();
        let b: Vec<f32> = (0..96).map(|i| ((i * 53 + 5) % 19) as f32 - 9.0).collect();
        // Avoid exact zeros: shift by 0.5 where zero.
        let a: Vec<f32> = a.iter().map(|v| if *v == 0.0 { 0.5 } else { *v }).collect();
        let b: Vec<f32> = b.iter().map(|v| if *v == 0.0 { 0.5 } else { *v }).collect();
        let pa = SignPack::pack(&a);
        let pb = SignPack::pack(&b);
        assert_eq!(pa.xor_popcount(&pb), count_negative_products(&a, &b));
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn xor_popcount_rejects_length_mismatch() {
        let a = SignPack::pack(&[1.0; 32]);
        let b = SignPack::pack(&[1.0; 64]);
        let _ = a.xor_popcount(&b);
    }

    #[test]
    fn packed_matrix_rows_match_individual_packs() {
        let m = Matrix::from_fn(5, 64, |r, c| ((r * 64 + c) as f32).sin() - 0.1);
        let pm = PackedSignMatrix::pack(&m);
        assert_eq!(pm.rows(), 5);
        assert_eq!(pm.cols(), 64);
        assert_eq!(pm.row_words(), 2);
        for r in 0..5 {
            let individual = SignPack::pack(m.row(r));
            assert_eq!(pm.row(r), individual.words(), "row {r}");
            let xs = SignPack::pack(m.row((r + 1) % 5));
            assert_eq!(pm.row_xor_popcount(r, &xs), individual.xor_popcount(&xs));
        }
    }

    #[test]
    fn packed_matrix_size_matches_paper_formula() {
        // Paper §V-A2: 13824 rows × 160 words × 4 bytes per layer.
        // Use a scaled-down shape with the same arithmetic.
        let m = Matrix::zeros(128, 320);
        let pm = PackedSignMatrix::pack(&m);
        assert_eq!(pm.size_bytes(), 128 * (320 / 32) * 4);
    }

    #[test]
    fn unrolled_sweep_equals_scalar_sweep_exactly() {
        // The sweep must agree with a plain per-word popcount loop on every
        // length.
        for len in [0usize, 1, 3, 4, 5, 8, 11, 16, 64] {
            let a: Vec<u32> = (0..len)
                .map(|i| (i as u32).wrapping_mul(2654435761))
                .collect();
            let b: Vec<u32> = (0..len).map(|i| (i as u32).wrapping_mul(40503)).collect();
            let scalar: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
            assert_eq!(xor_popcount_words(&a, &b), scalar, "len {len}");
        }
    }

    #[test]
    fn pack_signs_into_reuses_buffer_and_matches_pack() {
        let values: Vec<f32> = (0..70).map(|i| (i as f32 * 0.7).sin() - 0.2).collect();
        let mut words = Vec::new();
        pack_signs_into(&values, &mut words);
        assert_eq!(words, SignPack::pack(&values).words());
        // Repacking shorter data reuses the buffer (stale words cleared).
        pack_signs_into(&values[..10], &mut words);
        assert_eq!(words, SignPack::pack(&values[..10]).words());
    }

    #[test]
    fn pack_bits_round_trip() {
        let bits = [true, false, true, true, false];
        let p = SignPack::pack_bits(bits.iter().copied());
        assert_eq!(p.len(), 5);
        for (i, b) in bits.iter().enumerate() {
            assert_eq!(p.bit(i), *b);
        }
    }
}
