//! Software IEEE-754 binary16 ("half") emulation.
//!
//! The paper's GPU implementation stores weights in FP16; the training-free
//! predictor only ever consults the MSB, so it is *unchanged* by the FP16
//! representation (§IV-A: "as long as the sign bit, i.e., MSB, can be
//! extracted, it can be applied directly, regardless of the quantization
//! scheme"). This module provides a bit-exact f32↔f16 conversion used by the
//! quantization-robustness tests and by the memory accounting (2 bytes per
//! weight).

/// An IEEE-754 binary16 value stored as its raw bit pattern.
///
/// Conversions implement round-to-nearest-even, the hardware default.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::F16;
///
/// let h = F16::from_f32(1.5);
/// assert_eq!(h.to_f32(), 1.5);
/// assert!(!h.is_sign_negative());
/// assert!(F16::from_f32(-0.0).is_sign_negative());
/// ```
// `repr(transparent)`: a slice of `F16` is a slice of `u16` in memory,
// which the F16C load in `attn` (eight words as one 128-bit read) relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// The largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);

    /// Converts from `f32` with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mantissa = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf / NaN: preserve NaN-ness with a quiet mantissa bit.
            let m = if mantissa != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | m);
        }

        // Re-bias exponent: f32 bias 127, f16 bias 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow to infinity.
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range. Round mantissa from 23 to 10 bits (RNE).
            let mant = mantissa >> 13;
            let round_bits = mantissa & 0x1FFF;
            let halfway = 0x1000;
            let mut h = sign | (((unbiased + 15) as u16) << 10) | (mant as u16);
            if round_bits > halfway || (round_bits == halfway && (mant & 1) == 1) {
                h = h.wrapping_add(1); // may carry into exponent; that is correct RNE
            }
            return F16(h);
        }
        if unbiased >= -25 {
            // Subnormal range.
            let shift = (-14 - unbiased) as u32; // 0..=11
            let full = 0x0080_0000 | mantissa; // implicit leading 1
            let shifted = full >> (13 + shift);
            let round_bits = full & ((1u32 << (13 + shift)) - 1);
            let halfway = 1u32 << (13 + shift - 1);
            let mut h = sign | (shifted as u16);
            if round_bits > halfway || (round_bits == halfway && (shifted & 1) == 1) {
                h = h.wrapping_add(1);
            }
            return F16(h);
        }
        // Underflow to signed zero.
        F16(sign)
    }

    /// Converts back to `f32` (exact; every f16 value is representable).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mantissa = (self.0 & 0x03FF) as u32;
        let bits = if exp == 0x1F {
            // Inf / NaN
            sign | 0x7F80_0000 | (mantissa << 13)
        } else if exp == 0 {
            if mantissa == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalize.
                let mut e = -1i32;
                let mut m = mantissa;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x03FF;
                // value = (1 + m/1024) * 2^(e - 13); rebias for f32.
                let exp32 = (e - 13 + 127) as u32;
                sign | (exp32 << 23) | (m << 13)
            }
        } else {
            let exp32 = exp + 127 - 15;
            sign | (exp32 << 23) | (mantissa << 13)
        };
        f32::from_bits(bits)
    }

    /// Raw bit pattern.
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Constructs from a raw bit pattern.
    pub fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Whether the sign bit (MSB) is set — the only bit the SparseInfer
    /// predictor ever reads.
    pub fn is_sign_negative(self) -> bool {
        self.0 & 0x8000 != 0
    }

    /// Whether the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Converts a whole slice to f16, returning the raw half-precision buffer.
pub fn quantize_slice(values: &[f32]) -> Vec<F16> {
    values.iter().map(|v| F16::from_f32(*v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_round_trip() {
        for v in [-4.0f32, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 1024.0] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn signed_zero_preserved() {
        assert!(F16::from_f32(-0.0).is_sign_negative());
        assert!(!F16::from_f32(0.0).is_sign_negative());
        assert_eq!(F16::from_f32(-0.0).to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        let h = F16::from_f32(1e9);
        assert_eq!(h.to_f32(), f32::INFINITY);
        let h = F16::from_f32(-1e9);
        assert_eq!(h.to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn nan_round_trips_as_nan() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn tiny_values_flush_toward_signed_zero() {
        let h = F16::from_f32(-1e-12);
        assert!(h.is_sign_negative());
        assert_eq!(h.to_f32(), -0.0);
    }

    #[test]
    fn subnormals_round_trip_with_bounded_error() {
        // Smallest positive f16 subnormal is 2^-24 ≈ 5.96e-8.
        let v = 3.0e-7f32;
        let back = F16::from_f32(v).to_f32();
        assert!((back - v).abs() < 6e-8, "got {back}");
    }

    #[test]
    fn rne_rounds_to_even_mantissa() {
        // 2049 is exactly halfway between representable 2048 and 2050 in f16;
        // RNE must pick 2048 (even mantissa).
        assert_eq!(F16::from_f32(2049.0).to_f32(), 2048.0);
        // 2051 is halfway between 2050 and 2052; RNE picks 2052.
        assert_eq!(F16::from_f32(2051.0).to_f32(), 2052.0);
    }

    #[test]
    fn sign_bit_always_preserved_by_conversion() {
        // The predictor-correctness property: quantization never flips a sign.
        let mut v = -1.0e-30f32;
        for _ in 0..60 {
            let h = F16::from_f32(v);
            assert_eq!(h.is_sign_negative(), v.is_sign_negative());
            v *= 10.0;
        }
    }

    #[test]
    fn from_f32_never_returns_a_signalling_nan() {
        // Every f32 NaN, both signs: the one f16 pattern family `to_f32`
        // and the F16C conversion disagree on (a signalling NaN, which the
        // hardware quiets) cannot be produced, so no stored KV word has it.
        let signalling = |h: F16| h.is_nan() && h.to_bits() & 0x0200 == 0;
        for sign in [0u32, 0x8000_0000] {
            for payload in 1..=0x007F_FFFFu32 {
                let h = F16::from_f32(f32::from_bits(sign | 0x7F80_0000 | payload));
                assert!(h.is_nan() && !signalling(h), "{payload:#x} -> {h:?}");
            }
        }
    }

    #[test]
    fn max_constant_is_65504() {
        assert_eq!(F16::MAX.to_f32(), 65504.0);
    }

    #[test]
    fn slice_helpers_round_trip() {
        let values = vec![0.25, -0.75, 3.0];
        let q = quantize_slice(&values);
        let back: Vec<f32> = q.iter().map(|h| h.to_f32()).collect();
        assert_eq!(back, values);
    }
}
