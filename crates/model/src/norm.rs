//! RMS normalization with an optional bias.
//!
//! Llama uses bias-free RMSNorm. The synthetic substrate adds an *optional*
//! per-channel bias to the pre-MLP norm: it is the calibration knob that lets
//! the weight generator shape the per-layer distribution of the MLP input `X`
//! (mean offset and concentration) to match what the paper observes on real
//! ProSparse checkpoints (Fig. 2: early layers narrow and near zero, later
//! layers wider). The substitution is documented in DESIGN.md; inference-side
//! code treats the norm as a black box either way.

use sparseinfer_tensor::Vector;

/// Root-mean-square layer normalization: `y = x / rms(x) ⊙ gain (+ bias)`.
///
/// # Example
///
/// ```
/// use sparseinfer_model::norm::RmsNorm;
/// use sparseinfer_tensor::Vector;
///
/// let norm = RmsNorm::unit(4);
/// let y = norm.forward(&Vector::from_vec(vec![2.0, -2.0, 2.0, -2.0]));
/// assert!((y[0] - 1.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RmsNorm {
    gain: Vector,
    bias: Option<Vector>,
    eps: f32,
}

impl RmsNorm {
    /// Creates a norm with all-ones gain and no bias.
    pub fn unit(dim: usize) -> Self {
        Self {
            gain: Vector::from_fn(dim, |_| 1.0),
            bias: None,
            eps: 1e-5,
        }
    }

    /// Creates a norm with the given gain and no bias.
    pub fn new(gain: Vector) -> Self {
        Self {
            gain,
            bias: None,
            eps: 1e-5,
        }
    }

    /// Creates a norm with gain and per-channel bias (the synthetic
    /// substrate's distribution-shaping variant).
    ///
    /// # Panics
    ///
    /// Panics if `gain.len() != bias.len()`.
    pub fn with_bias(gain: Vector, bias: Vector) -> Self {
        assert_eq!(gain.len(), bias.len(), "gain/bias length mismatch");
        Self {
            gain,
            bias: Some(bias),
            eps: 1e-5,
        }
    }

    /// Normalized dimension.
    pub fn dim(&self) -> usize {
        self.gain.len()
    }

    /// Applies the normalization.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn forward(&self, x: &Vector) -> Vector {
        let mut out = Vector::zeros(0);
        self.forward_into(x, &mut out);
        out
    }

    /// Applies the normalization into a caller-provided buffer (resized to
    /// `self.dim()`; no allocation once its capacity suffices). Numerically
    /// identical to [`forward`](Self::forward), which wraps this.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn forward_into(&self, x: &Vector, out: &mut Vector) {
        out.resize(x.len(), 0.0);
        self.forward_slice(x.as_slice(), out.as_mut_slice());
    }

    /// Applies the normalization from one slice into another — the one
    /// implementation; every other entry point wraps it.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` is not `self.dim()` long.
    pub fn forward_slice(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.dim(), "rmsnorm input length mismatch");
        assert_eq!(out.len(), self.dim(), "rmsnorm output length mismatch");
        let ms: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
        let inv_rms = 1.0 / (ms + self.eps).sqrt();
        for ((slot, xi), gain) in out.iter_mut().zip(x).zip(self.gain.iter()) {
            *slot = xi * inv_rms * gain;
        }
        if let Some(bias) = &self.bias {
            for (slot, b) in out.iter_mut().zip(bias.iter()) {
                *slot += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_norm_produces_unit_rms() {
        let norm = RmsNorm::unit(8);
        let x = Vector::from_fn(8, |i| (i as f32 + 1.0) * 3.0);
        let y = norm.forward(&x);
        let rms = (y.as_slice().iter().map(|v| v * v).sum::<f32>() / 8.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-3, "rms = {rms}");
    }

    #[test]
    fn gain_scales_channels_independently() {
        let gain = Vector::from_vec(vec![2.0, 0.5]);
        let norm = RmsNorm::new(gain);
        let x = Vector::from_vec(vec![1.0, 1.0]);
        let y = norm.forward(&x);
        assert!((y[0] / y[1] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn bias_shifts_output_mean() {
        let dim = 16;
        let norm = RmsNorm::with_bias(Vector::from_fn(dim, |_| 1.0), Vector::from_fn(dim, |_| 0.5));
        let x = Vector::from_fn(dim, |i| if i % 2 == 0 { 1.0 } else { -1.0 });
        let y = norm.forward(&x);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / dim as f32;
        assert!((mean - 0.5).abs() < 1e-4, "mean = {mean}");
    }

    #[test]
    fn zero_input_is_stable() {
        let norm = RmsNorm::unit(4);
        let y = norm.forward(&Vector::zeros(4));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_input_panics() {
        RmsNorm::unit(4).forward(&Vector::zeros(5));
    }
}
