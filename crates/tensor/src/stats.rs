//! Histograms and summary statistics.
//!
//! Used to regenerate the paper's Fig. 2 (distributions of `X`, `W_gate,i`
//! and `Y = X ⊙ W_gate,i`) and to validate the Gaussian-symmetry assumption
//! the predictor rests on.

/// Running summary statistics (count, mean, variance, min/max, sign split).
///
/// Welford's algorithm is used so very long activation streams stay
/// numerically stable.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::stats::Summary;
///
/// let mut s = Summary::new();
/// s.extend([1.0, -1.0, 3.0, -3.0]);
/// assert_eq!(s.mean(), 0.0);
/// assert_eq!(s.negative_fraction(), 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    negatives: u64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            negatives: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value < 0.0 {
            self.negatives += 1;
        }
    }

    /// Adds every observation of an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }

    /// Builds a summary from a slice of `f32`.
    pub fn from_slice(values: &[f32]) -> Self {
        let mut s = Self::new();
        s.extend(values.iter().map(|v| *v as f64));
        s
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Fraction of strictly negative observations — the quantity the
    /// predictor's symmetry assumption (≈ 0.5 for zero-mean products) is
    /// judged by.
    pub fn negative_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.negatives as f64 / self.count as f64
        }
    }
}

/// A fixed-range histogram with uniform bins.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::stats::Histogram;
///
/// let mut h = Histogram::new(-1.0, 1.0, 4);
/// h.extend([-0.9, -0.1, 0.1, 0.9, 5.0]);
/// assert_eq!(h.counts(), &[1, 1, 1, 1]);
/// assert_eq!(h.outliers(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    outliers: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            outliers: 0,
        }
    }

    /// Adds one observation; values outside `[lo, hi)` count as outliers.
    pub fn push(&mut self, value: f64) {
        if value < self.lo || value >= self.hi || value.is_nan() {
            self.outliers += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut idx = ((value - self.lo) / width) as usize;
        if idx >= self.counts.len() {
            idx = self.counts.len() - 1; // guard against float edge effects
        }
        self.counts[idx] += 1;
    }

    /// Adds every observation of an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations that fell outside the range.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.counts().len()`.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin {i} out of bounds");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + width * (i as f64 + 0.5)
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Renders a fixed-width ASCII bar chart, one line per bin — how the
    /// `fig2_distributions` binary prints the paper's density plots.
    pub fn render_ascii(&self, width: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, c) in self.counts.iter().enumerate() {
            let bar = (c * width as u64 / peak) as usize;
            out.push_str(&format!(
                "{:>9.4} | {}{}  {}\n",
                self.bin_center(i),
                "#".repeat(bar),
                " ".repeat(width - bar),
                c
            ));
        }
        out
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// Uses the Abramowitz–Stegun 7.1.26 erf approximation (|error| < 1.5e-7),
/// ample for sparsity calibration.
pub fn normal_cdf(x: f64) -> f64 {
    // Φ(x) = 0.5 * (1 + erf(x / sqrt(2)))
    let z = x / std::f64::consts::SQRT_2;
    0.5 * (1.0 + erf(z))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal quantile function `Φ⁻¹(p)` (Acklam's rational
/// approximation, |relative error| < 1.15e-9).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0, 1), got {p}");
    // Coefficients for the central and tail rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mean_and_variance() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_counts_negatives() {
        let s = Summary::from_slice(&[-1.0, -2.0, 3.0, 0.0]);
        assert_eq!(s.negative_fraction(), 0.5);
    }

    #[test]
    fn empty_summary_is_well_behaved() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.negative_fraction(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend([0.0, 1.9, 2.0, 9.99, 10.0, -0.1, f64::NAN]);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.outliers(), 3);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn bin_centers_are_midpoints() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
        assert!((h.bin_center(3) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn ascii_render_has_one_line_per_bin() {
        let mut h = Histogram::new(0.0, 1.0, 3);
        h.extend([0.1, 0.5, 0.5, 0.9]);
        let art = h.render_ascii(10);
        assert_eq!(art.lines().count(), 3);
        assert!(art.contains('#'));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bin_histogram_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-5);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-4);
        assert!(normal_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p={p} x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile requires")]
    fn quantile_rejects_out_of_range() {
        let _ = normal_quantile(1.0);
    }
}
