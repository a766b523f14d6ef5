//! Order statistics: percentiles with the sample-support rule, and the
//! quartile spread `compare` judges repeat runs by.

/// Sorts timings ascending (they are finite by construction).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Nearest-rank percentile of an ascending slice; 0 on an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample; 0 on an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// The highest of p99 / p95 / p90 that has at least [`TAIL_SUPPORT`]
/// samples beyond it in a sample of `n`; `None` when even p90 has not
/// (n < 100), in which case only the median is reportable.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= TAIL_SUPPORT)
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// The tail percentile a workload fixed (`wanted`), lowered to what a
/// sample of `n` supports; 0.5 when no tail is supported. Returns the
/// percentile actually used, so a lowered one can be flagged.
pub fn usable_tail(n: usize, wanted: f64) -> f64 {
    match supported_tail(n) {
        Some(p) => p.min(wanted),
        None => 0.5,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median; 0 for a constant
/// sample (including an all-zero one).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        // The fixed percentile is never raised, only lowered.
        assert_eq!(usable_tail(5000, 0.95), 0.95);
        assert_eq!(usable_tail(150, 0.95), 0.90);
        assert_eq!(usable_tail(40, 0.95), 0.5);
    }

    #[test]
    fn supported_tail_really_leaves_ten_beyond() {
        for n in [100usize, 137, 200, 640, 1000, 4321] {
            let p = supported_tail(n).unwrap();
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile(&sorted, p);
            let beyond = sorted.iter().filter(|&&v| v > at).count();
            assert!(beyond >= TAIL_SUPPORT, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0]), 0.0);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
