//! Seeded pseudo-random sampling for reproducible experiments.
//!
//! Every stochastic piece of the workspace (synthetic weights, task
//! generation, predictor training, samplers) draws from a [`Prng`] with an
//! explicit seed, so each experiment binary regenerates bit-identical data.
//! The generator is a self-contained xoshiro256++ (public-domain algorithm
//! by Blackman & Vigna) seeded through SplitMix64 — no external crates, so
//! the workspace builds in fully offline environments. Gaussian sampling is
//! the Box–Muller transform on top of the uniform source.

/// A seeded pseudo-random number generator with Gaussian sampling.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::Prng;
///
/// let mut a = Prng::seed(42);
/// let mut b = Prng::seed(42);
/// assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0)); // reproducible
/// ```
#[derive(Debug, Clone)]
pub struct Prng {
    state: [u64; 4],
    cached_normal: Option<f64>,
}

/// SplitMix64 step, used to expand the 64-bit seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            state,
            cached_normal: None,
        }
    }

    /// The next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator; used to give each layer /
    /// task / trial its own stream without coupling draw counts.
    pub fn fork(&mut self, salt: u64) -> Prng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Prng::seed(s)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is meaningless");
        // Widening-multiply range reduction (Lemire); the bias for 64-bit
        // draws against usize bounds is far below observability.
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn flip(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal sample via Box–Muller (with caching of the second
    /// variate).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        // Box–Muller: u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.below(slice.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed(7);
        let mut b = Prng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed(1);
        let mut b = Prng::seed(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn standard_normal_moments_are_plausible() {
        let mut rng = Prng::seed(123);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn normal_applies_affine_transform() {
        let mut rng = Prng::seed(99);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn flip_probability_tracks_p() {
        let mut rng = Prng::seed(5);
        let hits = (0..10_000).filter(|_| rng.flip(0.9)).count();
        assert!((8800..=9200).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Prng::seed(11);
        let mut v: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, (0..64).collect::<Vec<_>>()); // overwhelmingly likely
    }

    #[test]
    fn fork_decouples_streams() {
        let mut parent = Prng::seed(42);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.uniform(), c2.uniform());
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Prng::seed(0).below(0);
    }
}
