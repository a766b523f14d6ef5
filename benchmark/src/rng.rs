//! The benchmark's own seeded generator (splitmix64 seeding a
//! xoshiro256**). Inputs never come from the program's `Prng` or
//! `crates/trace`, so a change to the program cannot change what it is
//! measured on.

/// One splitmix64 step: the standard seeder for xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** (Blackman & Vigna).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator for `seed`; `stream` separates the knobs of one workload
    /// (prompt tokens, lengths, arrivals, …) so that changing how many
    /// draws one knob takes never reshuffles another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut state = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut state);
        }
        Self { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi - lo) as u64 + 1;
        // Widening multiply: unbiased enough for spans this small (< 2^16
        // against 2^64 of input), and free of a rejection loop.
        lo + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }

    #[test]
    fn range_and_unit_stay_in_bounds_and_cover_the_ends() {
        let mut r = Rng::new(1, 0);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = r.range(3, 7);
            assert!((3..=7).contains(&v));
            seen[v - 3] = true;
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(r.range(4, 4), 4);
    }
}
