//! Deterministic random-number generation.
//!
//! The simulator must be bit-reproducible: the same configuration and seed
//! must produce the same frame times, IPCs and figure rows on every run, or
//! the paper-reproduction harness (and the property tests) would be
//! meaningless. Each stochastic component owns a private [`SimRng`] derived
//! from the experiment seed and a component label, so adding a component
//! never perturbs the streams of existing ones.
//!
//! The generator is SplitMix64 for seeding and xoshiro256** for the stream —
//! both public-domain algorithms with excellent statistical quality and a
//! few nanoseconds per draw, which matters in the workload-generator inner
//! loops.

#![expect(
    clippy::disallowed_methods,
    reason = "R3: the RNG itself: fork derives child streams through SimRng::new"
)]

/// SplitMix64 step; used for seeding and as a one-shot hash.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256** stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derive an independent stream for a named sub-component.
    ///
    /// `SimRng::new(seed).fork("gpu").fork("texture")` is stable across
    /// refactorings as long as the label path is stable.
    pub fn fork(&self, label: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Mix the parent's state so sibling forks of different parents differ.
        let mut sm = h ^ self.s[0].rotate_left(17) ^ self.s[2];
        Self::new(splitmix64(&mut sm))
    }

    /// Next 64 uniformly random bits.
    #[inline]
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

    /// Uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift with rejection for exact uniformity.
        let mut x = self.next_u64();
        let mut m = u128::from(x) * u128::from(bound);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = u128::from(x) * u128::from(bound);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Approximately normal draw (mean 0, stddev 1) via the sum of four
    /// uniforms (Irwin–Hall); cheap and good enough for workload jitter.
    #[inline]
    pub fn gauss(&mut self) -> f64 {
        // Sum of 4 U(0,1) has mean 2, variance 4/12 = 1/3.
        let s = self.f64() + self.f64() + self.f64() + self.f64();
        (s - 2.0) * (3.0f64).sqrt()
    }

    /// Multiplicative jitter: `1 + stddev * gauss()`, floored at `min`.
    ///
    /// Used to vary per-RTP and per-frame rendering work the way real scenes
    /// do, without ever producing non-positive work.
    #[inline]
    pub fn jitter(&mut self, stddev: f64, min: f64) -> f64 {
        (1.0 + stddev * self.gauss()).max(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let root = SimRng::new(7);
        let mut g1 = root.fork("gpu");
        let mut g2 = root.fork("gpu");
        let mut c = root.fork("cpu");
        assert_eq!(g1.next_u64(), g2.next_u64());
        let mut g3 = root.fork("gpu");
        assert_ne!(g3.next_u64(), c.next_u64());
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::new(3);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            let v = r.below(10);
            assert!(v < 10);
            buckets[v as usize] += 1;
        }
        for &b in &buckets {
            // Expected 10_000 per bucket; allow generous 5% tolerance.
            assert!((9500..=10500).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gauss_has_unit_moments() {
        let mut r = SimRng::new(11);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let g = r.gauss();
            sum += g;
            sumsq += g * g;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn jitter_respects_floor() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            assert!(r.jitter(2.0, 0.1) >= 0.1);
        }
    }

    #[test]
    fn range_inclusive_endpoints_reachable() {
        let mut r = SimRng::new(13);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..10_000 {
            match r.range(3, 5) {
                3 => lo_seen = true,
                5 => hi_seen = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }
}
