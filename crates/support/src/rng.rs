//! Deterministic, seedable pseudo-random numbers.
//!
//! The workspace's only randomness source: an in-repo xoshiro256**
//! generator seeded through SplitMix64. Every stream is fully determined
//! by its `u64` seed, on every platform, forever — the property the
//! trace generators, the QoE fitting pipeline, and the reproducibility
//! tests all rely on. The type is named [`StdRng`] because it is the
//! repo's standard RNG; it intentionally mirrors the subset of the
//! `rand` crate API the workspace uses (`seed_from_u64`, `gen_range`,
//! `gen_bool`) so call sites read identically.

use std::ops::{Range, RangeInclusive};

/// The workspace's standard seeded PRNG (xoshiro256**).
///
/// Passes BigCrush in its published form; period 2^256 − 1. Not
/// cryptographic — it drives simulations, not secrets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Creates a generator whose entire stream is determined by `seed`.
    ///
    /// The four words of state are drawn from a SplitMix64 stream so that
    /// nearby seeds (0, 1, 2, …) still produce uncorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Self { s }
    }

    /// The next 64 uniformly distributed bits.
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

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from `range` (`a..b` or `a..=b`, float or integer).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} not in [0, 1]");
        self.gen_f64() < p
    }

    /// A standard normal sample (mean 0, variance 1), via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        // u1 in (0, 1] so the log is finite.
        let u1 = 1.0 - self.gen_f64();
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// An unbiased uniform integer in `[0, bound)` via Lemire's method.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Range types [`StdRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let v = self.start + rng.gen_f64() * (self.end - self.start);
        // Floating rounding can land exactly on `end`; stay half-open.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample(self, rng: &mut StdRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + rng.gen_f64() * (hi - lo)
    }
}

macro_rules! impl_int_range {
    ($($t:ty),+) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range {lo}..={hi}");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u64::MAX as u128 {
                    // Whole-domain range: every 64-bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.bounded_u64(span as u64) as i128) as $t
            }
        }
    )+};
}

impl_int_range!(usize, u64, u32, i64, i32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn known_answer_is_stable_across_builds() {
        // Golden values: changing the generator or the seeding procedure
        // silently invalidates every recorded trace, so pin the stream.
        let mut rng = StdRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532
            ]
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn float_range_respected() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.gen_range(-3.5..7.25);
            assert!((-3.5..7.25).contains(&v));
        }
    }

    #[test]
    fn int_range_hits_all_values() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn inclusive_int_range_includes_endpoints() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            match rng.gen_range(0u32..=3) {
                0 => lo_seen = true,
                3 => hi_seen = true,
                _ => {}
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(17);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((0.27..0.33).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(19);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen_range(3.0..3.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen_bool(1.5);
    }
}
