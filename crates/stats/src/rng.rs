//! Deterministic, seedable pseudo-random number generators.
//!
//! The trace-driven experiments of the paper (Sec. 8) average the ranking
//! metric over 30 independent sampling runs; the synthetic trace generators
//! must also be reproducible so that a given figure can be regenerated
//! bit-for-bit. To guarantee that across platforms we ship small, well-known
//! generators rather than depending on an external crate whose stream might
//! change between versions:
//!
//! * [`SplitMix64`] — used for seed expansion and deriving per-run seeds.
//! * [`Pcg64`] — the default general-purpose generator (PCG XSL RR 128/64).
//!
//! Both implement the [`Rng`] trait, which provides the derived
//! sampling helpers (uniform floats, Bernoulli trials, ranges, shuffling).

use std::ops::Range;

/// Minimal random-number-generator interface used throughout the workspace.
pub trait Rng {
    /// Returns the next 64 uniformly distributed random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed `f64` in the half-open interval `[0, 1)`.
    ///
    /// Uses the top 53 bits of [`Rng::next_u64`], which yields every
    /// representable multiple of 2⁻⁵³ with equal probability.
    fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed `f64` in the open interval `(0, 1)`.
    ///
    /// Useful for inverse-CDF sampling of distributions whose transform is
    /// singular at 0 (e.g. the Pareto and exponential distributions).
    fn next_open_f64(&mut self) -> f64 {
        loop {
            let v = self.next_f64();
            if v > 0.0 {
                return v;
            }
        }
    }

    /// Returns `true` with probability `p`.
    ///
    /// This is the random packet-sampling decision of the paper: each packet
    /// is retained independently with probability `p`. Values outside
    /// `[0, 1]` are clamped.
    fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Appends to `kept` every index of `range` that passes a Bernoulli(`p`)
    /// trial — the same draws, in the same order, as one
    /// [`Rng::bernoulli`] call per index. A batch sampler makes one call per
    /// range, so a generator behind `&mut dyn Rng` costs one dynamic call
    /// per batch instead of one per packet. Indices must fit in `u32`.
    fn bernoulli_indices(&mut self, p: f64, range: Range<usize>, kept: &mut Vec<u32>) {
        if p <= 0.0 {
            return;
        }
        if p >= 1.0 {
            kept.extend(range.map(|i| i as u32));
            return;
        }
        // Branch-free: every index is written, and the write position only
        // moves past it on a keep.
        let start = kept.len();
        kept.resize(start + range.len(), 0);
        let mut end = start;
        for i in range {
            kept[end] = i as u32;
            end += usize::from(self.next_f64() < p);
        }
        kept.truncate(end);
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    /// Returns 0 when `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: recompute the threshold only when needed.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed `usize` index in `[0, len)`.
    fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Returns a uniformly distributed `f64` in `[lo, hi)`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Fisher–Yates shuffle of a slice, in place.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

/// Generators that can be constructed from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 — a tiny generator used for seed expansion.
///
/// Its main role in this workspace is deriving independent sub-seeds for the
/// 30 sampling runs of each trace-driven experiment and for initialising the
/// state of the larger generators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a new SplitMix64 generator from a seed.
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed)
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        // Sebastiano Vigna's SplitMix64.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// PCG XSL RR 128/64 — the workspace's default generator.
///
/// 128-bit LCG state with an output permutation; passes BigCrush and has a
/// 2¹²⁸ period, far more than any experiment here consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    increment: u128,
}

const PCG_MULTIPLIER: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

impl Pcg64 {
    /// Creates a generator from an explicit 128-bit state and stream.
    pub(crate) fn new(state: u128, stream: u128) -> Self {
        let increment = (stream << 1) | 1;
        let mut rng = Self {
            state: 0,
            increment,
        };
        rng.state = rng
            .state
            .wrapping_mul(PCG_MULTIPLIER)
            .wrapping_add(increment);
        rng.state = rng.state.wrapping_add(state);
        rng.state = rng
            .state
            .wrapping_mul(PCG_MULTIPLIER)
            .wrapping_add(increment);
        rng
    }
}

impl SeedableRng for Pcg64 {
    fn seed_from_u64(seed: u64) -> Self {
        // Expand the 64-bit seed into 256 bits of state/stream with SplitMix64.
        let mut sm = SplitMix64::new(seed);
        let state = ((sm.next_u64() as u128) << 64) | sm.next_u64() as u128;
        let stream = ((sm.next_u64() as u128) << 64) | sm.next_u64() as u128;
        Self::new(state, stream)
    }
}

impl Rng for Pcg64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(PCG_MULTIPLIER)
            .wrapping_add(self.increment);
        // XSL-RR output function.
        let rot = (self.state >> 122) as u32;
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        xored.rotate_right(rot)
    }
}

/// Derives `count` independent 64-bit seeds from a master seed.
///
/// Each trace-driven experiment uses this to give every one of its sampling
/// runs its own reproducible stream.
pub fn derive_seeds(master: u64, count: usize) -> Vec<u64> {
    let mut sm = SplitMix64::new(master);
    (0..count).map(|_| sm.next_u64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference output of SplitMix64 seeded with 1234567.
        let mut rng = SplitMix64::new(1234567);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        // Determinism: same seed, same stream.
        let mut rng2 = SplitMix64::new(1234567);
        let second: Vec<u64> = (0..3).map(|_| rng2.next_u64()).collect();
        assert_eq!(first, second);
        // Different seeds give different streams.
        let mut rng3 = SplitMix64::new(7654321);
        assert_ne!(first[0], rng3.next_u64());
    }

    #[test]
    fn pcg_determinism_and_spread() {
        let mut a = Pcg64::seed_from_u64(42);
        let mut b = Pcg64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Pcg64::seed_from_u64(43);
        let overlaps = (0..100).filter(|_| a.next_u64() == c.next_u64()).count();
        assert!(overlaps < 3, "different seeds should rarely collide");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Pcg64::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v), "value {v} outside [0,1)");
        }
    }

    #[test]
    fn next_f64_mean_is_about_half() {
        let mut rng = Pcg64::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn bernoulli_frequency_matches_probability() {
        let mut rng = Pcg64::seed_from_u64(3);
        let p = 0.1;
        let n = 200_000;
        let hits = (0..n).filter(|_| rng.bernoulli(p)).count();
        let freq = hits as f64 / n as f64;
        assert!(
            (freq - p).abs() < 0.005,
            "empirical {freq} too far from {p}"
        );
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Pcg64::seed_from_u64(5);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-0.3));
        assert!(rng.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_indices_makes_the_per_index_draws() {
        for p in [-0.3, 0.0, 0.125, 0.5, 0.9, 1.0] {
            let mut one_by_one = Pcg64::seed_from_u64(9);
            let mut expected = vec![7u32];
            expected.extend((10..500u32).filter(|_| one_by_one.bernoulli(p)));
            let mut batched = Pcg64::seed_from_u64(9);
            let dynamic: &mut dyn Rng = &mut batched;
            let mut kept = vec![7u32];
            dynamic.bernoulli_indices(p, 10..500, &mut kept);
            assert_eq!(kept, expected, "p = {p}");
            // Same stream position afterwards: the next draw agrees too.
            assert_eq!(batched.next_u64(), one_by_one.next_u64(), "p = {p}");
        }
    }

    #[test]
    fn next_below_unbiased_range() {
        let mut rng = Pcg64::seed_from_u64(17);
        let bound = 10u64;
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            let v = rng.next_below(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "bucket {i} count {c} deviates from {expected}"
            );
        }
    }

    #[test]
    fn next_below_zero_bound() {
        let mut rng = Pcg64::seed_from_u64(1);
        assert_eq!(rng.next_below(0), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg64::seed_from_u64(23);
        let mut values: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        // With overwhelming probability the order changed.
        assert_ne!(values, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn range_f64_respects_bounds() {
        let mut rng = Pcg64::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.range_f64(5.0, 9.0);
            assert!((5.0..9.0).contains(&v));
        }
    }

    #[test]
    fn derive_seeds_unique_and_deterministic() {
        let a = derive_seeds(123, 30);
        let b = derive_seeds(123, 30);
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 30, "derived seeds should be distinct");
    }

    #[test]
    fn open_f64_never_zero() {
        let mut rng = SplitMix64::new(0);
        for _ in 0..1000 {
            assert!(rng.next_open_f64() > 0.0);
        }
    }
}
