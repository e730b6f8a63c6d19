//! Exact pairwise misranking probability (Sec. 3, Eq. 1).
//!
//! Two flows of true sizes `S1 < S2` (packets) are sampled at rate `p`; their
//! sampled sizes `s1 ~ Binomial(S1, p)` and `s2 ~ Binomial(S2, p)` are
//! independent. The flows are *misranked* when `s1 ≥ s2` (this includes the
//! case where neither flow is sampled at all — the monitor then cannot order
//! them). Equation 1 of the paper:
//!
//! ```text
//! Pm(S1, S2) = Σ_{i=0}^{S1} b_p(i, S1) · Σ_{j=0}^{i} b_p(j, S2)
//! ```
//!
//! The probability is symmetric in its arguments; the equal-size case is
//! handled separately as in the paper (`1 − Σ_{i≥1} b_p(i, S)²`).

use flowrank_stats::dist::{Binomial, DiscreteDistribution};

/// Exact misranking probability of two flows of `s1` and `s2` packets under
/// independent packet sampling at rate `p` (Eq. 1).
///
/// * For `s1 ≠ s2` this is `P{s_small ≥ s_large}`.
/// * For `s1 == s2` it is `P{s1 ≠ s2 or s1 = s2 = 0}` — two equal flows are
///   considered correctly ranked only when they are sampled equally and at
///   least once, exactly as defined in Sec. 3 of the paper.
///
/// Degenerate rates are handled explicitly: `p ≤ 0` always misranks
/// (probability 1) and `p ≥ 1` never misranks distinct sizes.
pub fn misranking_probability_exact(s1: u64, s2: u64, p: f64) -> f64 {
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        // Full sampling ranks correctly whether or not the sizes coincide.
        return 0.0;
    }
    if s1 == s2 {
        return misranking_probability_equal_sizes(s1, p);
    }
    let (small, large) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
    let b_small = Binomial::new(small, p).expect("validated probability");
    let b_large = Binomial::new(large, p).expect("validated probability");

    // Pm = Σ_i b(i, small) · P(large_sample ≤ i)
    // Evaluate with cached pmf/cdf of the larger flow to keep the cost
    // O(small + large) rather than O(small · large).
    let mut large_cdf = Vec::with_capacity((small + 2) as usize);
    let mut acc = 0.0;
    for j in 0..=small.min(large) {
        acc += b_large.pmf(j);
        large_cdf.push(acc.min(1.0));
    }
    let mut total = 0.0;
    for i in 0..=small {
        let cdf_i = if (i as usize) < large_cdf.len() {
            large_cdf[i as usize]
        } else {
            1.0
        };
        total += b_small.pmf(i) * cdf_i;
    }
    total.clamp(0.0, 1.0)
}

/// Misranking probability of two flows of identical size `s` (Sec. 3):
/// `1 − Σ_{i=1}^{s} b_p(i, s)²`.
pub(crate) fn misranking_probability_equal_sizes(s: u64, p: f64) -> f64 {
    if p <= 0.0 {
        return 1.0;
    }
    if s == 0 {
        return 1.0;
    }
    let b = Binomial::new(s, p).expect("validated probability");
    let mut agree = 0.0;
    for i in 1..=s {
        let q = b.pmf(i);
        agree += q * q;
    }
    (1.0 - agree).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};

    fn monte_carlo_pm(s1: u64, s2: u64, p: f64, runs: usize, seed: u64) -> f64 {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut misranked = 0usize;
        for _ in 0..runs {
            let a = (0..s1).filter(|_| rng.bernoulli(p)).count();
            let b = (0..s2).filter(|_| rng.bernoulli(p)).count();
            let swapped = if s1 < s2 { a >= b } else { b >= a };
            if swapped {
                misranked += 1;
            }
        }
        misranked as f64 / runs as f64
    }

    #[test]
    fn matches_monte_carlo() {
        for &(s1, s2, p) in &[(10u64, 20u64, 0.2f64), (50, 60, 0.1), (5, 100, 0.05)] {
            let exact = misranking_probability_exact(s1, s2, p);
            let mc = monte_carlo_pm(s1, s2, p, 200_000, 1234);
            assert!(
                (exact - mc).abs() < 0.01,
                "({s1},{s2},{p}): exact {exact} vs MC {mc}"
            );
        }
    }

    #[test]
    fn is_symmetric() {
        for &(a, b) in &[(3u64, 17u64), (100, 250), (1, 1000)] {
            let p = 0.07;
            assert!(
                (misranking_probability_exact(a, b, p) - misranking_probability_exact(b, a, p))
                    .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn limits_in_p() {
        assert_eq!(misranking_probability_exact(10, 20, 0.0), 1.0);
        assert_eq!(misranking_probability_exact(10, 20, 1.0), 0.0);
        // Monotone decreasing in p.
        let values: Vec<f64> = [0.01, 0.05, 0.1, 0.3, 0.7]
            .iter()
            .map(|&p| misranking_probability_exact(30, 40, p))
            .collect();
        for w in values.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "not monotone: {values:?}");
        }
    }

    #[test]
    fn larger_size_gap_is_easier_to_rank() {
        // Pm(S1, S2) ≥ Pm(S1 − k, S2): aggregating packets onto the smaller
        // flow can only make the ranking harder (Sec. 3.1).
        let p = 0.05;
        let base = misranking_probability_exact(100, 120, p);
        assert!(misranking_probability_exact(80, 120, p) <= base + 1e-12);
        assert!(misranking_probability_exact(40, 120, p) <= base + 1e-12);
        assert!(misranking_probability_exact(1, 120, p) <= base + 1e-12);
    }

    #[test]
    fn equal_size_case() {
        // Two equal flows are almost always "misranked" whatever the rate:
        // the paper's definition requires both sampled sizes to coincide and
        // be non-zero, which is unlikely even at moderate rates.
        let s = 50;
        let p_low = misranking_probability_equal_sizes(s, 0.01);
        let p_high = misranking_probability_equal_sizes(s, 0.5);
        assert!(p_low > 0.85);
        assert!(p_high > 0.5 && p_high < 1.0);
        // Only near-complete sampling makes the tie observable.
        assert!(misranking_probability_equal_sizes(s, 0.9999) < 0.02);
        assert_eq!(misranking_probability_equal_sizes(0, 0.5), 1.0);
        assert_eq!(misranking_probability_equal_sizes(10, 0.0), 1.0);
        // Dispatched through the general entry point as well.
        assert!(
            (misranking_probability_exact(50, 50, 0.5)
                - misranking_probability_equal_sizes(50, 0.5))
            .abs()
                < 1e-15
        );
    }

    #[test]
    fn equal_size_matches_monte_carlo() {
        let s = 20u64;
        let p = 0.15;
        let mut rng = Pcg64::seed_from_u64(77);
        let runs = 200_000;
        let mut bad = 0usize;
        for _ in 0..runs {
            let a = (0..s).filter(|_| rng.bernoulli(p)).count();
            let b = (0..s).filter(|_| rng.bernoulli(p)).count();
            if a != b || a == 0 {
                bad += 1;
            }
        }
        let mc = bad as f64 / runs as f64;
        let exact = misranking_probability_equal_sizes(s, p);
        assert!((exact - mc).abs() < 0.01, "exact {exact} vs MC {mc}");
    }

    #[test]
    fn minimum_misranking_formula() {
        // Sec. 3.1 quotes (1−p)^{S−1}(1 − p + pS) as the minimum misranking
        // probability of a flow of size S (compared against a single-packet
        // flow). Algebraically this is P{Binomial(S, p) ≤ 1} — the event that
        // the large flow is sampled at most once, i.e. it cannot be placed
        // safely above the single-packet flow. Verify the identity, check
        // that it vanishes for large S, and check that our Eq. 1 evaluation
        // (which additionally requires the single-packet flow to "win") is
        // bounded above by it.
        let p: f64 = 0.1;
        for &s in &[5u64, 20, 100] {
            let closed = (1.0 - p).powi(s as i32 - 1) * (1.0 - p + p * s as f64);
            let b = flowrank_stats::dist::Binomial::new(s, p).unwrap();
            let at_most_one = flowrank_stats::dist::DiscreteDistribution::cdf(&b, 1);
            assert!(
                (closed - at_most_one).abs() < 1e-10,
                "identity fails for S={s}"
            );
            let direct = misranking_probability_exact(1, s, p);
            assert!(direct <= closed + 1e-12);
        }
        // Tends to zero as S grows.
        let large = (1.0 - p).powi(999) * (1.0 - p + p * 1_000.0);
        assert!(large < 1e-20);
    }

    #[test]
    fn minimum_decreases_with_size() {
        let p = 0.05;
        let v: Vec<f64> = [10u64, 50, 200, 1000]
            .iter()
            .map(|&s| misranking_probability_exact(1, s, p))
            .collect();
        for w in v.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn large_flows_same_absolute_gap_is_harder() {
        // Sec. 3.2 / Fig. 2: ranking two flows that differ by k packets gets
        // harder as the flows grow.
        let p = 0.1;
        let small = misranking_probability_exact(20, 30, p);
        let large = misranking_probability_exact(520, 530, p);
        assert!(large > small);
    }

    #[test]
    fn large_flows_same_relative_gap_is_easier() {
        // Sec. 3.2 / Fig. 1: with sizes in a fixed ratio, larger flows are
        // easier to rank.
        let p = 0.05;
        let small = misranking_probability_exact(20, 30, p);
        let large = misranking_probability_exact(200, 300, p);
        assert!(large < small);
    }
}
