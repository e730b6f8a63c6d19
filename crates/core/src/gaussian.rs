//! Gaussian approximation of the misranking probability (Sec. 4, Eq. 2).
//!
//! When `pS` is at least of order one, a flow's sampled size is well
//! approximated by a Normal with mean `pS` and variance `p(1−p)S`, so the
//! difference of the two sampled sizes is also Normal and
//!
//! ```text
//! Pm(S1, S2) ≈ ½ · erfc( |S2 − S1| / √(2(1/p − 1)(S1 + S2)) )
//! ```
//!
//! This closed form is what makes the general ranking model tractable (the
//! paper reports the computation dropping from hours to seconds); the price
//! is an error when both flows are small relative to `1/p`, quantified by
//! [`gaussian_absolute_error`] and plotted in Fig. 3.

use flowrank_stats::special::erfc;

use crate::pairwise::misranking_probability_exact;

/// Gaussian (Eq. 2) approximation of the misranking probability of two flows
/// of sizes `s1` and `s2` packets under sampling at rate `p`.
pub fn misranking_probability_gaussian(s1: f64, s2: f64, p: f64) -> f64 {
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        return if s1 == s2 { 0.5 } else { 0.0 };
    }
    let total = s1 + s2;
    if total <= 0.0 {
        return 1.0;
    }
    let argument = (s2 - s1).abs() / (2.0 * (1.0 / p - 1.0) * total).sqrt();
    0.5 * erfc(argument)
}

/// Absolute error of the Gaussian approximation against the exact Eq. 1
/// probability, `|Pm_gauss − Pm_exact|` (the quantity plotted in Fig. 3).
pub fn gaussian_absolute_error(s1: u64, s2: u64, p: f64) -> f64 {
    (misranking_probability_gaussian(s1 as f64, s2 as f64, p)
        - misranking_probability_exact(s1, s2, p))
    .abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_exact_when_ps_is_large() {
        // Fig. 3 region: once one flow has pS ≳ 3 the absolute error is small.
        let p = 0.01;
        for &(s1, s2) in &[(400u64, 500u64), (1_000, 1_200), (350, 900)] {
            let err = gaussian_absolute_error(s1, s2, p);
            assert!(err < 0.10, "error {err} too large for ({s1},{s2})");
        }
        // Deeper into the Fig. 3 "safe" region the error keeps shrinking.
        assert!(gaussian_absolute_error(2_000, 2_500, p) < 0.03);
        // Higher rate, moderate flows.
        assert!(gaussian_absolute_error(100, 150, 0.1) < 0.05);
    }

    #[test]
    fn error_is_large_when_both_flows_tiny() {
        // Both flows ≪ 1/p: the Normal approximation cannot hold.
        let err = gaussian_absolute_error(3, 5, 0.01);
        assert!(err > 0.2, "expected a large error, got {err}");
    }

    #[test]
    fn degenerate_rates_and_sizes() {
        assert_eq!(misranking_probability_gaussian(10.0, 20.0, 0.0), 1.0);
        assert_eq!(misranking_probability_gaussian(10.0, 20.0, 1.0), 0.0);
        assert_eq!(misranking_probability_gaussian(10.0, 10.0, 1.0), 0.5);
        assert_eq!(misranking_probability_gaussian(0.0, 0.0, 0.5), 1.0);
        // Equal sizes at an intermediate rate: erfc(0)/2 = 1/2.
        assert!((misranking_probability_gaussian(500.0, 500.0, 0.1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn symmetry_and_monotonicity() {
        let p = 0.05;
        assert!(
            (misranking_probability_gaussian(100.0, 300.0, p)
                - misranking_probability_gaussian(300.0, 100.0, p))
            .abs()
                < 1e-15
        );
        // Decreasing in p.
        let values: Vec<f64> = [0.001, 0.01, 0.1, 0.5]
            .iter()
            .map(|&p| misranking_probability_gaussian(800.0, 1_000.0, p))
            .collect();
        for w in values.windows(2) {
            assert!(w[1] < w[0]);
        }
        // Decreasing in the size gap.
        assert!(
            misranking_probability_gaussian(900.0, 1_000.0, p)
                > misranking_probability_gaussian(500.0, 1_000.0, p)
        );
    }

    #[test]
    fn same_absolute_gap_harder_for_larger_flows() {
        // S1 = S2 − k: Pm increases with the common size (Sec. 4).
        let p = 0.1;
        let small = misranking_probability_gaussian(90.0, 100.0, p);
        let large = misranking_probability_gaussian(990.0, 1_000.0, p);
        assert!(large > small);
    }

    #[test]
    fn same_relative_gap_easier_for_larger_flows() {
        // S1 = αS2: Pm decreases with the common scale (Sec. 4).
        let p = 0.1;
        let small = misranking_probability_gaussian(80.0, 100.0, p);
        let large = misranking_probability_gaussian(800.0, 1_000.0, p);
        assert!(large < small);
    }

    #[test]
    fn sqrt_condition_boundary() {
        // Along the √-family the probability is scale-invariant (constant in
        // the base size) — the threshold behaviour described in Sec. 4.
        let p = 0.05;
        let along_sqrt_family =
            |base: f64| misranking_probability_gaussian(base, base + 3.0 * base.sqrt(), p);
        let a = along_sqrt_family(1_000.0);
        let b = along_sqrt_family(100_000.0);
        let rel = (a - b).abs() / a;
        assert!(
            rel < 0.05,
            "√-family should be nearly scale-free: {a} vs {b}"
        );
        // Faster-than-√ growth: probability drops with scale.
        let faster_small =
            misranking_probability_gaussian(1_000.0, 1_000.0 + 1_000.0f64.powf(0.75), p);
        let faster_large =
            misranking_probability_gaussian(100_000.0, 100_000.0 + 100_000.0f64.powf(0.75), p);
        assert!(faster_large < faster_small);
    }
}
