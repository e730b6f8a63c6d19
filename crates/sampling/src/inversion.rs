//! Inversion: recovering original-traffic quantities from sampled counters.
//!
//! The introduction of the paper contrasts the easy inversions (total packet
//! count: multiply by `1/p`) with the hard ones (per-flow properties). The
//! easy one is all the workspace calls: [`estimate_flow_size`], the unbiased
//! `1/p` scaling of a flow's sampled packet count, in the spirit of
//! Duffield, Lund & Thorup (reference \[9\]).

/// Unbiased estimator of an individual flow's original size in packets:
/// the sampled count scaled by `1/p` (`0` when `rate` is not positive).
pub fn estimate_flow_size(sampled_packets: u64, rate: f64) -> f64 {
    if rate <= 0.0 {
        return 0.0;
    }
    sampled_packets as f64 / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};

    #[test]
    fn scaling_is_unbiased_in_expectation() {
        let mut rng = Pcg64::seed_from_u64(1);
        let p = 0.05;
        let true_count = 200_000u64;
        let sampled = (0..true_count).filter(|_| rng.bernoulli(p)).count() as u64;
        let estimate = estimate_flow_size(sampled, p);
        let rel_err = (estimate - true_count as f64).abs() / true_count as f64;
        assert!(rel_err < 0.05, "relative error {rel_err}");
        assert_eq!(estimate_flow_size(100, 0.0), 0.0);
        assert_eq!(estimate_flow_size(10, 0.1), 100.0);
    }
}
