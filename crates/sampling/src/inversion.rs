//! Inversion estimators: recovering original-traffic quantities from sampled
//! counters.
//!
//! The introduction of the paper contrasts the easy inversions (total packet
//! count: multiply by `1/p`) with the hard ones (per-flow properties). This
//! module implements the aggregate estimators the paper builds on, in the
//! spirit of Duffield, Lund & Thorup (reference \[9\]):
//!
//! * `scale_count` / [`estimate_flow_size`] — unbiased `1/p` scaling of
//!   packet counts (per link or per flow).
//! * [`detection_probability`] — probability that a flow of a given size is
//!   seen at all, `1 − (1−p)^S`, which drives the detection results of Sec. 7.
//! * [`evasion_probability_for_sizes`] — the complementary quantity averaged
//!   over a flow-size population, `π₀ = E[(1−p)^S]`: the fraction of flows
//!   expected to disappear entirely from the sampled stream. Reference \[9\]
//!   points out that this unseen population is what makes flow counting and
//!   size-distribution inversion hard.
//! * [`estimate_original_flow_count`] — corrects the sampled flow count for
//!   the evading flows: `N̂ = M / (1 − π₀)`.
//! * [`estimate_mean_flow_size`] — mean original flow size from the unbiased
//!   packet total and the corrected flow count.

/// Scales a sampled packet count by `1/p` (unbiased under random sampling).
pub(crate) fn scale_count(sampled: u64, rate: f64) -> f64 {
    if rate <= 0.0 {
        return 0.0;
    }
    sampled as f64 / rate
}

/// Unbiased estimator of an individual flow's original size in packets.
pub fn estimate_flow_size(sampled_packets: u64, rate: f64) -> f64 {
    scale_count(sampled_packets, rate)
}

/// Probability that a flow of `size` packets is detected at all under random
/// packet sampling at rate `p`: `1 − (1−p)^size`.
pub fn detection_probability(size: u64, rate: f64) -> f64 {
    if rate >= 1.0 {
        return if size > 0 { 1.0 } else { 0.0 };
    }
    if rate <= 0.0 || size == 0 {
        return 0.0;
    }
    -(((1.0 - rate).ln() * size as f64).exp() - 1.0)
}

/// Average probability that a flow evades sampling entirely, `E[(1−p)^S]`,
/// estimated over a reference population of flow sizes (for example the
/// previous measurement interval, or a model-generated population).
pub fn evasion_probability_for_sizes(sizes: &[u64], rate: f64) -> f64 {
    if sizes.is_empty() {
        return 0.0;
    }
    if rate >= 1.0 {
        return 0.0;
    }
    if rate <= 0.0 {
        return 1.0;
    }
    let ln_q = (1.0 - rate).ln();
    sizes.iter().map(|&s| (ln_q * s as f64).exp()).sum::<f64>() / sizes.len() as f64
}

/// Estimates the number of flows in the *original* traffic from the number of
/// sampled flows `M` and the evasion probability `π₀`: `N̂ = M / (1 − π₀)`.
///
/// `π₀` comes from [`evasion_probability_for_sizes`] (empirical calibration)
/// or from a flow-size model. Returns `M` unchanged when `π₀` is out of the
/// usable range.
pub fn estimate_original_flow_count(sampled_flows: u64, evasion_probability: f64) -> f64 {
    if !(0.0..1.0).contains(&evasion_probability) {
        return sampled_flows as f64;
    }
    sampled_flows as f64 / (1.0 - evasion_probability)
}

/// Estimates the mean original flow size (in packets) from sampled totals.
///
/// Combines the unbiased total-packet estimator with the corrected flow-count
/// estimator: `mean ≈ (sampled_packets / p) / N̂`.
pub fn estimate_mean_flow_size(
    sampled_packets: u64,
    sampled_flows: u64,
    evasion_probability: f64,
    rate: f64,
) -> f64 {
    let flows = estimate_original_flow_count(sampled_flows, evasion_probability);
    if flows <= 0.0 {
        return 0.0;
    }
    scale_count(sampled_packets, rate) / flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_stats::dist::{DiscreteDistribution, Geometric};
    use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};

    #[test]
    fn scaling_is_unbiased_in_expectation() {
        let mut rng = Pcg64::seed_from_u64(1);
        let p = 0.05;
        let true_count = 200_000u64;
        let sampled = (0..true_count).filter(|_| rng.bernoulli(p)).count() as u64;
        let estimate = scale_count(sampled, p);
        let rel_err = (estimate - true_count as f64).abs() / true_count as f64;
        assert!(rel_err < 0.05, "relative error {rel_err}");
        assert_eq!(scale_count(100, 0.0), 0.0);
        assert_eq!(estimate_flow_size(10, 0.1), 100.0);
    }

    #[test]
    fn detection_probability_limits() {
        assert_eq!(detection_probability(0, 0.5), 0.0);
        assert_eq!(detection_probability(10, 0.0), 0.0);
        assert_eq!(detection_probability(10, 1.0), 1.0);
        assert_eq!(detection_probability(0, 1.0), 0.0);
        // Matches the direct formula.
        let direct = 1.0 - (1.0f64 - 0.01).powi(100);
        assert!((detection_probability(100, 0.01) - direct).abs() < 1e-12);
        // Monotone in both size and rate.
        assert!(detection_probability(100, 0.01) < detection_probability(1_000, 0.01));
        assert!(detection_probability(100, 0.01) < detection_probability(100, 0.1));
    }

    #[test]
    fn evasion_probability_bounds_and_consistency() {
        let sizes = vec![1u64, 2, 5, 10, 100];
        let p = 0.1;
        let pi0 = evasion_probability_for_sizes(&sizes, p);
        assert!(pi0 > 0.0 && pi0 < 1.0);
        // Complementarity with the detection probability, flow by flow.
        let direct: f64 = sizes
            .iter()
            .map(|&s| 1.0 - detection_probability(s, p))
            .sum::<f64>()
            / sizes.len() as f64;
        assert!((pi0 - direct).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(evasion_probability_for_sizes(&[], p), 0.0);
        assert_eq!(evasion_probability_for_sizes(&sizes, 1.0), 0.0);
        assert_eq!(evasion_probability_for_sizes(&sizes, 0.0), 1.0);
    }

    #[test]
    fn flow_count_estimator_recovers_geometric_population() {
        // Simulate sampling a population with geometric flow sizes and check
        // that correcting by the (empirically calibrated) evasion probability
        // recovers the true number of flows.
        let mut rng = Pcg64::seed_from_u64(9);
        let size_dist = Geometric::new(0.2).unwrap();
        let p = 0.1;
        let n_flows = 40_000;
        let sizes: Vec<u64> = (0..n_flows)
            .map(|_| 1 + size_dist.sample(&mut rng))
            .collect();
        let mut sampled_flows = 0u64;
        for &size in &sizes {
            let sampled = (0..size).filter(|_| rng.bernoulli(p)).count();
            if sampled > 0 {
                sampled_flows += 1;
            }
        }
        let pi0 = evasion_probability_for_sizes(&sizes, p);
        let estimate = estimate_original_flow_count(sampled_flows, pi0);
        let rel_err = (estimate - n_flows as f64).abs() / n_flows as f64;
        assert!(
            rel_err < 0.03,
            "relative error {rel_err} (estimate {estimate})"
        );
        // Degenerate evasion probabilities leave the count unchanged.
        assert_eq!(estimate_original_flow_count(10, 1.0), 10.0);
        assert_eq!(estimate_original_flow_count(10, -0.5), 10.0);
    }

    #[test]
    fn mean_flow_size_estimator_tracks_truth() {
        let mut rng = Pcg64::seed_from_u64(3);
        let p = 0.1;
        let n_flows = 20_000u64;
        let flow_size = 12u64;
        let sizes = vec![flow_size; n_flows as usize];
        let mut sampled_packets = 0u64;
        let mut sampled_flows = 0u64;
        for _ in 0..n_flows {
            let s = (0..flow_size).filter(|_| rng.bernoulli(p)).count() as u64;
            sampled_packets += s;
            if s > 0 {
                sampled_flows += 1;
            }
        }
        let pi0 = evasion_probability_for_sizes(&sizes, p);
        let estimate = estimate_mean_flow_size(sampled_packets, sampled_flows, pi0, p);
        let rel_err = (estimate - flow_size as f64).abs() / flow_size as f64;
        assert!(rel_err < 0.05, "estimated mean flow size {estimate}");
        assert_eq!(estimate_mean_flow_size(100, 0, 0.0, 0.5), 0.0);
    }
}
