//! Optimal sampling rate for a pair of flows (Sec. 3.2, Figs. 1–2).
//!
//! For any pair of flow sizes the misranking probability decreases
//! monotonically from 1 to 0 as `p` goes from 0 to 1, so for a desired
//! misranking probability `Pm,d` there is a unique minimum ("optimal")
//! sampling rate `p_d` achieving it. Figures 1 and 2 of the paper plot this
//! surface over a grid of flow-size pairs for `Pm,d = 0.1%`.

use flowrank_stats::roots::monotone_threshold;

use crate::gaussian::misranking_probability_gaussian;
use crate::pairwise::misranking_probability_exact;

/// Which pairwise misranking model to use when solving for the rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairwiseModel {
    /// The exact binomial double sum of Eq. 1.
    Exact,
    /// The Gaussian closed form of Eq. 2.
    Gaussian,
}

impl PairwiseModel {
    /// Evaluates the chosen model.
    pub(crate) fn misranking_probability(self, s1: u64, s2: u64, p: f64) -> f64 {
        match self {
            PairwiseModel::Exact => misranking_probability_exact(s1, s2, p),
            PairwiseModel::Gaussian => misranking_probability_gaussian(s1 as f64, s2 as f64, p),
        }
    }
}

/// Smallest sampling rate `p_d ∈ [min_rate, 1]` such that the misranking
/// probability of flows `s1` and `s2` is at most `target`.
///
/// Returns 1.0 when even full sampling cannot reach the target (e.g. two
/// equal-size flows under the exact model) and `min_rate` when the target is
/// already met at the lowest rate considered.
pub fn optimal_sampling_rate(
    s1: u64,
    s2: u64,
    target: f64,
    model: PairwiseModel,
    min_rate: f64,
) -> f64 {
    let lo = min_rate.clamp(1e-9, 1.0);
    monotone_threshold(
        |p| model.misranking_probability(s1, s2, p),
        lo,
        1.0,
        target,
        1e-6,
        200,
    )
    .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn achieves_the_target() {
        let target = 1e-3; // the paper's Pm,d = 0.1 %
        for &(s1, s2) in &[(100u64, 300u64), (50, 500), (1_000, 2_000)] {
            let p = optimal_sampling_rate(s1, s2, target, PairwiseModel::Gaussian, 1e-4);
            let pm = misranking_probability_gaussian(s1 as f64, s2 as f64, p);
            assert!(
                pm <= target * 1.05,
                "Pm({s1},{s2};{p}) = {pm} exceeds target"
            );
            // And just below the optimum the target is violated (minimality),
            // unless the optimum saturated at the lower bound.
            if p > 2e-4 {
                let pm_below = misranking_probability_gaussian(s1 as f64, s2 as f64, p * 0.8);
                assert!(pm_below > target);
            }
        }
    }

    #[test]
    fn similar_sizes_need_high_rates_distant_sizes_low_rates() {
        // The qualitative shape of Fig. 1.
        let target = 1e-3;
        let close = optimal_sampling_rate(500, 520, target, PairwiseModel::Gaussian, 1e-4);
        let far = optimal_sampling_rate(50, 1_000, target, PairwiseModel::Gaussian, 1e-4);
        assert!(
            close > 0.5,
            "close sizes should need a high rate, got {close}"
        );
        assert!(far < 0.3, "distant sizes should need a low rate, got {far}");
        assert!(far < close);
    }

    #[test]
    fn fixed_ratio_rate_decreases_with_scale() {
        // Fig. 1 (log scale): for sizes (αS, S) the optimal rate decreases as
        // S grows.
        let target = 1e-3;
        let small = optimal_sampling_rate(50, 100, target, PairwiseModel::Gaussian, 1e-5);
        let large = optimal_sampling_rate(500, 1_000, target, PairwiseModel::Gaussian, 1e-5);
        assert!(large < small);
    }

    #[test]
    fn fixed_gap_rate_increases_with_scale() {
        // Fig. 2 (linear scale): for sizes (S−k, S) the optimal rate increases
        // as S grows.
        let target = 1e-2;
        let small = optimal_sampling_rate(80, 100, target, PairwiseModel::Gaussian, 1e-5);
        let large = optimal_sampling_rate(880, 900, target, PairwiseModel::Gaussian, 1e-5);
        assert!(large > small);
    }

    #[test]
    fn exact_and_gaussian_agree_for_large_flows() {
        let target = 1e-3;
        let exact = optimal_sampling_rate(400, 800, target, PairwiseModel::Exact, 1e-4);
        let gauss = optimal_sampling_rate(400, 800, target, PairwiseModel::Gaussian, 1e-4);
        let rel = (exact - gauss).abs() / exact.max(gauss);
        assert!(rel < 0.25, "exact {exact} vs gaussian {gauss}");
    }

    #[test]
    fn equal_sizes_saturate_near_full_sampling() {
        // Two equal flows can only be "ranked" reliably (i.e. tie correctly
        // observed) when essentially every packet is sampled.
        let p = optimal_sampling_rate(200, 200, 1e-3, PairwiseModel::Exact, 1e-4);
        assert!(p > 0.99, "optimal rate for equal sizes is {p}");
    }

    #[test]
    fn surface_shape() {
        let sizes = [10u64, 100, 1_000];
        let surface = sizes.map(|s1| {
            sizes.map(|s2| optimal_sampling_rate(s1, s2, 1e-3, PairwiseModel::Gaussian, 1e-4))
        });
        // Diagonal (equal sizes) needs the highest rate in each row.
        for (i, row) in surface.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                assert!(value <= surface[i][i] + 1e-9, "({i},{j})");
                assert!((0.0..=1.0).contains(&value));
            }
        }
    }
}
