//! The detection model (Sec. 7): identifying the top-`t` flows without
//! caring about their relative order.
//!
//! The metric only counts swapped pairs that cross the top-`t` boundary: the
//! first element of a pair is one of the true top-`t` flows, the second is a
//! flow *outside* the top `t`. The expected count is `t(N − t) · P̄*mt(p)`
//! with (Sec. 7.1)
//!
//! ```text
//! P̄*mt = (1/P̄*t) Σ_i Σ_{j<i} p_i p_j P*t(j, i, t, N) Pm(j, i)
//! P̄*t  = t(N − t) / (N(N − 1))
//! ```
//!
//! where `P*t(j, i, t, N)` is the joint probability that a flow of size `i`
//! is in the top `t` while a flow of size `j < i` is not. As with the ranking
//! model, the paper evaluates this with the Gaussian pairwise probability and
//! continuous Pareto flow sizes (a `&Pareto` from `flowrank_stats::dist`);
//! the double sum becomes a double integral concentrated near the top
//! boundary and near the diagonal, evaluated by the ranking model's scheme
//! (the outer integral is `flowrank_stats::quadrature::integrate_tail`) with
//! this model's integrand. The headline result of Sec. 7.2 is that detection
//! needs roughly an order of magnitude less sampling than ranking.

use flowrank_stats::dist::{ContinuousDistribution, Pareto};

use crate::gaussian::misranking_probability_gaussian;
use crate::ranking::{poisson_pmf, prob_at_most, required_sampling_rate, Population};

/// The detection model: `N` flows with Pareto sizes, detection of the
/// top-`t` set.
#[derive(Debug, Clone, Copy)]
pub struct DetectionModel<'a> {
    pop: Population<'a>,
}

impl<'a> DetectionModel<'a> {
    /// Creates a detection model for `n_flows` flows drawn from `dist`,
    /// evaluating the detection of the top `top_t` flows.
    ///
    /// # Panics
    ///
    /// Panics when `top_t` is zero or the population is smaller than `top_t`.
    pub(crate) fn new(dist: &'a Pareto, n_flows: u64, top_t: u32) -> Self {
        let pop = Population::new(dist, n_flows, top_t);
        assert!(
            pop.n_flows > top_t as f64,
            "the population must contain more than top_t flows"
        );
        DetectionModel { pop }
    }

    /// Number of (top-`t` flow, non-top flow) pairs, `t(N − t)`.
    pub(crate) fn pair_count(&self) -> f64 {
        self.pop.top_t as f64 * (self.pop.n_flows - self.pop.top_t as f64)
    }

    /// Joint probability that a flow of size `x` is in the top `t` while a
    /// (smaller) flow of size `y < x` is not — `P*t(y, x, t, N)` of Sec. 7.1,
    /// evaluated in the Poisson limit appropriate for large `N`.
    pub(crate) fn joint_boundary_probability(&self, y: f64, x: f64) -> f64 {
        let n = self.pop.n_flows;
        let t = self.pop.top_t;
        let sfx = self.pop.dist.sf(x);
        let sfy = self.pop.dist.sf(y);
        // Number of flows larger than x (other than the two singled out).
        let lambda_above = (n - 2.0) * sfx;
        let mut total = 0.0;
        for k in 0..t {
            let p_k = poisson_pmf(k, lambda_above);
            if p_k < 1e-16 {
                continue;
            }
            // y is outside the top t when the flows above y — the k flows
            // above x, x itself, and the flows between y and x — number at
            // least t, i.e. at least t − k − 1 flows fall between y and x.
            let needed = t as i64 - k as i64 - 1;
            let p_enough_between = if needed <= 0 {
                1.0
            } else {
                1.0 - prob_at_most(needed as u32, n - 2.0, (sfy - sfx).max(0.0))
            };
            total += p_k * p_enough_between;
        }
        total.clamp(0.0, 1.0)
    }

    /// Probability `P̄*mt(p)` that a top-`t` flow is swapped with a flow
    /// outside the top `t` after sampling at rate `p`.
    pub(crate) fn average_misclassification_probability(&self, p: f64) -> f64 {
        let (dist, n, t) = (self.pop.dist, self.pop.n_flows, self.pop.top_t);
        let inner = |x: f64| {
            // Flows with essentially no chance of being in the top t
            // contribute nothing.
            if prob_at_most(t, n - 2.0, dist.sf(x)) < 1e-14 {
                return 0.0;
            }
            self.pop.below(x, p, |y| {
                dist.pdf(y)
                    * self.joint_boundary_probability(y, x)
                    * misranking_probability_gaussian(y, x, p)
            })
        };
        // P̄*mt = total / P̄*t with P̄*t = t(N−t)/(N(N−1)).
        let p_star_t = self.pair_count() / (n * (n - 1.0));
        self.pop
            .swap_probability(p, inner, |total| total / p_star_t)
    }

    /// The paper's detection metric: expected number of swapped pairs across
    /// the top-`t` boundary, `t(N − t) · P̄*mt(p)`.
    pub fn mean_swapped_pairs(&self, p: f64) -> f64 {
        self.pair_count() * self.average_misclassification_probability(p)
    }

    /// Smallest sampling rate (within `[min_rate, 1]`) for which the
    /// detection metric drops below `threshold`.
    pub fn required_sampling_rate(&self, threshold: f64, min_rate: f64) -> f64 {
        required_sampling_rate(|p| self.mean_swapped_pairs(p), threshold, min_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::RankingModel;

    fn five_tuple_model() -> Pareto {
        Pareto::with_mean(9.6, 1.5).unwrap()
    }

    #[test]
    fn joint_probability_behaviour() {
        let dist = five_tuple_model();
        let model = DetectionModel::new(&dist, 100_000, 10);
        // x at the top boundary, y well below it: the joint event is likely.
        let x_top = dist.quantile(1.0 - 2.0 / 100_000.0);
        let y_low = dist.quantile(0.5);
        let high = model.joint_boundary_probability(y_low, x_top);
        assert!(high > 0.9, "joint probability {high}");
        // y just below x near the boundary: much less certain.
        let y_close = x_top * 0.98;
        let close = model.joint_boundary_probability(y_close, x_top);
        assert!(close < high);
        // x far below the boundary: essentially impossible to be in the top.
        let x_low = dist.quantile(0.2);
        assert!(model.joint_boundary_probability(dist.quantile(0.1), x_low) < 1e-3);
    }

    #[test]
    fn metric_monotone_in_rate() {
        let dist = five_tuple_model();
        let model = DetectionModel::new(&dist, 700_000, 10);
        let values: Vec<f64> = [0.001, 0.01, 0.1]
            .iter()
            .map(|&p| model.mean_swapped_pairs(p))
            .collect();
        for w in values.windows(2) {
            assert!(w[1] < w[0], "{values:?}");
        }
        assert_eq!(model.average_misclassification_probability(0.0), 1.0);
        assert_eq!(model.average_misclassification_probability(1.0), 0.0);
    }

    #[test]
    fn detection_is_easier_than_ranking() {
        // The headline of Sec. 7: at the same sampling rate the detection
        // metric is far below the ranking metric, and the required rate drops
        // by roughly an order of magnitude.
        let dist = five_tuple_model();
        let n = 700_000;
        let t = 10;
        let p = 0.05;
        let ranking = RankingModel::new(&dist, n, t).mean_swapped_pairs(p);
        let detection = DetectionModel::new(&dist, n, t).mean_swapped_pairs(p);
        assert!(
            detection < ranking,
            "detection {detection} should be below ranking {ranking}"
        );

        let rate_ranking = RankingModel::new(&dist, n, t).required_sampling_rate(1.0, 1e-3);
        let rate_detection = DetectionModel::new(&dist, n, t).required_sampling_rate(1.0, 1e-3);
        assert!(
            rate_detection < rate_ranking / 2.0,
            "detection rate {rate_detection} vs ranking rate {rate_ranking}"
        );
    }

    #[test]
    fn detection_equals_ranking_for_top_one() {
        // For t = 1 the two problems coincide (Sec. 7.1).
        let dist = five_tuple_model();
        let n = 100_000;
        let p = 0.01;
        let ranking = RankingModel::new(&dist, n, 1).mean_swapped_pairs(p);
        let detection = DetectionModel::new(&dist, n, 1).mean_swapped_pairs(p);
        let ratio = detection / ranking;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "t=1: detection {detection} vs ranking {ranking}"
        );
    }

    #[test]
    fn larger_t_is_harder_to_detect() {
        let dist = five_tuple_model();
        let p = 0.01;
        let m2 = DetectionModel::new(&dist, 700_000, 2).mean_swapped_pairs(p);
        let m25 = DetectionModel::new(&dist, 700_000, 25).mean_swapped_pairs(p);
        assert!(m2 < m25);
    }

    #[test]
    #[should_panic(expected = "more than top_t")]
    fn population_must_exceed_top_t() {
        let dist = five_tuple_model();
        let _ = DetectionModel::new(&dist, 10, 10);
    }
}
