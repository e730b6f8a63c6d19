//! The general ranking model (Sec. 5) and its numerical evaluation (Sec. 6),
//! and the flow population both analytical models integrate over.
//!
//! Performance metric (Sec. 5.1): form every pair whose first element is one
//! of the true top-`t` flows and whose second element is any other flow in
//! the population of `N` flows, and count how many pairs are swapped after
//! sampling. The expected count is
//!
//! ```text
//! metric(p) = (2N − t − 1) · t / 2 · P̄mt(p)
//! ```
//!
//! where `P̄mt` is the probability that a top-`t` flow is swapped with a
//! random other flow (Eq. 3). The ranking is deemed acceptable when the
//! metric is below one.
//!
//! [`RankingModel::mean_swapped_pairs`] is the **continuous** form the paper
//! uses for all of its figures: flow sizes follow the Pareto law of Sec. 6
//! (a `&Pareto` from `flowrank_stats::dist`), the pairwise misranking
//! probability uses the Gaussian closed form, and the double sum of Eq. 3
//! becomes a double integral concentrated where the integrand actually lives
//! (near the top-`t` boundary and near the diagonal `y ≈ x`, because
//! `Pm(x, y)` vanishes once the sizes differ by more than a few standard
//! deviations of the sampled difference). The outer integral over the top
//! flow's size is `flowrank_stats::quadrature::integrate_tail`; the inner one
//! is a Gauss–Legendre window around `x`. That scheme is written once, on the
//! crate-private `Population`, and the detection model of Sec. 7 reuses it
//! with its own integrand. The unit tests check the ranking model against a
//! direct summation of Eq. 3 over an integer size grid.

use flowrank_stats::dist::{ContinuousDistribution, Pareto};
use flowrank_stats::quadrature::{gauss_legendre_composite, integrate_tail};
use flowrank_stats::special::{gamma_q, ln_factorial};

use crate::gaussian::misranking_probability_gaussian;

/// Number of Gauss–Legendre panels for the inner (y) integrals.
const INNER_PANELS: usize = 6;
/// Number of standard deviations of the sampled-size difference covered by
/// the inner integration window.
const INNER_WIDTH_SIGMAS: f64 = 12.0;
/// Safety factor on the top-`t` boundary when choosing the outer range.
const OUTER_BOUNDARY_FACTOR: f64 = 40.0;
/// Number of geometric panels for the outer (x) tail integration.
const OUTER_PANELS: usize = 48;
/// Relative tolerance at which the outer tail integration stops.
const OUTER_REL_TOL: f64 = 1e-7;

/// Probability that at most `k` of `n` flows exceed a size whose survival
/// probability is `sf` — `P(Binomial(n, sf) ≤ k)`, evaluated through the
/// Poisson limit for the large populations of the paper's scenarios.
///
/// Returns 0 for `k < 0` (expressed as `k_plus_one == 0`).
pub(crate) fn prob_at_most(k_plus_one: u32, n: f64, sf: f64) -> f64 {
    if k_plus_one == 0 {
        return 0.0;
    }
    if sf <= 0.0 {
        return 1.0;
    }
    if sf >= 1.0 {
        return if (k_plus_one as f64) > n { 1.0 } else { 0.0 };
    }
    let lambda = n * sf;
    // P(Poisson(λ) ≤ k) = Q(k + 1, λ). For the scenarios of the paper
    // (N ≥ 2·10⁴, sf(x) of order t/N at the boundary) the Poisson limit of
    // the binomial is accurate to many digits.
    gamma_q(k_plus_one as f64, lambda)
}

/// Poisson probability mass `P(K = k)` with mean `lambda`.
pub(crate) fn poisson_pmf(k: u32, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    ((k as f64) * lambda.ln() - lambda - ln_factorial(k as u64)).exp()
}

/// `N` flows with Pareto sizes, of which the top `t` are ranked (Sec. 5) or
/// detected (Sec. 7), and the numerical scheme both models evaluate on it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Population<'a> {
    pub(crate) dist: &'a Pareto,
    pub(crate) n_flows: f64,
    pub(crate) top_t: u32,
}

impl<'a> Population<'a> {
    /// `n_flows` flows drawn from `dist`, of which the top `top_t` count.
    ///
    /// # Panics
    ///
    /// Panics when `top_t` is zero.
    pub(crate) fn new(dist: &'a Pareto, n_flows: u64, top_t: u32) -> Self {
        assert!(top_t >= 1, "top_t must be at least 1");
        Population {
            dist,
            n_flows: n_flows as f64,
            top_t,
        }
    }

    /// Lower end of the outer integration range: flows whose survival
    /// probability is far above `t/N` have a negligible probability of being
    /// in the top `t`.
    fn outer_lower_bound(&self) -> f64 {
        let boundary_sf = (OUTER_BOUNDARY_FACTOR * self.top_t as f64 / self.n_flows).min(1.0);
        if boundary_sf >= 1.0 {
            self.dist.scale()
        } else {
            self.dist.quantile(1.0 - boundary_sf).max(self.dist.scale())
        }
    }

    /// Half-width of the inner integration window around `x` at sampling
    /// rate `p`: misranking is only likely within a few standard deviations
    /// of the sampled size difference, `σ ≈ √(2(1/p − 1)·2x)` in packets.
    fn inner_half_width(&self, x: f64, p: f64) -> f64 {
        let sigma = (2.0 * (1.0 / p - 1.0) * 2.0 * x).sqrt();
        (INNER_WIDTH_SIGMAS * sigma).max(2.0)
    }

    /// `∫ f(y) dy` over the inner window below `x` at rate `p`.
    pub(crate) fn below(&self, x: f64, p: f64, f: impl Fn(f64) -> f64) -> f64 {
        let lo = (x - self.inner_half_width(x, p)).max(self.dist.scale());
        gauss_legendre_composite(f, lo, x, INNER_PANELS)
    }

    /// `∫ f(y) dy` over the inner window above `x` at rate `p`.
    pub(crate) fn above(&self, x: f64, p: f64, f: impl Fn(f64) -> f64) -> f64 {
        gauss_legendre_composite(f, x, x + self.inner_half_width(x, p), INNER_PANELS)
    }

    /// The swap probability at rate `p`: `normalise(∫ pdf(x)·inner(x) dx)`
    /// over the top of the population, clamped to `[0, 1]`; 1 at `p ≤ 0` and
    /// 0 at `p ≥ 1`. `inner(x)` is the model's weighted inner integral for a
    /// top flow of size `x`.
    pub(crate) fn swap_probability(
        &self,
        p: f64,
        inner: impl Fn(f64) -> f64,
        normalise: impl FnOnce(f64) -> f64,
    ) -> f64 {
        if p <= 0.0 {
            return 1.0;
        }
        if p >= 1.0 {
            return 0.0;
        }
        let outer = |x: f64| {
            let fx = self.dist.pdf(x);
            if fx <= 0.0 {
                return 0.0;
            }
            fx * inner(x)
        };
        let total = integrate_tail(outer, self.outer_lower_bound(), OUTER_REL_TOL, OUTER_PANELS);
        normalise(total).clamp(0.0, 1.0)
    }
}

/// Smallest sampling rate (within `[min_rate, 1]`) for which the monotone
/// `metric` drops below `threshold`, by bisection.
pub(crate) fn required_sampling_rate(
    metric: impl Fn(f64) -> f64,
    threshold: f64,
    min_rate: f64,
) -> f64 {
    let lo = min_rate.clamp(1e-6, 1.0);
    flowrank_stats::roots::monotone_threshold(metric, lo, 1.0, threshold, 1e-4, 60).unwrap_or(1.0)
}

/// The general ranking model: `N` flows with Pareto sizes, ranking of the
/// top `t`.
#[derive(Debug, Clone, Copy)]
pub struct RankingModel<'a> {
    pop: Population<'a>,
}

impl<'a> RankingModel<'a> {
    /// Creates a ranking model for `n_flows` flows drawn from `dist`,
    /// evaluating the ranking of the top `top_t` flows.
    ///
    /// # Panics
    ///
    /// Panics when `top_t` is zero or `n_flows < top_t` (configuration
    /// errors in an experiment definition).
    pub(crate) fn new(dist: &'a Pareto, n_flows: u64, top_t: u32) -> Self {
        let pop = Population::new(dist, n_flows, top_t);
        assert!(
            pop.n_flows >= top_t as f64,
            "the population must contain at least top_t flows"
        );
        RankingModel { pop }
    }

    /// Number of (top-`t` flow, other flow) pairs: `(2N − t − 1)·t/2`.
    pub(crate) fn pair_count(&self) -> f64 {
        (2.0 * self.pop.n_flows - self.pop.top_t as f64 - 1.0) * self.pop.top_t as f64 / 2.0
    }

    /// Probability `P̄mt(p)` that a top-`t` flow is swapped with a random
    /// other flow after sampling at rate `p` (Eq. 3, continuous form).
    pub(crate) fn average_misranking_probability(&self, p: f64) -> f64 {
        let (dist, n, t) = (self.pop.dist, self.pop.n_flows, self.pop.top_t);
        // Inner integrals for a (candidate) top flow of size x.
        let inner = |x: f64| {
            let sfx = dist.sf(x);
            // Probability weights of Eq. 3: the other flow is smaller
            // (weight A) or larger (weight B) than x.
            let weight_smaller = prob_at_most(t, n - 2.0, sfx);
            let weight_larger = if t >= 2 {
                prob_at_most(t - 1, n - 2.0, sfx)
            } else {
                0.0
            };
            // Flows far below the top-t boundary contribute nothing; skip the
            // inner integrals entirely for them.
            if weight_smaller < 1e-14 && weight_larger < 1e-14 {
                return 0.0;
            }
            let below = if weight_smaller > 0.0 {
                self.pop.below(x, p, |y| {
                    dist.pdf(y) * misranking_probability_gaussian(y, x, p)
                })
            } else {
                0.0
            };
            let above = if weight_larger > 0.0 {
                self.pop.above(x, p, |y| {
                    dist.pdf(y) * misranking_probability_gaussian(x, y, p)
                })
            } else {
                0.0
            };
            weight_smaller * below + weight_larger * above
        };
        self.pop
            .swap_probability(p, inner, |total| (n / t as f64) * total)
    }

    /// The paper's ranking metric: expected number of swapped pairs involving
    /// a top-`t` flow, `(2N − t − 1)·t/2 · P̄mt(p)`.
    pub fn mean_swapped_pairs(&self, p: f64) -> f64 {
        self.pair_count() * self.average_misranking_probability(p)
    }

    /// Smallest sampling rate (within `[min_rate, 1]`) for which the metric
    /// drops below `threshold` (typically 1.0, the paper's acceptability
    /// criterion). Uses bisection on the monotone metric.
    pub fn required_sampling_rate(&self, threshold: f64, min_rate: f64) -> f64 {
        required_sampling_rate(|p| self.mean_swapped_pairs(p), threshold, min_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::PairwiseModel;
    use crate::scenario::Scenario;

    fn five_tuple_model(beta: f64) -> Pareto {
        Pareto::with_mean(9.6, beta).unwrap()
    }

    /// Direct (discrete) evaluation of Eq. 3 over an integer size grid — the
    /// test oracle the continuous [`RankingModel`] is checked against.
    ///
    /// `pmf[k]` is the probability that a flow has `k + 1` packets (sizes start
    /// at one packet). Intended for populations small enough that the O(M²)
    /// double sum is affordable; the `model` argument selects the exact binomial
    /// or Gaussian pairwise probability, which is the exact-vs-Gaussian ablation
    /// of the paper's Sec. 4/5 discussion.
    fn discrete_mean_swapped_pairs(
        pmf: &[f64],
        n_flows: u64,
        top_t: u32,
        p: f64,
        model: PairwiseModel,
    ) -> f64 {
        assert!(top_t >= 1, "top_t must be at least 1");
        let m = pmf.len();
        let n = n_flows as f64;
        let t = top_t;
        if m == 0 {
            return 0.0;
        }
        // Survival function P_i = P(size >= i), sizes are 1-based.
        let mut sf_at_least = vec![0.0; m + 1];
        for i in (0..m).rev() {
            sf_at_least[i] = sf_at_least[i + 1] + pmf[i];
        }

        let mut pmt_weighted = 0.0;
        for i in 0..m {
            let size_i = (i + 1) as u64;
            let p_i = pmf[i];
            if p_i <= 0.0 {
                continue;
            }
            // P_i in the paper: probability another flow is at least as large.
            let sf_i = sf_at_least[i];
            let weight_smaller = prob_at_most(t, n - 1.0, sf_i);
            let weight_larger = if t >= 2 {
                prob_at_most(t - 1, n - 1.0, sf_i)
            } else {
                0.0
            };
            // Sizes far below the top-t boundary cannot contribute; skipping them
            // keeps the double sum proportional to the top region only.
            if weight_smaller < 1e-14 && weight_larger < 1e-14 {
                continue;
            }
            let mut below = 0.0;
            let mut above = 0.0;
            for (j, &p_j) in pmf.iter().enumerate().take(m) {
                if p_j <= 0.0 {
                    continue;
                }
                let size_j = (j + 1) as u64;
                let pm = model.misranking_probability(size_j.min(size_i), size_j.max(size_i), p);
                if size_j < size_i {
                    below += p_j * pm;
                } else {
                    above += p_j * pm;
                }
            }
            pmt_weighted += p_i * (weight_smaller * below + weight_larger * above);
        }
        let pmt_bar = (n / t as f64) * pmt_weighted;
        (2.0 * n - t as f64 - 1.0) * t as f64 / 2.0 * pmt_bar.clamp(0.0, 1.0)
    }

    #[test]
    fn prob_at_most_limits() {
        assert_eq!(prob_at_most(0, 100.0, 0.5), 0.0);
        assert_eq!(prob_at_most(3, 100.0, 0.0), 1.0);
        assert_eq!(prob_at_most(3, 100.0, 1.0), 0.0);
        // Matches the Poisson CDF.
        let lambda: f64 = 2.0;
        let direct: f64 = (0..=3)
            .map(|k| (-lambda).exp() * lambda.powi(k) / (1..=k).product::<i32>().max(1) as f64)
            .sum();
        assert!((prob_at_most(4, 1000.0, lambda / 1000.0) - direct).abs() < 1e-6);
    }

    #[test]
    fn poisson_pmf_normalises() {
        let total: f64 = (0..60).map(|k| poisson_pmf(k, 7.5)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(poisson_pmf(0, 0.0), 1.0);
        assert_eq!(poisson_pmf(3, 0.0), 0.0);
    }

    #[test]
    fn metric_is_monotone_in_sampling_rate() {
        let dist = five_tuple_model(1.5);
        let model = RankingModel::new(&dist, 700_000, 10);
        let rates = [0.001, 0.01, 0.1, 0.5];
        let values: Vec<f64> = rates.iter().map(|&p| model.mean_swapped_pairs(p)).collect();
        for w in values.windows(2) {
            assert!(w[1] < w[0], "metric must decrease with p: {values:?}");
        }
        // Degenerate rates.
        assert_eq!(model.average_misranking_probability(0.0), 1.0);
        assert_eq!(model.average_misranking_probability(1.0), 0.0);
    }

    #[test]
    fn paper_scale_behaviour_five_tuple() {
        // Fig. 4 (5-tuple, N = 0.7M, β = 1.5, t = 10): a 0.1% sampling rate
        // is hopeless (metric ≫ 1), while ~50% sampling is acceptable.
        let dist = five_tuple_model(1.5);
        let model = RankingModel::new(&dist, 700_000, 10);
        assert!(
            model.mean_swapped_pairs(0.001) > 100.0,
            "0.1% sampling should be far above the acceptability line"
        );
        assert!(
            model.mean_swapped_pairs(0.5) < 5.0,
            "50% sampling should be close to (or below) acceptability"
        );
    }

    #[test]
    fn more_top_flows_is_harder() {
        // Fig. 4: larger t needs higher rates.
        let dist = five_tuple_model(1.5);
        let p = 0.02;
        let metric_t1 = RankingModel::new(&dist, 700_000, 1).mean_swapped_pairs(p);
        let metric_t5 = RankingModel::new(&dist, 700_000, 5).mean_swapped_pairs(p);
        let metric_t25 = RankingModel::new(&dist, 700_000, 25).mean_swapped_pairs(p);
        assert!(metric_t1 < metric_t5);
        assert!(metric_t5 < metric_t25);
    }

    #[test]
    fn heavier_tail_is_easier_to_rank() {
        // Fig. 6: smaller β (heavier tail) improves the ranking.
        let p = 0.05;
        let heavy = Pareto::with_mean(9.6, 1.2).unwrap();
        let light = Pareto::with_mean(9.6, 2.5).unwrap();
        let m_heavy = RankingModel::new(&heavy, 700_000, 10).mean_swapped_pairs(p);
        let m_light = RankingModel::new(&light, 700_000, 10).mean_swapped_pairs(p);
        assert!(
            m_heavy < m_light,
            "heavy tail {m_heavy} should beat light tail {m_light}"
        );
    }

    #[test]
    fn more_flows_is_easier() {
        // Fig. 8: increasing N improves the ranking at a fixed rate.
        let dist = five_tuple_model(1.5);
        let p = 0.01;
        let m_small = RankingModel::new(&dist, 140_000, 10).mean_swapped_pairs(p);
        let m_large = RankingModel::new(&dist, 3_500_000, 10).mean_swapped_pairs(p);
        assert!(
            m_large < m_small,
            "N = 3.5M ({m_large}) should beat N = 140K ({m_small})"
        );
    }

    #[test]
    fn required_rate_reproduces_headline_result() {
        // Headline: ranking the top 10 of ~10⁵–10⁶ Pareto flows needs a
        // sampling rate above 10%.
        let dist = five_tuple_model(1.5);
        let model = RankingModel::new(&dist, 700_000, 10);
        let rate = model.required_sampling_rate(1.0, 1e-3);
        assert!(rate > 0.10, "required rate {rate} should exceed 10%");
        // The top-1 flow is much easier.
        let rate_top1 = RankingModel::new(&dist, 700_000, 1).required_sampling_rate(1.0, 1e-3);
        assert!(rate_top1 < rate);
    }

    #[test]
    fn prefix_scenario_not_dramatically_better() {
        // Sec. 6.4 (4): /24 aggregation does not significantly improve the
        // ranking — at 1% the metric stays above the acceptability line for
        // t = 10 in both definitions.
        let p = 0.01;
        let five = Scenario::sprint_five_tuple(1.5);
        let prefix = Scenario::sprint_prefix24(1.5);
        let m5 = five.ranking_model(10).mean_swapped_pairs(p);
        let m24 = prefix.ranking_model(10).mean_swapped_pairs(p);
        assert!(m5 > 1.0);
        assert!(m24 > 1.0);
    }

    #[test]
    fn discrete_model_agrees_with_continuous_on_small_population() {
        // Small population where both evaluations are affordable: the
        // discretised Pareto fed to the discrete model should give a metric
        // within a factor ~2 of the continuous evaluation.
        let dist = Pareto::with_mean(20.0, 1.5).unwrap();
        let n = 2_000u64;
        let t = 5u32;
        let p = 0.05;
        // Discretise the Pareto onto sizes 1..=4000 packets.
        let max_size = 4_000usize;
        let mut pmf = vec![0.0; max_size];
        for (k, slot) in pmf.iter_mut().enumerate() {
            let lo = (k as f64) + 0.5;
            let hi = (k as f64) + 1.5;
            *slot = (dist.sf(lo) - dist.sf(hi)).max(0.0);
        }
        // Renormalise the truncated grid.
        let total: f64 = pmf.iter().sum();
        pmf.iter_mut().for_each(|v| *v /= total);

        let discrete = discrete_mean_swapped_pairs(&pmf, n, t, p, PairwiseModel::Gaussian);
        let continuous = RankingModel::new(&dist, n, t).mean_swapped_pairs(p);
        assert!(discrete > 0.0 && continuous > 0.0);
        let ratio = discrete / continuous;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "discrete {discrete} vs continuous {continuous} (ratio {ratio})"
        );
    }

    #[test]
    fn discrete_model_exact_vs_gaussian_agree() {
        // Moderate sizes, moderate rate: the two pairwise models give nearly
        // the same aggregate metric.
        let dist = Pareto::with_mean(50.0, 1.5).unwrap();
        let max_size = 800usize;
        let mut pmf = vec![0.0; max_size];
        for (k, slot) in pmf.iter_mut().enumerate() {
            *slot = (dist.sf(k as f64 + 0.5) - dist.sf(k as f64 + 1.5)).max(0.0);
        }
        let total: f64 = pmf.iter().sum();
        pmf.iter_mut().for_each(|v| *v /= total);
        let exact = discrete_mean_swapped_pairs(&pmf, 500, 3, 0.2, PairwiseModel::Exact);
        let gauss = discrete_mean_swapped_pairs(&pmf, 500, 3, 0.2, PairwiseModel::Gaussian);
        let ratio = exact / gauss;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "exact {exact} vs gaussian {gauss}"
        );
    }

    #[test]
    #[should_panic(expected = "top_t")]
    fn zero_top_t_is_rejected() {
        let dist = five_tuple_model(1.5);
        let _ = RankingModel::new(&dist, 100, 0);
    }
}
