//! Flow-size distribution abstraction used by the general models.
//!
//! The ranking and detection models of Secs. 5–7 only need four things from
//! the flow-size law: its density, its survival function ("probability that a
//! flow is larger than x", the `P_i` of the paper), its quantile function
//! (to locate the top-`t` boundary) and its lower bound. The paper uses a
//! Pareto law calibrated to the Sprint mean flow sizes; the trait keeps the
//! models generic over the law.

use flowrank_stats::dist::{ContinuousDistribution, Pareto};
use flowrank_stats::StatsResult;

/// A continuous flow-size distribution, in packets.
pub trait FlowSizeModel {
    /// Probability density at `x` packets.
    fn pdf(&self, x: f64) -> f64;

    /// Survival function `P{S > x}` (the paper's `P_i`).
    fn sf(&self, x: f64) -> f64;

    /// Quantile function (inverse CDF).
    fn quantile(&self, q: f64) -> f64;

    /// Smallest possible flow size (in packets).
    fn lower_bound(&self) -> f64;

    /// Mean flow size, if finite.
    fn mean(&self) -> Option<f64>;

    /// Human-readable description for reports.
    fn describe(&self) -> String;
}

/// Pareto flow sizes — the model of Sec. 6, `P{S > x} = (x/a)^{-β}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoFlowModel {
    dist: Pareto,
}

impl ParetoFlowModel {
    /// Pareto flow-size model with the given mean (packets) and shape β > 1.
    pub(crate) fn with_mean(mean_packets: f64, shape: f64) -> StatsResult<Self> {
        Ok(ParetoFlowModel {
            dist: Pareto::with_mean(mean_packets, shape)?,
        })
    }
}

impl FlowSizeModel for ParetoFlowModel {
    fn pdf(&self, x: f64) -> f64 {
        self.dist.pdf(x)
    }

    fn sf(&self, x: f64) -> f64 {
        self.dist.sf(x)
    }

    fn quantile(&self, q: f64) -> f64 {
        self.dist.quantile(q)
    }

    fn lower_bound(&self) -> f64 {
        self.dist.scale()
    }

    fn mean(&self) -> Option<f64> {
        self.dist.mean()
    }

    fn describe(&self) -> String {
        format!(
            "Pareto(a = {:.3}, beta = {:.2})",
            self.dist.scale(),
            self.dist.shape()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_model_matches_paper_calibration() {
        // 5-tuple flows: 4.8 KB / 500 B = 9.6 packets, β = 1.5.
        let m = ParetoFlowModel::with_mean(9.6, 1.5).unwrap();
        assert!((m.mean().unwrap() - 9.6).abs() < 1e-12);
        assert!((m.dist.shape() - 1.5).abs() < 1e-12);
        assert!((m.lower_bound() - 3.2).abs() < 1e-12);
        // Survival function has the documented form.
        assert!((m.sf(32.0) - (32.0f64 / 3.2).powf(-1.5)).abs() < 1e-12);
        assert!(m.describe().contains("Pareto"));
        assert!(ParetoFlowModel::with_mean(9.6, 0.9).is_err());
    }

    #[test]
    fn quantile_and_sf_are_inverse() {
        let m = ParetoFlowModel::with_mean(33.2, 1.5).unwrap();
        for &q in &[0.5, 0.9, 0.999, 0.999_99] {
            let x = m.quantile(q);
            assert!((m.sf(x) - (1.0 - q)).abs() < 1e-9, "q = {q}");
        }
    }

    #[test]
    fn heavier_tail_has_larger_top_quantiles() {
        let heavy = ParetoFlowModel::with_mean(9.6, 1.2).unwrap();
        let light = ParetoFlowModel::with_mean(9.6, 3.0).unwrap();
        assert!(heavy.quantile(0.9999) > light.quantile(0.9999));
    }
}
