//! Certainty-equivalent control: invert the paper's optimal-rate model on
//! the sizes observed in the bin that just closed.

use flowrank_core::{optimal_sampling_rate, PairwiseModel};

use crate::controller::RateController;
use crate::observation::{BinObservation, RateDecision};

/// Smallest rate the underlying root finder is asked to consider; the
/// controller's own `min_rate` bound is applied on top.
const SOLVER_FLOOR: f64 = 1e-6;

/// The binding sampling rate for a descending list of true flow sizes:
/// the maximum over adjacent *distinct* pairs of the paper's
/// [`optimal_sampling_rate`] (Gaussian model) at `target` misranking
/// probability. The closest adjacent pair dominates — it is the hardest
/// to keep in order — so meeting it meets every other pair too.
///
/// Ties (equal adjacent sizes) are skipped: the model treats an exact tie
/// as a coin flip at any rate, so it carries no rate signal. Returns
/// `min_rate` when fewer than two distinct sizes are given.
pub fn optimal_rate_for_sizes(sizes: &[u64], target: f64, min_rate: f64) -> f64 {
    let mut rate = min_rate;
    for pair in sizes.windows(2) {
        let (s1, s2) = (pair[0], pair[1]);
        if s1 <= s2 || s2 == 0 {
            continue;
        }
        let pair_rate =
            optimal_sampling_rate(s1, s2, target, PairwiseModel::Gaussian, SOLVER_FLOOR);
        if pair_rate > rate {
            rate = pair_rate;
        }
    }
    rate.clamp(min_rate, 1.0)
}

/// Controller that re-solves the paper's optimal-rate problem every bin,
/// using the bin's observed top-t true sizes as the forecast for the next
/// bin (certainty-equivalent control). Holds its current rate on bins with
/// no ranking signal rather than chasing noise.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDriven {
    target_misranking: f64,
    min_rate: f64,
    max_rate: f64,
    initial_rate: f64,
    rate: f64,
}

impl ModelDriven {
    /// Builds the controller; `initial_rate` is emitted until the first
    /// bin with ranking signal arrives.
    pub(crate) fn new(
        target_misranking: f64,
        min_rate: f64,
        max_rate: f64,
        initial_rate: f64,
    ) -> Self {
        let rate = initial_rate.clamp(min_rate, max_rate);
        Self {
            target_misranking,
            min_rate,
            max_rate,
            initial_rate,
            rate,
        }
    }
}

impl RateController for ModelDriven {
    fn name(&self) -> &'static str {
        "model-driven"
    }

    fn observe(&mut self, observation: &BinObservation) -> RateDecision {
        if observation.has_signal() && observation.top_sizes.len() >= 2 {
            self.rate = optimal_rate_for_sizes(
                &observation.top_sizes,
                self.target_misranking,
                self.min_rate,
            )
            .clamp(self.min_rate, self.max_rate);
        }
        RateDecision { rate: self.rate }
    }

    fn reset(&mut self) {
        self.rate = self.initial_rate.clamp(self.min_rate, self.max_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observation_with_sizes(sizes: &[u64]) -> BinObservation {
        BinObservation {
            ranking_pairs: sizes.len().saturating_sub(1) as u64,
            top_sizes: sizes.to_vec(),
            ..BinObservation::default()
        }
    }

    #[test]
    fn close_sizes_demand_higher_rate_than_distant_sizes() {
        let close = optimal_rate_for_sizes(&[100, 95], 0.05, 0.001);
        let distant = optimal_rate_for_sizes(&[100, 10], 0.05, 0.001);
        assert!(
            close > distant,
            "close pair should need more sampling: {close} vs {distant}"
        );
    }

    #[test]
    fn binding_pair_dominates() {
        // Adding an easy (distant) pair must not lower the required rate.
        let hard_only = optimal_rate_for_sizes(&[100, 90], 0.05, 0.001);
        let with_easy = optimal_rate_for_sizes(&[1000, 100, 90], 0.05, 0.001);
        assert!((hard_only - with_easy).abs() < 1e-9);
    }

    #[test]
    fn ties_and_degenerate_lists_fall_back_to_min_rate() {
        assert_eq!(optimal_rate_for_sizes(&[50, 50, 50], 0.05, 0.01), 0.01);
        assert_eq!(optimal_rate_for_sizes(&[50], 0.05, 0.01), 0.01);
        assert_eq!(optimal_rate_for_sizes(&[], 0.05, 0.01), 0.01);
    }

    #[test]
    fn holds_rate_on_bins_without_signal() {
        let mut controller = ModelDriven::new(0.05, 0.001, 1.0, 0.1);
        let tuned = controller
            .observe(&observation_with_sizes(&[400, 300, 200, 100]))
            .rate;
        assert_ne!(tuned, 0.1, "signal bin should retune");
        let idle = BinObservation::default();
        assert_eq!(controller.observe(&idle).rate, tuned, "idle bin holds");
    }

    #[test]
    fn reset_returns_to_initial_rate() {
        let mut controller = ModelDriven::new(0.05, 0.001, 1.0, 0.1);
        controller.observe(&observation_with_sizes(&[100, 98, 96]));
        controller.reset();
        assert_eq!(controller.observe(&BinObservation::default()).rate, 0.1);
    }
}
