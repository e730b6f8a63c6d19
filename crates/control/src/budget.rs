//! Monitor-level generalisation of `AdaptiveRateSampler`'s budget update.

use crate::controller::RateController;
use crate::observation::{BinObservation, RateDecision};

/// Clamp on the per-bin multiplicative step, matching the sampler-local
/// `AdaptiveRateSampler` so the two tiers of budget control share dynamics.
const STEP_CLAMP: (f64, f64) = (0.25, 4.0);

/// Steers the controlled lane toward a kept-packets-per-bin budget with a
/// clamped multiplicative update: `rate *= clamp(budget / kept, ¼, 4)`.
///
/// This is `AdaptiveRateSampler`'s interval update lifted from a single
/// sampler's packet counter to the monitor's report stream — the
/// cross-lane, cross-bin view the sampler itself can never see. Empty
/// bins count as `kept = 1`, so idle periods raise the rate at the
/// maximum ×4 step per bin (the sampler-local discipline behaves the same
/// way per interval).
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetTracking {
    budget_per_bin: u64,
    min_rate: f64,
    max_rate: f64,
    initial_rate: f64,
    rate: f64,
}

impl BudgetTracking {
    /// Builds the controller; a zero budget is bumped to 1 so the update
    /// factor stays finite.
    pub(crate) fn new(
        budget_per_bin: u64,
        min_rate: f64,
        max_rate: f64,
        initial_rate: f64,
    ) -> Self {
        let rate = initial_rate.clamp(min_rate, max_rate);
        Self {
            budget_per_bin: budget_per_bin.max(1),
            min_rate,
            max_rate,
            initial_rate,
            rate,
        }
    }
}

impl RateController for BudgetTracking {
    fn name(&self) -> &'static str {
        "budget-tracking"
    }

    fn observe(&mut self, observation: &BinObservation) -> RateDecision {
        let kept = observation.kept_packets.max(1) as f64;
        let factor = (self.budget_per_bin as f64 / kept).clamp(STEP_CLAMP.0, STEP_CLAMP.1);
        self.rate = (self.rate * factor).clamp(self.min_rate, self.max_rate);
        RateDecision { rate: self.rate }
    }

    fn reset(&mut self) {
        self.rate = self.initial_rate.clamp(self.min_rate, self.max_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observation(kept: u64) -> BinObservation {
        BinObservation {
            kept_packets: kept,
            ..BinObservation::default()
        }
    }

    #[test]
    fn over_budget_cuts_under_budget_raises() {
        let mut budget = BudgetTracking::new(500, 0.001, 1.0, 0.1);
        // Kept exactly double the budget: rate halves.
        assert!((budget.observe(&observation(1000)).rate - 0.05).abs() < 1e-12);
        // Kept exactly half the budget: rate doubles back.
        assert!((budget.observe(&observation(250)).rate - 0.1).abs() < 1e-12);
    }

    #[test]
    fn step_is_clamped_to_sampler_local_bounds() {
        let mut budget = BudgetTracking::new(500, 0.001, 1.0, 0.1);
        // Enormous overshoot still cuts at most ×0.25 per bin.
        assert!((budget.observe(&observation(1_000_000)).rate - 0.025).abs() < 1e-12);
        // Empty bin raises at most ×4 per bin.
        assert!((budget.observe(&observation(0)).rate - 0.1).abs() < 1e-12);
    }

    #[test]
    fn converges_onto_a_stationary_load() {
        // Stationary traffic where kept ≈ rate × 100_000 packets: the fixed
        // point is rate = budget / 100_000 = 0.005.
        let mut budget = BudgetTracking::new(500, 0.001, 1.0, 0.1);
        let mut rate = 0.1;
        for _ in 0..30 {
            let kept = (rate * 100_000.0) as u64;
            rate = budget.observe(&observation(kept)).rate;
        }
        assert!((rate - 0.005).abs() < 5e-4, "fixed point missed: {rate}");
    }

    #[test]
    fn reset_restores_initial_rate() {
        let mut budget = BudgetTracking::new(500, 0.001, 1.0, 0.1);
        budget.observe(&observation(1_000_000));
        budget.reset();
        assert_eq!(budget.observe(&observation(500)).rate, 0.1);
    }
}
