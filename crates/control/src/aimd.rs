//! Additive-increase / multiplicative-decrease on an accuracy SLO.

use crate::controller::RateController;
use crate::observation::{BinObservation, RateDecision};

/// TCP-style AIMD over the swapped-pair fraction: violate the SLO and the
/// rate climbs additively (fast recovery of accuracy); sit comfortably
/// under it and the rate decays multiplicatively (reclaim measurement
/// budget). A hysteresis band between the two keeps the controller from
/// oscillating when the error hovers near the target.
#[derive(Debug, Clone, PartialEq)]
pub struct AimdSlo {
    target_fraction: f64,
    hysteresis: f64,
    increase: f64,
    decrease: f64,
    min_rate: f64,
    max_rate: f64,
    initial_rate: f64,
    rate: f64,
}

impl AimdSlo {
    /// Builds the controller. `hysteresis` in `[0, 1]` scales the target
    /// down to form the decrease threshold: the rate only decays once the
    /// swapped fraction falls below `target_fraction * hysteresis`.
    pub(crate) fn new(
        target_fraction: f64,
        hysteresis: f64,
        increase: f64,
        decrease: f64,
        min_rate: f64,
        max_rate: f64,
        initial_rate: f64,
    ) -> Self {
        let rate = initial_rate.clamp(min_rate, max_rate);
        Self {
            target_fraction,
            hysteresis,
            increase,
            decrease,
            min_rate,
            max_rate,
            initial_rate,
            rate,
        }
    }
}

impl RateController for AimdSlo {
    fn name(&self) -> &'static str {
        "aimd-slo"
    }

    fn observe(&mut self, observation: &BinObservation) -> RateDecision {
        if observation.has_signal() {
            let error = observation.swapped_fraction();
            if error > self.target_fraction {
                self.rate += self.increase;
            } else if error < self.target_fraction * self.hysteresis {
                self.rate *= self.decrease;
            }
            self.rate = self.rate.clamp(self.min_rate, self.max_rate);
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

    fn observation(swaps: u64, pairs: u64) -> BinObservation {
        BinObservation {
            ranking_swaps: swaps,
            ranking_pairs: pairs,
            ..BinObservation::default()
        }
    }

    fn controller() -> AimdSlo {
        AimdSlo::new(0.10, 0.5, 0.02, 0.85, 0.001, 1.0, 0.1)
    }

    #[test]
    fn violation_increases_additively() {
        let mut aimd = controller();
        // 3/9 swapped > 0.10 target.
        assert!((aimd.observe(&observation(3, 9)).rate - 0.12).abs() < 1e-12);
        assert!((aimd.observe(&observation(3, 9)).rate - 0.14).abs() < 1e-12);
    }

    #[test]
    fn comfort_decreases_multiplicatively() {
        let mut aimd = controller();
        // 0/9 swapped < 0.05 decrease threshold.
        assert!((aimd.observe(&observation(0, 9)).rate - 0.085).abs() < 1e-12);
    }

    #[test]
    fn hysteresis_band_holds_the_rate() {
        let mut aimd = controller();
        // 0.5/9 impossible; use 1/12 ≈ 0.083: under target, above 0.05.
        assert_eq!(aimd.observe(&observation(1, 12)).rate, 0.1);
    }

    #[test]
    fn idle_bins_hold_and_bounds_clamp() {
        let mut aimd = controller();
        assert_eq!(aimd.observe(&observation(0, 0)).rate, 0.1);
        for _ in 0..200 {
            aimd.observe(&observation(9, 9));
        }
        assert_eq!(aimd.observe(&observation(9, 9)).rate, 1.0);
        for _ in 0..200 {
            aimd.observe(&observation(0, 9));
        }
        assert_eq!(aimd.observe(&observation(0, 9)).rate, 0.001);
    }

    #[test]
    fn reset_restores_initial_rate() {
        let mut aimd = controller();
        aimd.observe(&observation(9, 9));
        aimd.reset();
        assert_eq!(aimd.observe(&observation(0, 0)).rate, 0.1);
    }
}
