//! Adaptive-rate packet sampling.
//!
//! The paper's third future-work direction is "adaptive schemes that set the
//! sampling rate based on the characteristics of the observed traffic". This
//! module implements a simple, practical variant: the operator fixes a budget
//! of sampled packets per adjustment interval and the sampler scales its rate
//! multiplicatively so that the realised volume tracks the budget. On a link
//! whose offered load varies over time this keeps the monitor's memory/CPU
//! cost constant while sampling as aggressively as the budget allows — which
//! is exactly the regime in which the ranking accuracy of the paper degrades
//! or improves bin by bin.

use flowrank_net::{PacketRecord, Timestamp};
use flowrank_stats::rng::Rng;

use crate::sampler::PacketSampler;

/// Empty-interval steps replayed after an idle gap, at most. The per-step
/// factor is already clamped to ×4, so the rate saturates at `max_rate`
/// within a few steps; capping the replay keeps a very long idle period
/// from costing work proportional to its length.
const MAX_EMPTY_REPLAY: u64 = 16;

/// Packet sampler that adapts its rate to a per-interval sample budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveRateSampler {
    rate: f64,
    min_rate: f64,
    max_rate: f64,
    budget_per_interval: u64,
    interval: Timestamp,
    current_interval: u64,
    sampled_in_interval: u64,
    initial_rate: f64,
    /// No packet observed since construction/reset: the first packet may
    /// land in any interval (the enclosing monitor resets samplers per
    /// measurement bin), which must not be mistaken for an idle gap.
    fresh: bool,
}

impl AdaptiveRateSampler {
    /// Creates an adaptive sampler.
    ///
    /// * `initial_rate` — starting sampling probability.
    /// * `budget_per_interval` — target number of sampled packets per interval.
    /// * `interval` — length of the adjustment interval.
    pub fn new(initial_rate: f64, budget_per_interval: u64, interval: Timestamp) -> Self {
        let rate = initial_rate.clamp(1e-6, 1.0);
        AdaptiveRateSampler {
            rate,
            min_rate: 1e-6,
            max_rate: 1.0,
            budget_per_interval: budget_per_interval.max(1),
            interval,
            current_interval: 0,
            sampled_in_interval: 0,
            initial_rate: rate,
            fresh: true,
        }
    }

    fn roll_interval(&mut self, packet_interval: u64) {
        // Multiplicative update for the interval that just ended: scale the
        // rate by budget / realised count, bounded to a factor of 4 per step
        // to avoid oscillation.
        let realised = self.sampled_in_interval.max(1) as f64;
        let factor = (self.budget_per_interval as f64 / realised).clamp(0.25, 4.0);
        self.rate = (self.rate * factor).clamp(self.min_rate, self.max_rate);
        // A quiet gap skipped whole intervals in which nothing was sampled:
        // replay one empty-interval step per elapsed interval (realised = 0,
        // so the step factor is the clamped budget), so the rate coming out
        // of an idle period matches what rolling through it interval by
        // interval would have produced, instead of staying one stale step
        // behind. A fresh sampler skips the replay — its first packet may
        // legitimately land in any interval.
        let elapsed = packet_interval.saturating_sub(self.current_interval);
        if !self.fresh && elapsed > 1 {
            let empty_factor = (self.budget_per_interval as f64).clamp(0.25, 4.0);
            for _ in 1..elapsed.min(MAX_EMPTY_REPLAY) {
                if empty_factor <= 1.0 || self.rate >= self.max_rate {
                    break;
                }
                self.rate = (self.rate * empty_factor).clamp(self.min_rate, self.max_rate);
            }
        }
        self.sampled_in_interval = 0;
        self.current_interval = packet_interval;
    }
}

impl PacketSampler for AdaptiveRateSampler {
    fn keep(&mut self, packet: &PacketRecord, rng: &mut dyn Rng) -> bool {
        let packet_interval = packet.timestamp.bin_index(self.interval);
        if packet_interval != self.current_interval {
            self.roll_interval(packet_interval);
        }
        self.fresh = false;
        let keep = rng.bernoulli(self.rate);
        if keep {
            self.sampled_in_interval += 1;
        }
        keep
    }

    fn nominal_rate(&self) -> f64 {
        self.rate
    }

    fn reset(&mut self) {
        self.rate = self.initial_rate;
        self.current_interval = 0;
        self.sampled_in_interval = 0;
        self.fresh = true;
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_stats::rng::{Pcg64, SeedableRng};
    use std::net::Ipv4Addr;

    fn packet_at(t: f64) -> PacketRecord {
        PacketRecord::udp(
            Timestamp::from_secs_f64(t),
            Ipv4Addr::new(10, 0, 0, 1),
            1,
            Ipv4Addr::new(10, 0, 0, 2),
            2,
            500,
        )
    }

    /// Feeds `pps` packets per second for `secs` seconds and returns the
    /// sampler's rate trajectory at the end of each second.
    fn run(sampler: &mut AdaptiveRateSampler, pps: usize, secs: usize, seed: u64) -> Vec<f64> {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut rates = Vec::new();
        for s in 0..secs {
            for i in 0..pps {
                let t = s as f64 + i as f64 / pps as f64;
                sampler.keep(&packet_at(t), &mut rng);
            }
            rates.push(sampler.nominal_rate());
        }
        rates
    }

    #[test]
    fn rate_decreases_when_over_budget() {
        // 10k packets/s, budget 100 samples/s → rate should fall toward 1%.
        let mut sampler = AdaptiveRateSampler::new(0.5, 100, Timestamp::from_secs_f64(1.0));
        let rates = run(&mut sampler, 10_000, 10, 1);
        assert!(
            rates.last().unwrap() < &0.05,
            "final rate {:?}",
            rates.last()
        );
        assert!(rates.first().unwrap() >= rates.last().unwrap());
    }

    #[test]
    fn rate_increases_when_under_budget() {
        // 1k packets/s, budget 500 samples/s → rate should rise toward 50%.
        let mut sampler = AdaptiveRateSampler::new(0.01, 500, Timestamp::from_secs_f64(1.0));
        let rates = run(&mut sampler, 1_000, 12, 2);
        assert!(
            rates.last().unwrap() > &0.2,
            "final rate {:?}",
            rates.last()
        );
    }

    #[test]
    fn converges_near_budget() {
        let mut sampler = AdaptiveRateSampler::new(0.3, 200, Timestamp::from_secs_f64(1.0));
        let mut rng = Pcg64::seed_from_u64(3);
        let mut sampled_last_second = 0;
        for s in 0..20 {
            sampled_last_second = 0;
            for i in 0..5_000 {
                let t = s as f64 + i as f64 / 5_000.0;
                if sampler.keep(&packet_at(t), &mut rng) {
                    sampled_last_second += 1;
                }
            }
        }
        assert!(
            (80..=500).contains(&sampled_last_second),
            "sampled {sampled_last_second} in final second"
        );
    }

    #[test]
    fn idle_gap_replays_one_step_per_elapsed_interval() {
        // Pinned-seed regression for the stale-rate-after-idle bug: a gap of
        // k quiet intervals used to trigger a single multiplicative step.
        // With budget 2 the empty-interval factor is ×2, so a packet at
        // interval 0 followed by one at interval 4 (intervals 1–3 empty)
        // must step ×2 four times: once for interval 0 (nothing sampled at
        // a 1% rate under this seed) and once per empty interval.
        let mut sampler = AdaptiveRateSampler::new(0.01, 2, Timestamp::from_secs_f64(1.0));
        let mut rng = Pcg64::seed_from_u64(0xD00D_2026);
        sampler.keep(&packet_at(0.5), &mut rng);
        sampler.keep(&packet_at(4.5), &mut rng);
        assert!(
            (sampler.nominal_rate() - 0.16).abs() < 1e-12,
            "expected 0.01 × 2⁴ after the gap, got {}",
            sampler.nominal_rate()
        );
    }

    #[test]
    fn replay_saturates_instead_of_scaling_with_idle_time() {
        // A week-long gap must not cost a week of steps: the replay caps
        // once the rate pins at max_rate.
        let mut sampler = AdaptiveRateSampler::new(0.01, 1000, Timestamp::from_secs_f64(1.0));
        let mut rng = Pcg64::seed_from_u64(7);
        sampler.keep(&packet_at(0.5), &mut rng);
        sampler.keep(&packet_at(604_800.5), &mut rng);
        assert_eq!(sampler.nominal_rate(), 1.0);
    }

    #[test]
    fn fresh_sampler_takes_one_legacy_step_for_a_late_first_packet() {
        // The enclosing monitor resets samplers at every bin close, so the
        // first packet of a bin can land many intervals in. That is not an
        // idle gap: exactly one multiplicative step fires (0.2 × 4 = 0.8),
        // the behaviour the conformance goldens pin.
        let mut sampler = AdaptiveRateSampler::new(0.2, 400, Timestamp::from_secs_f64(5.0));
        let mut rng = Pcg64::seed_from_u64(1);
        sampler.keep(&packet_at(2.0), &mut rng);
        sampler.reset();
        sampler.keep(&packet_at(62.0), &mut rng);
        assert!(
            (sampler.nominal_rate() - 0.8).abs() < 1e-12,
            "got {}",
            sampler.nominal_rate()
        );
    }

    #[test]
    fn bounds_and_reset() {
        let mut sampler = AdaptiveRateSampler::new(0.5, 1, Timestamp::from_secs_f64(1.0));
        let _ = run(&mut sampler, 10_000, 5, 4);
        assert!(sampler.nominal_rate() < 0.5, "over budget: the rate fell");
        assert!(sampler.nominal_rate() >= sampler.min_rate);
        sampler.reset();
        assert!((sampler.nominal_rate() - 0.5).abs() < 1e-12);
        assert_eq!(sampler.name(), "adaptive");
    }
}
