//! Runtime-selectable sampler and top-k backend specifications.
//!
//! A monitor deployed on a live link chooses its sampling discipline and its
//! flow-memory algorithm from configuration, not at compile time. Two enums
//! are the serialisable "configuration" half of that choice, and `build`
//! turns each into the boxed trait object the monitor lanes drive. Only
//! [`SamplerSpec`] is defined here; [`TopKSpec`] lives beside the flow memory
//! that runs it, in `flowrank-topk`, and is re-exported.

use flowrank_net::Timestamp;
use flowrank_sampling::{
    AdaptiveRateSampler, FlowSampler, PacketSampler, PeriodicSampler, RandomSampler,
    SmartPacketSampler, StratifiedSampler,
};
pub use flowrank_topk::TopKSpec;

/// Which packet-sampling discipline a monitor lane runs.
///
/// Covers every sampler in `flowrank-sampling`: the paper's random model,
/// the router-practical periodic and stratified variants, whole-flow
/// sampling, the packet-level smart-sampling adaptation and the adaptive
/// budget-tracking sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplerSpec {
    /// Independent Bernoulli(p) packet sampling — the paper's model.
    Random {
        /// Per-packet keep probability.
        rate: f64,
    },
    /// Deterministic 1-in-N sampling (periodic), optionally with a random
    /// initial phase per measurement interval.
    Periodic {
        /// Nominal sampling rate (period = round(1/rate)).
        rate: f64,
        /// Randomise the phase at the start of each interval.
        random_phase: bool,
    },
    /// One uniformly chosen packet per stratum of N packets.
    Stratified {
        /// Nominal sampling rate (stratum = round(1/rate)).
        rate: f64,
    },
    /// Whole-flow sampling: a hash of the 5-tuple decides once per flow.
    Flow {
        /// Per-flow keep probability.
        rate: f64,
    },
    /// Packet-level smart sampling: keep probability grows with the flow's
    /// running size, `min(1, count/threshold)`.
    Smart {
        /// Size threshold `z` in packets.
        threshold: f64,
    },
    /// Adaptive-rate sampling against a per-interval packet budget.
    Adaptive {
        /// Starting sampling probability.
        initial_rate: f64,
        /// Target number of sampled packets per adjustment interval.
        budget_per_interval: u64,
        /// Length of the adjustment interval.
        interval: Timestamp,
    },
}

impl SamplerSpec {
    /// Retargets the spec to a new nominal rate — how the monitor fans one
    /// spec out across a whole rate grid. Specs without a rate parameter
    /// ([`SamplerSpec::Smart`]) are returned unchanged; the adaptive sampler
    /// reinterprets the rate as its starting point.
    pub(crate) fn with_rate(self, rate: f64) -> Self {
        match self {
            SamplerSpec::Random { .. } => SamplerSpec::Random { rate },
            SamplerSpec::Periodic { random_phase, .. } => {
                SamplerSpec::Periodic { rate, random_phase }
            }
            SamplerSpec::Stratified { .. } => SamplerSpec::Stratified { rate },
            SamplerSpec::Flow { .. } => SamplerSpec::Flow { rate },
            SamplerSpec::Smart { threshold } => SamplerSpec::Smart { threshold },
            SamplerSpec::Adaptive {
                budget_per_interval,
                interval,
                ..
            } => SamplerSpec::Adaptive {
                initial_rate: rate,
                budget_per_interval,
                interval,
            },
        }
    }

    /// The nominal sampling rate of the spec (an upper-bound proxy of `1` for
    /// smart sampling, whose realised rate is traffic dependent).
    pub(crate) fn nominal_rate(&self) -> f64 {
        match *self {
            SamplerSpec::Random { rate }
            | SamplerSpec::Periodic { rate, .. }
            | SamplerSpec::Stratified { rate }
            | SamplerSpec::Flow { rate } => rate,
            SamplerSpec::Smart { threshold } => SmartPacketSampler::pre_traffic_rate(threshold),
            SamplerSpec::Adaptive { initial_rate, .. } => initial_rate,
        }
    }

    /// Short human-readable name of the discipline.
    pub fn name(&self) -> &'static str {
        match self {
            SamplerSpec::Random { .. } => "random",
            SamplerSpec::Periodic { .. } => "periodic",
            SamplerSpec::Stratified { .. } => "stratified",
            SamplerSpec::Flow { .. } => "flow-sampling",
            SamplerSpec::Smart { .. } => "smart",
            SamplerSpec::Adaptive { .. } => "adaptive",
        }
    }

    /// Instantiates the sampler. `seed` parameterises samplers that carry
    /// their own per-lane randomness (currently the flow sampler's hash
    /// seed); the per-packet coin flips come from the lane RNG instead.
    pub fn build(&self, seed: u64) -> Box<dyn PacketSampler + Send> {
        match *self {
            SamplerSpec::Random { rate } => Box::new(RandomSampler::new(rate)),
            SamplerSpec::Periodic { rate, random_phase } => {
                let sampler = PeriodicSampler::with_rate(rate);
                Box::new(if random_phase {
                    sampler.with_random_phase()
                } else {
                    sampler
                })
            }
            SamplerSpec::Stratified { rate } => Box::new(StratifiedSampler::with_rate(rate)),
            SamplerSpec::Flow { rate } => Box::new(FlowSampler::new(rate, seed)),
            SamplerSpec::Smart { threshold } => Box::new(SmartPacketSampler::new(threshold)),
            SamplerSpec::Adaptive {
                initial_rate,
                budget_per_interval,
                interval,
            } => Box::new(AdaptiveRateSampler::new(
                initial_rate,
                budget_per_interval,
                interval,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sampler_kind_builds_and_reports_its_name() {
        let specs = [
            SamplerSpec::Random { rate: 0.1 },
            SamplerSpec::Periodic {
                rate: 0.1,
                random_phase: true,
            },
            SamplerSpec::Stratified { rate: 0.1 },
            SamplerSpec::Flow { rate: 0.1 },
            SamplerSpec::Smart { threshold: 10.0 },
            SamplerSpec::Adaptive {
                initial_rate: 0.1,
                budget_per_interval: 100,
                interval: Timestamp::from_secs_f64(1.0),
            },
        ];
        let names: Vec<&str> = specs
            .iter()
            .map(|spec| {
                let sampler = spec.build(1);
                assert_eq!(sampler.name(), spec.name());
                spec.name()
            })
            .collect();
        assert_eq!(
            names,
            [
                "random",
                "periodic",
                "stratified",
                "flow-sampling",
                "smart",
                "adaptive"
            ]
        );
    }

    #[test]
    fn with_rate_retargets_every_rated_spec() {
        assert_eq!(
            SamplerSpec::Random { rate: 0.1 }.with_rate(0.5),
            SamplerSpec::Random { rate: 0.5 }
        );
        assert_eq!(
            SamplerSpec::Periodic {
                rate: 0.1,
                random_phase: true
            }
            .with_rate(0.5)
            .nominal_rate(),
            0.5
        );
        assert_eq!(
            SamplerSpec::Stratified { rate: 0.1 }
                .with_rate(0.5)
                .nominal_rate(),
            0.5
        );
        assert_eq!(
            SamplerSpec::Flow { rate: 0.1 }
                .with_rate(0.5)
                .nominal_rate(),
            0.5
        );
        // Smart sampling has no rate parameter — retargeting is a no-op.
        assert_eq!(
            SamplerSpec::Smart { threshold: 20.0 }.with_rate(0.5),
            SamplerSpec::Smart { threshold: 20.0 }
        );
        let adaptive = SamplerSpec::Adaptive {
            initial_rate: 0.1,
            budget_per_interval: 7,
            interval: Timestamp::from_secs_f64(2.0),
        };
        assert_eq!(adaptive.with_rate(0.3).nominal_rate(), 0.3);
    }

    #[test]
    fn every_topk_backend_builds() {
        let specs = [
            TopKSpec::Exact,
            TopKSpec::SortedList { capacity: 8 },
            TopKSpec::SpaceSaving { capacity: 8 },
            TopKSpec::SampleAndHold {
                entry_probability: 0.1,
                capacity: 8,
            },
            TopKSpec::Multistage {
                stages: 2,
                counters_per_stage: 64,
                threshold: 10,
                memory_capacity: 8,
            },
        ];
        for spec in specs {
            let tracker = spec.build();
            assert_eq!(tracker.name(), spec.name());
            assert_eq!(tracker.memory_entries(), 0);
        }
    }

    #[test]
    fn smart_nominal_rate_proxy() {
        assert_eq!(SamplerSpec::Smart { threshold: 0.5 }.nominal_rate(), 1.0);
        assert!((SamplerSpec::Smart { threshold: 100.0 }.nominal_rate() - 0.01).abs() < 1e-12);
    }
}
