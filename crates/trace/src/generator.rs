//! Generic flow-population generator shared by the Sprint and Abilene models.
//!
//! A flow population is produced in three steps, mirroring how the paper
//! describes its traces:
//!
//! 1. flow arrival times are drawn from a Poisson process with the published
//!    flow arrival rate;
//! 2. each flow gets a size (in packets) from the configured size law and a
//!    duration from an exponential law with the published mean;
//! 3. each flow gets a destination address from the Zipf prefix-popularity
//!    model so that /24 aggregation yields fewer, larger flows.

use flowrank_stats::dist::{BoundedPareto, ContinuousDistribution, Exponential, LogNormal, Pareto};
use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};

use crate::addressing::PrefixAddresser;
use crate::arrivals::PoissonArrivals;
use crate::flow_record::{synthetic_key, FlowRecord};

/// Flow-size law used by a generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeModel {
    /// Heavy-tailed Pareto law parameterised by its mean (in packets) and
    /// shape β — the model of Sec. 6.
    Pareto {
        /// Mean flow size in packets.
        mean_packets: f64,
        /// Tail index β.
        shape: f64,
    },
    /// Pareto law truncated at `max_packets` — "Pareto body, capped tail".
    BoundedPareto {
        /// Scale (minimum size) in packets.
        min_packets: f64,
        /// Truncation point in packets.
        max_packets: f64,
        /// Tail index β.
        shape: f64,
    },
    /// Log-normal law parameterised by mean and squared coefficient of
    /// variation — the short-tailed model used for the Abilene-like trace.
    LogNormal {
        /// Mean flow size in packets.
        mean_packets: f64,
        /// Squared coefficient of variation.
        cv2: f64,
    },
}

impl SizeModel {
    /// Draws one flow size in packets (at least 1).
    pub(crate) fn sample_packets(&self, rng: &mut dyn Rng) -> u64 {
        let raw = match self {
            SizeModel::Pareto {
                mean_packets,
                shape,
            } => Pareto::with_mean(*mean_packets, *shape)
                .expect("invalid Pareto size model")
                .sample(rng),
            SizeModel::BoundedPareto {
                min_packets,
                max_packets,
                shape,
            } => BoundedPareto::new(*min_packets, *max_packets, *shape)
                .expect("invalid bounded Pareto size model")
                .sample(rng),
            SizeModel::LogNormal { mean_packets, cv2 } => {
                LogNormal::with_mean_cv2(*mean_packets, *cv2)
                    .expect("invalid log-normal size model")
                    .sample(rng)
            }
        };
        raw.round().max(1.0) as u64
    }
}

/// Configuration of a synthetic flow population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowPopulationConfig {
    /// Length of the generated trace in seconds.
    pub duration_secs: f64,
    /// Flow arrival rate in flows per second (5-tuple definition).
    pub flow_rate: f64,
    /// Flow-size law.
    pub size_model: SizeModel,
    /// Mean flow duration in seconds (durations are exponential).
    pub mean_flow_duration: f64,
    /// Average packet size in bytes (the paper uses 500 B everywhere).
    pub packet_bytes: u32,
    /// Number of /24 destination prefixes in the popularity pool.
    pub prefix_count: usize,
    /// Zipf exponent of the prefix popularity.
    pub prefix_zipf_exponent: f64,
}

impl FlowPopulationConfig {
    /// Applies a scale factor to the flow arrival rate (used by the figure
    /// harness to run reduced-size experiments); the per-flow statistics are
    /// untouched so the flow-size distribution is preserved.
    pub(crate) fn scaled(mut self, scale: f64) -> Self {
        self.flow_rate *= scale.max(0.0);
        self
    }
}

/// Generates the flow population described by `config`, deterministically
/// from `seed`.
pub(crate) fn generate_flow_population(
    config: &FlowPopulationConfig,
    seed: u64,
) -> Vec<FlowRecord> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let arrivals = PoissonArrivals::new(config.flow_rate.max(f64::MIN_POSITIVE));
    let addresser = PrefixAddresser::new(config.prefix_count, config.prefix_zipf_exponent);
    let duration_dist =
        Exponential::with_mean(config.mean_flow_duration.max(1e-9)).expect("mean duration > 0");

    let starts = arrivals.arrivals_until(config.duration_secs, &mut rng);
    let mut flows = Vec::with_capacity(starts.len());
    for (index, start) in starts.into_iter().enumerate() {
        let packets = config.size_model.sample_packets(&mut rng);
        let bytes = packets * config.packet_bytes as u64;
        let dst_ip = addresser.draw(&mut rng);
        // Common well-known ports make the synthetic traffic look plausible
        // in pcap form but play no role in the ranking.
        let dst_port = match rng.next_below(4) {
            0 => 80,
            1 => 443,
            2 => 25,
            _ => 8080,
        };
        let key = synthetic_key(index as u64, dst_ip, dst_port);
        let mut duration = duration_dist.sample(&mut rng);
        // Single-packet flows have zero duration by construction.
        if packets == 1 {
            duration = 0.0;
        }
        flows.push(FlowRecord::new(key, packets, bytes, start, duration));
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> FlowPopulationConfig {
        FlowPopulationConfig {
            duration_secs: 10.0,
            flow_rate: 200.0,
            size_model: SizeModel::Pareto {
                mean_packets: 9.6,
                shape: 1.5,
            },
            mean_flow_duration: 3.0,
            packet_bytes: 500,
            prefix_count: 64,
            prefix_zipf_exponent: 1.0,
        }
    }

    #[test]
    fn population_size_matches_rate() {
        let flows = generate_flow_population(&test_config(), 1);
        let expected = test_config().flow_rate * test_config().duration_secs;
        assert!(
            (flows.len() as f64 - expected).abs() < 4.0 * expected.sqrt() + 10.0,
            "got {} flows, expected ≈ {expected}",
            flows.len()
        );
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let a = generate_flow_population(&test_config(), 7);
        let b = generate_flow_population(&test_config(), 7);
        let c = generate_flow_population(&test_config(), 8);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0], b[0]);
        assert!(a.len() != c.len() || a[0] != c[0]);
    }

    #[test]
    fn flows_lie_within_trace_and_have_positive_sizes() {
        let cfg = test_config();
        let flows = generate_flow_population(&cfg, 3);
        for f in &flows {
            assert!(f.start >= 0.0 && f.start < cfg.duration_secs);
            assert!(f.packets >= 1);
            assert_eq!(f.bytes, f.packets * 500);
            assert!(f.duration >= 0.0);
            if f.packets == 1 {
                assert_eq!(f.duration, 0.0);
            }
        }
    }

    #[test]
    fn mean_size_roughly_calibrated() {
        let mut cfg = test_config();
        cfg.flow_rate = 2_000.0;
        let flows = generate_flow_population(&cfg, 5);
        let mean = flows.iter().map(|f| f.packets as f64).sum::<f64>() / flows.len() as f64;
        // Pareto(mean 9.6, β=1.5) has infinite variance, so the sample mean is
        // noisy; only check the right order of magnitude.
        assert!(mean > 4.0 && mean < 40.0, "mean packets {mean}");
    }

    #[test]
    fn scaled_config_reduces_population() {
        let cfg = test_config();
        let scaled = cfg.scaled(0.25);
        assert!((scaled.flow_rate - 50.0).abs() < 1e-12);
        assert_eq!(scaled.size_model, cfg.size_model);
        let flows = generate_flow_population(&scaled, 1);
        assert!(flows.len() < generate_flow_population(&cfg, 1).len());
    }

    #[test]
    fn size_models_sample_reasonable_values() {
        let mut rng = Pcg64::seed_from_u64(2);
        let bounded = SizeModel::BoundedPareto {
            min_packets: 1.0,
            max_packets: 100.0,
            shape: 1.1,
        };
        for _ in 0..1000 {
            let s = bounded.sample_packets(&mut rng);
            assert!((1..=100).contains(&s));
        }
        let lognormal = SizeModel::LogNormal {
            mean_packets: 12.0,
            cv2: 1.0,
        };
        let mean: f64 = (0..5_000)
            .map(|_| lognormal.sample_packets(&mut rng) as f64)
            .sum::<f64>()
            / 5_000.0;
        assert!((mean - 12.0).abs() < 2.0, "lognormal mean {mean}");
    }
}
