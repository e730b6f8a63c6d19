//! Sprint-backbone-like synthetic trace model.
//!
//! Calibrated to the measurements the paper takes from the Sprint IP
//! backbone (its reference \[1\], Fig. 9, restated in Sec. 6 and Sec. 8.1):
//!
//! * flow arrival rate 2360 flows/s under the 5-tuple definition
//!   (≈ 350 prefix flows/s under /24 aggregation);
//! * mean flow size 4.8 KB (5-tuple) and 16.6 KB (/24), i.e. ≈ 9.6 and
//!   ≈ 33 packets of 500 bytes;
//! * mean flow duration 13 s;
//! * heavy-tailed (Pareto, β ≈ 1.5) flow sizes;
//! * 30-minute trace, analysed in 1- and 5-minute bins.

use crate::flow_record::FlowRecord;
use crate::generator::{generate_flow_population, FlowPopulationConfig, SizeModel};

/// Sprint OC-12 backbone trace model (Sec. 8.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprintModel {
    /// Underlying population configuration.
    pub config: FlowPopulationConfig,
}

/// Flow arrival rate measured on the Sprint link (5-tuple flows/s).
pub(crate) const SPRINT_FLOW_RATE: f64 = 2_360.0;
/// Mean 5-tuple flow size in packets (4.8 KB at 500 B per packet).
pub(crate) const SPRINT_MEAN_PACKETS_5TUPLE: f64 = 9.6;
/// Mean flow duration in seconds.
pub(crate) const SPRINT_MEAN_FLOW_DURATION: f64 = 13.0;
/// Trace duration in seconds (30 minutes).
pub(crate) const SPRINT_TRACE_DURATION: f64 = 1_800.0;
/// Average packet size in bytes used throughout the paper.
pub(crate) const PACKET_BYTES: u32 = 500;

impl SprintModel {
    /// The paper's Sprint scenario with the published parameters, scaled by
    /// `scale` (1.0 = full size; `reproduce` defaults to 0.02 to keep the
    /// figures quick — README's "Paper-scale run" records scale 1).
    pub fn paper(scale: f64) -> Self {
        SprintModel {
            config: Self::base_config().scaled(scale),
        }
    }

    /// A small scenario for unit tests and examples: a few seconds of
    /// traffic with the same per-flow statistics as the paper scenario.
    pub fn small(duration_secs: f64, flow_rate: f64) -> Self {
        let config = FlowPopulationConfig {
            duration_secs,
            flow_rate,
            ..Self::paper(1.0).config
        };
        SprintModel { config }
    }

    fn base_config() -> FlowPopulationConfig {
        FlowPopulationConfig {
            duration_secs: SPRINT_TRACE_DURATION,
            flow_rate: SPRINT_FLOW_RATE,
            // The pool size and exponent are chosen so that /24 aggregation
            // reduces the number of flows by roughly the paper's factor ~7
            // while keeping a long tail of rarely used prefixes.
            size_model: SizeModel::Pareto {
                mean_packets: SPRINT_MEAN_PACKETS_5TUPLE,
                shape: 1.5,
            },
            mean_flow_duration: SPRINT_MEAN_FLOW_DURATION,
            packet_bytes: PACKET_BYTES,
            prefix_count: 8_192,
            prefix_zipf_exponent: 1.05,
        }
    }

    /// Generates the flow-level trace deterministically from `seed`.
    pub fn generate_flows(&self, seed: u64) -> Vec<FlowRecord> {
        generate_flow_population(&self.config, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_net::{DstPrefix, FiveTuple, FlowKey};
    use std::collections::HashSet;

    #[test]
    fn paper_parameters_are_published_values() {
        let m = SprintModel::paper(1.0);
        assert!((m.config.flow_rate - 2360.0).abs() < 1e-9);
        assert!((m.config.duration_secs - 1800.0).abs() < 1e-9);
        assert!((m.config.mean_flow_duration - 13.0).abs() < 1e-9);
        match m.config.size_model {
            SizeModel::Pareto {
                mean_packets,
                shape,
            } => {
                assert!((mean_packets - 9.6).abs() < 1e-9);
                assert!((shape - 1.5).abs() < 1e-9);
            }
            _ => panic!("Sprint model must use a Pareto size law"),
        }
    }

    #[test]
    fn scale_reduces_flow_rate_only() {
        let m = SprintModel::paper(0.1);
        assert!((m.config.flow_rate - 236.0).abs() < 1e-9);
        assert!((m.config.duration_secs - 1800.0).abs() < 1e-9);
    }

    #[test]
    fn small_scenario_generates_plausible_flows() {
        let m = SprintModel::small(20.0, 100.0);
        let flows = m.generate_flows(42);
        assert!(
            flows.len() > 1_000 && flows.len() < 3_000,
            "{}",
            flows.len()
        );
        // Prefix aggregation must reduce the number of distinct keys.
        let five: HashSet<FiveTuple> = flows.iter().map(|f| f.key).collect();
        let prefixes: HashSet<DstPrefix> = flows
            .iter()
            .map(|f| DstPrefix::of(f.key.dst_ip, 24))
            .collect();
        assert_eq!(five.len(), flows.len(), "synthetic 5-tuples must be unique");
        assert!(
            prefixes.len() * 2 < five.len(),
            "prefix aggregation too weak"
        );
        let _ = FiveTuple::definition_name();
    }
}
