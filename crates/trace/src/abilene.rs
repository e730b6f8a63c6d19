//! Abilene-like synthetic trace model.
//!
//! Section 8.3 of the paper repeats the ranking experiment on a 30-minute
//! NLANR Abilene-I OC-48 trace. Compared with the Sprint trace, the Abilene
//! link carries more flows, has a higher utilisation, and — crucially for the
//! result — a *short-tailed* flow-size distribution, which makes ranking the
//! largest flows noticeably harder (a sampling rate above 50% is required).
//!
//! The original trace is not redistributable, so this model generates the
//! closest synthetic equivalent: a higher flow arrival rate and a log-normal
//! (short-tailed) flow-size law with the same mean flow size order of
//! magnitude. The packet-placement step is identical, which matches the fact
//! that the Abilene trace gives exact packet times — the ranking metric only
//! depends on per-bin flow sizes, not on intra-flow packet spacing.

use crate::flow_record::FlowRecord;
use crate::generator::{generate_flow_population, FlowPopulationConfig, SizeModel};
use crate::sprint::PACKET_BYTES;

/// Abilene OC-48 trace model (Sec. 8.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbileneModel {
    /// Underlying population configuration.
    pub config: FlowPopulationConfig,
}

/// Flow arrival rate of the Abilene-like scenario (flows per second).
///
/// The paper states the Abilene link has "a larger number of flows" than the
/// Sprint link without quoting a number; 1.5× the Sprint rate reproduces the
/// qualitative relationship.
pub(crate) const ABILENE_FLOW_RATE: f64 = 3_500.0;
/// Mean flow size in packets for the Abilene-like scenario.
pub(crate) const ABILENE_MEAN_PACKETS: f64 = 12.0;
/// Squared coefficient of variation of the short-tailed size law.
pub(crate) const ABILENE_SIZE_CV2: f64 = 4.0;
/// Mean flow duration in seconds.
pub(crate) const ABILENE_MEAN_FLOW_DURATION: f64 = 10.0;
/// Trace duration in seconds (30 minutes).
pub(crate) const ABILENE_TRACE_DURATION: f64 = 1_800.0;

impl AbileneModel {
    /// The Abilene-like scenario, scaled by `scale` (1.0 = full size).
    pub fn paper(scale: f64) -> Self {
        let config = FlowPopulationConfig {
            duration_secs: ABILENE_TRACE_DURATION,
            flow_rate: ABILENE_FLOW_RATE,
            size_model: SizeModel::LogNormal {
                mean_packets: ABILENE_MEAN_PACKETS,
                cv2: ABILENE_SIZE_CV2,
            },
            mean_flow_duration: ABILENE_MEAN_FLOW_DURATION,
            packet_bytes: PACKET_BYTES,
            prefix_count: 16_384,
            prefix_zipf_exponent: 0.9,
        }
        .scaled(scale);
        AbileneModel { config }
    }

    /// Generates the flow-level trace deterministically from `seed`.
    pub fn generate_flows(&self, seed: u64) -> Vec<FlowRecord> {
        generate_flow_population(&self.config, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sprint::SprintModel;

    #[test]
    fn uses_short_tailed_size_law() {
        let m = AbileneModel::paper(1.0);
        assert!(matches!(m.config.size_model, SizeModel::LogNormal { .. }));
        assert!(m.config.flow_rate > SprintModel::paper(1.0).config.flow_rate);
    }

    /// The paper's model cut down to `duration_secs` at `flow_rate` flows/s.
    fn small(duration_secs: f64, flow_rate: f64) -> AbileneModel {
        let config = FlowPopulationConfig {
            duration_secs,
            flow_rate,
            ..AbileneModel::paper(1.0).config
        };
        AbileneModel { config }
    }

    #[test]
    fn tail_is_shorter_than_sprint() {
        // Compare the largest flow of equal-rate populations: the heavy-tailed
        // Sprint model should produce a (much) larger maximum.
        let sprint = SprintModel::small(30.0, 200.0).generate_flows(11);
        let abilene = small(30.0, 200.0).generate_flows(11);
        let max_sprint = sprint.iter().map(|f| f.packets).max().unwrap();
        let max_abilene = abilene.iter().map(|f| f.packets).max().unwrap();
        assert!(
            max_sprint > max_abilene,
            "sprint max {max_sprint} should exceed abilene max {max_abilene}"
        );
    }

    #[test]
    fn small_scenario_counts() {
        let flows = small(10.0, 300.0).generate_flows(1);
        let expected = 3_000.0;
        assert!((flows.len() as f64 - expected).abs() < 300.0);
        assert!(flows.iter().all(|f| f.packets >= 1));
    }

    #[test]
    fn scale_factor_applies() {
        let m = AbileneModel::paper(0.2);
        assert!((m.config.flow_rate - 700.0).abs() < 1e-9);
    }
}
