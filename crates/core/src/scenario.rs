//! The paper's evaluation scenarios as ready-made configurations.
//!
//! Section 6 fixes its parameters from the Sprint backbone measurements:
//!
//! | quantity                  | 5-tuple flows | /24 prefix flows |
//! |---------------------------|---------------|------------------|
//! | mean flow size            | 4.8 KB ≈ 9.6 packets | 16.6 KB ≈ 33.2 packets |
//! | flows per 5-minute bin, N | 0.7 M         | 0.1 M            |
//! | flow size law             | Pareto, β varied (default 1.5) | same |
//!
//! A [`Scenario`] bundles those numbers with the flow-size model and hands
//! out ready-to-evaluate [`RankingModel`]s and [`DetectionModel`]s.

use flowrank_net::FlowDefinition;
use flowrank_stats::dist::Pareto;

use crate::detection::DetectionModel;
use crate::ranking::RankingModel;

/// Mean 5-tuple flow size in packets (4.8 KB at 500-byte packets).
pub(crate) const MEAN_PACKETS_5TUPLE: f64 = 9.6;
/// Mean /24-prefix flow size in packets (16.6 KB at 500-byte packets).
pub(crate) const MEAN_PACKETS_PREFIX24: f64 = 33.2;
/// Number of 5-tuple flows in a 5-minute measurement interval on the Sprint
/// link.
pub(crate) const N_FLOWS_5TUPLE: u64 = 700_000;
/// Number of /24-prefix flows in a 5-minute measurement interval.
pub(crate) const N_FLOWS_PREFIX24: u64 = 100_000;

/// A fully specified analytical scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Flow definition the scenario corresponds to.
    pub flow_definition: FlowDefinition,
    /// Total number of flows `N` in the measurement interval.
    pub n_flows: u64,
    /// Flow-size law, in packets.
    pub flow_sizes: Pareto,
    /// Human-readable label used in reports.
    pub label: String,
}

impl Scenario {
    /// The Sprint 5-tuple scenario with the given Pareto shape β.
    ///
    /// # Panics
    ///
    /// Panics if `beta ≤ 1` (the calibrated mean would not exist).
    pub fn sprint_five_tuple(beta: f64) -> Self {
        Scenario {
            flow_definition: FlowDefinition::FiveTuple,
            n_flows: N_FLOWS_5TUPLE,
            flow_sizes: Pareto::with_mean(MEAN_PACKETS_5TUPLE, beta).expect("beta must exceed 1"),
            label: format!("5-tuple flows, N = 0.7M, beta = {beta}"),
        }
    }

    /// The Sprint /24 destination-prefix scenario with the given Pareto
    /// shape β.
    ///
    /// # Panics
    ///
    /// Panics if `beta ≤ 1`.
    pub fn sprint_prefix24(beta: f64) -> Self {
        Scenario {
            flow_definition: FlowDefinition::PREFIX24,
            n_flows: N_FLOWS_PREFIX24,
            flow_sizes: Pareto::with_mean(MEAN_PACKETS_PREFIX24, beta).expect("beta must exceed 1"),
            label: format!("/24 prefix flows, N = 0.1M, beta = {beta}"),
        }
    }

    /// Returns a copy of the scenario with the flow count multiplied by
    /// `factor` — the sweep of Figs. 8–9 (0.2× to 5× the baseline `N`).
    pub fn with_flow_count_factor(&self, factor: f64) -> Self {
        let mut copy = self.clone();
        copy.n_flows = ((self.n_flows as f64) * factor).round().max(1.0) as u64;
        copy.label = format!("{} (N x {factor})", self.label);
        copy
    }

    /// Returns a copy with an explicit flow count.
    pub fn with_flow_count(&self, n_flows: u64) -> Self {
        let mut copy = self.clone();
        copy.n_flows = n_flows.max(1);
        copy
    }

    /// Ranking model for the top `t` flows of this scenario.
    pub fn ranking_model(&self, top_t: u32) -> RankingModel<'_> {
        RankingModel::new(&self.flow_sizes, self.n_flows, top_t)
    }

    /// Detection model for the top `t` flows of this scenario.
    pub fn detection_model(&self, top_t: u32) -> DetectionModel<'_> {
        DetectionModel::new(&self.flow_sizes, self.n_flows, top_t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_tuple_scenario_parameters() {
        let s = Scenario::sprint_five_tuple(1.5);
        assert_eq!(s.n_flows, 700_000);
        assert_eq!(s.flow_definition, FlowDefinition::FiveTuple);
        assert_eq!(s.flow_sizes.shape(), 1.5);
        assert!(s.label.contains("0.7M"));
    }

    #[test]
    fn prefix_scenario_parameters() {
        let s = Scenario::sprint_prefix24(1.2);
        assert_eq!(s.n_flows, 100_000);
        assert_eq!(s.flow_definition, FlowDefinition::PREFIX24);
        // Mean flow size is larger under aggregation.
        assert!(
            Scenario::sprint_prefix24(1.5).flow_sizes.scale()
                > Scenario::sprint_five_tuple(1.5).flow_sizes.scale()
        );
    }

    #[test]
    fn flow_count_factor_sweep() {
        let base = Scenario::sprint_five_tuple(1.5);
        assert_eq!(base.with_flow_count_factor(0.2).n_flows, 140_000);
        assert_eq!(base.with_flow_count_factor(5.0).n_flows, 3_500_000);
        assert_eq!(base.with_flow_count(42).n_flows, 42);
        assert_eq!(base.with_flow_count(0).n_flows, 1);
    }

    #[test]
    fn models_are_constructible_and_consistent() {
        let s = Scenario::sprint_five_tuple(1.5);
        let ranking = s.ranking_model(10);
        let detection = s.detection_model(10);
        assert_eq!(ranking.pair_count() as u64, (2 * 700_000 - 10 - 1) * 10 / 2);
        assert_eq!(detection.pair_count() as u64, 10 * (700_000 - 10));
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn invalid_beta_panics() {
        let _ = Scenario::sprint_five_tuple(0.8);
    }
}
