//! Cross-crate integration: the analytical ranking/detection models and the
//! trace-driven simulation must agree on the paper's qualitative conclusions.

use flowrank_core::Scenario;
use flowrank_net::{FlowDefinition, Timestamp};
use flowrank_sim::{ExperimentConfig, SamplerSpec, TraceExperiment};
use flowrank_trace::{FlowRecord, SprintModel, SynthesisConfig, SynthesisStream};

fn small_flows(seed: u64) -> Vec<FlowRecord> {
    SprintModel::small(300.0, 30.0).generate_flows(seed)
}

fn stream(flows: Vec<FlowRecord>, seed: u64) -> SynthesisStream {
    SynthesisStream::new(flows, &SynthesisConfig::default(), seed)
}

#[test]
fn simulation_and_model_agree_on_rate_ordering() {
    // Both the model and the simulation must show the error decreasing with
    // the sampling rate, and detection errors at or below ranking errors.
    let flows = small_flows(1);
    let n_flows = flows
        .iter()
        .map(|f| (f.key.src_ip, f.key.src_port))
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    let config = ExperimentConfig {
        flow_definition: FlowDefinition::FiveTuple,
        sampler: SamplerSpec::Random { rate: 0.01 },
        sampling_rates: vec![0.01, 0.1, 0.5],
        bin_length: Timestamp::from_secs_f64(300.0),
        top_t: 10,
        runs: 8,
        seed: 99,
        threads: 0,
    };
    let result = TraceExperiment::new(stream(flows, 1), config).run();

    let sim_means: Vec<f64> = result
        .series
        .iter()
        .map(|s| s.overall_ranking_mean())
        .collect();
    assert!(sim_means[0] > sim_means[1]);
    assert!(sim_means[1] > sim_means[2]);

    let scenario = Scenario::sprint_five_tuple(1.5).with_flow_count(n_flows.max(1_000));
    let model_means: Vec<f64> = [0.01, 0.1, 0.5]
        .iter()
        .map(|&p| scenario.ranking_model(10).mean_swapped_pairs(p))
        .collect();
    assert!(model_means[0] > model_means[1]);
    assert!(model_means[1] > model_means[2]);

    // Detection is never harder than ranking, in both worlds.
    for series in &result.series {
        assert!(series.overall_detection_mean() <= series.overall_ranking_mean() + 1e-9);
    }
    for &p in &[0.01, 0.1] {
        assert!(
            scenario.detection_model(10).mean_swapped_pairs(p)
                <= scenario.ranking_model(10).mean_swapped_pairs(p)
        );
    }
}

#[test]
fn model_tracks_simulation_within_two_orders_of_magnitude() {
    // On a population whose size matches the simulated bin, the analytical
    // metric and the empirical swapped-pair count should be broadly
    // comparable at a moderate sampling rate. The simulation is expected to
    // sit above the model because the binning truncates long-lived flows
    // (Sec. 8.1 of the paper makes the same observation), so the band here is
    // wide: the value matters less than the trend, which the other test pins.
    let flows = small_flows(7);
    let flow_count = flows.len() as u64;
    let config = ExperimentConfig {
        flow_definition: FlowDefinition::FiveTuple,
        sampler: SamplerSpec::Random { rate: 0.01 },
        sampling_rates: vec![0.05],
        bin_length: Timestamp::from_secs_f64(300.0),
        top_t: 5,
        runs: 10,
        seed: 5,
        threads: 0,
    };
    let result = TraceExperiment::new(stream(flows, 7), config).run();
    let simulated = result.series[0].overall_ranking_mean().max(1e-3);

    let scenario = Scenario::sprint_five_tuple(1.5).with_flow_count(flow_count);
    let predicted = scenario.ranking_model(5).mean_swapped_pairs(0.05).max(1e-3);

    let ratio = simulated / predicted;
    assert!(
        (0.02..=100.0).contains(&ratio),
        "simulated {simulated} vs predicted {predicted} (ratio {ratio})"
    );
}
