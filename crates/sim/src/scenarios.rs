//! Ready-made trace-driven scenarios matching the paper's Figs. 12–16.
//!
//! Each helper generates the synthetic flows (Sprint-like or Abilene-like)
//! and moves them into a [`SynthesisStream`] that a configured
//! [`TraceExperiment`] drives window by window, so the packet trace is never
//! held whole. A `scale` argument shrinks the flow arrival rate so the
//! experiments stay affordable in CI; README's "Paper-scale run" records the
//! published configuration (scale 1, 30 runs).

use flowrank_monitor::{MonitorBuilder, SamplerSpec};
use flowrank_net::{FlowDefinition, Timestamp};
use flowrank_trace::{AbileneModel, SprintModel, SynthesisConfig, SynthesisStream};

use crate::experiment::{ExperimentConfig, TraceExperiment};

/// Sampling rates used by Figs. 12–15 (0.1%, 1%, 10%, 50%).
pub(crate) const SPRINT_RATES: [f64; 4] = [0.001, 0.01, 0.1, 0.5];
/// Sampling rates used by Fig. 16 (0.1%, 1%, 10%, 80%).
pub(crate) const ABILENE_RATES: [f64; 4] = [0.001, 0.01, 0.1, 0.8];

/// Builds the Sprint-like trace experiment of Figs. 12–15.
///
/// * `flow_definition` — 5-tuple (Figs. 12/14) or /24 prefix (Figs. 13/15).
/// * `bin_seconds` — 60 or 300 in the paper.
/// * `scale` — flow-arrival-rate scale factor (1.0 = full published rate).
/// * `runs` — sampling runs per rate (30 in the paper).
/// * `sampler` — sampling-discipline template (the paper uses random
///   sampling), fanned out across the figures' rates (0.1%, 1%, 10%, 50%).
pub fn sprint_experiment_with_sampler(
    flow_definition: FlowDefinition,
    bin_seconds: f64,
    scale: f64,
    runs: usize,
    seed: u64,
    sampler: SamplerSpec,
) -> TraceExperiment<SynthesisStream> {
    let flows = SprintModel::paper(scale).generate_flows(seed);
    let trace = SynthesisStream::new(flows, &SynthesisConfig::default(), seed ^ 0xA5A5);
    let config = ExperimentConfig {
        flow_definition,
        sampler,
        sampling_rates: SPRINT_RATES.to_vec(),
        bin_length: Timestamp::from_secs_f64(bin_seconds),
        top_t: 10,
        runs,
        seed,
        threads: 0,
    };
    TraceExperiment::new(trace, config)
}

/// The fanned-out streaming monitor behind the scenario experiments,
/// unbuilt: the `sampler` template at every Figs. 12–15 rate × `runs`
/// lanes, with the same per-(rate, run) seed derivation as
/// [`TraceExperiment`]. The single-monitor paths build it directly (after
/// attaching a controller, for `reproduce --controller`); a multi-tenant
/// fleet clones it per tenant, each tenant getting its own derived seed and
/// a serial engine.
pub fn workload_builder(
    flow_definition: FlowDefinition,
    bin_seconds: f64,
    runs: usize,
    seed: u64,
    sampler: SamplerSpec,
    threads: usize,
) -> MonitorBuilder {
    MonitorBuilder::new()
        .flow_definition(flow_definition)
        .sampler(sampler)
        .rates(&SPRINT_RATES)
        .runs(runs)
        .top_t(10)
        .seed(seed)
        .bin_length(Timestamp::from_secs_f64(bin_seconds))
        .threads(threads)
}

/// Builds the Abilene-like trace experiment of Fig. 16 (1-minute bins,
/// 5-tuple flows, top 10).
pub fn abilene_experiment(scale: f64, runs: usize, seed: u64) -> TraceExperiment<SynthesisStream> {
    let flows = AbileneModel::paper(scale).generate_flows(seed);
    let trace = SynthesisStream::new(flows, &SynthesisConfig::default(), seed ^ 0x5A5A);
    let config = ExperimentConfig {
        flow_definition: FlowDefinition::FiveTuple,
        sampler: SamplerSpec::Random { rate: 0.01 },
        sampling_rates: ABILENE_RATES.to_vec(),
        bin_length: Timestamp::from_secs_f64(60.0),
        top_t: 10,
        runs,
        seed,
        threads: 0,
    };
    TraceExperiment::new(trace, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_monitor::{BatchSource, RateCurve};
    use flowrank_trace::Workload;

    #[test]
    fn sprint_experiment_structure() {
        // A strongly reduced scale keeps this test fast while exercising the
        // full pipeline: generation → synthesis → binning → sampling → metric.
        let result = sprint_experiment_with_sampler(
            FlowDefinition::FiveTuple,
            60.0,
            0.002,
            3,
            42,
            SamplerSpec::Random { rate: 0.01 },
        )
        .run();
        assert!(result.bin_count >= 25, "30-minute trace in 1-minute bins");
        assert_eq!(result.series.len(), SPRINT_RATES.len());
        // The qualitative ordering of the paper: higher sampling rates give
        // lower ranking error.
        let overall: Vec<f64> = result
            .series
            .iter()
            .map(|s| s.overall_ranking_mean())
            .collect();
        assert!(overall[3] < overall[0], "50% must beat 0.1%: {overall:?}");
    }

    #[test]
    fn streamed_rate_curve_matches_the_batch_experiment() {
        let workload = Workload::ddos_flood().scaled(0.25);
        let runs = 3;
        let seed = 5;
        let config = ExperimentConfig {
            sampling_rates: SPRINT_RATES.to_vec(),
            runs,
            seed,
            ..ExperimentConfig::default()
        };
        let batch = workload.synthesize_batch(seed);
        let result = TraceExperiment::new(BatchSource::new(&batch), config).run();
        // The scenario streamed (`reproduce --scenario`'s path): windowed
        // synthesis through one fanned-out monitor into an online curve.
        let sampler = SamplerSpec::Random { rate: 0.01 };
        let mut monitor =
            workload_builder(FlowDefinition::FiveTuple, 60.0, runs, seed, sampler, 1).build();
        let mut curve = RateCurve::new();
        monitor.drive(&mut workload.stream(seed), &mut curve);
        let points = curve.points();
        assert_eq!(points.len(), SPRINT_RATES.len());
        for (point, series) in points.iter().zip(&result.series) {
            assert_eq!(point.rate, series.rate);
            assert_eq!(point.bins as usize, result.bin_count);
            assert_eq!(point.observations, (result.bin_count * runs) as u64);
            // Same observations, different accumulation order: the overall
            // means agree to floating-point noise.
            let batch_mean = series.overall_ranking_mean();
            assert!(
                (point.ranking_mean - batch_mean).abs() <= 1e-9 * batch_mean.abs().max(1.0),
                "rate {}: streamed {} vs batch {}",
                point.rate,
                point.ranking_mean,
                batch_mean
            );
        }
    }

    #[test]
    fn abilene_experiment_structure() {
        let result = abilene_experiment(0.002, 2, 7).run();
        assert_eq!(result.series.len(), ABILENE_RATES.len());
        assert!(result.bin_count >= 25);
    }
}
