//! Multi-run, multi-bin trace-driven experiments.
//!
//! Reproduces the methodology of Sec. 8.2: for each sampling rate, the same
//! packet trace is sampled in 30 independent runs; for every measurement bin
//! the ranking (or detection) metric is averaged over the runs and reported
//! together with its standard deviation.
//!
//! That is exactly what one fanned-out [`flowrank_monitor::Monitor`] emits
//! bin by bin, so an experiment is a single [`Monitor::drive`] of a packet
//! source — the figure scenarios stream their trace window by window and
//! never hold it whole. The monitor cuts the bins, classifies and ranks each
//! bin's ground truth **once**, scores every `runs × rates` lane against it,
//! and a per-bin sink folds each report's lanes into the mean ± std series.
//!
//! [`Monitor::drive`]: flowrank_monitor::Monitor::drive

use flowrank_monitor::{
    BinReport, MonitorBuilder, PacketSource, RateCurve, ReportSink, SamplerSpec,
};
use flowrank_net::{FlowDefinition, Timestamp};

/// Configuration of a trace-driven experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Flow definition used for classification.
    pub flow_definition: FlowDefinition,
    /// Sampling discipline template; it is fanned out across
    /// [`ExperimentConfig::sampling_rates`]. The paper uses random sampling.
    pub sampler: SamplerSpec,
    /// Packet sampling rates to evaluate.
    pub sampling_rates: Vec<f64>,
    /// Measurement-bin length.
    pub bin_length: Timestamp,
    /// Number of top flows to rank/detect.
    pub top_t: usize,
    /// Number of independent sampling runs per rate (30 in the paper).
    pub runs: usize,
    /// Master seed; per-run seeds are derived deterministically from it.
    pub seed: u64,
    /// Busy threads of the monitor the experiment runs on, the calling
    /// thread included ([`MonitorBuilder::threads`]: 0 = one per available
    /// CPU, above 1 lane shards on helpers). Seeds depend only on (master
    /// seed, rate, run), so results are identical for every value.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            flow_definition: FlowDefinition::FiveTuple,
            sampler: SamplerSpec::Random { rate: 0.01 },
            sampling_rates: vec![0.001, 0.01, 0.1, 0.5],
            bin_length: Timestamp::from_secs_f64(60.0),
            top_t: 10,
            runs: 30,
            seed: 0xF10A_4A9C,
            threads: 0,
        }
    }
}

/// Per-bin averaged metrics for one sampling rate.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSeries {
    /// The sampling rate this series corresponds to.
    pub rate: f64,
    /// Mean ranking metric per bin (swapped pairs involving a top-t flow).
    pub ranking_mean: Vec<f64>,
    /// Standard deviation of the ranking metric per bin.
    pub ranking_std: Vec<f64>,
    /// Mean detection metric per bin (swapped pairs across the top-t boundary).
    pub detection_mean: Vec<f64>,
    /// Standard deviation of the detection metric per bin.
    pub detection_std: Vec<f64>,
}

impl RateSeries {
    /// Mean of the per-bin ranking means (a single summary number).
    pub fn overall_ranking_mean(&self) -> f64 {
        if self.ranking_mean.is_empty() {
            return 0.0;
        }
        self.ranking_mean.iter().sum::<f64>() / self.ranking_mean.len() as f64
    }

    /// Mean of the per-bin detection means.
    pub fn overall_detection_mean(&self) -> f64 {
        if self.detection_mean.is_empty() {
            return 0.0;
        }
        self.detection_mean.iter().sum::<f64>() / self.detection_mean.len() as f64
    }
}

/// Result of a trace-driven experiment: one series per sampling rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Number of measurement bins in the trace.
    pub bin_count: usize,
    /// One series per configured sampling rate.
    pub series: Vec<RateSeries>,
}

/// A trace-driven experiment over one packet source (non-decreasing
/// timestamps, the monitor's push contract): a [`SynthesisStream`] for the
/// figure scenarios, a [`BatchSource`] for a trace held as records.
///
/// [`SynthesisStream`]: flowrank_trace::SynthesisStream
/// [`BatchSource`]: flowrank_monitor::BatchSource
#[derive(Debug)]
pub struct TraceExperiment<S> {
    source: S,
    config: ExperimentConfig,
}

impl<S: PacketSource> TraceExperiment<S> {
    /// Prepares an experiment over `source`.
    pub fn new(source: S, config: ExperimentConfig) -> Self {
        TraceExperiment { source, config }
    }

    /// Overrides the worker-thread count (0 = one per available CPU).
    /// Results are bit-identical for every value — only wall-clock changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Runs the full experiment: every sampling rate, every bin, `runs`
    /// independent sampling runs — one monitor with `rates × runs` lanes,
    /// driven over the source once. Lane seeds depend only on (master seed,
    /// rate, run) and every lane restarts its random stream at each bin, so
    /// bins are independent measurements whatever runs them.
    pub fn run(mut self) -> ExperimentResult {
        let config = &self.config;
        let mut monitor = MonitorBuilder::new()
            .flow_definition(config.flow_definition)
            .sampler(config.sampler)
            .rates(&config.sampling_rates)
            .runs(config.runs)
            .top_t(config.top_t)
            .seed(config.seed)
            .bin_length(config.bin_length)
            .threads(config.threads)
            .build();
        let mut sink = SeriesSink(ExperimentResult {
            bin_count: 0,
            series: config
                .sampling_rates
                .iter()
                .map(|&rate| RateSeries {
                    rate,
                    ranking_mean: Vec::new(),
                    ranking_std: Vec::new(),
                    detection_mean: Vec::new(),
                    detection_std: Vec::new(),
                })
                .collect(),
        });
        monitor.drive(&mut self.source, &mut sink);
        sink.0
    }
}

/// The experiment's per-bin sink: each closed bin appends one point to every
/// rate's series — the mean ± std of that rate's lanes (one per run) in the
/// bin, folded by a [`RateCurve`] of that one report. An idle bin's lanes all
/// score zero, so it reads 0 ± 0.
struct SeriesSink(ExperimentResult);

impl ReportSink for SeriesSink {
    fn accept(&mut self, report: &BinReport) {
        self.0.bin_count += 1;
        let mut bin = RateCurve::new();
        bin.accept(report);
        for (series, point) in self.0.series.iter_mut().zip(bin.points()) {
            series.ranking_mean.push(point.ranking_mean);
            series.ranking_std.push(point.ranking_std);
            series.detection_mean.push(point.detection_mean);
            series.detection_std.push(point.detection_std);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::split_into_bins;
    use crate::engine::run_bin_random_sampling;
    use flowrank_monitor::BatchSource;
    use flowrank_net::{PacketBatch, PacketRecord};
    use flowrank_stats::rng::derive_seeds;
    use flowrank_stats::summary::RunningStats;
    use flowrank_trace::{
        synthesize_packets, FlowRecord, SprintModel, SynthesisConfig, SynthesisStream,
    };

    const SEED: u64 = 11;

    fn small_flows() -> Vec<FlowRecord> {
        SprintModel::small(120.0, 40.0).generate_flows(SEED)
    }

    /// The experiment over the small trace, streamed.
    fn small_experiment(config: ExperimentConfig) -> TraceExperiment<SynthesisStream> {
        let stream = SynthesisStream::new(small_flows(), &SynthesisConfig::default(), SEED);
        TraceExperiment::new(stream, config)
    }

    /// The same trace held as records.
    fn small_trace() -> Vec<PacketRecord> {
        synthesize_packets(&small_flows(), &SynthesisConfig::default(), SEED)
    }

    fn config(rates: Vec<f64>, runs: usize) -> ExperimentConfig {
        ExperimentConfig {
            flow_definition: FlowDefinition::FiveTuple,
            sampler: SamplerSpec::Random { rate: 0.01 },
            sampling_rates: rates,
            bin_length: Timestamp::from_secs_f64(60.0),
            top_t: 10,
            runs,
            seed: 7,
            threads: 0,
        }
    }

    #[test]
    fn experiment_structure_matches_configuration() {
        let result = small_experiment(config(vec![0.1, 0.5], 4)).run();
        assert_eq!(result.series.len(), 2);
        // Time zero to the last packet, leading and idle bins included.
        let last = small_trace().last().unwrap().timestamp;
        let bins = last.bin_index(Timestamp::from_secs_f64(60.0)) as usize + 1;
        assert_eq!(result.bin_count, bins);
        assert!(result.bin_count >= 2);
        for series in &result.series {
            assert_eq!(series.ranking_mean.len(), result.bin_count);
            assert_eq!(series.ranking_std.len(), result.bin_count);
            assert_eq!(series.detection_mean.len(), result.bin_count);
        }
    }

    #[test]
    fn higher_rate_has_lower_error_and_detection_below_ranking() {
        let result = small_experiment(config(vec![0.01, 0.5], 6)).run();
        let low = &result.series[0];
        let high = &result.series[1];
        assert!(
            high.overall_ranking_mean() < low.overall_ranking_mean(),
            "50% sampling ({}) must beat 1% ({})",
            high.overall_ranking_mean(),
            low.overall_ranking_mean()
        );
        // Detection errors are a subset of ranking errors.
        assert!(low.overall_detection_mean() <= low.overall_ranking_mean() + 1e-12);
    }

    #[test]
    fn results_are_deterministic_for_a_fixed_seed() {
        let a = small_experiment(config(vec![0.1], 5)).run();
        let b = small_experiment(config(vec![0.1], 5)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn shared_truth_fan_out_matches_per_run_reclassification() {
        // The streaming fan-out must reproduce the legacy engine's numbers
        // exactly: same per-(rate, run) seed derivation, same per-bin RNG
        // restart, same metric — only the redundant ground-truth
        // reclassifications are gone. The legacy side bins the record trace,
        // the experiment streams it.
        let rates = vec![0.05, 0.3];
        let runs = 3;
        let cfg = config(rates.clone(), runs);
        let result = small_experiment(cfg.clone()).run();

        let bins = split_into_bins(&small_trace(), cfg.bin_length);
        for (rate_index, &rate) in rates.iter().enumerate() {
            let seeds = derive_seeds(cfg.seed ^ rate.to_bits(), runs);
            for (bin_index, bin) in bins.iter().enumerate() {
                let mut stats = RunningStats::new();
                for &seed in &seeds {
                    let legacy =
                        run_bin_random_sampling(bin, cfg.flow_definition, rate, cfg.top_t, seed);
                    stats.push(legacy.outcome.ranking_swaps as f64);
                }
                let expected = stats.mean().unwrap_or(0.0);
                let got = result.series[rate_index].ranking_mean[bin_index];
                assert_eq!(
                    got, expected,
                    "rate {rate}, bin {bin_index}: streaming {got} vs legacy {expected}"
                );
            }
        }
    }

    #[test]
    fn idle_bins_read_zero_mean_and_zero_std_at_every_rate() {
        // Bin 0 is empty and bins 2–3 are an idle gap: they still count
        // towards `bin_count`, and with no flows to misrank every run of
        // every rate measures zero there.
        let first_minute: Vec<PacketRecord> = small_trace()
            .into_iter()
            .filter(|p| p.timestamp < Timestamp::from_secs_f64(60.0))
            .collect();
        let shifted = |by_secs: f64| {
            let by = Timestamp::from_secs_f64(by_secs).as_nanos();
            first_minute.iter().map(move |p| PacketRecord {
                timestamp: Timestamp::from_nanos(p.timestamp.as_nanos() + by),
                ..*p
            })
        };
        let packets: Vec<PacketRecord> = shifted(60.0).chain(shifted(240.0)).collect();
        let batch = PacketBatch::from_records(&packets);
        let result =
            TraceExperiment::new(BatchSource::new(&batch), config(vec![0.01, 0.1, 0.5], 4)).run();
        assert_eq!(result.bin_count, 5);
        for series in &result.series {
            assert_eq!(series.ranking_mean.len(), 5);
            assert_eq!(series.detection_std.len(), 5);
            for idle in [0, 2, 3] {
                assert_eq!(series.ranking_mean[idle], 0.0, "rate {}", series.rate);
                assert_eq!(series.ranking_std[idle], 0.0, "rate {}", series.rate);
                assert_eq!(series.detection_mean[idle], 0.0, "rate {}", series.rate);
                assert_eq!(series.detection_std[idle], 0.0, "rate {}", series.rate);
            }
        }
        // The busy bins measured something at the lowest rate.
        let low = &result.series[0];
        assert!(low.ranking_mean[1] > 0.0 && low.ranking_mean[4] > 0.0);
    }

    #[test]
    fn default_config_matches_paper_methodology() {
        let c = ExperimentConfig::default();
        assert_eq!(c.runs, 30);
        assert_eq!(c.top_t, 10);
        assert_eq!(c.bin_length, Timestamp::from_secs_f64(60.0));
        assert_eq!(c.sampling_rates.len(), 4);
        assert_eq!(c.sampler, SamplerSpec::Random { rate: 0.01 });
    }

    #[test]
    fn non_random_sampler_template_fans_out() {
        let mut cfg = config(vec![0.1, 0.5], 2);
        cfg.sampler = SamplerSpec::Stratified { rate: 0.1 };
        let result = small_experiment(cfg).run();
        assert_eq!(result.series.len(), 2);
        assert!(
            result.series[1].overall_ranking_mean()
                <= result.series[0].overall_ranking_mean() + 1e-9
        );
    }
}
