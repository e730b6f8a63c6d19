//! Quickstart: the paper's question in under a hundred lines.
//!
//! Two things happen here:
//!
//! 1. **The analytical models** — the probability of misranking two flows
//!    under packet sampling, the sampling rate that keeps it below 0.1%, and
//!    the paper's ranking/detection metrics for the Sprint backbone scenario.
//! 2. **The streaming monitor** — the workspace's front door for actual
//!    packet streams. A [`flowrank_monitor::Monitor`] is configured once
//!    through its fluent builder (flow definition, a runtime-selected
//!    sampler, bin length, top-t, seed, and a fan-out of independent runs
//!    per sampling rate), then driven from a packet source into a report
//!    sink with `monitor.drive(&mut source, &mut sink)`; it classifies
//!    ground truth once per bin, samples every lane, and hands the sink a
//!    `BinReport` whenever a bin closes:
//!
//!    ```no_run
//!    use flowrank_monitor::{Monitor, SamplerSpec};
//!    use flowrank_net::{FlowDefinition, Timestamp};
//!
//!    let mut monitor = Monitor::builder()
//!        .flow_definition(FlowDefinition::FiveTuple)
//!        .sampler(SamplerSpec::Random { rate: 0.01 })
//!        .rates(&[0.001, 0.01, 0.1, 0.5])
//!        .runs(30)
//!        .bin_length(Timestamp::from_secs_f64(60.0))
//!        .top_t(10)
//!        .seed(2026)
//!        .build();
//!    ```
//!
//! Run with `cargo run --release -p flowrank-examples --bin quickstart`.

use flowrank_core::{
    misranking_probability_exact, misranking_probability_gaussian, optimal_sampling_rate,
    PairwiseModel, Scenario,
};
use flowrank_monitor::{Monitor, RateCurve, SamplerSpec};
use flowrank_net::{FlowDefinition, Timestamp};
use flowrank_trace::{SprintModel, SynthesisConfig, SynthesisStream};

fn main() {
    println!("== flowrank quickstart ==\n");

    // 1. Two flows of 500 and 600 packets, sampled at 1%.
    let (s1, s2) = (500u64, 600u64);
    let p = 0.01;
    let exact = misranking_probability_exact(s1, s2, p);
    let gauss = misranking_probability_gaussian(s1 as f64, s2 as f64, p);
    println!(
        "Two flows of {s1} and {s2} packets, sampled at {:.0}%:",
        p * 100.0
    );
    println!("  probability their order is swapped (exact, Eq. 1):    {exact:.4}");
    println!("  probability their order is swapped (Gaussian, Eq. 2): {gauss:.4}\n");

    // 2. What sampling rate keeps the misranking probability below 0.1%?
    let target = 1e-3;
    let rate = optimal_sampling_rate(s1, s2, target, PairwiseModel::Gaussian, 1e-4);
    println!(
        "Sampling rate needed to misrank them less than once in 1000 trials: {:.1}%\n",
        rate * 100.0
    );

    // 3. The full ranking problem on the Sprint backbone scenario.
    let scenario = Scenario::sprint_five_tuple(1.5);
    println!(
        "Scenario: {} (Pareto(a = {:.3}, beta = {:.2}))",
        scenario.label,
        scenario.flow_sizes.scale(),
        scenario.flow_sizes.shape()
    );
    println!(
        "{:>10} {:>22} {:>22}",
        "rate", "ranking metric", "detection metric"
    );
    for &p in &[0.001, 0.01, 0.1, 0.5] {
        let ranking = scenario.ranking_model(10).mean_swapped_pairs(p);
        let detection = scenario.detection_model(10).mean_swapped_pairs(p);
        println!("{:>9.1}% {:>22.3} {:>22.3}", p * 100.0, ranking, detection);
    }
    println!("\n(The ranking is acceptable when the metric is below 1.)");

    // 4. The same question, empirically, through the streaming pipeline:
    //    the synthetic Sprint-like minute is synthesised window by window
    //    (never materialised as a whole trace), `Monitor::drive` samples it
    //    at every rate simultaneously over one shared ground-truth
    //    classification, and the accuracy-vs-rate curve accumulates online
    //    in the sink — the same shape scales to arbitrarily long traces.
    let flows = SprintModel::small(60.0, 60.0).generate_flows(1);
    let rates = [0.001, 0.01, 0.1, 0.5];
    let mut monitor = Monitor::builder()
        .flow_definition(FlowDefinition::FiveTuple)
        .sampler(SamplerSpec::Random { rate: 0.01 })
        .rates(&rates)
        .runs(10)
        .bin_length(Timestamp::from_secs_f64(60.0))
        .top_t(10)
        .seed(2026)
        .build();
    let mut source = SynthesisStream::new(flows, &SynthesisConfig::default(), 1);
    let mut curve = RateCurve::new();
    let summary = monitor.drive(&mut source, &mut curve);
    println!(
        "\nStreaming pipeline on a synthetic minute ({} packets, {} bins, {} lanes):",
        summary.packets,
        summary.reports,
        monitor.lane_count(),
    );
    println!("{:>10} {:>26}", "rate", "mean swapped pairs");
    for point in curve.points() {
        println!("{:>9.1}% {:>26.2}", point.rate * 100.0, point.ranking_mean);
    }

    let required_ranking = scenario.ranking_model(10).required_sampling_rate(1.0, 1e-3);
    let required_detection = scenario
        .detection_model(10)
        .required_sampling_rate(1.0, 1e-3);
    println!(
        "\nHeadline: ranking the top 10 flows needs a sampling rate of about {:.0}%,",
        required_ranking * 100.0
    );
    println!(
        "but merely *detecting* them (order ignored) only needs about {:.0}%.",
        required_detection * 100.0
    );
}
