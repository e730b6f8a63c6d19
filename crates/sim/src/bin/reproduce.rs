//! Regenerates the data series behind every figure of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p flowrank-sim --bin reproduce             # all figures, quick settings
//! cargo run --release -p flowrank-sim --bin reproduce -- --fig 4  # a single figure
//! cargo run --release -p flowrank-sim --bin reproduce -- --scale 1.0 --runs 30
//! cargo run --release -p flowrank-sim --bin reproduce -- --fig 12 --sampler stratified
//! cargo run --release -p flowrank-sim --bin reproduce -- --fig 12 --threads 8
//! cargo run --release -p flowrank-sim --bin reproduce -- --scenario ddos-flood
//! cargo run --release -p flowrank-sim --bin reproduce -- --scenario flash-crowd --controller model-driven
//! cargo run --release -p flowrank-sim --bin reproduce -- --input capture.pcap --runs 5
//! cargo run --release -p flowrank-sim --bin reproduce -- --fleet --tenants 100
//! cargo run --release -p flowrank-sim --bin reproduce -- --list
//! ```
//!
//! Output is CSV on stdout, one block per figure and line, directly
//! plottable. The `--scale` flag controls the flow-arrival-rate scale of the
//! trace-driven figures (12–16); the analytical figures (1–11) always use the
//! paper's full parameters. `--sampler` selects the sampling discipline of
//! the trace-driven Sprint figures at run time (`random`, `periodic`,
//! `stratified`, `flow`, `smart`, `adaptive` — the monitor fans any of them
//! out across the figure's rate grid). `--threads` sets the busy threads of
//! the monitor every trace-driven path runs on, the calling thread included
//! (0 = one per CPU; above 1 its lanes are strided over that many shards,
//! all but one on helper threads; the numbers are bit-identical for every
//! value).
//! A numeric flag with a missing, unparsable or out-of-range value
//! (`--fig` takes 1–16) prints a one-line diagnostic and exits with code 2.
//! `--scenario <name>` runs the binned
//! multi-run experiment over one scenario of the workload catalog
//! (`heavy-tail`, `flash-crowd`, `ddos-flood`, `port-scan`, `rank-churn`,
//! `mixed`) instead of the figures; `--scale` then multiplies the
//! scenario's arrival rates (default 1.0 — catalog scale). The scenario
//! path is fully streamed: the workload synthesises window by window
//! through a packet source and `Monitor::drive` feeds the chosen report
//! sink, so peak memory is independent of trace length. `--output` selects
//! that sink: `summary` (default — the per-rate accuracy curve accumulated
//! online), `csv` (one row per bin × lane, streamed as bins close) or
//! `ndjson` (one JSON object per bin); with `csv`/`ndjson` the report
//! stream is the only thing on stdout — the banner and the closing rate
//! curve go to stderr so pipes parse cleanly. `--controller <name>` attaches
//! a closed-loop rate controller to the scenario path (`model-driven`,
//! `aimd-slo`, `budget-tracking`): one extra lane rides after the static
//! grid, retuned at every bin close, and its per-bin decision trail is
//! printed in `summary` mode and embedded in the `csv`/`ndjson` streams.
//! `--list` (or `--scenario help`) prints every scenario, sampler, top-k
//! backend and controller with a one-line description. `--input <path>`
//! streams a pcap capture from disk through the same monitor pipeline
//! (`--runs`, `--sampler`, `--threads` and `--output` apply); I/O and decode
//! failures — a missing file, bad magic, a record truncated mid-capture —
//! print a one-line diagnostic to stderr and exit with code 1 rather than
//! panicking. `--fleet --tenants <n>` runs the multi-tenant fleet scenario
//! instead: one `flowrank-fleet` slab hosts `n` monitors (catalog mixes,
//! diurnal envelopes, aggregate load held at catalog scale), the merged
//! tagged stream is demultiplexed in one pass, and the summary prints one
//! CSV row per tenant (packets, bins, evictions) plus fleet totals;
//! `--threads` sets the fleet's tenant-affine workers, `--budget <flows>`
//! caps every tenant's flow table. README's "Paper-scale run" records the
//! published configuration's wall time and memory.

use flowrank_core::{
    gaussian::gaussian_absolute_error, optimal_sampling_rate, PairwiseModel, Scenario,
};
use flowrank_fleet::{FleetBuilder, FleetSink};
use flowrank_monitor::{
    BinReport, CsvSink, Monitor, NdjsonSink, PacketSource, PcapBytesSource, RateCurve, ReportSink,
    Tee,
};
use flowrank_net::{FlowDefinition, TenantId, Timestamp};
use flowrank_sim::grids::{rate_grid, size_grid_log, BETA_VALUES, N_FACTORS, TOP_T_VALUES};
use flowrank_sim::report::result_to_csv;
use flowrank_sim::{
    abilene_experiment, sprint_experiment_with_sampler, workload_builder, ControllerSpec,
    ExperimentResult, SamplerSpec,
};
use flowrank_trace::{FleetScenario, Workload};

/// Report sink selected with `--output` for the streamed scenario path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Output {
    /// Per-rate accuracy curve, accumulated online (the default).
    Summary,
    /// One CSV row per bin × lane, streamed as bins close.
    Csv,
    /// One JSON object per bin, streamed as bins close.
    Ndjson,
}

impl Output {
    fn by_name(name: &str) -> Option<Output> {
        match name {
            "summary" => Some(Output::Summary),
            "csv" => Some(Output::Csv),
            "ndjson" => Some(Output::Ndjson),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct Options {
    figure: Option<u32>,
    scenario: Option<String>,
    /// Path of a pcap capture to stream instead of a synthetic trace.
    input: Option<String>,
    /// `None` until `--scale` is given: figures default to 0.02 (the quick
    /// setting), scenarios to 1.0 (catalog scale).
    scale: Option<f64>,
    runs: usize,
    sampler: SamplerSpec,
    threads: usize,
    output: Output,
    controller: Option<ControllerSpec>,
    /// `--fleet`: run the multi-tenant fleet scenario through one
    /// `flowrank-fleet` slab instead of the figures.
    fleet: bool,
    /// Tenants hosted by `--fleet` (the fleet aggregate stays at catalog
    /// scale however many there are).
    tenants: u32,
    /// Per-tenant flow-table budget in fleet mode (0 = unbounded).
    budget: usize,
}

impl Options {
    fn figure_scale(&self) -> f64 {
        self.scale.unwrap_or(0.02)
    }

    fn scenario_scale(&self) -> f64 {
        self.scale.unwrap_or(1.0)
    }
}

fn sampler_by_name(name: &str) -> Option<SamplerSpec> {
    // The rate of the template is irrelevant: the experiment retargets it to
    // every rate on the figure's grid.
    match name {
        "random" => Some(SamplerSpec::Random { rate: 0.01 }),
        "periodic" => Some(SamplerSpec::Periodic {
            rate: 0.01,
            random_phase: true,
        }),
        "stratified" => Some(SamplerSpec::Stratified { rate: 0.01 }),
        "flow" => Some(SamplerSpec::Flow { rate: 0.01 }),
        "smart" => Some(SamplerSpec::Smart { threshold: 100.0 }),
        "adaptive" => Some(SamplerSpec::Adaptive {
            initial_rate: 0.01,
            budget_per_interval: 10_000,
            interval: Timestamp::from_secs_f64(1.0),
        }),
        _ => None,
    }
}

/// One-line description per catalog scenario (`Workload` carries shape
/// parameters, not prose, so the prose lives with the CLI that lists it).
fn scenario_blurb(name: &str) -> &'static str {
    match name {
        "heavy-tail" => "Zipf-like heavy-tailed flow sizes on a stationary link",
        "flash-crowd" => "stationary base load with a mid-trace arrival spike onto hot prefixes",
        "ddos-flood" => "a flood of spoofed single-packet sources aimed at one victim",
        "port-scan" => "a horizontal scanner sweeping ports beneath background traffic",
        "rank-churn" => "the heavy-hitter set rotates completely every bin",
        "mixed" => "all catalog behaviours layered onto one link",
        _ => "catalog scenario",
    }
}

/// Prints everything the CLI can be asked to run, one line per name, then
/// exits. Reached through `--list`, `--scenario help`, or any unknown
/// `--scenario`/`--sampler`/`--controller` name.
fn print_catalog() {
    println!("scenarios (--scenario <name>):");
    for workload in Workload::catalog() {
        println!(
            "  {:<16} {}",
            workload.name(),
            scenario_blurb(workload.name())
        );
    }
    println!("samplers (--sampler <name>):");
    for (name, blurb) in [
        ("random", "independent Bernoulli coin flip per packet"),
        ("periodic", "every k-th packet, with a random phase"),
        ("stratified", "one uniform draw per k-packet stratum"),
        (
            "flow",
            "hash-based flow sampling: every packet of a kept flow",
        ),
        ("smart", "size-biased sampling that favours large flows"),
        (
            "adaptive",
            "multiplicative rate adaptation to a per-interval sample budget",
        ),
    ] {
        println!("  {name:<16} {blurb}");
    }
    println!("top-k backends (exercised by the conformance matrix):");
    for (name, blurb) in [
        ("exact", "full hash map, exact per-flow counts"),
        (
            "sorted-list",
            "bounded sorted list with least-flow eviction",
        ),
        ("space-saving", "Space-Saving bounded counter summary"),
        (
            "sample-and-hold",
            "probabilistic entry, exact counting once held",
        ),
        (
            "multistage-filter",
            "parallel hash stages gating a bounded memory",
        ),
    ] {
        println!("  {name:<16} {blurb}");
    }
    println!("controllers (--controller <name>):");
    for spec in ControllerSpec::catalog() {
        println!("  {:<16} {}", spec.name(), spec.description());
    }
    println!("fleet (--fleet --tenants <n>):");
    println!(
        "  fleet            every tenant gets a catalog scenario (round-robin) under a diurnal envelope; one slab, one decode pass"
    );
}

/// The value of a numeric flag — or, when it is missing, unparsable or
/// fails `valid`, a one-line diagnostic and exit code 2 (the code unknown
/// names use): a mistyped number must never silently run something else.
fn number<T: std::str::FromStr>(
    flag: &str,
    kind: &str,
    value: Option<&String>,
    valid: impl Fn(&T) -> bool,
) -> T {
    match value.and_then(|v| v.parse().ok()).filter(valid) {
        Some(number) => number,
        None => {
            let got = value.map_or("nothing".to_string(), |v| format!("{v:?}"));
            eprintln!("reproduce: {flag} needs {kind}, got {got}");
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Options {
    let mut options = Options {
        figure: None,
        scenario: None,
        input: None,
        scale: None,
        runs: 10,
        sampler: SamplerSpec::Random { rate: 0.01 },
        threads: 0,
        output: Output::Summary,
        controller: None,
        fleet: false,
        tenants: 8,
        budget: 0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                let figure = number("--fig", "a figure number 1..=16", args.get(i + 1), |f| {
                    (1..=16).contains(f)
                });
                options.figure = Some(figure);
                i += 2;
            }
            "--list" => {
                print_catalog();
                std::process::exit(0);
            }
            "--scenario" => {
                options.scenario = args.get(i + 1).cloned();
                match options.scenario.as_deref() {
                    Some("help") => {
                        print_catalog();
                        std::process::exit(0);
                    }
                    Some(name) if Workload::by_name(name).is_none() => {
                        eprintln!("unknown scenario {name:?}; the catalog:");
                        print_catalog();
                        std::process::exit(2);
                    }
                    Some(_) => {}
                    None => {
                        eprintln!("--scenario requires a name; the catalog:");
                        print_catalog();
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--input" => {
                match args.get(i + 1) {
                    Some(path) => options.input = Some(path.clone()),
                    None => {
                        eprintln!("--input requires a pcap file path");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--scale" => {
                options.scale = Some(number("--scale", "a number", args.get(i + 1), |_| true));
                i += 2;
            }
            "--runs" => {
                options.runs = number("--runs", "a run count", args.get(i + 1), |_| true);
                i += 2;
            }
            "--sampler" => {
                match args.get(i + 1).map(|v| (v, sampler_by_name(v))) {
                    Some((_, Some(sampler))) => options.sampler = sampler,
                    Some((name, None)) => {
                        eprintln!("unknown sampler {name:?}; the catalog:");
                        print_catalog();
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("--sampler requires a name; the catalog:");
                        print_catalog();
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--controller" => {
                match args.get(i + 1).map(|v| (v, ControllerSpec::by_name(v))) {
                    Some((_, Some(spec))) => options.controller = Some(spec),
                    Some((name, None)) => {
                        eprintln!("unknown controller {name:?}; the catalog:");
                        print_catalog();
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("--controller requires a name; the catalog:");
                        print_catalog();
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--threads" => {
                options.threads = number("--threads", "a thread count", args.get(i + 1), |_| true);
                i += 2;
            }
            "--fleet" => {
                options.fleet = true;
                i += 1;
            }
            "--tenants" => {
                let kind = "a positive tenant count";
                options.tenants = number("--tenants", kind, args.get(i + 1), |&t| t > 0);
                i += 2;
            }
            "--budget" => {
                let kind = "a per-tenant flow count";
                options.budget = number("--budget", kind, args.get(i + 1), |_| true);
                i += 2;
            }
            "--output" => {
                match args.get(i + 1).and_then(|v| Output::by_name(v)) {
                    Some(output) => options.output = output,
                    None => {
                        eprintln!("--output requires one of: summary, csv, ndjson");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            _ => i += 1,
        }
    }
    options
}

fn wanted(options: &Options, figure: u32) -> bool {
    options.figure.is_none_or(|f| f == figure)
}

fn fig_optimal_rate(figure: u32, log_grid: bool) {
    println!("# Figure {figure}: optimal sampling rate, Pm,d = 0.1%");
    println!("s1_packets,s2_packets,optimal_rate_percent");
    let sizes: Vec<u64> = if log_grid {
        size_grid_log(13)
    } else {
        (1..=10).map(|i| i * 100).collect()
    };
    for &s1 in &sizes {
        for &s2 in &sizes {
            let rate = optimal_sampling_rate(s1, s2, 1e-3, PairwiseModel::Gaussian, 1e-4);
            println!("{s1},{s2},{:.4}", rate * 100.0);
        }
    }
    println!();
}

fn fig3_gaussian_error() {
    println!("# Figure 3: Gaussian approximation absolute error, p = 1%");
    println!("s1_packets,s2_packets,absolute_error");
    for &s1 in &size_grid_log(13) {
        for &s2 in &size_grid_log(13) {
            println!("{s1},{s2},{:.6}", gaussian_absolute_error(s1, s2, 0.01));
        }
    }
    println!();
}

fn fig_ranking_top_t(figure: u32, scenario: &Scenario) {
    println!(
        "# Figure {figure}: ranking metric vs sampling rate, {}",
        scenario.label
    );
    println!("top_t,rate_percent,mean_swapped_pairs");
    for &t in &TOP_T_VALUES {
        let model = scenario.ranking_model(t);
        for &p in &rate_grid() {
            println!("{t},{:.3},{:.6e}", p * 100.0, model.mean_swapped_pairs(p));
        }
    }
    println!();
}

fn fig_ranking_beta(figure: u32, prefix: bool) {
    let label = if prefix { "/24 prefix" } else { "5-tuple" };
    println!("# Figure {figure}: ranking metric vs sampling rate, varying beta, {label}, t = 10");
    println!("beta,rate_percent,mean_swapped_pairs");
    for &beta in &BETA_VALUES {
        let scenario = if prefix {
            Scenario::sprint_prefix24(beta)
        } else {
            Scenario::sprint_five_tuple(beta)
        };
        let model = scenario.ranking_model(10);
        for &p in &rate_grid() {
            println!(
                "{beta},{:.3},{:.6e}",
                p * 100.0,
                model.mean_swapped_pairs(p)
            );
        }
    }
    println!();
}

fn fig_ranking_nflows(figure: u32, prefix: bool) {
    let label = if prefix { "/24 prefix" } else { "5-tuple" };
    println!("# Figure {figure}: ranking metric vs sampling rate, varying N, {label}, t = 10, beta = 1.5");
    println!("n_flows,rate_percent,mean_swapped_pairs");
    let base = if prefix {
        Scenario::sprint_prefix24(1.5)
    } else {
        Scenario::sprint_five_tuple(1.5)
    };
    for &factor in &N_FACTORS {
        let scenario = base.with_flow_count_factor(factor);
        let model = scenario.ranking_model(10);
        for &p in &rate_grid() {
            println!(
                "{},{:.3},{:.6e}",
                scenario.n_flows,
                p * 100.0,
                model.mean_swapped_pairs(p)
            );
        }
    }
    println!();
}

fn fig_detection(figure: u32, scenario: &Scenario) {
    println!(
        "# Figure {figure}: detection metric vs sampling rate, {}",
        scenario.label
    );
    println!("top_t,rate_percent,mean_swapped_pairs");
    for &t in &TOP_T_VALUES {
        let model = scenario.detection_model(t);
        for &p in &rate_grid() {
            println!("{t},{:.3},{:.6e}", p * 100.0, model.mean_swapped_pairs(p));
        }
    }
    println!();
}

/// The Sprint experiments behind Figs. 12–15, each run on first use and
/// kept: Figs. 12/14 and 13/15 print different columns (ranking, detection)
/// of the same (flow definition, bin length) runs.
#[derive(Default)]
struct SprintRuns(std::collections::HashMap<(FlowDefinition, u64), ExperimentResult>);

impl SprintRuns {
    fn result(
        &mut self,
        definition: FlowDefinition,
        bin_seconds: f64,
        options: &Options,
    ) -> &ExperimentResult {
        let run = || {
            sprint_experiment_with_sampler(
                definition,
                bin_seconds,
                options.figure_scale(),
                options.runs,
                2026,
                options.sampler,
            )
            .with_threads(options.threads)
            .run()
        };
        let ran = (definition, bin_seconds.to_bits());
        self.0.entry(ran).or_insert_with(run)
    }
}

fn fig_trace(
    figure: u32,
    definition: FlowDefinition,
    detection: bool,
    options: &Options,
    runs: &mut SprintRuns,
) {
    let kind = if detection { "detection" } else { "ranking" };
    for &bin_seconds in &[60.0, 300.0] {
        println!(
            "# Figure {figure}: trace-driven {kind} vs time, {definition}, top 10, {bin_seconds}-second bins, scale {}, {} runs, {} sampling",
            options.figure_scale(), options.runs, options.sampler.name()
        );
        let result = runs.result(definition, bin_seconds, options);
        println!("{}", result_to_csv(result, bin_seconds, detection));
    }
}

fn fig16_abilene(options: &Options) {
    println!(
        "# Figure 16: trace-driven ranking vs time, Abilene-like trace, top 10, 60-second bins, scale {}, {} runs",
        options.figure_scale(), options.runs
    );
    let result = abilene_experiment(options.figure_scale(), options.runs, 16)
        .with_threads(options.threads)
        .run();
    println!("{}", result_to_csv(&result, 60.0, false));
}

/// Streams the controlled lane's per-bin decision trail to stdout in
/// `summary` mode: one CSV row per bin as it closes (the `csv`/`ndjson`
/// sinks already embed the same trail in their own streams).
struct TrailPrinter;

impl ReportSink for TrailPrinter {
    fn accept(&mut self, report: &BinReport) {
        if let Some(trail) = &report.controller {
            println!(
                "{},{:.6},{:.6},{:.6},{:.6}",
                report.bin_index,
                trail.applied_rate,
                trail.decided_rate,
                trail.swapped_fraction,
                trail.top_churn
            );
        }
    }
}

/// Prints a one-line diagnostic to stderr and exits with code 1 — the CLI
/// contract for I/O and decode failures (no panic, no backtrace).
fn fail(message: std::fmt::Arguments) -> ! {
    eprintln!("reproduce: {message}");
    std::process::exit(1);
}

/// Where everything that is not the report stream itself (the banner, the
/// drive counters, the rate curve) is printed: stdout in `summary` mode,
/// stderr when a machine-readable sink owns stdout, so `--output ndjson | jq`
/// and `--output csv > file.csv` parse cleanly end to end.
fn chrome(options: &Options) -> fn(std::fmt::Arguments) {
    match options.output {
        Output::Summary => |args| println!("{args}"),
        Output::Csv | Output::Ndjson => |args| eprintln!("{args}"),
    }
}

/// The one streamed-run path behind `--input` and `--scenario`: drives
/// `monitor` over `source` into the `--output` sink with the rate curve
/// accumulated beside it, then prints the drive counters (`chunk_noun` names
/// what the source yields) and the curve. A failed drive or write surfaces
/// through [`fail`], labelled `what`.
fn stream_run(
    what: &str,
    chunk_noun: &str,
    monitor: &mut Monitor,
    source: &mut dyn PacketSource,
    options: &Options,
) {
    let chrome = chrome(options);
    let mut curve = RateCurve::new();
    let stdout = std::io::stdout();
    let driven = match options.output {
        Output::Summary => match monitor.controller_name() {
            Some(controller) => {
                println!("# controlled lane ({controller}) decision trail");
                println!("bin,applied_rate,decided_rate,swapped_fraction,top_churn");
                monitor.try_drive(source, &mut Tee(&mut TrailPrinter, &mut curve))
            }
            None => monitor.try_drive(source, &mut curve),
        },
        Output::Csv => {
            let mut writer = CsvSink::new(stdout.lock());
            let driven = monitor.try_drive(source, &mut Tee(&mut writer, &mut curve));
            if let Err(error) = writer.finish() {
                fail(format_args!("writing CSV to stdout: {error}"));
            }
            driven
        }
        Output::Ndjson => {
            let mut writer = NdjsonSink::new(stdout.lock());
            let driven = monitor.try_drive(source, &mut Tee(&mut writer, &mut curve));
            if let Err(error) = writer.finish() {
                fail(format_args!("writing ndjson to stdout: {error}"));
            }
            driven
        }
    };
    let stats = match driven {
        Ok(stats) => stats,
        Err(error) => fail(format_args!("{what}: {error}")),
    };
    chrome(format_args!(
        "# {} packets in {} {chunk_noun} -> {} bins",
        stats.packets, stats.chunks, stats.reports
    ));
    chrome(format_args!(
        "rate,bins,lane_observations,ranking_mean,ranking_std,detection_mean,detection_std"
    ));
    for point in curve.points() {
        chrome(format_args!(
            "{},{},{},{:.6},{:.6},{:.6},{:.6}",
            point.rate,
            point.bins,
            point.observations,
            point.ranking_mean,
            point.ranking_std,
            point.detection_mean,
            point.detection_std
        ));
    }
}

/// Streams a pcap capture from disk through the monitor pipeline — the
/// fallible `try_drive` path, so a missing file, bad magic, or a record
/// truncated mid-capture surfaces through [`fail`] instead of a panic.
fn run_input(path: &str, options: &Options) {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(error) => fail(format_args!("cannot read {path}: {error}")),
    };
    let definition = FlowDefinition::FiveTuple;
    chrome(options)(format_args!(
        "# Input {path}: trace-driven ranking vs time, {definition}, top 10, 60-second bins, {} runs, {} sampling, {:?} output",
        options.runs,
        options.sampler.name(),
        options.output,
    ));
    let mut monitor = workload_builder(
        definition,
        60.0,
        options.runs,
        2026,
        options.sampler,
        options.threads,
    )
    .build();
    let mut source = match PcapBytesSource::new(&bytes) {
        Ok(source) => source,
        Err(error) => fail(format_args!("{path}: {error}")),
    };
    stream_run(path, "chunks", &mut monitor, &mut source, options);
}

/// Fleet mode discards per-bin reports: the per-tenant summary comes from
/// the fleet's own statistics, not from retained bins.
struct DiscardReports;

impl FleetSink for DiscardReports {
    fn accept(&mut self, _tenant: TenantId, _report: &BinReport) {}
}

/// Runs the multi-tenant fleet scenario through one `flowrank-fleet` slab:
/// `--tenants` monitors (each the single-scenario template with its own
/// derived seed), the merged tagged stream demultiplexed in one pass, and a
/// per-tenant summary row as each tenant's totals — the CLI face of the
/// fleet subsystem.
fn run_fleet(options: &Options) {
    let seed = 2026;
    let mut scenario = FleetScenario::new(options.tenants);
    scenario.aggregate_scale = options.scenario_scale();
    let workers = if options.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        options.threads
    };
    // The template's own seed and threads are irrelevant: the fleet derives
    // a per-tenant seed and forces every tenant monitor serial.
    let template = workload_builder(
        FlowDefinition::FiveTuple,
        60.0,
        options.runs,
        seed,
        options.sampler,
        1,
    );
    let mut builder = FleetBuilder::new(options.tenants)
        .monitor(template)
        .seed(seed)
        .threads(workers);
    if options.budget > 0 {
        builder = builder.flow_budget(options.budget);
    }
    let mut fleet = builder.build();
    let mut stream = scenario.stream(seed);
    let summary = fleet.drive(&mut stream, &mut DiscardReports);
    println!(
        "# Scenario {}: {} tenants, aggregate scale {}, diurnal depth {} over {} phase groups, {} runs, {} sampling, {} workers, budget {}",
        scenario.name(),
        scenario.tenants,
        scenario.aggregate_scale,
        scenario.diurnal_depth,
        scenario.phase_groups,
        options.runs,
        options.sampler.name(),
        workers,
        if options.budget > 0 {
            format!("{} flows/tenant", options.budget)
        } else {
            "unbounded".to_string()
        },
    );
    println!("tenant,scenario,envelope,packets,bins,evictions");
    for stats in fleet.tenant_stats() {
        println!(
            "{},{},{:.4},{},{},{}",
            stats.tenant.0,
            scenario.tenant_workload(stats.tenant).name(),
            scenario.tenant_envelope(stats.tenant),
            stats.packets,
            stats.reports,
            stats.evictions,
        );
    }
    println!(
        "# fleet total: {} packets in {} windows -> {} bins, {} evictions",
        summary.packets, summary.windows, summary.reports, summary.evictions
    );
}

/// Runs the streamed multi-run experiment over one catalog scenario, for
/// both flow definitions: the workload synthesises window by window through
/// a packet source, `Monitor::drive` pushes it through the full rate grid,
/// and the `--output` sink renders bins as they close — nothing (trace or
/// report stream) is ever materialised.
fn run_scenario(name: &str, options: &Options) {
    let Some(workload) = Workload::by_name(name) else {
        let names: Vec<&str> = Workload::catalog().iter().map(|w| w.name()).collect();
        eprintln!("unknown scenario {name:?}; available: {}", names.join(", "));
        std::process::exit(2);
    };
    let scaled = workload.scaled(options.scenario_scale());
    let seed = 2026;
    let chrome = chrome(options);
    for definition in [FlowDefinition::FiveTuple, FlowDefinition::PREFIX24] {
        chrome(format_args!(
            "# Scenario {}: trace-driven ranking vs time, {definition}, top 10, 60-second bins, scale {}, {} runs, {} sampling, {:?} output",
            scaled.name(),
            options.scenario_scale(),
            options.runs,
            options.sampler.name(),
            options.output,
        ));
        let mut builder = workload_builder(
            definition,
            60.0,
            options.runs,
            seed,
            options.sampler,
            options.threads,
        );
        if let Some(controller) = options.controller {
            builder = builder.controller(controller);
        }
        let mut source = scaled.stream(seed);
        stream_run(name, "windows", &mut builder.build(), &mut source, options);
        chrome(format_args!(""));
    }
}

fn main() {
    let options = parse_args();
    if options.fleet {
        if options.scenario.is_some() || options.input.is_some() || options.controller.is_some() {
            eprintln!(
                "--fleet runs the fleet scenario; it does not combine with --scenario, --input or --controller"
            );
            std::process::exit(2);
        }
        run_fleet(&options);
        return;
    }
    if let Some(path) = &options.input {
        run_input(path, &options);
        return;
    }
    if let Some(name) = &options.scenario {
        run_scenario(name, &options);
        return;
    }
    if options.controller.is_some() {
        eprintln!("--controller applies to the streamed scenario path; pick one with --scenario");
        print_catalog();
        std::process::exit(2);
    }
    let five_tuple = Scenario::sprint_five_tuple(1.5);
    let prefix = Scenario::sprint_prefix24(1.5);

    if wanted(&options, 1) {
        fig_optimal_rate(1, true);
    }
    if wanted(&options, 2) {
        fig_optimal_rate(2, false);
    }
    if wanted(&options, 3) {
        fig3_gaussian_error();
    }
    if wanted(&options, 4) {
        fig_ranking_top_t(4, &five_tuple);
    }
    if wanted(&options, 5) {
        fig_ranking_top_t(5, &prefix);
    }
    if wanted(&options, 6) {
        fig_ranking_beta(6, false);
    }
    if wanted(&options, 7) {
        fig_ranking_beta(7, true);
    }
    if wanted(&options, 8) {
        fig_ranking_nflows(8, false);
    }
    if wanted(&options, 9) {
        fig_ranking_nflows(9, true);
    }
    if wanted(&options, 10) {
        fig_detection(10, &five_tuple);
    }
    if wanted(&options, 11) {
        fig_detection(11, &prefix);
    }
    let mut sprint = SprintRuns::default();
    if wanted(&options, 12) {
        fig_trace(12, FlowDefinition::FiveTuple, false, &options, &mut sprint);
    }
    if wanted(&options, 13) {
        fig_trace(13, FlowDefinition::PREFIX24, false, &options, &mut sprint);
    }
    if wanted(&options, 14) {
        fig_trace(14, FlowDefinition::FiveTuple, true, &options, &mut sprint);
    }
    if wanted(&options, 15) {
        fig_trace(15, FlowDefinition::PREFIX24, true, &options, &mut sprint);
    }
    if wanted(&options, 16) {
        fig16_abilene(&options);
    }
}
