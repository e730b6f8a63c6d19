//! Runs one workload in this process and reports it: set-up, the measured
//! or traced passes, the assembly of every metric by name, and the printed
//! and written forms of the result.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::catalog::{self, MetricInfo, DETAIL, END_TO_END, PER_LAYER};
use crate::fleet_wl::FleetBench;
use crate::harness::{Bench, PassSample, Stage, Stages, LAG_RESERVE};
use crate::host::HostProbe;
use crate::json::Value;
use crate::monitor_wl::{Kind, MonitorBench};
use crate::serve_wl::ServeBench;
use crate::spans::{self, Recorder};
use crate::{mem, procfs, stats};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a measured one.
    pub trace: bool,
    /// Inputs divided by twenty, one pass, no build: the test suite's mode.
    pub smoke: bool,
    /// Where to write the full result as JSON, if anywhere.
    pub out: Option<PathBuf>,
}

/// Where the ledger reads the repository and keeps its files.
#[derive(Debug, Clone)]
pub struct Paths {
    /// The repository root: the parent of this package's directory.
    pub root: PathBuf,
    /// Cargo's target directory for the repository's own build.
    pub target: PathBuf,
    /// Scratch for config and span files, inside the target directory.
    pub work: PathBuf,
}

impl Paths {
    /// Resolves the paths from the build-time manifest directory and
    /// `CARGO_TARGET_DIR`.
    pub fn resolve() -> Paths {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the package sits one level below the repository root")
            .to_path_buf();
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => std::path::absolute(&dir).unwrap_or_else(|_| PathBuf::from(dir)),
            None => root.join("target"),
        };
        let work = target.join("ledger");
        Paths { root, target, work }
    }

    /// Where the release `flowrank-serve` lands.
    pub fn serve_binary(&self) -> PathBuf {
        self.target.join("release").join("flowrank-serve")
    }
}

/// Builds the release `flowrank-serve` from the repository's own workspace
/// (its profile, its lock file) and returns the binary's path. A no-op
/// costing a fraction of a second once built.
pub fn build_serve(paths: &Paths) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "flowrank-serve",
            "--bin",
            "flowrank-serve",
        ])
        .arg("--target-dir")
        .arg(&paths.target)
        .current_dir(&paths.root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building flowrank-serve failed: {status}"));
    }
    Ok(paths.serve_binary())
}

fn git_sha(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |sha| sha.trim().to_string())
}

/// Generates the inputs and reference outputs of `workload`.
pub fn setup(
    workload: &str,
    seed: u64,
    smoke: bool,
    serve_binary: &Path,
    work: &Path,
) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "sec8_fanout" => Box::new(MonitorBench::setup(
            Kind::Fanout { threads: 1 },
            seed,
            smoke,
        )?),
        "sec8_fanout_t2" => Box::new(MonitorBench::setup(
            Kind::Fanout { threads: 2 },
            seed,
            smoke,
        )?),
        "pcap_lean" => Box::new(MonitorBench::setup(Kind::PcapLean, seed, smoke)?),
        "serve_ndjson" => Box::new(ServeBench::setup(seed, smoke, serve_binary, work)?),
        "fleet_1k" => Box::new(FleetBench::setup(seed, smoke)?),
        other => return Err(format!("unknown workload `{other}` (see --list)")),
    })
}

/// One reported number, with the per-pass values behind it where it has
/// any, so a later comparison can apply its own rule to the passes.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The value as the clock read it, where the reported one is scaled to
    /// the reference host speed (see [`crate::host`]).
    pub raw: Option<f64>,
    /// Per-pass values (per set-up for `setup_s`); empty for a reading
    /// taken once.
    pub passes: Vec<f64>,
}

impl Metric {
    fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            raw: None,
            passes: Vec::new(),
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The options the run was started with.
    pub options: Options,
    /// Commit the repository was at, `unknown` outside a git checkout.
    pub git_sha: String,
    /// Logical CPUs available.
    pub host_cpus: usize,
    /// Set when the workload asks for more threads than the host has: the
    /// result is then not a scaling result.
    pub degraded: Option<&'static str>,
    /// Hypervisor steal as a share of the run's CPU capacity.
    pub host_steal_share: f64,
    /// How much slower than the reference the host ran the probe during the
    /// measured passes; the timings of those passes are scaled by it.
    pub host_slowdown: f64,
    /// Passes of the real call attempted.
    pub attempted: u64,
    /// Passes whose packet count or output differed from the reference.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Contract metrics: end-to-end for a measured run, per-layer for a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// Workload-specific layer readings of a traced run.
    pub detail: Vec<Metric>,
    /// The span file a traced run wrote.
    pub spans_path: Option<PathBuf>,
}

fn rate(sample: &PassSample) -> f64 {
    sample.packets as f64 / (sample.wall_ns.max(1) as f64 / 1e9)
}

/// Keeps the passes that matched the reference — or, when none did, all of
/// them, so a wholly failed run still reports numbers beside `correct:
/// false`.
fn usable(samples: &[PassSample]) -> Vec<&PassSample> {
    let ok: Vec<&PassSample> = samples.iter().filter(|s| s.failure.is_none()).collect();
    if ok.is_empty() {
        samples.iter().collect()
    } else {
        ok
    }
}

/// Runs the workload as `options` asks.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let info = catalog::workload(&options.workload)
        .ok_or_else(|| format!("unknown workload `{}` (see --list)", options.workload))?;
    let paths = Paths::resolve();
    // Built before anything is timed, and for every workload: whichever
    // workload runs first in a fresh checkout pays for the build, and the
    // others find it done.
    let serve_binary = if options.smoke {
        paths.serve_binary()
    } else {
        build_serve(&paths)?
    };
    if info.name == "serve_ndjson" && !serve_binary.is_file() {
        return Err(format!(
            "{} is missing: build it with `cargo build --release -p flowrank-serve`",
            serve_binary.display()
        ));
    }

    // Set-up, several times over: the median is what `setup_s` reports, and
    // the last one's inputs are what the passes use.
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..if options.smoke { 1 } else { 3 } {
        drop(bench.take());
        let clock = Instant::now();
        bench = Some(setup(
            info.name,
            options.seed,
            options.smoke,
            &serve_binary,
            &paths.work,
        )?);
        setups.push(clock.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("set up at least once");

    let host_cpus = procfs::host_cpus();
    let mut outcome = Outcome {
        options: options.clone(),
        git_sha: git_sha(&paths.root),
        host_cpus,
        degraded: (bench.threads() > host_cpus).then_some("threads>host_cpus"),
        host_steal_share: 0.0,
        host_slowdown: 1.0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        detail: Vec::new(),
        spans_path: None,
    };
    let steal = procfs::host_steal_ticks().unwrap_or(0);
    let clock = Instant::now();
    if options.trace {
        traced(options, &paths, bench.as_mut(), &mut outcome)?;
    } else {
        measured(options, bench.as_mut(), &setups, &mut outcome);
    }
    let capacity_ticks = clock.elapsed().as_secs_f64() * procfs::TICKS_PER_S * host_cpus as f64;
    outcome.host_steal_share = procfs::host_steal_ticks()
        .unwrap_or(0)
        .saturating_sub(steal) as f64
        / capacity_ticks;
    if let Some(steal) = outcome
        .metrics
        .iter_mut()
        .find(|m| m.name == "bench.host_steal_share")
    {
        steal.value = outcome.host_steal_share;
    }
    Ok(outcome)
}

fn note(outcome: &mut Outcome, sample: &PassSample) {
    outcome.attempted += 1;
    if let Some(reason) = &sample.failure {
        outcome.failed += 1;
        if outcome.failures.len() < 5 {
            outcome.failures.push(reason.clone());
        }
    }
}

/// Per-pass medians of the lag samples, given where each pass's samples end.
fn per_pass_lag_ms(lags: &[u64], ends: &[usize]) -> Vec<f64> {
    let mut start = 0;
    let mut medians = Vec::with_capacity(ends.len());
    for &end in ends {
        let pass: Vec<f64> = lags[start..end].iter().map(|ns| *ns as f64 / 1e6).collect();
        medians.extend(stats::median(&pass));
        start = end;
    }
    medians
}

fn measured(options: &Options, bench: &mut dyn Bench, setups: &[f64], outcome: &mut Outcome) {
    // Built and reserved before the floor is read, so the harness's own
    // buffers are part of the floor and not of the program's peak.
    let mut probe = HostProbe::new();
    let mut lags: Vec<u64> = Vec::with_capacity(LAG_RESERVE);
    let mut lag_ends: Vec<usize> = Vec::with_capacity(1 << 14);
    let mut samples: Vec<PassSample> = Vec::with_capacity(1 << 14);
    mem::reset_peak();
    let floor = mem::live_bytes();

    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    loop {
        let sample = bench.pass(samples.len(), &mut lags, None);
        note(outcome, &sample);
        lag_ends.push(lags.len());
        samples.push(sample);
        probe.tick();
        if options.smoke || Instant::now() >= deadline {
            break;
        }
    }
    let slowdown = probe.slowdown();
    outcome.host_slowdown = slowdown;
    let peak_mib = match bench.child_peak_kib() {
        Some(kib) => kib as f64 / 1024.0,
        None => mem::peak_bytes().saturating_sub(floor) as f64 / (1024.0 * 1024.0),
    };

    let used = usable(&samples);
    let rates: Vec<f64> = used.iter().map(|s| rate(s)).collect();
    let cpu_per_mpkt = |ticks: u64, packets: u64| {
        (ticks as f64 / procfs::TICKS_PER_S) / (packets.max(1) as f64 / 1e6)
    };
    let ticks: u64 = used.iter().map(|s| s.cpu_ticks).sum();
    let packets: u64 = used.iter().map(|s| s.packets).sum();
    let mut lag_ms: Vec<f64> = lags.iter().map(|ns| *ns as f64 / 1e6).collect();
    stats::sort(&mut lag_ms);

    // What the clock read, the per-pass readings behind it, and the factor
    // that takes the host's share of a timing out: a rate is multiplied by
    // the slowdown, a time divided by it, memory left alone. So is set-up
    // time: the probe is sampled between passes, and set-up was over before
    // the first (scaled by the passes' factor, the medians of two sets of
    // runs drifted further apart than raw).
    let value_of = |m: &MetricInfo| -> Metric {
        let (raw, passes, scale) = match m.name {
            "pkts_per_s" => (
                stats::median(&rates).unwrap_or(0.0),
                rates.clone(),
                Some(slowdown),
            ),
            "cpu_s_per_mpkt" => (
                cpu_per_mpkt(ticks, packets),
                used.iter()
                    .map(|s| cpu_per_mpkt(s.cpu_ticks, s.packets))
                    .collect(),
                Some(1.0 / slowdown),
            ),
            "report_lag_ms_p50" => (
                stats::median_sorted(&lag_ms).unwrap_or(0.0),
                per_pass_lag_ms(&lags, &lag_ends),
                Some(1.0 / slowdown),
            ),
            "peak_mem_mib" => (peak_mib, Vec::new(), None),
            "setup_s" => (stats::median(setups).unwrap_or(0.0), setups.to_vec(), None),
            other => unreachable!("end-to-end metric `{other}` has no reading"),
        };
        Metric {
            name: m.name,
            unit: m.unit,
            value: raw * scale.unwrap_or(1.0),
            raw: scale.map(|_| raw),
            passes: passes.iter().map(|v| v * scale.unwrap_or(1.0)).collect(),
        }
    };
    outcome.metrics = END_TO_END.iter().map(value_of).collect();
}

fn traced(
    options: &Options,
    paths: &Paths,
    bench: &mut dyn Bench,
    outcome: &mut Outcome,
) -> Result<(), String> {
    bench.prepare_trace()?;
    let mut rec = Recorder::new();
    let mut stages = Stages::default();
    let mut lags: Vec<u64> = Vec::with_capacity(LAG_RESERVE);
    let mut traced_lags: Vec<u64> = Vec::with_capacity(LAG_RESERVE);
    let mut plain: Vec<PassSample> = Vec::new();
    let mut with_spans: Vec<PassSample> = Vec::new();

    // Rounds of three: an untraced pass, a traced pass and a replica pass,
    // so the overhead of tracing is read within one run, minutes apart at
    // most. The rest of the budget is for the isolated layer readings.
    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds * 0.6);
    let mut index = 0usize;
    loop {
        let sample = bench.pass(index, &mut lags, None);
        note(outcome, &sample);
        plain.push(sample);

        rec.set_pass(with_spans.len() as u32);
        let root = rec.open("pass");
        let sample = bench.pass(index, &mut traced_lags, Some(&mut rec));
        note(outcome, &sample);
        with_spans.push(sample);
        if let Err(reason) = bench.replica_pass(&mut stages, &mut rec) {
            // A replica that drifts from the engine is a failed check, not
            // a layer reading.
            outcome.attempted += 1;
            outcome.failed += 1;
            outcome.failures.push(format!("replica: {reason}"));
        }
        rec.close(root, bench.input_packets());
        index += 1;
        if options.smoke || Instant::now() >= deadline {
            break;
        }
    }
    let (common, specific) = bench.layers(&mut rec)?;

    let plain_used = usable(&plain);
    let mean = |of: &dyn Fn(&PassSample) -> u64| {
        plain_used.iter().map(|s| of(s) as f64).sum::<f64>() / plain_used.len().max(1) as f64
    };
    let wall = mean(&|s| s.wall_ns).max(1.0);
    let replica = bench.replica().ok_or("the workload built no replica")?;
    let engine_ns: u64 = replica
        .engine_stages()
        .iter()
        .chain(bench.extra_engine_stages())
        .map(|s| stages.ns(*s))
        .sum();
    let engine_per_pass = engine_ns as f64 / stages.passes.max(1) as f64;
    let plain_rate = stats::median(&plain_used.iter().map(|s| rate(s)).collect::<Vec<_>>());
    let traced_rate = stats::median(
        &usable(&with_spans)
            .iter()
            .map(|s| rate(s))
            .collect::<Vec<_>>(),
    );
    let mut lag_ms: Vec<f64> = lags.iter().map(|ns| *ns as f64 / 1e6).collect();
    stats::sort(&mut lag_ms);
    let (lag_tail, lag_percentile) = stats::tail_percentile(&lag_ms, 0.95, 10)
        // Too few reports for any tail: the largest lag stands in, and the
        // percentile printed beside it says so.
        .unwrap_or((lag_ms.last().copied().unwrap_or(0.0), 1.0));
    let counts = &replica.counts;
    let bins = counts.bins.max(1) as f64;
    let (inline, dispatched) = bench.segment_stats();

    let mut readings: HashMap<&'static str, f64> = HashMap::from([
        ("trace.synth_ns_per_pkt", bench.synth_ns_per_pkt()),
        (
            "net.key_derive_ns_per_pkt",
            stages.ns_per_unit(Stage::KeyDerive),
        ),
        (
            "net.classify_ns_per_pkt",
            stages.ns_per_unit(Stage::Classify),
        ),
        ("net.flows_per_bin", counts.flows as f64 / bins),
        (
            "flowtable.upsert_ns_per_op",
            stages.ns_per_unit(Stage::Upsert),
        ),
        (
            "flowtable.load_factor_at_seal",
            counts.load_factor_sum / bins,
        ),
        (
            "sampling.keep_batch_ns_per_offered_pkt",
            stages.ns_per_unit(Stage::Keep),
        ),
        (
            "sampling.kept_share",
            counts.kept as f64 / counts.offered.max(1) as f64,
        ),
        (
            "monitor.lane_update_ns_per_kept_pkt",
            stages.ns_per_unit(Stage::LaneUpdate),
        ),
        (
            "core.rank_us_per_bin",
            stages.ns_per_unit(Stage::Rank) / 1e3,
        ),
        (
            "core.score_us_per_lane_bin",
            stages.ns_per_unit(Stage::Score) / 1e3,
        ),
        ("monitor.report_lag_ms_p95", lag_tail),
        ("monitor.source_share", mean(&|s| s.source_ns) / wall),
        (
            "monitor.drive_self_share",
            (wall - mean(&|s| s.source_ns) - mean(&|s| s.sink_ns) - engine_per_pass) / wall,
        ),
        ("monitor.segments_dispatched", dispatched as f64),
        ("monitor.segments_inline", inline as f64),
        (
            "bench.trace_overhead_share",
            1.0 - traced_rate.unwrap_or(0.0) / plain_rate.unwrap_or(1.0).max(f64::MIN_POSITIVE),
        ),
        // Filled in by `run`, which brackets the whole run.
        ("bench.host_steal_share", 0.0),
        ("bench.passes", plain.len() as f64),
    ]);
    // The workload's own readings come last: where it has a better source
    // for a common reading (the serve workload's source share), it wins.
    readings.extend(common);
    outcome.metrics = PER_LAYER
        .iter()
        .map(|m| {
            readings
                .get(m.name)
                .map(|value| Metric::single(m.name, m.unit, *value))
                .ok_or_else(|| format!("no reading for per-layer metric `{}`", m.name))
        })
        .collect::<Result<_, _>>()?;

    let mut specific = specific;
    for (stage, name) in [
        (Stage::Decode, "net.pcap_decode_ns_per_pkt"),
        (Stage::Parse, "monitor.ndjson_parse_ns_per_record"),
        (Stage::Demux, "net.demux_ns_per_pkt"),
        (Stage::TopkOffer, "topk.offer_ns_per_kept_pkt"),
    ] {
        if stages.units(stage) > 0 {
            specific.push((name, stages.ns_per_unit(stage)));
        }
    }
    specific.push(("monitor.report_lag_tail_percentile", lag_percentile));
    outcome.detail = specific
        .into_iter()
        .map(|(name, value)| {
            DETAIL
                .iter()
                .find(|d| d.name == name)
                .map(|d| Metric::single(d.name, d.unit, value))
                .ok_or_else(|| format!("detail reading `{name}` is not in the catalogue"))
        })
        .collect::<Result<_, _>>()?;

    spans::check_forest(rec.spans())?;
    let path = paths.work.join(format!(
        "{}.seed{}.spans.ndjson",
        options.workload, options.seed
    ));
    spans::write_file(&path, rec.spans()).map_err(|e| format!("{}: {e}", path.display()))?;
    outcome.spans_path = Some(path);
    Ok(())
}

impl Outcome {
    /// Whether every pass matched its reference.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn context(&self) -> Value {
        Value::obj([
            ("workload", Value::Str(self.options.workload.clone())),
            ("trace", Value::Num(u8::from(self.options.trace).into())),
            ("git_sha", Value::Str(self.git_sha.clone())),
            ("host_cpus", Value::Num(self.host_cpus as f64)),
            ("seed", Value::Num(self.options.seed as f64)),
            ("seconds", Value::Num(self.options.seconds)),
            ("passes", Value::Num(self.attempted as f64)),
            ("bench.host_steal_share", Value::Num(self.host_steal_share)),
            ("bench.host_slowdown", Value::Num(self.host_slowdown)),
            (
                "degraded",
                self.degraded
                    .map_or(Value::Null, |d| Value::Str(d.to_string())),
            ),
        ])
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Value::obj([
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .render()
    }

    /// Prints every metric by name with its unit and the quartiles of its
    /// passes, the context, the pass counts, and last the contract's line.
    pub fn print(&self) {
        println!("context {}", self.context().render());
        for (kind, metrics) in [("metric", &self.metrics), ("detail", &self.detail)] {
            for m in metrics {
                let mut line = format!("{kind} {} {} {}", m.name, m.value, m.unit);
                if let Some((q1, _, q3)) = stats::quartiles(&m.passes) {
                    line += &format!(" q1={q1} q3={q3} n={}", m.passes.len());
                }
                if let Some(raw) = m.raw {
                    line += &format!(" raw={raw}");
                }
                println!("{line}");
            }
        }
        if let Some(path) = &self.spans_path {
            println!("spans {}", path.display());
        }
        println!("passes attempted={} failed={}", self.attempted, self.failed);
        for reason in &self.failures {
            eprintln!("ledger: failed pass: {reason}");
        }
        println!("{}", self.contract_line());
    }

    /// The full result, for `--out` and the `compare` subcommand.
    pub fn to_json(&self) -> Value {
        let metrics = |metrics: &[Metric]| {
            Value::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Value::obj([
                        ("value", Value::Num(m.value)),
                        ("raw", m.raw.map_or(Value::Null, Value::Num)),
                        ("unit", Value::Str(m.unit.to_string())),
                        (
                            "passes",
                            Value::Arr(m.passes.iter().map(|v| Value::Num(*v)).collect()),
                        ),
                    ]),
                )
            }))
        };
        Value::obj([
            ("context", self.context()),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics(&self.metrics)),
            ("detail", metrics(&self.detail)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank_outcome() -> Outcome {
        Outcome {
            options: Options {
                workload: "pcap_lean".to_string(),
                seed: 3,
                seconds: 1.0,
                trace: false,
                smoke: true,
                out: None,
            },
            git_sha: "unknown".to_string(),
            host_cpus: 1,
            degraded: None,
            host_steal_share: 0.0,
            host_slowdown: 1.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            detail: Vec::new(),
            spans_path: None,
        }
    }

    #[test]
    fn a_wrong_output_is_a_failed_pass_and_an_incorrect_run() {
        let mut bench = MonitorBench::setup(Kind::PcapLean, 3, true).unwrap();
        let mut lags = Vec::with_capacity(64);
        let mut outcome = blank_outcome();

        let good = bench.pass(0, &mut lags, None);
        note(&mut outcome, &good);
        assert_eq!(good.failure, None);
        assert!(outcome.correct());
        let lags_of_good_pass = lags.len();
        assert!(lags_of_good_pass > 0);

        // The same pass against a reference that is off by one bit.
        bench.corrupt_reference();
        let bad = bench.pass(1, &mut lags, None);
        note(&mut outcome, &bad);
        let reason = bad.failure.expect("a digest mismatch fails the pass");
        assert!(reason.contains("differs from the reference"), "{reason}");
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
        assert!(!outcome.correct());
        assert!(outcome
            .contract_line()
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
        // A failed pass contributes no lag samples.
        assert_eq!(lags.len(), lags_of_good_pass);
    }

    #[test]
    fn the_fleet_is_held_to_its_standalone_monitors() {
        let mut bench = FleetBench::setup(3, true).unwrap();
        let mut lags = Vec::with_capacity(1 << 12);
        assert_eq!(bench.pass(0, &mut lags, None).failure, None);
        bench.corrupt_reference();
        let reason = bench.pass(1, &mut lags, None).failure.expect("mismatch");
        assert!(reason.contains("standalone"), "{reason}");
    }

    #[test]
    fn the_daemon_is_held_to_the_in_process_drive() {
        let paths = Paths::resolve();
        if !paths.serve_binary().is_file() {
            // Not passed: skipped, as in the smoke suite.
            eprintln!("skipped: no release flowrank-serve binary");
            return;
        }
        let mut bench =
            ServeBench::setup(3, true, &paths.serve_binary(), &paths.work.join("unit")).unwrap();
        let mut lags = Vec::with_capacity(64);
        assert_eq!(bench.pass(0, &mut lags, None).failure, None);
        bench.corrupt_reference();
        let reason = bench.pass(1, &mut lags, None).failure.expect("mismatch");
        assert!(reason.contains("in-process reference"), "{reason}");
    }

    #[test]
    fn a_thread_count_above_the_hosts_cpus_is_stamped_degraded() {
        let mut outcome = blank_outcome();
        assert_eq!(outcome.context().get("degraded"), Some(&Value::Null));
        outcome.degraded = Some("threads>host_cpus");
        assert_eq!(
            outcome.context().get("degraded"),
            Some(&Value::Str("threads>host_cpus".into()))
        );
        for key in [
            "git_sha",
            "host_cpus",
            "seed",
            "seconds",
            "passes",
            "bench.host_steal_share",
            "bench.host_slowdown",
        ] {
            assert!(outcome.context().get(key).is_some(), "context lacks {key}");
        }
    }

    #[test]
    fn per_pass_lag_medians_follow_the_pass_boundaries() {
        let lags = [1_000_000, 3_000_000, 5_000_000, 10_000_000];
        assert_eq!(per_pass_lag_ms(&lags, &[3, 3, 4]), vec![3.0, 10.0]);
    }
}
