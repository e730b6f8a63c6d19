//! The full interleaved run (`ledger suite`) and the comparison of two of
//! its result files (`ledger compare`).

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::catalog::{Better, END_TO_END, WORKLOADS};
use crate::json::{self, Value};
use crate::stats;

/// Segments the measured budget of each workload is split into. Fixed:
/// results taken with different splits are not comparable under one set of
/// bounds.
pub const ROUNDS: usize = 3;

/// Measured seconds per traced second of a workload — 18 s against 6 s at
/// the default budget — so a shorter suite shrinks both by one factor.
pub const MEASURED_PER_TRACED: f64 = 3.0;

/// What `ledger suite` was asked for.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Seed of every workload's inputs.
    pub seed: u64,
    /// Measured seconds per workload, split over [`ROUNDS`] segments; the
    /// traced run gets a third of it on top.
    pub seconds: f64,
    /// Every segment in `--smoke` mode: the test suite's way through here.
    pub smoke: bool,
    /// The result file.
    pub out: PathBuf,
}

/// Runs one workload once in a process of its own and reads its result
/// back. A run with failed passes (exit 1, result written) is a result; a
/// run that wrote none is an error.
fn run_segment(
    exe: &Path,
    workload: &str,
    options: &SuiteOptions,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<Value, String> {
    let _ = std::fs::remove_file(out);
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdout(std::process::Stdio::null());
    if options.smoke {
        command.arg("--smoke");
    }
    let status = command
        .status()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !matches!(status.code(), Some(0 | 1)) || !out.is_file() {
        return Err(format!(
            "{workload} (trace {}) exited with {status} and no result",
            u8::from(trace)
        ));
    }
    let text = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    json::parse(&text)
}

/// Runs every workload [`ROUNDS`] times round-robin (A B C D E A B C …),
/// then traces each once, and writes the pooled result. Returns whether
/// every pass of every workload matched its reference.
///
/// The box this was calibrated on slows down in bursts of tens of seconds.
/// Back-to-back segments of one workload would all sit inside one burst;
/// interleaving spreads a burst over all five, and the median of a
/// workload's segments then rides it out.
pub fn suite(options: &SuiteOptions) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let scratch = options.out.with_extension("segment.json");
    let mut segments: Vec<Vec<Value>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..ROUNDS {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!("ledger: round {}/{ROUNDS}: {}", round + 1, workload.name);
            let seconds = options.seconds / ROUNDS as f64;
            segments[w].push(run_segment(
                &exe,
                workload.name,
                options,
                seconds,
                false,
                &scratch,
            )?);
        }
    }
    let mut workloads = Vec::new();
    let mut context = Value::Null;
    let mut correct = true;
    for (workload, segments) in WORKLOADS.iter().zip(&segments) {
        eprintln!("ledger: traced: {}", workload.name);
        let traced = run_segment(
            &exe,
            workload.name,
            options,
            options.seconds / MEASURED_PER_TRACED,
            true,
            &scratch,
        )?;
        context = segments[0].get("context").cloned().unwrap_or(Value::Null);
        let pooled = pool(segments, &traced)?;
        let failed = count(&pooled, "failed");
        if failed > 0.0 {
            correct = false;
            eprintln!(
                "ledger: {}: {failed} of {} passes failed",
                workload.name,
                count(&pooled, "attempted")
            );
        }
        workloads.push((workload.name, pooled));
    }
    let _ = std::fs::remove_file(&scratch);
    let pick = |key: &str| context.get(key).cloned().unwrap_or(Value::Null);
    let result = Value::obj([
        (
            "context",
            Value::obj([
                ("git_sha", pick("git_sha")),
                ("host_cpus", pick("host_cpus")),
                ("seed", Value::Num(options.seed as f64)),
                ("seconds", Value::Num(options.seconds)),
                ("rounds", Value::Num(ROUNDS as f64)),
            ]),
        ),
        ("workloads", Value::obj(workloads)),
    ]);
    std::fs::write(&options.out, result.render() + "\n")
        .map_err(|e| format!("{}: {e}", options.out.display()))?;
    println!("{}", options.out.display());
    Ok(correct)
}

fn count(value: &Value, key: &str) -> f64 {
    value.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Pools the measured segments of one workload: per metric, the median of
/// the segments' values, those values, and the segments' passes
/// concatenated.
fn pool(segments: &[Value], traced: &Value) -> Result<Value, String> {
    let mut metrics = Vec::new();
    for m in &END_TO_END {
        let mut values = Vec::new();
        let mut passes = Vec::new();
        for segment in segments {
            let metric = segment
                .get("metrics")
                .and_then(|all| all.get(m.name))
                .ok_or_else(|| format!("a segment lacks `{}`", m.name))?;
            values.extend(metric.get("value").and_then(Value::as_f64));
            passes.extend(
                metric
                    .get("passes")
                    .and_then(Value::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(Value::as_f64),
            );
        }
        metrics.push((
            m.name,
            Value::obj([
                ("value", Value::Num(stats::median(&values).unwrap_or(0.0))),
                ("unit", Value::Str(m.unit.to_string())),
                (
                    "segments",
                    Value::Arr(values.into_iter().map(Value::Num).collect()),
                ),
                (
                    "passes",
                    Value::Arr(passes.into_iter().map(Value::Num).collect()),
                ),
            ]),
        ));
    }
    let sum = |key: &str| segments.iter().map(|s| count(s, key)).sum::<f64>();
    Ok(Value::obj([
        (
            "attempted",
            Value::Num(sum("attempted") + count(traced, "attempted")),
        ),
        (
            "failed",
            Value::Num(sum("failed") + count(traced, "failed")),
        ),
        (
            "degraded",
            segments[0]
                .get("context")
                .and_then(|c| c.get("degraded"))
                .cloned()
                .unwrap_or(Value::Null),
        ),
        // What each segment's timings were scaled by: a reader of the file
        // sees which segments the host was slow in.
        (
            "host_slowdown",
            Value::Arr(
                segments
                    .iter()
                    .filter_map(|s| s.get("context")?.get("bench.host_slowdown").cloned())
                    .collect(),
            ),
        ),
        ("metrics", Value::obj(metrics)),
        (
            "per_layer",
            traced.get("metrics").cloned().unwrap_or(Value::Null),
        ),
        (
            "detail",
            traced.get("detail").cloned().unwrap_or(Value::Null),
        ),
    ]))
}

/// How a metric moved between two results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// Either side's segments spread wider than the bound: the side does not
    /// repeat well enough for its median to be judged at this resolution.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One `(workload, metric)` row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// The old value: the base of the ratio.
    pub old: f64,
    /// The new value.
    pub new: f64,
    /// The verdict under the metric's bound.
    pub verdict: Verdict,
}

/// The segments of `metric` on `workload` from every file of a side, in
/// file order; `None` when a file lacks the workload or the metric.
fn segments_of(side: &[Value], workload: &str, metric: &str) -> Option<Vec<f64>> {
    let mut segments = Vec::new();
    for file in side {
        let listed = file
            .get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?
            .get("segments")?
            .as_arr()?;
        segments.extend(listed.iter().filter_map(Value::as_f64));
    }
    Some(segments)
}

/// Judges one metric from each side's segment values. A side's value is the
/// median of its segments. `unresolved` when either side's run-to-run
/// spread — the distance between the quartiles of its segments over their
/// median, which for three segments is their whole range — exceeds the
/// bound, otherwise by how far the new value is from the old, as a share of
/// the old.
///
/// The spread is taken over segments and not over passes: passes of one
/// segment share its weather and spread 0.1–0.3 on every workload, while
/// the question is whether the side's median repeats.
pub fn judge(better: Better, bound: f64, old: &[f64], new: &[f64]) -> (f64, f64, Verdict) {
    let value = |segments: &[f64]| stats::median(segments).unwrap_or(0.0);
    let spread = |segments: &[f64]| stats::iqr_share(segments).unwrap_or(0.0);
    let (old_value, new_value) = (value(old), value(new));
    let worsening = match better {
        Better::Higher => (old_value - new_value) / old_value.abs(),
        Better::Lower => (new_value - old_value) / old_value.abs(),
    };
    let verdict = if spread(old) > bound || spread(new) > bound {
        Verdict::Unresolved
    } else if old_value == 0.0 {
        Verdict::Same
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (old_value, new_value, verdict)
}

/// Compares two sides, each one suite result or several of one commit.
/// Returns the rows and whether the new side regressed: any `worse` row, or
/// a higher share of failed passes.
///
/// Two suites taken at different times differ by the box's weather as well
/// as by the code. Given several files a side, taken alternately (old, new,
/// old, new …), both sides sample the same weather, and a stretch of it
/// shows as spread — `unresolved` — instead of as a difference.
pub fn compare(old: &[Value], new: &[Value]) -> Result<(Vec<Row>, bool), String> {
    let mut seeds = old
        .iter()
        .chain(new)
        .map(|file| file.get("context").and_then(|c| c.get("seed")));
    let first = seeds.next().flatten();
    if seeds.any(|seed| seed != first) {
        return Err("the results are of different seeds: their inputs differ".to_string());
    }
    let mut rows = Vec::new();
    let mut regressed = false;
    for workload in &WORKLOADS {
        let has = |side: &[Value]| {
            side.iter().all(|file| {
                file.get("workloads")
                    .and_then(|w| w.get(workload.name))
                    .is_some()
            })
        };
        if !has(old) || !has(new) {
            continue;
        }
        let passes = |side: &[Value], key: &str| -> f64 {
            side.iter()
                .filter_map(|file| file.get("workloads")?.get(workload.name))
                .map(|w| count(w, key))
                .sum()
        };
        let failed_share =
            |side: &[Value]| passes(side, "failed") / passes(side, "attempted").max(1.0);
        if failed_share(new) > failed_share(old) {
            regressed = true;
            eprintln!(
                "ledger: {}: failed passes rose from {}/{} to {}/{}",
                workload.name,
                passes(old, "failed"),
                passes(old, "attempted"),
                passes(new, "failed"),
                passes(new, "attempted")
            );
        }
        for m in &END_TO_END {
            let segments = |side: &[Value]| {
                segments_of(side, workload.name, m.name)
                    .filter(|segments| !segments.is_empty())
                    .ok_or_else(|| format!("{}: `{}` has no segments", workload.name, m.name))
            };
            let (old_value, new_value, verdict) = judge(
                m.better,
                m.suite_bound.expect("end-to-end metrics are bounded"),
                &segments(old)?,
                &segments(new)?,
            );
            regressed |= verdict == Verdict::Worse;
            rows.push(Row {
                workload: workload.name.to_string(),
                metric: m.name,
                old: old_value,
                new: new_value,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two sides share no workload".to_string());
    }
    Ok((rows, regressed))
}

/// Reads the result files of both sides, prints the comparison, and returns
/// whether the new side regressed.
pub fn compare_files(old: &[PathBuf], new: &[PathBuf]) -> Result<bool, String> {
    let read = |paths: &[PathBuf]| -> Result<Vec<Value>, String> {
        paths
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect()
    };
    let (rows, regressed) = compare(&read(old)?, &read(new)?)?;
    println!(
        "{:<16} {:<20} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "old (base)", "new", "new/old"
    );
    for row in &rows {
        println!(
            "{:<16} {:<20} {:>16.6} {:>16.6} {:>8.4}  {}",
            row.workload,
            row.metric,
            row.old,
            row.new,
            row.new / row.old,
            row.verdict.word()
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, segments: &[f64]) -> Value {
        Value::obj([
            ("value", Value::Num(value)),
            ("unit", Value::Str("x".into())),
            (
                "segments",
                Value::Arr(segments.iter().map(|v| Value::Num(*v)).collect()),
            ),
        ])
    }

    fn result(segments: &[f64], failed: f64) -> Value {
        let metrics = END_TO_END.iter().map(|m| {
            if m.name == "pkts_per_s" {
                (m.name, metric(stats::median(segments).unwrap(), segments))
            } else {
                (m.name, metric(1.0, &[1.0, 1.0, 1.0]))
            }
        });
        Value::obj([(
            "workloads",
            Value::obj([(
                "pcap_lean",
                Value::obj([
                    ("attempted", Value::Num(100.0)),
                    ("failed", Value::Num(failed)),
                    ("metrics", Value::obj(metrics)),
                ]),
            )]),
        )])
    }

    /// One file a side.
    fn compare_two(old: &Value, new: &Value) -> Result<(Vec<Row>, bool), String> {
        compare(std::slice::from_ref(old), std::slice::from_ref(new))
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect("row")
            .verdict
    }

    #[test]
    fn the_same_result_twice_is_all_same_and_no_regression() {
        let base = result(&[3.9e6, 4.0e6, 4.1e6], 0.0);
        // A result file survives the writer and the reader unchanged.
        let reread = json::parse(&base.render()).unwrap();
        let (rows, regressed) = compare_two(&base, &reread).unwrap();
        assert!(!regressed);
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same));
    }

    #[test]
    fn throughput_lower_by_a_fifth_is_worse_and_regresses() {
        let old = result(&[3.9e6, 4.0e6, 4.1e6], 0.0);
        let new = result(&[3.12e6, 3.2e6, 3.28e6], 0.0);
        let (rows, regressed) = compare_two(&old, &new).unwrap();
        assert!(regressed);
        assert_eq!(verdict_of(&rows, "pkts_per_s"), Verdict::Worse);
        assert_eq!(verdict_of(&rows, "cpu_s_per_mpkt"), Verdict::Same);
        // The other way round it is an improvement, not a regression.
        let (rows, regressed) = compare_two(&new, &old).unwrap();
        assert!(!regressed);
        assert_eq!(verdict_of(&rows, "pkts_per_s"), Verdict::Better);
        // A loss inside the bound is neither.
        let near = result(&[3.6e6, 3.7e6, 3.8e6], 0.0);
        let (rows, regressed) = compare_two(&old, &near).unwrap();
        assert!(!regressed);
        assert_eq!(verdict_of(&rows, "pkts_per_s"), Verdict::Same);
    }

    #[test]
    fn segments_spread_wider_than_the_bound_are_unresolved_not_worse() {
        let old = result(&[3.9e6, 4.0e6, 4.1e6], 0.0);
        let noisy = result(&[2.9e6, 3.2e6, 3.4e6], 0.0);
        let (rows, regressed) = compare_two(&old, &noisy).unwrap();
        assert_eq!(verdict_of(&rows, "pkts_per_s"), Verdict::Unresolved);
        assert!(!regressed);
    }

    #[test]
    fn more_failed_passes_regress_even_when_every_metric_holds() {
        let old = result(&[4.0e6, 4.0e6, 4.0e6], 0.0);
        let new = result(&[4.0e6, 4.0e6, 4.0e6], 2.0);
        let (rows, regressed) = compare_two(&old, &new).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same));
        assert!(regressed);
    }

    #[test]
    fn results_without_a_common_workload_are_an_error() {
        let old = result(&[1.0], 0.0);
        let empty = Value::obj([("workloads", Value::Obj(vec![]))]);
        assert!(compare_two(&old, &empty).is_err());
    }

    #[test]
    fn alternated_files_turn_a_stretch_of_weather_into_spread() {
        // Two suites of the same code, the second taken in a slow stretch:
        // one file a side calls it a regression.
        let (calm, slow) = ([4.0e6, 4.1e6, 3.9e6], [3.4e6, 3.5e6, 3.3e6]);
        let (rows, regressed) = compare(&[result(&calm, 0.0)], &[result(&slow, 0.0)]).unwrap();
        assert_eq!(verdict_of(&rows, "pkts_per_s"), Verdict::Worse);
        assert!(regressed);
        // Taken alternately, each side holds a calm and a slow suite, and
        // the stretch shows as spread on both.
        let side = || [result(&calm, 0.0), result(&slow, 0.0)];
        let (rows, regressed) = compare(&side(), &side()).unwrap();
        assert_eq!(verdict_of(&rows, "pkts_per_s"), Verdict::Unresolved);
        assert!(!regressed);
        // A loss that is in the code is on every file of the new side.
        let fifth = |segments: [f64; 3]| result(&segments.map(|s| s * 0.8), 0.0);
        let calm_pair = || [result(&calm, 0.0), result(&calm, 0.0)];
        let (rows, regressed) = compare(&calm_pair(), &[fifth(calm), fifth(calm)]).unwrap();
        assert_eq!(verdict_of(&rows, "pkts_per_s"), Verdict::Worse);
        assert!(regressed);
    }

    #[test]
    fn results_of_different_seeds_are_not_compared() {
        let seeded = |seed: f64| {
            let mut file = result(&[1.0, 1.0, 1.0], 0.0);
            if let Value::Obj(fields) = &mut file {
                let context = Value::obj([("seed", Value::Num(seed))]);
                fields.push(("context".into(), context));
            }
            file
        };
        assert!(compare(&[seeded(1.0)], &[seeded(1.0)]).is_ok());
        assert!(compare(&[seeded(1.0)], &[seeded(2.0)]).is_err());
        assert!(compare(&[seeded(1.0), seeded(2.0)], &[seeded(1.0)]).is_err());
    }

    #[test]
    fn pooling_takes_the_median_segment_and_keeps_every_segment_and_pass() {
        let segment = |value: f64, failed: f64| {
            let metrics = END_TO_END.iter().map(|m| {
                let mut entry = metric(value, &[]);
                if let Value::Obj(fields) = &mut entry {
                    fields.push((
                        "passes".into(),
                        Value::Arr(vec![Value::Num(value - 1.0), Value::Num(value + 1.0)]),
                    ));
                }
                (m.name, entry)
            });
            Value::obj([
                (
                    "context",
                    Value::obj([
                        ("degraded", Value::Str("threads>host_cpus".into())),
                        ("bench.host_slowdown", Value::Num(value / 20.0)),
                    ]),
                ),
                ("attempted", Value::Num(10.0)),
                ("failed", Value::Num(failed)),
                ("metrics", Value::obj(metrics)),
            ])
        };
        let traced = Value::obj([
            ("attempted", Value::Num(4.0)),
            ("failed", Value::Num(1.0)),
            ("metrics", Value::obj([("bench.passes", metric(2.0, &[]))])),
            ("detail", Value::Obj(vec![])),
        ]);
        let pooled = pool(
            &[segment(30.0, 0.0), segment(10.0, 2.0), segment(20.0, 0.0)],
            &traced,
        )
        .unwrap();
        assert_eq!(count(&pooled, "attempted"), 34.0);
        assert_eq!(count(&pooled, "failed"), 3.0);
        assert_eq!(
            pooled.get("degraded"),
            Some(&Value::Str("threads>host_cpus".into()))
        );
        assert_eq!(
            pooled.get("host_slowdown"),
            Some(&Value::Arr([1.5, 0.5, 1.0].map(Value::Num).to_vec()))
        );
        assert!(pooled
            .get("per_layer")
            .and_then(|layers| layers.get("bench.passes"))
            .is_some());
        for m in &END_TO_END {
            let entry = pooled
                .get("metrics")
                .and_then(|all| all.get(m.name))
                .unwrap();
            assert_eq!(entry.get("value").and_then(Value::as_f64), Some(20.0));
            let segments = entry.get("segments").and_then(Value::as_arr).unwrap();
            assert_eq!(segments.len(), 3);
            assert_eq!(
                entry.get("passes").and_then(Value::as_arr).unwrap().len(),
                6
            );
        }
        // A segment without one of the metrics cannot be pooled.
        assert!(pool(&[Value::obj([("metrics", Value::Obj(vec![]))])], &traced).is_err());
    }
}
