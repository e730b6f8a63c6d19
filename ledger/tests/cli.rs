//! End-to-end checks of the `ledger` binary: `BENCHMARK.json` and the
//! catalogue say the same thing, every workload runs in `--smoke` mode and
//! prints every contracted metric exactly once with its unit, the span file
//! of a traced run is a forest, and `compare` exits as documented.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use flowrank_ledger::catalog::{MetricInfo, END_TO_END, PER_LAYER, WORKLOADS};
use flowrank_ledger::json::{self, Value};
use flowrank_ledger::run::Paths;
use flowrank_ledger::spans;

fn ledger(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .output()
        .expect("the ledger binary starts")
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn text<'v>(value: &'v Value, key: &str) -> &'v str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is not a string in {value:?}"))
}

fn keys(value: &Value) -> Vec<&str> {
    value
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_and_the_catalogue_agree() {
    let bench = benchmark_json();
    assert_eq!(
        keys(&bench),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths = bench.get("paths").and_then(Value::as_arr).unwrap();
    assert_eq!(paths, [Value::Str("ledger".into())]);
    let command: Vec<&str> = bench
        .get("command")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(command.contains(&"ledger/Cargo.toml"), "{command:?}");
    assert!(command
        .iter()
        .all(|part| !part.starts_with('/') && !part.contains("..")));
    let seconds = bench.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = bench.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, known) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(listed), ["name", "why"]);
        assert_eq!(text(listed, "name"), known.name);
        assert_eq!(text(listed, "why"), known.why);
    }

    let check = |section: &str, known: &[MetricInfo], bounded: bool| {
        let listed = bench.get(section).and_then(Value::as_arr).unwrap();
        assert_eq!(listed.len(), known.len(), "{section}");
        for (listed, known) in listed.iter().zip(known) {
            assert_eq!(text(listed, "name"), known.name);
            assert_eq!(text(listed, "unit"), known.unit, "{}", known.name);
            assert_eq!(
                text(listed, "better"),
                known.better.word(),
                "{}",
                known.name
            );
            if bounded {
                assert_eq!(keys(listed), ["name", "unit", "better", "bound"]);
                assert_eq!(
                    listed.get("bound").and_then(Value::as_f64),
                    known.bound,
                    "{}",
                    known.name
                );
            } else {
                assert_eq!(keys(listed), ["name", "unit", "better"]);
            }
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);
}

/// `metric NAME VALUE UNIT …` lines of a run, by name; panics on a repeat.
fn metric_lines(stdout: &str) -> HashMap<String, (f64, String)> {
    let mut metrics = HashMap::new();
    for line in stdout.lines() {
        let mut words = line.split(' ');
        if words.next() != Some("metric") {
            continue;
        }
        let name = words.next().expect("a name").to_string();
        let value: f64 = words.next().expect("a value").parse().expect("a number");
        let unit = words.next().expect("a unit").to_string();
        assert!(
            metrics.insert(name.clone(), (value, unit)).is_none(),
            "{name} is printed twice"
        );
    }
    metrics
}

/// Checks one run's output against the metrics it must print, and returns
/// the contract line.
fn check_run(workload: &str, trace: bool, expected: &[MetricInfo]) -> (Value, String) {
    let trace_flag = if trace { "1" } else { "0" };
    let output = ledger(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--smoke",
        "--trace",
        trace_flag,
    ]);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace {trace_flag} failed: {}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    let printed = metric_lines(&stdout);
    assert_eq!(
        printed.len(),
        expected.len(),
        "{workload} trace {trace_flag}:\n{stdout}"
    );
    for metric in expected {
        let (value, unit) = printed
            .get(metric.name)
            .unwrap_or_else(|| panic!("{workload}: `{}` is not printed", metric.name));
        assert_eq!(unit, metric.unit, "{}", metric.name);
        assert!(value.is_finite(), "{}: {value}", metric.name);
    }
    assert!(stdout.contains("passes attempted="), "{stdout}");

    let last = stdout.lines().last().expect("a last line");
    let line = json::parse(last).expect("the last line is one JSON object");
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let metrics = line.get("metrics").unwrap();
    assert_eq!(
        keys(metrics),
        expected.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for metric in expected {
        let entry = metrics.get(metric.name).unwrap();
        assert_eq!(keys(entry), ["value", "unit"]);
        assert_eq!(text(entry, "unit"), metric.unit);
        assert_eq!(
            entry.get("value").and_then(Value::as_f64),
            Some(printed[metric.name].0)
        );
    }
    (line, stdout)
}

fn check_spans(stdout: &str, workload: &str) {
    let path = stdout
        .lines()
        .find_map(|line| line.strip_prefix("spans "))
        .unwrap_or_else(|| panic!("{workload}: no span file announced"));
    let recorded =
        spans::parse_ndjson(&std::fs::read_to_string(path).expect("span file is readable"))
            .expect("span file parses");
    assert!(!recorded.is_empty());
    spans::check_forest(&recorded).unwrap_or_else(|e| panic!("{workload}: {e}"));
    // With every child inside its parent, a span's self time — its length
    // less the union of its children — is never negative.
    for (span, self_ns) in recorded.iter().zip(spans::self_times(&recorded)) {
        assert!(self_ns <= span.end_ns - span.start_ns, "{}", span.name);
    }
    let names: Vec<&str> = recorded.iter().map(|s| s.name.as_ref()).collect();
    let real_call = match workload {
        "fleet_1k" => "fleet.drive",
        "serve_ndjson" => "serve.child",
        _ => "monitor.drive",
    };
    for needed in [
        "pass",
        real_call,
        "replica",
        "replica.classify",
        "replica.rank",
    ] {
        assert!(names.contains(&needed), "{workload}: no `{needed}` span");
    }
    // Every pass is a root whose children are the real call and the replica.
    for pass in recorded.iter().filter(|s| s.name == "pass") {
        assert_eq!(pass.parent, 0);
        let children: Vec<&str> = recorded
            .iter()
            .filter(|s| s.parent == pass.id)
            .map(|s| s.name.as_ref())
            .collect();
        assert_eq!(children, [real_call, "replica"], "{workload}");
    }
}

#[test]
fn every_workload_smokes_measured_and_traced() {
    for workload in &WORKLOADS {
        if workload.name == "serve_ndjson" && !Paths::resolve().serve_binary().is_file() {
            // Not passed: skipped. The daemon is built by the benchmark
            // command and by `cargo build --release`, not by this test.
            eprintln!("skipped: serve_ndjson (no release flowrank-serve binary)");
            continue;
        }
        let (line, _) = check_run(workload.name, false, &END_TO_END);
        let packets = line
            .get("metrics")
            .and_then(|m| m.get("pkts_per_s"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap();
        assert!(packets > 0.0, "{}", workload.name);
        let (_, stdout) = check_run(workload.name, true, &PER_LAYER);
        check_spans(&stdout, workload.name);
    }
}

#[test]
fn list_prints_every_workload_and_metric() {
    let output = ledger(&["--list"]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(stdout.contains(name), "--list omits {name}");
    }
}

#[test]
fn bad_invocations_exit_2_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1", "--smoke"][..],
        &["--seed", "1"],
        &["--workload", "pcap_lean", "--seed", "minus one"],
        &["--frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let output = ledger(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&output.stdout).contains("\"correct\""));
    }
}

fn suite_file(name: &str, pkts_per_s: f64) -> PathBuf {
    let metric = |value: f64| {
        Value::obj([
            ("value", Value::Num(value)),
            ("unit", Value::Str("x".into())),
            (
                "segments",
                Value::Arr(
                    [0.98, 1.0, 1.03]
                        .iter()
                        .map(|f| Value::Num(value * f))
                        .collect(),
                ),
            ),
        ])
    };
    let metrics = END_TO_END.iter().map(|m| {
        (
            m.name,
            metric(if m.name == "pkts_per_s" {
                pkts_per_s
            } else {
                2.0
            }),
        )
    });
    let result = Value::obj([(
        "workloads",
        Value::obj([(
            "sec8_fanout",
            Value::obj([
                ("attempted", Value::Num(50.0)),
                ("failed", Value::Num(0.0)),
                ("metrics", Value::obj(metrics)),
            ]),
        )]),
    )]);
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, result.render()).expect("result file is writable");
    path
}

#[test]
fn compare_exits_0_on_equal_results_and_1_on_throughput_lowered_by_a_fifth() {
    let base = suite_file("compare-base.json", 400_000.0);
    let same = suite_file("compare-same.json", 372_000.0);
    let slow = suite_file("compare-slow.json", 320_000.0);
    let (base, same, slow) = (
        base.to_str().unwrap(),
        same.to_str().unwrap(),
        slow.to_str().unwrap(),
    );

    let output = ledger(&["compare", base, same]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        stdout.contains("pkts_per_s") && stdout.contains("same"),
        "{stdout}"
    );
    assert!(!stdout.contains("worse"), "{stdout}");

    let output = ledger(&["compare", base, slow]);
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8(output.stdout).unwrap();
    let row = stdout.lines().find(|l| l.contains("pkts_per_s")).unwrap();
    assert!(row.ends_with("worse") && row.contains("0.8000"), "{row}");

    assert_eq!(
        ledger(&["compare", base, "/nonexistent.json"])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn a_smoke_suite_pools_every_workload_into_a_file_compare_reads() {
    if !Paths::resolve().serve_binary().is_file() {
        eprintln!("skipped: suite (no release flowrank-serve binary)");
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("suite-smoke.json");
    let out = out.to_str().unwrap();
    let output = ledger(&["suite", "--seed", "7", "--smoke", "--out", out]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = json::parse(&std::fs::read_to_string(out).unwrap()).unwrap();
    let context = result.get("context").unwrap();
    assert_eq!(context.get("seed"), Some(&Value::Num(7.0)));
    assert_eq!(context.get("rounds"), Some(&Value::Num(3.0)));
    assert_eq!(
        keys(result.get("workloads").unwrap()),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for workload in &WORKLOADS {
        let side = result.get("workloads").unwrap().get(workload.name).unwrap();
        // Three measured segments and a traced round of two real passes
        // and a replica check, one pass each in smoke mode.
        assert_eq!(side.get("attempted"), Some(&Value::Num(5.0)));
        assert_eq!(side.get("failed"), Some(&Value::Num(0.0)));
        let metrics = side.get("metrics").unwrap();
        assert_eq!(
            keys(metrics),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for m in &END_TO_END {
            let segments = metrics.get(m.name).unwrap().get("segments");
            assert_eq!(segments.and_then(Value::as_arr).unwrap().len(), 3);
        }
        assert_eq!(
            keys(side.get("per_layer").unwrap()),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
    }
    // One-pass segments of a debug build are too noisy to judge, but the
    // file must compare against itself without a regression.
    assert_eq!(ledger(&["compare", out, out]).status.code(), Some(0));
}

/// The keys of `[profile.release]` in a manifest, comments and blank lines
/// dropped, sorted.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest is readable");
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|line| line.trim() != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .map(|line| line.split('#').next().unwrap_or("").trim().to_string())
        .filter(|line| !line.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn the_release_profile_is_the_repositorys() {
    // The package is outside the repository's workspace, so nothing but
    // this test keeps its copy of the profile from drifting.
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ours = release_profile(&here.join("Cargo.toml"));
    assert!(!ours.is_empty());
    assert_eq!(ours, release_profile(&here.join("../Cargo.toml")));
    // Both lock files hold path packages only: there is no version to drift.
    for lock in [here.join("Cargo.lock"), here.join("../Cargo.lock")] {
        let text = std::fs::read_to_string(&lock).expect("lock file is readable");
        assert!(
            !text.contains("source ="),
            "{} pins a registry package",
            lock.display()
        );
    }
}
