//! End-to-end CLI contract of the `reproduce` binary. The `--input` path: a
//! valid capture streams to exit code 0, while I/O and decode failures —
//! a missing file, garbage where the global header should be, a record
//! truncated mid-capture — exit with code 1 and a one-line diagnostic on
//! stderr instead of a panic with a backtrace. Numeric flags: a missing,
//! unparsable or out-of-range value exits with code 2 and a diagnostic
//! before anything is printed, instead of silently running the defaults.
//! And the analytical figures: everything `--fig 1` … `--fig 11` prints is
//! pinned as text in `tests/goldens/figures_model.txt`.

use flowrank_net::pcap::records_to_pcap_bytes;
use flowrank_net::{PacketRecord, Timestamp};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_reproduce");

fn capture_bytes(n: usize) -> Vec<u8> {
    let records: Vec<PacketRecord> = (0..n)
        .map(|i| {
            PacketRecord::tcp(
                Timestamp::from_secs_f64(i as f64 * 0.05),
                Ipv4Addr::new(10, 0, 0, (i % 200) as u8),
                1024 + (i % 100) as u16,
                Ipv4Addr::new(192, 168, 0, 1),
                80,
                500,
                i as u32 * 500,
            )
        })
        .collect();
    records_to_pcap_bytes(&records).unwrap()
}

/// Writes `bytes` to a per-process temp file so parallel test runs never
/// collide; callers remove it after the child exits.
fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("flowrank-reproduce-{}-{name}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn valid_capture_streams_to_exit_zero() {
    let path = temp_file("ok.pcap", &capture_bytes(400));
    let output = Command::new(BIN)
        .args(["--input", path.to_str().unwrap(), "--runs", "1"])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("rate,bins,lane_observations"),
        "rate curve missing from:\n{stdout}"
    );
}

#[test]
fn missing_input_path_exits_one_with_a_diagnostic() {
    let output = Command::new(BIN)
        .args(["--input", "/nonexistent/flowrank-no-such-file.pcap"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("reproduce: cannot read"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn garbage_global_header_exits_one_with_a_diagnostic() {
    let path = temp_file("garbage.pcap", &[0u8; 64]);
    let output = Command::new(BIN)
        .args(["--input", path.to_str().unwrap()])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("reproduce:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn truncated_capture_exits_one_with_a_diagnostic() {
    let bytes = capture_bytes(50);
    // Cut mid-payload inside the final record.
    let path = temp_file("cut.pcap", &bytes[..bytes.len() - 37]);
    let output = Command::new(BIN)
        .args(["--input", path.to_str().unwrap(), "--runs", "1"])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("drive aborted"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Runs `reproduce` with a bad numeric flag: exit code 2, the diagnostic on
/// stderr, and nothing at all on stdout.
fn assert_rejected(args: &[&str], diagnostic: &str) {
    let output = Command::new(BIN).args(args).output().unwrap();
    assert_eq!(output.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(diagnostic), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} still ran something");
}

#[test]
fn unparsable_or_out_of_range_fig_is_rejected() {
    let needs = "reproduce: --fig needs a figure number 1..=16, got";
    assert_rejected(&["--fig", "banana"], &format!("{needs} \"banana\""));
    assert_rejected(&["--fig", "17"], &format!("{needs} \"17\""));
}

#[test]
fn numeric_flag_without_a_value_is_rejected() {
    assert_rejected(
        &["--fig"],
        "reproduce: --fig needs a figure number 1..=16, got nothing",
    );
    assert_rejected(
        &["--fig", "1", "--scale"],
        "reproduce: --scale needs a number, got nothing",
    );
}

#[test]
fn unparsable_runs_is_rejected() {
    assert_rejected(
        &["--fig", "1", "--runs", "many"],
        "reproduce: --runs needs a run count, got \"many\"",
    );
    assert_rejected(
        &["--fig", "1", "--threads", "-1"],
        "reproduce: --threads needs a thread count, got \"-1\"",
    );
}

const MODEL_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/figures_model.txt"
);

/// The analytical half of the paper as printed values: the concatenated
/// stdout of `reproduce --fig 1` … `--fig 11`, compared byte for byte, so a
/// golden diff shows which number of which figure moved. Two children at a
/// time (the figures are single-threaded). `REGEN_GOLDENS=1` rewrites the
/// file; `scripts/regen_goldens.sh` does that on a clean tree.
#[test]
fn model_figures_match_golden_values() {
    let figures: Vec<String> = (1..=11).map(|n| n.to_string()).collect();
    let mut printed = String::new();
    for pair in figures.chunks(2) {
        let children: Vec<_> = pair
            .iter()
            .map(|n| {
                Command::new(BIN)
                    .args(["--fig", n])
                    .stdout(std::process::Stdio::piped())
                    .spawn()
                    .unwrap()
            })
            .collect();
        for (n, child) in pair.iter().zip(children) {
            let output = child.wait_with_output().unwrap();
            assert!(output.status.success(), "--fig {n}");
            printed.push_str(std::str::from_utf8(&output.stdout).unwrap());
        }
    }

    if std::env::var_os("REGEN_GOLDENS").is_some() {
        std::fs::write(MODEL_GOLDEN, &printed).expect("write golden file");
        eprintln!(
            "regenerated {MODEL_GOLDEN} ({} lines)",
            printed.lines().count()
        );
        return;
    }

    let golden = std::fs::read_to_string(MODEL_GOLDEN)
        .expect("golden file missing — run scripts/regen_goldens.sh");
    for (at, (computed, pinned)) in printed.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            computed,
            pinned,
            "figures_model.txt line {}: a change moved a printed value of \
             Figs. 1-11; if intentional, regenerate with scripts/regen_goldens.sh",
            at + 1
        );
    }
    assert_eq!(printed.len(), golden.len(), "golden length diverged");
}
