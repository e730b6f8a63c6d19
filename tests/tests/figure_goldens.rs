//! Trace-driven figure goldens: the per-bin mean ± std series behind
//! Figs. 12–16, exactly as `reproduce` prints them, pinned by one committed
//! FNV-1a digest per figure shape.
//!
//! Ten cells at `scale 0.005, runs 3`: the five figure shapes (Sprint-like
//! trace under the 5-tuple and /24 definitions × 60 s and 300 s bins, and
//! the Abilene-like trace) under random sampling, plus the other five
//! `reproduce --sampler` disciplines on the 5-tuple / 60 s shape. A cell's
//! digest folds `result_to_csv` of the ranking view followed by the
//! detection view, so every printed digit of Figs. 12–16 is covered. Each
//! cell runs at `threads` 1 and 2 (4 too on the first) and the legs must
//! digest equal — the thread count may only change wall-clock.
//!
//! The CSV rounds to six decimals, so the digests are as stable across
//! optimisation levels as the printed figures are; CI runs this suite in
//! debug and `--release`.
//!
//! Golden digests live in `tests/goldens/figures_trace.txt`. Regenerate
//! with `scripts/regen_goldens.sh` after an intentional behaviour change;
//! `REGEN_GOLDENS=1` rewrites the file directly.

use std::fmt::Write as _;

use flowrank_net::{FlowDefinition, Timestamp};
use flowrank_sim::report::result_to_csv;
use flowrank_sim::{
    abilene_experiment, sprint_experiment_with_sampler, SamplerSpec, TraceExperiment,
};
use flowrank_trace::SynthesisStream;

const SCALE: f64 = 0.005;
const RUNS: usize = 3;
/// The seeds `reproduce` builds the Sprint and Abilene figures with.
const SPRINT_SEED: u64 = 2026;
const ABILENE_SEED: u64 = 16;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens/figures_trace.txt");

/// The `reproduce --sampler` templates (the rate is retargeted to every
/// rate of the figure's grid).
fn samplers() -> [SamplerSpec; 6] {
    [
        SamplerSpec::Random { rate: 0.01 },
        SamplerSpec::Periodic {
            rate: 0.01,
            random_phase: true,
        },
        SamplerSpec::Stratified { rate: 0.01 },
        SamplerSpec::Flow { rate: 0.01 },
        SamplerSpec::Smart { threshold: 100.0 },
        SamplerSpec::Adaptive {
            initial_rate: 0.01,
            budget_per_interval: 10_000,
            interval: Timestamp::from_secs_f64(1.0),
        },
    ]
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Runs one cell (a fresh `experiment()` per leg) at every thread count of
/// `threads`, asserts the legs agree and returns the golden line.
fn cell(
    label: &str,
    experiment: impl Fn() -> TraceExperiment<SynthesisStream>,
    bin_seconds: f64,
    threads: &[usize],
) -> String {
    let mut pinned: Option<(u64, usize)> = None;
    for &count in threads {
        let result = experiment().with_threads(count).run();
        let rendered = format!(
            "{}\n{}",
            result_to_csv(&result, bin_seconds, false),
            result_to_csv(&result, bin_seconds, true)
        );
        let leg = (fnv1a(&rendered), result.bin_count);
        assert_eq!(
            *pinned.get_or_insert(leg),
            leg,
            "{label}: threads({count}) moved the figure"
        );
    }
    let (digest, bins) = pinned.expect("at least one thread count");
    format!("{label} {digest:016x} bins={bins}")
}

fn compute_cells() -> Vec<String> {
    let mut lines = Vec::new();
    let random = samplers()[0];
    for (figures, name, definition) in [
        ("fig12+14", "5tuple", FlowDefinition::FiveTuple),
        ("fig13+15", "prefix24", FlowDefinition::PREFIX24),
    ] {
        for bin_seconds in [60.0, 300.0] {
            let label = format!("{figures}/sprint/{name}/{bin_seconds}s/random");
            let threads: &[usize] = if lines.is_empty() {
                &[1, 2, 4]
            } else {
                &[1, 2]
            };
            let experiment = || {
                sprint_experiment_with_sampler(
                    definition,
                    bin_seconds,
                    SCALE,
                    RUNS,
                    SPRINT_SEED,
                    random,
                )
            };
            lines.push(cell(&label, experiment, bin_seconds, threads));
        }
    }
    lines.push(cell(
        "fig16/abilene/5tuple/60s/random",
        || abilene_experiment(SCALE, RUNS, ABILENE_SEED),
        60.0,
        &[1, 2],
    ));
    for sampler in &samplers()[1..] {
        let label = format!("fig12+14/sprint/5tuple/60s/{}", sampler.name());
        let experiment = || {
            sprint_experiment_with_sampler(
                FlowDefinition::FiveTuple,
                60.0,
                SCALE,
                RUNS,
                SPRINT_SEED,
                *sampler,
            )
        };
        lines.push(cell(&label, experiment, 60.0, &[1, 2]));
    }
    lines
}

#[test]
fn trace_figures_match_golden_digests() {
    let lines = compute_cells();
    assert_eq!(lines.len(), 10, "five figure shapes + five more samplers");

    let mut rendered = String::from(
        "# Golden trace-driven figures (Figs. 12-16): shape -> FNV-1a of the\n\
         # ranking CSV followed by the detection CSV at scale 0.005, 3 runs.\n\
         # Regenerate with scripts/regen_goldens.sh (refuses dirty trees).\n",
    );
    for line in &lines {
        writeln!(rendered, "{line}").unwrap();
    }

    if std::env::var_os("REGEN_GOLDENS").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        eprintln!("regenerated {} ({} cells)", GOLDEN_PATH, lines.len());
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run scripts/regen_goldens.sh");
    let golden_lines: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert_eq!(
        golden_lines.len(),
        lines.len(),
        "golden cell count diverged — run scripts/regen_goldens.sh if intentional"
    );
    for (computed, pinned) in lines.iter().zip(&golden_lines) {
        assert_eq!(
            computed, pinned,
            "figure golden mismatch — a change moved a printed digit of \
             Figs. 12-16; if intentional, regenerate with scripts/regen_goldens.sh"
        );
    }
}
