//! The full conformance matrix: every catalog scenario × every sampler ×
//! every top-k backend, each cell driven through every execution path
//! (one-record `push_batch_into` calls, whole and chunked batches, `drive`,
//! `try_drive`, sharded `threads(n)`, the independent `run_bin` oracle) with bit-identical reports — plus a
//! committed golden digest per cell, so a refactor that silently changes
//! *results* (not just paths disagreeing with each other) fails loudly.
//!
//! Golden digests live in `tests/goldens/scenario_conformance.txt`.
//! Regenerate them with `scripts/regen_goldens.sh` after an intentional
//! behaviour change (e.g. a new RNG stream); the script refuses to run on a
//! dirty tree so regenerations are always reviewable commits. Setting
//! `REGEN_GOLDENS=1` by hand rewrites the file directly.

use std::fmt::Write as _;

use flowrank_monitor::{SamplerSpec, TopKSpec};
use flowrank_net::{FlowDefinition, Timestamp};
use flowrank_sim::{run_conformance, ConformanceConfig};
use flowrank_trace::Workload;

/// Trace seed per scenario (index into the catalog is mixed in so scenarios
/// never share a synthesis stream).
const TRACE_SEED: u64 = 0x5EED_2026;
/// Lane seed for every cell.
const LANE_SEED: u64 = 0xACE5_0001;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/goldens/scenario_conformance.txt"
);

/// The six sampling disciplines, at fixed mid-range parameters.
fn samplers() -> Vec<SamplerSpec> {
    vec![
        SamplerSpec::Random { rate: 0.1 },
        SamplerSpec::Periodic {
            rate: 0.1,
            random_phase: true,
        },
        SamplerSpec::Stratified { rate: 0.1 },
        SamplerSpec::Flow { rate: 0.3 },
        SamplerSpec::Smart { threshold: 25.0 },
        SamplerSpec::Adaptive {
            initial_rate: 0.2,
            budget_per_interval: 400,
            interval: Timestamp::from_secs_f64(5.0),
        },
    ]
}

/// The five top-k backends, sized so eviction and filtering actually happen.
fn topk_backends() -> Vec<TopKSpec> {
    vec![
        TopKSpec::Exact,
        TopKSpec::SortedList { capacity: 24 },
        TopKSpec::SpaceSaving { capacity: 24 },
        TopKSpec::SampleAndHold {
            entry_probability: 0.05,
            capacity: 24,
        },
        TopKSpec::Multistage {
            stages: 2,
            counters_per_stage: 128,
            threshold: 8,
            memory_capacity: 24,
        },
    ]
}

/// Computes the digest lines of the whole matrix, in a fixed order.
fn compute_matrix() -> Vec<String> {
    let mut lines = Vec::new();
    for (index, workload) in Workload::catalog().into_iter().enumerate() {
        let packets = workload.synthesize(TRACE_SEED ^ ((index as u64) << 32));
        assert!(
            packets.len() > 3_000,
            "{}: conformance trace too small ({} packets)",
            workload.name(),
            packets.len()
        );

        // Full matrix under the 5-tuple definition: 6 samplers × 5 backends.
        for sampler in samplers() {
            for topk in topk_backends() {
                let label = format!(
                    "{}/5tuple/{}/{}",
                    workload.name(),
                    sampler.name(),
                    topk.name()
                );
                let config = ConformanceConfig {
                    flow_definition: FlowDefinition::FiveTuple,
                    sampler,
                    topk: Some(topk),
                    bin_length: Timestamp::from_secs_f64(60.0),
                    top_t: 10,
                    seed: LANE_SEED,
                    threads: 2,
                };
                let digest = run_conformance(&label, &packets, &config);
                lines.push(format!("{label} {digest:016x}"));
            }
        }

        // Prefix sub-matrix: every sampler under /24 aggregation (the top-k
        // backends are 5-tuple-keyed and orthogonal to the definition, so
        // one backendless pass per sampler pins the prefix path).
        for sampler in samplers() {
            let label = format!("{}/prefix24/{}/none", workload.name(), sampler.name());
            let config = ConformanceConfig {
                flow_definition: FlowDefinition::PREFIX24,
                sampler,
                topk: None,
                bin_length: Timestamp::from_secs_f64(60.0),
                top_t: 10,
                seed: LANE_SEED,
                threads: 2,
            };
            let digest = run_conformance(&label, &packets, &config);
            lines.push(format!("{label} {digest:016x}"));
        }
    }
    lines
}

#[test]
fn conformance_matrix_matches_golden_digests() {
    let lines = compute_matrix();
    let scenario_count = Workload::catalog().len();
    assert_eq!(
        lines.len(),
        scenario_count * (6 * 5 + 6),
        "matrix must cover scenarios × (samplers × backends + prefix pass)"
    );

    let mut rendered = String::from(
        "# Golden conformance digests: scenario/definition/sampler/topk -> \
         FNV-1a of the BinReport stream.\n\
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
            "golden digest mismatch — a refactor changed observable results; \
             if intentional, regenerate with scripts/regen_goldens.sh"
        );
    }
}
