//! Drive-path conformance: the source/sink pipeline against the collect
//! path, for a sampled scenario × sampler × top-k slice of the golden
//! matrix.
//!
//! `scenario_conformance.rs` pins every cell of the full matrix through the
//! one-record / batched / sharded / oracle / whole-batch-drive legs. This suite
//! adds the leg those cells cannot cover: `Monitor::drive` over a **streamed
//! workload source** (`Workload::stream`, windowed synthesis, no
//! materialised trace) with a streaming digest sink, re-chunked down to
//! single-packet chunks — pinned bit-identical to one whole batch of the
//! materialised trace, and the resulting reference digests pinned against
//! the very same committed golden file, so the streamed path can never
//! drift from the values every other path is held to.

use flowrank_monitor::{SamplerSpec, TopKSpec};
use flowrank_net::{FlowDefinition, Timestamp};
use flowrank_sim::{run_streamed_conformance, ConformanceConfig};
use flowrank_trace::Workload;

/// Same seeds as `scenario_conformance.rs`, so digests line up with the
/// committed golden file.
const TRACE_SEED: u64 = 0x5EED_2026;
const LANE_SEED: u64 = 0xACE5_0001;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/goldens/scenario_conformance.txt"
);

/// Looks one cell's digest up in the committed golden file.
fn golden_digest(label: &str) -> u64 {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    let line = golden
        .lines()
        .find(|line| line.starts_with(label) && line[label.len()..].starts_with(' '))
        .unwrap_or_else(|| panic!("{label}: no such golden cell"));
    u64::from_str_radix(line.rsplit(' ').next().expect("digest column"), 16)
        .expect("parseable digest")
}

/// The sampled slice: the tie-heavy scenario (rank-churn), the mixed
/// composition, and a flood — across positional, RNG-heavy and
/// backend-carrying configurations.
fn slice() -> Vec<(
    Workload,
    usize,
    FlowDefinition,
    SamplerSpec,
    Option<TopKSpec>,
)> {
    vec![
        // rank-churn (catalog index 4): equal-timestamp packets exercise the
        // streamed ordering contract hardest.
        (
            Workload::rank_churn(),
            4,
            FlowDefinition::FiveTuple,
            SamplerSpec::Random { rate: 0.1 },
            Some(TopKSpec::SpaceSaving { capacity: 24 }),
        ),
        (
            Workload::rank_churn(),
            4,
            FlowDefinition::PREFIX24,
            SamplerSpec::Stratified { rate: 0.1 },
            None,
        ),
        // ddos-flood (index 2): key churn, sample-and-hold's extra RNG.
        (
            Workload::ddos_flood(),
            2,
            FlowDefinition::FiveTuple,
            SamplerSpec::Flow { rate: 0.3 },
            Some(TopKSpec::SampleAndHold {
                entry_probability: 0.05,
                capacity: 24,
            }),
        ),
        // mixed (index 5): every traffic component at once.
        (
            Workload::mixed(),
            5,
            FlowDefinition::FiveTuple,
            SamplerSpec::Smart { threshold: 25.0 },
            Some(TopKSpec::Multistage {
                stages: 2,
                counters_per_stage: 128,
                threshold: 8,
                memory_capacity: 24,
            }),
        ),
    ]
}

#[test]
fn streamed_drive_slice_matches_the_committed_goldens() {
    for (workload, catalog_index, definition, sampler, topk) in slice() {
        let label = match definition {
            FlowDefinition::FiveTuple => format!(
                "{}/5tuple/{}/{}",
                workload.name(),
                sampler.name(),
                topk.map_or("none".to_string(), |t| t.name().to_string())
            ),
            _ => format!("{}/prefix24/{}/none", workload.name(), sampler.name()),
        };
        let config = ConformanceConfig {
            flow_definition: definition,
            sampler,
            topk,
            bin_length: Timestamp::from_secs_f64(60.0),
            top_t: 10,
            seed: LANE_SEED,
            threads: 2,
        };
        let trace_seed = TRACE_SEED ^ ((catalog_index as u64) << 32);
        let digest = run_streamed_conformance(&label, &workload, trace_seed, &config);
        assert_eq!(
            digest,
            golden_digest(&label),
            "{label}: streamed reference digest diverged from the committed golden"
        );
    }
}
