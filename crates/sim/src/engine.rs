//! One sampling run over one measurement bin — the independent per-packet
//! oracle the streaming [`flowrank_monitor::Monitor`] is checked against.
//!
//! `run_bin` is a second implementation of a bin, not a wrapper over the
//! monitor: its own two flow tables, one `keep` call per packet, no
//! `Monitor`, no batches, no lanes. The only code it shares with the monitor
//! is the ranked truth, [`GroundTruthRanking`] — and it scores against it
//! with the dense definition (`compare_with`), where the monitor runs the
//! sparse kernel (`compare_sparse`). [`crate::conformance`] runs every
//! scenario × sampler × top-k cell through it and requires the monitor's
//! reports to be bit-identical, which compares the two kernels cell by cell;
//! `streaming_equivalence` does the same for plain random sampling through
//! [`run_bin_random_sampling`].
//! Experiments drive a `Monitor`: it classifies the ground truth once per
//! bin however many runs and rates ride on it, while `run_bin` pays the full
//! classification on every call.

use flowrank_core::metrics::{ComparisonOutcome, GroundTruthRanking, SizedFlow};
use flowrank_net::{AnyFlowKey, FlowDefinition, FlowTable, PacketRecord};
use flowrank_sampling::{PacketSampler, RandomSampler};
use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};

/// Outcome of one sampling run over one bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinResult {
    /// Number of flows in the bin before sampling.
    pub original_flows: usize,
    /// Number of flows that survived sampling.
    pub sampled_flows: usize,
    /// Swapped-pair counts for the ranking and detection metrics.
    pub outcome: ComparisonOutcome,
}

/// Runs one sampling run over one bin of packets.
///
/// * `flow_definition` — 5-tuple or /24 prefix classification.
/// * `sampler` — any packet sampler; the paper uses [`RandomSampler`].
/// * `top_t` — number of top flows the monitor reports.
///
/// A `Monitor` with a single lane produces the identical
/// [`ComparisonOutcome`] for the same seed.
pub(crate) fn run_bin<S: PacketSampler + ?Sized>(
    packets: &[PacketRecord],
    flow_definition: FlowDefinition,
    sampler: &mut S,
    top_t: usize,
    rng: &mut dyn Rng,
) -> BinResult {
    sampler.reset();
    // One batch call processes one bin, so the per-bin reuse the streaming
    // monitor gets from `clear()` does not apply here; pre-size the tables
    // instead so classification never rehashes mid-bin. Real bins hold a
    // few flows per dozen packets; the sampled table sees a fraction of
    // them.
    let mut original: FlowTable<AnyFlowKey> = FlowTable::with_capacity(packets.len() / 8);
    let mut sampled: FlowTable<AnyFlowKey> = FlowTable::with_capacity(packets.len() / 32);
    for packet in packets {
        let key = flow_definition.key_of(packet);
        original.observe_keyed(key, packet);
        if sampler.keep(packet, rng) {
            sampled.observe_keyed(key, packet);
        }
    }

    let truth = GroundTruthRanking::new(
        original
            .iter_sizes()
            .map(|(key, packets)| SizedFlow { key, packets })
            .collect(),
        top_t,
    );
    // The dense definition on purpose: the monitor scores with the sparse
    // kernel, and the conformance matrix is the differential test of the two.
    let outcome = truth.compare_with(|key| sampled.size_of(key));
    BinResult {
        original_flows: original.flow_count(),
        sampled_flows: sampled.flow_count(),
        outcome,
    }
}

/// One random-sampling run of `run_bin` at rate `p` with a fresh RNG derived
/// from `seed` — the form the `streaming_equivalence` suite compares the
/// monitor against.
pub fn run_bin_random_sampling(
    packets: &[PacketRecord],
    flow_definition: FlowDefinition,
    rate: f64,
    top_t: usize,
    seed: u64,
) -> BinResult {
    let mut sampler = RandomSampler::new(rate);
    let mut rng = Pcg64::seed_from_u64(seed);
    run_bin(packets, flow_definition, &mut sampler, top_t, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_net::Timestamp;
    use std::net::Ipv4Addr;

    /// A bin with `flows` flows where flow `i` has `10 * (flows - i)` packets.
    fn skewed_bin(flows: u8) -> Vec<PacketRecord> {
        let mut packets = Vec::new();
        for i in 0..flows {
            let count = 10 * (flows - i) as usize;
            for j in 0..count {
                packets.push(PacketRecord::tcp(
                    Timestamp::from_secs_f64(j as f64 * 0.01),
                    Ipv4Addr::new(10, 0, 0, i),
                    1000 + i as u16,
                    Ipv4Addr::new(100, 64, i, 1),
                    80,
                    500,
                    (j * 500) as u32,
                ));
            }
        }
        packets
    }

    #[test]
    fn full_sampling_has_zero_error() {
        let packets = skewed_bin(20);
        let result = run_bin_random_sampling(&packets, FlowDefinition::FiveTuple, 1.0, 10, 1);
        assert_eq!(result.original_flows, 20);
        assert_eq!(result.sampled_flows, 20);
        assert_eq!(result.outcome.ranking_swaps, 0);
        assert_eq!(result.outcome.detection_swaps, 0);
    }

    #[test]
    fn tiny_sampling_rate_produces_errors() {
        let packets = skewed_bin(30);
        let result = run_bin_random_sampling(&packets, FlowDefinition::FiveTuple, 0.005, 10, 2);
        assert!(result.sampled_flows < result.original_flows);
        assert!(
            result.outcome.ranking_swaps > 0,
            "0.5% sampling of small flows must produce ranking errors"
        );
    }

    #[test]
    fn higher_rates_give_fewer_errors_on_average() {
        let packets = skewed_bin(40);
        let average = |rate: f64| -> f64 {
            (0..10)
                .map(|seed| {
                    run_bin_random_sampling(&packets, FlowDefinition::FiveTuple, rate, 10, seed)
                        .outcome
                        .ranking_swaps as f64
                })
                .sum::<f64>()
                / 10.0
        };
        let low = average(0.01);
        let high = average(0.5);
        assert!(
            high < low,
            "high-rate error {high} must be below low-rate {low}"
        );
    }

    #[test]
    fn prefix_definition_aggregates_flows() {
        let packets = skewed_bin(20);
        let five = run_bin_random_sampling(&packets, FlowDefinition::FiveTuple, 1.0, 5, 3);
        let prefix = run_bin_random_sampling(&packets, FlowDefinition::PREFIX24, 1.0, 5, 3);
        // Each test flow uses its own /24, except they are constructed with
        // distinct third octets, so counts coincide here; what matters is the
        // code path works and produces a valid result for both definitions.
        assert_eq!(five.original_flows, 20);
        assert!(prefix.original_flows <= 20);
    }

    #[test]
    fn deterministic_per_seed() {
        let packets = skewed_bin(25);
        let a = run_bin_random_sampling(&packets, FlowDefinition::FiveTuple, 0.1, 10, 7);
        let b = run_bin_random_sampling(&packets, FlowDefinition::FiveTuple, 0.1, 10, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn boxed_sampler_runs_through_the_same_entry_point() {
        // The trait is object safe: a runtime-selected sampler drives the
        // oracle unchanged.
        let packets = skewed_bin(15);
        let mut boxed: Box<dyn PacketSampler> = Box::new(RandomSampler::new(1.0));
        let mut rng = Pcg64::seed_from_u64(1);
        let result = run_bin(
            &packets,
            FlowDefinition::FiveTuple,
            &mut *boxed,
            5,
            &mut rng,
        );
        assert_eq!(result.outcome.ranking_swaps, 0);
    }

    #[test]
    fn empty_bin() {
        let result = run_bin_random_sampling(&[], FlowDefinition::FiveTuple, 0.1, 10, 1);
        assert_eq!(result.original_flows, 0);
        assert_eq!(result.outcome.ranking_swaps, 0);
    }
}
