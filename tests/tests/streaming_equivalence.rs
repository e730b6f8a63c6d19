//! Streaming/batch equivalence: the same trace and seed pushed one record
//! per `Monitor::push_batch_into` call and run through the independent
//! per-packet oracle (`flowrank_sim::engine::run_bin_random_sampling`: own
//! flow tables, one `keep` per packet, no `Monitor`) must produce
//! bit-identical `ComparisonOutcome`s, for both flow definitions.
//!
//! The streaming pipeline is not "approximately" the per-bin batch
//! computation, it *is* that computation, minus the redundant per-run
//! ground-truth reclassifications.
//!
//! Since the SoA `PacketBatch` redesign the contract has a third leg: the
//! monitor must produce bit-identical `BinReport`s for **any** way of
//! cutting the stream into batches, down to one record each (including the
//! sharded/threads configuration), because every sampler's per-packet and
//! batch paths share state.

use flowrank_monitor::{BinReport, Collect, Monitor, SamplerSpec};
use flowrank_net::{FlowDefinition, PacketBatch, PacketRecord, Timestamp};
use flowrank_sim::binning::split_into_bins;
use flowrank_sim::engine::run_bin_random_sampling;
use flowrank_stats::rng::derive_seeds;
use flowrank_trace::{synthesize_packets, SprintModel, SynthesisConfig};

fn trace(seed: u64) -> Vec<PacketRecord> {
    let flows = SprintModel::small(180.0, 40.0).generate_flows(seed);
    synthesize_packets(&flows, &SynthesisConfig::default(), seed)
}

const BIN_SECONDS: f64 = 60.0;
const TOP_T: usize = 10;

/// Pushes `packets` one record per call, then closes the final bin.
fn push_each(monitor: &mut Monitor, packets: &[PacketRecord]) -> Vec<BinReport> {
    let mut sink = Collect::new();
    for packet in packets {
        let one = PacketBatch::from_records(std::slice::from_ref(packet));
        monitor.push_batch_into(&one, &mut sink);
    }
    monitor.finish_into(&mut sink);
    sink.reports
}

/// Pushes the whole trace through one single-lane monitor and collects the
/// per-bin outcomes.
fn streaming_outcomes(
    packets: &[PacketRecord],
    definition: FlowDefinition,
    rate: f64,
    seed: u64,
) -> Vec<flowrank_monitor::ComparisonOutcome> {
    let mut monitor = Monitor::builder()
        .flow_definition(definition)
        .sampler(SamplerSpec::Random { rate })
        .bin_length(Timestamp::from_secs_f64(BIN_SECONDS))
        .top_t(TOP_T)
        .seed(seed)
        .build();
    push_each(&mut monitor, packets)
        .iter()
        .map(|report| {
            assert_eq!(report.lanes.len(), 1);
            report.lanes[0].outcome
        })
        .collect()
}

#[test]
fn push_matches_run_bin_for_both_flow_definitions() {
    let packets = trace(41);
    let bins = split_into_bins(&packets, Timestamp::from_secs_f64(BIN_SECONDS));
    assert!(bins.len() >= 3, "trace must span several bins");

    for definition in [FlowDefinition::FiveTuple, FlowDefinition::PREFIX24] {
        for (rate, seed) in [(0.01, 7u64), (0.1, 8), (0.5, 9)] {
            let streamed = streaming_outcomes(&packets, definition, rate, seed);
            assert_eq!(streamed.len(), bins.len(), "one report per bin");
            for (bin_index, bin) in bins.iter().enumerate() {
                let batch = run_bin_random_sampling(bin, definition, rate, TOP_T, seed);
                assert_eq!(
                    streamed[bin_index], batch.outcome,
                    "{definition}, rate {rate}, bin {bin_index}: streaming and \
                     batch outcomes must be bit-identical"
                );
            }
        }
    }
}

#[test]
fn fanned_out_lanes_match_independent_batch_runs() {
    // The multi-run fan-out derives per-(rate, run) seeds exactly like the
    // batch experiment; every lane of every bin must coincide with the
    // corresponding run_bin call.
    let packets = trace(42);
    let bins = split_into_bins(&packets, Timestamp::from_secs_f64(BIN_SECONDS));
    let rates = [0.02, 0.2];
    let runs = 4;
    let master = 4242u64;

    let mut monitor = Monitor::builder()
        .flow_definition(FlowDefinition::FiveTuple)
        .sampler(SamplerSpec::Random { rate: 0.01 })
        .rates(&rates)
        .runs(runs)
        .bin_length(Timestamp::from_secs_f64(BIN_SECONDS))
        .top_t(TOP_T)
        .seed(master)
        .build();
    let reports = push_each(&mut monitor, &packets);
    assert_eq!(reports.len(), bins.len());

    for (bin_index, report) in reports.iter().enumerate() {
        for &rate in &rates {
            let seeds = derive_seeds(master ^ rate.to_bits(), runs);
            let lanes: Vec<_> = report.lanes_at_rate(rate).collect();
            assert_eq!(lanes.len(), runs);
            for (run, lane) in lanes.iter().enumerate() {
                let batch = run_bin_random_sampling(
                    &bins[bin_index],
                    FlowDefinition::FiveTuple,
                    rate,
                    TOP_T,
                    seeds[run],
                );
                assert_eq!(lane.outcome, batch.outcome);
                assert_eq!(lane.sampled_flows, batch.sampled_flows);
                assert_eq!(lane.run, run);
            }
        }
    }
}

#[test]
fn sharded_monitor_is_bit_identical_to_single_thread() {
    // The compact-key refactor's parallel path: a monitor with worker
    // threads classifies each bin through a hash-sharded flow table and
    // scores lanes concurrently. Reports — outcomes, flow counts, lane
    // order, everything — must be bit-identical to the single-threaded
    // monitor (and therefore, via the tests above, to the per-packet
    // oracle) for both flow definitions and any thread count.
    let batch = PacketBatch::from_records(&trace(44));
    let rates = [0.02, 0.2];
    for definition in [FlowDefinition::FiveTuple, FlowDefinition::PREFIX24] {
        let build = |threads: usize| {
            Monitor::builder()
                .flow_definition(definition)
                .sampler(SamplerSpec::Random { rate: 0.01 })
                .rates(&rates)
                .runs(3)
                .bin_length(Timestamp::from_secs_f64(BIN_SECONDS))
                .top_t(TOP_T)
                .seed(4242)
                .threads(threads)
                .build()
        };
        let baseline = build(1).run_batch(&batch);
        assert!(baseline.len() >= 3, "trace must span several bins");
        for threads in [2, 4, 7] {
            let sharded = build(threads).run_batch(&batch);
            assert_eq!(
                sharded, baseline,
                "{definition}, {threads} threads: sharded reports must be \
                 bit-identical to single-threaded ones"
            );
        }
    }
}

#[test]
fn push_batch_is_bit_identical_to_push_for_any_batching() {
    // One monitor per ingestion shape, identical configuration; the trace
    // spans several bins so batch cuts land inside bins, on bin boundaries
    // and across idle gaps. Reports — outcomes, flow counts, lane order,
    // top-k entries, everything — must be bit-identical. Through
    // `push_matches_run_bin_for_both_flow_definitions` this transitively
    // pins the batch path to the `run_bin` oracle too.
    let packets = trace(45);
    let batch = PacketBatch::from_records(&packets);
    let rates = [0.02, 0.2];
    for definition in [FlowDefinition::FiveTuple, FlowDefinition::PREFIX24] {
        let build = |threads: usize| {
            Monitor::builder()
                .flow_definition(definition)
                .sampler(SamplerSpec::Random { rate: 0.01 })
                .rates(&rates)
                .runs(3)
                .topk(flowrank_monitor::TopKSpec::SpaceSaving { capacity: 16 })
                .bin_length(Timestamp::from_secs_f64(BIN_SECONDS))
                .top_t(TOP_T)
                .seed(4646)
                .threads(threads)
                .build()
        };

        // Reference: packet-by-packet push.
        let baseline = push_each(&mut build(1), &packets);
        assert!(baseline.len() >= 3, "trace must span several bins");

        // One batch covering the whole trace.
        let whole_reports = build(1).run_batch(&batch);
        assert_eq!(whole_reports, baseline, "{definition}: whole-trace batch");

        // Irregular batch cuts, including single-packet batches.
        let mut chunked = build(1);
        let mut chunked_reports = Collect::new();
        let mut start = 0usize;
        for piece in [1usize, 7, 501, 1, 4096, usize::MAX] {
            let end = packets.len().min(start.saturating_add(piece));
            let cut = PacketBatch::from_records(&packets[start..end]);
            chunked.push_batch_into(&cut, &mut chunked_reports);
            start = end;
            if start == packets.len() {
                break;
            }
        }
        chunked.finish_into(&mut chunked_reports);
        assert_eq!(
            chunked_reports.reports, baseline,
            "{definition}: chunked batches"
        );

        // The sharded/threads case: whole-bin segments fan out across
        // worker threads and shards.
        for threads in [2, 4] {
            let sharded = build(threads).run_batch(&batch);
            assert_eq!(
                sharded, baseline,
                "{definition}, {threads} threads: sharded run_batch"
            );
        }
    }
}

#[test]
fn streaming_equivalence_holds_with_idle_gaps() {
    // A trace with an idle middle bin: the monitor emits the empty bin's
    // report in passing, and both paths agree on every bin.
    let mut packets = trace(43);
    let shift = Timestamp::from_secs_f64(3.0 * BIN_SECONDS);
    let shifted: Vec<_> = packets
        .iter()
        .map(|p| {
            let mut q = *p;
            q.timestamp = Timestamp::from_micros(p.timestamp.as_micros() + shift.as_micros());
            q
        })
        .collect();
    packets.extend(shifted);
    packets.sort_by_key(|p| p.timestamp);

    let bins = split_into_bins(&packets, Timestamp::from_secs_f64(BIN_SECONDS));
    let streamed = streaming_outcomes(&packets, FlowDefinition::FiveTuple, 0.1, 5);
    assert_eq!(streamed.len(), bins.len());
    for (bin_index, bin) in bins.iter().enumerate() {
        let batch = run_bin_random_sampling(bin, FlowDefinition::FiveTuple, 0.1, TOP_T, 5);
        assert_eq!(streamed[bin_index], batch.outcome, "bin {bin_index}");
    }
}
