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
use flowrank_stats::rng::{derive_seeds, Pcg64, Rng, SeedableRng};
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

/// One packet of flow `flow` (in address block `block`) at `secs`.
fn flow_packet(block: u8, flow: u16, secs: f64, length: u16) -> PacketRecord {
    let [hi, lo] = flow.to_be_bytes();
    PacketRecord::tcp(
        Timestamp::from_secs_f64(secs),
        std::net::Ipv4Addr::new(10, block, hi, lo),
        1000 + flow,
        std::net::Ipv4Addr::new(192, 168, 0, 1),
        80,
        length,
        0,
    )
}

/// `flows` flows in `block` inside the bin starting at `start` seconds:
/// flow `i` opens at `start + 0.15 i` and sends `1 + 2000 / (i + 1)` packets
/// spread over the rest of the bin, so new flows keep arriving until the
/// bin is three quarters over.
fn bin_of_flows(block: u8, flows: u16, start: f64, rng: &mut Pcg64) -> Vec<PacketRecord> {
    let mut packets = Vec::new();
    for flow in 0..flows {
        let open = start + 0.15 * f64::from(flow);
        for _ in 0..1 + 2000 / (usize::from(flow) + 1) {
            let at = open + rng.next_f64() * (start + 59.0 - open);
            packets.push(flow_packet(block, flow, at, 64 + flow % 1400));
        }
    }
    packets.sort_by_key(|p| p.timestamp);
    packets
}

#[test]
fn id_lanes_restart_every_bin() {
    // Three bins through one monitor: bin 2 holds fewer flows than bin 1,
    // and bin 3 reuses bin 1's keys. Pushed 97 packets at a time, so flows
    // first appear in a later push than a lane's first kept packet, and
    // each bin spans several of the pipelined runtime's 4096-packet
    // buffers. Flow ids restart from 0 at every seal; every lane of every
    // bin must still score exactly what `run_bin` does.
    let mut rng = Pcg64::seed_from_u64(30);
    let mut packets = bin_of_flows(1, 300, 0.0, &mut rng);
    packets.extend(bin_of_flows(2, 40, BIN_SECONDS, &mut rng));
    packets.extend(bin_of_flows(1, 300, 2.0 * BIN_SECONDS, &mut rng));
    let bins = split_into_bins(&packets, Timestamp::from_secs_f64(BIN_SECONDS));
    assert_eq!(bins.len(), 3);
    assert!(bins[0].len() > 2 * 4096 && bins[1].len() < bins[0].len());

    let rates = [0.02, 0.5];
    let runs = 3;
    let master = 3030u64;
    for threads in [1, 2] {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.01 })
            .rates(&rates)
            .runs(runs)
            .bin_length(Timestamp::from_secs_f64(BIN_SECONDS))
            .top_t(TOP_T)
            .seed(master)
            .threads(threads)
            .build();
        let mut sink = Collect::new();
        for piece in packets.chunks(97) {
            monitor.push_batch_into(&PacketBatch::from_records(piece), &mut sink);
        }
        monitor.finish_into(&mut sink);
        assert_eq!(sink.reports.len(), bins.len(), "threads({threads})");

        for (bin_index, report) in sink.reports.iter().enumerate() {
            for &rate in &rates {
                let seeds = derive_seeds(master ^ rate.to_bits(), runs);
                for (run, lane) in report.lanes_at_rate(rate).enumerate() {
                    let expected = run_bin_random_sampling(
                        &bins[bin_index],
                        FlowDefinition::FiveTuple,
                        rate,
                        TOP_T,
                        seeds[run],
                    );
                    let at = format!("threads({threads}), bin {bin_index}, rate {rate}, run {run}");
                    assert_eq!(report.flows, expected.original_flows, "{at}");
                    assert_eq!(lane.outcome, expected.outcome, "{at}");
                    assert_eq!(lane.sampled_flows, expected.sampled_flows, "{at}");
                }
            }
        }
    }
}

#[test]
fn budgeted_lane_skips_keys_the_truth_evicted() {
    // Ten one-packet flows against a cap of 4 (evict down to 4 on reaching
    // 6): the truth evicts the six coldest by bytes, flows 2-7, and keeps
    // 0, 1, 8 and 9. The rate-0.5 lane keeps five flows, under its own
    // high-water mark, so it evicts nothing and holds at least one key the
    // truth no longer does. Scoring resolves that key, finds no flow id
    // and skips it — exactly as `run_bin`, whose truth never dropped the
    // flow, scores it: every flow has the same true size, so no pair
    // involves it, and the top 2 by key are flows 0 and 1 either way. The
    // lane missed both, so a kept key resolved onto either would show.
    let packets: Vec<PacketRecord> = (0..10u16)
        .map(|flow| {
            let length = match flow {
                0 => 1500,
                1 => 1400,
                _ => 100 + 10 * flow,
            };
            flow_packet(3, flow, f64::from(flow), length)
        })
        .collect();
    let (rate, top_t, seed) = (0.5, 2, 35);
    let mut monitor = Monitor::builder()
        .sampler(SamplerSpec::Random { rate })
        .bin_length(Timestamp::from_secs_f64(BIN_SECONDS))
        .top_t(top_t)
        .seed(seed)
        .flow_budget(4)
        .build();
    let reports = monitor.run_batch(&PacketBatch::from_records(&packets));
    assert_eq!(reports.len(), 1);
    let (report, lane) = (&reports[0], &reports[0].lanes[0]);
    assert_eq!(report.flows, 4, "the truth kept flows 0, 1, 8 and 9");
    assert_eq!(report.evictions, 6, "only the truth evicted");
    assert!(
        lane.sampled_flows > report.flows,
        "the lane holds a key the truth evicted ({} flows)",
        lane.sampled_flows
    );
    assert_eq!(lane.outcome.missed_top_flows, 2);

    let expected = run_bin_random_sampling(&packets, FlowDefinition::FiveTuple, rate, top_t, seed);
    assert_eq!(expected.original_flows, 10);
    assert_eq!(lane.outcome, expected.outcome);
    assert_eq!(lane.sampled_flows, expected.sampled_flows);
}
