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
use flowrank_tests::push_whole;
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
        let baseline = push_whole(&mut build(1), &batch);
        assert!(baseline.len() >= 3, "trace must span several bins");
        for threads in [2, 4, 7] {
            let sharded = push_whole(&mut build(threads), &batch);
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
        let whole_reports = push_whole(&mut build(1), &batch);
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
            let sharded = push_whole(&mut build(threads), &batch);
            assert_eq!(
                sharded, baseline,
                "{definition}, {threads} threads: sharded whole batch"
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
    // each bin spans several of the 4096-packet buffers a threaded monitor
    // forks. Flow ids restart from 0 at every seal; every lane of every
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
    let reports = push_whole(&mut monitor, &PacketBatch::from_records(&packets));
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

/// What one keyed lane of a budgeted monitor goes through in a bin, by the
/// definition a budget had before lanes counted by flow id: a truth table
/// and a lane table, each evicted to `cap` on reaching its high-water mark,
/// the lane keeping every `period`-th packet of the bin, and the lane's
/// sizes scored against the truth's survivors by key.
#[derive(Debug)]
struct KeyedLane {
    cases: KeyedCases,
    outcome: flowrank_monitor::ComparisonOutcome,
    sampled_flows: usize,
    sampled_packets: u64,
}

/// How often each case of a flow the truth evicted came up.
#[derive(Debug, Default)]
struct KeyedCases {
    /// The lane kept a packet of a flow the truth had evicted and taken
    /// back, while the lane still held the flow's old count.
    kept_again: usize,
    /// At the seal the truth holds such a flow again, and the lane kept
    /// none of its new packets.
    returned_unkept: usize,
    /// The lane's own cap evicted while it held a flow the truth had
    /// evicted.
    own_evictions_with_orphans: usize,
}

fn keyed_lane(bin: &[PacketRecord], cap: usize, period: usize, top_t: usize) -> KeyedLane {
    use flowrank_core::metrics::{GroundTruthRanking, SizedFlow};
    use flowrank_net::{AnyFlowKey, FlowTable};
    use std::collections::HashSet;
    let high_water = cap + (cap / 2).max(1);
    let (mut truth, mut lane) = (FlowTable::<AnyFlowKey>::new(), FlowTable::new());
    // Keys the lane holds that the truth evicted after the lane counted them.
    let mut orphans = HashSet::new();
    let mut cases = KeyedCases::default();
    for (position, packet) in bin.iter().enumerate() {
        let key = FlowDefinition::FiveTuple.key_of(packet);
        truth.observe_keyed(key, packet);
        if truth.flow_count() >= high_water {
            truth.evict_to_budget(cap);
            for (held, _) in lane.iter() {
                if truth.get(&held).is_none() {
                    orphans.insert(held);
                }
            }
        }
        if position % period != 0 {
            continue;
        }
        lane.observe_keyed(key, packet);
        if truth.get(&key).is_some() && orphans.remove(&key) {
            cases.kept_again += 1;
        }
        if lane.flow_count() >= high_water {
            cases.own_evictions_with_orphans += usize::from(!orphans.is_empty());
            lane.evict_to_budget(cap);
            orphans.retain(|held| lane.get(held).is_some());
        }
    }
    cases.returned_unkept = orphans.iter().filter(|k| truth.get(k).is_some()).count();
    let flows = truth
        .iter_sizes()
        .map(|(key, packets)| SizedFlow { key, packets });
    let ranking = GroundTruthRanking::new(flows.collect(), top_t);
    KeyedLane {
        cases,
        outcome: ranking.compare_with(|key| lane.size_of(key)),
        sampled_flows: lane.flow_count(),
        sampled_packets: lane.total_packets(),
    }
}

#[test]
fn budgeted_lanes_keep_the_counts_of_flows_the_truth_evicted() {
    // Two bins of 10 and 9 flows that come and go all bin long, each flow
    // sending once more in the bin's last second, against a cap of 4
    // (evict down to 4 on reaching 6), seen by four periodic lanes that
    // keep every 1st, 2nd, 3rd and 4th packet. The truth keeps evicting
    // flows the lanes still count, and those flows come back: a lane's
    // count must follow such a flow to its new place in the truth, whether
    // the lane keeps its new packets or not, and must stay in the running
    // when the lane's own cap picks victims. The keyed model above names
    // the three cases; each must occur, and every lane must score what the
    // model scores. Fed one packet at a time and as one batch, the reports
    // are also pinned, with every bin's eviction count.
    let mut rng = Pcg64::seed_from_u64(34);
    let mut packets = Vec::new();
    for (bin, flows) in [(0u8, 10u16), (1, 9)] {
        let start = f64::from(bin) * BIN_SECONDS;
        for flow in 0..flows {
            for _ in 0..1 + rng.next_below(u64::from(18 / (flow % 6 + 1))) {
                let at = start + rng.next_f64() * 59.0;
                let length = 64 + rng.next_below(1400) as u16;
                packets.push(flow_packet(4 + bin, flow, at, length));
            }
            let at = start + 59.0 + 0.05 * f64::from(flow);
            packets.push(flow_packet(4 + bin, flow, at, 1500 - flow));
        }
    }
    packets.sort_by_key(|p| p.timestamp);
    let (cap, top_t, periods) = (4, 3, [1usize, 2, 3, 4]);
    let rates: Vec<f64> = periods.iter().map(|&p| 1.0 / p as f64).collect();
    let build = || {
        Monitor::builder()
            .sampler(SamplerSpec::Periodic {
                rate: 1.0,
                random_phase: false,
            })
            .rates(&rates)
            .bin_length(Timestamp::from_secs_f64(BIN_SECONDS))
            .top_t(top_t)
            .flow_budget(cap)
            .build()
    };
    let whole = push_whole(&mut build(), &PacketBatch::from_records(&packets));
    assert_eq!(push_each(&mut build(), &packets), whole);

    let bins = split_into_bins(&packets, Timestamp::from_secs_f64(BIN_SECONDS));
    assert_eq!(whole.len(), bins.len());
    let mut seen = KeyedCases::default();
    for (report, bin) in whole.iter().zip(&bins) {
        for (lane, &period) in report.lanes.iter().zip(&periods) {
            let keyed = keyed_lane(bin, cap, period, top_t);
            let at = format!("bin {}, period {period}", report.bin_index);
            assert_eq!(lane.outcome, keyed.outcome, "{at}");
            assert_eq!(lane.sampled_flows, keyed.sampled_flows, "{at}");
            assert_eq!(lane.sampled_packets, keyed.sampled_packets, "{at}");
            seen.kept_again += keyed.cases.kept_again;
            seen.returned_unkept += keyed.cases.returned_unkept;
            seen.own_evictions_with_orphans += keyed.cases.own_evictions_with_orphans;
        }
    }
    assert!(seen.kept_again > 0, "{seen:?}");
    assert!(seen.returned_unkept > 0, "{seen:?}");
    assert!(seen.own_evictions_with_orphans > 0, "{seen:?}");

    // Per bin: its index, its evictions and, per lane, ranking swaps,
    // detection swaps, missed top flows, ranking pairs, detection pairs,
    // sampled flows and sampled packets.
    let pinned: Vec<(u64, u64, Vec<[u64; 7]>)> = whole
        .iter()
        .map(|report| {
            let lanes = report.lanes.iter().map(|lane| {
                let o = lane.outcome;
                [
                    o.ranking_swaps,
                    o.detection_swaps,
                    o.missed_top_flows,
                    o.ranking_pairs,
                    o.detection_pairs,
                    lane.sampled_flows as u64,
                    lane.sampled_packets,
                ]
            });
            (report.bin_index, report.evictions, lanes.collect())
        })
        .collect();
    let expected = vec![
        (
            0,
            58,
            vec![
                [0, 0, 0, 8, 6, 5, 48],
                [3, 2, 1, 8, 6, 4, 24],
                [2, 2, 1, 8, 6, 4, 16],
                [4, 3, 0, 8, 6, 5, 12],
            ],
        ),
        (
            1,
            50,
            vec![
                [0, 0, 0, 6, 3, 4, 46],
                [3, 2, 0, 6, 3, 5, 23],
                [2, 1, 0, 6, 3, 5, 16],
                [2, 2, 1, 6, 3, 5, 12],
            ],
        ),
    ];
    assert_eq!(pinned, expected);
}
