//! Behavioural pins for the fork-join lane shards behind
//! `MonitorBuilder::threads(n > 1)`: the calling thread coalesces whatever it
//! is pushed into full segment buffers, every way of cutting the stream is
//! bit-identical to `threads(1)`, and the helpers join cleanly from every
//! state a drop can find them in.
//!
//! (The 216-cell golden matrix in `scenario_conformance.rs` pins the
//! runtime's *reports*; this file pins its *mechanics* — how many buffers
//! are forked to the helpers, and that the helpers always shut down.)

use flowrank_monitor::{
    BatchSource, BinReport, Chunked, Collect, ControllerSpec, DigestSink, Monitor, MonitorBuilder,
    ReportSink, SamplerSpec, TopKSpec,
};
use flowrank_net::{PacketBatch, PacketRecord, Timestamp};
use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};
use flowrank_tests::push_whole;
use flowrank_trace::Workload;

const SEED: u64 = 0x5EED_2026;

/// Packets per forked segment buffer (`runtime::DISPATCH_CHUNK_PACKETS`).
const BUFFER_PACKETS: usize = 4096;

/// Three bins of several segment buffers each, so buffers fill inside bins
/// as well as being cut short by seals.
fn trace() -> Vec<PacketRecord> {
    Workload::flash_crowd().scaled(5.0).synthesize(SEED)
}

fn builder(threads: usize) -> MonitorBuilder {
    Monitor::builder()
        .sampler(SamplerSpec::Random { rate: 0.1 })
        .rates(&[0.01, 0.1, 0.5])
        .runs(4)
        .topk(TopKSpec::SpaceSaving { capacity: 16 })
        .bin_length(Timestamp::from_secs_f64(60.0))
        .seed(SEED)
        .threads(threads)
}

/// The streaming digest of `packets` pushed in pieces of the given sizes
/// (cycled; the last piece is whatever is left), then finished.
fn digest_of_cuts(mut monitor: Monitor, packets: &[PacketRecord], cuts: &[usize]) -> u64 {
    let mut sink = DigestSink::new();
    let mut start = 0;
    for &cut in cuts.iter().cycle() {
        if start == packets.len() {
            break;
        }
        let end = packets.len().min(start + cut);
        monitor.push_batch_into(&PacketBatch::from_records(&packets[start..end]), &mut sink);
        start = end;
    }
    monitor.finish_into(&mut sink);
    sink.digest()
}

#[test]
fn per_packet_pushes_on_a_threaded_monitor_coalesce_into_full_buffers() {
    // One-packet pushes must not cost one fork each: the calling thread
    // appends them to the buffer it is filling and forks it full, or short
    // at most once a bin, when the seal needs the bin's last packets. So the
    // buffers shipped are bounded by the packet count and the bin count, not
    // by the number of pushes — and the reports stay bit-identical to
    // `threads(1)`.
    let packets = trace();
    let batch = PacketBatch::from_records(&packets);
    let mut serial = builder(1).build();
    let baseline = push_whole(&mut serial, &batch);
    assert_eq!(
        serial.segment_stats(),
        (baseline.len() as u64, 0),
        "one whole-bin segment per populated bin, none shipped"
    );

    let mut threaded = builder(4).build();
    let mut reports = Collect::new();
    threaded.drive(&mut Chunked::new(BatchSource::new(&batch), 1), &mut reports);
    assert_eq!(reports.reports, baseline, "per-packet push on threads(4)");
    let (serial_segments, shipped) = threaded.segment_stats();
    assert_eq!(
        serial_segments, 0,
        "a threaded monitor offers no segment in place"
    );
    let bound = (packets.len() / BUFFER_PACKETS + baseline.len() + 1) as u64;
    assert!(
        (1..=bound).contains(&shipped),
        "{} one-packet pushes over {} bins shipped {shipped} buffers, bound {bound}",
        packets.len(),
        baseline.len()
    );
}

#[test]
fn threaded_drive_matches_serial_over_irregular_chunks() {
    // A seeded sweep of random cuts — 1 to 6000 packets, so pieces smaller
    // than, equal to and larger than a segment buffer, with runs of single
    // packets mixed in — on 2 and 4 threads, with and without the controller
    // (whose retune rides the owning helper's next message): the sink
    // must see the same bins in the same order with the same bytes as the
    // serial engine fed the whole trace at once.
    let packets = trace();
    let mut rng = Pcg64::seed_from_u64(SEED);
    for controlled in [false, true] {
        let build = |threads: usize| {
            let builder = builder(threads);
            if controlled {
                builder.controller(ControllerSpec::model_driven()).build()
            } else {
                builder.build()
            }
        };
        let baseline = digest_of_cuts(build(1), &packets, &[usize::MAX]);
        for threads in [2, 4] {
            for round in 0..4 {
                let mut cuts = Vec::new();
                for _ in 0..12 {
                    if rng.next_u64() % 4 == 0 {
                        // A run of per-packet pushes between the batches.
                        cuts.extend([1; 40]);
                    } else {
                        cuts.push(1 + (rng.next_u64() % 6000) as usize);
                    }
                }
                assert_eq!(
                    digest_of_cuts(build(threads), &packets, &cuts),
                    baseline,
                    "threads({threads}), controlled: {controlled}, round {round}, cuts {cuts:?}"
                );
            }
        }
    }
}

#[test]
fn idle_gaps_emit_empty_bins_on_a_threaded_monitor() {
    // The `threads(2)` twin of `monitor::tests::idle_gaps_emit_empty_bins`:
    // a jump over two bins seals them empty — no flows, and on every lane no
    // pairs and no missed top flow — exactly as the serial engine reports.
    let packets = trace();
    let (first, last) = (packets[0], *packets.last().unwrap());
    let jump = PacketRecord {
        timestamp: Timestamp::from_secs_f64(last.timestamp.as_secs_f64() + 180.0),
        ..first
    };
    let run = |threads: usize| {
        let mut monitor = builder(threads).build();
        let mut reports = Collect::new();
        monitor.push_batch_into(&PacketBatch::from_records(&packets), &mut reports);
        monitor.push_batch_into(&PacketBatch::from_records(&[jump]), &mut reports);
        monitor.finish_into(&mut reports);
        reports.reports
    };
    let reports = run(2);
    assert_eq!(reports, run(1));
    let gaps: Vec<&BinReport> = reports.iter().filter(|r| r.packets == 0).collect();
    assert_eq!(gaps.len(), 2, "the jump skips two whole bins");
    for gap in gaps {
        assert_eq!(gap.flows, 0);
        assert_eq!(gap.lanes.len(), 12);
        for lane in &gap.lanes {
            assert_eq!(lane.outcome.ranking_pairs, 0);
            assert_eq!(lane.outcome.detection_pairs, 0);
            assert_eq!(lane.outcome.missed_top_flows, 0);
        }
    }
}

/// A sink that panics at the first report, leaving the monitor mid-call.
struct PanickingSink;

impl ReportSink for PanickingSink {
    fn accept(&mut self, _: &BinReport) {
        panic!("injected sink panic");
    }
}

#[test]
fn dropping_a_threaded_monitor_mid_bin_joins_cleanly() {
    // Drop a threads(4) monitor — with and without the controller's retune
    // — in each state the coalescing caller can leave it in, and without
    // finish(): the drop must join every helper — no detached threads, no
    // deadlock. The test passes by returning at all; a shutdown hang would
    // trip the suite timeout.
    let packets = trace();
    let prefix = |length: usize| PacketBatch::from_records(&packets[..length]);
    for controlled in [false, true] {
        let build = |bin_length: Timestamp| {
            let builder = builder(4).bin_length(bin_length);
            if controlled {
                builder.controller(ControllerSpec::model_driven()).build()
            } else {
                builder.build()
            }
        };
        // Buffered, unshipped: less than one buffer of one unbounded bin.
        let mut monitor = build(Timestamp::ZERO);
        monitor.push_batch_into(&prefix(BUFFER_PACKETS / 2), &mut Collect::new());
        assert_eq!(monitor.segment_stats(), (0, 0), "nothing reached the pool");
        drop(monitor);
        // Shipped, unsealed: five full buffers forked, a remainder
        // buffered, the bin still open.
        let mut monitor = build(Timestamp::ZERO);
        monitor.push_batch_into(&prefix(BUFFER_PACKETS * 5 + 100), &mut Collect::new());
        assert_eq!(monitor.segment_stats(), (0, 5), "five full buffers");
        drop(monitor);
        // Sealed, undelivered: the sink panics on the first report of a
        // batch that closes several bins, so the monitor goes mid-call with
        // the rest of the batch unread.
        let mut monitor = build(Timestamp::from_secs_f64(60.0));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            monitor.push_batch_into(&prefix(packets.len()), &mut PanickingSink)
        }));
        assert!(unwound.is_err(), "the trace closes at least one bin");
        drop(monitor);
    }
    // And a pool that never saw a packet.
    drop(builder(4).build());
}

#[test]
fn controlled_threaded_monitor_drops_cleanly_and_stays_bit_identical() {
    // The controller path adds the control step after each seal and a
    // retune that rides the owning helper's next message; both must survive
    // shutdown mid-bin and keep reports identical to `threads(1)`.
    let packets = trace();
    let batch = PacketBatch::from_records(&packets);
    let build = |threads: usize| {
        builder(threads)
            .controller(ControllerSpec::model_driven())
            .build()
    };
    let baseline = push_whole(&mut build(1), &batch);
    assert!(baseline.iter().all(|report| report.controller.is_some()));
    assert!(
        baseline
            .windows(2)
            .any(|pair| pair[0].lanes.last().map(|lane| lane.rate)
                != pair[1].lanes.last().map(|lane| lane.rate)),
        "the controller retunes at least once, so a message carries a rate"
    );
    for threads in [2, 4, 5] {
        assert_eq!(
            push_whole(&mut build(threads), &batch),
            baseline,
            "{threads}"
        );
    }
    let mut dropped = build(4);
    let head = PacketBatch::from_records(&packets[..500.min(packets.len())]);
    dropped.push_batch_into(&head, &mut Collect::new());
    drop(dropped);
}
