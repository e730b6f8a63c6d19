//! Chaos conformance: every injected fault class produces its documented
//! `DriveError`/`DriveStats` outcome, deterministically from the
//! fault-schedule seed — and no fault ever aborts the process.
//!
//! The harness is `flowrank_sim::faults`: a [`FaultySource`]/[`FaultySink`]
//! pair replaying seeded [`FaultPlan`] schedules over a real scenario
//! trace, driven through [`Monitor::try_drive`] under explicit
//! [`DrivePolicy`] choices. Fault-free transparency (try_drive ≡ drive,
//! bit for bit, against all committed goldens) is pinned separately by the
//! `run_conformance` legs in `scenario_conformance.rs`; this suite pins
//! the *faulted* behaviour.

use std::io::{self, Write};
use std::time::Duration;

use flowrank_monitor::{
    BatchSource, Chunked, Collect, DigestSink, DriveError, DrivePolicy, Monitor, NdjsonSink,
    SamplerSpec, TimestampPolicy,
};
use flowrank_net::{PacketBatch, Timestamp};
use flowrank_sim::faults::{FaultPlan, FaultySink, FaultySource, SinkFault, SourceFault};
use flowrank_trace::Workload;

/// Chunk size of every faulted drive: prime, lands inside bins and across
/// boundaries, gives the rank-churn trace a few dozen chunks to fault.
const CHUNK: usize = 463;

fn trace() -> PacketBatch {
    PacketBatch::from_records(&Workload::rank_churn().synthesize(0x000C_7A05))
}

/// Zero-wait resilient policy, so idle polls spend no wall clock.
/// `stall_timeout(ZERO)` keeps the stall detector in its poll-count
/// form: these schedules inject exact idle-poll counts, and the wall-time
/// gate (on by default since the detector started measuring real time)
/// would otherwise never trip inside a fast test.
fn resilient() -> DrivePolicy {
    DrivePolicy::resilient()
        .stall_timeout(Duration::ZERO)
        .idle_wait(Duration::ZERO)
}

fn monitor(threads: usize, policy: DrivePolicy) -> Monitor {
    Monitor::builder()
        .sampler(SamplerSpec::Random { rate: 0.1 })
        .bin_length(Timestamp::from_secs_f64(60.0))
        .top_t(10)
        .seed(0xC0F0_2026)
        .threads(threads)
        .drive_policy(policy)
        .build()
}

/// The fault-free reference digest for this suite's configuration.
fn reference_digest(threads: usize) -> u64 {
    let batch = trace();
    let mut sink = DigestSink::new();
    monitor(threads, DrivePolicy::strict()).drive(
        &mut Chunked::new(BatchSource::new(&batch), CHUNK),
        &mut sink,
    );
    sink.digest()
}

#[test]
fn skipped_malformed_records_keep_reports_bit_identical() {
    let batch = trace();
    for threads in [1, 2, 4] {
        let plan = FaultPlan::none()
            .at(1, SourceFault::MalformedRecord)
            .at(2, SourceFault::MalformedRecord)
            .at(9, SourceFault::MalformedRecord);
        let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
        let mut sink = DigestSink::new();
        let stats = monitor(threads, resilient())
            .try_drive(&mut source, &mut sink)
            .expect("resilient policy absorbs malformed records");
        assert_eq!(stats.malformed_skipped, 3);
        assert_eq!(stats.recoveries(), 3);
        assert_eq!(stats.packets, batch.len() as u64);
        // Injected faults consume no real packets, so the absorbed run is
        // bit-identical to the fault-free one.
        assert_eq!(
            sink.digest(),
            reference_digest(threads),
            "threads({threads}): skip-and-count must not perturb reports"
        );
    }
}

#[test]
fn strict_policy_aborts_on_the_first_malformed_record() {
    let batch = trace();
    let plan = FaultPlan::none().at(1, SourceFault::MalformedRecord);
    let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
    let error = monitor(1, DrivePolicy::strict())
        .try_drive(&mut source, &mut Collect::new())
        .expect_err("strict policy does not skip");
    match &error {
        DriveError::Source { error, stats } => {
            assert!(error.is_recoverable(), "the fault itself was recoverable");
            assert_eq!(stats.chunks, 1, "one clean chunk landed before the abort");
            assert_eq!(stats.malformed_skipped, 0);
        }
        other => panic!("expected DriveError::Source, got {other:?}"),
    }
}

#[test]
fn mid_stream_eof_completes_cleanly_with_fewer_packets() {
    let batch = trace();
    let plan = FaultPlan::none().at(3, SourceFault::MidStreamEof);
    let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
    let mut sink = Collect::new();
    let stats = monitor(1, resilient())
        .try_drive(&mut source, &mut sink)
        .expect("a truncated capture is a short capture, not an error");
    assert_eq!(stats.chunks, 3);
    assert_eq!(stats.packets, (3 * CHUNK) as u64);
    assert!(stats.packets < batch.len() as u64);
    assert!(source.injected().truncated);
    assert!(
        !sink.reports.is_empty(),
        "the final partial bin is still flushed"
    );
}

#[test]
fn fatal_read_failures_abort_under_any_policy() {
    let batch = trace();
    for policy in [DrivePolicy::strict(), resilient()] {
        let plan = FaultPlan::none().at(2, SourceFault::FatalRead);
        let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
        let error = monitor(1, policy)
            .try_drive(&mut source, &mut Collect::new())
            .expect_err("fatal source errors are never absorbed");
        match &error {
            DriveError::Source { error, stats } => {
                assert!(!error.is_recoverable());
                assert_eq!(stats.chunks, 2);
            }
            other => panic!("expected DriveError::Source, got {other:?}"),
        }
    }
}

#[test]
fn rechunking_a_faulty_source_keeps_its_faults() {
    let batch = trace();
    let plan = FaultPlan::none()
        .at(2, SourceFault::MalformedRecord)
        .at(5, SourceFault::FatalRead);
    let faulty = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
    let mut source = Chunked::new(faulty, 97);
    let error = monitor(1, resilient())
        .try_drive(&mut source, &mut Collect::new())
        .expect_err("the fatal read reaches the drive through the re-cut");
    match &error {
        DriveError::Source { error, stats } => {
            assert!(!error.is_recoverable());
            assert_eq!(
                stats.malformed_skipped, 1,
                "the malformed poll passes through too"
            );
        }
        other => panic!("expected DriveError::Source, got {other:?}"),
    }
}

#[test]
fn drive_waits_out_idle_polls_skips_malformed_records_and_ends_at_a_fatal_read() {
    let batch = trace();
    // Polls 0, 2, 4 and 5 are chunks; the strict policy shows that `drive`
    // keeps its own rule whatever `try_drive` would do.
    let plan = FaultPlan::none()
        .at(1, SourceFault::Stall)
        .at(3, SourceFault::MalformedRecord)
        .at(6, SourceFault::FatalRead);
    let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
    let mut sink = DigestSink::new();
    let summary = monitor(1, DrivePolicy::strict()).drive(&mut source, &mut sink);
    assert_eq!((summary.chunks, summary.packets), (4, 4 * CHUNK as u64));
    assert_eq!((summary.idle_polls, summary.malformed_skipped), (1, 1));

    let mut prefix = PacketBatch::new();
    prefix.extend_from_batch(&batch, 0..4 * CHUNK);
    let mut plain = DigestSink::new();
    let expected = monitor(1, DrivePolicy::strict()).drive(
        &mut Chunked::new(BatchSource::new(&prefix), CHUNK),
        &mut plain,
    );
    assert_eq!(summary.reports, expected.reports);
    assert_eq!(sink.digest(), plain.digest());
}

#[test]
fn permanent_sink_failures_abort_without_retrying() {
    let batch = trace();
    let mut source = FaultySource::new(
        Chunked::new(BatchSource::new(&batch), CHUNK),
        FaultPlan::none(),
    );
    let mut sink = FaultySink::new(Collect::new()).fail_at(1, SinkFault::Permanent);
    let error = monitor(1, resilient())
        .try_drive(&mut source, &mut sink)
        .expect_err("permanent sink failures are not retried");
    match &error {
        DriveError::Sink { stats, .. } => {
            assert_eq!(stats.reports, 1, "the first report had been delivered");
        }
        other => panic!("expected DriveError::Sink, got {other:?}"),
    }
}

/// Writer whose write number `fail_at` (0-based) fails once with
/// `TimedOut`; every other write goes to a `Vec`.
struct TimesOutOnce {
    writes: usize,
    fail_at: usize,
    out: Vec<u8>,
}

impl Write for TimesOutOnce {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        if self.writes == self.fail_at + 1 {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "injected"));
        }
        self.out.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_sink_failure_mid_report_aborts_instead_of_re_emitting_the_report() {
    // The writer fails inside the first report, after `{"bin":0` went out.
    // Re-emitting the report would write it whole after that fragment
    // (`{"bin":0{"bin":0,…`); the drive aborts instead, whatever the policy.
    let batch = trace();
    let mut writer = TimesOutOnce {
        writes: 0,
        fail_at: 2,
        out: Vec::new(),
    };
    let mut sink = NdjsonSink::new(&mut writer);
    let result = monitor(1, DrivePolicy::resilient()).try_drive(
        &mut Chunked::new(BatchSource::new(&batch), CHUNK),
        &mut sink,
    );
    let out = String::from_utf8(writer.out).unwrap();
    for line in out.lines() {
        assert!(
            line.matches("{\"bin\"").count() <= 1,
            "a report was written after its own fragment: {line}"
        );
    }
    match result {
        Err(DriveError::Sink { stats, .. }) => {
            assert_eq!(stats.reports, 0, "the first report failed");
            assert!(stats.packets > 0);
        }
        other => panic!("expected DriveError::Sink, got {other:?}"),
    }
}

#[test]
fn stall_detector_trips_on_consecutive_idle_polls() {
    let batch = trace();
    let mut plan = FaultPlan::none();
    for call in 2..10 {
        plan = plan.at(call, SourceFault::Stall);
    }
    let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
    let error = monitor(1, resilient().stall_polls(5))
        .try_drive(&mut source, &mut Collect::new())
        .expect_err("5 consecutive idle polls trip a 5-poll threshold");
    match &error {
        DriveError::SourceStalled {
            idle_polls,
            stalled_for,
            stats,
        } => {
            assert_eq!(*idle_polls, 5);
            assert_eq!(stats.idle_polls, 5);
            assert_eq!(stats.chunks, 2);
            assert!(*stalled_for >= Duration::ZERO);
        }
        other => panic!("expected DriveError::SourceStalled, got {other:?}"),
    }
}

#[test]
fn skipped_malformed_records_reset_the_idle_streak() {
    // Regression pin: a source alternating "no data yet" with malformed
    // records is *making progress* — each skip must reset the idle streak.
    // Before the fix, only delivered chunks reset it, so this schedule
    // (never more than 2 consecutive idle polls) aborted with
    // SourceStalled under stall_polls(3).
    let batch = trace();
    let mut plan = FaultPlan::none();
    for call in 1..20 {
        plan = plan.at(
            call,
            if call % 3 == 0 {
                SourceFault::MalformedRecord
            } else {
                SourceFault::Stall
            },
        );
    }
    let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
    let mut sink = DigestSink::new();
    let stats = monitor(1, resilient().stall_polls(3).error_budget(100))
        .try_drive(&mut source, &mut sink)
        .expect("interleaved skips keep the source counted as live");
    assert!(stats.malformed_skipped > 0);
    assert!(stats.idle_polls > 0);
    assert_eq!(sink.digest(), reference_digest(1));
}

#[test]
fn poll_count_alone_does_not_trip_the_wall_clock_stall_detector() {
    // The PR 8 detector counted loop iterations, so a fast poll loop over a
    // merely quiet source aborted in microseconds. With a wall-clock
    // threshold the same burst of idle polls is absorbed: 8 consecutive
    // idle polls blow far past stall_polls(1), but nowhere near 30 s.
    let batch = trace();
    let mut plan = FaultPlan::none();
    for call in 2..10 {
        plan = plan.at(call, SourceFault::Stall);
    }
    let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
    let mut sink = DigestSink::new();
    let stats = monitor(
        1,
        resilient()
            .stall_polls(1)
            .stall_timeout(Duration::from_secs(30)),
    )
    .try_drive(&mut source, &mut sink)
    .expect("a quiet source is not a stalled source until wall time passes");
    assert_eq!(stats.idle_polls, 8);
    assert_eq!(sink.digest(), reference_digest(1));
}

#[test]
fn wall_clock_stalls_carry_how_long_the_source_was_silent() {
    let batch = trace();
    let mut plan = FaultPlan::none();
    for call in 2..200 {
        plan = plan.at(call, SourceFault::Stall);
    }
    let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
    let timeout = Duration::from_millis(20);
    let error = monitor(
        1,
        resilient()
            .stall_polls(3)
            .stall_timeout(timeout)
            .idle_wait(Duration::from_millis(1)),
    )
    .try_drive(&mut source, &mut Collect::new())
    .expect_err("200 idle polls at 1 ms each outlast a 20 ms stall timeout");
    match &error {
        DriveError::SourceStalled {
            idle_polls,
            stalled_for,
            stats,
        } => {
            assert!(*stalled_for >= timeout, "stalled_for = {stalled_for:?}");
            assert!(*idle_polls >= 3);
            assert_eq!(stats.chunks, 2);
        }
        other => panic!("expected DriveError::SourceStalled, got {other:?}"),
    }
}

#[test]
fn idle_polls_below_the_threshold_are_counted_not_fatal() {
    let batch = trace();
    let plan = FaultPlan::none()
        .at(0, SourceFault::Stall)
        .at(4, SourceFault::Stall)
        .at(5, SourceFault::Stall);
    let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
    let mut sink = DigestSink::new();
    let stats = monitor(1, resilient().stall_polls(3))
        .try_drive(&mut source, &mut sink)
        .expect("the idle streaks stay below the threshold");
    assert_eq!(stats.idle_polls, 3);
    assert_eq!(
        stats.recoveries(),
        0,
        "idle polls are accounted but are not recoveries"
    );
    assert_eq!(sink.digest(), reference_digest(1));
}

#[test]
fn slow_sinks_do_not_look_like_stalled_sources() {
    let batch = trace();
    let mut source = FaultySource::new(
        Chunked::new(BatchSource::new(&batch), CHUNK),
        FaultPlan::none(),
    );
    let mut sink = FaultySink::new(DigestSink::new()).fail_at(0, SinkFault::Slow { millis: 30 });
    let stats = monitor(1, resilient().stall_polls(1))
        .try_drive(&mut source, &mut sink)
        .expect("a slow sink must not trip the source-stall detector");
    assert_eq!(stats.idle_polls, 0);
    assert_eq!(sink.into_inner().digest(), reference_digest(1));
}

#[test]
fn the_error_budget_bounds_total_absorbed_recoveries() {
    let batch = trace();
    let mut plan = FaultPlan::none();
    // A consecutive burst, so the budget trips regardless of trace length.
    for call in 1..9 {
        plan = plan.at(call, SourceFault::MalformedRecord);
    }
    let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
    let error = monitor(1, resilient().error_budget(5))
        .try_drive(&mut source, &mut Collect::new())
        .expect_err("the 6th absorbed recovery exceeds a budget of 5");
    match &error {
        DriveError::ErrorBudgetExhausted { budget, stats } => {
            assert_eq!(*budget, 5);
            assert_eq!(stats.malformed_skipped, 6);
            assert_eq!(stats.recoveries(), 6);
            assert_eq!(stats.chunks, 1);
        }
        other => panic!("expected DriveError::ErrorBudgetExhausted, got {other:?}"),
    }
}

#[test]
fn out_of_order_timestamps_reject_or_clamp_per_policy() {
    let batch = trace();
    // Reject: the regressed chunk aborts the drive.
    let plan = FaultPlan::none().at(2, SourceFault::OutOfOrder);
    let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
    let error = monitor(1, resilient().timestamps(TimestampPolicy::Reject))
        .try_drive(&mut source, &mut Collect::new())
        .expect_err("Reject surfaces the regression");
    match &error {
        DriveError::TimestampRegression {
            prev_nanos,
            ts_nanos,
            stats,
        } => {
            assert_eq!(*ts_nanos + 1, *prev_nanos, "rewritten to newest-1 ns");
            assert_eq!(
                stats.chunks, 3,
                "the offending chunk was counted, not applied"
            );
        }
        other => panic!("expected DriveError::TimestampRegression, got {other:?}"),
    }

    // ClampAndCount: the same schedule completes, counts the clamp, and is
    // deterministic across thread counts.
    let mut digests = Vec::new();
    for threads in [1, 2, 4] {
        let plan = FaultPlan::none().at(2, SourceFault::OutOfOrder);
        let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
        let mut sink = DigestSink::new();
        let stats = monitor(
            threads,
            resilient().timestamps(TimestampPolicy::ClampAndCount),
        )
        .try_drive(&mut source, &mut sink)
        .expect("ClampAndCount absorbs the regression");
        assert_eq!(stats.clamped_timestamps, 1);
        assert_eq!(stats.recoveries(), 1);
        assert_eq!(stats.packets, batch.len() as u64);
        digests.push(sink.digest());
    }
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[0], digests[2]);
}

#[test]
fn worker_panics_poison_the_monitor_instead_of_the_process() {
    let batch = trace();
    for threads in [2, 4] {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.1 })
            .bin_length(Timestamp::from_secs_f64(60.0))
            .top_t(10)
            .seed(0xC0F0_2026)
            .threads(threads)
            // Lane 0 is in shard 0, which the calling thread runs, so that
            // is where the panic lands: when the first forked buffer takes
            // lane 0 past the limit — forked by the first bin seal, if the
            // bin's chunks have not filled one before.
            .inject_lane_panic_after(CHUNK as u64)
            .build();
        let mut source = FaultySource::new(
            Chunked::new(BatchSource::new(&batch), CHUNK),
            FaultPlan::none(),
        );
        let error = monitor
            .try_drive(&mut source, &mut Collect::new())
            .expect_err("the injected lane panic must surface as an error");
        // By the final seal at the latest, which forks whatever is still
        // buffered.
        match &error {
            DriveError::WorkerPanicked { worker, .. } => {
                assert_eq!(*worker, 0, "lane 0 lives on worker 0");
            }
            other => panic!("threads({threads}): expected WorkerPanicked, got {other:?}"),
        }
        assert!(monitor.is_poisoned());
        // Poisoned-but-droppable: further fallible calls return the same
        // error instead of hanging or panicking...
        let again = monitor
            .try_drive(
                &mut FaultySource::new(
                    Chunked::new(BatchSource::new(&batch), CHUNK),
                    FaultPlan::none(),
                ),
                &mut Collect::new(),
            )
            .expect_err("a poisoned monitor stays poisoned");
        assert!(matches!(again, DriveError::WorkerPanicked { .. }));
        // ...and the drop at the end of this scope joins every pool thread
        // without a double panic (the old abort path).
        drop(monitor);
    }
}

#[test]
fn seeded_fault_schedules_are_deterministic_across_threads() {
    let batch = trace();
    let classes = [SourceFault::MalformedRecord, SourceFault::Stall];
    let mut outcomes = Vec::new();
    for threads in [1, 2, 4] {
        // Same seed every round: the schedule is a pure function of it.
        let plan = FaultPlan::seeded(0xBEEF, 16, 0.3, &classes);
        let mut source = FaultySource::new(Chunked::new(BatchSource::new(&batch), CHUNK), plan);
        let mut sink = DigestSink::new();
        let stats = monitor(threads, resilient())
            .try_drive(&mut source, &mut sink)
            .expect("the resilient policy absorbs the whole schedule");
        // The monitor's books agree with what the harness actually fired.
        let injected = source.injected();
        assert_eq!(stats.malformed_skipped, injected.malformed);
        assert_eq!(stats.idle_polls, injected.stalls);
        assert!(
            injected.malformed > 0 && injected.stalls > 0,
            "this seed fires both classes before the trace ends"
        );
        assert_eq!(stats.packets, batch.len() as u64);
        outcomes.push((stats, injected, sink.digest()));
    }
    assert_eq!(outcomes[0], outcomes[1], "threads(2) replays threads(1)");
    assert_eq!(outcomes[0], outcomes[2], "threads(4) replays threads(1)");
    assert_eq!(
        outcomes[0].2,
        reference_digest(1),
        "the absorbed schedule reproduces the fault-free reports"
    );
}
