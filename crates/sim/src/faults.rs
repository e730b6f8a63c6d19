//! Deterministic fault injection for the drive pipeline.
//!
//! The chaos conformance suite needs to exercise every recovery path of
//! [`Monitor::try_drive`](flowrank_monitor::Monitor::try_drive) —
//! malformed records, mid-stream EOF, fatal reads, source stalls,
//! out-of-order timestamps, failing and slow sinks — **without**
//! any real I/O and **reproducibly**: the same seed must inject the same
//! faults at the same points on every run and at every thread count.
//!
//! * [`FaultPlan`] is the schedule: a map from `try_next_chunk` call
//!   ordinal to the [`SourceFault`] injected on that call, built either
//!   explicitly ([`FaultPlan::at`]) or from a seed
//!   ([`FaultPlan::seeded`]).
//! * [`FaultySource`] wraps any [`PacketSource`] and replays the plan.
//!   Injected faults are *inserted between* the inner source's chunks —
//!   apart from [`SourceFault::OutOfOrder`] (which rewrites a real chunk)
//!   and the terminal faults, the wrapped source still delivers every
//!   packet, so a policy that absorbs the faults reproduces the fault-free
//!   report stream bit for bit.
//! * [`FaultySink`] wraps any [`ReportSink`] and fails or delays chosen
//!   reports ([`SinkFault`]), keyed by report ordinal.
//!
//! The source counts what it actually injected and the sink what it
//! delivered, so tests can assert the monitor's
//! [`DriveStats`](flowrank_monitor::DriveStats) against the ground truth of
//! the schedule.

use std::collections::BTreeMap;
use std::io;

use flowrank_monitor::{BinReport, PacketSource, ReportSink, SourceError};
use flowrank_net::{NetError, PacketBatch, Timestamp};
use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};

/// One injected source-side fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceFault {
    /// A truncated/garbage record: one recoverable
    /// [`SourceError::Malformed`] poll. The bad record is injected, not
    /// taken from the stream — no real packet is lost, so skip-and-count
    /// recovery reproduces the fault-free reports exactly.
    MalformedRecord,
    /// The capture ends mid-stream: from this call on the source reports
    /// clean end-of-stream, dropping whatever the inner source still had.
    MidStreamEof,
    /// An unrecoverable read failure ([`SourceError::Fatal`], e.g. the
    /// record boundary is lost): this poll and every later one fails.
    FatalRead,
    /// One idle poll (`Ok(Some(empty batch))`): "no data right now, not
    /// end-of-stream" — the stall-detector food group.
    Stall,
    /// The next real chunk's first packet is rewritten to one nanosecond
    /// before the newest timestamp delivered so far — a single cross-call
    /// timestamp regression. Skipped silently when no timestamp has been
    /// delivered yet or the newest is zero, and used up with nothing
    /// rewritten when the inner poll it lands on idles or fails.
    OutOfOrder,
}

/// A deterministic schedule of source faults, keyed by the ordinal of the
/// `try_next_chunk` call they fire on (0-based, counting every poll —
/// including the polls the faults themselves occupy).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: BTreeMap<u64, SourceFault>,
}

impl FaultPlan {
    /// An empty plan: the wrapped source behaves exactly like the inner
    /// one.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds `fault` at poll ordinal `call` (replacing any fault already
    /// scheduled there).
    pub fn at(mut self, call: u64, fault: SourceFault) -> Self {
        self.faults.insert(call, fault);
        self
    }

    /// Builds a plan from a seed: each of the first `calls` poll ordinals
    /// independently receives a fault with probability `rate`, drawn
    /// uniformly from `classes`. The schedule is a pure function of the
    /// arguments — the reproducibility anchor of the chaos suite.
    pub fn seeded(seed: u64, calls: u64, rate: f64, classes: &[SourceFault]) -> Self {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut faults = BTreeMap::new();
        for call in 0..calls {
            let draw = rng.next_f64();
            let class = rng.next_u64();
            if !classes.is_empty() && draw < rate {
                faults.insert(call, classes[(class % classes.len() as u64) as usize]);
            }
        }
        FaultPlan { faults }
    }
}

/// Tally of the faults a [`FaultySource`] actually injected (a terminal
/// fault suppresses everything scheduled after it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Recoverable malformed-record polls injected.
    pub malformed: u64,
    /// Idle (stall) polls injected.
    pub stalls: u64,
    /// Chunks whose first timestamp was rewritten backwards.
    pub out_of_order: u64,
    /// Whether a mid-stream EOF was injected.
    pub truncated: bool,
    /// Whether a fatal read failure was injected.
    pub fatal: bool,
}

/// A [`PacketSource`] wrapper replaying a [`FaultPlan`] over an inner
/// source.
///
/// The contract mirrors the real pcap sources: malformed polls are
/// recoverable (the source can be polled again), stall polls deliver an
/// empty batch, fatal reads and mid-stream EOF latch. The inner source's
/// own idle polls and errors pass through. What the faults cost is the
/// drive loop's decision: `Monitor::drive` waits out the stalls, skips the
/// malformed polls and ends at either terminal fault; `Monitor::try_drive`
/// follows its policy.
#[derive(Debug)]
pub struct FaultySource<S> {
    inner: S,
    plan: FaultPlan,
    /// Next poll ordinal.
    calls: u64,
    /// Newest timestamp delivered so far (for `OutOfOrder` rewrites).
    last_ts_nanos: Option<u64>,
    /// Owned copy of the chunk being delivered: every real chunk is copied
    /// here so `OutOfOrder` can rewrite it and the borrow never outlives a
    /// poll.
    out: PacketBatch,
    /// Reusable empty batch backing stall polls.
    idle: PacketBatch,
    injected: InjectedFaults,
    /// Latched terminal state: the source stays ended/failed forever.
    terminated: Option<Terminal>,
}

#[derive(Debug, Clone, Copy)]
enum Terminal {
    Eof,
    Fatal,
}

impl<S: PacketSource> FaultySource<S> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultySource {
            inner,
            plan,
            calls: 0,
            last_ts_nanos: None,
            out: PacketBatch::new(),
            idle: PacketBatch::new(),
            injected: InjectedFaults::default(),
            terminated: None,
        }
    }

    /// What has actually been injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.injected
    }

    /// Polls the inner source into `self.out`, rewriting the first
    /// timestamp when `regress` is set. Returns whether the inner stream
    /// went on; its errors pass through.
    fn pump(&mut self, regress: bool) -> Result<bool, SourceError> {
        let Some(chunk) = self.inner.try_next_chunk()? else {
            return Ok(false);
        };
        self.out.clear();
        self.out.extend_from_batch(chunk, 0..chunk.len());
        if regress && !self.out.is_empty() {
            match self.last_ts_nanos {
                Some(last) if last > 0 => {
                    let mut first = self.out.record(0);
                    first.timestamp = Timestamp::from_nanos(last - 1);
                    let mut rewritten = PacketBatch::with_capacity(self.out.len());
                    rewritten.push_record(&first);
                    rewritten.extend_from_batch(&self.out, 1..self.out.len());
                    self.out = rewritten;
                    self.injected.out_of_order += 1;
                }
                _ => {}
            }
        }
        if let Some(&last) = self.out.ts_nanos().last() {
            self.last_ts_nanos = Some(self.last_ts_nanos.map_or(last, |seen| seen.max(last)));
        }
        Ok(true)
    }
}

impl<S: PacketSource> PacketSource for FaultySource<S> {
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        match self.terminated {
            Some(Terminal::Eof) => return Ok(None),
            Some(Terminal::Fatal) => {
                return Err(SourceError::Fatal(NetError::Io(io::Error::other(
                    "injected fatal read failure",
                ))))
            }
            None => {}
        }
        let call = self.calls;
        self.calls += 1;
        match self.plan.faults.get(&call).copied() {
            Some(SourceFault::MalformedRecord) => {
                self.injected.malformed += 1;
                Err(SourceError::Malformed(NetError::MalformedPacket {
                    reason: "injected truncated record",
                }))
            }
            Some(SourceFault::Stall) => {
                self.injected.stalls += 1;
                self.idle.clear();
                Ok(Some(&self.idle))
            }
            Some(SourceFault::MidStreamEof) => {
                self.injected.truncated = true;
                self.terminated = Some(Terminal::Eof);
                Ok(None)
            }
            Some(SourceFault::FatalRead) => {
                self.injected.fatal = true;
                self.terminated = Some(Terminal::Fatal);
                Err(SourceError::Fatal(NetError::Io(io::Error::other(
                    "injected fatal read failure",
                ))))
            }
            fault @ (None | Some(SourceFault::OutOfOrder)) => {
                let regress = fault.is_some();
                Ok(self.pump(regress)?.then_some(&self.out))
            }
        }
    }
}

/// One injected sink-side fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkFault {
    /// The sink fails permanently: this report and every later one errors.
    Permanent,
    /// The report is delivered after a delay — stall-detector coverage:
    /// a slow *sink* must not look like a starved *source*.
    Slow {
        /// Delivery delay in milliseconds.
        millis: u64,
    },
}

/// A [`ReportSink`] wrapper that fails or delays chosen reports, keyed by
/// the ordinal of the report among deliveries.
#[derive(Debug)]
pub struct FaultySink<K> {
    inner: K,
    faults: BTreeMap<u64, SinkFault>,
    /// Ordinal of the next delivery.
    delivered: u64,
    /// Latched permanent failure.
    broken: bool,
}

impl<K: ReportSink> FaultySink<K> {
    /// Wraps `inner` with no faults scheduled.
    pub fn new(inner: K) -> Self {
        FaultySink {
            inner,
            faults: BTreeMap::new(),
            delivered: 0,
            broken: false,
        }
    }

    /// Schedules `fault` on the report with delivery ordinal `report`
    /// (0-based).
    pub fn fail_at(mut self, report: u64, fault: SinkFault) -> Self {
        self.faults.insert(report, fault);
        self
    }

    /// The wrapped sink, for reading back what it received.
    pub fn into_inner(self) -> K {
        self.inner
    }

    /// Reports successfully delivered to the inner sink.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl<K: ReportSink> ReportSink for FaultySink<K> {
    fn accept(&mut self, report: &BinReport) {
        // Infallible view for harness plumbing: a broken sink swallows
        // the report.
        let _ = self.emit(report);
    }

    fn emit(&mut self, report: &BinReport) -> io::Result<()> {
        // A broken sink stays at its failing ordinal, whose fault is
        // `Permanent`.
        match self.faults.get(&self.delivered) {
            Some(SinkFault::Permanent) => self.broken = true,
            Some(SinkFault::Slow { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(*millis));
            }
            None => {}
        }
        if self.broken {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected permanent sink failure",
            ));
        }
        self.inner.emit(report)?;
        self.delivered += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_monitor::{BatchSource, Collect};
    use flowrank_net::PacketRecord;
    use std::net::Ipv4Addr;

    fn batch(ts: &[f64]) -> PacketBatch {
        let records: Vec<PacketRecord> = ts
            .iter()
            .map(|&t| {
                PacketRecord::udp(
                    Timestamp::from_secs_f64(t),
                    Ipv4Addr::new(10, 0, 0, 1),
                    53,
                    Ipv4Addr::new(100, 64, 0, 9),
                    53,
                    100,
                )
            })
            .collect();
        PacketBatch::from_records(&records)
    }

    #[test]
    fn seeded_plans_are_pure_functions_of_their_arguments() {
        let classes = [SourceFault::MalformedRecord, SourceFault::Stall];
        let a = FaultPlan::seeded(7, 1000, 0.1, &classes);
        let b = FaultPlan::seeded(7, 1000, 0.1, &classes);
        assert_eq!(a.faults, b.faults);
        assert!(
            !a.faults.is_empty(),
            "a 10% rate over 1000 calls injects something"
        );
        assert!(a.faults.values().all(|fault| classes.contains(fault)));
        assert_ne!(
            a.faults,
            FaultPlan::seeded(8, 1000, 0.1, &classes).faults,
            "different seeds give different schedules"
        );
    }

    #[test]
    fn faulty_source_inserts_faults_without_losing_packets() {
        let data = batch(&[1.0, 2.0, 3.0]);
        let plan = FaultPlan::none()
            .at(0, SourceFault::Stall)
            .at(1, SourceFault::MalformedRecord);
        let mut source = FaultySource::new(BatchSource::new(&data), plan);
        assert!(matches!(source.try_next_chunk(), Ok(Some(b)) if b.is_empty()));
        assert!(matches!(
            source.try_next_chunk(),
            Err(SourceError::Malformed(_))
        ));
        let delivered = source.try_next_chunk().unwrap().unwrap();
        assert_eq!(delivered.len(), 3, "the real chunk survives the faults");
        assert!(matches!(source.try_next_chunk(), Ok(None)));
        assert_eq!(source.injected().stalls, 1);
        assert_eq!(source.injected().malformed, 1);
    }

    #[test]
    fn out_of_order_rewrites_one_timestamp_backwards() {
        let first = batch(&[1.0, 2.0]);
        let second = batch(&[3.0, 4.0]);
        struct TwoChunks {
            chunks: Vec<PacketBatch>,
            next: usize,
        }
        impl PacketSource for TwoChunks {
            fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
                let i = self.next;
                self.next += 1;
                Ok(self.chunks.get(i))
            }
        }
        let inner = TwoChunks {
            chunks: vec![first, second],
            next: 0,
        };
        let mut source = FaultySource::new(inner, FaultPlan::none().at(1, SourceFault::OutOfOrder));
        let a = source.try_next_chunk().unwrap().unwrap();
        assert_eq!(a.ts_nanos().to_vec(), batch(&[1.0, 2.0]).ts_nanos());
        let b = source.try_next_chunk().unwrap().unwrap();
        let expected_regressed = Timestamp::from_secs_f64(2.0).as_nanos() - 1;
        assert_eq!(b.ts_nanos()[0], expected_regressed);
        assert_eq!(b.ts_nanos()[1], Timestamp::from_secs_f64(4.0).as_nanos());
        assert_eq!(source.injected().out_of_order, 1);
    }

    #[test]
    fn terminal_faults_latch() {
        let data = batch(&[1.0]);
        let mut eof = FaultySource::new(
            BatchSource::new(&data),
            FaultPlan::none().at(0, SourceFault::MidStreamEof),
        );
        assert!(matches!(eof.try_next_chunk(), Ok(None)));
        assert!(matches!(eof.try_next_chunk(), Ok(None)));
        assert!(eof.injected().truncated);

        let mut fatal = FaultySource::new(
            BatchSource::new(&data),
            FaultPlan::none().at(0, SourceFault::FatalRead),
        );
        assert!(matches!(fatal.try_next_chunk(), Err(SourceError::Fatal(_))));
        assert!(matches!(fatal.try_next_chunk(), Err(SourceError::Fatal(_))));
        assert!(fatal.injected().fatal);
    }

    #[test]
    fn permanent_sink_failure_latches() {
        let mut sink = FaultySink::new(Collect::new()).fail_at(0, SinkFault::Permanent);
        let report = BinReport::default();
        assert!(sink.emit(&report).is_err());
        assert!(sink.emit(&report).is_err(), "latched");
        assert_eq!(sink.delivered(), 0);
    }
}
