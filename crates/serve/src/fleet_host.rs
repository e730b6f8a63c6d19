//! Fleet hosting: one config file, thousands of monitors.
//!
//! With `tenants = N` in the config, the daemon hosts a [`Fleet`] instead of
//! a single monitor and runs it through [`Fleet::drive`]. Two feeds, both
//! one [`FleetSource`] here, work fleet-wide:
//!
//! * `source = replay` — the synthetic fleet scenario
//!   ([`flowrank_trace::FleetScenario`]): N tenants with heterogeneous
//!   catalog mixes and diurnal envelopes, driven window by window.
//! * `source = ndjson` — tenant-tagged records on stdin: each line is the
//!   usual ndjson record with an extra `"tenant": <id>` field (records
//!   without one belong to tenant 0). Lines are read through the stdin
//!   path's source ([`NdjsonRecordSource::next_tagged`]: same grammar, same
//!   64 KiB line limit, a bad line is one skipped record) a chunk at a time —
//!   every complete line that has arrived, its tags beside it — and cut into
//!   windows of exactly 512 records however the pipe cut them. A fatal read
//!   error ends the feed after the window in front of it (the
//!   `PcapBytesSource` contract): every final bin closes, the run fails.
//!
//! A signal or `max_bins` ends the feed early. After every window the sink
//! refreshes the snapshot endpoint with a fleet-wide JSON state: totals plus
//! the busiest tenants, so a poller watching a thousand-tenant daemon sees
//! where the traffic and the budget evictions are concentrating.

use std::cell::Cell;
use std::fmt::Write as _;
use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use flowrank_fleet::{Fleet, FleetBuilder, FleetSink, FleetSource, FleetSummary, TenantStats};
use flowrank_monitor::{BinReport, NdjsonRecordSource};
use flowrank_net::{PacketBatch, TaggedBatch, TenantId, Timestamp};
use flowrank_trace::{FleetScenario, FleetStream};

use crate::config::{ServeConfig, SourceKind};
use crate::snapshot::SnapshotPublisher;

/// Records per tagged window on the stdin record path.
const RECORDS_PER_PUSH: usize = 512;

/// The machine-readable outcome of a fleet run (rendered into the daemon's
/// final line).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetFinal {
    /// What [`Fleet::drive`] returned.
    pub fleet: FleetSummary,
    /// Malformed stdin lines skipped (record path only).
    pub malformed_skipped: u64,
    /// Records whose tenant id was outside the slab (record path only).
    pub unknown_tenant_skipped: u64,
}

/// Builds the fleet the config describes: the single-monitor template with
/// the daemon's drive policy, tenants × that, fleet-level threads, and the
/// per-tenant flow budget when configured.
fn build_fleet(config: &ServeConfig) -> Fleet {
    let mut builder = FleetBuilder::new(config.tenants)
        .monitor(config.monitor_builder())
        .seed(config.seed)
        .threads(config.threads.max(1));
    if config.flow_budget > 0 {
        builder = builder.flow_budget(config.flow_budget);
    }
    builder.build()
}

/// Runs the daemon in fleet mode until the source ends, the stop flag
/// rises, or `max_bins` bins have closed fleet-wide.
pub fn run_fleet(
    config: &ServeConfig,
    stop: Arc<AtomicBool>,
    publisher: &SnapshotPublisher,
) -> Result<FleetFinal, String> {
    let malformed = Cell::new(0);
    let feed = match config.source {
        SourceKind::Replay => {
            // `window_ms = 0` is a zero window: the scenario's default.
            let window = Timestamp::from_secs_f64(config.window_ms as f64 / 1000.0);
            Feed::Replay(FleetScenario::new(config.tenants).stream_with_window(config.seed, window))
        }
        SourceKind::Ndjson => {
            let stdin = std::io::stdin().lock();
            Feed::Records(RecordWindows::new(stdin, config.tenants, &malformed))
        }
        SourceKind::Tail | SourceKind::Socket => {
            return Err("fleet mode supports source = replay or ndjson".to_string())
        }
    };
    let mut sink = HostSink {
        max_bins: config.max_bins,
        stop: &stop,
        malformed: &malformed,
        publisher,
        scratch: String::new(),
    };
    HostSource { stop: &stop, feed }.run(&mut build_fleet(config), &mut sink)
}

/// The daemon's one [`FleetSource`]: a feed that ends early when the stop
/// flag rises.
struct HostSource<'a, R> {
    stop: &'a AtomicBool,
    feed: Feed<'a, R>,
}

/// What a [`HostSource`] reads: one per run, so the variants' sizes differ
/// freely.
#[allow(clippy::large_enum_variant)]
enum Feed<'a, R> {
    Replay(FleetStream),
    Records(RecordWindows<'a, R>),
}

impl<R: BufRead> FleetSource for HostSource<'_, R> {
    fn next_tagged(&mut self) -> Option<&TaggedBatch> {
        let stopped = || self.stop.load(Ordering::Acquire);
        match &mut self.feed {
            Feed::Replay(_) if stopped() => None,
            Feed::Replay(stream) => stream.next_window(),
            Feed::Records(records) => records.next_window(stopped),
        }
    }
}

impl<R: BufRead> HostSource<'_, R> {
    /// Drives `fleet` from this feed through `sink`: the drive's summary and
    /// the record path's two counters, or the read error that ended the feed.
    fn run(mut self, fleet: &mut Fleet, sink: &mut impl FleetSink) -> Result<FleetFinal, String> {
        let fleet = fleet.drive(&mut self, sink);
        let (malformed_skipped, unknown_tenant_skipped) = match self.feed {
            Feed::Replay(_) => (0, 0),
            Feed::Records(records) => match records.error {
                Some(error) => return Err(error),
                None => (records.malformed.get(), records.unknown),
            },
        };
        Ok(FleetFinal {
            fleet,
            malformed_skipped,
            unknown_tenant_skipped,
        })
    }
}

/// Tenant-tagged ndjson records cut into windows of exactly
/// [`RECORDS_PER_PUSH`] — so the windows the fleet sees are a function of
/// the input, not of how the pipe delivered it. Records tagged past the
/// fleet's `tenants` are counted as `unknown`, not pushed; `tags`, `chunk`
/// and `at` are the chunk being cut and where its unappended rest starts;
/// `error` is the fatal read error that ended the feed.
struct RecordWindows<'a, R> {
    records: NdjsonRecordSource<R>,
    tenants: u32,
    tags: Vec<u32>,
    chunk: PacketBatch,
    at: usize,
    window: TaggedBatch,
    malformed: &'a Cell<u64>,
    unknown: u64,
    error: Option<String>,
    ended: bool,
}

impl<'a, R: BufRead> RecordWindows<'a, R> {
    fn new(reader: R, tenants: u32, malformed: &'a Cell<u64>) -> Self {
        RecordWindows {
            records: NdjsonRecordSource::new(reader),
            tenants,
            tags: Vec::new(),
            chunk: PacketBatch::new(),
            at: 0,
            window: TaggedBatch::new(),
            malformed,
            unknown: 0,
            error: None,
            ended: false,
        }
    }

    /// The next full window, or what was appended before the feed ended: at
    /// end of input, at a fatal read error, or at a stop seen between two
    /// same-tenant runs.
    fn next_window(&mut self, stopped: impl Fn() -> bool) -> Option<&TaggedBatch> {
        // A stop raised while the last full window was pushed (a signal, or
        // the sink at `max_bins`) ends the feed before another run.
        self.ended |= self.window.len() == RECORDS_PER_PUSH && stopped();
        if self.ended {
            return None;
        }
        self.window.clear();
        loop {
            if self.at < self.tags.len() {
                // One same-tenant run, cut at the room left in the window.
                let tenant = self.tags[self.at];
                let room = RECORDS_PER_PUSH - self.window.len();
                let same = self.tags[self.at..].iter().take(room);
                let run = self.at..self.at + same.take_while(|tag| **tag == tenant).count();
                self.at = run.end;
                if tenant < self.tenants {
                    self.window
                        .extend_from_batch(TenantId(tenant), &self.chunk, run);
                } else {
                    self.unknown += run.len() as u64;
                }
                if self.window.len() == RECORDS_PER_PUSH {
                    return Some(&self.window);
                }
            } else {
                // One decode pass: tags and records come from the same walk
                // over each line; the fleet only copies columns.
                match self.records.next_tagged() {
                    // A read with nothing for it yet: look at the stop flag.
                    Ok(Some((_, chunk))) if chunk.is_empty() => {}
                    Ok(Some((tags, chunk))) => {
                        self.tags.clear();
                        self.tags.extend_from_slice(tags);
                        self.chunk.clear();
                        self.chunk.extend_from_batch(chunk, 0..chunk.len());
                        self.at = 0;
                        continue;
                    }
                    Ok(None) => self.ended = true,
                    Err(error) if error.is_recoverable() => {
                        self.malformed.set(self.malformed.get() + 1);
                    }
                    Err(error) => self.error = Some(format!("stdin: {error}")),
                }
            }
            // A stop seen between two runs leaves the rest of the chunk as
            // unread as the bytes behind it in the pipe.
            self.ended |= self.error.is_some() || stopped();
            if self.ended {
                return (!self.window.is_empty()).then_some(&self.window);
            }
        }
    }
}

/// The daemon's one [`FleetSink`]: after every window it publishes the fleet
/// snapshot, with the malformed lines the record feed has counted, and
/// raises the stop flag once `max_bins` bins have been delivered.
struct HostSink<'a> {
    max_bins: u64,
    stop: &'a AtomicBool,
    malformed: &'a Cell<u64>,
    publisher: &'a SnapshotPublisher,
    scratch: String,
}

impl FleetSink for HostSink<'_> {
    fn accept(&mut self, _tenant: TenantId, _report: &BinReport) {}

    /// Renders and publishes the fleet snapshot: totals plus the busiest
    /// tenants by packet count.
    fn window_done(&mut self, fleet: &Fleet) {
        let mut stats: Vec<TenantStats> = fleet.tenant_stats().collect();
        let packets: u64 = stats.iter().map(|s| s.packets).sum();
        let reports: u64 = stats.iter().map(|s| s.reports).sum();
        let evictions: u64 = stats.iter().map(|s| s.evictions).sum();
        if self.max_bins > 0 && reports >= self.max_bins {
            self.stop.store(true, Ordering::Release);
        }
        stats.sort_by(|a, b| b.packets.cmp(&a.packets).then(a.tenant.cmp(&b.tenant)));
        stats.truncate(5);
        let scratch = &mut self.scratch;
        scratch.clear();
        let _ = write!(
            scratch,
            "{{\"fleet\":{{\"tenants\":{},\"windows\":{},\"packets\":{packets},\"reports\":{reports},\"evictions\":{evictions},\"malformed_skipped\":{},\"busiest\":[",
            fleet.tenant_count(),
            fleet.windows(),
            self.malformed.get(),
        );
        for (i, tenant) in stats.iter().enumerate() {
            if i > 0 {
                scratch.push(',');
            }
            let _ = write!(
                scratch,
                "{{\"tenant\":{},\"packets\":{},\"reports\":{},\"evictions\":{}}}",
                tenant.tenant.0, tenant.packets, tenant.reports, tenant.evictions
            );
        }
        scratch.push_str("]}}");
        self.publisher.publish(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet_config(extra: &str) -> ServeConfig {
        ServeConfig::parse(&format!(
            "tenants = 3\nrates = 0.2\nruns = 1\nwindow_ms = 0\n{extra}"
        ))
        .expect("config parses")
    }

    /// One ndjson record line; `tenant` is the raw `,"tenant":N` suffix or "".
    fn record(ts: f64, tenant: &str) -> String {
        format!(
            "{{\"ts\":{ts},\"src\":\"10.0.0.1\",\"dst\":\"10.0.0.2\",\"sport\":1,\"dport\":2,\"len\":99,\"proto\":\"udp\"{tenant}}}\n"
        )
    }

    /// `n` records, 10 ms apart, dealt round-robin to tenants 0, 1 and 2.
    fn dealt(n: u32) -> String {
        let tag = |i| format!(",\"tenant\":{}", i % 3);
        (0..n)
            .map(|i| record(f64::from(i) / 100.0, &tag(i)))
            .collect()
    }

    /// The daemon's sink plus a digest of every report: what runs compare by.
    struct Digested<'a>(HostSink<'a>, flowrank_monitor::DigestSink);

    impl FleetSink for Digested<'_> {
        fn accept(&mut self, tenant: TenantId, report: &BinReport) {
            self.0.accept(tenant, report);
            flowrank_monitor::ReportSink::accept(&mut self.1, report);
        }

        fn window_done(&mut self, fleet: &Fleet) {
            self.0.window_done(fleet);
        }
    }

    /// A record drive's fleet, outcome, report digest and last snapshot state.
    type RecordDrive = (Fleet, Result<FleetFinal, String>, u64, String);

    /// Drives a fleet built from `config` over `input` through the daemon's
    /// source and sink, as `run_fleet` does over stdin.
    fn drive_records(config: &ServeConfig, input: impl BufRead, stop: &AtomicBool) -> RecordDrive {
        let mut fleet = build_fleet(config);
        let (malformed, publisher) = (Cell::new(0), SnapshotPublisher::new());
        let sink = HostSink {
            max_bins: config.max_bins,
            stop,
            malformed: &malformed,
            publisher: &publisher,
            scratch: String::new(),
        };
        let mut sink = Digested(sink, flowrank_monitor::DigestSink::default());
        let feed = Feed::Records(RecordWindows::new(input, config.tenants, &malformed));
        let outcome = HostSource { stop, feed }.run(&mut fleet, &mut sink);
        let poll = publisher.render_poll();
        let (_, state) = poll.split_once(",\"state\":").expect("poll shape");
        (fleet, outcome, sink.1.digest(), state.to_string())
    }

    fn per_tenant_packets(fleet: &Fleet) -> Vec<u64> {
        fleet.tenant_stats().map(|s| s.packets).collect()
    }

    #[test]
    fn replay_fleet_runs_to_completion_and_publishes() {
        let config = fleet_config("");
        let publisher = SnapshotPublisher::new();
        let stop = Arc::new(AtomicBool::new(false));
        let summary = run_fleet(&config, stop, &publisher).expect("fleet run");
        let summary = summary.fleet;
        assert_eq!(summary.tenants, 3);
        assert!(summary.packets > 0 && summary.reports > 0, "{summary:?}");
        let poll = publisher.render_poll();
        assert!(poll.contains("\"fleet\":{\"tenants\":3"), "{poll}");
        assert!(poll.contains("\"busiest\":[{\"tenant\":"), "{poll}");
    }

    #[test]
    fn record_path_tags_skips_and_demuxes_in_one_pass() {
        let config = fleet_config("source = ndjson\n");
        let mut input = format!(
            "{}{}{}not json\n",
            record(1.0, ",\"tenant\":1"),
            record(2.0, ""),              // untagged → tenant 0
            record(3.0, ",\"tenant\":9"), // outside the slab → skipped
        )
        .into_bytes();
        input.extend_from_slice(b"\xff\xfe\n"); // not text: skipped, not fatal
        input.extend_from_slice(record(4.0, ",\"tenant\":2").as_bytes());
        let (fleet, outcome, _, state) =
            drive_records(&config, &input[..], &AtomicBool::new(false));
        let summary = outcome.expect("record drive");
        assert_eq!(summary.malformed_skipped, 2);
        assert_eq!(summary.unknown_tenant_skipped, 1);
        assert_eq!(per_tenant_packets(&fleet), vec![1, 1, 1]);
        let reports = summary.fleet.reports;
        assert!(reports >= 3, "each tenant closes its final bin");
        // The snapshot renders exactly as the hand-looped host published it.
        assert_eq!(
            state,
            r#"{"fleet":{"tenants":3,"windows":1,"packets":3,"reports":3,"evictions":0,"malformed_skipped":2,"busiest":[{"tenant":0,"packets":1,"reports":1,"evictions":0},{"tenant":1,"packets":1,"reports":1,"evictions":0},{"tenant":2,"packets":1,"reports":1,"evictions":0}]}}}"#
        );
    }

    #[test]
    fn record_path_is_a_function_of_the_feed_not_of_how_reads_cut_it() {
        // 3000 records over five tags (one outside the slab) in runs of 1 to
        // 40, a bad line now and then, a flow budget small enough to evict:
        // read 7 bytes at a time and 64 KiB at a time, the windows are cut at
        // the same records, so every window, eviction and report is the same.
        let config = fleet_config("source = ndjson\nflow_budget = 4\nbin_secs = 1\n");
        let mut input = String::new();
        let (mut tenant, mut run) = (0, 0);
        for i in 0..3000u32 {
            if run == 0 {
                tenant = (tenant + i) % 5;
                run = 1 + (i * 7) % 40;
            }
            run -= 1;
            let ts = f64::from(i) / 100.0;
            let line = record(ts, &format!(",\"tenant\":{tenant}"));
            input.push_str(&line.replace("10.0.0.1", &format!("10.0.{}.{}", i % 7, i % 11)));
            if i % 97 == 0 {
                input.push_str("not json\n");
            }
        }
        let drive = |capacity: usize| {
            let reader = std::io::BufReader::with_capacity(capacity, input.as_bytes());
            let (_, outcome, digest, _) = drive_records(&config, reader, &AtomicBool::new(false));
            (outcome.expect("record drive"), digest)
        };
        let (summary, digest) = drive(7);
        assert_eq!((summary, digest), drive(64 << 10));
        assert_eq!(summary.malformed_skipped, 31);
        let (fleet, unknown) = (summary.fleet, summary.unknown_tenant_skipped);
        assert!(unknown > 0, "{summary:?}");
        assert_eq!(fleet.packets + unknown, 3000, "{summary:?}");
        let full_windows = fleet.packets / RECORDS_PER_PUSH as u64;
        let cut = "cut at 512 records exactly";
        assert_eq!(fleet.windows, full_windows + 1, "{cut}");
        assert!(fleet.evictions > 0 && fleet.reports > 3, "{summary:?}");
    }

    #[test]
    fn graceful_stop_pushes_the_records_read_before_it() {
        // The stop flag is already up: the source appends the first run of
        // the first chunk — one record — observes the stop and ends, after
        // handing over that record, not instead of it.
        let config = fleet_config("source = ndjson\n");
        let input: String = (0..3)
            .map(|i| record(i as f64 + 0.5, &format!(",\"tenant\":{i}")))
            .collect();
        let (fleet, outcome, ..) = drive_records(&config, input.as_bytes(), &AtomicBool::new(true));
        let reports = outcome.expect("record drive").fleet.reports;
        let read = "the record read before the stop";
        assert_eq!(per_tenant_packets(&fleet), vec![1, 0, 0], "{read}");
        assert_eq!(reports, 1, "and its bin is closed by the finish");
    }

    /// A reader whose every read fails the way a broken pipe does.
    struct BrokenPipe;

    impl std::io::Read for BrokenPipe {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn a_fatal_read_error_pushes_the_window_in_front_of_it_and_is_returned() {
        // 700 records, then the pipe breaks: one full window of 512, then the
        // 188 read before the error, then every tenant's final bin.
        let config = fleet_config("source = ndjson\n");
        let input = dealt(700);
        let reader = std::io::BufReader::new(std::io::Read::chain(input.as_bytes(), BrokenPipe));
        let (fleet, outcome, _, state) = drive_records(&config, reader, &AtomicBool::new(false));
        let error = outcome.expect_err("the read error ends the run");
        assert!(error.starts_with("stdin: "), "{error}");
        assert_eq!(fleet.windows(), 2, "512, then the 188 behind it");
        assert_eq!(per_tenant_packets(&fleet), vec![234, 233, 233]);
        let closed = fleet.tenant_stats().all(|stats| stats.reports >= 1);
        assert!(closed, "every tenant's final bin closed");
        assert!(state.contains("\"windows\":2,\"packets\":700,"), "{state}");
    }

    /// Idle stdin that a signal interrupts: a read raises the stop flag, as
    /// the handler does, and fails with `Interrupted`. A read with the flag
    /// already up is a feed spinning instead of stopping.
    struct Signalled<'a>(&'a AtomicBool);

    impl std::io::Read for Signalled<'_> {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            let spinning = self.0.swap(true, Ordering::AcqRel);
            assert!(!spinning, "read again after the stop");
            Err(std::io::ErrorKind::Interrupted.into())
        }
    }

    #[test]
    fn an_interrupted_read_with_the_stop_raised_ends_the_feed() {
        // Five records arrive, then stdin goes quiet and SIGINT lands: the
        // blocked read returns, the feed ends, and the five are pushed.
        let config = fleet_config("source = ndjson\n");
        let (input, stop) = (dealt(5), AtomicBool::new(false));
        let signalled = Signalled(&stop);
        let reader = std::io::BufReader::new(std::io::Read::chain(input.as_bytes(), signalled));
        let (fleet, outcome, ..) = drive_records(&config, reader, &stop);
        let summary = outcome.expect("a stop is a clean end");
        assert_eq!(per_tenant_packets(&fleet), vec![2, 2, 1]);
        assert_eq!(summary.fleet.windows, 1, "{summary:?}");
    }

    #[test]
    fn max_bins_stops_the_record_path_reading() {
        // 1 s bins over 30 s of records: the first window's 5 s already
        // close more than `max_bins` bins, so the feed ends behind it.
        let config = fleet_config("source = ndjson\nmax_bins = 2\nbin_secs = 1\n");
        let input = dealt(3000);
        let (mut unread, stop) = (input.as_bytes(), AtomicBool::new(false));
        let reader = std::io::BufReader::with_capacity(4096, &mut unread);
        let summary = drive_records(&config, reader, &stop)
            .1
            .expect("record drive");
        assert_eq!(summary.fleet.windows, 1, "{summary:?}");
        assert_eq!(summary.fleet.packets, RECORDS_PER_PUSH as u64);
        assert!(stop.load(Ordering::Acquire), "the sink raised the stop");
        assert!(unread.len() > input.len() / 2, "the rest stays unread");
    }

    #[test]
    fn fleet_mode_rejects_sources_without_a_tenant_path() {
        // The config layer is the gate: tail and socket are single-monitor
        // sources, so fleet configs naming them never validate.
        for source in ["source = tail\npcap = x.pcap\n", "source = socket\n"] {
            let error = ServeConfig::parse(&format!("tenants = 2\n{source}"))
                .expect_err("single-monitor source in fleet mode");
            assert!(error.to_string().contains("replay or ndjson"), "{error}");
        }
    }

    #[test]
    fn max_bins_bounds_a_fleet_replay() {
        let config = fleet_config("max_bins = 2\n");
        let publisher = SnapshotPublisher::new();
        let stop = Arc::new(AtomicBool::new(false));
        let summary = run_fleet(&config, stop, &publisher).expect("fleet run");
        let summary = summary.fleet;
        // The final finish() still closes every tenant's last bin, so the
        // bound is `max_bins` pushed-window bins plus at most one per
        // tenant.
        assert!(summary.reports >= 2, "{summary:?}");
        assert!(summary.windows < 200, "stopped early: {summary:?}");
    }
}
