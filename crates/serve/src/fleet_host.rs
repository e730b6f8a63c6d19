//! Fleet hosting: one config file, thousands of monitors.
//!
//! With `tenants = N` in the config, the daemon hosts a
//! [`Fleet`] instead of a single monitor. Two
//! sources work fleet-wide:
//!
//! * `source = replay` — the synthetic fleet scenario
//!   ([`flowrank_trace::FleetScenario`]): N tenants with heterogeneous
//!   catalog mixes and diurnal envelopes, driven window by window.
//! * `source = ndjson` — tenant-tagged records on stdin: each line is the
//!   usual ndjson record with an extra `"tenant": <id>` field (records
//!   without one belong to tenant 0). Lines are read through the stdin
//!   path's source ([`NdjsonRecordSource::next_tagged`]: same grammar, same
//!   64 KiB line limit, a bad line is one skipped record) a chunk at a time —
//!   every complete line that has arrived, its tags beside it — and pushed to
//!   the fleet's demultiplexer 512 records a window however the pipe cut
//!   them: the one-decode-pass path end to end.
//!
//! Every pushed window refreshes the snapshot endpoint with a fleet-wide
//! JSON state: totals plus the busiest tenants, so a poller watching a
//! thousand-tenant daemon sees where the traffic and the budget evictions
//! are concentrating.

use std::fmt::Write as _;
use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use flowrank_fleet::{Fleet, FleetBuilder, FleetSink, TenantStats};
use flowrank_monitor::{BinReport, NdjsonRecordSource};
use flowrank_net::{TaggedBatch, TenantId, Timestamp};
use flowrank_trace::FleetScenario;

use crate::config::{ServeConfig, SourceKind};
use crate::snapshot::SnapshotPublisher;

/// Records accumulated per tagged push on the stdin record path.
const RECORDS_PER_PUSH: usize = 512;

/// The machine-readable outcome of a fleet run (rendered into the daemon's
/// final line).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetFinal {
    /// Tenants hosted.
    pub tenants: usize,
    /// Tagged windows pushed.
    pub windows: u64,
    /// Packets demultiplexed.
    pub packets: u64,
    /// Bins closed across all tenants.
    pub reports: u64,
    /// Budget evictions across all tenants.
    pub evictions: u64,
    /// Malformed stdin lines skipped (record path only).
    pub malformed_skipped: u64,
    /// Records whose tenant id was outside the slab (record path only).
    pub unknown_tenant_skipped: u64,
}

/// Counts delivered bins; the fleet itself keeps per-tenant statistics.
#[derive(Debug, Default)]
struct Totals {
    reports: u64,
    evictions: u64,
    /// Every delivered report, folded: what two runs are compared by.
    #[cfg(test)]
    digest: flowrank_monitor::DigestSink,
}

impl FleetSink for Totals {
    fn accept(&mut self, _tenant: TenantId, report: &BinReport) {
        self.reports += 1;
        self.evictions += report.evictions;
        #[cfg(test)]
        flowrank_monitor::ReportSink::accept(&mut self.digest, report);
    }
}

/// Builds the fleet the config describes: the single-monitor template with
/// the daemon's drive policy, tenants × that, fleet-level threads, and the
/// per-tenant flow budget when configured.
pub(crate) fn build_fleet(config: &ServeConfig) -> Fleet {
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
    let mut fleet = build_fleet(config);
    let mut totals = Totals::default();
    let mut scratch = String::new();
    match config.source {
        SourceKind::Replay => {
            let scenario = FleetScenario::new(config.tenants);
            let mut stream = if config.window_ms > 0 {
                scenario.stream_with_window(
                    config.seed,
                    Timestamp::from_secs_f64(config.window_ms as f64 / 1000.0),
                )
            } else {
                scenario.stream(config.seed)
            };
            while let Some(batch) = stream.next_window() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                fleet.push_tagged(batch, &mut totals);
                publish(&fleet, &totals, 0, publisher, &mut scratch);
                if config.max_bins > 0 && totals.reports >= config.max_bins {
                    break;
                }
            }
            fleet.finish(&mut totals);
            publish(&fleet, &totals, 0, publisher, &mut scratch);
            Ok(finalize(&fleet, &totals, 0, 0))
        }
        SourceKind::Ndjson => {
            let stdin = std::io::stdin();
            let (malformed, unknown) = drive_records(
                &mut fleet,
                stdin.lock(),
                &mut totals,
                config,
                &stop,
                publisher,
                &mut scratch,
            )?;
            Ok(finalize(&fleet, &totals, malformed, unknown))
        }
        SourceKind::Tail | SourceKind::Socket => {
            Err("fleet mode supports source = replay or ndjson".to_string())
        }
    }
}

/// The tenant-tagged record path: pull each chunk of records with its tenant
/// tags from the ndjson source, append it to a [`TaggedBatch`] by same-tenant
/// runs, and push that through the fleet's one demux pass every
/// [`RECORDS_PER_PUSH`] records — cut there exactly, so the windows the fleet
/// sees are a function of the input and not of how the pipe delivered it.
fn drive_records<R: BufRead>(
    fleet: &mut Fleet,
    reader: R,
    totals: &mut Totals,
    config: &ServeConfig,
    stop: &AtomicBool,
    publisher: &SnapshotPublisher,
    scratch: &mut String,
) -> Result<(u64, u64), String> {
    let tenants = fleet.tenant_count() as u32;
    let mut malformed = 0u64;
    let mut unknown = 0u64;
    let mut source = NdjsonRecordSource::new(reader);
    let mut tagged = TaggedBatch::new();
    loop {
        // One decode pass: tenant tags and records come from the same walk
        // over each line; the fleet only copies columns.
        let mut ending = false;
        match source.next_tagged() {
            Ok(Some((tags, records))) => {
                let mut at = 0;
                while at < tags.len() && !ending {
                    // One same-tenant run, cut at the room left in this push.
                    let tenant = tags[at];
                    let room = RECORDS_PER_PUSH - tagged.len();
                    let same = tags[at..].iter().take(room);
                    let run = at..at + same.take_while(|tag| **tag == tenant).count();
                    at = run.end;
                    if tenant >= tenants {
                        unknown += run.len() as u64;
                    } else {
                        tagged.extend_from_batch(TenantId(tenant), records, run);
                    }
                    // A stop seen between two runs leaves the rest of the
                    // chunk as unread as the bytes behind it in the pipe.
                    ending = stop.load(Ordering::Acquire);
                    if tagged.len() == RECORDS_PER_PUSH {
                        push_window(fleet, &mut tagged, totals, malformed, publisher, scratch)?;
                        ending |= config.max_bins > 0 && totals.reports >= config.max_bins;
                    }
                }
            }
            Ok(None) => ending = true,
            Err(error) if error.is_recoverable() => malformed += 1,
            Err(error) => return Err(format!("stdin: {error}")),
        }
        // A stop ends the loop like EOF does: whatever was appended before it
        // was observed is pushed first, so a graceful stop drops nothing.
        if ending || stop.load(Ordering::Acquire) {
            if !tagged.is_empty() {
                push_window(fleet, &mut tagged, totals, malformed, publisher, scratch)?;
            }
            fleet.finish(totals);
            publish(fleet, totals, malformed, publisher, scratch);
            return Ok((malformed, unknown));
        }
    }
}

/// Pushes the accumulated records as one tagged window, empties them and
/// refreshes the snapshot.
fn push_window(
    fleet: &mut Fleet,
    tagged: &mut TaggedBatch,
    totals: &mut Totals,
    malformed: u64,
    publisher: &SnapshotPublisher,
    scratch: &mut String,
) -> Result<(), String> {
    fleet
        .try_push_tagged(tagged, totals)
        .map_err(|e| e.to_string())?;
    tagged.clear();
    publish(fleet, totals, malformed, publisher, scratch);
    Ok(())
}

fn finalize(fleet: &Fleet, totals: &Totals, malformed: u64, unknown: u64) -> FleetFinal {
    let mut summary = FleetFinal {
        tenants: fleet.tenant_count(),
        windows: fleet.windows(),
        reports: totals.reports,
        evictions: totals.evictions,
        malformed_skipped: malformed,
        unknown_tenant_skipped: unknown,
        ..FleetFinal::default()
    };
    for stats in fleet.tenant_stats() {
        summary.packets += stats.packets;
    }
    summary
}

/// Renders and publishes the fleet snapshot: totals plus the busiest
/// tenants by packet count.
fn publish(
    fleet: &Fleet,
    totals: &Totals,
    malformed: u64,
    publisher: &SnapshotPublisher,
    scratch: &mut String,
) {
    let mut stats: Vec<TenantStats> = fleet.tenant_stats().collect();
    let packets: u64 = stats.iter().map(|s| s.packets).sum();
    stats.sort_by(|a, b| b.packets.cmp(&a.packets).then(a.tenant.cmp(&b.tenant)));
    stats.truncate(5);
    scratch.clear();
    let _ = write!(
        scratch,
        "{{\"fleet\":{{\"tenants\":{},\"windows\":{},\"packets\":{packets},\"reports\":{},\"evictions\":{},\"malformed_skipped\":{malformed},\"busiest\":[",
        fleet.tenant_count(),
        fleet.windows(),
        totals.reports,
        totals.evictions,
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
    publisher.publish(scratch);
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

    #[test]
    fn replay_fleet_runs_to_completion_and_publishes() {
        let config = fleet_config("");
        let publisher = SnapshotPublisher::new();
        let stop = Arc::new(AtomicBool::new(false));
        let summary = run_fleet(&config, stop, &publisher).expect("fleet run");
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
        let mut fleet = build_fleet(&config);
        let publisher = SnapshotPublisher::new();
        let mut totals = Totals::default();
        let mut scratch = String::new();
        let stop = AtomicBool::new(false);
        let (malformed, unknown) = drive_records(
            &mut fleet,
            &input[..],
            &mut totals,
            &config,
            &stop,
            &publisher,
            &mut scratch,
        )
        .expect("record drive");
        assert_eq!(malformed, 2);
        assert_eq!(unknown, 1);
        let per_tenant: Vec<u64> = fleet.tenant_stats().map(|s| s.packets).collect();
        assert_eq!(per_tenant, vec![1, 1, 1]);
        assert!(totals.reports >= 3, "each tenant closes its final bin");
    }

    #[test]
    fn record_path_is_a_function_of_the_feed_not_of_how_reads_cut_it() {
        // 3000 records over five tags (one outside the slab) in runs of 1 to
        // 40, a bad line now and then, a flow budget small enough to evict:
        // read 7 bytes at a time and 64 KiB at a time, the pushes are cut at
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
            let mut fleet = build_fleet(&config);
            let mut totals = Totals::default();
            let (malformed, unknown) = drive_records(
                &mut fleet,
                std::io::BufReader::with_capacity(capacity, input.as_bytes()),
                &mut totals,
                &config,
                &AtomicBool::new(false),
                &SnapshotPublisher::new(),
                &mut String::new(),
            )
            .expect("record drive");
            let summary = finalize(&fleet, &totals, malformed, unknown);
            (summary, totals.digest.digest())
        };
        let (summary, digest) = drive(7);
        assert_eq!((summary, digest), drive(64 << 10));
        assert_eq!(summary.malformed_skipped, 31);
        assert!(summary.unknown_tenant_skipped > 0, "{summary:?}");
        assert_eq!(
            summary.packets + summary.unknown_tenant_skipped,
            3000,
            "{summary:?}"
        );
        let full_windows = summary.packets / RECORDS_PER_PUSH as u64;
        assert_eq!(
            summary.windows,
            full_windows + 1,
            "cut at 512 records exactly"
        );
        assert!(summary.evictions > 0 && summary.reports > 3, "{summary:?}");
    }

    #[test]
    fn graceful_stop_pushes_the_records_read_before_it() {
        // The stop flag is already up: the loop appends the first run of the
        // first chunk — one record — observes the stop and ends, after pushing
        // that record, not instead of it.
        let config = fleet_config("source = ndjson\n");
        let input: String = (0..3)
            .map(|i| record(i as f64 + 0.5, &format!(",\"tenant\":{i}")))
            .collect();
        let mut fleet = build_fleet(&config);
        let mut totals = Totals::default();
        drive_records(
            &mut fleet,
            input.as_bytes(),
            &mut totals,
            &config,
            &AtomicBool::new(true),
            &SnapshotPublisher::new(),
            &mut String::new(),
        )
        .expect("record drive");
        let per_tenant: Vec<u64> = fleet.tenant_stats().map(|s| s.packets).collect();
        assert_eq!(per_tenant, vec![1, 0, 0], "the record read before the stop");
        assert_eq!(totals.reports, 1, "and its bin is closed by the finish");
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
        // The final finish() still closes every tenant's last bin, so the
        // bound is `max_bins` pushed-window bins plus at most one per
        // tenant.
        assert!(summary.reports >= 2, "{summary:?}");
        assert!(summary.windows < 200, "stopped early: {summary:?}");
    }
}
