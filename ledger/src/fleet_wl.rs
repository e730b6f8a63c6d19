//! The `fleet_1k` workload: a thousand tenant monitors behind one `Fleet`,
//! fed 500 ms tagged windows.

use std::cell::Cell;
use std::time::{Duration, Instant};

use flowrank_fleet::{Fleet, FleetBuilder, FleetCollect, FleetSink, FleetSource, FleetSummary};
use flowrank_monitor::{BatchSource, BinReport, DigestSink, MonitorBuilder, ReportSink};
use flowrank_net::{PacketBatch, TaggedBatch, TenantId, Timestamp};
use flowrank_trace::FleetScenario;

use crate::harness::{
    leaf_spans, push_lag, render_new, Bench, MonitorShape, PassSample, Reading, Stage, Stages,
};
use crate::layers::monitor_layers;
use crate::replica::{verify, Replica};
use crate::spans::Recorder;
use crate::{mem, procfs, stats};

/// Synthesis window of the tagged stream.
const WINDOW_MS: u64 = 500;
/// Per-tenant flow-table cap.
const FLOW_BUDGET: usize = 1024;
/// Tenants whose report streams are checked against standalone monitors.
const SAMPLED: usize = 16;

/// `FLEET_MONITOR_SALT` and `splitmix64` of `flowrank-fleet`, which keeps
/// both private: how a tenant's monitor seed derives from the fleet seed.
/// The replica needs the seed itself, not a builder. A change over there
/// makes the replica's reports differ and fails the traced run.
fn tenant_monitor_seed(fleet_seed: u64, tenant: u32) -> u64 {
    let mut z = (fleet_seed ^ 0xF1EE_5EED_0000_0009 ^ u64::from(tenant))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Inputs, reference outputs and scratch of the fleet workload.
pub struct FleetBench {
    smoke: bool,
    tenants: u32,
    seed: u64,
    template: MonitorShape,
    windows: Vec<TaggedBatch>,
    packets: u64,
    /// `(tenant, that tenant's standalone packet stream, standalone digest)`.
    sampled: Vec<(TenantId, PacketBatch, u64)>,
    reference_reports: u64,
    synth_ns_per_pkt: f64,
    /// Built by `prepare_trace`: a measured run never pays for it.
    replica: Option<Replica>,
    scratch: Vec<PacketBatch>,
    captured: Vec<(TenantId, BinReport)>,
    segment_stats: (u64, u64),
    evictions: u64,
    builds_ns: Vec<f64>,
    push_ns: Vec<f64>,
    cpu_ticks: u64,
    cpu_packets: u64,
}

/// Hands out the materialised windows in order, stamping each hand-over as
/// the trigger the sink measures lag from.
struct StampedWindows<'a> {
    windows: &'a [TaggedBatch],
    next: usize,
    trigger: &'a Cell<Instant>,
    busy_ns: u64,
    /// Hand-over time of every window and of the end of the stream.
    handed: Vec<Instant>,
    /// Entry time of every call.
    entered: Vec<Instant>,
}

impl FleetSource for StampedWindows<'_> {
    fn next_tagged(&mut self) -> Option<&TaggedBatch> {
        let start = Instant::now();
        let window = self.windows.get(self.next);
        self.next += 1;
        let end = Instant::now();
        self.trigger.set(end);
        self.busy_ns += (end - start).as_nanos() as u64;
        self.entered.push(start);
        self.handed.push(end);
        window
    }
}

/// Folds one digest per sampled tenant and counts everything else.
struct TenantDigests {
    /// Index into `digests` per tenant, `u8::MAX` for an unsampled one.
    slot_of: Vec<u8>,
    digests: Vec<DigestSink>,
    reports: u64,
}

impl TenantDigests {
    fn new(tenants: u32, sampled: impl Iterator<Item = TenantId>) -> Self {
        let mut slot_of = vec![u8::MAX; tenants as usize];
        let mut digests = Vec::new();
        for tenant in sampled {
            slot_of[tenant.index()] = digests.len() as u8;
            digests.push(DigestSink::new());
        }
        TenantDigests {
            slot_of,
            digests,
            reports: 0,
        }
    }
}

impl FleetSink for TenantDigests {
    fn accept(&mut self, tenant: TenantId, report: &BinReport) {
        self.reports += 1;
        if let Some(digest) = self.digests.get_mut(self.slot_of[tenant.index()] as usize) {
            digest.accept(report);
        }
    }
}

/// Stamps each report's lag against the window being pushed.
struct LagSink<'a> {
    inner: TenantDigests,
    trigger: &'a Cell<Instant>,
    lags: &'a mut Vec<u64>,
    busy_ns: u64,
}

impl FleetSink for LagSink<'_> {
    fn accept(&mut self, tenant: TenantId, report: &BinReport) {
        let start = Instant::now();
        push_lag(
            self.lags,
            start
                .saturating_duration_since(self.trigger.get())
                .as_nanos() as u64,
        );
        self.inner.accept(tenant, report);
        self.busy_ns += start.elapsed().as_nanos() as u64;
    }
}

impl FleetBench {
    /// Generates the tagged windows from `seed` and computes the reference
    /// report count and the sampled tenants' standalone digests.
    pub fn setup(seed: u64, smoke: bool) -> Result<Self, String> {
        let (tenants, aggregate_scale) = if smoke { (50, 1.25) } else { (1000, 25.0) };
        let scenario = FleetScenario {
            aggregate_scale,
            ..FleetScenario::new(tenants)
        };
        let window = Timestamp::from_micros(WINDOW_MS * 1_000);
        let template = MonitorShape {
            rates: vec![0.01, 0.1],
            runs: 2,
            topk: None,
            top_t: 10,
            bin_secs: 60.0,
            seed,
            threads: 1,
        };

        let clock = Instant::now();
        let mut stream = scenario.stream_with_window(seed, window);
        let mut windows = Vec::new();
        while let Some(tagged) = stream.next_window() {
            windows.push(tagged.clone());
        }
        drop(stream);
        let synth_ns = clock.elapsed().as_nanos();
        let packets: u64 = windows.iter().map(|w| w.len() as u64).sum();
        if packets == 0 {
            return Err("the generator produced no packets".to_string());
        }

        let mut bench = FleetBench {
            smoke,
            tenants,
            seed,
            replica: None,
            template,
            windows,
            packets,
            sampled: Vec::new(),
            reference_reports: 0,
            synth_ns_per_pkt: synth_ns as f64 / packets as f64,
            scratch: (0..tenants).map(|_| PacketBatch::new()).collect(),
            captured: Vec::new(),
            segment_stats: (0, 0),
            evictions: 0,
            builds_ns: Vec::new(),
            push_ns: Vec::new(),
            cpu_ticks: 0,
            cpu_packets: 0,
        };

        // Reference report count from the other entry point: window-by-
        // window `push_tagged` plus `finish`, not `drive`.
        let mut fleet = bench.builder().build();
        let mut counted = TenantDigests::new(tenants, std::iter::empty());
        for tagged in &bench.windows {
            fleet.push_tagged(tagged, &mut counted);
        }
        fleet.finish(&mut counted);
        bench.reference_reports = counted.reports;

        // Standalone monitors for the sampled tenants: the tenant's own
        // builder (same seed, same budget) fed the tenant's own stream.
        let builder = bench.builder();
        let step = (tenants as usize / SAMPLED).max(1);
        for i in 0..SAMPLED.min(tenants as usize) {
            let tenant = TenantId(((i * step + 7) % tenants as usize) as u32);
            let mut packets = PacketBatch::new();
            let mut tenant_stream = scenario.tenant_stream_with_window(seed, tenant, window);
            while let Some(chunk) = tenant_stream.next_window() {
                packets.extend_from_batch(chunk, 0..chunk.len());
            }
            let mut digest = DigestSink::new();
            builder
                .tenant_builder(tenant)
                .build()
                .drive(&mut BatchSource::new(&packets), &mut digest);
            bench.sampled.push((tenant, packets, digest.digest()));
        }
        Ok(bench)
    }

    fn builder(&self) -> FleetBuilder {
        FleetBuilder::new(self.tenants)
            .monitor(self.template.builder())
            .seed(self.seed)
            .threads(1)
            .flow_budget(FLOW_BUDGET)
    }

    fn digests(&self) -> TenantDigests {
        TenantDigests::new(self.tenants, self.sampled.iter().map(|(t, _, _)| *t))
    }

    /// Makes the next pass's digest comparison fail, for the test that a
    /// wrong output is counted as a failed pass.
    pub fn corrupt_reference(&mut self) {
        self.sampled[0].2 ^= 1;
    }

    fn check(&self, summary: &FleetSummary, sink: &TenantDigests) -> Option<String> {
        if summary.packets != self.packets {
            return Some(format!(
                "{} packets driven, input holds {}",
                summary.packets, self.packets
            ));
        }
        if summary.reports != self.reference_reports || sink.reports != self.reference_reports {
            return Some(format!(
                "{} reports summarised, {} delivered, reference has {}",
                summary.reports, sink.reports, self.reference_reports
            ));
        }
        for ((tenant, _, standalone), digest) in self.sampled.iter().zip(&sink.digests) {
            if digest.digest() != *standalone {
                return Some(format!(
                    "{tenant}: fleet report digest {:#018x} differs from its standalone \
                     monitor's {standalone:#018x}",
                    digest.digest()
                ));
            }
        }
        None
    }

    fn tenant_streams(&self) -> Vec<(MonitorBuilder, &PacketBatch)> {
        let builder = self.builder();
        self.sampled
            .iter()
            .map(|(tenant, packets, _)| (builder.tenant_builder(*tenant), packets))
            .collect()
    }
}

fn sum_segment_stats(fleet: &Fleet, tenants: u32) -> (u64, u64) {
    (0..tenants)
        .filter_map(|t| fleet.monitor(TenantId(t)))
        .map(|monitor| monitor.segment_stats())
        .fold((0, 0), |sum, stats| (sum.0 + stats.0, sum.1 + stats.1))
}

impl Bench for FleetBench {
    fn input_packets(&self) -> u64 {
        self.packets
    }

    fn threads(&self) -> usize {
        1
    }

    fn synth_ns_per_pkt(&self) -> f64 {
        self.synth_ns_per_pkt
    }

    fn pass(
        &mut self,
        _index: usize,
        lags: &mut Vec<u64>,
        rec: Option<&mut Recorder>,
    ) -> PassSample {
        let clock = Instant::now();
        let mut fleet = self.builder().build();
        let build_ns = clock.elapsed().as_nanos() as u64;
        self.builds_ns.push(build_ns as f64);

        let trigger = Cell::new(Instant::now());
        let mut source = StampedWindows {
            windows: &self.windows,
            next: 0,
            trigger: &trigger,
            busy_ns: 0,
            handed: Vec::with_capacity(self.windows.len() + 1),
            entered: Vec::with_capacity(self.windows.len() + 1),
        };
        let mut sink = LagSink {
            inner: self.digests(),
            trigger: &trigger,
            lags,
            busy_ns: 0,
        };
        let ticks = procfs::cpu_ticks(None).unwrap_or(0);
        let start = Instant::now();
        let summary = fleet.drive(&mut source, &mut sink);
        let end = Instant::now();
        let cpu_ticks = procfs::cpu_ticks(None).unwrap_or(0).saturating_sub(ticks);

        self.segment_stats = sum_segment_stats(&fleet, self.tenants);
        self.evictions = summary.evictions;
        drop(fleet);
        let (source_ns, sink_ns) = (source.busy_ns, sink.busy_ns);
        // `push_tagged(i)` runs from window i's hand-over to the source's
        // next call; `finish` from the end-of-stream answer to the return.
        let pushes = source.handed.iter().zip(source.entered.iter().skip(1));
        if let Some(rec) = rec {
            let id = rec.open_at("fleet.drive", start);
            let calls = source.entered.iter().zip(&source.handed);
            leaf_spans(rec, "source.next_tagged", calls.map(|(s, e)| (*s, *e, 1)));
            let windows = self.windows.iter().map(|w| w.len() as u64);
            leaf_spans(
                rec,
                "fleet.push_tagged",
                pushes.clone().zip(windows).map(|((s, e), n)| (*s, *e, n)),
            );
            if let Some(last) = source.handed.last() {
                rec.leaf("fleet.finish", *last, end, 1);
            }
            rec.close_at(id, end, summary.packets);
            self.push_ns
                .extend(pushes.map(|(s, e)| (*e - *s).as_nanos() as f64));
        }
        let failure = self.check(&summary, &sink.inner);
        if failure.is_none() {
            self.cpu_ticks += cpu_ticks;
            self.cpu_packets += summary.packets;
        }
        PassSample {
            packets: summary.packets,
            wall_ns: (end - start).as_nanos() as u64,
            cpu_ticks,
            build_ns,
            source_ns,
            sink_ns,
            failure,
        }
    }

    fn prepare_trace(&mut self) -> Result<(), String> {
        let mut collect = FleetCollect::new();
        let mut fleet = self.builder().build();
        for tagged in &self.windows {
            fleet.push_tagged(tagged, &mut collect);
        }
        fleet.finish(&mut collect);
        self.captured = collect.reports;
        self.captured.retain(|(_, report)| report.packets > 0);
        self.captured
            .sort_by_key(|(tenant, report)| (*tenant, report.bin_index));
        let shapes: Vec<MonitorShape> = (0..self.tenants)
            .map(|t| MonitorShape {
                seed: tenant_monitor_seed(self.seed, t),
                ..self.template.clone()
            })
            .collect();
        self.replica = Some(Replica::new(&shapes));
        Ok(())
    }

    fn replica_pass(&mut self, stages: &mut Stages, rec: &mut Recorder) -> Result<(), String> {
        let mut sink = self.digests();
        let replica = self
            .replica
            .as_mut()
            .ok_or("replica_pass before prepare_trace")?;
        let id = rec.open("replica");
        let mut reports: Vec<(usize, BinReport)> = Vec::new();
        let mut rendered = 0usize;
        let mut render =
            |(t, report): &(usize, BinReport)| sink.accept(TenantId(*t as u32), report);
        let mut active: Vec<usize> = Vec::new();
        for tagged in &self.windows {
            for &t in &active {
                self.scratch[t].clear();
            }
            active.clear();
            let clock = Instant::now();
            for (tenant, range) in tagged.runs() {
                let slot = &mut self.scratch[tenant.index()];
                if slot.is_empty() {
                    active.push(tenant.index());
                }
                slot.extend_from_batch(tagged.batch(), range);
            }
            stages.add(Stage::Demux, clock, tagged.len() as u64, rec);
            let work: Vec<(usize, &PacketBatch)> =
                active.iter().map(|&t| (t, &self.scratch[t])).collect();
            replica.push(&work, stages, rec, &mut |t, report| {
                reports.push((t, report.clone()))
            });
            render_new(&reports, &mut rendered, stages, rec, &mut render);
        }
        for &t in &active {
            self.scratch[t].clear();
        }
        replica.finish(stages, rec, &mut |t, report| {
            reports.push((t, report.clone()))
        });
        render_new(&reports, &mut rendered, stages, rec, &mut render);
        stages.passes += 1;
        rec.close(id, self.packets);

        reports.sort_by_key(|(t, report)| (*t, report.bin_index));
        verify(
            reports.iter().map(|(t, r)| (*t, r)),
            self.captured.iter().map(|(t, r)| (t.index(), r)),
        )
    }

    fn replica(&self) -> Option<&Replica> {
        self.replica.as_ref()
    }

    fn segment_stats(&self) -> (u64, u64) {
        self.segment_stats
    }

    fn layers(&mut self, _rec: &mut Recorder) -> Result<(Vec<Reading>, Vec<Reading>), String> {
        let reports: Vec<BinReport> = self.captured.iter().map(|(_, r)| r.clone()).collect();
        let streams = self.tenant_streams();
        let common = monitor_layers(&streams, &reports, self.smoke);

        // The fixed cost of a window: one packet, so the clear, the walk
        // over every slot and the delivery are all that is left.
        let mut idle = TaggedBatch::new();
        let first = self.windows[0].batch();
        idle.extend_from_batch(self.windows[0].tenant(0), first, 0..1);
        let mut fleet = self.builder().build();
        let mut sink = TenantDigests::new(self.tenants, std::iter::empty());
        let idle_ns: Vec<f64> = (0..if self.smoke { 5 } else { 200 })
            .map(|_| {
                let clock = Instant::now();
                fleet.push_tagged(&idle, &mut sink);
                clock.elapsed().as_nanos() as f64
            })
            .collect();
        drop(fleet);

        // What the fleet adds to memory, per tenant.
        mem::reset_peak();
        let floor = mem::live_bytes();
        let mut fleet = self.builder().build();
        for tagged in &self.windows {
            fleet.push_tagged(tagged, &mut sink);
        }
        fleet.finish(&mut sink);
        let peak_bytes = mem::peak_bytes().saturating_sub(floor);
        drop(fleet);

        // CPU per packet of the sampled tenants as standalone monitors,
        // swept until the tick counter has something to count.
        let sweep_for = Duration::from_millis(if self.smoke { 50 } else { 1000 });
        let ticks = procfs::cpu_ticks(None).unwrap_or(0);
        let clock = Instant::now();
        let mut standalone_packets = 0u64;
        while clock.elapsed() < sweep_for {
            for (builder, packets) in &streams {
                let mut digest = DigestSink::new();
                builder
                    .clone()
                    .build()
                    .drive(&mut BatchSource::new(packets), &mut digest);
                standalone_packets += packets.len() as u64;
            }
        }
        let standalone_ticks = procfs::cpu_ticks(None).unwrap_or(0).saturating_sub(ticks);
        let cost_vs_standalone = if standalone_ticks == 0 || self.cpu_packets == 0 {
            0.0
        } else {
            (self.cpu_ticks as f64 / self.cpu_packets as f64)
                / (standalone_ticks as f64 / standalone_packets as f64)
        };

        // The same windows on two fleet workers. Not an end-to-end
        // configuration: its per-window scoped spawns make it erratic.
        let mut t2_rates = Vec::new();
        let clock = Instant::now();
        while t2_rates.is_empty() || (!self.smoke && clock.elapsed() < Duration::from_secs(2)) {
            let mut fleet = self.builder().threads(2).build();
            let pass = Instant::now();
            for tagged in &self.windows {
                fleet.push_tagged(tagged, &mut sink);
            }
            fleet.finish(&mut sink);
            t2_rates.push(self.packets as f64 / pass.elapsed().as_secs_f64());
        }

        let mut push_ns = std::mem::take(&mut self.push_ns);
        stats::sort(&mut push_ns);
        let runs: usize = self.windows.iter().map(|w| w.runs().count()).sum();
        let detail = vec![
            (
                "fleet.build_ms",
                stats::median(&self.builds_ns).unwrap_or(0.0) / 1e6,
            ),
            (
                "fleet.push_window_us_p50",
                stats::median_sorted(&push_ns).unwrap_or(0.0) / 1e3,
            ),
            (
                "fleet.push_window_us_p95",
                stats::tail_percentile(&push_ns, 0.95, 10).map_or(0.0, |(v, _)| v) / 1e3,
            ),
            (
                "fleet.idle_window_us",
                stats::median(&idle_ns).unwrap_or(0.0) / 1e3,
            ),
            (
                "fleet.active_tenant_share",
                runs as f64 / (self.windows.len() as f64 * self.tenants as f64),
            ),
            ("fleet.evictions", self.evictions as f64),
            ("fleet.cost_vs_standalone", cost_vs_standalone),
            (
                "fleet.mem_per_tenant_kib",
                peak_bytes as f64 / 1024.0 / self.tenants as f64,
            ),
            (
                "fleet.threads2_pkts_per_s",
                stats::median(&t2_rates).unwrap_or(0.0),
            ),
        ];
        Ok((common, detail))
    }
}
