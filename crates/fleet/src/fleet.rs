//! The tenant slab and its drive loop.
//!
//! A [`Fleet`] owns one serial [`Monitor`] per tenant in a slab indexed by
//! [`TenantId`]. Every [`Fleet::push_tagged`] call runs two phases:
//!
//! 1. **Runs pushed in place** — one pass over the tagged window's maximal
//!    tenant runs hands each run to its tenant's monitor as a range of the
//!    window ([`Monitor::push_range_into`]); the packets were decoded and
//!    key-derived once upstream, and nothing is copied per tenant. With
//!    several workers the slab is split into contiguous chunks, and each
//!    worker walks the runs and pushes its own chunk's. A tenant belongs to
//!    the same worker for the fleet's lifetime, and its monitor is serial,
//!    so the per-tenant computation is identical at any fleet thread count.
//! 2. **Ordered delivery** — bins closed while pushing are buffered per
//!    tenant and handed to the [`FleetSink`] in (tenant, bin index) order
//!    on the calling thread. The pass notes each tenant whose bins close,
//!    and delivery sorts and walks only those slots.
//!
//! The combination makes the whole fleet a pure function of its
//! configuration and the tagged stream: reports are bit-identical to N
//! standalone monitors driven from the per-tenant streams, at threads 1,
//! 2, 4 or anything else — the `fleet_conformance` suite pins exactly
//! that.

use flowrank_monitor::{BinReport, Monitor, MonitorBuilder, ReportSink};
use flowrank_net::{TaggedBatch, TenantId};

use crate::source::FleetSource;

/// Salt separating per-tenant monitor-seed derivation from every other
/// consumer of the fleet seed (the trace-side tenant salt included).
const FLEET_MONITOR_SALT: u64 = 0xF1EE_5EED_0000_0009;

/// splitmix64 finaliser: full-avalanche mixing for tenant seed derivation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Receives each tenant's closed bins, in (tenant, bin index) order.
///
/// The fleet-level analogue of [`ReportSink`]: the borrow is only valid
/// inside the call, and within one [`Fleet::push_tagged`] the sink sees
/// tenants in ascending id order, each tenant's bins in closing order.
pub trait FleetSink {
    /// Accepts one closed bin of one tenant.
    fn accept(&mut self, tenant: TenantId, report: &BinReport);

    /// Called by [`Fleet::drive`] after each window's delivery and after the
    /// final [`Fleet::finish`], to look at the whole fleet. A no-op by default.
    fn window_done(&mut self, _fleet: &Fleet) {}
}

impl<S: FleetSink + ?Sized> FleetSink for &mut S {
    fn accept(&mut self, tenant: TenantId, report: &BinReport) {
        (**self).accept(tenant, report)
    }

    fn window_done(&mut self, fleet: &Fleet) {
        (**self).window_done(fleet)
    }
}

/// A [`FleetSink`] that owns every report it is offered — the fleet-level
/// `Collect`, used by tests and small drives.
#[derive(Debug, Default)]
pub struct FleetCollect {
    /// Collected `(tenant, report)` pairs in delivery order.
    pub reports: Vec<(TenantId, BinReport)>,
}

impl FleetCollect {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected reports of one tenant, in bin order.
    pub fn tenant_reports(&self, tenant: TenantId) -> Vec<&BinReport> {
        self.reports
            .iter()
            .filter(|(t, _)| *t == tenant)
            .map(|(_, r)| r)
            .collect()
    }
}

impl FleetSink for FleetCollect {
    fn accept(&mut self, tenant: TenantId, report: &BinReport) {
        self.reports.push((tenant, report.clone()));
    }
}

/// Lifetime statistics of one tenant slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Packets demultiplexed to the tenant.
    pub packets: u64,
    /// Bins the tenant's monitor closed.
    pub reports: u64,
    /// Flow-table entries the tenant's budget evicted, summed over bins.
    pub evictions: u64,
}

/// Aggregate outcome of one [`Fleet::drive`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetSummary {
    /// Tenants hosted.
    pub tenants: usize,
    /// Tagged windows consumed from the source.
    pub windows: u64,
    /// Packets demultiplexed across all tenants.
    pub packets: u64,
    /// Bins delivered across all tenants.
    pub reports: u64,
    /// Budget evictions across all tenants.
    pub evictions: u64,
}

/// One tenant's slot in the slab: its monitor and the bins it closed in
/// the current window.
#[derive(Debug)]
struct TenantSlot {
    tenant: TenantId,
    monitor: Monitor,
    /// Bins closed during the current window, awaiting ordered delivery.
    pending: Vec<BinReport>,
    stats: TenantStats,
}

/// Buffers closed bins while runs are pushed (reports must not cross
/// worker threads unordered — they are delivered later in tenant order).
struct BufSink<'a>(&'a mut Vec<BinReport>);

impl ReportSink for BufSink<'_> {
    fn accept(&mut self, report: &BinReport) {
        self.0.push(report.clone());
    }
}

impl TenantSlot {
    /// Delivers the slot's buffered bins to `sink` and folds their
    /// statistics. Runs on the calling thread, in tenant order.
    fn deliver<S: FleetSink + ?Sized>(&mut self, sink: &mut S) {
        for report in self.pending.drain(..) {
            self.stats.reports += 1;
            self.stats.evictions += report.evictions;
            sink.accept(self.tenant, &report);
        }
    }
}

/// Pushes every run of `tagged` whose tenant has a slot in `slots` (the
/// slab's chunk from tenant `first` on) to that tenant's monitor. Returns
/// the tenants whose first bin of the window closed.
fn push_runs(slots: &mut [TenantSlot], first: usize, tagged: &TaggedBatch) -> Vec<usize> {
    let mut active = Vec::new();
    for (tenant, range) in tagged.runs() {
        // A tenant before the chunk wraps to an index past its end.
        let Some(slot) = slots.get_mut(tenant.index().wrapping_sub(first)) else {
            continue;
        };
        let idle = slot.pending.is_empty();
        slot.stats.packets += range.len() as u64;
        let mut sink = BufSink(&mut slot.pending);
        slot.monitor
            .push_range_into(tagged.batch(), range, &mut sink);
        if idle && !slot.pending.is_empty() {
            active.push(tenant.index());
        }
    }
    active
}

/// Fluent builder for [`Fleet`].
///
/// ```
/// use flowrank_fleet::FleetBuilder;
/// use flowrank_monitor::{MonitorBuilder, SamplerSpec};
///
/// let fleet = FleetBuilder::new(100)
///     .monitor(MonitorBuilder::new().sampler(SamplerSpec::Random { rate: 0.1 }))
///     .threads(4)
///     .flow_budget(256)
///     .build();
/// assert_eq!(fleet.tenant_count(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    tenants: u32,
    template: MonitorBuilder,
    seed: u64,
    threads: usize,
    flow_budget: Option<usize>,
}

impl FleetBuilder {
    /// A fleet of `tenants` monitors (at least 1) built from the default
    /// monitor template.
    pub fn new(tenants: u32) -> Self {
        FleetBuilder {
            tenants: tenants.max(1),
            template: MonitorBuilder::new(),
            seed: 0xF1EE_2026,
            threads: 1,
            flow_budget: None,
        }
    }

    /// The monitor template every tenant is built from. Tenant monitors
    /// are always serial — the fleet provides the parallelism — so any
    /// `threads` setting on the template is overridden to 1.
    pub fn monitor(mut self, template: MonitorBuilder) -> Self {
        self.template = template;
        self
    }

    /// Fleet master seed: each tenant's monitor seed is derived from it
    /// (splitmix64 over the fleet salt and the tenant id), so tenants
    /// sample independently while the whole fleet stays a pure function
    /// of one seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fleet-level worker threads. Tenants are partitioned into contiguous
    /// slab chunks, one per worker (the calling thread takes the first);
    /// reports are bit-identical at any setting (tenant-affine routing
    /// keeps each tenant's computation sequential on one worker).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Per-tenant flow budget: each tenant's monitor sheds its coldest
    /// flows back to this cap (space-saving-style,
    /// recorded on [`BinReport::evictions`]), bounding fleet memory by
    /// `tenants × budget` instead of by traffic.
    pub fn flow_budget(mut self, budget: usize) -> Self {
        self.flow_budget = Some(budget.max(1));
        self
    }

    /// The exact builder a standalone monitor for `tenant` would use —
    /// template plus derived seed, serial, budget applied. The
    /// fleet-vs-standalone conformance suite drives monitors built from
    /// this against the fleet and requires bit-identical reports.
    pub fn tenant_builder(&self, tenant: TenantId) -> MonitorBuilder {
        let seed = splitmix64(self.seed ^ FLEET_MONITOR_SALT ^ u64::from(tenant.0));
        let mut builder = self.template.clone().seed(seed).threads(1);
        if let Some(budget) = self.flow_budget {
            builder = builder.flow_budget(budget);
        }
        builder
    }

    /// Builds the slab.
    pub fn build(self) -> Fleet {
        let slots = (0..self.tenants)
            .map(|t| {
                let tenant = TenantId(t);
                TenantSlot {
                    tenant,
                    monitor: self.tenant_builder(tenant).build(),
                    pending: Vec::new(),
                    stats: TenantStats {
                        tenant,
                        ..TenantStats::default()
                    },
                }
            })
            .collect();
        Fleet {
            slots,
            threads: self.threads,
            windows: 0,
        }
    }
}

/// N tenant monitors behind one slab: one decode pass, tenant-affine
/// workers, deterministic delivery. Built by [`FleetBuilder`].
#[derive(Debug)]
pub struct Fleet {
    slots: Vec<TenantSlot>,
    threads: usize,
    windows: u64,
}

impl Fleet {
    /// Number of tenants hosted.
    pub fn tenant_count(&self) -> usize {
        self.slots.len()
    }

    /// Tagged windows pushed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// One tenant's monitor (read-only; the fleet owns all mutation).
    pub fn monitor(&self, tenant: TenantId) -> Option<&Monitor> {
        self.slots.get(tenant.index()).map(|slot| &slot.monitor)
    }

    /// Lifetime statistics per tenant, in tenant order.
    pub fn tenant_stats(&self) -> impl Iterator<Item = TenantStats> + '_ {
        self.slots.iter().map(|slot| slot.stats)
    }

    /// Observes one tenant-tagged window: pushes each tenant run in place
    /// to its tenant's monitor (across [`FleetBuilder::threads`] workers,
    /// tenant-affine), then delivers the bins it closed in (tenant, bin)
    /// order, walking only the tenants that closed one.
    ///
    /// Panics on a tenant id outside the slab, before any tenant observes a
    /// packet of the window: a live feed, whose tags come from untrusted
    /// records, counts and drops those records before it pushes.
    pub fn push_tagged<S: FleetSink + ?Sized>(&mut self, tagged: &TaggedBatch, sink: &mut S) {
        let tenants = self.slots.len();
        if let Some(bad) = tagged.tenants().iter().find(|t| t.index() >= tenants) {
            panic!("unknown tenant {}: fleet hosts tenants 0..{tenants}", bad.0);
        }
        self.windows += 1;
        // The calling thread takes the first chunk, a scoped worker each
        // of the others.
        let chunk = tenants.div_ceil(self.threads.min(tenants).max(1));
        let mut chunks = self.slots.chunks_mut(chunk);
        let first = chunks.next().expect("a fleet hosts at least one tenant");
        let mut active = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..)
                .zip(chunks)
                .map(|(w, slots)| scope.spawn(move || push_runs(slots, w * chunk, tagged)))
                .collect();
            let mut active = push_runs(first, 0, tagged);
            for worker in workers {
                let closed = worker
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e));
                active.extend(closed);
            }
            active
        });
        active.sort_unstable();
        for tenant in active {
            self.slots[tenant].deliver(sink);
        }
    }

    /// Closes every tenant's final bin, delivering the last reports in
    /// tenant order. Idempotent like [`Monitor::finish_into`].
    pub fn finish<S: FleetSink + ?Sized>(&mut self, sink: &mut S) {
        for slot in &mut self.slots {
            let mut buffer = BufSink(&mut slot.pending);
            slot.monitor.finish_into(&mut buffer);
            slot.deliver(sink);
        }
    }

    /// Pulls `source` to exhaustion through [`Fleet::push_tagged`], then
    /// [`Fleet::finish`]es, returning the aggregate summary; the sink's
    /// [`FleetSink::window_done`] runs after each window and after the finish.
    /// The one loop over a [`FleetSource`]: to stop early, the source ends.
    pub fn drive<S, K>(&mut self, source: &mut S, sink: &mut K) -> FleetSummary
    where
        S: FleetSource + ?Sized,
        K: FleetSink + ?Sized,
    {
        let windows_before = self.windows;
        while let Some(batch) = source.next_tagged() {
            self.push_tagged(batch, sink);
            sink.window_done(self);
        }
        self.finish(sink);
        sink.window_done(self);
        let mut summary = FleetSummary {
            tenants: self.slots.len(),
            windows: self.windows - windows_before,
            ..FleetSummary::default()
        };
        for stats in self.tenant_stats() {
            summary.packets += stats.packets;
            summary.reports += stats.reports;
            summary.evictions += stats.evictions;
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_monitor::SamplerSpec;
    use flowrank_trace::FleetScenario;

    fn template() -> MonitorBuilder {
        MonitorBuilder::new()
            .sampler(SamplerSpec::Random { rate: 0.2 })
            .runs(2)
    }

    fn fleet_reports(scenario: &FleetScenario, seed: u64, threads: usize) -> FleetCollect {
        let mut fleet = FleetBuilder::new(scenario.tenants)
            .monitor(template())
            .seed(seed)
            .threads(threads)
            .build();
        let mut sink = FleetCollect::new();
        let summary = fleet.drive(&mut scenario.stream(seed), &mut sink);
        assert_eq!(summary.tenants, scenario.tenants as usize);
        assert!(summary.packets > 0);
        sink
    }

    #[test]
    fn fleet_matches_standalone_monitors_bit_for_bit() {
        let scenario = FleetScenario::new(4);
        let seed = 0xF1EE;
        let fleet = fleet_reports(&scenario, seed, 1);
        let builder = FleetBuilder::new(scenario.tenants)
            .monitor(template())
            .seed(seed);
        for t in 0..scenario.tenants {
            let tenant = TenantId(t);
            let mut standalone = builder.tenant_builder(tenant).build();
            let mut stream = scenario.tenant_stream(seed, tenant);
            let mut reports = flowrank_monitor::Collect::new();
            while let Some(batch) = stream.next_window() {
                standalone.push_batch_into(batch, &mut reports);
            }
            standalone.finish_into(&mut reports);
            let reports = reports.reports;
            let fleet_side = fleet.tenant_reports(tenant);
            assert_eq!(fleet_side.len(), reports.len(), "tenant {t} bin count");
            for (ours, theirs) in fleet_side.iter().zip(&reports) {
                assert_eq!(*ours, theirs, "tenant {t} report");
            }
        }
    }

    #[test]
    fn fleet_reports_are_thread_count_invariant_and_ordered() {
        let scenario = FleetScenario::new(5);
        let seed = 99;
        let one = fleet_reports(&scenario, seed, 1);
        let two = fleet_reports(&scenario, seed, 2);
        let four = fleet_reports(&scenario, seed, 4);
        assert_eq!(one.reports, two.reports);
        assert_eq!(one.reports, four.reports);
        // Delivery order is (tenant, bin) within each push; bins per
        // tenant must be strictly increasing overall.
        for t in 0..scenario.tenants {
            let bins: Vec<u64> = one
                .tenant_reports(TenantId(t))
                .iter()
                .map(|r| r.bin_index)
                .collect();
            assert!(bins.windows(2).all(|w| w[0] < w[1]), "tenant {t}: {bins:?}");
        }
    }

    #[test]
    fn budget_bounds_flow_tables_and_reports_evictions() {
        let scenario = FleetScenario {
            tenants: 2,
            aggregate_scale: 1.0,
            diurnal_depth: 0.0,
            phase_groups: 1,
        };
        let budget = 8;
        let mut fleet = FleetBuilder::new(scenario.tenants)
            .monitor(template())
            .seed(3)
            .flow_budget(budget)
            .build();
        let mut sink = FleetCollect::new();
        let summary = fleet.drive(&mut scenario.stream(3), &mut sink);
        assert!(summary.evictions > 0, "budget must engage: {summary:?}");
        for (tenant, _) in &sink.reports {
            let monitor = fleet.monitor(*tenant).expect("hosted tenant");
            assert_eq!(monitor.flow_budget(), Some(budget));
        }
        // Eviction trail is deterministic.
        let mut fleet2 = FleetBuilder::new(scenario.tenants)
            .monitor(template())
            .seed(3)
            .flow_budget(budget)
            .build();
        let mut sink2 = FleetCollect::new();
        let summary2 = fleet2.drive(&mut scenario.stream(3), &mut sink2);
        assert_eq!(summary, summary2);
        assert_eq!(sink.reports, sink2.reports);
    }

    #[test]
    fn drive_calls_window_done_after_every_window_and_the_finish() {
        /// Window counts at each call, beside an `accept`-only (default) sink.
        struct Windows(Vec<u64>, FleetCollect);
        impl FleetSink for Windows {
            fn accept(&mut self, tenant: TenantId, report: &BinReport) {
                self.1.accept(tenant, report);
            }
            fn window_done(&mut self, fleet: &Fleet) {
                self.0.push(fleet.windows());
                self.1.window_done(fleet);
            }
        }
        let scenario = FleetScenario::new(3);
        let mut fleet = FleetBuilder::new(3).monitor(template()).seed(5).build();
        let mut sink = Windows(Vec::new(), FleetCollect::new());
        // Through the `&mut S` forwarder, so it must forward the hook too.
        let summary = fleet.drive(&mut scenario.stream(5), &mut &mut sink);
        let expected: Vec<u64> = (1..=summary.windows).chain([summary.windows]).collect();
        assert_eq!(sink.0, expected, "one per window, one after finish");
        assert_eq!(sink.1.reports, fleet_reports(&scenario, 5, 1).reports);
    }

    #[test]
    fn unknown_tenants_are_rejected_before_any_observation() {
        let mut fleet = FleetBuilder::new(2).monitor(template()).build();
        let mut tagged = TaggedBatch::new();
        tagged.push_columns(TenantId(0), 10, 1, 64, None);
        tagged.push_columns(TenantId(7), 20, 2, 64, None);
        let mut sink = FleetCollect::new();
        let push = std::panic::AssertUnwindSafe(|| fleet.push_tagged(&tagged, &mut sink));
        let payload = std::panic::catch_unwind(push).expect_err("tenant 7 is not hosted");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(message, "unknown tenant 7: fleet hosts tenants 0..2");
        // Tenant 0 must not have observed its packet.
        assert_eq!(fleet.tenant_stats().map(|s| s.packets).sum::<u64>(), 0);
        assert_eq!(fleet.windows(), 0);
    }
}
