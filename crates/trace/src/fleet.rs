//! The fleet scenario: N tenants with heterogeneous workload mixes and
//! diurnal intensity envelopes, streamed as tenant-tagged batches.
//!
//! The multi-tenant fleet layer (`flowrank-fleet`) hosts thousands of
//! independent monitored links in one process; this module is the traffic
//! side of that story. A [`FleetScenario`] assigns every tenant one
//! scenario from the existing [`Workload::catalog`] (round-robin, so a
//! fleet mixes heavy-tail links with flood victims and scan targets),
//! shapes each tenant's intensity with a deterministic diurnal envelope
//! (tenants are spread across phase groups, like links in different time
//! zones), and normalises intensities by the tenant count so the *fleet
//! aggregate* stays at catalog scale — growing the tenant count splits the
//! same traffic across more links instead of multiplying total load, which
//! is exactly the regime where one amortised decode pass pays off.
//!
//! [`FleetScenario::stream`] merges the per-tenant packet streams window by
//! window into [`TaggedBatch`]es: within one window, tenants appear in
//! tenant order as contiguous runs, and within each tenant packets are in
//! the tenant's own canonical stream order. A fleet demultiplexer that
//! routes runs to tenants therefore feeds every tenant monitor *exactly*
//! the chunk sequence [`FleetScenario::tenant_stream`] would feed a
//! standalone monitor — the property the fleet-vs-standalone conformance
//! suite pins bit-identically.
//!
//! Everything is a pure function of `(scenario parameters, seed)`: tenant
//! seeds are derived with a splitmix64 mix, the envelope is piecewise
//! linear (no transcendentals), and window merging follows tenant order.

use flowrank_net::tenant::{TaggedBatch, TenantId};
use flowrank_net::Timestamp;

use crate::stream::{SynthesisStream, DEFAULT_WINDOW};
use crate::workloads::Workload;

/// Salt separating per-tenant seed derivation from every other consumer of
/// the fleet seed.
const FLEET_TENANT_SALT: u64 = 0xF1EE_7AB1_E000_0007;

/// splitmix64 finaliser: full-avalanche mixing for tenant seed derivation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fleet of N tenant links with heterogeneous scenario mixes and diurnal
/// intensity envelopes, built entirely from the existing catalog +
/// [`Workload::scaled`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetScenario {
    /// Number of tenants (monitored links) in the fleet, at least 1.
    pub tenants: u32,
    /// Aggregate intensity: the fleet-wide load is roughly this multiple of
    /// one catalog-scale scenario, independent of the tenant count (each
    /// tenant runs at `aggregate_scale / tenants` before its envelope).
    pub aggregate_scale: f64,
    /// Depth of the diurnal envelope in `[0, 1]`: an off-peak tenant runs
    /// at `1 - diurnal_depth` of its peak intensity. `0` flattens the fleet.
    pub diurnal_depth: f64,
    /// Number of phase groups the tenants are spread across (time zones);
    /// tenant `t` sits at phase `t mod groups`.
    pub phase_groups: u32,
}

impl FleetScenario {
    /// A fleet of `tenants` links at the default mix: catalog aggregate
    /// scale, 60% diurnal depth, 4 phase groups.
    pub fn new(tenants: u32) -> Self {
        FleetScenario {
            tenants: tenants.max(1),
            aggregate_scale: 1.0,
            diurnal_depth: 0.6,
            phase_groups: 4,
        }
    }

    /// Stable scenario name (`reproduce --fleet` keys on it).
    pub fn name(&self) -> &'static str {
        "fleet"
    }

    /// The tenant's diurnal intensity factor in `[1 - diurnal_depth, 1]`:
    /// a piecewise-linear peak/off-peak cycle across the phase groups
    /// (tenant 0 at peak), deterministic with no transcendentals.
    pub fn tenant_envelope(&self, tenant: TenantId) -> f64 {
        let depth = self.diurnal_depth.clamp(0.0, 1.0);
        let groups = self.phase_groups.max(1);
        let x = (tenant.0 % groups) as f64 / groups as f64;
        (1.0 - depth) + depth * (2.0 * x - 1.0).abs()
    }

    /// The tenant's full intensity multiplier: envelope over the
    /// tenant-count normalisation.
    pub(crate) fn tenant_intensity(&self, tenant: TenantId) -> f64 {
        self.aggregate_scale / self.tenants as f64 * self.tenant_envelope(tenant)
    }

    /// The tenant's workload: its round-robin catalog scenario scaled to
    /// its intensity.
    pub fn tenant_workload(&self, tenant: TenantId) -> Workload {
        let catalog = Workload::catalog();
        let base = catalog[tenant.index() % catalog.len()];
        base.scaled(self.tenant_intensity(tenant))
    }

    /// The tenant's derived seed: a splitmix64 mix of the fleet seed, the
    /// fleet salt and the tenant index, so tenants draw independent
    /// randomness from one fleet-level seed.
    pub(crate) fn tenant_seed(&self, seed: u64, tenant: TenantId) -> u64 {
        splitmix64(seed ^ FLEET_TENANT_SALT ^ u64::from(tenant.0))
    }

    /// Opens one tenant's packet stream exactly as a standalone monitor
    /// would consume it — the per-tenant reference the fleet conformance
    /// suite drives N independent monitors with.
    pub fn tenant_stream(&self, seed: u64, tenant: TenantId) -> SynthesisStream {
        self.tenant_stream_with_window(seed, tenant, DEFAULT_WINDOW)
    }

    /// [`FleetScenario::tenant_stream`] with an explicit window length.
    pub fn tenant_stream_with_window(
        &self,
        seed: u64,
        tenant: TenantId,
        window: Timestamp,
    ) -> SynthesisStream {
        self.tenant_workload(tenant)
            .stream_with_window(self.tenant_seed(seed, tenant), window)
    }

    /// Opens the whole fleet as one tenant-tagged stream: per-tenant
    /// synthesis streams merged window by window (see [`FleetStream`]).
    pub fn stream(&self, seed: u64) -> FleetStream {
        self.stream_with_window(seed, DEFAULT_WINDOW)
    }

    /// [`FleetScenario::stream`] with an explicit window length (chunk
    /// granularity only — each tenant's packet sequence is invariant).
    pub fn stream_with_window(&self, seed: u64, window: Timestamp) -> FleetStream {
        let window = if window == Timestamp::ZERO {
            DEFAULT_WINDOW
        } else {
            window
        };
        let lanes = (0..self.tenants)
            .map(|t| {
                let tenant = TenantId(t);
                TenantLane {
                    tenant,
                    stream: self.tenant_stream_with_window(seed, tenant, window),
                    pending: None,
                    done: false,
                }
            })
            .collect();
        FleetStream {
            lanes,
            window_nanos: window.as_nanos(),
            tagged: TaggedBatch::new(),
        }
    }
}

/// One tenant's slot in the merged fleet stream.
#[derive(Debug)]
struct TenantLane {
    tenant: TenantId,
    stream: SynthesisStream,
    /// The tenant's next window, held until the merge reaches its index:
    /// `(window index, packets)`.
    pending: Option<(u64, flowrank_net::PacketBatch)>,
    done: bool,
}

impl TenantLane {
    /// Ensures `pending` holds the tenant's next non-empty window.
    fn refill(&mut self) {
        if self.done || self.pending.is_some() {
            return;
        }
        match self.stream.next_window() {
            None => self.done = true,
            Some(batch) => {
                // The stream yields whole windows of its fixed window
                // length, so the first timestamp identifies the index.
                let index = batch.ts_nanos().first().copied().unwrap_or(0);
                self.pending = Some((index, batch.clone()));
            }
        }
    }
}

/// The merged, tenant-tagged packet stream of a whole fleet.
///
/// Each call to [`FleetStream::next_window`] produces the earliest
/// not-yet-emitted time window that any tenant has traffic in, as one
/// [`TaggedBatch`]: tenants in tenant order, each as one contiguous run,
/// each run in the tenant's own canonical stream order. Concatenating a
/// tenant's runs across all windows reproduces that tenant's
/// [`FleetScenario::tenant_stream`] byte for byte — the invariant that
/// makes fleet demultiplexing conformance-testable against standalone
/// monitors.
#[derive(Debug)]
pub struct FleetStream {
    lanes: Vec<TenantLane>,
    window_nanos: u64,
    tagged: TaggedBatch,
}

impl FleetStream {
    /// Synthesises the next non-empty fleet window, or `None` when every
    /// tenant is exhausted. The returned batch is owned by the stream and
    /// overwritten by the next call.
    pub fn next_window(&mut self) -> Option<&TaggedBatch> {
        for lane in &mut self.lanes {
            lane.refill();
        }
        let window_nanos = self.window_nanos;
        let next = self
            .lanes
            .iter()
            .filter_map(|lane| lane.pending.as_ref().map(|(ts, _)| *ts / window_nanos))
            .min()?;
        self.tagged.clear();
        for lane in &mut self.lanes {
            let due = matches!(&lane.pending, Some((ts, _)) if *ts / window_nanos == next);
            if due {
                let (_, batch) = lane.pending.take().expect("checked above");
                self.tagged
                    .extend_from_batch(lane.tenant, &batch, 0..batch.len());
            }
        }
        Some(&self.tagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_net::PacketBatch;

    fn drain_tagged(scenario: &FleetScenario, seed: u64) -> Vec<TaggedBatch> {
        let mut stream = scenario.stream(seed);
        let mut out = Vec::new();
        while let Some(batch) = stream.next_window() {
            assert!(!batch.is_empty(), "never yields empty fleet windows");
            out.push(batch.clone());
        }
        out
    }

    #[test]
    fn merged_stream_reproduces_every_tenant_stream() {
        let scenario = FleetScenario {
            tenants: 5,
            aggregate_scale: 1.0,
            diurnal_depth: 0.6,
            phase_groups: 3,
        };
        let seed = 0xF1EE7;
        let windows = drain_tagged(&scenario, seed);
        // Reassemble each tenant's packets from the tagged runs…
        let mut per_tenant: Vec<PacketBatch> =
            (0..scenario.tenants).map(|_| PacketBatch::new()).collect();
        for window in &windows {
            let mut last_seen: Option<TenantId> = None;
            for (tenant, range) in window.runs() {
                // …tenants appear in order, one run each, per window.
                assert!(last_seen.is_none_or(|prev| prev < tenant), "tenant order");
                last_seen = Some(tenant);
                per_tenant[tenant.index()].extend_from_batch(window.batch(), range);
            }
        }
        // …and each must equal the standalone tenant stream byte for byte.
        for t in 0..scenario.tenants {
            let mut reference = PacketBatch::new();
            let mut stream = scenario.tenant_stream(seed, TenantId(t));
            while let Some(batch) = stream.next_window() {
                reference.extend_from_batch(batch, 0..batch.len());
            }
            assert_eq!(per_tenant[t as usize], reference, "tenant {t}");
            assert!(!reference.is_empty(), "tenant {t} has traffic");
        }
    }

    #[test]
    fn fleet_stream_is_deterministic_and_seed_sensitive() {
        let scenario = FleetScenario::new(4);
        let a = drain_tagged(&scenario, 1);
        let b = drain_tagged(&scenario, 1);
        let c = drain_tagged(&scenario, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(scenario.stream(1).lanes.len(), 4);
    }

    #[test]
    fn envelope_and_intensity_follow_the_phase_groups() {
        let scenario = FleetScenario {
            tenants: 8,
            aggregate_scale: 2.0,
            diurnal_depth: 0.5,
            phase_groups: 4,
        };
        // Peak at phase 0, trough mid-cycle, piecewise linear between.
        assert_eq!(scenario.tenant_envelope(TenantId(0)), 1.0);
        assert_eq!(scenario.tenant_envelope(TenantId(2)), 0.5);
        assert_eq!(scenario.tenant_envelope(TenantId(4)), 1.0, "cycle repeats");
        // Intensity divides the aggregate across tenants.
        let peak = scenario.tenant_intensity(TenantId(0));
        assert!((peak - 2.0 / 8.0).abs() < 1e-12);
        // Workloads round-robin the catalog.
        let catalog = Workload::catalog();
        assert_eq!(
            scenario.tenant_workload(TenantId(6)).name(),
            catalog[0].name()
        );
        assert_eq!(
            scenario.tenant_workload(TenantId(1)).name(),
            catalog[1].name()
        );
        // Tenant seeds differ.
        assert_ne!(
            scenario.tenant_seed(9, TenantId(0)),
            scenario.tenant_seed(9, TenantId(1))
        );
    }

    #[test]
    fn growing_the_fleet_keeps_the_aggregate_roughly_flat() {
        let packets = |tenants: u32| -> usize {
            drain_tagged(&FleetScenario::new(tenants), 5)
                .iter()
                .map(TaggedBatch::len)
                .sum()
        };
        let one = packets(1);
        let ten = packets(10);
        // Per-tenant minimum counts (`scaled` clamps at 1 elephant etc.)
        // let the aggregate creep, but it must stay far from 10×.
        assert!(
            ten < one * 5,
            "aggregate must not scale with tenant count: {one} -> {ten}"
        );
    }
}
