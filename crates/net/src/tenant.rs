//! Tenant identities and tenant-tagged packet batches.
//!
//! The fleet layer (`flowrank-fleet`) hosts thousands of independent
//! monitored links — *tenants* — in one process. The wire between a fleet
//! source and the fleet itself is the [`TaggedBatch`]: a normal SoA
//! [`PacketBatch`] plus one parallel column of compact [`TenantId`]s, so a
//! single decode/key-derivation pass can tag packets for the whole fleet
//! and the demultiplexer downstream only ever copies columns.
//!
//! The types live here (not in the fleet crate) so the trace synthesiser
//! can *produce* tagged batches and the fleet can *consume* them without
//! either depending on the other.

use std::fmt;
use std::ops::Range;

use crate::batch::PacketBatch;

/// Compact identity of one tenant (one monitored link) in a fleet.
///
/// Tenant ids are dense small integers — slot indices into the fleet's
/// tenant slab — not opaque handles: `TenantId(7)` is the 8th tenant. The
/// ordering derived here (`Ord` on the index) is the deterministic emission
/// order of fleet reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant's slab index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// A [`PacketBatch`] with one extra index-aligned column: the tenant each
/// packet belongs to.
///
/// Like the batch itself, a tagged batch is append-only and recycles its
/// allocations across [`TaggedBatch::clear`] calls. Packets from different
/// tenants may interleave freely; [`TaggedBatch::runs`] exposes the maximal
/// consecutive same-tenant runs, so a consumer hands each tenant a range of
/// the batch instead of one packet at a time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaggedBatch {
    batch: PacketBatch,
    tenants: Vec<TenantId>,
}

impl TaggedBatch {
    /// Creates an empty tagged batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Removes every packet while keeping all column allocations warm.
    pub fn clear(&mut self) {
        self.batch.clear();
        self.tenants.clear();
    }

    /// Appends one packet from raw column values, tagged with `tenant`.
    /// `key` must be the packet's packed 5-tuple
    /// ([`flowrank_flowtable::CompactKey::pack`]).
    #[inline]
    pub fn push_columns(
        &mut self,
        tenant: TenantId,
        ts_nanos: u64,
        key: u128,
        length: u16,
        tcp_seq: Option<u32>,
    ) {
        self.batch.push_columns(ts_nanos, key, length, tcp_seq);
        self.tenants.push(tenant);
    }

    /// Appends `other[range]` (an untagged batch slice), tagging every
    /// copied packet with `tenant`. Columns move as plain slices.
    pub fn extend_from_batch(
        &mut self,
        tenant: TenantId,
        other: &PacketBatch,
        range: Range<usize>,
    ) {
        self.tenants
            .resize(self.tenants.len() + range.len(), tenant);
        self.batch.extend_from_batch(other, range);
    }

    /// The tenant of packet `i`.
    #[inline]
    pub fn tenant(&self, i: usize) -> TenantId {
        self.tenants[i]
    }

    /// The tenant column.
    pub fn tenants(&self) -> &[TenantId] {
        &self.tenants
    }

    /// The underlying packet columns.
    pub fn batch(&self) -> &PacketBatch {
        &self.batch
    }

    /// Iterates over the maximal consecutive same-tenant runs as
    /// `(tenant, range)` pairs covering the batch in order.
    ///
    /// This is the fleet's unit of work: each run goes to the owning
    /// tenant's monitor as one range of the batch, so the per-tenant cost
    /// is proportional to the number of tenant *switches*, not packets,
    /// when sources emit per-tenant bursts.
    pub fn runs(&self) -> TenantRuns<'_> {
        TenantRuns {
            tenants: &self.tenants,
            next: 0,
        }
    }
}

/// Iterator over consecutive same-tenant runs of a [`TaggedBatch`]
/// (see [`TaggedBatch::runs`]).
#[derive(Debug)]
pub struct TenantRuns<'a> {
    tenants: &'a [TenantId],
    next: usize,
}

impl Iterator for TenantRuns<'_> {
    type Item = (TenantId, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.next;
        let tenant = *self.tenants.get(start)?;
        let mut end = start + 1;
        while self.tenants.get(end) == Some(&tenant) {
            end += 1;
        }
        self.next = end;
        Some((tenant, start..end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketRecord, Timestamp};
    use std::net::Ipv4Addr;

    fn packet(host: u8, t: f64) -> PacketRecord {
        PacketRecord::udp(
            Timestamp::from_secs_f64(t),
            Ipv4Addr::new(10, 0, 0, host),
            4000,
            Ipv4Addr::new(192, 168, 0, 1),
            53,
            120,
        )
    }

    fn push(tagged: &mut TaggedBatch, tenant: u32, packet: PacketRecord) {
        let one = PacketBatch::from_records(&[packet]);
        tagged.extend_from_batch(TenantId(tenant), &one, 0..1);
    }

    #[test]
    fn tags_ride_along_with_columns() {
        let mut tagged = TaggedBatch::new();
        push(&mut tagged, 3, packet(1, 0.0));
        push(&mut tagged, 3, packet(2, 0.1));
        push(&mut tagged, 0, packet(3, 0.2));
        assert_eq!(tagged.len(), 3);
        assert!(!tagged.is_empty());
        assert_eq!(tagged.tenant(0), TenantId(3));
        assert_eq!(tagged.tenant(2), TenantId(0));
        assert_eq!(tagged.batch().len(), 3);
        assert_eq!(tagged.batch().record(1), packet(2, 0.1));
        assert_eq!(tagged.tenants(), &[TenantId(3), TenantId(3), TenantId(0)]);
    }

    #[test]
    fn runs_cover_the_batch_in_order() {
        let mut tagged = TaggedBatch::new();
        for (tenant, t) in [(1u32, 0.0), (1, 0.1), (2, 0.2), (1, 0.3), (1, 0.4)] {
            push(&mut tagged, tenant, packet(tenant as u8, t));
        }
        let runs: Vec<_> = tagged.runs().collect();
        assert_eq!(
            runs,
            vec![
                (TenantId(1), 0..2),
                (TenantId(2), 2..3),
                (TenantId(1), 3..5),
            ]
        );
        assert!(TaggedBatch::new().runs().next().is_none());
    }

    #[test]
    fn extend_from_batch_tags_the_copied_range() {
        let records: Vec<PacketRecord> = (0..4).map(|i| packet(i as u8, i as f64)).collect();
        let batch = PacketBatch::from_records(&records);
        let mut tagged = TaggedBatch::new();
        tagged.extend_from_batch(TenantId(7), &batch, 1..3);
        assert_eq!(tagged.len(), 2);
        assert_eq!(tagged.tenants(), &[TenantId(7), TenantId(7)]);
        assert_eq!(tagged.batch().record(0), records[1]);
        tagged.clear();
        assert!(tagged.is_empty());
    }

    #[test]
    fn tenant_id_formats_and_orders() {
        assert_eq!(TenantId(12).to_string(), "tenant12");
        assert_eq!(TenantId(12).index(), 12);
        assert!(TenantId(1) < TenantId(2));
    }
}
