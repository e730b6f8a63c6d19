//! The SoA packet batch — the pipeline's batched unit of work.
//!
//! [`PacketBatch`] stores a contiguous run of packets as *columns* (structure
//! of arrays) instead of a `Vec<PacketRecord>` of structs: one vector of
//! nanosecond timestamps, one of packed 5-tuple keys, one of lengths and one
//! of TCP sequence numbers. The columnar layout is what the batched hot
//! paths are built on:
//!
//! * the zero-copy pcap decoder ([`crate::pcap::pcap_bytes_to_batch`])
//!   parses header fields in place and appends columns directly, never
//!   materialising per-packet `PacketRecord`s or frame buffers;
//! * batch classification ([`crate::classify::FlowTable::observe_batch`])
//!   walks the key column as plain integers;
//! * skip-based samplers index straight into the batch, touching only the
//!   packets they keep.
//!
//! The representation is **lossless**: [`PacketBatch::record`] reconstructs
//! a `PacketRecord` equal to the one pushed (protocol numbers are
//! canonicalised exactly as [`crate::flowkey::Protocol`] equality already
//! does), which is what lets the streaming monitor take a one-record batch
//! as a per-packet push with bit-identical results.
//!
//! Like the flow tables, a batch recycles its allocations across
//! [`PacketBatch::clear`] calls, so one reusable batch can carry an entire
//! trace replay without per-bin allocation.

use std::net::Ipv4Addr;

use flowrank_flowtable::CompactKey;

use crate::flowkey::{AnyFlowKey, DstPrefix, FiveTuple, FlowDefinition, FlowKey};
use crate::packet::{PacketRecord, Timestamp};

/// Sentinel for "no TCP sequence number" in the sequence column (a real
/// sequence number occupies only the low 32 bits).
const NO_TCP_SEQ: u64 = u64::MAX;

/// A structure-of-arrays batch of packets.
///
/// Columns are index-aligned: element `i` of every column describes the same
/// packet. Packets are append-only; [`PacketBatch::clear`] resets the batch
/// while keeping the column allocations warm.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketBatch {
    ts_nanos: Vec<u64>,
    keys: Vec<u128>,
    lengths: Vec<u16>,
    tcp_seqs: Vec<u64>,
}

impl PacketBatch {
    /// Creates an empty batch; `const`, so an empty batch can be a
    /// `static` a source lends for an idle poll.
    pub const fn new() -> Self {
        PacketBatch {
            ts_nanos: Vec::new(),
            keys: Vec::new(),
            lengths: Vec::new(),
            tcp_seqs: Vec::new(),
        }
    }

    /// Creates an empty batch with room for `n` packets in every column.
    pub fn with_capacity(n: usize) -> Self {
        PacketBatch {
            ts_nanos: Vec::with_capacity(n),
            keys: Vec::with_capacity(n),
            lengths: Vec::with_capacity(n),
            tcp_seqs: Vec::with_capacity(n),
        }
    }

    /// Builds a batch from a slice of packet records.
    pub fn from_records(records: &[PacketRecord]) -> Self {
        let mut batch = Self::with_capacity(records.len());
        batch.extend_from_records(records);
        batch
    }

    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.ts_nanos.len()
    }

    /// Whether the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.ts_nanos.is_empty()
    }

    /// Removes every packet while keeping the column allocations, so a
    /// reusable batch never re-allocates across decode/replay iterations.
    pub fn clear(&mut self) {
        self.ts_nanos.clear();
        self.keys.clear();
        self.lengths.clear();
        self.tcp_seqs.clear();
    }

    /// Reserves room for `additional` more packets in every column.
    pub fn reserve(&mut self, additional: usize) {
        self.ts_nanos.reserve(additional);
        self.keys.reserve(additional);
        self.lengths.reserve(additional);
        self.tcp_seqs.reserve(additional);
    }

    /// Appends one packet from its raw column values. `key` must be the
    /// packed [`FiveTuple`] of the packet ([`CompactKey::pack`]).
    #[inline]
    pub fn push_columns(&mut self, ts_nanos: u64, key: u128, length: u16, tcp_seq: Option<u32>) {
        self.ts_nanos.push(ts_nanos);
        self.keys.push(key);
        self.lengths.push(length);
        self.tcp_seqs.push(tcp_seq.map_or(NO_TCP_SEQ, u64::from));
    }

    /// Appends one packet record.
    #[inline]
    pub fn push_record(&mut self, packet: &PacketRecord) {
        self.push_columns(
            packet.timestamp.as_nanos(),
            FiveTuple::from_packet(packet).pack(),
            packet.length,
            packet.tcp_seq,
        );
    }

    /// Appends a slice of packet records.
    pub(crate) fn extend_from_records(&mut self, records: &[PacketRecord]) {
        self.reserve(records.len());
        for packet in records {
            self.push_record(packet);
        }
    }

    /// Appends `other[range]` to this batch, column for column — the
    /// re-chunking primitive behind the streaming pipeline's `Chunked`
    /// source adapter. No per-packet reconstruction happens: each column is
    /// copied as a plain slice.
    pub fn extend_from_batch(&mut self, other: &PacketBatch, range: std::ops::Range<usize>) {
        self.ts_nanos
            .extend_from_slice(&other.ts_nanos[range.clone()]);
        self.keys.extend_from_slice(&other.keys[range.clone()]);
        self.lengths
            .extend_from_slice(&other.lengths[range.clone()]);
        self.tcp_seqs.extend_from_slice(&other.tcp_seqs[range]);
    }

    /// Timestamp of packet `i`.
    #[inline]
    pub fn timestamp(&self, i: usize) -> Timestamp {
        Timestamp::from_nanos(self.ts_nanos[i])
    }

    /// The raw nanosecond-timestamp column.
    pub fn ts_nanos(&self) -> &[u64] {
        &self.ts_nanos
    }

    /// IP length of packet `i` in bytes.
    #[inline]
    pub fn length(&self, i: usize) -> u16 {
        self.lengths[i]
    }

    /// TCP sequence number of packet `i`, when it carried one.
    #[inline]
    pub fn tcp_seq(&self, i: usize) -> Option<u32> {
        let raw = self.tcp_seqs[i];
        if raw == NO_TCP_SEQ {
            None
        } else {
            Some(raw as u32)
        }
    }

    /// The 5-tuple of packet `i`, unpacked from the key column.
    #[inline]
    pub fn five_tuple(&self, i: usize) -> FiveTuple {
        FiveTuple::unpack(self.keys[i])
    }

    /// Destination address of packet `i`, read straight out of the packed
    /// key (bits 40–71) without unpacking the full 5-tuple.
    #[inline]
    pub(crate) fn dst_ip(&self, i: usize) -> Ipv4Addr {
        Ipv4Addr::from((self.keys[i] >> 40) as u32)
    }

    /// The flow key of packet `i` under `definition` — the batched
    /// counterpart of [`FlowDefinition::key_of`].
    #[inline]
    pub fn flow_key(&self, i: usize, definition: FlowDefinition) -> AnyFlowKey {
        match definition {
            FlowDefinition::FiveTuple => AnyFlowKey::FiveTuple(self.five_tuple(i)),
            FlowDefinition::DstPrefix(len) => {
                AnyFlowKey::DstPrefix(DstPrefix::of(self.dst_ip(i), len))
            }
        }
    }

    /// Reconstructs packet `i` as a [`PacketRecord`].
    ///
    /// The reconstruction is lossless up to protocol-number
    /// canonicalisation: a hand-built `Protocol::Other(6)` comes back as
    /// `Protocol::Tcp`, which compares, hashes and packs identically (see
    /// [`crate::flowkey::Protocol`]).
    #[inline]
    pub fn record(&self, i: usize) -> PacketRecord {
        let five = self.five_tuple(i);
        PacketRecord {
            timestamp: self.timestamp(i),
            src_ip: five.src_ip,
            dst_ip: five.dst_ip,
            src_port: five.src_port,
            dst_port: five.dst_port,
            protocol: five.protocol,
            length: self.lengths[i],
            tcp_seq: self.tcp_seq(i),
        }
    }

    /// Iterates over the batch as reconstructed [`PacketRecord`]s.
    pub fn iter_records(&self) -> impl Iterator<Item = PacketRecord> + '_ {
        (0..self.len()).map(|i| self.record(i))
    }

    /// Materialises the whole batch as a vector of packet records.
    pub fn to_records(&self) -> Vec<PacketRecord> {
        self.iter_records().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowkey::Protocol;

    fn sample_packets() -> Vec<PacketRecord> {
        vec![
            PacketRecord::tcp(
                Timestamp::from_nanos(1_234_567),
                Ipv4Addr::new(10, 1, 2, 3),
                40_000,
                Ipv4Addr::new(192, 168, 55, 77),
                443,
                500,
                0xDEAD_BEEF,
            ),
            PacketRecord::udp(
                Timestamp::from_secs_f64(1.5),
                Ipv4Addr::new(172, 16, 0, 9),
                53,
                Ipv4Addr::new(8, 8, 8, 8),
                53,
                120,
            ),
            PacketRecord {
                timestamp: Timestamp::from_secs_f64(2.0),
                src_ip: Ipv4Addr::new(1, 2, 3, 4),
                dst_ip: Ipv4Addr::new(4, 3, 2, 1),
                src_port: 0,
                dst_port: 0,
                protocol: Protocol::Icmp,
                length: 84,
                tcp_seq: None,
            },
        ]
    }

    #[test]
    fn round_trips_records_losslessly() {
        let packets = sample_packets();
        let batch = PacketBatch::from_records(&packets);
        assert_eq!(batch.len(), packets.len());
        assert!(!batch.is_empty());
        for (i, packet) in packets.iter().enumerate() {
            assert_eq!(batch.record(i), *packet, "packet {i}");
            assert_eq!(batch.timestamp(i), packet.timestamp);
            assert_eq!(batch.length(i), packet.length);
            assert_eq!(batch.tcp_seq(i), packet.tcp_seq);
            assert_eq!(batch.five_tuple(i), FiveTuple::from_packet(packet));
            assert_eq!(batch.dst_ip(i), packet.dst_ip);
        }
        assert_eq!(batch.to_records(), packets);
    }

    #[test]
    fn flow_keys_match_the_record_path() {
        let packets = sample_packets();
        let batch = PacketBatch::from_records(&packets);
        for definition in [FlowDefinition::FiveTuple, FlowDefinition::PREFIX24] {
            for (i, packet) in packets.iter().enumerate() {
                assert_eq!(
                    batch.flow_key(i, definition),
                    definition.key_of(packet),
                    "{definition}, packet {i}"
                );
            }
        }
    }

    #[test]
    fn protocol_other_is_canonicalised_consistently() {
        let mut packet = sample_packets()[0];
        packet.protocol = Protocol::Other(6); // same IANA number as TCP
        let batch = PacketBatch::from_records(std::slice::from_ref(&packet));
        let rebuilt = batch.record(0);
        assert_eq!(rebuilt, packet, "Protocol equality is by number");
        assert!(matches!(rebuilt.protocol, Protocol::Tcp));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut batch = PacketBatch::with_capacity(8);
        batch.extend_from_records(&sample_packets());
        let capacity = batch.ts_nanos.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.ts_nanos.capacity(), capacity);
        batch.push_record(&sample_packets()[0]);
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn extend_from_batch_copies_the_requested_range() {
        let packets = sample_packets();
        let whole = PacketBatch::from_records(&packets);
        let mut chunk = PacketBatch::new();
        chunk.extend_from_batch(&whole, 1..3);
        assert_eq!(chunk.to_records(), &packets[1..3]);
        chunk.extend_from_batch(&whole, 0..1);
        assert_eq!(chunk.len(), 3);
        assert_eq!(chunk.record(2), packets[0]);
        chunk.extend_from_batch(&whole, 2..2);
        assert_eq!(chunk.len(), 3, "empty range appends nothing");
    }

    #[test]
    fn tcp_seq_sentinel_never_collides_with_real_sequences() {
        let mut packet = sample_packets()[0];
        packet.tcp_seq = Some(u32::MAX);
        let batch = PacketBatch::from_records(std::slice::from_ref(&packet));
        assert_eq!(batch.tcp_seq(0), Some(u32::MAX));
    }
}
