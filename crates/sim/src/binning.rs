//! Measurement bins.
//!
//! Network operators report traffic in fixed measurement intervals ("bins" in
//! the paper, 1 or 5 minutes): packets are collected for one interval,
//! classified, ranked and reported; then the memory is cleared and the next
//! interval starts. Flows that stay active across a boundary are truncated —
//! only the packets inside the bin count towards that bin's ranking — which
//! the paper points out penalises large, long-lived flows.
//!
//! The streaming monitor cuts bins itself as timestamps cross boundaries;
//! [`split_into_bins`] is the materialised reference the conformance and
//! `streaming_equivalence` suites feed the per-bin oracle
//! ([`crate::engine`]) with.

use flowrank_net::{PacketRecord, Timestamp};

/// Splits a time-sorted packet trace into consecutive bins of length
/// `bin_length`.
///
/// Returns one vector of packets per bin, covering the span from time zero to
/// the timestamp of the last packet. Empty bins in the middle of the trace
/// are preserved (as empty vectors) so bin indices correspond to wall-clock
/// intervals.
pub fn split_into_bins(packets: &[PacketRecord], bin_length: Timestamp) -> Vec<Vec<PacketRecord>> {
    if packets.is_empty() || bin_length == Timestamp::ZERO {
        return if packets.is_empty() {
            Vec::new()
        } else {
            vec![packets.to_vec()]
        };
    }
    let last_bin = packets
        .iter()
        .map(|p| p.timestamp.bin_index(bin_length))
        .max()
        .unwrap_or(0);
    let mut bins: Vec<Vec<PacketRecord>> = vec![Vec::new(); (last_bin + 1) as usize];
    for packet in packets {
        let index = packet.timestamp.bin_index(bin_length) as usize;
        bins[index].push(*packet);
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn packet_at(t: f64) -> PacketRecord {
        PacketRecord::udp(
            Timestamp::from_secs_f64(t),
            Ipv4Addr::new(10, 0, 0, 1),
            1,
            Ipv4Addr::new(10, 0, 0, 2),
            2,
            500,
        )
    }

    #[test]
    fn packets_fall_into_their_bins() {
        let packets: Vec<PacketRecord> = [0.5, 59.9, 60.0, 61.0, 185.0]
            .iter()
            .map(|&t| packet_at(t))
            .collect();
        let bins = split_into_bins(&packets, Timestamp::from_secs_f64(60.0));
        assert_eq!(bins.len(), 4); // bins 0..=3 (packet at 185 s is in bin 3)
        assert_eq!(bins[0].len(), 2);
        assert_eq!(bins[1].len(), 2);
        assert_eq!(bins[2].len(), 0); // empty middle bin preserved
        assert_eq!(bins[3].len(), 1);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(split_into_bins(&[], Timestamp::from_secs_f64(60.0)).is_empty());
        let packets = vec![packet_at(1.0), packet_at(2.0)];
        let single = split_into_bins(&packets, Timestamp::ZERO);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].len(), 2);
    }

    #[test]
    fn total_packet_count_is_preserved() {
        let packets: Vec<PacketRecord> = (0..500).map(|i| packet_at(i as f64 * 0.7)).collect();
        let bins = split_into_bins(&packets, Timestamp::from_secs_f64(30.0));
        let total: usize = bins.iter().map(Vec::len).sum();
        assert_eq!(total, 500);
    }
}
