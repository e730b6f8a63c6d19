//! Packet-level synthesis from flow-level records.
//!
//! Section 8.1 of the paper: *"For a flow of size S, duration D and starting
//! time T, we compute first the number of packets for this flow, then we
//! distribute these packets uniformly in the interval [T, T+D]."* This module
//! holds that expansion's options and its whole-trace form; the expansion
//! itself is [`SynthesisStream`]'s, one window at a time. Packets carry a
//! synthetic TCP sequence number equal to the cumulative byte offset within
//! their flow so that the sequence-number size estimator can be exercised.

use flowrank_net::PacketRecord;

use crate::flow_record::FlowRecord;
use crate::stream::SynthesisStream;

/// Options controlling flow-to-packet expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisConfig {
    /// Packet size in bytes written into each synthesised packet.
    pub packet_bytes: u16,
    /// When `true` (the default, matching the paper), packet times are drawn
    /// uniformly at random over the flow's lifetime; when `false` they are
    /// evenly spaced, which is useful for deterministic tests.
    pub uniform_placement: bool,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            packet_bytes: 500,
            uniform_placement: true,
        }
    }
}

/// Expands flow-level records into a time-sorted packet-level trace: a
/// [`SynthesisStream`] over a copy of `flows`, drained into records, so the
/// order is the stream's `(timestamp, flow index, packet index)`.
///
/// The expansion is deterministic given `seed`. Flows whose lifetime extends
/// past the end of the observation window are *not* truncated here — the
/// binning step of the simulator handles truncation, exactly as the paper's
/// binning methodology does.
pub fn synthesize_packets(
    flows: &[FlowRecord],
    config: &SynthesisConfig,
    seed: u64,
) -> Vec<PacketRecord> {
    SynthesisStream::new(flows.to_vec(), config, seed).into_records()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_record::synthetic_key;
    use flowrank_net::{FiveTuple, FlowKey, FlowTable};
    use std::net::Ipv4Addr;

    fn flow(index: u64, packets: u64, start: f64, duration: f64) -> FlowRecord {
        FlowRecord::new(
            synthetic_key(index, Ipv4Addr::new(100, 64, 0, 10), 80),
            packets,
            packets * 500,
            start,
            duration,
        )
    }

    #[test]
    fn batch_synthesis_matches_record_synthesis() {
        let flows = vec![
            flow(0, 9, 0.0, 3.0),
            flow(1, 1, 1.0, 0.0),
            flow(2, 25, 2.0, 10.0),
        ];
        let config = SynthesisConfig::default();
        let batch = SynthesisStream::new(flows.clone(), &config, 77).into_batch();
        let packets = synthesize_packets(&flows, &config, 77);
        assert_eq!(batch.to_records(), packets);
        assert_eq!(
            packets,
            crate::stream::materialise_and_sort(&flows, &config, 77)
        );
    }

    #[test]
    fn packet_count_matches_flow_sizes() {
        let flows = vec![
            flow(0, 5, 0.0, 2.0),
            flow(1, 1, 1.0, 0.0),
            flow(2, 12, 3.0, 8.0),
        ];
        let packets = synthesize_packets(&flows, &SynthesisConfig::default(), 1);
        assert_eq!(packets.len(), 18);
    }

    #[test]
    fn packets_fall_within_flow_lifetime() {
        let flows = vec![flow(0, 50, 2.0, 4.0)];
        let packets = synthesize_packets(&flows, &SynthesisConfig::default(), 2);
        for p in &packets {
            let t = p.timestamp.as_secs_f64();
            assert!((2.0 - 1e-9..=6.0 + 1e-9).contains(&t), "packet at {t}");
        }
    }

    #[test]
    fn trace_is_time_sorted() {
        let flows = vec![flow(0, 30, 5.0, 10.0), flow(1, 30, 0.0, 10.0)];
        let packets = synthesize_packets(&flows, &SynthesisConfig::default(), 3);
        for w in packets.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
    }

    #[test]
    fn classification_recovers_flow_sizes() {
        let flows = vec![
            flow(0, 7, 0.0, 3.0),
            flow(1, 19, 1.0, 5.0),
            flow(2, 2, 2.0, 1.0),
        ];
        let packets = synthesize_packets(&flows, &SynthesisConfig::default(), 4);
        let mut table: FlowTable<FiveTuple> = FlowTable::new();
        for p in &packets {
            table.observe(p);
        }
        assert_eq!(table.flow_count(), 3);
        for f in &flows {
            assert_eq!(table.get(&f.key).unwrap().packets, f.packets);
        }
    }

    #[test]
    fn even_placement_is_deterministic_and_spaced() {
        let flows = vec![flow(0, 5, 10.0, 4.0)];
        let cfg = SynthesisConfig {
            uniform_placement: false,
            ..SynthesisConfig::default()
        };
        let packets = synthesize_packets(&flows, &cfg, 1);
        let times: Vec<f64> = packets.iter().map(|p| p.timestamp.as_secs_f64()).collect();
        assert_eq!(times.len(), 5);
        assert!((times[0] - 10.0).abs() < 1e-6);
        assert!((times[4] - 14.0).abs() < 1e-6);
        assert!((times[2] - 12.0).abs() < 1e-6);
    }

    #[test]
    fn tcp_sequence_numbers_encode_byte_offsets() {
        let flows = vec![flow(0, 4, 0.0, 1.0)];
        let cfg = SynthesisConfig {
            uniform_placement: false,
            ..SynthesisConfig::default()
        };
        let packets = synthesize_packets(&flows, &cfg, 1);
        let mut seqs: Vec<u32> = packets.iter().map(|p| p.tcp_seq.unwrap()).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 500, 1000, 1500]);
        let key = FiveTuple::from_packet(&packets[0]);
        assert_eq!(key, flows[0].key);
    }

    #[test]
    fn deterministic_per_seed() {
        let flows = vec![flow(0, 100, 0.0, 10.0)];
        let a = synthesize_packets(&flows, &SynthesisConfig::default(), 9);
        let b = synthesize_packets(&flows, &SynthesisConfig::default(), 9);
        let c = synthesize_packets(&flows, &SynthesisConfig::default(), 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_input_produces_empty_trace() {
        let packets = synthesize_packets(&[], &SynthesisConfig::default(), 0);
        assert!(packets.is_empty());
    }
}
