//! The in-memory packet record.
//!
//! Every stage of the pipeline — trace synthesis, sampling, classification,
//! ranking — operates on [`PacketRecord`]s. A record carries exactly the
//! fields a flow monitor needs: a timestamp, the 5-tuple, the packet length
//! and (optionally) the TCP sequence number used by the sequence-number
//! size estimator discussed as future work in the paper.

use std::net::Ipv4Addr;

use crate::flowkey::Protocol;

/// A packet timestamp with nanosecond resolution.
///
/// Stored as integer nanoseconds since the start of the trace so that
/// sorting, binning into measurement intervals and serialising to pcap are
/// exact; conversions to and from seconds are provided for the generators,
/// which work in floating-point time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// Zero timestamp (start of the trace).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from integer nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Timestamp(nanos)
    }

    /// Creates a timestamp from micro-seconds (the pcap unit).
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros * 1_000)
    }

    /// Creates a timestamp from floating-point seconds, saturating at zero
    /// for negative inputs.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            Timestamp(0)
        } else {
            Timestamp((secs * 1e9).round() as u64)
        }
    }

    /// Nanoseconds since the start of the trace.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the start of the trace.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the start of the trace, as floating point.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Index of the measurement bin this timestamp falls into, for bins of
    /// `bin_len` starting at time zero.
    pub fn bin_index(self, bin_len: Timestamp) -> u64 {
        self.0.checked_div(bin_len.0).unwrap_or(0)
    }
}

/// A single observed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRecord {
    /// Arrival time relative to the start of the trace.
    pub timestamp: Timestamp,
    /// IPv4 source address.
    pub src_ip: Ipv4Addr,
    /// IPv4 destination address.
    pub dst_ip: Ipv4Addr,
    /// Transport source port (0 when the protocol has no ports).
    pub src_port: u16,
    /// Transport destination port (0 when the protocol has no ports).
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Total packet length in bytes (IP header + payload).
    pub length: u16,
    /// TCP sequence number carried by the packet, when applicable.
    ///
    /// The paper's second future-work direction estimates flow sizes from
    /// sampled TCP sequence numbers; packets generated by the synthetic
    /// traces carry a consistent byte offset here.
    pub tcp_seq: Option<u32>,
}

impl PacketRecord {
    /// A convenience constructor for the common TCP case.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        timestamp: Timestamp,
        src_ip: Ipv4Addr,
        src_port: u16,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        length: u16,
        tcp_seq: u32,
    ) -> Self {
        PacketRecord {
            timestamp,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: Protocol::Tcp,
            length,
            tcp_seq: Some(tcp_seq),
        }
    }

    /// A convenience constructor for the common UDP case.
    pub fn udp(
        timestamp: Timestamp,
        src_ip: Ipv4Addr,
        src_port: u16,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        length: u16,
    ) -> Self {
        PacketRecord {
            timestamp,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: Protocol::Udp,
            length,
            tcp_seq: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_conversions_round_trip() {
        let t = Timestamp::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Timestamp::from_micros(2_000).as_nanos(), 2_000_000);
        assert_eq!(Timestamp::from_nanos(7).as_nanos(), 7);
    }

    #[test]
    fn timestamp_negative_and_nan_clamped() {
        assert_eq!(Timestamp::from_secs_f64(-3.0), Timestamp::ZERO);
        assert_eq!(Timestamp::from_secs_f64(f64::NAN), Timestamp::ZERO);
    }

    #[test]
    fn timestamp_ordering() {
        let a = Timestamp::from_secs_f64(1.0);
        let b = Timestamp::from_secs_f64(2.0);
        assert!(a < b);
    }

    #[test]
    fn timestamp_bin_index() {
        let bin = Timestamp::from_secs_f64(60.0);
        assert_eq!(Timestamp::from_secs_f64(0.0).bin_index(bin), 0);
        assert_eq!(Timestamp::from_secs_f64(59.999).bin_index(bin), 0);
        assert_eq!(Timestamp::from_secs_f64(60.0).bin_index(bin), 1);
        assert_eq!(Timestamp::from_secs_f64(305.0).bin_index(bin), 5);
        // Degenerate zero-length bin: everything lands in bin 0.
        assert_eq!(
            Timestamp::from_secs_f64(305.0).bin_index(Timestamp::ZERO),
            0
        );
    }

    #[test]
    fn packet_constructors() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 168, 1, 7);
        let t = Timestamp::from_secs_f64(0.25);
        let p = PacketRecord::tcp(t, src, 1234, dst, 80, 500, 42);
        assert_eq!(p.protocol, Protocol::Tcp);
        assert_eq!(p.tcp_seq, Some(42));
        assert_eq!(p.length, 500);
        let u = PacketRecord::udp(t, src, 53, dst, 53, 120);
        assert_eq!(u.protocol, Protocol::Udp);
        assert_eq!(u.tcp_seq, None);
    }
}
