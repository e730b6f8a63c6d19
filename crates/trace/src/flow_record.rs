//! Flow-level records.
//!
//! The Sprint trace used by the paper is *flow level*: for every flow it
//! gives the size, the duration and the starting time, but not the individual
//! packets. [`FlowRecord`] mirrors that shape and carries in addition the
//! synthetic 5-tuple assigned by the generator, so that both flow definitions
//! (5-tuple and /24 destination prefix) can later be applied to the
//! synthesised packets.

use std::net::Ipv4Addr;

use flowrank_net::{FiveTuple, Protocol};

/// One flow as recorded by a flow-level trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRecord {
    /// The flow's 5-tuple identity.
    pub key: FiveTuple,
    /// Number of packets in the flow (≥ 1).
    pub packets: u64,
    /// Total bytes carried by the flow.
    pub bytes: u64,
    /// Start time in seconds from the beginning of the trace.
    pub start: f64,
    /// Duration in seconds (0 for single-packet flows).
    pub duration: f64,
}

impl FlowRecord {
    /// Creates a flow record, clamping packets to at least one and the
    /// duration to a non-negative value.
    pub fn new(key: FiveTuple, packets: u64, bytes: u64, start: f64, duration: f64) -> Self {
        FlowRecord {
            key,
            packets: packets.max(1),
            bytes,
            start: start.max(0.0),
            duration: duration.max(0.0),
        }
    }

    /// End time of the flow in seconds.
    pub(crate) fn end(&self) -> f64 {
        self.start + self.duration
    }
}

/// Builds a simple synthetic 5-tuple for generator use.
///
/// The source address encodes the flow index so every generated flow is
/// distinct at the 5-tuple level; the destination address is chosen by the
/// caller (typically via the prefix popularity model in
/// [`crate::addressing`]).
pub fn synthetic_key(flow_index: u64, dst_ip: Ipv4Addr, dst_port: u16) -> FiveTuple {
    // Spread flow indices over the 10.0.0.0/8 space and ephemeral ports.
    let host = (flow_index % (1 << 22)) as u32; // 4M distinct hosts
    let src_ip = Ipv4Addr::from(0x0A00_0000u32 | host);
    let src_port = 32_768 + (flow_index % 28_000) as u16;
    FiveTuple {
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        protocol: Protocol::Tcp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_clamps_degenerate_inputs() {
        let key = synthetic_key(0, Ipv4Addr::new(1, 2, 3, 4), 80);
        let r = FlowRecord::new(key, 0, 500, -1.0, -2.0);
        assert_eq!(r.packets, 1);
        assert_eq!(r.start, 0.0);
        assert_eq!(r.duration, 0.0);
        assert_eq!(r.end(), 0.0);
    }

    #[test]
    fn accessors() {
        let key = synthetic_key(7, Ipv4Addr::new(9, 9, 9, 9), 443);
        let r = FlowRecord::new(key, 10, 5_000, 3.0, 13.0);
        assert_eq!(r.end(), 16.0);
    }

    #[test]
    fn synthetic_keys_distinct_for_distinct_indices() {
        let dst = Ipv4Addr::new(100, 1, 1, 1);
        let a = synthetic_key(1, dst, 80);
        let b = synthetic_key(2, dst, 80);
        assert_ne!(a, b);
        assert_eq!(a.protocol, Protocol::Tcp);
        // Source addresses stay in 10/8.
        assert_eq!(a.src_ip.octets()[0], 10);
    }

    #[test]
    fn synthetic_keys_wrap_safely_for_huge_indices() {
        let dst = Ipv4Addr::new(100, 1, 1, 1);
        let k = synthetic_key(u64::MAX, dst, 80);
        assert_eq!(k.src_ip.octets()[0], 10);
        assert!(k.src_port >= 32_768);
    }
}
