//! Size-dependent sampling ("smart sampling") at the packet level.
//!
//! Reference \[8\] of the paper (Duffield & Lund) selects *flow records* for
//! export with a probability that increases with the flow's size:
//! `p(x) = min(1, x/z)` for a threshold `z`, large flows always exported and
//! small ones rarely. The paper contrasts its packet-sampling setting with
//! that record-level scheme; a streaming monitor sees packets, not finished
//! records, so this module carries the same size-dependent rule to the packet
//! level ([`SmartPacketSampler`]), and heavy-hitter detection can be compared
//! with and without it (`reproduce --sampler smart`).

use flowrank_net::{FiveTuple, FlowKey, FlowMap, PacketRecord};
use flowrank_stats::rng::Rng;

use crate::sampler::PacketSampler;

/// Packet-level adaptation of smart sampling, usable as a [`PacketSampler`].
///
/// The original scheme selects *flow records* after the interval is over;
/// a streaming monitor sees packets. This adapter carries the same
/// size-dependent idea to the packet level: it tracks how many packets each
/// 5-tuple flow has sent so far and keeps a packet with probability
/// `min(1, c/z)` where `c` is the flow's running count and `z` the
/// threshold. Flows beyond `z` packets are sampled at full rate, mice almost
/// never — the monitor's memory concentrates on elephants exactly as with
/// record-level smart sampling, but the decision happens at line rate.
#[derive(Debug, Clone)]
pub struct SmartPacketSampler {
    threshold: f64,
    counts: FlowMap<FiveTuple, u64>,
    seen: u64,
    kept: u64,
}

impl SmartPacketSampler {
    /// Creates a packet-level smart sampler with threshold `z` packets
    /// (non-positive thresholds keep everything).
    pub fn new(threshold: f64) -> Self {
        SmartPacketSampler {
            threshold: threshold.max(0.0),
            counts: FlowMap::new(),
            seen: 0,
            kept: 0,
        }
    }

    /// The nominal-rate proxy reported before any traffic has been seen:
    /// `1/z`, saturating at 1 for thresholds of one packet or less. Shared
    /// with the monitor's sampler specification so both report the same
    /// figure.
    pub fn pre_traffic_rate(threshold: f64) -> f64 {
        if threshold <= 1.0 {
            1.0
        } else {
            1.0 / threshold
        }
    }
}

impl PacketSampler for SmartPacketSampler {
    fn keep(&mut self, packet: &PacketRecord, rng: &mut dyn Rng) -> bool {
        let count = self
            .counts
            .upsert(FiveTuple::from_packet(packet), || 1, |c| *c += 1);
        self.seen += 1;
        let probability = if self.threshold <= 0.0 {
            1.0
        } else {
            (*count as f64 / self.threshold).clamp(0.0, 1.0)
        };
        let keep = probability >= 1.0 || rng.bernoulli(probability);
        if keep {
            self.kept += 1;
        }
        keep
    }

    fn nominal_rate(&self) -> f64 {
        // Size-dependent sampling has no fixed rate; report the realised one
        // (1/z before any traffic, the traffic-weighted average afterwards).
        if self.seen == 0 {
            Self::pre_traffic_rate(self.threshold)
        } else {
            self.kept as f64 / self.seen as f64
        }
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.seen = 0;
        self.kept = 0;
    }

    fn name(&self) -> &'static str {
        "smart"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::test_util::packet_stream;
    use flowrank_stats::rng::{Pcg64, SeedableRng};

    #[test]
    fn packet_level_smart_prefers_elephants() {
        // 4 flows round-robin over 8000 packets → 2000 packets per flow, far
        // above the threshold: almost everything past the ramp-up is kept.
        let packets = packet_stream(8_000, 4, 10.0);
        let mut sampler = SmartPacketSampler::new(50.0);
        let mut rng = Pcg64::seed_from_u64(7);
        let kept = packets.iter().filter(|p| sampler.keep(p, &mut rng)).count();
        assert!(kept > 7_000, "elephants must be kept at ~full rate: {kept}");
        assert!(sampler.nominal_rate() > 0.85);

        // Many tiny flows (1 packet each; the fixture distinguishes at most
        // 255 flows, so stay below that) are almost never kept.
        sampler.reset();
        let mice = packet_stream(200, 200, 10.0);
        let kept_mice = mice.iter().filter(|p| sampler.keep(p, &mut rng)).count();
        assert!(kept_mice < 25, "mice must be dropped: {kept_mice}");
        assert_eq!(sampler.name(), "smart");
        assert_eq!(sampler.threshold, 50.0);
    }

    #[test]
    fn packet_level_smart_degenerate_thresholds() {
        let packets = packet_stream(100, 10, 1.0);
        let mut rng = Pcg64::seed_from_u64(8);
        let mut keep_all = SmartPacketSampler::new(0.0);
        assert!(packets.iter().all(|p| keep_all.keep(p, &mut rng)));
        assert_eq!(SmartPacketSampler::new(-3.0).threshold, 0.0);
        // Before any traffic the nominal rate falls back to 1/z.
        assert!((SmartPacketSampler::new(200.0).nominal_rate() - 0.005).abs() < 1e-12);
        assert_eq!(SmartPacketSampler::new(0.5).nominal_rate(), 1.0);
    }
}
