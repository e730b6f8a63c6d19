//! Whole-flow sampling.
//!
//! Under flow sampling, the keep/discard decision is made once per *flow*: if
//! a flow is selected, every one of its packets is retained (footnote 2 of
//! the paper, after references \[8\] and \[11\]). The paper does not adopt this
//! scheme — it requires per-packet flow-state lookups at line rate — but it is
//! the natural comparison point: flow sampling preserves exact flow sizes for
//! the flows it keeps, so ranking errors come only from missing flows
//! entirely.
//!
//! The decision is made by hashing the flow key with a seeded hash, so it is
//! consistent across packets of the same flow without keeping per-flow state.

use std::hash::{Hash, Hasher};

use flowrank_net::{FiveTuple, FlowKey, PacketRecord};
use flowrank_stats::rng::Rng;

use crate::sampler::PacketSampler;

/// Samples entire flows with probability `q`, using a keyed hash of the
/// 5-tuple as the per-flow coin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSampler {
    rate: f64,
    seed: u64,
}

impl FlowSampler {
    /// Creates a flow sampler keeping each flow with probability `rate`.
    pub fn new(rate: f64, seed: u64) -> Self {
        FlowSampler {
            rate: rate.clamp(0.0, 1.0),
            seed,
        }
    }

    /// Returns `true` when the given flow key is selected.
    pub(crate) fn keeps_flow(&self, key: &FiveTuple) -> bool {
        if self.rate >= 1.0 {
            return true;
        }
        if self.rate <= 0.0 {
            return false;
        }
        // SplitMix-style scrambling of the flow hash gives a uniform value in
        // [0, 1) that is fixed for the flow and independent across seeds.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.seed.hash(&mut hasher);
        key.hash(&mut hasher);
        let mut z = hasher.finish();
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < self.rate
    }
}

impl PacketSampler for FlowSampler {
    fn keep(&mut self, packet: &PacketRecord, _rng: &mut dyn Rng) -> bool {
        self.keeps_flow(&FiveTuple::from_packet(packet))
    }

    fn nominal_rate(&self) -> f64 {
        self.rate
    }

    fn name(&self) -> &'static str {
        "flow-sampling"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::test_util::packet_stream;
    use flowrank_net::FlowTable;
    use flowrank_stats::rng::{Pcg64, SeedableRng};

    #[test]
    fn decisions_are_consistent_per_flow() {
        let packets = packet_stream(10_000, 100, 10.0);
        let mut sampler = FlowSampler::new(0.3, 42);
        let mut rng = Pcg64::seed_from_u64(0);
        let mut original: FlowTable<FiveTuple> = FlowTable::new();
        let mut sampled: FlowTable<FiveTuple> = FlowTable::new();
        for p in &packets {
            original.observe(p);
            if sampler.keep(p, &mut rng) {
                sampled.observe(p);
            }
        }
        // Every sampled flow keeps its exact original size.
        for (key, stats) in sampled.iter() {
            assert_eq!(stats.packets, original.get(&key).unwrap().packets);
        }
        // Roughly 30% of the 100 flows survive.
        let kept = sampled.flow_count();
        assert!((10..=55).contains(&kept), "kept {kept} flows");
    }

    #[test]
    fn rate_extremes() {
        let packets = packet_stream(100, 10, 1.0);
        let mut rng = Pcg64::seed_from_u64(0);
        let mut all = FlowSampler::new(1.0, 1);
        let mut none = FlowSampler::new(0.0, 1);
        assert!(packets.iter().all(|p| all.keep(p, &mut rng)));
        assert!(packets.iter().all(|p| !none.keep(p, &mut rng)));
        assert_eq!(FlowSampler::new(2.0, 1).rate, 1.0);
        assert_eq!(all.name(), "flow-sampling");
    }

    #[test]
    fn different_seeds_select_different_flows() {
        let packets = packet_stream(1_000, 50, 1.0);
        let mut rng = Pcg64::seed_from_u64(0);
        let selections: Vec<Vec<bool>> = (0..3)
            .map(|seed| {
                let mut s = FlowSampler::new(0.5, seed);
                packets.iter().map(|p| s.keep(p, &mut rng)).collect()
            })
            .collect();
        assert_ne!(selections[0], selections[1]);
        assert_ne!(selections[1], selections[2]);
    }
}
