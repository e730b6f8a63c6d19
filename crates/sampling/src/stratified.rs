//! Stratified packet sampling.
//!
//! The packet stream is divided into consecutive strata of N packets and one
//! packet is chosen uniformly at random within each stratum. Compared with
//! strict 1-in-N sampling this removes periodic aliasing while keeping the
//! per-stratum budget exactly fixed; it sits between the random and periodic
//! samplers (`reproduce --sampler` runs any of them).

use std::ops::Range;

use flowrank_net::{PacketBatch, PacketRecord};
use flowrank_stats::rng::Rng;

use crate::sampler::PacketSampler;

/// One-per-stratum sampler with stratum size N.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StratifiedSampler {
    stratum: u64,
    position: u64,
    chosen: u64,
}

impl StratifiedSampler {
    /// Creates a stratified sampler with strata of `stratum` packets
    /// (clamped to at least 1).
    pub fn new(stratum: u64) -> Self {
        StratifiedSampler {
            stratum: stratum.max(1),
            position: 0,
            chosen: 0,
        }
    }

    /// Creates a sampler whose nominal rate is `rate`.
    pub fn with_rate(rate: f64) -> Self {
        let stratum = if rate <= 0.0 {
            u64::MAX
        } else if rate >= 1.0 {
            1
        } else {
            (1.0 / rate).round() as u64
        };
        Self::new(stratum)
    }
}

impl PacketSampler for StratifiedSampler {
    fn keep(&mut self, _packet: &PacketRecord, rng: &mut dyn Rng) -> bool {
        if self.position == 0 {
            self.chosen = rng.next_below(self.stratum);
        }
        let keep = self.position == self.chosen;
        self.position = (self.position + 1) % self.stratum;
        keep
    }

    /// Skip form: one RNG draw per stratum *entered* (exactly as the
    /// per-packet path draws on each stratum's first packet), then the
    /// chosen offset is indexed directly — strata are jumped over whole, so
    /// batch cost is proportional to the number of strata touched, not the
    /// number of packets offered.
    fn keep_batch(
        &mut self,
        _batch: &PacketBatch,
        range: Range<usize>,
        rng: &mut dyn Rng,
        kept: &mut Vec<u32>,
    ) {
        let mut i = range.start as u64;
        let end = range.end as u64;
        while i < end {
            if self.position == 0 {
                self.chosen = rng.next_below(self.stratum);
            }
            let left_in_stratum = self.stratum - self.position;
            let advance = (end - i).min(left_in_stratum);
            if self.chosen >= self.position && self.chosen - self.position < advance {
                kept.push((i + (self.chosen - self.position)) as u32);
            }
            self.position = (self.position + advance) % self.stratum;
            i += advance;
        }
    }

    fn nominal_rate(&self) -> f64 {
        1.0 / self.stratum as f64
    }

    fn reset(&mut self) {
        self.position = 0;
        self.chosen = 0;
    }

    fn name(&self) -> &'static str {
        "stratified"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::test_util::packet_stream;
    use flowrank_stats::rng::{Pcg64, SeedableRng};

    #[test]
    fn exactly_one_packet_per_stratum() {
        let packets = packet_stream(1_000, 5, 1.0);
        let mut sampler = StratifiedSampler::new(20);
        let mut rng = Pcg64::seed_from_u64(7);
        let kept: Vec<usize> = packets
            .iter()
            .enumerate()
            .filter(|(_, p)| sampler.keep(p, &mut rng))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(kept.len(), 50);
        for (stratum_index, &packet_index) in kept.iter().enumerate() {
            let lo = stratum_index * 20;
            let hi = lo + 20;
            assert!(packet_index >= lo && packet_index < hi);
        }
    }

    #[test]
    fn chosen_offset_varies() {
        let packets = packet_stream(2_000, 5, 1.0);
        let mut sampler = StratifiedSampler::new(100);
        let mut rng = Pcg64::seed_from_u64(9);
        let offsets: Vec<usize> = packets
            .iter()
            .enumerate()
            .filter(|(_, p)| sampler.keep(p, &mut rng))
            .map(|(i, _)| i % 100)
            .collect();
        let mut unique = offsets.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() > 5, "offsets should not all coincide");
    }

    #[test]
    fn batch_path_preserves_decisions_and_rng_stream() {
        let packets = packet_stream(4_321, 5, 1.0);
        let batch = PacketBatch::from_records(&packets);
        for stratum in [1u64, 2, 33, 1_000, 10_000] {
            let mut per_packet = StratifiedSampler::new(stratum);
            let mut rng_a = Pcg64::seed_from_u64(23);
            let expected: Vec<u32> = packets
                .iter()
                .enumerate()
                .filter(|(_, p)| per_packet.keep(p, &mut rng_a))
                .map(|(i, _)| i as u32)
                .collect();

            let mut skip = StratifiedSampler::new(stratum);
            let mut rng_b = Pcg64::seed_from_u64(23);
            let mut kept = Vec::new();
            let mut start = 0usize;
            for chunk in [1usize, 16, 17, 2_000, usize::MAX] {
                let end = batch.len().min(start.saturating_add(chunk));
                skip.keep_batch(&batch, start..end, &mut rng_b, &mut kept);
                start = end;
                if start == batch.len() {
                    break;
                }
            }
            assert_eq!(kept, expected, "stratum {stratum}");
            assert_eq!(rng_a, rng_b, "stratum {stratum}: identical RNG stream");
        }
    }

    #[test]
    fn constructors_and_reset() {
        assert_eq!(StratifiedSampler::with_rate(0.02).stratum, 50);
        assert_eq!(StratifiedSampler::with_rate(2.0).stratum, 1);
        assert_eq!(StratifiedSampler::with_rate(0.0).stratum, u64::MAX);
        assert_eq!(StratifiedSampler::new(0).stratum, 1);
        let mut s = StratifiedSampler::new(4);
        assert!((s.nominal_rate() - 0.25).abs() < 1e-12);
        s.reset();
        assert_eq!(s.name(), "stratified");
    }
}
