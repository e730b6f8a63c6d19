//! Periodic (deterministic 1-in-N) packet sampling.
//!
//! Production routers typically implement "keep one packet out of every N".
//! The paper cites \[10\] for the observation that periodic and random sampling
//! give essentially the same inversion results on high-speed links, which is
//! why the analysis uses random sampling; this implementation lets
//! `reproduce --fig 12 --sampler periodic` verify that equivalence
//! empirically.

use std::ops::Range;

use flowrank_net::{PacketBatch, PacketRecord};
use flowrank_stats::rng::Rng;

use crate::sampler::PacketSampler;

/// Deterministic 1-in-N sampler with an optional random initial phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicSampler {
    period: u64,
    counter: u64,
    randomize_phase: bool,
    phase_initialized: bool,
}

impl PeriodicSampler {
    /// Creates a sampler that keeps one packet out of every `period`.
    ///
    /// A `period` of zero is treated as 1 (keep everything).
    pub fn new(period: u64) -> Self {
        PeriodicSampler {
            period: period.max(1),
            counter: 0,
            randomize_phase: false,
            phase_initialized: true,
        }
    }

    /// Creates a sampler whose nominal rate is `rate` (period = round(1/rate)).
    pub fn with_rate(rate: f64) -> Self {
        let period = if rate <= 0.0 {
            u64::MAX
        } else if rate >= 1.0 {
            1
        } else {
            (1.0 / rate).round() as u64
        };
        Self::new(period.max(1))
    }

    /// Randomises the phase at the start of each measurement interval, which
    /// removes the synchronisation bias of strict 1-in-N sampling.
    pub fn with_random_phase(mut self) -> Self {
        self.randomize_phase = true;
        self.phase_initialized = false;
        self
    }
}

impl PacketSampler for PeriodicSampler {
    fn keep(&mut self, _packet: &PacketRecord, rng: &mut dyn Rng) -> bool {
        if !self.phase_initialized {
            self.counter = rng.next_below(self.period);
            self.phase_initialized = true;
        }
        let keep = self.counter == 0;
        self.counter = (self.counter + 1) % self.period;
        keep
    }

    /// Skip form: the retained positions of a 1-in-N stream are pure
    /// counter arithmetic, so the batch path jumps from keep to keep without
    /// visiting the packets between them. Decisions and RNG consumption
    /// (the optional phase draw) are identical to the per-packet path.
    fn keep_batch(
        &mut self,
        _batch: &PacketBatch,
        range: Range<usize>,
        rng: &mut dyn Rng,
        kept: &mut Vec<u32>,
    ) {
        if range.is_empty() {
            return;
        }
        if !self.phase_initialized {
            self.counter = rng.next_below(self.period);
            self.phase_initialized = true;
        }
        let len = (range.end - range.start) as u64;
        // First keep happens when the counter wraps to zero.
        let mut offset = (self.period - self.counter) % self.period;
        while offset < len {
            kept.push((range.start as u64 + offset) as u32);
            match offset.checked_add(self.period) {
                Some(next) => offset = next,
                None => break,
            }
        }
        self.counter = ((self.counter as u128 + len as u128) % self.period as u128) as u64;
    }

    fn nominal_rate(&self) -> f64 {
        1.0 / self.period as f64
    }

    fn reset(&mut self) {
        self.counter = 0;
        if self.randomize_phase {
            self.phase_initialized = false;
        }
    }

    fn name(&self) -> &'static str {
        "periodic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::test_util::packet_stream;
    use flowrank_stats::rng::{Pcg64, SeedableRng};

    #[test]
    fn keeps_exactly_one_in_n() {
        let packets = packet_stream(1_000, 10, 1.0);
        let mut sampler = PeriodicSampler::new(10);
        let mut rng = Pcg64::seed_from_u64(1);
        let kept: Vec<usize> = packets
            .iter()
            .enumerate()
            .filter(|(_, p)| sampler.keep(p, &mut rng))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(kept.len(), 100);
        // Kept packets are exactly the multiples of 10 (phase 0).
        assert!(kept.iter().enumerate().all(|(j, &i)| i == j * 10));
    }

    #[test]
    fn rate_constructor_round_trips() {
        assert_eq!(PeriodicSampler::with_rate(0.01).period, 100);
        assert_eq!(PeriodicSampler::with_rate(1.0).period, 1);
        assert_eq!(PeriodicSampler::with_rate(0.0).period, u64::MAX);
        assert!((PeriodicSampler::new(1000).nominal_rate() - 0.001).abs() < 1e-12);
        assert_eq!(PeriodicSampler::new(0).period, 1);
    }

    #[test]
    fn random_phase_varies_with_rng_but_preserves_rate() {
        let packets = packet_stream(10_000, 10, 1.0);
        let mut first_indices = Vec::new();
        for seed in 0..5 {
            let mut sampler = PeriodicSampler::new(100).with_random_phase();
            let mut rng = Pcg64::seed_from_u64(seed);
            let kept: Vec<usize> = packets
                .iter()
                .enumerate()
                .filter(|(_, p)| sampler.keep(p, &mut rng))
                .map(|(i, _)| i)
                .collect();
            assert!((kept.len() as i64 - 100).abs() <= 1);
            first_indices.push(kept[0]);
        }
        first_indices.dedup();
        assert!(first_indices.len() > 1, "phases should differ across seeds");
    }

    #[test]
    fn batch_path_preserves_decisions_and_rng_stream() {
        let packets = packet_stream(5_000, 10, 1.0);
        let batch = PacketBatch::from_records(&packets);
        for (period, random_phase) in [(1u64, false), (7, false), (100, true), (6_000, true)] {
            let build = || {
                let sampler = PeriodicSampler::new(period);
                if random_phase {
                    sampler.with_random_phase()
                } else {
                    sampler
                }
            };
            let mut per_packet = build();
            let mut rng_a = Pcg64::seed_from_u64(17);
            let expected: Vec<u32> = packets
                .iter()
                .enumerate()
                .filter(|(_, p)| per_packet.keep(p, &mut rng_a))
                .map(|(i, _)| i as u32)
                .collect();

            let mut skip = build();
            let mut rng_b = Pcg64::seed_from_u64(17);
            let mut kept = Vec::new();
            let mut start = 0usize;
            for chunk in [3usize, 1, 500, usize::MAX] {
                let end = batch.len().min(start.saturating_add(chunk));
                skip.keep_batch(&batch, start..end, &mut rng_b, &mut kept);
                start = end;
                if start == batch.len() {
                    break;
                }
            }
            assert_eq!(kept, expected, "period {period}");
            assert_eq!(rng_a, rng_b, "period {period}: identical RNG stream");
        }
    }

    #[test]
    fn reset_restores_phase() {
        let packets = packet_stream(10, 2, 1.0);
        let mut sampler = PeriodicSampler::new(5);
        let mut rng = Pcg64::seed_from_u64(3);
        assert!(sampler.keep(&packets[0], &mut rng));
        assert!(!sampler.keep(&packets[1], &mut rng));
        sampler.reset();
        assert!(sampler.keep(&packets[2], &mut rng));
        assert_eq!(sampler.name(), "periodic");
    }
}
