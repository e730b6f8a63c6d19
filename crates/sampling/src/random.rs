//! Independent random packet sampling — the paper's sampling model, in
//! skip-based (geometric-gap) form.
//!
//! Every packet is retained with probability `p`, independently of every
//! other packet, so a flow of `S` packets yields a Binomial(S, p) sampled
//! size. All of the analytical machinery in `flowrank-core` assumes this
//! sampler.
//!
//! # Skip-based sampling
//!
//! A naive implementation flips one Bernoulli(p) coin per packet — `n` RNG
//! draws to keep `p·n` packets. At low rates this implementation instead
//! draws the **gap to the next retained packet** from the geometric
//! distribution `P(G = g) = p(1−p)^g` (Vitter's "Method A" of sequential
//! random sampling): the two processes are identical in distribution, but
//! the skip form consumes one RNG draw per *retained* packet. Over a
//! [`PacketBatch`] the sampler indexes straight to the retained positions
//! (`keep_batch`), so per-lane cost is `O(p·n)` instead of `O(n)`; the
//! per-packet [`PacketSampler::keep`] entry point drives the same gap
//! counter, which is what keeps a monitor fed one record per batch and one
//! fed whole batches bit-identical.
//!
//! A geometric draw pays an `ln()`, so it only wins while keeps are rare;
//! at rates of `SKIP_RATE_CEILING` (1-in-8) and above the sampler flips
//! plain Bernoulli coins instead — the regime switch is a pure function of
//! the rate, so the per-packet and batch paths always agree.
//!
//! Note the RNG *stream* in the skip regime differs from the naive
//! per-packet Bernoulli form (one geometric draw per retained packet
//! instead of one uniform draw per offered packet), so seeded low-rate
//! results differ from pre-skip versions of this crate while remaining
//! distribution-equivalent — the `skip_sampling_stats` integration suite
//! pins both facts. High-rate (Bernoulli-regime) results, and the periodic
//! and stratified samplers' streams at every rate, are preserved exactly.

use std::ops::Range;

use flowrank_net::{PacketBatch, PacketRecord};
use flowrank_stats::rng::Rng;

use crate::sampler::PacketSampler;

/// Rates at or above this ceiling use a plain Bernoulli draw per packet
/// instead of geometric skips: a gap draw costs one `ln()` per *kept*
/// packet while a Bernoulli trial costs one cheap uniform draw per
/// *offered* packet, so skipping only wins when keeps are rare (Vitter's
/// classic Method A/B switch). At 1-in-8 the two costs cross on commodity
/// hardware.
pub(crate) const SKIP_RATE_CEILING: f64 = 0.125;

/// Bernoulli(p) packet sampler in skip-based form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomSampler {
    rate: f64,
    /// Precomputed `1 / ln(1−p)` for the geometric inverse CDF (0 outside
    /// the skip regime).
    inv_ln_discard: f64,
    /// Packets still to skip before the next retained one; `None` when the
    /// next gap has not been drawn yet. Unused outside the skip regime.
    gap: Option<u64>,
}

impl RandomSampler {
    /// Creates a random sampler with sampling probability `rate`, clamped to
    /// `[0, 1]`.
    pub fn new(rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        let inv_ln_discard = if rate > 0.0 && rate < SKIP_RATE_CEILING {
            let inverse = 1.0 / (1.0 - rate).ln();
            if inverse.is_finite() {
                inverse
            } else {
                // Rates below ~1e-16 underflow `1 − p` to exactly 1, making
                // the inverse +∞ and every gap zero (keep everything!).
                // Such a rate keeps nothing within any u64-indexable
                // stream, so pin the gap to +∞ instead: ln(U) < 0 times −∞
                // saturates the cast to `u64::MAX`.
                f64::NEG_INFINITY
            }
        } else {
            0.0
        };
        RandomSampler {
            rate,
            inv_ln_discard,
            gap: None,
        }
    }

    /// Whether this rate runs in the geometric-skip regime (low rates) or
    /// the per-packet Bernoulli regime (high rates). The choice is a pure
    /// function of the rate, so the per-packet and batch entry points always
    /// agree on it.
    fn skips(&self) -> bool {
        self.rate < SKIP_RATE_CEILING
    }

    /// Draws the geometric gap to the next retained packet: the number of
    /// consecutive discards before a keep, `P(G = g) = p(1−p)^g`.
    fn draw_gap(&self, rng: &mut dyn Rng) -> u64 {
        // Inverse CDF: G = floor(ln U / ln(1−p)) with U uniform in (0, 1).
        let gap = rng.next_open_f64().ln() * self.inv_ln_discard;
        if gap >= u64::MAX as f64 {
            u64::MAX
        } else {
            gap as u64
        }
    }
}

impl PacketSampler for RandomSampler {
    fn keep(&mut self, _packet: &PacketRecord, rng: &mut dyn Rng) -> bool {
        // Degenerate rates consume no randomness, matching `Rng::bernoulli`.
        if self.rate <= 0.0 {
            return false;
        }
        if self.rate >= 1.0 {
            return true;
        }
        if !self.skips() {
            return rng.bernoulli(self.rate);
        }
        let gap = match self.gap {
            Some(gap) => gap,
            None => self.draw_gap(rng),
        };
        if gap == 0 {
            self.gap = None;
            true
        } else {
            self.gap = Some(gap - 1);
            false
        }
    }

    fn keep_batch(
        &mut self,
        _batch: &PacketBatch,
        range: Range<usize>,
        rng: &mut dyn Rng,
        kept: &mut Vec<u32>,
    ) {
        if self.rate <= 0.0 {
            return;
        }
        if self.rate >= 1.0 {
            kept.extend(range.map(|i| i as u32));
            return;
        }
        if !self.skips() {
            // Bernoulli regime: one uniform draw per offered packet (the
            // decisions never depend on packet content), made in one
            // dynamic call for the whole range.
            rng.bernoulli_indices(self.rate, range, kept);
            return;
        }
        let mut i = range.start;
        while i < range.end {
            let gap = match self.gap.take() {
                Some(gap) => gap,
                None => self.draw_gap(rng),
            };
            let remaining = (range.end - i) as u64;
            if gap < remaining {
                i += gap as usize;
                kept.push(i as u32);
                i += 1;
            } else {
                // The next retained packet lies beyond this batch; carry the
                // unconsumed part of the gap into the next call.
                self.gap = Some(gap - remaining);
                break;
            }
        }
    }

    fn nominal_rate(&self) -> f64 {
        self.rate
    }

    fn reset(&mut self) {
        self.gap = None;
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::test_util::packet_stream;
    use flowrank_stats::rng::{Pcg64, SeedableRng};

    #[test]
    fn clamps_rate() {
        assert_eq!(RandomSampler::new(-0.5).rate, 0.0);
        assert_eq!(RandomSampler::new(1.7).rate, 1.0);
        assert_eq!(RandomSampler::new(0.01).nominal_rate(), 0.01);
        assert_eq!(RandomSampler::new(0.5).name(), "random");
    }

    #[test]
    fn empirical_rate_matches_nominal() {
        let packets = packet_stream(100_000, 50, 10.0);
        let mut sampler = RandomSampler::new(0.1);
        let mut rng = Pcg64::seed_from_u64(1);
        let kept = packets.iter().filter(|p| sampler.keep(p, &mut rng)).count();
        let rate = kept as f64 / packets.len() as f64;
        assert!((rate - 0.1).abs() < 0.005, "empirical rate {rate}");
    }

    #[test]
    fn extreme_rates() {
        let packets = packet_stream(1_000, 10, 1.0);
        let mut rng = Pcg64::seed_from_u64(2);
        let mut none = RandomSampler::new(0.0);
        let mut all = RandomSampler::new(1.0);
        assert!(packets.iter().all(|p| !none.keep(p, &mut rng)));
        assert!(packets.iter().all(|p| all.keep(p, &mut rng)));

        // Batch form: nothing / everything, without consuming randomness.
        let batch = PacketBatch::from_records(&packets);
        let mut kept = Vec::new();
        let mut probe = Pcg64::seed_from_u64(2);
        none.keep_batch(&batch, 0..batch.len(), &mut probe, &mut kept);
        assert!(kept.is_empty());
        all.keep_batch(&batch, 0..batch.len(), &mut probe, &mut kept);
        assert_eq!(kept.len(), batch.len());
        assert_eq!(probe, Pcg64::seed_from_u64(2), "no RNG draws consumed");
    }

    #[test]
    fn decisions_are_independent_of_packet_content() {
        // Two different packets at the same position in the RNG stream get
        // the same decision — the sampler never inspects the packet.
        let packets = packet_stream(2, 2, 1.0);
        let mut sampler_a = RandomSampler::new(0.5);
        let mut sampler_b = RandomSampler::new(0.5);
        let mut rng_a = Pcg64::seed_from_u64(3);
        let mut rng_b = Pcg64::seed_from_u64(3);
        assert_eq!(
            sampler_a.keep(&packets[0], &mut rng_a),
            sampler_b.keep(&packets[1], &mut rng_b)
        );
    }

    #[test]
    fn batch_path_is_bit_identical_to_per_packet_path() {
        let packets = packet_stream(20_000, 40, 5.0);
        let batch = PacketBatch::from_records(&packets);
        for rate in [0.003, 0.01, 0.25, 0.9] {
            let mut per_packet = RandomSampler::new(rate);
            let mut rng_a = Pcg64::seed_from_u64(7);
            let expected: Vec<u32> = packets
                .iter()
                .enumerate()
                .filter(|(_, p)| per_packet.keep(p, &mut rng_a))
                .map(|(i, _)| i as u32)
                .collect();

            // Split the same stream into irregular batches.
            let mut skip = RandomSampler::new(rate);
            let mut rng_b = Pcg64::seed_from_u64(7);
            let mut kept = Vec::new();
            let mut start = 0usize;
            for chunk in [1usize, 37, 4096, 1, 999, usize::MAX] {
                let end = batch.len().min(start.saturating_add(chunk));
                skip.keep_batch(&batch, start..end, &mut rng_b, &mut kept);
                start = end;
                if start == batch.len() {
                    break;
                }
            }
            assert_eq!(kept, expected, "rate {rate}");
            assert_eq!(rng_a, rng_b, "rate {rate}: same RNG consumption");
        }
    }

    #[test]
    fn sub_epsilon_rates_keep_nothing() {
        // `1 − p` underflows to 1.0 for p below ~1e-16; the sampler must
        // treat such rates as "next keep beyond any stream", never as
        // keep-everything.
        let packets = packet_stream(5_000, 10, 1.0);
        let batch = PacketBatch::from_records(&packets);
        for rate in [1e-18, 1e-17, f64::MIN_POSITIVE] {
            let mut sampler = RandomSampler::new(rate);
            let mut rng = Pcg64::seed_from_u64(29);
            assert!(
                packets.iter().all(|p| !sampler.keep(p, &mut rng)),
                "rate {rate}: per-packet path"
            );
            let mut kept = Vec::new();
            let mut batched = RandomSampler::new(rate);
            batched.keep_batch(&batch, 0..batch.len(), &mut rng, &mut kept);
            assert!(kept.is_empty(), "rate {rate}: batch path");
        }
    }

    #[test]
    fn reset_discards_the_pending_gap() {
        let packets = packet_stream(100, 5, 1.0);
        let mut sampler = RandomSampler::new(0.2);
        let mut rng = Pcg64::seed_from_u64(11);
        for p in &packets {
            sampler.keep(p, &mut rng);
        }
        sampler.reset();
        // After reset + reseeded RNG the decision stream replays exactly.
        let mut fresh = RandomSampler::new(0.2);
        let mut rng_a = Pcg64::seed_from_u64(13);
        let mut rng_b = Pcg64::seed_from_u64(13);
        let replay_a: Vec<bool> = packets
            .iter()
            .map(|p| sampler.keep(p, &mut rng_a))
            .collect();
        let replay_b: Vec<bool> = packets.iter().map(|p| fresh.keep(p, &mut rng_b)).collect();
        assert_eq!(replay_a, replay_b);
    }
}
