//! Sampling pipelines: drive a sampler over a packet stream, lazily or
//! push-based, and build sampled flow tables.
//!
//! These helpers wire together the substrate pieces exactly the way the
//! paper's monitor does: packets arrive in time order, each one passes
//! through the sampler, surviving packets are classified into flows, and at
//! the end of the measurement period the flow table is ranked. None of them
//! materialise intermediate packet vectors:
//!
//! * [`SamplerStage`] — the adapter the streaming `Monitor` builds its
//!   lanes from: an owned sampler plus its RNG, offered one batch at a time.
//! * [`sample_and_classify`] — the single-pass table builder, over the
//!   crate-private lazy filter `sample_iter`.

use std::ops::Range;

use flowrank_net::{FlowKey, FlowTable, PacketBatch, PacketRecord};
use flowrank_stats::rng::Rng;

use crate::sampler::PacketSampler;

/// Lazily filters `packets` through `sampler`: yields exactly the packets the
/// monitor retains, in order, without copying them into an intermediate
/// vector.
pub(crate) fn sample_iter<'a, I, S>(
    packets: I,
    sampler: &'a mut S,
    rng: &'a mut dyn Rng,
) -> impl Iterator<Item = &'a PacketRecord> + 'a
where
    I: IntoIterator<Item = &'a PacketRecord>,
    I::IntoIter: 'a,
    S: PacketSampler + ?Sized,
{
    packets
        .into_iter()
        .filter(move |packet| sampler.keep(packet, rng))
}

/// A push-based sampling stage: an owned (possibly runtime-selected) sampler
/// together with the RNG that drives its decisions.
///
/// This is the unit the streaming `Monitor` replicates per lane — each
/// (run, rate) combination owns one stage so the lanes' random streams stay
/// independent of how many lanes run side by side.
pub struct SamplerStage<R> {
    sampler: Box<dyn PacketSampler + Send>,
    rng: R,
}

impl<R> std::fmt::Debug for SamplerStage<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerStage")
            .field("sampler", &self.sampler.name())
            .field("nominal_rate", &self.sampler.nominal_rate())
            .finish_non_exhaustive()
    }
}

impl<R: Rng> SamplerStage<R> {
    /// Creates a stage from an owned sampler and its RNG.
    pub fn new(sampler: Box<dyn PacketSampler + Send>, rng: R) -> Self {
        SamplerStage { sampler, rng }
    }

    /// Offers `batch[range]` to the stage and appends the batch indices of
    /// the retained packets to `kept`, with identical decisions and RNG
    /// consumption for any way of cutting the stream into batches (see
    /// [`PacketSampler::keep_batch`]). Skip-capable samplers make the cost
    /// of this call proportional to the packets *kept*.
    pub fn admit_batch(&mut self, batch: &PacketBatch, range: Range<usize>, kept: &mut Vec<u32>) {
        self.sampler.keep_batch(batch, range, &mut self.rng, kept)
    }

    /// Starts a new measurement interval: resets the sampler's internal state
    /// and replaces the RNG (each bin of the paper's methodology restarts the
    /// per-run random stream).
    pub fn start_interval(&mut self, rng: R) {
        self.sampler.reset();
        self.rng = rng;
    }
}

/// Runs `sampler` over `packets` and classifies the retained packets into a
/// flow table keyed by `K` — the monitor's end-of-interval state, built in a
/// single pass.
pub fn sample_and_classify<K: FlowKey, S: PacketSampler + ?Sized>(
    packets: &[PacketRecord],
    sampler: &mut S,
    rng: &mut dyn Rng,
) -> FlowTable<K> {
    let mut table = FlowTable::new();
    for packet in sample_iter(packets, sampler, rng) {
        table.observe(packet);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomSampler;
    use crate::sampler::test_util::packet_stream;
    use flowrank_net::FiveTuple;
    use flowrank_stats::rng::{Pcg64, SeedableRng};

    #[test]
    fn sample_iter_keeps_about_p_fraction() {
        let packets = packet_stream(50_000, 100, 10.0);
        let mut sampler = RandomSampler::new(0.02);
        let mut rng = Pcg64::seed_from_u64(4);
        let kept = sample_iter(&packets, &mut sampler, &mut rng).count();
        let frac = kept as f64 / packets.len() as f64;
        assert!((frac - 0.02).abs() < 0.004, "kept fraction {frac}");
    }

    #[test]
    fn sample_iter_yields_borrowed_packets_in_order() {
        let packets = packet_stream(1_000, 4, 1.0);
        let mut sampler = RandomSampler::new(0.5);
        let mut rng = Pcg64::seed_from_u64(11);
        let mut last_index = None;
        for kept in sample_iter(&packets, &mut sampler, &mut rng) {
            let index = packets
                .iter()
                .position(|p| std::ptr::eq(p, kept))
                .expect("yielded reference must point into the input slice");
            assert!(
                last_index.is_none_or(|prev| index > prev),
                "order preserved"
            );
            last_index = Some(index);
        }
        assert!(last_index.is_some());
    }

    /// The per-packet keep decisions of one `admit_batch` over `packets`.
    fn admitted(stage: &mut SamplerStage<Pcg64>, packets: &[PacketRecord]) -> Vec<bool> {
        let batch = PacketBatch::from_records(packets);
        let mut kept = Vec::new();
        stage.admit_batch(&batch, 0..batch.len(), &mut kept);
        let mut decisions = vec![false; packets.len()];
        for index in kept {
            decisions[index as usize] = true;
        }
        decisions
    }

    /// The unsampled table: every packet kept.
    fn classify_all(packets: &[PacketRecord]) -> FlowTable<FiveTuple> {
        sample_and_classify(
            packets,
            &mut RandomSampler::new(1.0),
            &mut Pcg64::seed_from_u64(0),
        )
    }

    #[test]
    fn sampler_stage_matches_direct_sampler_use() {
        let packets = packet_stream(5_000, 20, 2.0);
        let mut direct = RandomSampler::new(0.1);
        let mut direct_rng = Pcg64::seed_from_u64(21);
        let expected: Vec<bool> = packets
            .iter()
            .map(|p| direct.keep(p, &mut direct_rng))
            .collect();

        let mut stage =
            SamplerStage::new(Box::new(RandomSampler::new(0.1)), Pcg64::seed_from_u64(21));
        let got = admitted(&mut stage, &packets);
        assert_eq!(expected, got, "push adapter must not perturb the stream");
    }

    #[test]
    fn sampler_stage_interval_restart_replays_the_stream() {
        let packets = packet_stream(200, 5, 1.0);
        let mut stage =
            SamplerStage::new(Box::new(RandomSampler::new(0.3)), Pcg64::seed_from_u64(33));
        let first = admitted(&mut stage, &packets);
        stage.start_interval(Pcg64::seed_from_u64(33));
        let second = admitted(&mut stage, &packets);
        assert_eq!(first, second);
    }

    #[test]
    fn classify_all_recovers_flow_structure() {
        let packets = packet_stream(1_000, 10, 1.0);
        let table: FlowTable<FiveTuple> = classify_all(&packets);
        assert_eq!(table.flow_count(), 10);
        assert_eq!(table.total_packets(), 1_000);
        // Each of the 10 round-robin flows got 100 packets.
        assert!(table.ranked_by_packets().iter().all(|f| f.packets == 100));
    }

    #[test]
    fn sampled_table_is_subset_of_original() {
        let packets = packet_stream(20_000, 40, 5.0);
        let original: FlowTable<FiveTuple> = classify_all(&packets);
        let mut sampler = RandomSampler::new(0.1);
        let mut rng = Pcg64::seed_from_u64(5);
        let sampled: FlowTable<FiveTuple> = sample_and_classify(&packets, &mut sampler, &mut rng);
        assert!(sampled.flow_count() <= original.flow_count());
        assert!(sampled.total_packets() < original.total_packets());
        for (key, stats) in sampled.iter() {
            let orig = original.get(&key).expect("sampled flow must exist");
            assert!(stats.packets <= orig.packets);
        }
    }

    #[test]
    fn zero_rate_yields_empty_table() {
        let packets = packet_stream(1_000, 10, 1.0);
        let mut sampler = RandomSampler::new(0.0);
        let mut rng = Pcg64::seed_from_u64(6);
        let sampled: FlowTable<FiveTuple> = sample_and_classify(&packets, &mut sampler, &mut rng);
        assert_eq!(sampled.flow_count(), 0);
        assert_eq!(sampled.total_packets(), 0);
    }
}
