//! Differential conformance across every execution path of the pipeline.
//!
//! The workspace keeps three ways of driving a monitor over the same trace
//! — [`Monitor::push_batch_into`] one record per call, batches of any cut
//! (one whole batch, or chunked arbitrarily) and the lane shards behind
//! `threads(n)` (driven both with one whole batch and through
//! `Monitor::drive` over irregularly
//! chunked sources, with chunks both smaller and larger than the forked
//! segment buffer) — plus the
//! independent per-packet oracle `crate::engine::run_bin`, which shares
//! nothing with the monitor but the ranked truth (it scores with the dense
//! `compare_with`, the monitor with the sparse kernel), and promises they
//! are **bit-identical**, not merely statistically alike.
//! This module is the single driver that checks the promise for one
//! configuration cell and condenses the resulting report stream into a
//! stable digest, so a committed golden value per cell turns any silent
//! behaviour change into a loud test failure.
//!
//! [`run_conformance`] builds identically configured single-lane monitors,
//! drives each through a different ingestion path — including the
//! source/sink pipeline (`Monitor::drive` over a whole-batch source and
//! over the re-chunking adapter, with the streaming [`DigestSink`]
//! accumulating alongside) — asserts that every
//! [`BinReport`] agrees byte for byte, replays
//! each bin through the oracle for the same seed, and returns the
//! [`DigestSink::digest_reports`] hash of the reference stream. The digest
//! folds every observable field — bin indices, packet/flow counts,
//! lane outcomes, top-k entries — through FNV-1a, using only integer
//! arithmetic and explicit `f64::to_bits`, so it is stable across
//! platforms, optimisation levels and thread counts.
//! [`run_streamed_conformance`] extends the matrix to the streamed-workload
//! path: windowed synthesis driven straight into the monitor, pinned
//! bit-identical to one whole batch of the materialised trace for arbitrary
//! chunkings down to single packets.

use flowrank_monitor::{
    BatchSource, BinReport, Chunked, Collect, DigestSink, Monitor, ReportSink, SamplerSpec, Tee,
    TopKSpec,
};
use flowrank_net::{FlowDefinition, PacketBatch, PacketRecord, Timestamp};
use flowrank_stats::rng::{Pcg64, SeedableRng};
use flowrank_trace::Workload;

use crate::binning::split_into_bins;
use crate::engine::run_bin;

/// Irregular batch cuts used by the chunked leg: single packets, odd sizes,
/// a power of two and "the rest", so cuts land inside bins, on boundaries
/// and across idle gaps.
const CHUNK_PIECES: [usize; 6] = [1, 7, 501, 1, 4096, usize::MAX];

/// One cell of the conformance matrix: a fully specified single-lane
/// monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConformanceConfig {
    /// Flow definition for ground truth and sampled classification.
    pub flow_definition: FlowDefinition,
    /// Sampling discipline of the lane.
    pub sampler: SamplerSpec,
    /// Optional top-k backend fed with the lane's sampled packets.
    pub topk: Option<TopKSpec>,
    /// Measurement-bin length.
    pub bin_length: Timestamp,
    /// Number of top flows ranked per bin.
    pub top_t: usize,
    /// Lane seed (single lane, so this is the master seed verbatim).
    pub seed: u64,
    /// Worker threads of the sharded leg.
    pub threads: usize,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            flow_definition: FlowDefinition::FiveTuple,
            sampler: SamplerSpec::Random { rate: 0.1 },
            topk: None,
            bin_length: Timestamp::from_secs_f64(60.0),
            top_t: 10,
            seed: 0xC0F0_2026,
            threads: 2,
        }
    }
}

impl ConformanceConfig {
    fn monitor(&self, threads: usize) -> Monitor {
        let mut builder = Monitor::builder()
            .flow_definition(self.flow_definition)
            .sampler(self.sampler)
            .bin_length(self.bin_length)
            .top_t(self.top_t)
            .seed(self.seed)
            .threads(threads);
        if let Some(topk) = self.topk {
            builder = builder.topk(topk);
        }
        builder.build()
    }
}

/// Every report of `batch` pushed whole into `monitor`, final bin closed.
fn push_whole(mut monitor: Monitor, batch: &PacketBatch) -> Vec<BinReport> {
    let mut sink = Collect::new();
    monitor.push_batch_into(batch, &mut sink);
    monitor.finish_into(&mut sink);
    sink.reports
}

/// Runs `packets` through every execution path under `config`, asserts all
/// paths produce bit-identical [`BinReport`]
/// streams (and that each bin matches the independent per-packet oracle,
/// `engine::run_bin`), and returns the reference stream's
/// [`DigestSink::digest_reports`] value.
///
/// # Panics
///
/// Panics (with `label` in the message) on the first divergence between any
/// two paths — that is the test failure mode the harness exists for.
pub fn run_conformance(label: &str, packets: &[PacketRecord], config: &ConformanceConfig) -> u64 {
    // Reference: one record per call.
    let mut pushed = config.monitor(1);
    let mut reference = Collect::new();
    let mut one = PacketBatch::with_capacity(1);
    for packet in packets {
        one.clear();
        one.push_record(packet);
        pushed.push_batch_into(&one, &mut reference);
    }
    pushed.finish_into(&mut reference);
    let reference = reference.reports;

    // One batch covering the whole trace.
    let batch = PacketBatch::from_records(packets);
    let whole = push_whole(config.monitor(1), &batch);
    assert_eq!(
        whole, reference,
        "{label}: whole-trace batch diverged from per-packet push"
    );

    // Irregular batch cuts, including single-packet batches.
    let mut chunked_monitor = config.monitor(1);
    let mut chunked = Collect::new();
    let mut start = 0usize;
    for piece in CHUNK_PIECES {
        let end = packets.len().min(start.saturating_add(piece));
        let cut = PacketBatch::from_records(&packets[start..end]);
        chunked_monitor.push_batch_into(&cut, &mut chunked);
        start = end;
        if start == packets.len() {
            break;
        }
    }
    let rest = PacketBatch::from_records(&packets[start..]);
    chunked_monitor.push_batch_into(&rest, &mut chunked);
    chunked_monitor.finish_into(&mut chunked);
    assert_eq!(
        chunked.reports, reference,
        "{label}: chunked push_batch_into diverged from per-packet push"
    );

    // The sharded leg: whole-bin segments fan out across worker threads.
    let sharded = push_whole(config.monitor(config.threads.max(2)), &batch);
    assert_eq!(
        sharded,
        reference,
        "{label}: sharded ({} threads) whole batch diverged from per-packet push",
        config.threads.max(2)
    );

    // The drive leg: the same batch through the source/sink pipeline, with
    // the streaming digest accumulated alongside a collecting sink, and once
    // more through the re-chunking adapter — drive must be a pure chunking
    // of push_batch_into, and the streaming digest a pure function of the
    // report stream.
    let mut driven = Tee(DigestSink::new(), Collect::new());
    config
        .monitor(1)
        .drive(&mut BatchSource::new(&batch), &mut driven);
    let Tee(drive_digest, drive_reports) = driven;
    assert_eq!(
        drive_reports.reports, reference,
        "{label}: drive over the whole batch diverged from per-packet push"
    );
    let mut reference_digest = DigestSink::new();
    for report in &reference {
        reference_digest.accept(report);
    }
    assert_eq!(
        drive_digest.digest(),
        reference_digest.digest(),
        "{label}: drive-path streaming digest diverged from the collect path"
    );
    let mut rechunked = DigestSink::new();
    config.monitor(1).drive(
        &mut Chunked::new(BatchSource::new(&batch), 509),
        &mut rechunked,
    );
    assert_eq!(
        rechunked.digest(),
        reference_digest.digest(),
        "{label}: re-chunked drive digest diverged from the collect path"
    );

    // Threaded drive legs: `threads(n > 1)`, driven through
    // `Monitor::drive` over irregularly chunked sources, must reproduce the
    // reference digest bit for bit however the chunks sit against its
    // 2048-packet segment buffers: 463-packet chunks are stitched several to
    // a buffer, or cut short by a seal (2 threads); 6000-packet chunks
    // overflow them, publishing full buffers and carrying the remainder
    // into the next (4 threads).
    for (threads, chunk) in [(2, 463), (4, 6000)] {
        let mut pooled = DigestSink::new();
        config.monitor(threads).drive(
            &mut Chunked::new(BatchSource::new(&batch), chunk),
            &mut pooled,
        );
        assert_eq!(
            pooled.digest(),
            reference_digest.digest(),
            "{label}: threads({threads}) drive over {chunk}-packet chunks diverged \
             from the collect path"
        );
    }

    // Fault-aware legs: a fault-free `try_drive` (strict default policy)
    // must be bit-identical to `drive` — and hence to every other path —
    // with a clean DriveStats, serially and on lane shards. This pins
    // the recovery machinery's zero-fault transparency against every
    // committed golden.
    let mut fallible = DigestSink::new();
    let stats = config
        .monitor(1)
        .try_drive(&mut BatchSource::new(&batch), &mut fallible)
        .unwrap_or_else(|error| panic!("{label}: fault-free try_drive aborted: {error}"));
    assert_eq!(
        fallible.digest(),
        reference_digest.digest(),
        "{label}: fault-free try_drive diverged from the collect path"
    );
    assert_eq!(
        stats.packets,
        batch.len() as u64,
        "{label}: try_drive packet accounting diverged from the trace"
    );
    assert_eq!(
        stats.recoveries(),
        0,
        "{label}: a fault-free try_drive must record zero recoveries"
    );
    let mut fallible_pooled = DigestSink::new();
    config
        .monitor(config.threads.max(2))
        .try_drive(
            &mut Chunked::new(BatchSource::new(&batch), 463),
            &mut fallible_pooled,
        )
        .unwrap_or_else(|error| panic!("{label}: pooled fault-free try_drive aborted: {error}"));
    assert_eq!(
        fallible_pooled.digest(),
        reference_digest.digest(),
        "{label}: pooled fault-free try_drive diverged from the collect path"
    );

    // Oracle leg: every bin replayed through the per-packet engine with the
    // same sampler spec and seed (the monitor restarts each lane's sampler
    // and RNG from its seed at every bin boundary, which is exactly the
    // oracle's fresh-per-bin contract).
    let bins = split_into_bins(packets, config.bin_length);
    assert_eq!(
        reference.len(),
        bins.len(),
        "{label}: one report per wall-clock bin"
    );
    for (index, bin) in bins.iter().enumerate() {
        let mut sampler = config.sampler.build(config.seed);
        let mut rng = Pcg64::seed_from_u64(config.seed);
        let legacy = run_bin(
            bin,
            config.flow_definition,
            &mut *sampler,
            config.top_t,
            &mut rng,
        );
        let lane = &reference[index].lanes[0];
        assert_eq!(
            lane.outcome, legacy.outcome,
            "{label}: bin {index} outcome diverged from legacy run_bin"
        );
        assert_eq!(
            lane.sampled_flows, legacy.sampled_flows,
            "{label}: bin {index} sampled flow count diverged from legacy run_bin"
        );
        assert_eq!(
            reference[index].flows, legacy.original_flows,
            "{label}: bin {index} ground-truth flow count diverged from legacy run_bin"
        );
    }

    DigestSink::digest_reports(&reference)
}

/// Chunk sizes of the streamed-workload legs: single packets, a prime that
/// never aligns with window or bin boundaries, and a big power of two.
const STREAM_CHUNKS: [usize; 3] = [1, 463, 8192];

/// Drives one scenario workload through the streamed source path and pins
/// it against the materialised trace: `Monitor::drive` over
/// [`Workload::stream`] — re-chunked to every size in a small grid,
/// including one-packet chunks, with a streaming [`DigestSink`] — must
/// produce bit-identical reports (hence digests) to one whole batch of the
/// fully materialised [`Workload::synthesize`] trace, even though
/// the streamed synthesis never holds more than one window of packets.
///
/// Returns the reference stream's offline [`DigestSink::digest_reports`]
/// value (the same value [`run_conformance`] returns for the materialised
/// trace), so callers can additionally pin it against a golden.
///
/// # Panics
///
/// Panics (with `label` in the message) on the first divergence.
pub fn run_streamed_conformance(
    label: &str,
    workload: &Workload,
    trace_seed: u64,
    config: &ConformanceConfig,
) -> u64 {
    // Collect path: the whole trace materialised, pushed as one batch.
    let batch = PacketBatch::from_records(&workload.synthesize(trace_seed));
    let reference = push_whole(config.monitor(1), &batch);
    let mut reference_digest = DigestSink::new();
    for report in &reference {
        reference_digest.accept(report);
    }

    // Drive path: windowed synthesis straight into the monitor.
    let mut driven = Tee(DigestSink::new(), Collect::new());
    let summary = config
        .monitor(1)
        .drive(&mut workload.stream(trace_seed), &mut driven);
    assert_eq!(
        summary.packets,
        batch.len() as u64,
        "{label}: streamed synthesis packet count diverged from the materialised trace"
    );
    let Tee(stream_digest, stream_reports) = driven;
    assert_eq!(
        stream_reports.reports, reference,
        "{label}: streamed workload drive diverged from the materialised trace's whole batch"
    );
    assert_eq!(
        stream_digest.digest(),
        reference_digest.digest(),
        "{label}: streamed drive digest diverged from the collect-path digest"
    );

    // Arbitrary re-chunkings of the stream, down to one packet per chunk.
    for chunk in STREAM_CHUNKS {
        let mut digest = DigestSink::new();
        config.monitor(1).drive(
            &mut Chunked::new(workload.stream(trace_seed), chunk),
            &mut digest,
        );
        assert_eq!(
            digest.digest(),
            reference_digest.digest(),
            "{label}: {chunk}-packet chunking diverged from the collect-path digest"
        );
    }

    DigestSink::digest_reports(&reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_conformance_passes_with_ties_in_the_trace() {
        // rank-churn is the scenario whose zero-duration multi-packet mice
        // produce equal-timestamp packets — the case where the streamed
        // synthesis order may legitimately permute same-flow packets
        // relative to the materialised sort. Reports must still agree.
        let digest = run_streamed_conformance(
            "rank-churn/random",
            &Workload::rank_churn(),
            0xAB,
            &ConformanceConfig::default(),
        );
        let packets = Workload::rank_churn().synthesize(0xAB);
        assert_eq!(
            digest,
            run_conformance("rank-churn/random", &packets, &ConformanceConfig::default()),
            "streamed and materialised harnesses pin the same reference digest"
        );
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let packets = Workload::rank_churn().synthesize(1);
        let config = ConformanceConfig::default();
        let reports = push_whole(config.monitor(1), &PacketBatch::from_records(&packets));
        assert!(reports.len() >= 2);
        let digest = DigestSink::digest_reports(&reports);
        assert_eq!(
            digest,
            DigestSink::digest_reports(&reports),
            "digest is a pure function"
        );
        let mut reversed = reports.clone();
        reversed.reverse();
        assert_ne!(digest, DigestSink::digest_reports(&reversed));
        let mut tweaked = reports.clone();
        tweaked[0].packets += 1;
        assert_ne!(digest, DigestSink::digest_reports(&tweaked));
        assert_ne!(digest, DigestSink::digest_reports(&reports[1..]));
    }

    #[test]
    fn conformance_passes_on_a_real_scenario() {
        let packets = Workload::ddos_flood().synthesize(2);
        let config = ConformanceConfig {
            sampler: SamplerSpec::Stratified { rate: 0.2 },
            topk: Some(TopKSpec::SpaceSaving { capacity: 16 }),
            ..ConformanceConfig::default()
        };
        let digest = run_conformance("ddos-flood/stratified", &packets, &config);
        // Same cell, same digest; different seed, different digest.
        assert_eq!(
            digest,
            run_conformance("ddos-flood/stratified", &packets, &config)
        );
        let reseeded = ConformanceConfig {
            seed: config.seed ^ 1,
            ..config
        };
        assert_ne!(
            digest,
            run_conformance("ddos-flood/stratified", &packets, &reseeded)
        );
    }

    #[test]
    fn empty_trace_digest_is_stable() {
        let digest = run_conformance("empty", &[], &ConformanceConfig::default());
        assert_eq!(digest, DigestSink::digest_reports(&[]));
    }
}
