//! What every workload shares: the monitor shape, the stamped source and
//! sink wrappers that give report lag and source/sink time, the per-stage
//! accumulators of the traced run, and the trait the runner drives.

use std::time::Instant;

use flowrank_monitor::{
    BinReport, MonitorBuilder, PacketSource, ReportSink, SamplerSpec, SourceError, TopKSpec,
};
use flowrank_net::{FlowDefinition, PacketBatch, Timestamp};

use crate::replica::Replica;
use crate::spans::Recorder;

/// The monitor configuration of a workload, in one place: the real
/// monitor's builder and the stage replica are both derived from it, so
/// they cannot be configured apart. Every workload classifies by 5-tuple
/// and samples with the random sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorShape {
    /// Sampling-rate grid.
    pub rates: Vec<f64>,
    /// Independent runs per rate.
    pub runs: usize,
    /// Top-k backend on every lane, if any.
    pub topk: Option<TopKSpec>,
    /// Top-`t` boundary of the detection metric.
    pub top_t: usize,
    /// Measurement-bin length in seconds.
    pub bin_secs: f64,
    /// Master seed of the lanes' random streams.
    pub seed: u64,
    /// Worker threads of the monitor.
    pub threads: usize,
}

impl MonitorShape {
    /// Lanes the monitor carries.
    pub fn lanes(&self) -> usize {
        self.rates.len() * self.runs
    }

    /// Bin length as a timestamp.
    pub fn bin_length(&self) -> Timestamp {
        Timestamp::from_secs_f64(self.bin_secs)
    }

    /// The builder of the real monitor.
    pub fn builder(&self) -> MonitorBuilder {
        let mut builder = MonitorBuilder::new()
            .flow_definition(FlowDefinition::FiveTuple)
            .sampler(SamplerSpec::Random {
                rate: self.rates[0],
            })
            .rates(&self.rates)
            .runs(self.runs)
            .bin_length(self.bin_length())
            .top_t(self.top_t)
            .seed(self.seed)
            .threads(self.threads);
        if let Some(topk) = self.topk {
            builder = builder.topk(topk);
        }
        builder
    }
}

/// A writer that counts the bytes it is given and keeps none: report
/// rendering without I/O. `std::io::sink()` will not do — the standard
/// library skips formatting altogether for it, and the rendering is the
/// cost being measured.
#[derive(Debug, Default)]
pub struct CountBytes(pub u64);

impl std::io::Write for CountBytes {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += std::hint::black_box(buf).len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Chunk size of pass `index`: 4096 packets less a per-pass offset.
///
/// A report's lag is counted from the hand-over of the chunk that crosses
/// its bin boundary, so it includes the work on that chunk's packets before
/// the boundary — between none and a whole chunk, depending on where the
/// boundary falls. With one fixed chunk size every pass of a run would
/// sample the same handful of positions (one per bin) and the median lag
/// would move with the seed; stepping the size from pass to pass samples
/// the positions evenly instead. Throughput does not notice a chunk of
/// 3072 against 4096.
pub fn jittered_chunk(index: usize) -> usize {
    4096 - (index * 61) % 1024
}

/// One pass of a workload's real call.
#[derive(Debug, Clone, Default)]
pub struct PassSample {
    /// Packets the program under test reported processing.
    pub packets: u64,
    /// Wall time of the timed call, nanoseconds.
    pub wall_ns: u64,
    /// User plus system clock ticks of the program under test during the
    /// timed call.
    pub cpu_ticks: u64,
    /// Wall time of building the monitor, fleet or child, outside the
    /// timed call.
    pub build_ns: u64,
    /// Time inside the harness's source wrapper (the source itself).
    pub source_ns: u64,
    /// Time inside the harness's sink wrapper (the sink itself).
    pub sink_ns: u64,
    /// Why the pass failed; `None` for a pass whose packet count and
    /// output matched the reference.
    pub failure: Option<String>,
}

/// Hand-over times of a pass's input, for report lag: each entry says when
/// the source first handed over a chunk reaching bin `.0`.
#[derive(Debug, Default)]
pub struct Handovers {
    marks: Vec<(u64, Instant)>,
    end: Option<Instant>,
}

impl Handovers {
    /// Forgets the previous pass, keeping the buffer.
    pub fn clear(&mut self) {
        self.marks.clear();
        self.end = None;
    }

    /// Notes a chunk handed over at `at` whose last packet is in `bin`.
    pub fn handed(&mut self, bin: u64, at: Instant) {
        if self.marks.last().is_none_or(|(reached, _)| bin > *reached) {
            self.marks.push((bin, at));
        }
    }

    /// Notes the end of the stream.
    pub fn ended(&mut self, at: Instant) {
        self.end.get_or_insert(at);
    }

    /// When the program first held what it needed to close `bin`: the
    /// hand-over of the first chunk with a packet of a later bin, or the
    /// end of the stream.
    pub fn trigger(&self, bin: u64) -> Option<Instant> {
        let later = self.marks.partition_point(|(reached, _)| *reached <= bin);
        self.marks.get(later).map(|(_, at)| *at).or(self.end)
    }

    /// Appends to `lags` the lag, in nanoseconds, of every `(bin, received)`
    /// report.
    pub fn lags(&self, received: &[(u64, Instant)], lags: &mut Vec<u64>) {
        for (bin, at) in received {
            if let Some(trigger) = self.trigger(*bin) {
                push_lag(
                    lags,
                    at.saturating_duration_since(trigger).as_nanos() as u64,
                );
            }
        }
    }
}

/// Lag samples kept per run. The buffer is reserved before the measured
/// window so its growth is not counted as the program's memory; samples
/// past the reserve are dropped rather than reallocating.
pub const LAG_RESERVE: usize = 1 << 21;

/// Appends a lag sample unless the reserve is full.
pub fn push_lag(lags: &mut Vec<u64>, lag_ns: u64) {
    if lags.len() < lags.capacity() {
        lags.push(lag_ns);
    }
}

/// What a stamped source or sink notes about its calls.
#[derive(Debug)]
pub struct Stamps<'a> {
    bin_nanos: u64,
    handovers: &'a mut Handovers,
    /// Nanoseconds spent inside the wrapped source.
    pub busy_ns: u64,
    /// `(start, end, packets)` of every call, kept only when tracing.
    pub calls: Option<Vec<(Instant, Instant, u64)>>,
}

impl Stamps<'_> {
    /// Notes one call that started at `start` and produced `chunk`.
    fn note(&mut self, start: Instant, chunk: Option<&PacketBatch>) {
        let end = Instant::now();
        self.busy_ns += (end - start).as_nanos() as u64;
        let packets = chunk.map_or(0, |c| c.len() as u64);
        match chunk.and_then(|c| c.ts_nanos().last()) {
            Some(ts) => self.handovers.handed(ts / self.bin_nanos, end),
            None => self.handovers.ended(end),
        }
        if let Some(calls) = &mut self.calls {
            calls.push((start, end, packets));
        }
    }
}

/// A packet source that stamps every hand-over and times itself.
#[derive(Debug)]
pub struct StampedSource<'a, S> {
    inner: S,
    /// What the wrapper noted.
    pub stamps: Stamps<'a>,
}

impl<'a, S> StampedSource<'a, S> {
    /// Wraps `inner`; `trace` keeps per-call intervals for the span file.
    pub fn new(inner: S, bin_length: Timestamp, handovers: &'a mut Handovers, trace: bool) -> Self {
        handovers.clear();
        StampedSource {
            inner,
            stamps: Stamps {
                bin_nanos: bin_length.as_nanos().max(1),
                handovers,
                busy_ns: 0,
                calls: trace.then(Vec::new),
            },
        }
    }
}

impl<S> StampedSource<'_, S> {
    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: PacketSource> PacketSource for StampedSource<'_, S> {
    fn next_chunk(&mut self) -> Option<&PacketBatch> {
        let start = Instant::now();
        let chunk = self.inner.next_chunk();
        self.stamps.note(start, chunk);
        chunk
    }

    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        let start = Instant::now();
        let polled = self.inner.try_next_chunk();
        match &polled {
            Ok(chunk) => self.stamps.note(start, *chunk),
            // A malformed record is time in the source but hands nothing over.
            Err(_) => self.stamps.busy_ns += start.elapsed().as_nanos() as u64,
        }
        polled
    }
}

/// A report sink that stamps when each report arrives and times the sink
/// behind it.
#[derive(Debug)]
pub struct StampedSink<'a, K> {
    /// The wrapped sink.
    pub inner: K,
    /// `(bin, arrival)` of every report of the pass.
    pub received: &'a mut Vec<(u64, Instant)>,
    /// Nanoseconds spent inside the wrapped sink.
    pub busy_ns: u64,
    /// `(start, end)` of every call, kept only when tracing.
    pub calls: Option<Vec<(Instant, Instant)>>,
}

impl<'a, K> StampedSink<'a, K> {
    /// Wraps `inner`; `received` is cleared and refilled.
    pub fn new(inner: K, received: &'a mut Vec<(u64, Instant)>, trace: bool) -> Self {
        received.clear();
        StampedSink {
            inner,
            received,
            busy_ns: 0,
            calls: trace.then(Vec::new),
        }
    }
}

impl<K: ReportSink> ReportSink for StampedSink<'_, K> {
    fn accept(&mut self, report: &BinReport) {
        let start = Instant::now();
        self.received.push((report.bin_index, start));
        self.inner.accept(report);
        let end = Instant::now();
        self.busy_ns += (end - start).as_nanos() as u64;
        if let Some(calls) = &mut self.calls {
            calls.push((start, end));
        }
    }
}

/// Adds the calls a stamped wrapper kept as leaf spans under the open span.
pub fn leaf_spans(
    rec: &mut Recorder,
    name: &'static str,
    calls: impl IntoIterator<Item = (Instant, Instant, u64)>,
) {
    for (start, end, count) in calls {
        rec.leaf(name, start, end, count);
    }
}

/// Delivers the reports a replica closed since the last call to `accept`,
/// as one timed render stage — after the chunk's other stages, the way the
/// engine's sink sees them.
pub fn render_new<T>(
    reports: &[T],
    rendered: &mut usize,
    stages: &mut Stages,
    rec: &mut Recorder,
    mut accept: impl FnMut(&T),
) {
    let new = &reports[*rendered..];
    if new.is_empty() {
        return;
    }
    let clock = Instant::now();
    new.iter().for_each(&mut accept);
    stages.add(Stage::Render, clock, new.len() as u64, rec);
    *rendered = reports.len();
}

/// A stage of the packet path, as the replica of the traced run times it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// pcap bytes to packet columns (`PcapBatchCursor::decode_some`).
    Decode,
    /// ndjson lines to packet columns (`parse_ndjson_record`).
    Parse,
    /// Tagged window to per-tenant batches.
    Demux,
    /// Flow keys of a segment (`PacketBatch::flow_key`).
    KeyDerive,
    /// Ground-truth table update (`FlowTable::observe_batch`).
    Classify,
    /// Bare `FlowMap::upsert` over the same keys — a side measurement.
    Upsert,
    /// Sampling decisions of every lane (`keep_batch`).
    Keep,
    /// Sampled-table update with the kept packets.
    LaneUpdate,
    /// Top-k tracker update with the kept packets.
    TopkOffer,
    /// Ranking the bin's ground truth (`GroundTruthRanking::new`).
    Rank,
    /// Scoring and restarting every lane at the bin's close.
    Score,
    /// Delivering the report to the workload's sink.
    Render,
}

impl Stage {
    /// Span name of the stage.
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Decode => "replica.decode",
            Stage::Parse => "replica.parse",
            Stage::Demux => "replica.demux",
            Stage::KeyDerive => "replica.key_derive",
            Stage::Classify => "replica.classify",
            Stage::Upsert => "replica.upsert",
            Stage::Keep => "replica.keep_batch",
            Stage::LaneUpdate => "replica.lane_update",
            Stage::TopkOffer => "replica.topk_offer",
            Stage::Rank => "replica.rank",
            Stage::Score => "replica.score",
            Stage::Render => "replica.render",
        }
    }
}

/// Time and units per stage, summed over the replica passes of a run.
#[derive(Debug, Default, Clone)]
pub struct Stages {
    ns: [u64; 12],
    units: [u64; 12],
    /// Replica passes folded in.
    pub passes: u64,
}

impl Stages {
    /// Folds in one stage call that started at `start` and handled `units`,
    /// and records it as a span.
    pub fn add(&mut self, stage: Stage, start: Instant, units: u64, rec: &mut Recorder) {
        let end = Instant::now();
        self.ns[stage as usize] += (end - start).as_nanos() as u64;
        self.units[stage as usize] += units;
        rec.leaf(stage.span_name(), start, end, units);
    }

    /// Nanoseconds spent in `stage`.
    pub fn ns(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    /// Units `stage` handled.
    pub fn units(&self, stage: Stage) -> u64 {
        self.units[stage as usize]
    }

    /// Nanoseconds per unit of `stage`; 0 when the stage never ran.
    pub fn ns_per_unit(&self, stage: Stage) -> f64 {
        match self.units(stage) {
            0 => 0.0,
            units => self.ns(stage) as f64 / units as f64,
        }
    }
}

/// A named value a traced run measured.
pub type Reading = (&'static str, f64);

/// What the runner needs from a workload. One object holds the generated
/// inputs and reference outputs of one seed and is driven pass after pass.
pub trait Bench {
    /// Packets (records) in the input of one pass.
    fn input_packets(&self) -> u64;

    /// Threads the program under test runs its packet path on.
    fn threads(&self) -> usize;

    /// Nanoseconds per packet `flowrank-trace` took to synthesise the input.
    fn synth_ns_per_pkt(&self) -> f64;

    /// Runs the real call once over the whole input and checks its output.
    /// Report lags, in nanoseconds, are appended to `lags`; with a recorder
    /// the call and the harness's source and sink wrappers become spans.
    fn pass(&mut self, index: usize, lags: &mut Vec<u64>, rec: Option<&mut Recorder>)
        -> PassSample;

    /// Peak resident memory of the child process, KiB, for a workload that
    /// runs the program as one; `None` when it runs in this process and
    /// the counting allocator measures it.
    fn child_peak_kib(&self) -> Option<u64> {
        None
    }

    /// Captures the real run's reports for the replica to be held against.
    fn prepare_trace(&mut self) -> Result<(), String>;

    /// Walks the input through the stage replica once, under a `replica`
    /// span, and checks its reports against the real run's.
    fn replica_pass(&mut self, stages: &mut Stages, rec: &mut Recorder) -> Result<(), String>;

    /// The replica, once `prepare_trace` has built it.
    fn replica(&self) -> Option<&Replica>;

    /// Stages beside the replica's engine stages that run inside the real
    /// call and so stand against its wall time too.
    fn extra_engine_stages(&self) -> &'static [Stage] {
        &[]
    }

    /// `(inline, dispatched)` segment counts of the last pass's monitors.
    fn segment_stats(&self) -> (u64, u64);

    /// Isolated layer measurements taken after the traced rounds: the
    /// readings every workload gives, then the ones only this workload has.
    fn layers(&mut self, rec: &mut Recorder) -> Result<(Vec<Reading>, Vec<Reading>), String>;
}
