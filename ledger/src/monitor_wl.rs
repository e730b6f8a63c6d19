//! The three in-process monitor workloads: `sec8_fanout`, `sec8_fanout_t2`
//! and `pcap_lean`.

use std::time::Instant;

use flowrank_monitor::{
    BatchSource, BinReport, Chunked, Collect, DigestSink, DriveSummary, Monitor, NdjsonSink,
    PacketSource, PcapBytesSource, ReportSink, Tee, TopKSpec,
};
use flowrank_net::pcap::{pcap_bytes_to_batch, records_to_pcap_bytes, PcapBatchCursor};
use flowrank_net::PacketBatch;
use flowrank_trace::Workload;

use crate::harness::{
    jittered_chunk, leaf_spans, render_new, Bench, CountBytes, Handovers, MonitorShape, PassSample,
    Reading, Stage, Stages, StampedSink, StampedSource,
};
use crate::layers::monitor_layers;
use crate::procfs;
use crate::replica::{verify, Replica};
use crate::spans::Recorder;

/// Which of the three monitor workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Sec. 8 grid — 4 rates × 30 runs — on `threads` threads.
    Fanout {
        /// Worker threads of the monitor.
        threads: usize,
    },
    /// One lane with a top-k backend over an in-memory capture.
    PcapLean,
}

/// Inputs, reference outputs and scratch of one monitor workload.
pub struct MonitorBench {
    kind: Kind,
    smoke: bool,
    shape: MonitorShape,
    /// The materialised packets: `sec8_*`'s input, and the decoded form of
    /// `pcap_lean`'s capture that the reference run and the replica checks
    /// use.
    batch: PacketBatch,
    /// `pcap_lean`'s input.
    pcap: Vec<u8>,
    reference_digest: u64,
    synth_ns_per_pkt: f64,
    handovers: Handovers,
    received: Vec<(u64, Instant)>,
    segment_stats: (u64, u64),
    /// Built by `prepare_trace`: a measured run never pays for it.
    replica: Option<Replica>,
    captured: Vec<BinReport>,
}

/// The digest of `sink`'s stream, whichever sink shape the workload uses.
trait Digested: ReportSink {
    fn digest(&self) -> u64;
}

impl Digested for DigestSink {
    fn digest(&self) -> u64 {
        DigestSink::digest(self)
    }
}

impl<K: ReportSink> Digested for Tee<DigestSink, K> {
    fn digest(&self) -> u64 {
        self.0.digest()
    }
}

impl MonitorBench {
    /// Generates the inputs of `kind` from `seed` and computes the
    /// reference digest. `smoke` divides the input by twenty.
    pub fn setup(kind: Kind, seed: u64, smoke: bool) -> Result<Self, String> {
        let shrink = if smoke { 20.0 } else { 1.0 };
        let (shape, scale) = match kind {
            Kind::Fanout { threads } => (
                MonitorShape {
                    rates: vec![0.001, 0.01, 0.1, 0.5],
                    runs: 30,
                    topk: None,
                    top_t: 10,
                    bin_secs: 10.0,
                    seed,
                    threads,
                },
                25.0,
            ),
            Kind::PcapLean => (
                MonitorShape {
                    rates: vec![0.1],
                    runs: 1,
                    topk: Some(TopKSpec::SpaceSaving { capacity: 64 }),
                    top_t: 10,
                    bin_secs: 10.0,
                    seed,
                    threads: 1,
                },
                50.0,
            ),
        };
        let workload = Workload::mixed().scaled(scale / shrink);
        let clock = Instant::now();
        let (batch, pcap, synth_ns) = match kind {
            Kind::Fanout { .. } => {
                let batch = workload.synthesize_batch(seed);
                let synth_ns = clock.elapsed().as_nanos();
                (batch, Vec::new(), synth_ns)
            }
            Kind::PcapLean => {
                let records = workload.synthesize(seed);
                let synth_ns = clock.elapsed().as_nanos();
                let pcap = records_to_pcap_bytes(&records).map_err(|e| e.to_string())?;
                // The reference run reads the capture, not the records the
                // capture was written from: what the decoder makes of the
                // bytes is part of the input, not of the program's output.
                let mut batch = PacketBatch::with_capacity(records.len());
                pcap_bytes_to_batch(&pcap, &mut batch).map_err(|e| e.to_string())?;
                (batch, pcap, synth_ns)
            }
        };
        if batch.is_empty() {
            return Err("the generator produced no packets".to_string());
        }
        // The reference comes from a different entry point than the timed
        // call (`run_batch`, not `drive`) and always from the serial
        // engine, so `_t2` is checked against another engine too.
        let reference_shape = MonitorShape {
            threads: 1,
            ..shape.clone()
        };
        let reports = reference_shape.builder().build().run_batch(&batch);
        let mut digest = DigestSink::new();
        for report in &reports {
            digest.accept(report);
        }
        Ok(MonitorBench {
            kind,
            smoke,
            replica: None,
            synth_ns_per_pkt: synth_ns as f64 / batch.len() as f64,
            shape,
            batch,
            pcap,
            reference_digest: digest.digest(),
            handovers: Handovers::default(),
            received: Vec::new(),
            segment_stats: (0, 0),
            captured: Vec::new(),
        })
    }

    /// Makes the next pass's digest comparison fail, for the test that a
    /// wrong output is counted as a failed pass.
    pub fn corrupt_reference(&mut self) {
        self.reference_digest ^= 1;
    }

    /// Builds a monitor and drives it over the input through the stamped
    /// wrappers; everything between the two clock reads is the program
    /// under test plus the wrappers' own stamps.
    fn drive<K: Digested>(
        &mut self,
        index: usize,
        sink: K,
        lags: &mut Vec<u64>,
        rec: Option<&mut Recorder>,
    ) -> PassSample {
        let clock = Instant::now();
        let mut monitor = self.shape.builder().build();
        let build_ns = clock.elapsed().as_nanos() as u64;
        let bin_length = self.shape.bin_length();
        let trace = rec.is_some();
        let chunk = jittered_chunk(index);
        let mut sink = StampedSink::new(sink, &mut self.received, trace);
        let handovers = &mut self.handovers;

        let (summary, span, cpu_ticks, stamps, source_error) = match self.kind {
            Kind::Fanout { .. } => {
                let source = Chunked::new(BatchSource::new(&self.batch), chunk);
                let mut source = StampedSource::new(source, bin_length, handovers, trace);
                let (summary, span, cpu_ticks) = timed(&mut monitor, &mut source, &mut sink);
                (summary, span, cpu_ticks, source.stamps, None)
            }
            Kind::PcapLean => {
                let source = match PcapBytesSource::new(&self.pcap) {
                    Ok(source) => source.with_chunk_packets(chunk),
                    Err(error) => return failed(build_ns, format!("capture rejected: {error}")),
                };
                let mut source = StampedSource::new(source, bin_length, handovers, trace);
                let (summary, span, cpu_ticks) = timed(&mut monitor, &mut source, &mut sink);
                let error = source.inner().error().map(|e| e.to_string());
                (summary, span, cpu_ticks, source.stamps, error)
            }
        };
        self.segment_stats = monitor.segment_stats();
        drop(monitor);

        let (source_ns, sink_ns) = (stamps.busy_ns, sink.busy_ns);
        if let Some(rec) = rec {
            // The call is over; it is recorded from the clock reads around
            // it, and the wrappers' calls become its children.
            let id = rec.open_at("monitor.drive", span.0);
            leaf_spans(rec, "source.next_chunk", stamps.calls.unwrap_or_default());
            let sink_calls = sink.calls.take().unwrap_or_default();
            leaf_spans(
                rec,
                "sink.accept",
                sink_calls.into_iter().map(|(s, e)| (s, e, 1)),
            );
            rec.close_at(id, span.1, summary.packets);
        }
        let wall_ns = (span.1 - span.0).as_nanos() as u64;

        let digest = sink.inner.digest();
        let failure = if let Some(error) = source_error {
            Some(format!("source error: {error}"))
        } else if summary.packets != self.batch.len() as u64 {
            Some(format!(
                "{} packets driven, input holds {}",
                summary.packets,
                self.batch.len()
            ))
        } else if digest != self.reference_digest {
            Some(format!(
                "report digest {digest:#018x} differs from the reference {:#018x}",
                self.reference_digest
            ))
        } else {
            None
        };
        if failure.is_none() {
            self.handovers.lags(&self.received, lags);
        }
        PassSample {
            packets: summary.packets,
            wall_ns,
            cpu_ticks,
            build_ns,
            source_ns,
            sink_ns,
            failure,
        }
    }
}

fn failed(build_ns: u64, reason: String) -> PassSample {
    PassSample {
        build_ns,
        failure: Some(reason),
        ..PassSample::default()
    }
}

/// The timed call: `Monitor::drive` between two clock reads and two reads
/// of this process's CPU ticks.
fn timed<S: PacketSource, K: ReportSink>(
    monitor: &mut Monitor,
    source: &mut S,
    sink: &mut K,
) -> (DriveSummary, (Instant, Instant), u64) {
    let ticks = procfs::cpu_ticks(None).unwrap_or(0);
    let start = Instant::now();
    let summary = monitor.drive(source, sink);
    let end = Instant::now();
    let cpu_ticks = procfs::cpu_ticks(None).unwrap_or(0).saturating_sub(ticks);
    (summary, (start, end), cpu_ticks)
}

impl Bench for MonitorBench {
    fn input_packets(&self) -> u64 {
        self.batch.len() as u64
    }

    fn threads(&self) -> usize {
        self.shape.threads
    }

    fn synth_ns_per_pkt(&self) -> f64 {
        self.synth_ns_per_pkt
    }

    fn pass(
        &mut self,
        index: usize,
        lags: &mut Vec<u64>,
        rec: Option<&mut Recorder>,
    ) -> PassSample {
        match self.kind {
            Kind::Fanout { .. } => self.drive(index, DigestSink::new(), lags, rec),
            Kind::PcapLean => self.drive(
                index,
                Tee(DigestSink::new(), NdjsonSink::new(CountBytes::default())),
                lags,
                rec,
            ),
        }
    }

    fn prepare_trace(&mut self) -> Result<(), String> {
        let mut collect = Collect::new();
        let mut monitor = self.shape.builder().build();
        monitor.drive(&mut BatchSource::new(&self.batch), &mut collect);
        self.captured = collect.reports;
        self.replica = Some(Replica::new(std::slice::from_ref(&self.shape)));
        Ok(())
    }

    fn replica_pass(&mut self, stages: &mut Stages, rec: &mut Recorder) -> Result<(), String> {
        let replica = self
            .replica
            .as_mut()
            .ok_or("replica_pass before prepare_trace")?;
        let id = rec.open("replica");
        let mut reports: Vec<BinReport> = Vec::new();
        let mut rendered = 0usize;
        let mut digest = Tee(DigestSink::new(), NdjsonSink::new(CountBytes::default()));
        let lean = self.kind == Kind::PcapLean;
        let mut render = |report: &BinReport| {
            if lean {
                digest.accept(report)
            } else {
                digest.0.accept(report)
            }
        };
        let mut chunk = PacketBatch::new();
        let mut cursor = if lean {
            Some(PcapBatchCursor::new(&self.pcap).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let mut position = 0usize;
        loop {
            chunk.clear();
            match &mut cursor {
                Some(cursor) => {
                    let clock = Instant::now();
                    let decoded = cursor
                        .decode_some(&mut chunk, 4096)
                        .map_err(|e| e.to_string())?;
                    stages.add(Stage::Decode, clock, decoded, rec);
                }
                None => {
                    let end = self.batch.len().min(position + 4096);
                    chunk.extend_from_batch(&self.batch, position..end);
                    position = end;
                }
            }
            if chunk.is_empty() {
                break;
            }
            replica.push(&[(0, &chunk)], stages, rec, &mut |_, report| {
                reports.push(report.clone())
            });
            render_new(&reports, &mut rendered, stages, rec, &mut render);
        }
        replica.finish(stages, rec, &mut |_, report| reports.push(report.clone()));
        render_new(&reports, &mut rendered, stages, rec, &mut render);
        stages.passes += 1;
        rec.close(id, self.batch.len() as u64);

        let real = self.captured.iter().filter(|r| r.packets > 0);
        verify(
            reports.iter().map(|r| (0, r)),
            real.map(|r| (0, r)).collect::<Vec<_>>().into_iter(),
        )
    }

    fn replica(&self) -> Option<&Replica> {
        self.replica.as_ref()
    }

    fn segment_stats(&self) -> (u64, u64) {
        self.segment_stats
    }

    fn layers(&mut self, _rec: &mut Recorder) -> Result<(Vec<Reading>, Vec<Reading>), String> {
        let common = monitor_layers(
            &[(self.shape.builder(), &self.batch)],
            &self.captured,
            self.smoke,
        );
        let detail = if self.kind == Kind::PcapLean {
            vec![(
                "net.pcap_bytes_per_pkt",
                self.pcap.len() as f64 / self.batch.len() as f64,
            )]
        } else {
            Vec::new()
        };
        Ok((common, detail))
    }
}
