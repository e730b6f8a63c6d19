//! Isolated measurements of the monitor's own entry points and of the
//! report sinks — the layer readings every workload can give, because every
//! workload has a monitor configuration, a packet stream that monitor sees
//! and the reports it produces.

use std::time::Instant;

use flowrank_monitor::{BinReport, MonitorBuilder, NdjsonSink, ReportSink, RollingWindow};
use flowrank_net::PacketBatch;

use crate::harness::{CountBytes, Reading};
use crate::stats;

/// A sink that drops every report: the monitor's cost without a consumer.
struct Discard;

impl ReportSink for Discard {
    fn accept(&mut self, report: &BinReport) {
        std::hint::black_box(report);
    }
}

/// Median of `repeats` timings of `body`, in nanoseconds.
fn median_ns(repeats: usize, mut body: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..repeats).map(|_| body() as f64).collect();
    stats::median(&samples).unwrap_or(0.0)
}

/// Times the monitor's push, seal and build entry points over `streams` —
/// each a monitor builder with the packets that monitor sees in one pass —
/// and the ndjson and rolling-window sinks over `reports`. `smoke` takes
/// every reading once.
pub fn monitor_layers(
    streams: &[(MonitorBuilder, &PacketBatch)],
    reports: &[BinReport],
    smoke: bool,
) -> Vec<Reading> {
    let repeats = if smoke { 1 } else { 5 };
    let packets: usize = streams.iter().map(|(_, batch)| batch.len()).sum();
    let mut chunk = PacketBatch::new();

    let build_ns = median_ns(repeats, || {
        let start = Instant::now();
        for (builder, _) in streams {
            std::hint::black_box(builder.clone().build());
        }
        start.elapsed().as_nanos() as u64
    }) / streams.len().max(1) as f64;

    // Whole stream in 4096-packet chunks, no source, discarding sink. The
    // chunk copy is outside the clock.
    let push_batch_ns = median_ns(repeats, || {
        let mut busy = 0u64;
        for (builder, batch) in streams {
            let mut monitor = builder.clone().build();
            for start in (0..batch.len()).step_by(4096) {
                chunk.clear();
                chunk.extend_from_batch(batch, start..batch.len().min(start + 4096));
                let clock = Instant::now();
                monitor.push_batch_into(&chunk, &mut Discard);
                busy += clock.elapsed().as_nanos() as u64;
            }
            let clock = Instant::now();
            monitor.finish_into(&mut Discard);
            busy += clock.elapsed().as_nanos() as u64;
        }
        busy
    }) / packets.max(1) as f64;

    // The same with one-packet batches, over a prefix: at 120 lanes a full
    // stream of single pushes would take the whole traced budget. The
    // batches are cut beforehand so the clock sees only the pushes.
    let per_stream = if smoke { 2_000 } else { 20_000 } / streams.len().max(1);
    let singles: Vec<Vec<PacketBatch>> = streams
        .iter()
        .map(|(_, batch)| {
            (0..batch.len().min(per_stream))
                .map(|i| {
                    let mut one = PacketBatch::with_capacity(1);
                    one.extend_from_batch(batch, i..i + 1);
                    one
                })
                .collect()
        })
        .collect();
    let single_packets: usize = singles.iter().map(Vec::len).sum();
    let push_single_ns = median_ns(repeats.min(3), || {
        let mut busy = 0u64;
        for ((builder, _), singles) in streams.iter().zip(&singles) {
            let mut monitor = builder.clone().build();
            let clock = Instant::now();
            for one in singles {
                monitor.push_batch_into(one, &mut Discard);
            }
            monitor.finish_into(&mut Discard);
            busy += clock.elapsed().as_nanos() as u64;
        }
        busy
    }) / single_packets.max(1) as f64;

    // `finish_into` on a monitor holding one full bin: the first bin of
    // each stream, pushed outside the clock.
    let seal_ns = median_ns(repeats, || {
        let mut busy = 0u64;
        for (builder, batch) in streams {
            let mut monitor = builder.clone().build();
            let bin_nanos = monitor.bin_length().as_nanos().max(1);
            let Some(first_bin) = batch.ts_nanos().first().map(|ts| ts / bin_nanos) else {
                continue;
            };
            let end = batch
                .ts_nanos()
                .partition_point(|ts| ts / bin_nanos <= first_bin);
            chunk.clear();
            chunk.extend_from_batch(batch, 0..end);
            monitor.push_batch_into(&chunk, &mut Discard);
            let clock = Instant::now();
            monitor.finish_into(&mut Discard);
            busy += clock.elapsed().as_nanos() as u64;
        }
        busy
    }) / streams.len().max(1) as f64;

    let rounds = if smoke { 1 } else { 20 };
    let per_report = |body: &mut dyn FnMut(&BinReport)| {
        median_ns(repeats, || {
            let clock = Instant::now();
            for _ in 0..rounds {
                reports.iter().for_each(&mut *body);
            }
            clock.elapsed().as_nanos() as u64
        }) / (rounds * reports.len().max(1)) as f64
    };
    let mut ndjson = NdjsonSink::new(CountBytes::default());
    let sink_ndjson_ns = per_report(&mut |report| ndjson.accept(report));
    let mut rolling = RollingWindow::new(16);
    let mut rendered = String::new();
    let rolling_ns = per_report(&mut |report| {
        rolling.accept(report);
        rolling.render_json(&mut rendered);
        std::hint::black_box(rendered.len());
    });

    vec![
        ("monitor.build_ms", build_ns / 1e6),
        ("monitor.push_batch_ns_per_pkt", push_batch_ns),
        ("monitor.push_single_ns_per_pkt", push_single_ns),
        ("monitor.seal_ms_per_bin", seal_ns / 1e6),
        ("monitor.sink_ndjson_us_per_report", sink_ndjson_ns / 1e3),
        ("monitor.rolling_fold_us_per_report", rolling_ns / 1e3),
    ]
}
