//! `flowrank-serve` — run a monitor as a long-lived daemon over a live
//! source. See `flowrank-serve --example-config` for the configuration
//! surface and the crate docs for the architecture.

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use flowrank_monitor::{
    CsvSink, NdjsonRecordSource, NdjsonSink, PacketSource, PcapTailSource, ReportSink, StopGate,
    Tee,
};
use flowrank_net::Timestamp;
use flowrank_serve::{signal, OutputKind, PublishSink, ServeConfig, SnapshotPublisher, SourceKind};
use flowrank_trace::{PacedReplay, Workload};

fn main() -> ExitCode {
    let config_path = match parse_args() {
        Ok(Some(path)) => path,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("flowrank-serve: {message}");
            eprintln!("usage: flowrank-serve --config <file> | --example-config");
            return ExitCode::from(2);
        }
    };
    let config = match ServeConfig::load(&config_path) {
        Ok(config) => config,
        Err(error) => {
            eprintln!("flowrank-serve: {config_path}: {error}");
            return ExitCode::from(2);
        }
    };
    match run(&config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("flowrank-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args() -> Result<Option<String>, String> {
    let mut config = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => {
                config = Some(args.next().ok_or("--config needs a path")?);
            }
            "--example-config" => {
                print!("{}", ServeConfig::example());
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    config
        .map(Some)
        .ok_or_else(|| "missing --config".to_string())
}

fn run(config: &ServeConfig) -> Result<(), String> {
    let stop = Arc::new(AtomicBool::new(false));
    signal::install(Arc::clone(&stop));

    let publisher = SnapshotPublisher::new();
    if let Some(listen) = &config.snapshot_listen {
        let bound = publisher
            .serve(listen.as_str())
            .map_err(|e| format!("cannot bind snapshot endpoint {listen}: {e}"))?;
        eprintln!("flowrank-serve: snapshot endpoint on http://{bound}/");
    }

    if config.tenants > 0 {
        // Fleet mode: `tenants` monitors behind one slab.
        let started = Instant::now();
        let summary = flowrank_serve::run_fleet(config, stop, &publisher)?;
        let (elapsed, throughput) = rate(summary.fleet.packets, started);
        println!(
            "{{\"serve\":\"final\",\"fleet\":true,\"tenants\":{},\"windows\":{},\"bins\":{},\"packets\":{},\"evictions\":{},\"malformed_skipped\":{},\"unknown_tenant_skipped\":{},\"elapsed_s\":{elapsed:.3},\"throughput_pps\":{throughput:.0}}}",
            summary.fleet.tenants,
            summary.fleet.windows,
            summary.fleet.reports,
            summary.fleet.packets,
            summary.fleet.evictions,
            summary.malformed_skipped,
            summary.unknown_tenant_skipped,
        );
        return Ok(());
    }

    let mut monitor = config.monitor();
    let publish = PublishSink::new(config.retain_bins, publisher.clone())
        .stop_after(config.max_bins, Arc::clone(&stop));
    let mut sink = Tee(publish, writer_sink(config)?);

    let started = Instant::now();
    let mut source: Box<dyn PacketSource> = match config.source {
        SourceKind::Replay => {
            let workload = Workload::by_name(&config.scenario)
                .ok_or_else(|| format!("unknown scenario `{}`", config.scenario))?;
            let stream = if config.window_ms > 0 {
                workload.stream_with_window(
                    config.seed,
                    Timestamp::from_secs_f64(config.window_ms as f64 / 1000.0),
                )
            } else {
                workload.stream(config.seed)
            };
            Box::new(PacedReplay::new(stream, config.speed))
        }
        SourceKind::Tail => {
            let path = config.pcap.as_ref().expect("validated by config");
            let tail = PcapTailSource::open(path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
            Box::new(tail.follow(config.follow))
        }
        SourceKind::Ndjson => Box::new(NdjsonRecordSource::new(std::io::stdin().lock())),
        SourceKind::Socket => {
            let (bound, socket) =
                flowrank_serve::socket::listen(config.listen.as_str(), Arc::clone(&stop))
                    .map_err(|e| format!("cannot bind record listener {}: {e}", config.listen))?;
            eprintln!("flowrank-serve: record listener on {bound}");
            Box::new(socket)
        }
    };
    let stats = monitor
        .try_drive(&mut StopGate::new(source.as_mut(), stop), &mut sink)
        .map_err(|error| format!("drive aborted: {error}"))?;
    let (elapsed, throughput) = rate(stats.packets, started);

    let Tee(publish, writer) = sink;
    writer.finish()?;
    // The final line is machine-readable: the ledger's `serve_ndjson`
    // workload and the smoke test parse it.
    println!(
        "{{\"serve\":\"final\",\"bins\":{},\"packets\":{},\"idle_polls\":{},\"malformed_skipped\":{},\"elapsed_s\":{elapsed:.3},\"throughput_pps\":{throughput:.0}}}",
        publish.window().bins_seen(),
        stats.packets,
        stats.idle_polls,
        stats.malformed_skipped,
    );
    Ok(())
}

/// Seconds since `started`, and `packets` per second over them.
fn rate(packets: u64, started: Instant) -> (f64, f64) {
    let elapsed = started.elapsed().as_secs_f64();
    let rate = (elapsed > 0.0).then(|| packets as f64 / elapsed);
    (elapsed, rate.unwrap_or(0.0))
}

/// The optional per-bin report stream next to the snapshot.
enum WriterSink {
    None,
    Ndjson(NdjsonSink<Box<dyn std::io::Write>>),
    Csv(CsvSink<Box<dyn std::io::Write>>),
}

impl WriterSink {
    fn finish(self) -> Result<(), String> {
        let result = match self {
            WriterSink::None => return Ok(()),
            WriterSink::Ndjson(sink) => sink.finish().map(drop),
            WriterSink::Csv(sink) => sink.finish().map(drop),
        };
        result.map_err(|e| format!("report stream: {e}"))
    }

    /// The configured stream, the one place the variants are told apart.
    fn stream(&mut self) -> Option<&mut dyn ReportSink> {
        match self {
            WriterSink::None => None,
            WriterSink::Ndjson(sink) => Some(sink),
            WriterSink::Csv(sink) => Some(sink),
        }
    }
}

impl ReportSink for WriterSink {
    fn accept(&mut self, report: &flowrank_monitor::BinReport) {
        if let Some(stream) = self.stream() {
            stream.accept(report);
        }
    }

    fn emit(&mut self, report: &flowrank_monitor::BinReport) -> std::io::Result<()> {
        self.stream().map_or(Ok(()), |stream| stream.emit(report))
    }
}

fn writer_sink(config: &ServeConfig) -> Result<WriterSink, String> {
    if config.output == OutputKind::None {
        return Ok(WriterSink::None);
    }
    let out: Box<dyn std::io::Write> = match &config.output_path {
        None => Box::new(std::io::stdout()),
        Some(path) => Box::new(
            std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
        ),
    };
    Ok(match config.output {
        OutputKind::None => unreachable!("handled above"),
        OutputKind::Ndjson => WriterSink::Ndjson(NdjsonSink::new(out)),
        OutputKind::Csv => WriterSink::Csv(CsvSink::new(out)),
    })
}
