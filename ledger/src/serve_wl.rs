//! The `serve_ndjson` workload: the release `flowrank-serve` binary, fed
//! ndjson records on stdin, its report stream read from stdout.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use flowrank_monitor::{
    parse_ndjson_record, BinReport, Collect, NdjsonRecordSource, NdjsonSink, PacketSource,
    ReportSink, RollingWindow, Tee, TopKSpec,
};
use flowrank_net::{PacketBatch, PacketRecord, Protocol};
use flowrank_serve::ServeConfig;
use flowrank_trace::Workload;

use crate::harness::{
    jittered_chunk, leaf_spans, push_lag, render_new, Bench, CountBytes, Handovers, MonitorShape,
    PassSample, Reading, Stage, Stages, StampedSink, StampedSource,
};
use crate::layers::monitor_layers;
use crate::replica::{verify, Replica};
use crate::spans::Recorder;
use crate::{json, procfs, stats};

/// One line in this many is malformed.
const MALFORMED_EVERY: usize = 1000;
/// How long the harness waits for the child's ready line.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// Inputs, reference outputs and scratch of the serve workload.
pub struct ServeBench {
    smoke: bool,
    binary: PathBuf,
    config_path: PathBuf,
    config_text: String,
    shape: MonitorShape,
    /// The pre-rendered input, malformed lines included.
    bytes: Vec<u8>,
    /// End offset of every line.
    line_ends: Vec<usize>,
    /// `(offset of the bin's first record, bin)` in stream order.
    bin_starts: Vec<(usize, u64)>,
    /// The well-formed records, as the program parses them.
    batch: PacketBatch,
    malformed: u64,
    reference_out: Vec<u8>,
    synth_ns_per_pkt: f64,
    /// Built by `prepare_trace`: a measured run never pays for it.
    replica: Option<Replica>,
    captured: Vec<BinReport>,
    child_peak_kib: u64,
    walls_ns: Vec<f64>,
    startups_ns: Vec<f64>,
    polls_ns: Vec<f64>,
    child_elapsed_s: f64,
    last_malformed: u64,
}

fn render_record(out: &mut Vec<u8>, record: &PacketRecord) {
    let proto = if record.protocol == Protocol::Tcp {
        "tcp"
    } else {
        "udp"
    };
    let _ = write!(
        out,
        "{{\"ts\":{},\"src\":\"{}\",\"sport\":{},\"dst\":\"{}\",\"dport\":{},\"proto\":\"{proto}\",\"len\":{}",
        record.timestamp.as_secs_f64(),
        record.src_ip,
        record.src_port,
        record.dst_ip,
        record.dst_port,
        record.length,
    );
    if let Some(seq) = record.tcp_seq.filter(|_| record.protocol == Protocol::Tcp) {
        let _ = write!(out, ",\"seq\":{seq}");
    }
    out.extend_from_slice(b"}\n");
}

/// What the child printed and when.
struct ChildOutput {
    bytes: Vec<u8>,
    /// `(end offset in bytes, arrival)` of every line.
    lines: Vec<(usize, Instant)>,
    eof: Instant,
}

fn read_stdout(stdout: impl Read) -> ChildOutput {
    let mut reader = BufReader::new(stdout);
    let mut bytes = Vec::new();
    let mut lines = Vec::new();
    // A read error ends the stream like EOF; the pass then fails on its
    // missing final line.
    while matches!(reader.read_until(b'\n', &mut bytes), Ok(n) if n > 0) {
        lines.push((bytes.len(), Instant::now()));
    }
    ChildOutput {
        bytes,
        lines,
        eof: Instant::now(),
    }
}

/// Field `key` of a line the daemon printed, which is one JSON object.
fn number_in(line: &[u8], key: &str) -> Option<f64> {
    json::parse(std::str::from_utf8(line).ok()?)
        .ok()?
        .get(key)?
        .as_f64()
}

fn poll_snapshot(addr: &str) -> std::io::Result<Duration> {
    let clock = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET / HTTP/1.1\r\nHost: ledger\r\n\r\n")?;
    let mut body = Vec::new();
    stream.read_to_end(&mut body)?;
    if !body.starts_with(b"HTTP/1.1 200") {
        return Err(std::io::Error::other(
            "snapshot poll was not answered with 200",
        ));
    }
    Ok(clock.elapsed())
}

impl ServeBench {
    /// Renders the ndjson input from `seed`, writes the daemon's config
    /// under `work_dir` and computes the reference report stream in
    /// process. `binary` is the release `flowrank-serve`.
    pub fn setup(seed: u64, smoke: bool, binary: &Path, work_dir: &Path) -> Result<Self, String> {
        let shape = MonitorShape {
            rates: vec![0.1],
            runs: 1,
            topk: Some(TopKSpec::SpaceSaving { capacity: 64 }),
            top_t: 10,
            bin_secs: 10.0,
            seed,
            threads: 1,
        };
        let workload = Workload::mixed().scaled(if smoke { 2.5 } else { 50.0 });
        let clock = Instant::now();
        let records = workload.synthesize(seed);
        let synth_ns = clock.elapsed().as_nanos();
        if records.is_empty() {
            return Err("the generator produced no packets".to_string());
        }

        let bin_nanos = shape.bin_length().as_nanos();
        let mut bytes = Vec::with_capacity(records.len() * 128);
        let mut line_ends = Vec::with_capacity(records.len() + records.len() / MALFORMED_EVERY);
        let mut bin_starts: Vec<(usize, u64)> = Vec::new();
        let mut malformed = 0u64;
        let mut batch = PacketBatch::with_capacity(records.len());
        for (i, record) in records.iter().enumerate() {
            if i % MALFORMED_EVERY == MALFORMED_EVERY - 1 {
                bytes.extend_from_slice(b"{\"ts\":\"not a number\",\"src\":\"10.0.0.1\"}\n");
                line_ends.push(bytes.len());
                malformed += 1;
            }
            let start = bytes.len();
            render_record(&mut bytes, record);
            line_ends.push(bytes.len());
            // The program sees the record as its parser reads the line
            // back, which is what the reference and the replica must use.
            let line = std::str::from_utf8(&bytes[start..]).expect("rendered as ascii");
            let parsed = parse_ndjson_record(line)
                .map_err(|reason| format!("rendered record does not parse: {reason}"))?;
            let bin = parsed.timestamp.as_nanos() / bin_nanos;
            if bin_starts.last().is_none_or(|(_, open)| bin > *open) {
                bin_starts.push((start, bin));
            }
            batch.push_record(&parsed);
        }

        let config_text = format!(
            "source = ndjson\nseed = {seed}\nsampler = random\nrates = 0.1\nruns = 1\n\
             bin_secs = {}\ntop_t = {}\ntopk = space-saving:64\nthreads = 1\n\
             retain_bins = 16\noutput = ndjson\nsnapshot_listen = 127.0.0.1:0\n",
            shape.bin_secs, shape.top_t
        );
        std::fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
        let config_path = work_dir.join(format!("serve_ndjson.seed{seed}.conf"));
        std::fs::write(&config_path, &config_text)
            .map_err(|e| format!("{}: {e}", config_path.display()))?;

        let mut bench = ServeBench {
            smoke,
            binary: binary.to_path_buf(),
            config_path,
            config_text,
            replica: None,
            shape,
            bytes,
            line_ends,
            bin_starts,
            batch,
            malformed,
            reference_out: Vec::new(),
            synth_ns_per_pkt: synth_ns as f64 / records.len() as f64,
            captured: Vec::new(),
            child_peak_kib: 0,
            walls_ns: Vec::new(),
            startups_ns: Vec::new(),
            polls_ns: Vec::new(),
            child_elapsed_s: 0.0,
            last_malformed: 0,
        };
        let (out, _) = bench.drive_in_process(NdjsonSink::new(Vec::new()))?;
        bench.reference_out = out.finish().map_err(|e| e.to_string())?;
        Ok(bench)
    }

    /// The daemon's pipeline without the daemon: the config the child is
    /// given, parsed by the same `ServeConfig`, driving the same bytes
    /// through `NdjsonRecordSource → Monitor::try_drive` into `sink`.
    /// Returns the sink and the drive's wall time.
    fn drive_in_process<K: ReportSink>(&self, mut sink: K) -> Result<(K, Duration), String> {
        let config = ServeConfig::parse(&self.config_text).map_err(|e| e.to_string())?;
        let mut monitor = config.monitor();
        let mut source = NdjsonRecordSource::new(&self.bytes[..]);
        let clock = Instant::now();
        let stats = monitor
            .try_drive(&mut source, &mut sink)
            .map_err(|error| format!("in-process reference drive aborted: {error}"))?;
        let wall = clock.elapsed();
        if stats.packets != self.batch.len() as u64 || stats.malformed_skipped != self.malformed {
            return Err(format!(
                "in-process reference drove {} packets and skipped {} lines; the input has {} \
                 and {}",
                stats.packets,
                stats.malformed_skipped,
                self.batch.len(),
                self.malformed
            ));
        }
        Ok((sink, wall))
    }

    /// Makes the next pass's output comparison fail, for the test that a
    /// wrong output is counted as a failed pass.
    pub fn corrupt_reference(&mut self) {
        if let Some(byte) = self.reference_out.last_mut() {
            *byte ^= 1;
        }
    }

    /// The offsets at which pass `index` cuts the input into `write` calls:
    /// at line ends, at most a jittered 48–64 KiB apart (see
    /// [`jittered_chunk`] for why the size steps from pass to pass).
    fn blocks(&self, index: usize) -> Vec<usize> {
        let size = jittered_chunk(index) * 16;
        let mut cuts = Vec::with_capacity(self.bytes.len() / size + 2);
        let mut at = 0usize;
        while at < self.bytes.len() {
            let written = self.line_ends.partition_point(|end| *end <= at);
            // At least one line per block, so the loop always advances.
            let fit = self
                .line_ends
                .partition_point(|end| *end <= at + size)
                .max(written + 1);
            at = self.line_ends[fit - 1];
            cuts.push(at);
        }
        cuts
    }

    fn run_child(
        &mut self,
        index: usize,
        lags: &mut Vec<u64>,
        mut rec: Option<&mut Recorder>,
    ) -> Result<PassSample, (u64, String)> {
        let spawn_clock = Instant::now();
        let mut child = Command::new(&self.binary)
            .arg("--config")
            .arg(&self.config_path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| (0, format!("cannot start {}: {e}", self.binary.display())))?;
        let pid = child.id();
        let mut stdin = child.stdin.take().expect("piped");
        let stdout = child.stdout.take().expect("piped");
        let stderr = child.stderr.take().expect("piped");

        let (ready_tx, ready_rx) = mpsc::channel::<String>();
        let stderr_thread = std::thread::spawn(move || {
            let mut text = String::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.split("snapshot endpoint on http://").nth(1) {
                    let _ = ready_tx.send(addr.trim_end_matches('/').to_string());
                }
                text.push_str(&line);
                text.push('\n');
            }
            text
        });
        let stdout_thread = std::thread::spawn(move || read_stdout(stdout));

        // Every exit from here on must reap the child and join the threads.
        let finish = |mut child: Child, stdin: Option<std::process::ChildStdin>| {
            drop(stdin);
            let output = stdout_thread.join().expect("stdout reader panicked");
            let errors = stderr_thread.join().expect("stderr reader panicked");
            // Both pipes are at EOF: the child has exited and, not yet
            // waited for, still has its `/proc` stat line.
            let ticks = procfs::cpu_ticks(Some(pid)).unwrap_or(0);
            let status = child.wait();
            (output, errors, ticks, status)
        };

        let addr = match ready_rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) => addr,
            Err(_) => {
                let _ = child.kill();
                let (_, errors, _, _) = finish(child, Some(stdin));
                return Err((
                    0,
                    format!("the daemon never announced its endpoint: {errors}"),
                ));
            }
        };
        let build_ns = spawn_clock.elapsed().as_nanos() as u64;
        self.startups_ns.push(build_ns as f64);

        let cuts = self.blocks(index);
        let mut handovers = Handovers::default();
        let mut writes: Vec<(Instant, Instant, u64)> = Vec::new();
        let mut bin_cursor = 0usize;
        let mut polled = rec.is_none();
        let start = Instant::now();
        let mut at = 0usize;
        let mut write_error = None;
        for &cut in &cuts {
            let clock = Instant::now();
            if let Err(error) = stdin.write_all(&self.bytes[at..cut]) {
                write_error = Some(error);
                break;
            }
            let returned = Instant::now();
            // The newest bin with a record inside what has been written.
            while bin_cursor < self.bin_starts.len() && self.bin_starts[bin_cursor].0 < cut {
                bin_cursor += 1;
            }
            if bin_cursor > 0 {
                handovers.handed(self.bin_starts[bin_cursor - 1].1, returned);
            }
            if rec.is_some() {
                writes.push((clock, returned, (cut - at) as u64));
            }
            at = cut;
            if !polled && at >= self.bytes.len() / 2 {
                // Traced passes only: the writer stops feeding while it
                // polls, which a measured pass must not do.
                polled = true;
                for _ in 0..if self.smoke { 3 } else { 50 } {
                    if let Ok(took) = poll_snapshot(&addr) {
                        self.polls_ns.push(took.as_nanos() as f64);
                    }
                }
            }
        }
        // Everything is written; the child cannot exit before stdin closes,
        // so its memory high-water mark is read now, while it still has one.
        let peak_kib = procfs::status_kib(Some(pid), "VmHWM").unwrap_or(0);
        handovers.ended(Instant::now());
        let (output, errors, cpu_ticks, status) = finish(child, Some(stdin));
        let end = output.eof;

        if let Some(rec) = rec.as_deref_mut() {
            let id = rec.open_at("serve.child", start);
            // Writer and reader run on two threads, so these children may
            // overlap; self time takes the union.
            leaf_spans(rec, "stdin.write", writes);
            // Report lines are moments, not intervals: zero-length marks.
            for (_, arrived) in &output.lines {
                rec.leaf("stdout.report_line", *arrived, *arrived, 1);
            }
            rec.close_at(id, end, self.batch.len() as u64);
        }

        let fail = |reason: String| Err((build_ns, reason));
        if let Some(error) = write_error {
            return fail(format!(
                "writing to the daemon's stdin failed: {error}; stderr: {errors}"
            ));
        }
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => return fail(format!("the daemon exited with {status}: {errors}")),
            Err(error) => return fail(format!("waiting for the daemon failed: {error}")),
        }
        let final_start = match output.lines.len() {
            0 => return fail(format!("the daemon printed nothing: {errors}")),
            1 => 0,
            n => output.lines[n - 2].0,
        };
        let final_line = &output.bytes[final_start..];
        if !final_line.starts_with(b"{\"serve\":\"final\"") {
            return fail(format!(
                "unexpected last line: {}",
                String::from_utf8_lossy(final_line)
            ));
        }
        if output.bytes[..final_start] != self.reference_out[..] {
            return fail(format!(
                "the daemon's {} bytes of reports differ from the in-process reference's {}",
                final_start,
                self.reference_out.len()
            ));
        }
        let packets = number_in(final_line, "packets").unwrap_or(-1.0);
        let skipped = number_in(final_line, "malformed_skipped").unwrap_or(-1.0);
        if packets != self.batch.len() as f64 || skipped != self.malformed as f64 {
            return fail(format!(
                "the daemon counted {packets} packets and {skipped} malformed lines; the input \
                 has {} and {}",
                self.batch.len(),
                self.malformed
            ));
        }
        self.last_malformed = skipped as u64;
        self.child_elapsed_s = number_in(final_line, "elapsed_s").unwrap_or(0.0);
        self.child_peak_kib = self.child_peak_kib.max(peak_kib);

        let mut line_start = 0usize;
        for (line_end, arrived) in &output.lines[..output.lines.len() - 1] {
            let bin = number_in(&output.bytes[line_start..*line_end], "bin");
            line_start = *line_end;
            if let Some(trigger) = bin.and_then(|bin| handovers.trigger(bin as u64)) {
                push_lag(
                    lags,
                    arrived.saturating_duration_since(trigger).as_nanos() as u64,
                );
            }
        }
        let wall_ns = (end - start).as_nanos() as u64;
        if rec.is_none() {
            self.walls_ns.push(wall_ns as f64);
        }
        Ok(PassSample {
            packets: packets as u64,
            wall_ns,
            cpu_ticks,
            build_ns,
            // The writer's time in `write` overlaps the child's work on
            // another core; it is no share of the child's wall time.
            source_ns: 0,
            sink_ns: 0,
            failure: None,
        })
    }
}

impl Bench for ServeBench {
    fn input_packets(&self) -> u64 {
        self.batch.len() as u64
    }

    fn threads(&self) -> usize {
        1
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
        match self.run_child(index, lags, rec) {
            Ok(sample) => sample,
            Err((build_ns, reason)) => PassSample {
                build_ns,
                failure: Some(reason),
                ..PassSample::default()
            },
        }
    }

    fn child_peak_kib(&self) -> Option<u64> {
        Some(self.child_peak_kib)
    }

    fn prepare_trace(&mut self) -> Result<(), String> {
        let (collect, _) = self.drive_in_process(Collect::new())?;
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
        // The daemon's sink: the rolling snapshot fold, then the ndjson
        // report stream.
        let mut rolling = RollingWindow::new(16);
        let mut snapshot = String::new();
        let mut ndjson = NdjsonSink::new(CountBytes::default());
        let mut render = |report: &BinReport| {
            rolling.accept(report);
            rolling.render_json(&mut snapshot);
            ndjson.accept(report);
        };
        let mut chunk = PacketBatch::new();
        let mut line_start = 0usize;
        for group in self.line_ends.chunks(4096) {
            chunk.clear();
            let clock = Instant::now();
            for &line_end in group {
                let line = std::str::from_utf8(&self.bytes[line_start..line_end])
                    .map_err(|e| e.to_string())?;
                line_start = line_end;
                if let Ok(record) = parse_ndjson_record(line) {
                    chunk.push_record(&record);
                }
            }
            stages.add(Stage::Parse, clock, group.len() as u64, rec);
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

    fn extra_engine_stages(&self) -> &'static [Stage] {
        // Parsing and rendering happen inside the child, so they stand
        // against its wall time with the monitor's own stages.
        &[Stage::Parse, Stage::Render]
    }

    fn segment_stats(&self) -> (u64, u64) {
        // The child's monitor cannot be asked; the same configuration in
        // process takes the same path for every record.
        (self.batch.len() as u64, 0)
    }

    fn layers(&mut self, rec: &mut Recorder) -> Result<(Vec<Reading>, Vec<Reading>), String> {
        let common = monitor_layers(
            &[(self.shape.builder(), &self.batch)],
            &self.captured,
            self.smoke,
        );

        // The in-process drive, through the stamped wrappers, so the span
        // file shows the source's share of the pipeline the child runs.
        let repeats = if self.smoke { 1 } else { 3 };
        let mut drive_ns = Vec::new();
        let mut source_ns = Vec::new();
        for _ in 0..repeats {
            let config = ServeConfig::parse(&self.config_text).map_err(|e| e.to_string())?;
            let mut monitor = config.monitor();
            let mut handovers = Handovers::default();
            let mut received = Vec::new();
            let mut source = StampedSource::new(
                NdjsonRecordSource::new(&self.bytes[..]),
                self.shape.bin_length(),
                &mut handovers,
                false,
            );
            let sink = Tee(
                RollingWindow::new(16),
                NdjsonSink::new(CountBytes::default()),
            );
            let mut sink = StampedSink::new(sink, &mut received, false);
            let id = rec.open("monitor.try_drive");
            let clock = Instant::now();
            monitor
                .try_drive(&mut source, &mut sink)
                .map_err(|error| format!("in-process drive aborted: {error}"))?;
            drive_ns.push(clock.elapsed().as_nanos() as f64);
            rec.close(id, self.batch.len() as u64);
            source_ns.push(source.stamps.busy_ns as f64);
        }
        let in_process_ns = stats::median(&drive_ns).unwrap_or(0.0);

        // `NdjsonRecordSource::next_chunk` alone over the same bytes.
        let mut source = NdjsonRecordSource::new(&self.bytes[..]);
        let clock = Instant::now();
        let mut records = 0u64;
        while let Some(chunk) = source.next_chunk() {
            records += chunk.len() as u64;
        }
        let ndjson_source_ns = clock.elapsed().as_nanos() as f64 / records.max(1) as f64;

        // The child's source cannot be timed from outside; the in-process
        // drive of the same pipeline stands in for it.
        let mut common = common;
        common.push((
            "monitor.source_share",
            stats::median(&source_ns).unwrap_or(0.0) / in_process_ns.max(f64::MIN_POSITIVE),
        ));
        let child_ns = stats::median(&self.walls_ns).unwrap_or(0.0);
        let detail = vec![
            ("monitor.ndjson_source_ns_per_record", ndjson_source_ns),
            (
                "serve.startup_ms",
                stats::median(&self.startups_ns).unwrap_or(0.0) / 1e6,
            ),
            (
                "serve.stdin_mib_per_s",
                self.bytes.len() as f64
                    / (1024.0 * 1024.0)
                    / (child_ns / 1e9).max(f64::MIN_POSITIVE),
            ),
            (
                "serve.shell_share",
                1.0 - in_process_ns / child_ns.max(f64::MIN_POSITIVE),
            ),
            (
                "serve.snapshot_poll_ms_p50",
                stats::median(&self.polls_ns).unwrap_or(0.0) / 1e6,
            ),
            ("serve.malformed_skipped", self.last_malformed as f64),
            ("serve.child_elapsed_s", self.child_elapsed_s),
        ];
        Ok((common, detail))
    }
}
