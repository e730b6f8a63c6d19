//! Cross-crate integration: the serving path — live sources
//! ([`PcapTailSource`], [`NdjsonRecordSource`], [`PacedReplay`]) driven
//! through `Monitor::try_drive` under the wall-clock stall detector,
//! graceful shutdown via [`StopGate`], and the rolling-snapshot sink behind
//! `flowrank-serve`.
//!
//! The conformance anchor throughout: a fault-free serving drive over any
//! live source must be bit-identical to the equivalent batch drive of the
//! same packets.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use flowrank_monitor::{
    BatchSource, DigestSink, DrivePolicy, Monitor, NdjsonRecordSource, PacketSource,
    PcapTailSource, SamplerSpec, StopGate, TopKSpec,
};
use flowrank_net::pcap::records_to_pcap_bytes;
use flowrank_net::{PacketBatch, PacketRecord, Timestamp};
use flowrank_serve::{PublishSink, ServeConfig, SnapshotPublisher};
use flowrank_trace::{PacedReplay, Workload};

fn monitor(policy: DrivePolicy) -> Monitor {
    Monitor::builder()
        .sampler(SamplerSpec::Random { rate: 0.1 })
        .rates(&[0.1, 0.5])
        .runs(2)
        .bin_length(Timestamp::from_secs_f64(60.0))
        .top_t(10)
        .seed(0x5E2F_2026)
        .drive_policy(policy)
        .build()
}

/// The serving drive policy: wall-clock stall gate on, fast idle polling
/// so tests spend little real time.
fn serving_policy() -> DrivePolicy {
    DrivePolicy::resilient()
        .stall_polls(4)
        .stall_timeout(Duration::from_secs(30))
        .idle_wait(Duration::from_micros(100))
}

fn digest_of_batch(batch: &PacketBatch) -> u64 {
    let mut sink = DigestSink::new();
    monitor(DrivePolicy::strict()).drive(&mut BatchSource::new(batch), &mut sink);
    sink.digest()
}

/// A unique temp-file path (std-only; no tempfile crate).
fn temp_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "flowrank_serve_{}_{}_{}",
        tag,
        std::process::id(),
        n
    ))
}

fn tcp_record(i: usize) -> PacketRecord {
    PacketRecord::tcp(
        Timestamp::from_secs_f64(i as f64 * 0.05),
        std::net::Ipv4Addr::new(10, 9, 0, (i % 100) as u8),
        40_000 + (i % 1000) as u16,
        std::net::Ipv4Addr::new(100, 64, 9, 1),
        443,
        400 + (i % 700) as u16,
        (i * 400) as u32,
    )
}

#[test]
fn paced_replay_drive_is_bit_identical_to_the_direct_stream_drive() {
    // The tentpole conformance anchor: pacing (at any speed, including an
    // extreme one that finishes in microseconds) must not perturb reports.
    let workload = Workload::by_name("mixed").expect("catalog scenario");
    let mut reference = DigestSink::new();
    monitor(DrivePolicy::strict()).drive(&mut workload.stream(42), &mut reference);

    for speed in [0.0, 1e9] {
        let mut source = PacedReplay::new(workload.stream(42), speed);
        let mut sink = DigestSink::new();
        let stats = monitor(serving_policy())
            .try_drive(&mut source, &mut sink)
            .expect("paced replay completes");
        assert!(stats.packets > 0);
        assert_eq!(
            sink.digest(),
            reference.digest(),
            "speed {speed}: paced reports must equal the direct drive"
        );
    }
}

#[test]
fn paced_replay_polls_idle_instead_of_sleeping() {
    // Two 60 s windows at 60 trace-seconds a wall-second: once the first is
    // taken the second is about a second away, and the poll answers idle
    // (an empty chunk) at once instead of sleeping until it is due. A paced
    // serving drive idles between the windows and reports exactly what the
    // unpaced stream does.
    let workload = Workload::HeavyTail {
        alpha: 1.5,
        flow_rate: 20.0,
        duration_secs: 65.0,
    };
    let mut replay = PacedReplay::new(workload.stream(3), 60.0);
    let first = replay.try_next_chunk().expect("a replay cannot fail");
    assert!(first.is_some_and(|w| !w.is_empty()), "due at once");
    let polled = std::time::Instant::now();
    let second = replay.try_next_chunk().expect("a replay cannot fail");
    assert_eq!(second.map(PacketBatch::len), Some(0), "not due yet: idle");
    assert!(polled.elapsed().as_millis() < 200, "never sleeps");

    let mut reference = DigestSink::new();
    monitor(DrivePolicy::strict()).drive(&mut workload.stream(3), &mut reference);
    let mut sink = DigestSink::new();
    let stats = monitor(serving_policy())
        .try_drive(&mut PacedReplay::new(workload.stream(3), 60.0), &mut sink)
        .expect("paced replay completes");
    assert!(stats.idle_polls > 0, "the drive idles between the windows");
    assert_eq!(sink.digest(), reference.digest());
}

#[test]
fn pcap_tail_source_follows_a_growing_capture() {
    // A writer that lands the capture in arbitrary byte-level pieces —
    // including a cut inside a record header and one inside a payload. The
    // tail source must deliver exactly the full capture's packets, parking
    // on the incomplete tail in between.
    let records: Vec<_> = (0..300).map(tcp_record).collect();
    let bytes = records_to_pcap_bytes(&records).unwrap();
    let path = temp_path("tail");
    std::fs::write(&path, b"").unwrap();

    let mut tail = PcapTailSource::open(&path).unwrap().with_chunk_packets(64);
    let mut total = PacketBatch::new();
    let cuts = [
        0,
        10,
        24,
        24 + 16 + 3,
        1000,
        1007,
        bytes.len() / 2,
        bytes.len(),
    ];
    let mut written = 0usize;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    for cut in cuts {
        let cut = cut.clamp(written, bytes.len());
        file.write_all(&bytes[written..cut]).unwrap();
        file.flush().unwrap();
        written = cut;
        loop {
            match tail.try_next_chunk().expect("valid capture never faults") {
                Some(chunk) if chunk.is_empty() => break,
                Some(chunk) => {
                    let len = chunk.len();
                    total.extend_from_batch(chunk, 0..len);
                }
                None => panic!("a follow-mode tail never ends"),
            }
        }
    }
    assert_eq!(
        total.len(),
        records.len(),
        "every packet arrived exactly once"
    );
    assert_eq!(total, PacketBatch::from_records(&records));
    assert_eq!(
        tail.consumed(),
        bytes.len(),
        "committed through the whole capture"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tail_driven_monitor_matches_the_batch_drive_and_stops_cleanly() {
    let records: Vec<_> = (0..500).map(tcp_record).collect();
    let bytes = records_to_pcap_bytes(&records).unwrap();
    let path = temp_path("tail_drive");
    std::fs::write(&path, &bytes).unwrap();

    // Follow mode + StopGate: a writer thread raises the stop flag once
    // the source has consumed the whole capture — the SIGINT shape.
    let tail = PcapTailSource::open(&path).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut source = StopGate::new(tail, Arc::clone(&stop));
    let stopper = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            // Poll-driven oracle: in a real daemon this is the signal
            // handler; here we stop as soon as the drive had time to pull
            // the whole (already complete) capture through.
            std::thread::sleep(Duration::from_millis(150));
            stop.store(true, Ordering::Release);
        }
    });
    let mut sink = DigestSink::new();
    let stats = monitor(serving_policy())
        .try_drive(&mut source, &mut sink)
        .expect("stop flag ends the drive cleanly");
    stopper.join().unwrap();
    assert_eq!(stats.packets, records.len() as u64);
    assert_eq!(
        sink.digest(),
        digest_of_batch(&PacketBatch::from_records(&records)),
        "tail-served reports equal the batch drive"
    );
    assert!(stats.idle_polls > 0, "the tail idled after the capture end");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ndjson_feed_matches_the_batch_drive_and_skips_malformed_lines() {
    let records: Vec<_> = (0..400).map(tcp_record).collect();
    let mut feed = String::new();
    for (i, r) in records.iter().enumerate() {
        if i == 137 {
            feed.push_str("{\"ts\": \"not a number\"}\n");
        }
        if i == 251 {
            feed.push_str("not json at all\n");
        }
        feed.push_str(&format!(
            "{{\"ts\": {}, \"src\": \"{}\", \"sport\": {}, \"dst\": \"{}\", \"dport\": {}, \"proto\": \"tcp\", \"len\": {}, \"seq\": {}}}\n",
            r.timestamp.as_secs_f64(),
            r.src_ip,
            r.src_port,
            r.dst_ip,
            r.dst_port,
            r.length,
            r.tcp_seq.unwrap_or(0),
        ));
    }
    let mut source = NdjsonRecordSource::new(std::io::Cursor::new(feed.into_bytes()));
    let mut sink = DigestSink::new();
    let stats = monitor(serving_policy())
        .try_drive(&mut source, &mut sink)
        .expect("malformed lines are skipped under the serving policy");
    assert_eq!(stats.packets, records.len() as u64);
    assert_eq!(stats.malformed_skipped, 2);
    assert_eq!(
        sink.digest(),
        digest_of_batch(&PacketBatch::from_records(&records)),
        "ndjson-fed reports equal the batch drive"
    );
}

#[test]
fn publish_sink_bounds_retention_and_raises_the_stop_flag() {
    let workload = Workload::by_name("rank-churn").expect("catalog scenario");
    let publisher = SnapshotPublisher::new();
    let stop = Arc::new(AtomicBool::new(false));
    let mut sink = PublishSink::new(2, publisher.clone()).stop_after(3, Arc::clone(&stop));
    let mut source = StopGate::new(PacedReplay::unpaced(workload.stream(7)), Arc::clone(&stop));
    let mut mon = Monitor::builder()
        .sampler(SamplerSpec::Random { rate: 0.2 })
        .bin_length(Timestamp::from_secs_f64(30.0))
        .top_t(5)
        .topk(TopKSpec::SpaceSaving { capacity: 32 })
        .seed(3)
        .drive_policy(serving_policy())
        .build();
    let stats = mon
        .try_drive(&mut source, &mut sink)
        .expect("the bin limiter ends the drive cleanly");
    assert!(
        stop.load(Ordering::Acquire),
        "max_bins raised the stop flag"
    );
    assert!(sink.window().bins_seen() >= 3);
    assert!(stats.reports >= 3);
    assert_eq!(
        sink.window().bins().count(),
        2,
        "retention stays at the configured bound"
    );
    let poll = publisher.render_poll();
    assert!(poll.contains("\"state\":{\"bins_seen\":"), "{poll}");
    assert!(
        sink.window().latest().expect("bins closed").top.len() <= 5,
        "the snapshot top list is the lane's top-t view"
    );
}

#[test]
fn serve_config_builds_a_monitor_that_drives_the_described_measurement() {
    let config = ServeConfig::parse(
        "source = replay\nscenario = port-scan\nseed = 9\nspeed = 0\nrates = 0.1\nruns = 1\nbin_secs = 30\ntop_t = 5\ntopk = exact\nretain_bins = 4\n",
    )
    .expect("config parses");
    let mut mon = config.monitor();
    let workload = Workload::by_name(&config.scenario).unwrap();
    let mut source = PacedReplay::new(workload.stream(config.seed), config.speed);
    let publisher = SnapshotPublisher::new();
    let mut sink = PublishSink::new(config.retain_bins, publisher.clone());
    let stats = mon
        .try_drive(&mut source, &mut sink)
        .expect("described measurement completes");
    assert!(stats.packets > 0);
    assert!(sink.window().bins_seen() > 0);
    let poll = publisher.render_poll();
    assert!(poll.starts_with("{\"age_s\":"), "{poll}");
}
