//! Cross-crate integration: the full monitor pipeline over a pcap capture —
//! generate a trace, export it, re-import it, and stream it through the
//! push-based monitor — plus the decoder error paths: truncated record
//! headers, `incl_len` past the end of the buffer, and frames the fast
//! parser bows out of (IP options, ICMP, short UDP), which the general
//! parser must decode to the exact fields each test lists. Debug builds
//! also hold the fast parser against the general one on every frame it
//! accepts.

use flowrank_monitor::{BatchSource, Chunked, Collect, Monitor, SamplerSpec};
use flowrank_net::pcap::{
    pcap_bytes_to_batch, pcap_bytes_to_records, records_to_pcap_bytes, PcapBatchCursor, PcapWriter,
};
use flowrank_net::{
    FiveTuple, FlowDefinition, FlowTable, NetError, PacketBatch, PacketRecord, Protocol, Timestamp,
};
use flowrank_trace::export::export_flows_to_pcap;
use flowrank_trace::{SprintModel, SynthesisConfig};
use std::net::Ipv4Addr;

#[test]
fn pcap_export_import_stream_rank() {
    let flows = SprintModel::small(30.0, 40.0).generate_flows(77);
    let mut pcap = Vec::new();
    let written = export_flows_to_pcap(&flows, &SynthesisConfig::default(), 77, &mut pcap).unwrap();
    assert_eq!(written, flows.iter().map(|f| f.packets).sum::<u64>());

    let records = pcap_bytes_to_records(&pcap).unwrap();
    assert_eq!(records.len() as u64, written);

    // Ground truth from the re-imported capture matches the generated flows.
    let mut truth: FlowTable<FiveTuple> = FlowTable::new();
    for r in &records {
        truth.observe(r);
    }
    assert_eq!(truth.flow_count(), flows.len());
    for f in &flows {
        assert_eq!(truth.get(&f.key).unwrap().packets, f.packets);
    }

    // Stream the capture through a monitor carrying a full-sampling lane and
    // a 1% lane side by side: full sampling keeps the ranking perfect, 1%
    // does not, and both ride on the same ground-truth classification.
    let mut monitor = Monitor::builder()
        .flow_definition(FlowDefinition::FiveTuple)
        .sampler(SamplerSpec::Random { rate: 0.01 })
        .rates(&[1.0, 0.01])
        .runs(1)
        .bin_length(Timestamp::ZERO)
        .top_t(10)
        .seed(1)
        .build();
    // One record per chunk, as a tap would hand them over.
    let batch = PacketBatch::from_records(&records);
    let mut reports = Collect::new();
    monitor.drive(&mut Chunked::new(BatchSource::new(&batch), 1), &mut reports);
    let reports = reports.reports;
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_eq!(report.packets, written);
    assert_eq!(report.flows, flows.len());

    let full = report
        .lanes_at_rate(1.0)
        .next()
        .expect("full-sampling lane");
    assert_eq!(full.outcome.ranking_swaps, 0);
    assert_eq!(full.outcome.missed_top_flows, 0);
    assert_eq!(full.sampled_packets, written);

    let sparse = report.lanes_at_rate(0.01).next().expect("1% lane");
    assert!(sparse.outcome.ranking_swaps > 0);
    assert!(sparse.sampled_packets < written);
}

/// A valid capture holding `records`, built through the production writer.
fn capture_of(records: &[PacketRecord]) -> Vec<u8> {
    records_to_pcap_bytes(records).unwrap()
}

fn tcp_record(i: usize) -> PacketRecord {
    PacketRecord::tcp(
        Timestamp::from_secs_f64(i as f64 * 0.001),
        Ipv4Addr::new(10, 2, 0, (i % 200) as u8),
        30_000 + i as u16,
        Ipv4Addr::new(100, 64, 1, 9),
        80,
        500,
        i as u32 * 500,
    )
}

/// Hand-builds an Ethernet/IPv4 frame with `options` extra IPv4 option
/// bytes (IHL = 5 + options/4) carrying a TCP or UDP header — the shape the
/// single-bounds-check fast parser refuses (IHL ≠ 5) and the general parser
/// must handle.
fn frame_with_ip_options(protocol: Protocol, options: usize, src_port: u16) -> Vec<u8> {
    assert_eq!(options % 4, 0);
    let ihl_bytes = 20 + options;
    let transport = match protocol {
        Protocol::Tcp => 20,
        Protocol::Udp => 8,
        _ => 0,
    };
    let total_len = ihl_bytes + transport;
    let mut frame = Vec::new();
    frame.extend_from_slice(&[0x02, 0, 0, 0, 0, 1]); // dst MAC
    frame.extend_from_slice(&[0x02, 0, 0, 0, 0, 2]); // src MAC
    frame.extend_from_slice(&0x0800u16.to_be_bytes()); // EtherType IPv4
    let mut ip = vec![0u8; ihl_bytes];
    ip[0] = 0x40 | (ihl_bytes / 4) as u8; // version 4, IHL > 5
    ip[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
    ip[8] = 64;
    ip[9] = protocol.number();
    ip[12..16].copy_from_slice(&Ipv4Addr::new(172, 16, 0, 5).octets());
    ip[16..20].copy_from_slice(&Ipv4Addr::new(100, 64, 3, 7).octets());
    for b in &mut ip[20..ihl_bytes] {
        *b = 0x01; // NOP options
    }
    frame.extend_from_slice(&ip);
    match protocol {
        Protocol::Tcp => {
            let mut tcp = [0u8; 20];
            tcp[0..2].copy_from_slice(&src_port.to_be_bytes());
            tcp[2..4].copy_from_slice(&8080u16.to_be_bytes());
            tcp[4..8].copy_from_slice(&0xFEEDBEEFu32.to_be_bytes());
            tcp[12] = 0x50;
            frame.extend_from_slice(&tcp);
        }
        Protocol::Udp => {
            let mut udp = [0u8; 8];
            udp[0..2].copy_from_slice(&src_port.to_be_bytes());
            udp[2..4].copy_from_slice(&53u16.to_be_bytes());
            udp[4..6].copy_from_slice(&(transport as u16).to_be_bytes());
            frame.extend_from_slice(&udp);
        }
        _ => {}
    }
    frame
}

/// Decodes `bytes` into a batch and returns its records, checking that the
/// record-shaped way in (`pcap_bytes_to_records`) returns the same.
fn decode_both_ways(bytes: &[u8]) -> Vec<PacketRecord> {
    let mut batch = PacketBatch::new();
    let appended = pcap_bytes_to_batch(bytes, &mut batch).unwrap();
    assert_eq!(appended as usize, batch.len());
    let records = batch.to_records();
    assert_eq!(pcap_bytes_to_records(bytes).unwrap(), records);
    records
}

/// The reason of the `MalformedPacket` error `result` must be.
fn malformed<T: std::fmt::Debug>(result: Result<T, NetError>) -> &'static str {
    match result {
        Err(NetError::MalformedPacket { reason }) => reason,
        other => panic!("expected a malformed capture, got {other:?}"),
    }
}

#[test]
fn truncated_record_headers_error_in_both_decoders() {
    let bytes = capture_of(&(0..3).map(tcp_record).collect::<Vec<_>>());
    let record_len = 16 + 14 + 500;
    // Cut inside the second record's 16-byte header: 4–15 remaining header
    // bytes are an error after the first record is delivered; 1–3 are a
    // clean EOF.
    for cut in [4usize, 8, 15] {
        let cut_bytes = &bytes[..24 + record_len + cut];
        let mut cursor = PcapBatchCursor::new(cut_bytes).unwrap();
        let mut batch = PacketBatch::new();
        assert_eq!(
            malformed(cursor.decode_some(&mut batch, usize::MAX)),
            "truncated pcap record header",
            "{cut} header bytes"
        );
        assert_eq!(
            batch.to_records(),
            vec![tcp_record(0)],
            "{cut} header bytes"
        );
        assert_eq!(
            malformed(pcap_bytes_to_records(cut_bytes)),
            "truncated pcap record header"
        );
    }
    for cut in [1usize, 3] {
        let cut_bytes = &bytes[..24 + record_len + cut];
        assert_eq!(decode_both_ways(cut_bytes).len(), 1, "{cut} bytes is EOF");
    }
}

#[test]
fn short_and_cut_captures_name_what_is_missing() {
    // A capture too short for its global header, and one cut inside a
    // record's payload, are malformed captures with a reason, not I/O
    // errors: the records come from the in-place decoder, which reads no
    // stream.
    let bytes = capture_of(&(0..2).map(tcp_record).collect::<Vec<_>>());
    for short in [0usize, 1, 23] {
        assert_eq!(
            malformed(pcap_bytes_to_records(&bytes[..short])),
            "pcap shorter than its global header",
            "{short} bytes"
        );
    }
    let record_len = 16 + 14 + 500;
    for cut in [16usize + 1, 16 + 100, record_len - 1] {
        assert_eq!(
            malformed(pcap_bytes_to_records(&bytes[..24 + record_len + cut])),
            "truncated pcap record payload",
            "second record cut {cut} bytes in"
        );
    }
}

#[test]
fn cursor_resumes_a_corrected_capture_without_reprocessing_packets() {
    // A capture truncated mid-record — the shape left behind by a crashed
    // writer. Chunked decoding surfaces the `NetError` when it reaches the
    // bad record, keeps every packet decoded before it, and a cursor over
    // the corrected (full) capture resumes from the saved offset: the
    // combined stream is byte-for-byte the clean one-shot decode, with no
    // packet seen twice.
    let records: Vec<_> = (0..40).map(tcp_record).collect();
    let bytes = capture_of(&records);
    let record_len = 16 + 14 + 500;
    let bad_start = 24 + 25 * record_len;
    let cut = &bytes[..bad_start + 16 + 37];

    let mut whole = PacketBatch::new();
    pcap_bytes_to_batch(&bytes, &mut whole).unwrap();

    let mut cursor = PcapBatchCursor::new(cut).unwrap();
    let mut batch = PacketBatch::new();
    let err = loop {
        match cursor.decode_some(&mut batch, 7) {
            Ok(0) => panic!("the truncated record must surface an error"),
            Ok(_) => {}
            Err(err) => break err,
        }
    };
    assert!(matches!(err, NetError::MalformedPacket { .. }));
    assert_eq!(batch.len(), 25, "records before the cut stay committed");
    assert_eq!(
        cursor.offset(),
        bad_start,
        "cursor parked on the bad record"
    );

    let mut resumed = PcapBatchCursor::resume(&bytes, cursor.offset()).unwrap();
    while resumed.decode_some(&mut batch, 7).unwrap() > 0 {}
    assert!(resumed.is_done());
    assert_eq!(batch, whole, "resumed stream equals the clean decode");
}

#[test]
fn cursor_resume_rejects_offsets_outside_the_capture() {
    // Regression pin: `resume` used to accept any offset and fault later
    // (or silently decode garbage). An offset past the end of the capture
    // — e.g. a checkpoint saved against a longer file — must fail up front
    // with a clear `NetError`, not on some later decode call.
    let records: Vec<_> = (0..4).map(tcp_record).collect();
    let bytes = capture_of(&records);
    for offset in [0, 10, 23, bytes.len() + 1, usize::MAX] {
        let err = PcapBatchCursor::resume(&bytes, offset)
            .err()
            .unwrap_or_else(|| panic!("offset {offset} must be rejected"));
        match err {
            NetError::InvalidField { field, reason } => {
                assert_eq!(field, "resume offset");
                assert!(reason.contains("outside the capture"), "{offset}: {reason}");
            }
            other => panic!("offset {offset}: expected InvalidField, got {other:?}"),
        }
    }
    // The capture boundaries themselves stay valid: the header end (an
    // empty resume) and the exact end of the capture (a finished resume).
    assert!(PcapBatchCursor::resume(&bytes, 24).is_ok());
    assert!(PcapBatchCursor::resume(&bytes, bytes.len()).is_ok());
}

#[test]
fn cursor_resume_rejects_offsets_inside_a_record() {
    // Regression pin: an offset that is in bounds but not on a record
    // boundary desynchronises the decoder — the bytes at the offset are
    // payload, reinterpreted as a record header. `resume` walks the record
    // chain and rejects both mid-header and mid-payload offsets.
    let records: Vec<_> = (0..4).map(tcp_record).collect();
    let bytes = capture_of(&records);
    let record_len = 16 + 14 + 500;
    for (offset, expected) in [
        (24 + 7, "header"),                      // inside the first record header
        (24 + record_len + 3, "header"),         // inside the second record header
        (24 + 16 + 3, "payload"),                // inside the first record payload
        (24 + record_len + 16 + 499, "payload"), // last payload byte
    ] {
        let err = PcapBatchCursor::resume(&bytes, offset)
            .err()
            .unwrap_or_else(|| panic!("offset {offset} must be rejected"));
        match err {
            NetError::InvalidField { field, reason } => {
                assert_eq!(field, "resume offset");
                assert!(reason.contains(expected), "{offset}: {reason}");
            }
            other => panic!("offset {offset}: expected InvalidField, got {other:?}"),
        }
    }
    // Every true record boundary resumes, and the resumed decode finishes.
    for skip in 0..=records.len() {
        let offset = 24 + skip * record_len;
        let mut cursor = PcapBatchCursor::resume(&bytes, offset)
            .unwrap_or_else(|e| panic!("boundary {offset}: {e}"));
        let mut batch = PacketBatch::new();
        while cursor.decode_some(&mut batch, 2).unwrap() > 0 {}
        assert_eq!(batch.len(), records.len() - skip, "resumed at {offset}");
    }
}

#[test]
fn incl_len_past_end_of_buffer_is_rejected_by_both_decoders() {
    // A record header whose incl_len promises more payload than the buffer
    // holds — the remote-input shape a length-trusting decoder would
    // over-read on.
    for (claimed, present) in [(600u32, 100usize), (54, 53), (1, 0)] {
        let mut bytes = capture_of(&[]);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend(std::iter::repeat_n(0u8, present));
        let mut batch = PacketBatch::new();
        assert_eq!(
            malformed(pcap_bytes_to_batch(&bytes, &mut batch)),
            "truncated pcap record payload",
            "{claimed}/{present}"
        );
        assert!(batch.is_empty());
    }
}

#[test]
fn ihl_gt_5_frames_fall_back_to_the_general_parser() {
    // IPv4 frames with options (IHL 6 and 8), TCP and UDP: the fast parser
    // bows out, and the general parser decodes every field — ports read
    // *after* the options, not at the IHL-5 offsets.
    let mut writer = PcapWriter::new(Vec::new()).unwrap();
    writer
        .write_frame(
            Timestamp::from_micros(10),
            &frame_with_ip_options(Protocol::Tcp, 4, 41_000),
        )
        .unwrap();
    writer
        .write_frame(
            Timestamp::from_micros(20),
            &frame_with_ip_options(Protocol::Udp, 12, 42_000),
        )
        .unwrap();
    // A plain fast-path record after them proves the two parsers interleave.
    writer.write_record(&tcp_record(7)).unwrap();
    let bytes = writer.finish().unwrap();

    let records = decode_both_ways(&bytes);
    assert_eq!(records.len(), 3);
    assert_eq!(records[0].protocol, Protocol::Tcp);
    assert_eq!(records[0].src_port, 41_000);
    assert_eq!(records[0].dst_port, 8080);
    assert_eq!(records[0].tcp_seq, Some(0xFEEDBEEF));
    assert_eq!(records[0].length, 44); // 24-byte IPv4 header + 20 TCP
    assert_eq!(records[1].protocol, Protocol::Udp);
    assert_eq!(records[1].src_port, 42_000);
    assert_eq!(records[1].dst_port, 53);
    assert_eq!(records[1].tcp_seq, None);
    assert_eq!(records[2], tcp_record(7));
}

#[test]
fn undecodable_frames_are_skipped_identically_by_both_decoders() {
    let mut writer = PcapWriter::new(Vec::new()).unwrap();
    // ARP (non-IPv4 EtherType).
    let mut arp = vec![0u8; 42];
    arp[12] = 0x08;
    arp[13] = 0x06;
    writer.write_frame(Timestamp::ZERO, &arp).unwrap();
    // IPv4 claiming TCP but truncated before the TCP header ends.
    let truncated_tcp = &frame_with_ip_options(Protocol::Tcp, 4, 43_000)[..14 + 24 + 10];
    writer
        .write_frame(Timestamp::from_micros(1), truncated_tcp)
        .unwrap();
    // IPv6 EtherType.
    let mut six = vec![0u8; 60];
    six[12] = 0x86;
    six[13] = 0xDD;
    writer.write_frame(Timestamp::from_micros(2), &six).unwrap();
    // A valid ICMP frame (no ports) and a short valid UDP frame — both
    // refuse the 54-byte fast path but decode via the general parser.
    let mut icmp = tcp_record(3);
    icmp.protocol = Protocol::Icmp;
    icmp.tcp_seq = None;
    icmp.src_port = 0;
    icmp.dst_port = 0;
    icmp.length = 84;
    writer.write_record(&icmp).unwrap();
    let short_udp = PacketRecord::udp(
        Timestamp::from_micros(4),
        Ipv4Addr::new(10, 9, 9, 9),
        5353,
        Ipv4Addr::new(100, 64, 2, 2),
        53,
        28, // IPv4 + UDP headers only: a 42-byte frame, below the fast cut
    );
    writer.write_record(&short_udp).unwrap();
    writer.write_record(&tcp_record(11)).unwrap();
    let bytes = writer.finish().unwrap();

    let records = decode_both_ways(&bytes);
    assert_eq!(records.len(), 3, "ARP, truncated TCP and IPv6 are skipped");
    assert_eq!(records[0], icmp);
    assert_eq!(records[1], short_udp);
    assert_eq!(records[2], tcp_record(11));
}
