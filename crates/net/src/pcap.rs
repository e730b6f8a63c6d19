//! Classic libpcap capture-file decoder and writer, implemented from scratch.
//!
//! The paper's monitors (NetFlow-style line cards, passive taps) produce
//! packet captures; to keep the reproduction self-contained we implement the
//! classic libpcap file format (the 24-byte global header followed by
//! 16-byte per-packet record headers) rather than depending on an external
//! crate. Only the microsecond-resolution, Ethernet link-type variant is
//! supported — exactly what the synthetic trace exporter produces.
//!
//! There is one decoder, [`PcapBatchCursor`]: it reads a capture in place
//! into the columns of a [`PacketBatch`], and every other way in
//! ([`pcap_bytes_to_batch`], [`pcap_bytes_to_records`]) goes through it.

use std::io::Write;

use crate::batch::PacketBatch;
use crate::error::{NetError, NetResult};
use crate::headers::{encode_frame, parse_frame_fields, parse_frame_fields_fast};
use crate::packet::{PacketRecord, Timestamp};

/// Standard libpcap magic (microsecond timestamps, native byte order).
pub(crate) const PCAP_MAGIC: u32 = 0xA1B2_C3D4;
/// libpcap magic written by machines of the opposite endianness.
pub(crate) const PCAP_MAGIC_SWAPPED: u32 = 0xD4C3_B2A1;
/// LINKTYPE_ETHERNET.
pub(crate) const LINKTYPE_ETHERNET: u32 = 1;
/// Snapshot length written into generated captures (no truncation).
pub(crate) const DEFAULT_SNAPLEN: u32 = 65_535;

/// Writer that streams packets into a classic pcap capture.
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    out: W,
    packets_written: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Creates a writer and emits the global pcap header.
    pub fn new(mut out: W) -> NetResult<Self> {
        out.write_all(&PCAP_MAGIC.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&DEFAULT_SNAPLEN.to_le_bytes())?;
        out.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapWriter {
            out,
            packets_written: 0,
        })
    }

    /// Writes one raw frame with the given timestamp.
    pub fn write_frame(&mut self, timestamp: Timestamp, frame: &[u8]) -> NetResult<()> {
        let micros = timestamp.as_micros();
        let ts_sec = (micros / 1_000_000) as u32;
        let ts_usec = (micros % 1_000_000) as u32;
        let len = frame.len() as u32;
        self.out.write_all(&ts_sec.to_le_bytes())?;
        self.out.write_all(&ts_usec.to_le_bytes())?;
        self.out.write_all(&len.to_le_bytes())?; // incl_len (no truncation)
        self.out.write_all(&len.to_le_bytes())?; // orig_len
        self.out.write_all(frame)?;
        self.packets_written += 1;
        Ok(())
    }

    /// Encodes a [`PacketRecord`] as an Ethernet/IPv4 frame and writes it.
    pub fn write_record(&mut self, record: &PacketRecord) -> NetResult<()> {
        let frame = encode_frame(record)?;
        self.write_frame(record.timestamp, &frame)
    }

    /// Number of packets written so far.
    pub fn packets_written(&self) -> u64 {
        self.packets_written
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> NetResult<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes a slice of packet records to a pcap byte buffer (in memory).
pub fn records_to_pcap_bytes(records: &[PacketRecord]) -> NetResult<Vec<u8>> {
    let mut writer = PcapWriter::new(Vec::new())?;
    for record in records {
        writer.write_record(record)?;
    }
    writer.finish()
}

/// Parses every packet record out of a pcap byte buffer: the batch decoder
/// ([`pcap_bytes_to_batch`]) followed by [`PacketBatch::to_records`].
pub fn pcap_bytes_to_records(bytes: &[u8]) -> NetResult<Vec<PacketRecord>> {
    let mut batch = PacketBatch::new();
    pcap_bytes_to_batch(bytes, &mut batch)?;
    Ok(batch.to_records())
}

/// Decodes a pcap byte buffer straight into a [`PacketBatch`] — the
/// zero-copy ingestion path.
///
/// The decoder walks the byte slice in place: record headers and protocol
/// headers are read directly out of `bytes` and appended to the batch's
/// columns, with no per-packet allocation. Decoded packets are **appended**
/// to `batch` (call [`PacketBatch::clear`] first to reuse one batch across
/// captures); the return value is the number of packets appended. Frames
/// that cannot be decoded (non-IPv4, truncated protocol headers) are
/// skipped, the way a flow monitor ignores traffic it cannot classify; a
/// capture truncated mid-record is an error.
pub fn pcap_bytes_to_batch(bytes: &[u8], batch: &mut PacketBatch) -> NetResult<u64> {
    let mut cursor = PcapBatchCursor::new(bytes)?;
    cursor.decode_some(batch, usize::MAX)
}

/// Resumable zero-copy batch decoder over an in-memory capture — the
/// streaming form of [`pcap_bytes_to_batch`].
///
/// The cursor validates the global header up front and then decodes the
/// capture in caller-sized steps: each [`PcapBatchCursor::decode_some`] call
/// appends up to `max_packets` more packets to a batch and remembers where
/// it stopped, so a pipeline can replay an arbitrarily large capture through
/// a small reusable batch instead of materialising every packet at once.
/// Decoding is byte-identical to the one-shot function for every step size.
#[derive(Debug)]
pub struct PcapBatchCursor<'a> {
    bytes: &'a [u8],
    offset: usize,
    swapped: bool,
}

impl<'a> PcapBatchCursor<'a> {
    /// Opens a capture: validates the global header (magic, link type).
    pub fn new(bytes: &'a [u8]) -> NetResult<Self> {
        if bytes.len() < 24 {
            return Err(NetError::MalformedPacket {
                reason: "pcap shorter than its global header",
            });
        }
        let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let swapped = match magic {
            PCAP_MAGIC => false,
            PCAP_MAGIC_SWAPPED => true,
            other => return Err(NetError::BadPcapMagic { found: other }),
        };
        let link_type = if swapped {
            u32::from_be_bytes([bytes[20], bytes[21], bytes[22], bytes[23]])
        } else {
            u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]])
        };
        if link_type != LINKTYPE_ETHERNET {
            return Err(NetError::UnsupportedLinkType { link_type });
        }
        Ok(PcapBatchCursor {
            bytes,
            offset: 24,
            swapped,
        })
    }

    /// Whether the cursor has consumed the whole capture.
    pub fn is_done(&self) -> bool {
        // Fewer trailing bytes than one timestamp field count as clean EOF.
        self.bytes.len() - self.offset < 4
    }

    /// Byte offset of the first unconsumed record — the resume point.
    ///
    /// [`PcapBatchCursor::decode_some`] commits this on success and, on a
    /// decode error, leaves it at the start of the record that failed
    /// (packets decoded earlier in the same call stay committed), so a
    /// caller holding a corrected copy of the capture can pick up exactly
    /// where the bad record began via [`PcapBatchCursor::resume`] without
    /// reprocessing any packet already delivered.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Re-opens a capture at a previously observed
    /// [`PcapBatchCursor::offset`] — the resume-after-error constructor.
    ///
    /// The global header of `bytes` is validated as in
    /// [`PcapBatchCursor::new`]; decoding then continues from `offset`,
    /// which must be a record boundary of this capture (typically: the
    /// offset saved from a cursor over an earlier, truncated copy of the
    /// same capture). The boundary is **verified** by walking the record
    /// headers from the start of the capture: an offset outside the buffer
    /// or inside a record errors with a clear [`NetError::InvalidField`]
    /// instead of silently decoding garbage from mid-record bytes. The walk
    /// reads only the 16-byte record headers (no frame decoding), so it is
    /// cheap relative to the decode it precedes; callers resuming on a hot
    /// path with offsets they already trust (their own cursor's committed
    /// [`PcapBatchCursor::offset`] over a prefix of the same capture) can
    /// use [`PcapBatchCursor::resume_trusted`] to skip it.
    pub fn resume(bytes: &'a [u8], offset: usize) -> NetResult<Self> {
        let cursor = Self::resume_trusted(bytes, offset)?;
        // Walk record boundaries from the first record to prove `offset`
        // lands on one. `incl_len` is read with the capture's byte order but
        // otherwise unvalidated here — a record claiming to run past the
        // buffer simply makes the walk overshoot `offset`, which is the same
        // "not a boundary" answer.
        let mut pos = 24usize;
        while pos < offset {
            if offset - pos < 16 || bytes.len() - pos < 16 {
                return Err(NetError::InvalidField {
                    field: "resume offset",
                    reason: "offset inside a pcap record header",
                });
            }
            let raw = [
                bytes[pos + 8],
                bytes[pos + 9],
                bytes[pos + 10],
                bytes[pos + 11],
            ];
            let incl_len = if cursor.swapped {
                u32::from_be_bytes(raw)
            } else {
                u32::from_le_bytes(raw)
            } as usize;
            let next = match pos.checked_add(16 + incl_len) {
                Some(next) => next,
                None => {
                    return Err(NetError::InvalidField {
                        field: "resume offset",
                        reason: "offset inside a pcap record payload",
                    })
                }
            };
            if next > offset {
                return Err(NetError::InvalidField {
                    field: "resume offset",
                    reason: "offset inside a pcap record payload",
                });
            }
            pos = next;
        }
        Ok(cursor)
    }

    /// [`PcapBatchCursor::resume`] without the record-boundary walk: the
    /// global header and the offset's bounds are still validated, but the
    /// caller asserts that `offset` is a record boundary (an offset
    /// previously returned by [`PcapBatchCursor::offset`] over a prefix of
    /// this same capture). The file-tailing source resumes once per poll, so
    /// it uses this O(1) form; resuming at a non-boundary offset decodes
    /// garbage exactly like the pre-validation `resume` did.
    pub fn resume_trusted(bytes: &'a [u8], offset: usize) -> NetResult<Self> {
        let mut cursor = Self::new(bytes)?;
        if offset < 24 || offset > bytes.len() {
            return Err(NetError::InvalidField {
                field: "resume offset",
                reason: "offset outside the capture",
            });
        }
        cursor.offset = offset;
        Ok(cursor)
    }

    /// Decodes up to `max_packets` more packets, **appending** them to
    /// `batch` (clear it first to reuse one batch across steps). Returns the
    /// number of packets appended; `0` means the capture is exhausted.
    /// Undecodable frames are skipped exactly like the one-shot decoder and
    /// do not count towards `max_packets`.
    pub fn decode_some(&mut self, batch: &mut PacketBatch, max_packets: usize) -> NetResult<u64> {
        // Monomorphise the hot loop on the byte order so the common
        // native-order case carries no per-field branch.
        if self.swapped {
            decode_batch_loop::<true>(self.bytes, &mut self.offset, batch, max_packets)
        } else {
            decode_batch_loop::<false>(self.bytes, &mut self.offset, batch, max_packets)
        }
    }
}

/// The record-walking loop of [`PcapBatchCursor`], specialised per byte
/// order. Resumes at `*offset` and leaves it on the first unconsumed record.
fn decode_batch_loop<const SWAPPED: bool>(
    bytes: &[u8],
    resume_at: &mut usize,
    batch: &mut PacketBatch,
    max_packets: usize,
) -> NetResult<u64> {
    #[inline(always)]
    fn read_u32<const SWAPPED: bool>(chunk: &[u8]) -> u32 {
        let raw = [chunk[0], chunk[1], chunk[2], chunk[3]];
        if SWAPPED {
            u32::from_be_bytes(raw)
        } else {
            u32::from_le_bytes(raw)
        }
    }

    let mut offset = *resume_at;
    let mut appended = 0u64;
    while offset < bytes.len() && (appended as usize) < max_packets {
        // On a malformed record the offset is committed at the *start* of
        // that record before erroring: packets decoded earlier in this call
        // stay delivered in `batch`, and a corrected copy of the capture can
        // resume from `offset()` without reprocessing them.
        let record_start = offset;
        // Fewer trailing bytes than one timestamp field read as clean EOF;
        // a partially present record header is an error.
        if bytes.len() - offset < 4 {
            break;
        }
        if bytes.len() - offset < 16 {
            *resume_at = record_start;
            return Err(NetError::MalformedPacket {
                reason: "truncated pcap record header",
            });
        }
        let header = &bytes[offset..offset + 16];
        let ts_sec = read_u32::<SWAPPED>(&header[0..4]);
        let ts_usec = read_u32::<SWAPPED>(&header[4..8]);
        let incl_len = read_u32::<SWAPPED>(&header[8..12]) as usize;
        offset += 16;
        if incl_len > 10 * 1024 * 1024 {
            *resume_at = record_start;
            return Err(NetError::MalformedPacket {
                reason: "pcap record longer than 10 MiB",
            });
        }
        if bytes.len() - offset < incl_len {
            *resume_at = record_start;
            return Err(NetError::MalformedPacket {
                reason: "truncated pcap record payload",
            });
        }
        let frame = &bytes[offset..offset + incl_len];
        offset += incl_len;
        // The next record's position depends on `incl_len` just loaded, so
        // the walk is a serial chain of cache misses the hardware prefetcher
        // cannot always run ahead of. Records in one capture tend to share a
        // size (snaplen-capped, or uniform synthetic traffic), so touch the
        // *predicted* record after next — two strides ahead — to overlap its
        // miss with two records' worth of parsing. A misprediction costs one
        // wasted line fetch; `black_box` keeps the dead loads live.
        let predicted = offset + incl_len + 16;
        std::hint::black_box(bytes.get(predicted).copied());
        std::hint::black_box(bytes.get(predicted + 63).copied());
        // Common case first (IPv4/IHL-5/TCP-or-UDP): one bounds check, and
        // the 5-tuple packs straight from the wire bytes. Everything else
        // goes through the general parser, which debug builds also hold
        // every fast answer against.
        let columns = match parse_frame_fields_fast(frame) {
            Some(columns) => {
                debug_assert_eq!(parse_frame_fields(frame).ok(), Some(columns));
                columns
            }
            None => match parse_frame_fields(frame) {
                Ok(columns) => columns,
                Err(_) => continue,
            },
        };
        let micros = ts_sec as u64 * 1_000_000 + ts_usec as u64;
        batch.push_columns(
            micros * 1_000,
            columns.packed_key,
            columns.length,
            columns.tcp_seq,
        );
        appended += 1;
    }
    *resume_at = offset;
    Ok(appended)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    /// `n` TCP records on whole milliseconds, so a capture's microsecond
    /// timestamps return them exactly.
    fn sample_records(n: usize) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                PacketRecord::tcp(
                    Timestamp::from_secs_f64(i as f64 * 0.001),
                    Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8),
                    1024 + (i % 1000) as u16,
                    Ipv4Addr::new(192, 168, 1, (i % 200) as u8),
                    80,
                    500,
                    i as u32 * 500,
                )
            })
            .collect()
    }

    /// The reason of the `MalformedPacket` error `result` must be.
    fn malformed<T: std::fmt::Debug>(result: NetResult<T>) -> &'static str {
        match result {
            Err(NetError::MalformedPacket { reason }) => reason,
            other => panic!("expected a malformed capture, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = sample_records(50);
        let bytes = records_to_pcap_bytes(&records).unwrap();
        assert_eq!(pcap_bytes_to_records(&bytes).unwrap(), records);
    }

    #[test]
    fn global_header_fields() {
        let bytes = records_to_pcap_bytes(&sample_records(1)).unwrap();
        assert_eq!(
            u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            PCAP_MAGIC
        );
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 4);
        assert_eq!(
            u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]),
            LINKTYPE_ETHERNET
        );
        assert!(PcapBatchCursor::new(&bytes).is_ok());
    }

    #[test]
    fn empty_capture_yields_no_packets() {
        let writer = PcapWriter::new(Vec::new()).unwrap();
        assert_eq!(writer.packets_written(), 0);
        let bytes = writer.finish().unwrap();
        let records = pcap_bytes_to_records(&bytes).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn rejects_bad_magic_and_link_type() {
        let err = PcapBatchCursor::new(&[0u8; 24]).unwrap_err();
        assert!(matches!(err, NetError::BadPcapMagic { .. }));

        // Valid magic but link type 101 (raw IP).
        let mut header = Vec::new();
        header.extend_from_slice(&PCAP_MAGIC.to_le_bytes());
        header.extend_from_slice(&2u16.to_le_bytes());
        header.extend_from_slice(&4u16.to_le_bytes());
        header.extend_from_slice(&0i32.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        header.extend_from_slice(&DEFAULT_SNAPLEN.to_le_bytes());
        header.extend_from_slice(&101u32.to_le_bytes());
        let err = PcapBatchCursor::new(&header).unwrap_err();
        assert!(matches!(
            err,
            NetError::UnsupportedLinkType { link_type: 101 }
        ));
    }

    #[test]
    fn truncated_file_reports_eof_cleanly() {
        let bytes = records_to_pcap_bytes(&sample_records(3)).unwrap();
        // Cut in the middle of the second record's payload.
        let cut = &bytes[..24 + (16 + 514) + 16 + 100];
        let mut cursor = PcapBatchCursor::new(cut).unwrap();
        let mut batch = PacketBatch::new();
        assert_eq!(cursor.decode_some(&mut batch, 1).unwrap(), 1);
        assert_eq!(
            malformed(cursor.decode_some(&mut batch, 1)),
            "truncated pcap record payload"
        );
    }

    #[test]
    fn non_ipv4_frames_are_skipped_by_record_reader() {
        // Through `pcap_bytes_to_records`, the record-shaped way in.
        let mut writer = PcapWriter::new(Vec::new()).unwrap();
        // A bogus ARP-like frame.
        let mut arp = vec![0u8; 42];
        arp[12] = 0x08;
        arp[13] = 0x06;
        writer.write_frame(Timestamp::ZERO, &arp).unwrap();
        // Followed by a real IPv4 packet.
        writer.write_record(&sample_records(1)[0]).unwrap();
        let bytes = writer.finish().unwrap();
        let records = pcap_bytes_to_records(&bytes).unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut bytes = records_to_pcap_bytes(&[]).unwrap();
        // Append a record header claiming a 100 MiB packet.
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&(100u32 * 1024 * 1024).to_le_bytes());
        bytes.extend_from_slice(&(100u32 * 1024 * 1024).to_le_bytes());
        let mut batch = PacketBatch::new();
        assert_eq!(
            malformed(pcap_bytes_to_batch(&bytes, &mut batch)),
            "pcap record longer than 10 MiB"
        );
    }

    #[test]
    fn batch_decode_matches_record_decode() {
        let records = sample_records(200);
        let bytes = records_to_pcap_bytes(&records).unwrap();
        let mut batch = PacketBatch::new();
        let appended = pcap_bytes_to_batch(&bytes, &mut batch).unwrap();
        assert_eq!(appended, records.len() as u64);
        assert_eq!(batch.to_records(), records);
        // Appending a second capture reuses the batch without clearing.
        pcap_bytes_to_batch(&bytes, &mut batch).unwrap();
        assert_eq!(batch.len(), 2 * records.len());
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn batch_decode_skips_undecodable_frames_like_the_reader() {
        let mut writer = PcapWriter::new(Vec::new()).unwrap();
        let mut arp = vec![0u8; 42];
        arp[12] = 0x08;
        arp[13] = 0x06;
        writer.write_frame(Timestamp::ZERO, &arp).unwrap();
        writer.write_record(&sample_records(1)[0]).unwrap();
        let bytes = writer.finish().unwrap();
        let mut batch = PacketBatch::new();
        assert_eq!(pcap_bytes_to_batch(&bytes, &mut batch).unwrap(), 1);
        assert_eq!(batch.to_records(), sample_records(1));
    }

    #[test]
    fn batch_decode_rejects_truncation_and_bad_headers() {
        let mut batch = PacketBatch::new();
        assert_eq!(
            malformed(pcap_bytes_to_batch(&[0u8; 10], &mut batch)),
            "pcap shorter than its global header"
        );
        assert!(matches!(
            pcap_bytes_to_batch(&[0u8; 24], &mut batch).unwrap_err(),
            NetError::BadPcapMagic { .. }
        ));
        let bytes = records_to_pcap_bytes(&sample_records(3)).unwrap();
        // Cut in the middle of the second record's payload.
        let cut = &bytes[..24 + (16 + 514) + 16 + 100];
        assert_eq!(
            malformed(pcap_bytes_to_batch(cut, &mut batch)),
            "truncated pcap record payload"
        );
        // Cut in the middle of a record header.
        let cut = &bytes[..24 + (16 + 514) + 8];
        assert_eq!(
            malformed(pcap_bytes_to_batch(cut, &mut batch)),
            "truncated pcap record header"
        );
    }

    #[test]
    fn batch_decode_treats_sub_field_trailing_bytes_as_eof_like_the_reader() {
        // Fewer than 4 trailing bytes (not even one timestamp field) are a
        // clean EOF; the decoder must hold that on both sides of the
        // boundary.
        let bytes = records_to_pcap_bytes(&sample_records(2)).unwrap();
        for garbage in 1..=3usize {
            let mut padded = bytes.clone();
            padded.extend(std::iter::repeat_n(0xAAu8, garbage));
            let mut cursor = PcapBatchCursor::new(&padded).unwrap();
            let mut batch = PacketBatch::new();
            assert_eq!(
                cursor.decode_some(&mut batch, usize::MAX).unwrap(),
                2,
                "{garbage} trailing bytes: EOF"
            );
            assert!(cursor.is_done(), "{garbage} trailing bytes");
        }
        // 4..15 trailing bytes are a truncated record header, reached after
        // the two good records are delivered.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0u8; 7]);
        let mut cursor = PcapBatchCursor::new(&padded).unwrap();
        let mut batch = PacketBatch::new();
        assert_eq!(
            malformed(cursor.decode_some(&mut batch, usize::MAX)),
            "truncated pcap record header"
        );
        assert_eq!(batch.len(), 2);
        assert!(!cursor.is_done());
    }

    #[test]
    fn cursor_decodes_in_steps_identically_to_one_shot() {
        let records = sample_records(200);
        let bytes = records_to_pcap_bytes(&records).unwrap();
        let mut whole = PacketBatch::new();
        pcap_bytes_to_batch(&bytes, &mut whole).unwrap();

        for step in [1usize, 7, 64, 1000] {
            let mut cursor = PcapBatchCursor::new(&bytes).unwrap();
            let mut stepped = PacketBatch::new();
            let mut total = 0u64;
            loop {
                let n = cursor.decode_some(&mut stepped, step).unwrap();
                if n == 0 {
                    break;
                }
                assert!(n as usize <= step, "step {step}");
                total += n;
            }
            assert!(cursor.is_done(), "step {step}");
            assert_eq!(total, whole.len() as u64, "step {step}");
            assert_eq!(stepped, whole, "step {step}");
        }
    }

    #[test]
    fn cursor_commits_progress_and_resumes_after_a_truncated_record() {
        let records = sample_records(10);
        let bytes = records_to_pcap_bytes(&records).unwrap();
        let mut whole = PacketBatch::new();
        pcap_bytes_to_batch(&bytes, &mut whole).unwrap();

        // Cut mid-payload inside the 8th record (each record is a 16-byte
        // header plus a 514-byte frame).
        let bad_record_start = 24 + 7 * (16 + 514);
        let cut = &bytes[..bad_record_start + 16 + 100];

        let mut cursor = PcapBatchCursor::new(cut).unwrap();
        let mut batch = PacketBatch::new();
        let err = cursor.decode_some(&mut batch, usize::MAX).unwrap_err();
        assert!(matches!(
            err,
            NetError::MalformedPacket {
                reason: "truncated pcap record payload"
            }
        ));
        // The seven good records before the cut stay committed, and the
        // cursor points at the record that failed — not at the start of
        // the call.
        assert_eq!(batch.len(), 7);
        assert_eq!(cursor.offset(), bad_record_start);

        // A corrected copy of the capture resumes from the saved offset
        // without reprocessing the packets already delivered.
        let mut resumed = PcapBatchCursor::resume(&bytes, cursor.offset()).unwrap();
        let appended = resumed.decode_some(&mut batch, usize::MAX).unwrap();
        assert_eq!(appended, 3);
        assert!(resumed.is_done());
        assert_eq!(batch, whole);
    }

    #[test]
    fn cursor_resume_validates_header_and_offset() {
        let bytes = records_to_pcap_bytes(&sample_records(2)).unwrap();
        assert!(matches!(
            PcapBatchCursor::resume(&[0u8; 24], 24).unwrap_err(),
            NetError::BadPcapMagic { .. }
        ));
        assert!(matches!(
            PcapBatchCursor::resume(&bytes, 10).unwrap_err(),
            NetError::InvalidField {
                reason: "offset outside the capture",
                ..
            }
        ));
        assert!(matches!(
            PcapBatchCursor::resume(&bytes, bytes.len() + 1).unwrap_err(),
            NetError::InvalidField {
                reason: "offset outside the capture",
                ..
            }
        ));
        // Mid-record offsets are rejected by the boundary walk: inside the
        // first record's header, and inside its payload.
        assert!(matches!(
            PcapBatchCursor::resume(&bytes, 24 + 7).unwrap_err(),
            NetError::InvalidField {
                reason: "offset inside a pcap record header",
                ..
            }
        ));
        assert!(matches!(
            PcapBatchCursor::resume(&bytes, 24 + 16 + 3).unwrap_err(),
            NetError::InvalidField {
                reason: "offset inside a pcap record payload",
                ..
            }
        ));
        // The trusted fast path keeps the bounds checks but skips the walk.
        assert!(PcapBatchCursor::resume_trusted(&bytes, 24 + 7).is_ok());
        assert!(PcapBatchCursor::resume_trusted(&bytes, bytes.len() + 1).is_err());
        // Resuming exactly at EOF is a clean empty decode.
        let mut cursor = PcapBatchCursor::resume(&bytes, bytes.len()).unwrap();
        assert!(cursor.is_done());
        let mut batch = PacketBatch::new();
        assert_eq!(cursor.decode_some(&mut batch, usize::MAX).unwrap(), 0);
    }

    #[test]
    fn timestamps_preserved_to_microsecond() {
        let mut records = sample_records(1);
        records[0].timestamp = Timestamp::from_micros(1_234_567_890);
        let bytes = records_to_pcap_bytes(&records).unwrap();
        let decoded = pcap_bytes_to_records(&bytes).unwrap();
        assert_eq!(decoded[0].timestamp.as_micros(), 1_234_567_890);
    }
}
