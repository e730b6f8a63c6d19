//! The streaming pipeline API: pull-based packet sources, push-based report
//! sinks, and the adapters that make [`Monitor::drive`](crate::Monitor::drive) the one way every
//! consumer runs a measurement.
//!
//! A [`PacketSource`] yields `&PacketBatch` chunks on demand; a
//! [`ReportSink`] receives each closed bin's [`BinReport`] **by reference**
//! the moment it closes. `Monitor::drive(&mut source, &mut sink)` pumps the
//! one into the other, so an experiment's peak memory is one chunk of
//! packets plus whatever the sink chooses to retain — for the aggregating
//! sinks ([`RateCurve`], [`DigestSink`]) that is O(rates), independent of
//! trace length.
//!
//! # Sources
//!
//! * [`BatchSource`] — a borrowed in-memory batch, yielded once (records
//!   come in through [`PacketBatch::from_records`]).
//! * [`PcapBytesSource`] — an in-memory capture decoded incrementally via
//!   the zero-copy batch decoder ([`flowrank_net::pcap::PcapBatchCursor`]).
//! * [`flowrank_trace::SynthesisStream`] (via [`flowrank_trace::Workload::stream`]) — scenario
//!   workloads and the Figs. 12–16 traces synthesised window by window
//!   instead of materialising the whole trace.
//! * [`Chunked`] — wraps any source and re-cuts its chunks to a maximum
//!   size (down to single packets), for chunking-invariance tests and
//!   bounded-latency replay; the inner source's idle polls and errors pass
//!   through.
//!
//! Every source implements the one poll, [`PacketSource::try_next_chunk`].
//!
//! ## Live sources
//!
//! The serving path ([`Monitor::try_drive`](crate::Monitor::try_drive) as a
//! long-lived daemon, see `flowrank-serve`) adds sources that can run out of
//! data *temporarily*: their poll answers an empty chunk (an idle poll)
//! instead of ending the stream, and fails with a [`SourceError`] where the
//! input does. None of them sleeps, retries or skips on its own: the drive
//! loop waits out idle polls and decides what an error costs.
//!
//! * [`PcapTailSource`] — tails a growing pcap file through a bounded read
//!   window, resuming decode at the committed record boundary each time the
//!   file grows.
//! * [`NdjsonRecordSource`] — one packet record per JSON line from any
//!   `BufRead` (stdin, a socket), optionally tenant-tagged; its reads block,
//!   a chunk is every complete line one read delivered, lines bounded at
//!   64 KiB, and a bad line is a recoverable error.
//! * [`ChannelSource`] — non-blocking mpsc adapter that turns any blocking
//!   feed running on its own thread into a pollable source.
//! * [`flowrank_trace::PacedReplay`] — a scenario workload metered out on
//!   the wall clock at a configurable speed factor.
//! * [`StopGate`] — wraps any source with a shared stop flag that converts
//!   the next poll into a clean end-of-stream (graceful shutdown).
//!
//! # Sinks
//!
//! * [`Collect`] — clones every report into a `Vec`.
//! * [`RateCurve`] — accumulates the paper's mean-accuracy-per-rate curves
//!   online (Welford moments per rate, nothing retained per bin).
//! * [`NdjsonSink`] / [`CsvSink`] — stream reports to any `io::Write` as
//!   newline-delimited JSON or flat per-lane CSV rows, allocation-free.
//! * [`DigestSink`] — folds every report into the conformance FNV-1a digest
//!   without buffering the stream.
//! * [`Tee`] — duplicates each report to two sinks; nest for more.
//!
//! Sinks receive each report as a borrow valid only for the duration of
//! [`ReportSink::accept`]; a sink that needs the report beyond the call must
//! clone it (that is exactly what [`Collect`] does — and what every other
//! sink avoids).

use std::io::{self, Write};

use flowrank_net::pcap::PcapBatchCursor;
use flowrank_net::{CompactKey, NetError, PacketBatch, PacketRecord, Timestamp};
use flowrank_stats::summary::RunningStats;

use crate::fault::SourceError;
use crate::report::BinReport;

/// Copies a [`NetError`] so a latched terminating error can be surfaced
/// repeatedly through [`PacketSource::try_next_chunk`] while `error()`
/// keeps reporting it.
fn replicate_net_error(error: &NetError) -> NetError {
    match error {
        NetError::Io(e) => NetError::Io(replicate_io_error(e)),
        NetError::BadPcapMagic { found } => NetError::BadPcapMagic { found: *found },
        NetError::UnsupportedLinkType { link_type } => NetError::UnsupportedLinkType {
            link_type: *link_type,
        },
        NetError::MalformedPacket { reason } => NetError::MalformedPacket { reason },
        NetError::InvalidField { field, reason } => NetError::InvalidField { field, reason },
    }
}

/// `io::Error` is not `Clone`: the copy preserves kind and message only.
fn replicate_io_error(error: &io::Error) -> io::Error {
    io::Error::new(error.kind(), error.to_string())
}

/// Default packet count per chunk for sources that choose their own
/// chunking. Large enough to amortise per-chunk overhead, small enough that
/// a chunk of four SoA columns stays cache-friendly.
pub(crate) const DEFAULT_CHUNK_PACKETS: usize = 4096;

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// A pull-based packet stream: yields SoA batches until exhausted.
///
/// The returned batch borrows from the source and is valid until the next
/// poll. Packets must come out in non-decreasing timestamp order across the
/// whole stream (the monitor's push contract).
/// [`Monitor::drive`](crate::Monitor::drive) guarantees the same reports for
/// any chunking of the same packet sequence.
///
/// A source implements one method, [`PacketSource::try_next_chunk`]. What to
/// do about an idle poll or an error is the drive loop's decision, not the
/// source's: [`Monitor::drive`](crate::Monitor::drive) waits out idle polls,
/// skips malformed records and ends at a fatal error;
/// [`Monitor::try_drive`](crate::Monitor::try_drive) follows its
/// [`DrivePolicy`](crate::DrivePolicy).
pub trait PacketSource {
    /// Polls the next chunk. Each poll answers one of four things:
    ///
    /// * `Ok(Some(batch))` with packets — a chunk;
    /// * `Ok(Some(batch))` with an **empty** batch — an *idle poll*, "no
    ///   data right now, not end of stream";
    /// * `Ok(None)` — the end of the stream;
    /// * `Err(error)` — a [`SourceError`]: a [`SourceError::Malformed`] error
    ///   means the source has advanced past a bad record and may be polled
    ///   again, a [`SourceError::Fatal`] one ends it.
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError>;

    /// One poll with its error folded in; never loops. An idle poll comes
    /// back as an empty chunk, and so does a recoverable error (nothing
    /// delivered, poll again); a fatal error comes back as `None`, like the
    /// end. A `while let Some(chunk)` loop over it therefore reads a source
    /// with malformed records to its end.
    ///
    /// Only its own test calls it in the workspace. It stays only while the
    /// `ledger` package calls it (timing `NdjsonRecordSource` alone) and
    /// overrides it (`StampedSource`).
    fn next_chunk(&mut self) -> Option<&PacketBatch> {
        static SKIPPED: PacketBatch = PacketBatch::new();
        match self.try_next_chunk() {
            Ok(chunk) => chunk,
            Err(error) if error.is_recoverable() => Some(&SKIPPED),
            Err(_) => None,
        }
    }
}

impl<S: PacketSource + ?Sized> PacketSource for &mut S {
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        (**self).try_next_chunk()
    }
}

/// Yields one borrowed in-memory batch, once.
#[derive(Debug)]
pub struct BatchSource<'a> {
    batch: Option<&'a PacketBatch>,
}

impl<'a> BatchSource<'a> {
    /// Wraps a batch as a single-chunk source.
    pub fn new(batch: &'a PacketBatch) -> Self {
        BatchSource {
            batch: Some(batch).filter(|b| !b.is_empty()),
        }
    }
}

impl PacketSource for BatchSource<'_> {
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        Ok(self.batch.take())
    }
}

/// Re-cuts any source's chunks to at most `max_packets` each (down to
/// single-packet chunks), preserving the packet sequence exactly.
///
/// The inner source's chunk is copied column-wise into a holding batch and
/// sliced from there, so the adapter works with any inner chunking and costs
/// one extra copy per packet — it exists for chunking-invariance tests and
/// for bounding the latency between ingest and bin close, not for peak
/// throughput.
#[derive(Debug)]
pub struct Chunked<S> {
    inner: S,
    max_packets: usize,
    held: PacketBatch,
    position: usize,
    out: PacketBatch,
}

impl<S: PacketSource> Chunked<S> {
    /// Wraps `inner`, re-cutting its chunks to at most `max_packets`.
    pub fn new(inner: S, max_packets: usize) -> Self {
        Chunked {
            inner,
            max_packets: max_packets.max(1),
            held: PacketBatch::new(),
            position: 0,
            out: PacketBatch::new(),
        }
    }
}

/// The inner source's idle polls and errors pass through as they come.
impl<S: PacketSource> PacketSource for Chunked<S> {
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        if self.position >= self.held.len() {
            let Some(chunk) = self.inner.try_next_chunk()? else {
                return Ok(None);
            };
            self.held.clear();
            self.held.extend_from_batch(chunk, 0..chunk.len());
            self.position = 0;
        }
        let end = self.held.len().min(self.position + self.max_packets);
        self.out.clear();
        self.out.extend_from_batch(&self.held, self.position..end);
        self.position = end;
        Ok(Some(&self.out))
    }
}

impl PacketSource for flowrank_trace::SynthesisStream {
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        Ok(self.next_window())
    }
}

/// Streams an in-memory pcap capture through the zero-copy batch decoder,
/// one bounded chunk at a time.
///
/// A decode error ends the stream after the packets in front of it, as a
/// [`SourceError::Fatal`] poll; [`PcapBytesSource::error`] keeps it for
/// reading after the drive.
#[derive(Debug)]
pub struct PcapBytesSource<'a> {
    cursor: PcapBatchCursor<'a>,
    chunk_packets: usize,
    batch: PacketBatch,
    error: Option<NetError>,
}

impl<'a> PcapBytesSource<'a> {
    /// Opens a capture held in memory (validates the global header).
    pub fn new(bytes: &'a [u8]) -> Result<Self, NetError> {
        Ok(PcapBytesSource {
            cursor: PcapBatchCursor::new(bytes)?,
            chunk_packets: DEFAULT_CHUNK_PACKETS,
            batch: PacketBatch::new(),
            error: None,
        })
    }

    /// Sets the number of packets decoded per chunk.
    pub fn with_chunk_packets(mut self, chunk_packets: usize) -> Self {
        self.chunk_packets = chunk_packets.max(1);
        self
    }

    /// The decode error that terminated the stream, if any.
    pub fn error(&self) -> Option<&NetError> {
        self.error.as_ref()
    }
}

impl PacketSource for PcapBytesSource<'_> {
    /// A decode error is [`SourceError::Fatal`] (pcap framing errors lose
    /// the record boundary, so the stream cannot resynchronise), surfaced
    /// after the packets decoded before the bad record, then latched: for
    /// [`PcapBytesSource::error`], and for every later poll.
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        if self.error.is_none() {
            self.batch.clear();
            let decoded = self.cursor.decode_some(&mut self.batch, self.chunk_packets);
            self.error = decoded.err();
            // A partial chunk is delivered first; the next poll errors.
            if !self.batch.is_empty() {
                return Ok(Some(&self.batch));
            }
        }
        end_of_pcap(&self.error)
    }
}

/// What a pcap source with nothing left to deliver answers: its latched
/// error as [`SourceError::Fatal`], again on every poll, or a clean end.
fn end_of_pcap<'a>(latched: &Option<NetError>) -> Result<Option<&'a PacketBatch>, SourceError> {
    match latched {
        Some(error) => Err(SourceError::Fatal(replicate_net_error(error))),
        None => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// Live sources
// ---------------------------------------------------------------------------

/// Length of the classic pcap global header [`PcapTailSource`] keeps at the
/// front of its read window.
const PCAP_GLOBAL_HEADER: usize = 24;

/// Bytes [`PcapTailSource`] reads from the file at a time.
const TAIL_READ_QUANTUM: usize = 64 * 1024;

/// Tails a growing pcap file: decodes whatever whole records have been
/// written so far, answers an idle poll when it catches up with the writer,
/// and picks up exactly where it left off when more bytes land — the
/// live-capture source of the `flowrank-serve` daemon.
///
/// Memory is bounded whatever the capture's size: the file is read one
/// 64 KiB quantum at a time, only when the bytes already buffered decode to
/// less than a chunk, and the decoded prefix is dropped before each read —
/// the window holds the global header, one quantum and at most one partial
/// record.
///
/// Built on [`PcapBatchCursor::offset`]/[`PcapBatchCursor::resume_trusted`]:
/// after every decode step the committed record boundary is remembered, and
/// the next step resumes from it over the refilled window. A record that is
/// truncated *at the tail* (the writer has not finished flushing it) is
/// indistinguishable from a mid-write snapshot, so in follow mode it reads
/// as an idle poll; any other malformed shape — bad magic, oversized record —
/// is [`SourceError::Fatal`], latched and returned on every later poll, after
/// the packets decoded in front of it have been delivered (the
/// [`PcapBytesSource`] contract).
///
/// With [`PcapTailSource::follow`] disabled the source behaves like
/// [`PcapBytesSource`] over the file's current contents: it never answers an
/// idle poll, EOF ends the stream, and a trailing truncated record is fatal
/// instead of pending.
#[derive(Debug)]
pub struct PcapTailSource {
    file: std::fs::File,
    /// The read window: the global header, then the file's bytes from
    /// offset `PCAP_GLOBAL_HEADER + dropped` on.
    buf: Vec<u8>,
    /// Decoded bytes already dropped from the window.
    dropped: usize,
    /// Committed decode offset into `buf`: always a record boundary.
    consumed: usize,
    chunk_packets: usize,
    batch: PacketBatch,
    follow: bool,
    error: Option<NetError>,
}

impl PcapTailSource {
    /// Opens `path` for tailing. The file may still be empty — even the
    /// global header may arrive later; until it does, polls are idle.
    pub fn open(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(PcapTailSource {
            file: std::fs::File::open(path)?,
            buf: Vec::new(),
            dropped: 0,
            consumed: PCAP_GLOBAL_HEADER,
            chunk_packets: DEFAULT_CHUNK_PACKETS,
            batch: PacketBatch::new(),
            follow: true,
            error: None,
        })
    }

    /// Sets the number of packets decoded per chunk.
    pub fn with_chunk_packets(mut self, chunk_packets: usize) -> Self {
        self.chunk_packets = chunk_packets.max(1);
        self
    }

    /// Whether to keep waiting for the file to grow (the default). With
    /// `false`, EOF ends the stream like a one-shot decode.
    pub fn follow(mut self, follow: bool) -> Self {
        self.follow = follow;
        self
    }

    /// Bytes of the capture decoded and committed so far (the current
    /// resume boundary as a file offset; 0 until the global header has
    /// arrived) — an observability hook for starvation watchdogs.
    pub fn consumed(&self) -> usize {
        if self.buf.len() < PCAP_GLOBAL_HEADER {
            0
        } else {
            self.dropped + self.consumed
        }
    }

    /// One decode step into `self.batch`. `Ok(true)`: the stream goes on,
    /// and an empty batch means the source has caught up with the writer
    /// (an idle poll). `Ok(false)`: end of stream.
    fn step(&mut self) -> Result<bool, SourceError> {
        end_of_pcap(&self.error)?;
        self.batch.clear();
        loop {
            // Decode what is buffered, once the global header is.
            let mut cut_short = None;
            if self.buf.len() >= PCAP_GLOBAL_HEADER {
                let mut cursor = match PcapBatchCursor::resume_trusted(&self.buf, self.consumed) {
                    Ok(cursor) => cursor,
                    Err(error) => return self.fail(error),
                };
                let wanted = self.chunk_packets - self.batch.len();
                let decoded = cursor.decode_some(&mut self.batch, wanted);
                // After an error the cursor is parked at the start of the
                // bad record.
                self.consumed = cursor.offset();
                match decoded {
                    Ok(_) if self.batch.len() == self.chunk_packets => return Ok(true),
                    Ok(_) => {}
                    Err(error) => {
                        let truncated_at_tail = matches!(
                            &error,
                            NetError::MalformedPacket { reason }
                                if reason.starts_with("truncated pcap record")
                        );
                        if !truncated_at_tail {
                            return self.fail(error);
                        }
                        cut_short = Some(error);
                    }
                }
                // Everything in front of the boundary is delivered: drop it,
                // keeping the header the cursor revalidates in front.
                self.buf.drain(PCAP_GLOBAL_HEADER..self.consumed);
                self.dropped += self.consumed - PCAP_GLOBAL_HEADER;
                self.consumed = PCAP_GLOBAL_HEADER;
            }
            // The window ran dry short of a chunk, possibly mid-record.
            let mut quantum = io::Read::take(&mut self.file, TAIL_READ_QUANTUM as u64);
            match io::Read::read_to_end(&mut quantum, &mut self.buf) {
                Ok(0) => {}
                Ok(_) => continue,
                Err(error) => return self.fail(NetError::Io(error)),
            }
            // Caught up with the writer: wait in follow mode, end otherwise.
            return match cut_short {
                // Most likely a record the writer has not finished flushing:
                // deliver what decoded before it, then wait for the rest.
                Some(_) if self.follow => Ok(true),
                Some(error) => self.fail(error),
                None => Ok(!self.batch.is_empty() || self.follow),
            };
        }
    }

    /// Latches `error`. A partial chunk is delivered first; the latched
    /// error surfaces on the next poll.
    fn fail(&mut self, error: NetError) -> Result<bool, SourceError> {
        let replica = replicate_net_error(&error);
        self.error = Some(error);
        if self.batch.is_empty() {
            Err(SourceError::Fatal(replica))
        } else {
            Ok(true)
        }
    }
}

impl PacketSource for PcapTailSource {
    /// Caught up with the writer, the chunk is empty: an idle poll.
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        Ok(self.step()?.then_some(&self.batch))
    }
}

/// The longest ndjson line [`NdjsonRecordSource`] keeps. A record line is
/// about 120 bytes; anything near this limit is not a record, so the limit
/// is a bound on what a broken or hostile peer can make the reader hold.
const MAX_NDJSON_LINE_BYTES: usize = 64 * 1024;

/// A newline-delimited-JSON record feed — the ingestion format of the
/// `flowrank-serve` daemon, and the one place bytes from stdin or a socket
/// become records.
///
/// One record per line:
///
/// ```json
/// {"ts": 12.5, "src": "10.0.0.1", "sport": 443, "dst": "100.64.0.9",
///  "dport": 55220, "proto": "tcp", "len": 1500, "seq": 7500}
/// ```
///
/// `ts` is seconds from the start of the measurement (non-decreasing, per
/// the push contract), `proto` is `"tcp"` or `"udp"`, `seq` is optional.
/// Parsing is a permissive field walk, not a general JSON parser: fields may
/// appear in any order, unknown fields are ignored.
///
/// The source reads a word (eight bytes) at a time. One scan over the buffer
/// finds each line's newline and notes on the way whether the line holds a
/// byte that is not ASCII; only such a line is validated as UTF-8, so an
/// ASCII record pays no `from_utf8`. The walk over the line's fields
/// searches its quotes and value ends the same way, and the numbers and
/// addresses go through exact readers (`u16::from_str`, `u32::from_str` and
/// `Ipv4Addr::from_str` to the byte, `ts` through `f64::from_str` itself)
/// into the batch's columns.
///
/// Each chunk is what has arrived: one `fill_buf` of the reader, and every
/// complete line in it (at most `DEFAULT_CHUNK_PACKETS`), so a busy feed is
/// read in chunks as large as the reader's buffer and a quiet one a record
/// at a time — the source never reads again with records in hand. A
/// malformed line is a *recoverable* [`SourceError::Malformed`], ordered
/// between the records around it: the chunk ends in front of the line, the
/// next poll returns the error with the line consumed, and under
/// [`DrivePolicy::skip_malformed`](crate::DrivePolicy::skip_malformed) the
/// drive loop counts it and keeps going. That covers the two shapes a byte
/// stream the daemon does not control can take: a line longer than 64 KiB
/// (kept up to the limit, the rest discarded unbuffered, so a newline-free
/// stream costs no memory) and a line that is not UTF-8 are each **one**
/// malformed record, and the stream resynchronises at the next newline.
/// Reads block until a line or EOF arrives; the one idle poll this source
/// answers is a read a signal interrupted (`EINTR`, where the handler was
/// installed without `SA_RESTART`), so a stop flag the handler raised is
/// seen at once. A signal that lands while a line is half read waits for
/// that line's newline or EOF (`read_until` retries `EINTR` itself). Feed it
/// through a [`ChannelSource`] when the loop must not block.
#[derive(Debug)]
pub struct NdjsonRecordSource<R> {
    reader: R,
    /// A line the reader's buffer did not hold whole, without its newline;
    /// allocated once, at the limit.
    line: Vec<u8>,
    batch: PacketBatch,
    /// The tenant tag of each row of `batch`, filled by the tagged polls.
    tenants: Vec<u32>,
}

impl<R: io::BufRead> NdjsonRecordSource<R> {
    /// Wraps a buffered reader of ndjson records.
    pub fn new(reader: R) -> Self {
        NdjsonRecordSource {
            reader,
            line: Vec::with_capacity(MAX_NDJSON_LINE_BYTES + 1),
            batch: PacketBatch::new(),
            tenants: Vec::new(),
        }
    }

    /// The next chunk with the `"tenant"` tag of each of its lines beside it
    /// (0 where a line carries none) — the tenant-tagged form of
    /// [`PacketSource::try_next_chunk`]. A tag that is not a `u32` makes the
    /// line malformed.
    pub fn next_tagged(&mut self) -> Result<Option<(&[u32], &PacketBatch)>, SourceError> {
        Ok(self.step(true)?.then_some((&self.tenants, &self.batch)))
    }

    /// Reads the next chunk into `self.batch` — and its tenant tags, parsed
    /// only when `tagged`, into `self.tenants`; `Ok(false)` at end of input,
    /// an empty chunk after an interrupted read.
    fn step(&mut self, tagged: bool) -> Result<bool, SourceError> {
        let NdjsonRecordSource {
            reader,
            line,
            batch,
            tenants,
        } = self;
        batch.clear();
        tenants.clear();
        let mut tenants = tagged.then_some(tenants);
        // What has arrived: the complete lines of one `fill_buf`, up to the
        // first that is not a record. A read a signal interrupted is an idle
        // poll, so the drive loop sees its stop flag before reading again.
        let buffered = match reader.fill_buf() {
            Ok(buffered) => buffered,
            Err(error) if error.kind() == io::ErrorKind::Interrupted => return Ok(true),
            Err(error) => return Err(SourceError::Fatal(NetError::Io(error))),
        };
        let mut taken = 0;
        while batch.len() < DEFAULT_CHUNK_PACKETS {
            let (Some(end), non_ascii) = find(buffered, taken, [b'\n']) else {
                break;
            };
            let framed = &buffered[taken..end];
            if framed.len() > MAX_NDJSON_LINE_BYTES {
                break;
            }
            if !framed.iter().all(u8::is_ascii_whitespace) {
                // An ASCII line is UTF-8; only another one is validated.
                if non_ascii && std::str::from_utf8(framed).is_err() {
                    break;
                }
                match push_ndjson_line(framed, tenants.as_deref_mut(), batch) {
                    Ok(()) => {}
                    // In front of everything else it is this poll's error.
                    Err(reason) if batch.is_empty() => {
                        reader.consume(end + 1);
                        return Err(malformed_record(reason));
                    }
                    Err(_) => break,
                }
            }
            taken = end + 1;
        }
        reader.consume(taken);
        if !batch.is_empty() {
            return Ok(true);
        }
        // With no record in hand the next line is one the buffer does not
        // hold whole, over the cap or not UTF-8: it goes through the bounded
        // framing, alone.
        let Some(framed) = next_ndjson_line(reader, line)? else {
            return Ok(false);
        };
        push_ndjson_line(framed, tenants, batch).map_err(malformed_record)?;
        Ok(true)
    }
}

impl<R: io::BufRead> PacketSource for NdjsonRecordSource<R> {
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        Ok(self.step(false)?.then_some(&self.batch))
    }
}

fn malformed_record(reason: &'static str) -> SourceError {
    let field = "ndjson record";
    SourceError::Malformed(NetError::InvalidField { field, reason })
}

/// Frames the next non-blank line of `reader` into `line` (cleared first,
/// newline excluded); `Ok(None)` at end of input. At most
/// [`MAX_NDJSON_LINE_BYTES`] of a line are kept: the rest is consumed from
/// the reader's own buffer and dropped, and the line is reported malformed,
/// as is one that is not UTF-8 — either way the reader stands at the start
/// of the next line.
fn next_ndjson_line<'l>(
    reader: &mut impl io::BufRead,
    line: &'l mut Vec<u8>,
) -> Result<Option<&'l [u8]>, SourceError> {
    let fatal = |error| SourceError::Fatal(NetError::Io(error));
    loop {
        line.clear();
        // One byte past the limit tells an oversized line from a full one.
        let mut bounded = io::Read::take(&mut *reader, MAX_NDJSON_LINE_BYTES as u64 + 1);
        if io::BufRead::read_until(&mut bounded, b'\n', line).map_err(fatal)? == 0 {
            return Ok(None);
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > MAX_NDJSON_LINE_BYTES {
            reader.skip_until(b'\n').map_err(fatal)?;
            return Err(malformed_record("line longer than 64 KiB"));
        }
        if !line.iter().all(u8::is_ascii_whitespace) {
            break; // blank lines separate nothing
        }
    }
    if line.is_ascii() || std::str::from_utf8(line).is_ok() {
        Ok(Some(line))
    } else {
        Err(malformed_record("line is not valid UTF-8"))
    }
}

/// Eight copies of a byte's low bit, one per byte of a word.
const LOW_BITS: u64 = u64::from_ne_bytes([0x01; 8]);
/// Eight copies of a byte's high bit, one per byte of a word.
const HIGH_BITS: u64 = u64::from_ne_bytes([0x80; 8]);

/// The first byte of `bytes` at or behind `from` that is one of `stops`, and
/// whether a byte in front of it (in front of the end where there is none)
/// is not ASCII.
///
/// The search reads a word, eight bytes, at a time. `byte ^ stop` is zero
/// where a byte matches, and `(x − 0x01…) & !x & 0x80…` raises the high bit
/// of the zero bytes of `x`: exactly for the lowest, perhaps spuriously above
/// it (a borrow only starts at a zero byte), so the lowest bit raised for any
/// stop is the first match. Bytes past the last whole word go one at a time.
fn find<const N: usize>(bytes: &[u8], from: usize, stops: [u8; N]) -> (Option<usize>, bool) {
    let mut at = from;
    let mut high = 0;
    let mut words = bytes[from..].chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let hits = stops.iter().fold(0, |hits, stop| {
            let x = word ^ (LOW_BITS * u64::from(*stop));
            hits | (x.wrapping_sub(LOW_BITS) & !x & HIGH_BITS)
        });
        if hits != 0 {
            // The first hit's high bit is bit 8i + 7 of byte i.
            let first = hits.trailing_zeros() as usize / 8;
            let in_front = word & ((1 << (8 * first)) - 1);
            return (Some(at + first), (high | in_front) & HIGH_BITS != 0);
        }
        high |= word;
        at += 8;
    }
    let mut non_ascii = high & HIGH_BITS != 0;
    for byte in words.remainder() {
        if stops.contains(byte) {
            return (Some(at), non_ascii);
        }
        non_ascii |= !byte.is_ascii();
        at += 1;
    }
    (None, non_ascii)
}

/// The char of UTF-8 text `line` that starts at byte `at`, where the byte
/// there is not ASCII.
fn char_at(line: &[u8], at: usize) -> Option<char> {
    let width = line[at].leading_ones() as usize;
    let text = std::str::from_utf8(line.get(at..at + width)?).ok()?;
    text.chars().next()
}

/// The width of the whitespace char of UTF-8 text `line` that starts at
/// byte `at`, where the byte there is not ASCII; `None` for another char.
/// Kept out of [`skip_whitespace`]'s loop: with the decode written inline
/// there, the walk ran 5–12 % slower on a 2-CPU x86-64 box.
fn unicode_space(line: &[u8], at: usize) -> Option<usize> {
    char_at(line, at)
        .filter(|space| space.is_whitespace())
        .map(char::len_utf8)
}

/// `str::trim_start` as an offset: the first byte of UTF-8 text `line` at or
/// behind `at` that is not whitespace. A char is decoded only where a byte is
/// not ASCII.
fn skip_whitespace(line: &[u8], mut at: usize) -> usize {
    while let Some(byte) = line.get(at) {
        at += match byte {
            b' ' | b'\t'..=b'\r' => 1,
            0x80.. => match unicode_space(line, at) {
                Some(width) => width,
                None => break,
            },
            _ => break,
        };
    }
    at
}

/// `str::trim_end` over UTF-8 text. A char is decoded only where a byte is
/// not ASCII.
fn trim_end(mut text: &[u8]) -> &[u8] {
    loop {
        match text {
            [rest @ .., b' ' | b'\t'..=b'\r'] => text = rest,
            [.., last] if !last.is_ascii() => {
                // Back over the continuation bytes to the char's first byte.
                let lead = text.iter().rposition(|byte| !matches!(byte, 0x80..=0xbf));
                let lead = lead.unwrap_or(0);
                match char_at(text, lead) {
                    Some(space) if space.is_whitespace() => text = &text[..lead],
                    _ => return text,
                }
            }
            _ => return text,
        }
    }
}

/// The raw value text of the nine fields a record line is read for — `ts`,
/// `src`, `dst`, `sport`, `dport`, `len`, `proto`, `seq`, `tenant`, in that
/// order — from one walk over the line, which must be UTF-8.
///
/// The walk goes from one quoted token to the next. One of the nine keys is
/// read with its closing quote in place; every search (an opening quote,
/// another token's closing quote, the end of a string value, the `,` / `}` /
/// `"` that ends a bare value) reads the line a word at a time ([`find`]).
/// A token is a key where a `:` follows it; the first occurrence of a key
/// decides it, so one with no `:` behind it is absent however often it
/// recurs. A string value is taken to its closing quote and stepped over
/// whole, so key-like text inside one is never a key; a bare value runs to
/// the next `,` or `}`, trimmed of trailing whitespace, and the walk goes on
/// right behind its key. A string that never closes ends the walk.
/// Whitespace is Unicode's, as `str::trim` has it; a char is decoded only
/// where a byte is not ASCII.
fn json_raw_values(line: &[u8]) -> [Option<&[u8]>; 9] {
    let quote = |from: usize| find(line, from, [b'"']).0;
    let mut values = [None; 9];
    let mut decided = [false; 9];
    let mut at = 0;
    while let Some(open) = quote(at) {
        // One of the nine keys is read with its closing quote in place; the
        // closing quote of any other token is searched for.
        let (slot, close) = match &line[open + 1..] {
            [b't', b's', b'"', ..] => (Some(0), open + 3),
            [b's', b'r', b'c', b'"', ..] => (Some(1), open + 4),
            [b'd', b's', b't', b'"', ..] => (Some(2), open + 4),
            [b's', b'p', b'o', b'r', b't', b'"', ..] => (Some(3), open + 6),
            [b'd', b'p', b'o', b'r', b't', b'"', ..] => (Some(4), open + 6),
            [b'l', b'e', b'n', b'"', ..] => (Some(5), open + 4),
            [b'p', b'r', b'o', b't', b'o', b'"', ..] => (Some(6), open + 6),
            [b's', b'e', b'q', b'"', ..] => (Some(7), open + 4),
            [b't', b'e', b'n', b'a', b'n', b't', b'"', ..] => (Some(8), open + 7),
            _ => match quote(open + 1) {
                Some(close) => (None, close),
                None => break,
            },
        };
        at = close + 1;
        let undecided = slot.filter(|slot| !std::mem::replace(&mut decided[*slot], true));
        let colon = skip_whitespace(line, at);
        if line.get(colon) != Some(&b':') {
            continue;
        }
        let value = skip_whitespace(line, colon + 1);
        if line.get(value) == Some(&b'"') {
            let Some(end) = quote(value + 1) else {
                break;
            };
            if let Some(slot) = undecided {
                values[slot] = Some(&line[value + 1..end]);
            }
            at = end + 1;
        } else if let Some(slot) = undecided {
            // A quote inside the value opens the next token, so the walk
            // skips the value only when it holds none.
            let stop = match find(line, value, [b',', b'}', b'"']).0 {
                Some(inner) if line[inner] == b'"' => find(line, inner, [b',', b'}']).0,
                stop => stop.inspect(|stop| at = *stop),
            };
            values[slot] = Some(trim_end(&line[value..stop.unwrap_or(line.len())]));
        }
    }
    values
}

/// Parses one ndjson packet-record line (`{"ts":…,"src":…,"dst":…,"sport":…,
/// "dport":…,"len":…,"proto":"tcp"|"udp"[,"seq":…]}`) into a
/// [`PacketRecord`].
///
/// This is the exact parser [`NdjsonRecordSource`] runs on every line: one
/// walk over the line, a word at a time, for the raw text of every field,
/// then the typed conversions — the source is what listeners read through;
/// the function is exposed for harnesses that price or cross-check the
/// grammar on its own. Unknown fields are ignored and field order is free,
/// so a tagged record (an extra `"tenant"` field, read by
/// [`NdjsonRecordSource::next_tagged`]) parses identically to an untagged
/// one.
pub fn parse_ndjson_record(line: &str) -> Result<PacketRecord, &'static str> {
    ndjson_record(&json_raw_values(line.as_bytes()))
}

/// The typed conversions of [`parse_ndjson_record`] over the raw fields:
/// `ts` through `f64::from_str`, whose rounding [`Timestamp`] depends on, the
/// rest through the exact readers below.
fn ndjson_record(raw: &[Option<&[u8]>; 9]) -> Result<PacketRecord, &'static str> {
    let [ts, src, dst, sport, dport, len, proto, seq, _tenant] = *raw;
    // A value cut from UTF-8 at char boundaries is its own first UTF-8
    // chunk, which `utf8_chunks` finds cheaper than `from_utf8` proves it.
    let ts: f64 = ts
        .and_then(|v| {
            let text = v.utf8_chunks().next()?.valid();
            (text.len() == v.len()).then(|| text.parse().ok())?
        })
        .ok_or("missing or invalid \"ts\"")?;
    if !ts.is_finite() || ts < 0.0 {
        return Err("\"ts\" must be finite and non-negative");
    }
    let src = src
        .and_then(read_ipv4)
        .ok_or("missing or invalid \"src\"")?;
    let dst = dst
        .and_then(read_ipv4)
        .ok_or("missing or invalid \"dst\"")?;
    let sport = sport
        .and_then(read_u16)
        .ok_or("missing or invalid \"sport\"")?;
    let dport = dport
        .and_then(read_u16)
        .ok_or("missing or invalid \"dport\"")?;
    let len = len.and_then(read_u16).ok_or("missing or invalid \"len\"")?;
    let timestamp = Timestamp::from_secs_f64(ts);
    match proto {
        Some(b"tcp") => {
            let seq = match seq {
                Some(raw) => read_u32(raw).ok_or("invalid \"seq\"")?,
                None => 0,
            };
            Ok(PacketRecord::tcp(
                timestamp, src, sport, dst, dport, len, seq,
            ))
        }
        Some(b"udp") => Ok(PacketRecord::udp(timestamp, src, sport, dst, dport, len)),
        Some(_) => Err("\"proto\" must be \"tcp\" or \"udp\""),
        None => Err("missing \"proto\""),
    }
}

/// An unsigned decimal no larger than `max`, read as `str::parse` reads an
/// unsigned integer: one optional `+`, then one or more ASCII digits and
/// nothing else. Leading zeros are fine; a value past `max` is refused.
fn read_decimal(raw: &[u8], max: u32) -> Option<u32> {
    let digits = raw.strip_prefix(b"+").unwrap_or(raw);
    if digits.is_empty() {
        return None;
    }
    let mut value = 0u64;
    for byte in digits {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        value = value * 10 + u64::from(digit);
        if value > u64::from(max) {
            return None;
        }
    }
    Some(value as u32)
}

/// A `u16` field's value, read as `u16::from_str` reads it.
fn read_u16(raw: &[u8]) -> Option<u16> {
    read_decimal(raw, u16::MAX.into()).map(|value| value as u16)
}

/// A `u32` field's value, read as `u32::from_str` reads it.
fn read_u32(raw: &[u8]) -> Option<u32> {
    read_decimal(raw, u32::MAX)
}

/// An address field's value, read as `Ipv4Addr::from_str` reads it: four
/// octets joined by single dots and nothing else, each one to three ASCII
/// digits, at most 255, and without a leading zero unless it is `0`.
fn read_ipv4(raw: &[u8]) -> Option<std::net::Ipv4Addr> {
    let digit = |byte: u8| u32::from(byte - b'0');
    let mut address = 0;
    let mut rest = raw;
    for octet in 0..4 {
        if octet > 0 {
            rest = rest.strip_prefix(b".")?;
        }
        // A `0` is the whole octet: a digit behind it fails at the dot.
        let (value, width) = match *rest {
            [b'0', ..] => (0, 1),
            [a @ b'1'..=b'9', b @ b'0'..=b'9', c @ b'0'..=b'9', ..] => {
                (digit(a) * 100 + digit(b) * 10 + digit(c), 3)
            }
            [a @ b'1'..=b'9', b @ b'0'..=b'9', ..] => (digit(a) * 10 + digit(b), 2),
            [a @ b'1'..=b'9', ..] => (digit(a), 1),
            _ => return None,
        };
        if value > 255 {
            return None;
        }
        address = address << 8 | value;
        rest = &rest[width..];
    }
    rest.is_empty().then(|| std::net::Ipv4Addr::from(address))
}

/// Appends the record of one line to `batch` — and, on the tagged path, its
/// tenant tag (0 when the line carries none) to `tenants`; a tag that is not
/// a `u32` is refused before the record's fields are looked at. The line
/// must be UTF-8.
fn push_ndjson_line(
    line: &[u8],
    tenants: Option<&mut Vec<u32>>,
    batch: &mut PacketBatch,
) -> Result<(), &'static str> {
    let raw = json_raw_values(line);
    let tenant = match (raw[8], &tenants) {
        (Some(tag), Some(_)) => read_u32(tag).ok_or("invalid \"tenant\"")?,
        _ => 0,
    };
    batch.push_record(&ndjson_record(&raw)?);
    if let Some(tenants) = tenants {
        tenants.push(tenant);
    }
    Ok(())
}

/// Extracts the raw value text of `"key": <value>` from one JSON line: the
/// per-key search `json_raw_values` replaced, kept as the oracle of the
/// differential test.
#[cfg(test)]
fn json_raw_value<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let mut search = line;
    let mut base = 0usize;
    loop {
        let quote = search.find('"')? + 1;
        let end = quote + search[quote..].find('"')?;
        let matched = &search[quote..end] == key;
        let mut rest = search[end + 1..].trim_start();
        if matched {
            rest = rest.strip_prefix(':')?.trim_start();
            let stop = if let Some(stripped) = rest.strip_prefix('"') {
                // A string value: up to the closing quote.
                return stripped.find('"').map(|q| &stripped[..q]);
            } else {
                rest.find([',', '}']).unwrap_or(rest.len())
            };
            return Some(rest[..stop].trim_end());
        }
        // Skip this key *and its value* so string values containing braces
        // or key-like text cannot desynchronise the scan.
        base += end + 1;
        search = &line[base..];
        if let Some(colon) = search.trim_start().strip_prefix(':') {
            if let Some(stripped) = colon.trim_start().strip_prefix('"') {
                let value_end = stripped.find('"')?;
                let consumed = search.len() - stripped.len() + value_end + 1;
                base += consumed;
                search = &line[base..];
            }
        }
    }
}

/// Reads the optional `"tenant"` field of an ndjson record line: `Ok(None)`
/// when the line carries no tenant tag, `Err` when it carries one that is
/// not a `u32` — the oracle of the tagged path's tag.
#[cfg(test)]
fn ndjson_tenant(line: &str) -> Result<Option<u32>, &'static str> {
    match json_raw_value(line, "tenant") {
        None => Ok(None),
        Some(raw) => raw.parse().map(Some).map_err(|_| "invalid \"tenant\""),
    }
}

/// A non-blocking source fed by another thread through an
/// [`std::sync::mpsc`] channel — the adapter that turns any blocking feed
/// (stdin lines, an accepted socket) into a pollable live source.
///
/// The feeder thread sends `Ok(batch)` for data and `Err(source_error)` for
/// faults it wants the drive loop to arbitrate (a malformed line it
/// skipped past, a fatal read failure); they come out of the poll as sent.
/// The poll never blocks: an empty channel answers an idle poll, which the
/// drive loop waits out, and a disconnected channel (every sender dropped)
/// ends the stream.
#[derive(Debug)]
pub struct ChannelSource {
    receiver: std::sync::mpsc::Receiver<Result<PacketBatch, SourceError>>,
    batch: PacketBatch,
}

impl ChannelSource {
    /// Wraps a receiver of batches.
    pub fn new(receiver: std::sync::mpsc::Receiver<Result<PacketBatch, SourceError>>) -> Self {
        ChannelSource {
            receiver,
            batch: PacketBatch::new(),
        }
    }
}

impl PacketSource for ChannelSource {
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        use std::sync::mpsc::TryRecvError;
        loop {
            match self.receiver.try_recv() {
                Ok(Ok(batch)) if batch.is_empty() => continue,
                Ok(Ok(batch)) => self.batch = batch,
                Ok(Err(error)) => return Err(error),
                Err(TryRecvError::Empty) => self.batch.clear(),
                Err(TryRecvError::Disconnected) => return Ok(None),
            }
            return Ok(Some(&self.batch));
        }
    }
}

/// Turns any source into a stoppable one: when the shared flag is raised
/// (a SIGINT handler, a bin-count limiter, a supervisor) the stream reports
/// a clean end-of-stream on its next poll, so
/// [`Monitor::try_drive`](crate::Monitor::try_drive) flushes the final bin
/// and returns its [`DriveStats`](crate::DriveStats) — graceful shutdown
/// without a second code path.
#[derive(Debug)]
pub struct StopGate<S> {
    inner: S,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl<S> StopGate<S> {
    /// Gates `inner` behind `stop`.
    pub fn new(inner: S, stop: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        StopGate { inner, stop }
    }

    /// The wrapped source, until the stop flag is raised.
    fn open(&mut self) -> Option<&mut S> {
        let stopped = self.stop.load(std::sync::atomic::Ordering::Relaxed);
        (!stopped).then_some(&mut self.inner)
    }
}

/// A pure forwarder, like `&mut S`: an inner error or an inner idle poll
/// reaches the caller unchanged.
impl<S: PacketSource> PacketSource for StopGate<S> {
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        self.open().map_or(Ok(None), S::try_next_chunk)
    }
}

impl PacketSource for flowrank_trace::PacedReplay {
    /// Never sleeps: a not-yet-due window is an idle poll (a shared empty
    /// batch), and the drive loop paces the wait — so a drive over a paced
    /// replay still takes wall time proportional to trace time over speed.
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        static IDLE: PacketBatch = PacketBatch::new();
        Ok(match self.tick() {
            flowrank_trace::ReplayTick::Due => Some(self.take_window()),
            flowrank_trace::ReplayTick::NotYet(_) => Some(&IDLE),
            flowrank_trace::ReplayTick::Done => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receives each closed bin's report, by reference, in bin order.
///
/// The borrow is only valid inside [`ReportSink::accept`]; sinks that retain
/// report data beyond the call must copy what they need.
pub trait ReportSink {
    /// Accepts one closed bin.
    fn accept(&mut self, report: &BinReport);

    /// The fallible form of [`ReportSink::accept`], used by
    /// [`Monitor::try_drive`](crate::Monitor::try_drive), whose first
    /// failed `emit` aborts the drive with
    /// [`DriveError::Sink`](crate::DriveError::Sink).
    ///
    /// The default wraps `accept` and never errors, so every existing sink
    /// is a fallible sink for free. Writer sinks override it to return
    /// their I/O errors. Nothing retries a failed report: `write_all`
    /// already rides out `Interrupted`, and any other failure may come
    /// after part of the report was written. So every failure latches —
    /// both `emit` and `accept` stop writing.
    fn emit(&mut self, report: &BinReport) -> io::Result<()> {
        self.accept(report);
        Ok(())
    }
}

impl<K: ReportSink + ?Sized> ReportSink for &mut K {
    fn accept(&mut self, report: &BinReport) {
        (**self).accept(report)
    }

    fn emit(&mut self, report: &BinReport) -> io::Result<()> {
        (**self).emit(report)
    }
}

/// The sink the infallible entry points deliver through: its `emit` is the
/// wrapped sink's `accept`, so a writer sink behind
/// [`Monitor::drive`](crate::Monitor::drive) or
/// [`Monitor::push_batch_into`](crate::Monitor::push_batch_into) latches its
/// error for its `finish()` instead of failing the push.
pub(crate) struct Accepting<'a, K: ?Sized>(pub(crate) &'a mut K);

impl<K: ReportSink + ?Sized> ReportSink for Accepting<'_, K> {
    fn accept(&mut self, report: &BinReport) {
        self.0.accept(report)
    }
}

/// Clones every report into a vector. A batch pushed with
/// [`Monitor::push_batch_into`] and closed with [`Monitor::finish_into`]
/// into a `Collect` leaves all its reports there.
///
/// [`Monitor::push_batch_into`]: crate::Monitor::push_batch_into
/// [`Monitor::finish_into`]: crate::Monitor::finish_into
#[derive(Debug, Default, Clone)]
pub struct Collect {
    /// The collected reports, in bin order.
    pub reports: Vec<BinReport>,
}

impl Collect {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReportSink for Collect {
    fn accept(&mut self, report: &BinReport) {
        self.reports.push(report.clone());
    }
}

/// Duplicates every report to two sinks, first `0` then `1`. Nest `Tee`s to
/// fan a stream out to any number of sinks.
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: ReportSink, B: ReportSink> ReportSink for Tee<A, B> {
    fn accept(&mut self, report: &BinReport) {
        self.0.accept(report);
        self.1.accept(report);
    }

    /// Forwards to both sinks; the first error wins (the second sink is
    /// still offered the report when the first fails).
    fn emit(&mut self, report: &BinReport) -> io::Result<()> {
        let first = self.0.emit(report);
        let second = self.1.emit(report);
        first.and(second)
    }
}

/// One point of an accuracy-vs-sampling-rate curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RatePoint {
    /// The sampling rate (as the lanes reported it).
    pub rate: f64,
    /// Rate-grid index of the lanes folded into this point.
    pub rate_id: usize,
    /// Bins observed.
    pub bins: u64,
    /// Lane observations folded in (`bins × runs`).
    pub observations: u64,
    /// Mean ranking metric across all lane observations.
    pub ranking_mean: f64,
    /// Sample standard deviation of the ranking metric across observations.
    pub ranking_std: f64,
    /// Mean detection metric across all lane observations.
    pub detection_mean: f64,
    /// Sample standard deviation of the detection metric.
    pub detection_std: f64,
}

/// Accumulates the paper's mean-accuracy-per-rate curves online: one Welford
/// accumulator per rate, fed every lane of every bin as it closes. Nothing
/// per-bin is retained, so memory is O(rates) for any trace length.
///
/// The mean over all `bins × runs` lane observations equals the mean of
/// per-bin means (every bin carries the same lane count), so
/// [`RatePoint::ranking_mean`] is exactly the figure-level summary the batch
/// `flowrank_sim::ExperimentResult` pipeline reports as its overall mean;
/// the standard deviation here is the dispersion across *all* observations,
/// not the per-bin error bar.
#[derive(Debug, Default, Clone)]
pub struct RateCurve {
    /// Per rate: `(rate, rate_id, ranking stats, detection stats)`, in
    /// first-seen (grid) order.
    entries: Vec<(f64, usize, RunningStats, RunningStats)>,
    bins: u64,
}

impl RateCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        Self::default()
    }

    /// The curve accumulated so far, one point per rate in grid order.
    pub fn points(&self) -> Vec<RatePoint> {
        self.entries
            .iter()
            .map(|(rate, rate_id, ranking, detection)| RatePoint {
                rate: *rate,
                rate_id: *rate_id,
                bins: self.bins,
                observations: ranking.count(),
                ranking_mean: ranking.mean().unwrap_or(0.0),
                ranking_std: ranking.std_dev().unwrap_or(0.0),
                detection_mean: detection.mean().unwrap_or(0.0),
                detection_std: detection.std_dev().unwrap_or(0.0),
            })
            .collect()
    }
}

impl ReportSink for RateCurve {
    fn accept(&mut self, report: &BinReport) {
        self.bins += 1;
        for lane in &report.lanes {
            let entry = match self
                .entries
                .iter_mut()
                .find(|(_, id, _, _)| *id == lane.rate_id)
            {
                Some(entry) => entry,
                None => {
                    self.entries.push((
                        lane.rate,
                        lane.rate_id,
                        RunningStats::new(),
                        RunningStats::new(),
                    ));
                    self.entries.last_mut().expect("just pushed")
                }
            };
            entry.2.push(lane.ranking_metric());
            entry.3.push(lane.detection_metric());
        }
    }
}

/// The writer sinks' one error policy, behind both [`ReportSink`] methods: a
/// fresh failure of `render` latches, so the sink's `finish()` reports it
/// too, and a latched error refuses every later report.
fn emit_latching(
    latched: &mut Option<io::Error>,
    render: impl FnOnce() -> io::Result<()>,
) -> io::Result<()> {
    if let Some(error) = latched {
        return Err(replicate_io_error(error));
    }
    render().inspect_err(|error| *latched = Some(replicate_io_error(error)))
}

/// Streams every report as one JSON object per line (ndjson) to a writer.
///
/// Rendering writes straight into the writer — no intermediate strings. I/O
/// errors latch: the first one stops all further output and is returned by
/// [`NdjsonSink::finish`].
#[derive(Debug)]
pub struct NdjsonSink<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> NdjsonSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        NdjsonSink { out, error: None }
    }

    /// Flushes and returns the writer, or the first I/O error hit.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(error) = self.error {
            return Err(error);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn render(out: &mut W, report: &BinReport) -> io::Result<()> {
        write!(
            out,
            "{{\"bin\":{},\"bin_start_s\":{},\"packets\":{},\"flows\":{},",
            report.bin_index,
            report.bin_start.as_secs_f64(),
            report.packets,
            report.flows
        )?;
        // Emitted only when a memory budget actually evicted, so
        // pre-budget consumers see byte-identical lines.
        if report.evictions != 0 {
            write!(out, "\"evictions\":{},", report.evictions)?;
        }
        out.write_all(b"\"lanes\":[")?;
        for (i, lane) in report.lanes.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "{{\"rate\":{},\"rate_id\":{},\"run\":{},\"sampler\":\"{}\",\
                 \"sampled_flows\":{},\"sampled_packets\":{},\
                 \"ranking_swaps\":{},\"detection_swaps\":{},\"controlled\":{}}}",
                lane.rate,
                lane.rate_id,
                lane.run,
                lane.sampler,
                lane.sampled_flows,
                lane.sampled_packets,
                lane.outcome.ranking_swaps,
                lane.outcome.detection_swaps,
                lane.controlled
            )?;
        }
        out.write_all(b"]")?;
        if let Some(trail) = &report.controller {
            write!(
                out,
                ",\"controller\":{{\"name\":\"{}\",\"lane\":{},\
                 \"applied_rate\":{},\"decided_rate\":{},\
                 \"swapped_fraction\":{},\"top_churn\":{}}}",
                trail.controller,
                trail.lane,
                trail.applied_rate,
                trail.decided_rate,
                trail.swapped_fraction,
                trail.top_churn
            )?;
        }
        out.write_all(b"}\n")
    }
}

impl<W: Write> ReportSink for NdjsonSink<W> {
    /// [`NdjsonSink::emit`] with nobody to return the error to: it stays
    /// latched for [`NdjsonSink::finish`].
    fn accept(&mut self, report: &BinReport) {
        let _ = self.emit(report);
    }

    /// Renders the report; an I/O error is returned and latches for
    /// [`NdjsonSink::finish`].
    fn emit(&mut self, report: &BinReport) -> io::Result<()> {
        emit_latching(&mut self.error, || Self::render(&mut self.out, report))
    }
}

/// Streams every report as flat per-lane CSV rows
/// (`bin,bin_start_s,packets,flows,rate,run,sampler,sampled_flows,sampled_packets,ranking_swaps,detection_swaps,controlled`),
/// with a header row before the first report. Same latching error handling
/// as [`NdjsonSink`].
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    out: W,
    wrote_header: bool,
    error: Option<io::Error>,
}

impl<W: Write> CsvSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        CsvSink {
            out,
            wrote_header: false,
            error: None,
        }
    }

    /// Flushes and returns the writer, or the first I/O error hit.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(error) = self.error {
            return Err(error);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn render(out: &mut W, wrote_header: &mut bool, report: &BinReport) -> io::Result<()> {
        if !*wrote_header {
            writeln!(
                out,
                "bin,bin_start_s,packets,flows,rate,run,sampler,\
                 sampled_flows,sampled_packets,ranking_swaps,detection_swaps,\
                 controlled"
            )?;
            *wrote_header = true;
        }
        for lane in &report.lanes {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{}",
                report.bin_index,
                report.bin_start.as_secs_f64(),
                report.packets,
                report.flows,
                lane.rate,
                lane.run,
                lane.sampler,
                lane.sampled_flows,
                lane.sampled_packets,
                lane.outcome.ranking_swaps,
                lane.outcome.detection_swaps,
                lane.controlled
            )?;
        }
        Ok(())
    }
}

impl<W: Write> ReportSink for CsvSink<W> {
    /// Same as [`NdjsonSink::accept`]: `emit`, with every failure latched.
    fn accept(&mut self, report: &BinReport) {
        let _ = self.emit(report);
    }

    /// Same latching contract as [`NdjsonSink::emit`].
    fn emit(&mut self, report: &BinReport) -> io::Result<()> {
        emit_latching(&mut self.error, || {
            Self::render(&mut self.out, &mut self.wrote_header, report)
        })
    }
}

/// Folds every report into a stable 64-bit FNV-1a digest as it arrives — the
/// streaming form of the conformance harness's report digest, with no report
/// buffering.
///
/// Every observable field is folded in — bin index and start, packet and
/// flow counts, and per lane the rate (as IEEE bits), run index, sampler
/// name, sampled sizes, the full
/// [`ComparisonOutcome`](flowrank_core::metrics::ComparisonOutcome) and,
/// when present, the top-k backend name, memory occupancy and entry list
/// (packed keys and estimates). Only integer arithmetic and explicit
/// `f64::to_bits` are used, so the digest is stable across platforms,
/// optimisation levels and thread counts. Feeding the same report stream in
/// the same order always produces the same digest, and the digest of a
/// stream equals `digest_reports` of the collected stream.
#[derive(Debug, Clone)]
pub struct DigestSink {
    hash: u64,
    reports: u64,
}

impl Default for DigestSink {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestSink {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Creates an empty digest.
    pub fn new() -> Self {
        DigestSink {
            hash: Self::OFFSET,
            reports: 0,
        }
    }

    /// The offline, length-prefixed digest of a collected report stream —
    /// the value the `flowrank_sim` conformance goldens pin.
    /// It folds the same per-report bytes as the streaming sink but prefixes
    /// the stream length (which a streaming sink cannot know), so its values
    /// differ from [`DigestSink::digest`] while pinning exactly as much.
    pub fn digest_reports(reports: &[BinReport]) -> u64 {
        let mut sink = DigestSink::new();
        sink.u64(reports.len() as u64);
        for report in reports {
            sink.fold_report(report);
        }
        sink.hash
    }

    /// The digest of the stream seen so far: the FNV-1a fold of every
    /// accepted report, finalised with the report count.
    ///
    /// A streaming sink cannot know the final stream length up front, so the
    /// count is folded at read time rather than as a prefix the way the
    /// offline [`DigestSink::digest_reports`] does. The two digests
    /// therefore produce *different values* for the same stream but have the
    /// same discriminating power: two streams digest equal under either iff
    /// they have the same length and equal reports (up to 64-bit collision).
    pub fn digest(&self) -> u64 {
        let mut finished = self.clone();
        finished.u64(self.reports);
        finished.hash
    }

    fn byte(&mut self, b: u8) {
        self.hash = (self.hash ^ b as u64).wrapping_mul(Self::PRIME);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }

    fn fold_report(&mut self, report: &BinReport) {
        self.u64(report.bin_index);
        self.u64(report.bin_start.as_micros());
        self.u64(report.packets);
        self.u64(report.flows as u64);
        // Budget evictions fold in only when they happened: unbudgeted
        // streams (and budgeted ones whose budget never bound) digest
        // exactly as they always did, so the pre-budget golden corpus stays
        // valid while eviction schedules are still pinnable.
        if report.evictions != 0 {
            self.u64(report.evictions);
        }
        self.u64(report.lanes.len() as u64);
        for lane in &report.lanes {
            self.u64(lane.rate.to_bits());
            self.u64(lane.run as u64);
            self.str(lane.sampler);
            self.u64(lane.sampled_flows as u64);
            self.u64(lane.sampled_packets);
            self.u64(lane.outcome.ranking_swaps);
            self.u64(lane.outcome.detection_swaps);
            self.u64(lane.outcome.missed_top_flows);
            self.u64(lane.outcome.ranking_pairs);
            self.u64(lane.outcome.detection_pairs);
            match &lane.topk {
                None => self.byte(0),
                Some(topk) => {
                    self.byte(1);
                    self.str(topk.backend);
                    self.u64(topk.memory_entries as u64);
                    self.u64(topk.entries.len() as u64);
                    for entry in &topk.entries {
                        self.u128(entry.key.pack());
                        self.u64(entry.estimate);
                    }
                }
            }
        }
    }
}

impl ReportSink for DigestSink {
    fn accept(&mut self, report: &BinReport) {
        self.reports += 1;
        self.fold_report(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Monitor;
    use crate::spec::SamplerSpec;
    use flowrank_net::pcap::records_to_pcap_bytes;
    use flowrank_net::Timestamp;
    use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};
    use flowrank_trace::{PacedReplay, SprintModel, SynthesisConfig, Workload};
    use std::net::Ipv4Addr;

    fn trace() -> Vec<PacketRecord> {
        let flows = SprintModel::small(130.0, 12.0).generate_flows(3);
        flowrank_trace::synthesize_packets(&flows, &SynthesisConfig::default(), 3)
    }

    /// Flow `i` of `flows` sends `10 * (flows − i)` packets inside the bin
    /// starting at `offset_secs`.
    fn synth_packets(flows: u8, offset_secs: f64) -> Vec<PacketRecord> {
        let mut packets = Vec::new();
        for i in 0..flows {
            for j in 0..(10 * (flows - i) as usize) {
                packets.push(PacketRecord::udp(
                    Timestamp::from_secs_f64(offset_secs + j as f64 * 0.01),
                    Ipv4Addr::new(10, 0, 0, i),
                    1000 + i as u16,
                    Ipv4Addr::new(100, 64, i, 1),
                    80,
                    500,
                ));
            }
        }
        packets.sort_by_key(|p| p.timestamp);
        packets
    }

    /// What `monitor()` reports for an in-memory trace, as one batch.
    fn run_records(packets: &[PacketRecord]) -> Vec<BinReport> {
        let mut sink = Collect::new();
        let mut m = monitor();
        m.push_batch_into(&PacketBatch::from_records(packets), &mut sink);
        m.finish_into(&mut sink);
        sink.reports
    }

    fn monitor() -> Monitor {
        Monitor::builder()
            .sampler(SamplerSpec::Stratified { rate: 0.25 })
            .rates(&[0.05, 0.25])
            .runs(2)
            .bin_length(Timestamp::from_secs_f64(60.0))
            .seed(11)
            .build()
    }

    #[test]
    fn drive_matches_run_trace_for_every_source_shape() {
        let packets = trace();
        let baseline = run_records(&packets);
        assert!(baseline.len() >= 2);

        let batch = PacketBatch::from_records(&packets);
        let mut from_batch = Collect::new();
        let summary = monitor().drive(&mut BatchSource::new(&batch), &mut from_batch);
        assert_eq!(from_batch.reports, baseline);
        assert_eq!(summary.packets, packets.len() as u64);
        assert_eq!(summary.reports, baseline.len() as u64);
        assert_eq!(summary.chunks, 1);

        for chunk in [1usize, 13, 4096] {
            let mut sink = Collect::new();
            let mut source = Chunked::new(BatchSource::new(&batch), chunk);
            monitor().drive(&mut source, &mut sink);
            assert_eq!(sink.reports, baseline, "re-chunk {chunk}");
        }
    }

    #[test]
    fn pcap_sources_drive_identically_to_the_record_path() {
        let packets = trace();
        // Pcap stores microsecond timestamps; compare against the decoded
        // records so both paths see the identical stream.
        let bytes = records_to_pcap_bytes(&packets).unwrap();
        let decoded = flowrank_net::pcap::pcap_bytes_to_records(&bytes).unwrap();
        let baseline = run_records(&decoded);

        let mut sink = Collect::new();
        let mut source = PcapBytesSource::new(&bytes)
            .unwrap()
            .with_chunk_packets(257);
        monitor().drive(&mut source, &mut sink);
        assert!(source.error().is_none());
        assert_eq!(sink.reports, baseline);
    }

    #[test]
    fn pcap_sources_agree_on_truncated_captures() {
        // The source must surface the error AND deliver the packets decoded
        // before the malformed record, so a truncated capture produces the
        // reports of the records in front of the cut.
        let bytes = records_to_pcap_bytes(&trace()).unwrap();
        let cut = &bytes[..bytes.len() - 100];

        let mut bytes_source = PcapBytesSource::new(cut).unwrap().with_chunk_packets(64);
        let mut from_bytes = Collect::new();
        let bytes_summary = monitor().drive(&mut bytes_source, &mut from_bytes);
        assert!(
            bytes_source.error().is_some(),
            "truncated capture must report"
        );
        assert!(
            bytes_summary.packets > 0,
            "packets before the truncation still flow"
        );

        let decoded = flowrank_net::pcap::pcap_bytes_to_records(&bytes).unwrap();
        let intact = &decoded[..bytes_summary.packets as usize];
        assert!(intact.len() < decoded.len());
        assert_eq!(from_bytes.reports, run_records(intact));
    }

    #[test]
    fn workload_stream_is_a_packet_source() {
        let workload = Workload::flash_crowd();
        let baseline = run_records(&workload.synthesize(7));
        let mut sink = Collect::new();
        let summary = monitor().drive(&mut workload.stream(7), &mut sink);
        assert_eq!(sink.reports, baseline);
        assert!(summary.chunks >= 2, "the stream yields multiple windows");
    }

    #[test]
    fn rate_curve_aggregates_online() {
        let packets = trace();
        let baseline = run_records(&packets);
        let mut curve = RateCurve::new();
        let batch = PacketBatch::from_records(&packets);
        let mut source = Chunked::new(BatchSource::new(&batch), DEFAULT_CHUNK_PACKETS);
        monitor().drive(&mut source, &mut curve);
        assert_eq!(curve.bins, baseline.len() as u64);
        let points = curve.points();
        assert_eq!(points.len(), 2, "one point per grid rate");
        for (rate_id, point) in points.iter().enumerate() {
            assert_eq!(point.rate_id, rate_id);
            assert_eq!(point.bins, baseline.len() as u64);
            assert_eq!(point.observations, 2 * baseline.len() as u64);
            // Cross-check the online mean against the collected reports.
            let mut expected = RunningStats::new();
            for report in &baseline {
                for lane in report.lanes.iter().filter(|l| l.rate_id == rate_id) {
                    expected.push(lane.ranking_metric());
                }
            }
            assert_eq!(point.ranking_mean, expected.mean().unwrap());
            assert_eq!(point.ranking_std, expected.std_dev().unwrap());
        }
        // Higher sampling rate, lower error.
        assert!(points[1].ranking_mean <= points[0].ranking_mean);
    }

    #[test]
    fn digest_sink_matches_streamed_and_collected_paths() {
        let packets = trace();
        let baseline = run_records(&packets);
        let mut offline = DigestSink::new();
        for report in &baseline {
            offline.accept(report);
        }

        let mut streamed = DigestSink::new();
        let batch = PacketBatch::from_records(&packets);
        let mut source = Chunked::new(BatchSource::new(&batch), 97);
        monitor().drive(&mut source, &mut streamed);
        assert_eq!(streamed.reports, baseline.len() as u64);
        assert_eq!(streamed.digest(), offline.digest());

        // Sensitive to truncation and to content.
        let mut shorter = DigestSink::new();
        for report in &baseline[..baseline.len() - 1] {
            shorter.accept(report);
        }
        assert_ne!(shorter.digest(), offline.digest());
        let mut tweaked = DigestSink::new();
        let mut first = baseline[0].clone();
        first.packets += 1;
        tweaked.accept(&first);
        for report in &baseline[1..] {
            tweaked.accept(report);
        }
        assert_ne!(tweaked.digest(), offline.digest());
    }

    #[test]
    fn tee_duplicates_and_writer_sinks_render() {
        let packets = trace();
        let mut tee = Tee(
            Tee(Collect::new(), NdjsonSink::new(Vec::new())),
            CsvSink::new(Vec::new()),
        );
        let batch = PacketBatch::from_records(&packets);
        let mut source = Chunked::new(BatchSource::new(&batch), DEFAULT_CHUNK_PACKETS);
        monitor().drive(&mut source, &mut tee);
        let Tee(Tee(collected, ndjson), csv) = tee;
        let baseline = run_records(&packets);
        assert_eq!(collected.reports, baseline);

        let ndjson = String::from_utf8(ndjson.finish().unwrap()).unwrap();
        assert_eq!(ndjson.lines().count(), baseline.len());
        for (line, report) in ndjson.lines().zip(&baseline) {
            assert!(line.starts_with(&format!("{{\"bin\":{}", report.bin_index)));
            assert!(line.ends_with("]}"));
            assert!(line.contains("\"sampler\":\"stratified\""));
        }

        let csv = String::from_utf8(csv.finish().unwrap()).unwrap();
        let lanes: usize = baseline.iter().map(|r| r.lanes.len()).sum();
        assert_eq!(csv.lines().count(), 1 + lanes, "header + one row per lane");
        assert!(csv.starts_with("bin,bin_start_s,packets,flows,rate,run,sampler"));
    }

    #[test]
    fn empty_sources_drive_to_nothing() {
        let empty = PacketBatch::new();
        let mut sink = Collect::new();
        let summary = monitor().drive(&mut BatchSource::new(&empty), &mut sink);
        assert_eq!(summary, crate::DriveStats::default());
        assert!(sink.reports.is_empty());

        let mut sink = Collect::new();
        monitor().drive(&mut Chunked::new(BatchSource::new(&empty), 97), &mut sink);
        assert!(sink.reports.is_empty());
    }

    #[test]
    fn drive_can_resume_a_partially_pushed_monitor() {
        let packets = trace();
        let baseline = run_records(&packets);
        let mut m = monitor();
        let mut sink = Collect::new();
        for p in &packets[..50] {
            let one = PacketBatch::from_records(std::slice::from_ref(p));
            m.push_batch_into(&one, &mut sink);
        }
        let rest = PacketBatch::from_records(&packets[50..]);
        m.drive(&mut BatchSource::new(&rest), &mut sink);
        assert_eq!(sink.reports, baseline);
    }

    /// One packet through a rate-1 monitor into `sink`: one bin, one lane.
    fn drive_one_packet(sink: &mut impl ReportSink) {
        let mut m = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 1.0 })
            .build();
        m.push_batch_into(
            &PacketBatch::from_records(&synth_packets(1, 1.0)[..1]),
            sink,
        );
        m.finish_into(sink);
    }

    #[test]
    fn csv_sink_rows_are_parseable() {
        let mut csv = CsvSink::new(Vec::new());
        drive_one_packet(&mut csv);
        let text = String::from_utf8(csv.finish().unwrap()).unwrap();
        let row = text.lines().nth(1).unwrap();
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields.len(), 12);
        assert_eq!(fields[0], "0");
        assert_eq!(fields[2], "1", "one packet");
        assert_eq!(fields[3], "1", "one flow");
        assert_eq!(fields[6], "random");
        assert_eq!(fields[11], "false", "static lane is not controlled");
    }

    #[test]
    fn try_next_chunk_defaults_to_the_infallible_path() {
        let packets = trace();
        let batch = PacketBatch::from_records(&packets);
        let mut source = BatchSource::new(&batch);
        let first = source.try_next_chunk().expect("no failure mode");
        assert_eq!(first.map(|b| b.len()), Some(packets.len()));
        assert!(source.try_next_chunk().unwrap().is_none(), "end of stream");
    }

    #[test]
    fn provided_next_chunk_reads_past_malformed_records_and_ends_at_a_fatal_one() {
        fn count(mut source: impl PacketSource) -> usize {
            let mut packets = 0;
            while let Some(chunk) = source.next_chunk() {
                packets += chunk.len();
            }
            packets
        }
        let record =
            r#"{"ts":1,"src":"1.1.1.1","dst":"2.2.2.2","sport":1,"dport":2,"len":9,"proto":"udp"}"#;
        let feed = format!("{record}\nnot a record\n{record}\n");
        assert_eq!(count(NdjsonRecordSource::new(feed.as_bytes())), 2);
        let packets = synth_packets(3, 0.0);
        let capture = records_to_pcap_bytes(&packets).unwrap();
        let cut = &capture[..capture.len() - 7]; // truncated mid-record
        assert_eq!(count(PcapBytesSource::new(cut).unwrap()), packets.len() - 1);
    }

    /// Loops `try_next_chunk` to the end of the stream, or to the first idle
    /// poll of a `live` source. Returns the timestamps, the malformed count,
    /// and whether a fatal error ended it.
    fn pull(source: &mut dyn PacketSource, live: bool) -> (Vec<u64>, u32, bool) {
        let (mut seen, mut malformed) = (Vec::new(), 0);
        loop {
            match source.try_next_chunk() {
                Ok(Some(chunk)) if chunk.is_empty() => {
                    if live {
                        return (seen, malformed, false);
                    }
                }
                Ok(Some(chunk)) => seen.extend_from_slice(chunk.ts_nanos()),
                Ok(None) => return (seen, malformed, false),
                Err(error) if error.is_recoverable() => malformed += 1,
                Err(_) => {
                    let latched = source.try_next_chunk().is_err();
                    assert!(latched, "a fatal error stays latched");
                    return (seen, malformed, true);
                }
            }
        }
    }

    /// Keeps the timestamps of every chunk its source delivers.
    struct Seen<S> {
        inner: S,
        ts: Vec<u64>,
    }

    impl<S: PacketSource> PacketSource for Seen<S> {
        fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
            let polled = self.inner.try_next_chunk();
            if let Ok(Some(chunk)) = &polled {
                self.ts.extend_from_slice(chunk.ts_nanos());
            }
            polled
        }
    }

    /// The poll and `Monitor::drive` take the same packets, whose timestamps
    /// are returned. `faults` is what `try_next_chunk` surfaces on the way:
    /// malformed records, and whether a fatal error ends the stream — after
    /// the packets before it; `drive` skips the one and ends at the other.
    fn agree<S: PacketSource>(
        name: &str,
        make: impl Fn() -> S,
        live: bool,
        faults: (u32, bool),
    ) -> Vec<u64> {
        let polled = pull(&mut make(), live);
        assert!(!polled.0.is_empty(), "{name}: packets flow");
        assert_eq!((polled.1, polled.2), faults, "{name}: try_next_chunk");
        // Where the poll idles `drive` waits for more, so it cannot drive a
        // live source to its end.
        if !live {
            let mut seen = Seen {
                inner: make(),
                ts: Vec::new(),
            };
            let summary = monitor().drive(&mut seen, &mut Collect::new());
            assert_eq!(seen.ts, polled.0, "{name}: Monitor::drive");
            assert_eq!(summary.packets, polled.0.len() as u64, "{name}");
        }
        polled.0
    }

    #[test]
    fn pcap_try_sources_surface_fatal_errors_after_partial_delivery() {
        const RECORD: &str =
            r#"{"ts":1,"src":"1.1.1.1","dst":"2.2.2.2","sport":1,"dport":2,"len":9,"proto":"udp"}"#;
        fn ndjson(feed: &[u8]) -> NdjsonRecordSource<&[u8]> {
            NdjsonRecordSource::new(feed)
        }
        fn gate<S>(inner: S) -> StopGate<S> {
            StopGate::new(inner, Default::default())
        }
        let records = synth_packets(3, 0.0);
        let clean = records_to_pcap_bytes(&records).unwrap();
        let cut = &clean[..clean.len() - 7]; // truncated mid-record
        let mut oversized = clean.clone(); // one more record, claiming 100 MiB
        oversized.extend_from_slice(&[0; 8]);
        oversized.extend_from_slice(&(100u32 << 20).to_le_bytes());
        oversized.extend_from_slice(&(100u32 << 20).to_le_bytes());
        let file = format!("flowrank-two-methods-{}.pcap", std::process::id());
        let file = std::env::temp_dir().join(file);
        let tail = |follow| {
            let tail = PcapTailSource::open(&file).unwrap();
            tail.with_chunk_packets(16).follow(follow)
        };
        // Truncated at the tail of a followed file reads as not yet written;
        // any other bad record is fatal there too.
        for (capture, fatal, fatal_followed) in [
            (&clean[..], false, false),
            (cut, true, false),
            (&oversized[..], true, true),
        ] {
            std::fs::write(&file, capture).unwrap();
            let bytes = || PcapBytesSource::new(capture).unwrap();
            // Every pcap source delivers the packets the bytes source does:
            // all those decoded in front of the bad record.
            let delivered = agree("bytes", bytes, false, (0, fatal));
            for (name, seen) in [
                ("gate", agree("gate", || gate(bytes()), false, (0, fatal))),
                ("tail", agree("tail", || tail(false), false, (0, fatal))),
                (
                    "tail -f",
                    agree("tail -f", || tail(true), true, (0, fatal_followed)),
                ),
                (
                    "gate -f",
                    agree("gate -f", || gate(tail(true)), true, (0, fatal_followed)),
                ),
            ] {
                assert_eq!(seen, delivered, "{name}: the bytes source's packets");
            }
        }
        std::fs::remove_file(file).unwrap();
        // A line that is not UTF-8 is one malformed record like any other.
        for (bad, malformed) in [(&b""[..], 0), (b"not json\n", 1), (b"\xff\xfe\n", 1)] {
            let feed = [RECORD.as_bytes(), b"\n", bad, RECORD.as_bytes(), b"\n"].concat();
            agree("ndjson", || ndjson(&feed), false, (malformed, false));
            agree("gate", || gate(ndjson(&feed)), false, (malformed, false));
        }
        // Two chunks around one malformed record. A live feed keeps its
        // sender, so the source idles where a finished one ends.
        let senders = std::cell::RefCell::new(Vec::new());
        let channel = |live: bool| {
            let (sender, receiver) = std::sync::mpsc::sync_channel(3);
            let source = ChannelSource::new(receiver);
            let bad = NetError::MalformedPacket { reason: "injected" };
            let chunk = |range| Ok(PacketBatch::from_records(&records[range]));
            sender.send(chunk(0..20)).unwrap();
            sender.send(Err(SourceError::Malformed(bad))).unwrap();
            sender.send(chunk(20..60)).unwrap();
            senders.borrow_mut().extend(live.then_some(sender));
            source
        };
        agree("channel", || channel(false), false, (1, false));
        agree("channel, live", || channel(true), true, (1, false));
        // A replay's `try_next_chunk` idles until a window is due, which
        // `drive` waits out.
        let replay = || PacedReplay::new(Workload::flash_crowd().stream(7), 1e6);
        agree("replay", replay, false, (0, false));
    }

    #[test]
    fn ndjson_line_buffer_is_bounded_whatever_the_line_length() {
        const RECORD: &[u8] =
            br#"{"ts":1,"src":"1.1.1.1","dst":"2.2.2.2","sport":1,"dport":2,"len":9,"proto":"udp"}"#;
        // 10 MiB without a newline, then a record: one malformed line, and
        // the reader is back in step for the record behind it.
        let mut feed = vec![b'x'; 10 << 20];
        feed.push(b'\n');
        feed.extend_from_slice(RECORD);
        let reader = io::BufReader::new(&feed[..]);
        let buffered = reader.capacity();
        let mut source = NdjsonRecordSource::new(reader);
        let error = source.try_next_chunk().expect_err("an oversized line");
        assert!(error.is_recoverable(), "{error:?}");
        let record = source.try_next_chunk().expect("the record behind it");
        assert_eq!(record.map(PacketBatch::len), Some(1));
        assert!(source.try_next_chunk().expect("clean end").is_none());
        assert!(source.line.capacity() <= MAX_NDJSON_LINE_BYTES + buffered);
    }

    #[test]
    fn ndjson_next_tagged_reads_the_tenant_of_each_line() {
        let line = |tenant: &str| {
            format!(
                r#"{{"ts":1,"src":"1.1.1.1","dst":"2.2.2.2","sport":1,"dport":2,"len":9,"proto":"udp"{tenant}}}"#
            ) + "\n"
        };
        let feed = [r#","tenant":7"#, "", r#","tenant":"x""#, r#","tenant":2"#].map(line);
        let feed = feed.concat();
        let mut source = NdjsonRecordSource::new(feed.as_bytes());
        let mut tag = || {
            source
                .next_tagged()
                .map(|r| r.map(|(tenants, batch)| (tenants.to_vec(), batch.len())))
        };
        assert_eq!(
            tag().unwrap(),
            Some((vec![7, 0], 2)),
            "untagged is tenant 0"
        );
        assert!(tag().expect_err("a tag that is no u32").is_recoverable());
        assert_eq!(tag().unwrap(), Some((vec![2], 1)));
        assert_eq!(tag().unwrap(), None);
        // The untagged polls never look at the tag.
        let mut source = NdjsonRecordSource::new(feed.as_bytes());
        let packets = std::iter::from_fn(|| source.try_next_chunk().unwrap().map(PacketBatch::len));
        assert_eq!(packets.sum::<usize>(), 4);
    }

    /// The per-key parse, verbatim from when `parse_ndjson_record` searched
    /// the line once per field: the oracle the reader is held to.
    fn oracle_record(line: &str) -> Result<PacketRecord, &'static str> {
        let ts: f64 = json_raw_value(line, "ts")
            .and_then(|v| v.parse().ok())
            .ok_or("missing or invalid \"ts\"")?;
        if !ts.is_finite() || ts < 0.0 {
            return Err("\"ts\" must be finite and non-negative");
        }
        let src: Ipv4Addr = json_raw_value(line, "src")
            .and_then(|v| v.parse().ok())
            .ok_or("missing or invalid \"src\"")?;
        let dst: Ipv4Addr = json_raw_value(line, "dst")
            .and_then(|v| v.parse().ok())
            .ok_or("missing or invalid \"dst\"")?;
        let sport: u16 = json_raw_value(line, "sport")
            .and_then(|v| v.parse().ok())
            .ok_or("missing or invalid \"sport\"")?;
        let dport: u16 = json_raw_value(line, "dport")
            .and_then(|v| v.parse().ok())
            .ok_or("missing or invalid \"dport\"")?;
        let len: u16 = json_raw_value(line, "len")
            .and_then(|v| v.parse().ok())
            .ok_or("missing or invalid \"len\"")?;
        let timestamp = Timestamp::from_secs_f64(ts);
        match json_raw_value(line, "proto") {
            Some("tcp") => {
                let seq: u32 = match json_raw_value(line, "seq") {
                    Some(raw) => raw.parse().map_err(|_| "invalid \"seq\"")?,
                    None => 0,
                };
                Ok(PacketRecord::tcp(
                    timestamp, src, sport, dst, dport, len, seq,
                ))
            }
            Some("udp") => Ok(PacketRecord::udp(timestamp, src, sport, dst, dport, len)),
            Some(_) => Err("\"proto\" must be \"tcp\" or \"udp\""),
            None => Err("missing \"proto\""),
        }
    }

    /// The oracle for one line of a feed: on the tagged path the tenant tag is
    /// read, and checked, before the record's fields.
    fn oracle_line(line: &str, tagged: bool) -> Line {
        let tenant = match ndjson_tenant(line) {
            Ok(tenant) if tagged => tenant.unwrap_or(0),
            Err(reason) if tagged => return Line::Bad(reason),
            _ => 0,
        };
        match oracle_record(line) {
            // Through the columns and back, like a row read from a chunk.
            Ok(record) => Line::Row(tenant, PacketBatch::from_records(&[record]).record(0)),
            Err(reason) => Line::Bad(reason),
        }
    }

    /// What the tagged path makes of a feed, whatever its chunks: one entry
    /// per record and per recoverable error, in stream order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Line {
        Row(u32, PacketRecord),
        Bad(&'static str),
    }

    /// One poll of the tagged path appended to `seen` — the one place these
    /// tests know the shape `next_tagged` returns. `false` at end of input.
    fn tagged_poll<R: io::BufRead>(
        source: &mut NdjsonRecordSource<R>,
        seen: &mut Vec<Line>,
    ) -> bool {
        match source.next_tagged() {
            Ok(Some((tenants, chunk))) => {
                assert!(!chunk.is_empty(), "a chunk holds at least one record");
                assert_eq!(tenants.len(), chunk.len(), "a tag a row");
                let rows = tenants.iter().zip(chunk.iter_records());
                seen.extend(rows.map(|(tenant, record)| Line::Row(*tenant, record)));
            }
            Ok(None) => return false,
            Err(SourceError::Malformed(NetError::InvalidField { reason, .. })) => {
                seen.push(Line::Bad(reason));
            }
            Err(error) => panic!("an in-memory feed cannot fail: {error:?}"),
        }
        true
    }

    /// The line-at-a-time reader as a model: split at newlines, skip blank
    /// lines, one error for a line over the cap or not UTF-8, the oracle for
    /// the rest.
    fn line_at_a_time(feed: &[u8], tagged: bool) -> Vec<Line> {
        let lines = feed.split(|byte| *byte == b'\n').filter_map(|line| {
            if line.len() > MAX_NDJSON_LINE_BYTES {
                return Some(Line::Bad("line longer than 64 KiB"));
            }
            if line.iter().all(u8::is_ascii_whitespace) {
                return None;
            }
            Some(match std::str::from_utf8(line) {
                Ok(text) => oracle_line(text, tagged),
                Err(_) => Line::Bad("line is not valid UTF-8"),
            })
        });
        lines.collect()
    }

    const NDJSON_KEYS: [&str; 9] = [
        "ts", "src", "dst", "sport", "dport", "len", "proto", "seq", "tenant",
    ];

    /// A well-formed record as `"key":value` fields, in the rendering order
    /// of an exporter; `seq` and `tenant` come and go.
    fn arbitrary_fields(rng: &mut Pcg64) -> Vec<String> {
        let address = |rng: &mut Pcg64| Ipv4Addr::from(rng.next_u64() as u32);
        let tcp = rng.bernoulli(0.5);
        let mut fields = vec![
            format!("\"ts\":{}", rng.next_below(1 << 20) as f64 / 64.0),
            format!("\"src\":\"{}\"", address(rng)),
            format!("\"sport\":{}", rng.next_u64() as u16),
            format!("\"dst\":\"{}\"", address(rng)),
            format!("\"dport\":{}", rng.next_u64() as u16),
            format!("\"proto\":\"{}\"", if tcp { "tcp" } else { "udp" }),
            format!("\"len\":{}", rng.next_u64() as u16),
        ];
        if tcp && rng.bernoulli(0.7) {
            fields.push(format!("\"seq\":{}", rng.next_u64() as u32));
        }
        if rng.bernoulli(0.5) {
            fields.push(format!("\"tenant\":{}", rng.next_below(5)));
        }
        fields
    }

    fn render_fields(fields: &[String]) -> String {
        format!("{{{}}}", fields.join(","))
    }

    /// Values of every type the grammar reads, right and wrong.
    const NDJSON_VALUES: &[&str] = &[
        "0",
        "1",
        "1.5",
        "-3",
        "1e7",
        "65535",
        "65536",
        "4294967295",
        "4294967296",
        "NaN",
        "inf",
        "tcp",
        "udp",
        "\"tcp\"",
        "\"udp\"",
        "\"icmp\"",
        "10.0.0.1",
        "\"10.0.0.1\"",
        "\"256.1.1.1\"",
        "\"1.2.3\"",
        "\"\"",
        "true",
        "[1]",
    ];

    /// One piece of token soup: structure, whitespace of both kinds, text of
    /// one to four bytes a char, every key bare and quoted, and the values.
    fn soup_token(rng: &mut Pcg64) -> &'static str {
        const TOKENS: &[&str] = &[
            "\"",
            "\"",
            "\"",
            "\"",
            ":",
            ":",
            ":",
            ",",
            ",",
            "{",
            "}",
            "[",
            "]",
            " ",
            " ",
            "\t",
            "\r",
            "\x0b",
            "\x0c",
            "\n",
            "\u{a0}",
            "\u{2003}",
            "\u{85}",
            "\u{3000}",
            "\u{e9}",
            "\u{65e5}\u{672c}",
            "\u{1f980}",
            "x",
            "\\",
        ];
        match rng.next_below(4) {
            0 => NDJSON_KEYS[rng.index(NDJSON_KEYS.len())],
            1 => [
                "\"ts\"",
                "\"src\"",
                "\"dst\"",
                "\"sport\"",
                "\"dport\"",
                "\"len\"",
                "\"proto\"",
                "\"seq\"",
                "\"tenant\"",
            ][rng.index(9)],
            2 => NDJSON_VALUES[rng.index(NDJSON_VALUES.len())],
            _ => TOKENS[rng.index(TOKENS.len())],
        }
    }

    /// A seeded arbitrary line: soup, or a well-formed record, whole or broken
    /// in one of the ways a grammar of keys and quotes can be.
    fn arbitrary_line(rng: &mut Pcg64) -> String {
        let mut fields = arbitrary_fields(rng);
        let any_key = |rng: &mut Pcg64| NDJSON_KEYS[rng.index(NDJSON_KEYS.len())];
        match rng.next_below(11) {
            0 | 1 => return (0..1 + rng.index(24)).map(|_| soup_token(rng)).collect(),
            2 => {}
            3 => rng.shuffle(&mut fields),
            4 => {
                // One char becomes another.
                let mut chars: Vec<char> = render_fields(&fields).chars().collect();
                let at = rng.index(chars.len());
                chars[at] = match rng.next_below(3) {
                    0 => soup_token(rng).chars().next().expect("no token is empty"),
                    _ => (rng.next_below(0x5f) as u8 + 0x20) as char,
                };
                return chars.into_iter().collect();
            }
            5 => {
                // One value becomes another, of any type.
                let at = rng.index(fields.len());
                let key = fields[at].split(':').next().expect("a key").to_string();
                fields[at] = format!("{key}:{}", NDJSON_VALUES[rng.index(NDJSON_VALUES.len())]);
            }
            6 => {
                // A duplicated key: the first occurrence wins, wherever it is.
                let twin = arbitrary_fields(rng).swap_remove(rng.index(7));
                fields.insert(rng.index(fields.len() + 1), twin);
            }
            7 => {
                // A key as another key's string value, or as an unknown one's.
                let holder = if rng.bernoulli(0.5) {
                    "note"
                } else {
                    any_key(rng)
                };
                let field = format!("\"{holder}\":\"{}\"", any_key(rng));
                fields.insert(rng.index(fields.len() + 1), field);
            }
            8 => {
                // A missing colon.
                let at = rng.index(fields.len());
                fields[at] = fields[at].replacen(':', " ", 1);
            }
            9 => {
                // An unterminated string: the line stops somewhere inside.
                let line = render_fields(&fields);
                return line[..rng.index(line.len())].to_string();
            }
            _ => {
                // An unknown field with text the walk must step over, and
                // whitespace of both kinds wherever JSON allows it.
                let note = "\"note\":\"\u{65e5}\u{672c} {'ts': 9}, \u{e9}:\"".to_string();
                fields.insert(rng.index(fields.len() + 1), note);
                let gap = ["", " ", "\t ", "\u{a0}", "\u{2003} "][rng.index(5)];
                return render_fields(&fields)
                    .replace(':', &format!("{gap}:{gap}"))
                    .replace(',', &format!("{gap},{gap}"));
            }
        }
        render_fields(&fields)
    }

    #[test]
    fn ndjson_reader_agrees_with_the_per_key_oracle_on_arbitrary_lines() {
        const LINES: usize = 200_000;
        let mut rng = Pcg64::seed_from_u64(0x0d15_ea5e);
        let (mut rows, mut reasons) = (0usize, std::collections::BTreeSet::new());
        let mut feed = String::new();
        for _ in 0..LINES / 1000 {
            feed.clear();
            for _ in 0..1000 {
                let line = arbitrary_line(&mut rng);
                assert_eq!(parse_ndjson_record(&line), oracle_record(&line), "{line:?}");
                feed.push_str(&line);
                feed.push('\n');
            }
            // The tagged path, a thousand lines a feed (a soup line with a
            // newline in it is two lines to both sides).
            let expected = line_at_a_time(feed.as_bytes(), true);
            let mut source = NdjsonRecordSource::new(feed.as_bytes());
            let mut seen = Vec::with_capacity(expected.len());
            while tagged_poll(&mut source, &mut seen) {}
            assert_eq!(seen.len(), expected.len());
            for (seen, expected) in seen.iter().zip(&expected) {
                assert_eq!(seen, expected);
                match seen {
                    Line::Row(..) => rows += 1,
                    Line::Bad(reason) => drop(reasons.insert(*reason)),
                }
            }
        }
        // The generator reaches both outcomes and every reason the parser has.
        assert!(rows > LINES / 10, "{rows} records");
        assert_eq!(reasons.len(), 11, "{reasons:?}");
    }

    /// The word scan against `iter().position` at every start offset of
    /// slices of 0 to 24 bytes, with the first stop in a whole word, in the
    /// tail or nowhere, behind filler a bit away from a stop, ASCII or not;
    /// and its non-ASCII flag against `is_ascii` over the bytes in front.
    #[test]
    fn ndjson_word_scan_agrees_with_position_at_every_offset() {
        fn check<const N: usize>(rng: &mut Pcg64, stops: [u8; N]) {
            let mut near = vec![0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff, b'a'];
            for stop in stops {
                near.extend([stop ^ 0x80, stop ^ 0x01, stop.wrapping_sub(1), stop + 1]);
            }
            near.retain(|byte| !stops.contains(byte));
            let ascii: Vec<u8> = near.iter().copied().filter(u8::is_ascii).collect();
            let mut bytes = Vec::with_capacity(24);
            for len in 0..=24 {
                for from in 0..=len {
                    for first in (from..len).map(Some).chain([None]) {
                        for filler in [&ascii, &near] {
                            bytes.clear();
                            bytes.extend((0..len).map(|_| filler[rng.index(filler.len())]));
                            if let Some(first) = first {
                                // Stops behind the first may raise spurious bits.
                                for byte in &mut bytes[first + 1..] {
                                    if rng.bernoulli(0.3) {
                                        *byte = stops[rng.index(N)];
                                    }
                                }
                                bytes[first] = stops[rng.index(N)];
                            }
                            let found = bytes[from..].iter().position(|byte| stops.contains(byte));
                            assert_eq!(found.map(|offset| from + offset), first);
                            let in_front = &bytes[from..first.unwrap_or(len)];
                            let expected = (first, !in_front.is_ascii());
                            assert_eq!(find(&bytes, from, stops), expected, "{bytes:?} @{from}");
                        }
                    }
                }
            }
        }
        let mut rng = Pcg64::seed_from_u64(0x5ca1_ab1e);
        check(&mut rng, [b'\n']);
        check(&mut rng, [b'"']);
        check(&mut rng, [b',', b'}', b'"']);
        check(&mut rng, [b',', b'}']);
    }

    /// A line whose one byte that is not ASCII sits anywhere in the framing
    /// scan's last word or in its tail still goes through `from_utf8`: one
    /// malformed record where the byte is no UTF-8, a record where it is.
    #[test]
    fn ndjson_a_line_not_ascii_only_in_its_last_partial_word_is_still_validated() {
        const RECORD: &str =
            r#"{"ts":1,"src":"1.1.1.1","dst":"2.2.2.2","sport":1,"dport":2,"len":9,"proto":"udp"}"#;
        for pad in 0..24 {
            for (last, records, malformed) in [
                (&b"\xff"[..], 1, 1),
                (b"\xc3", 1, 1),
                (b"\xe6\x97", 1, 1),
                ("\u{e9}".as_bytes(), 2, 0),
            ] {
                // The line is the feed's last, so the scan over it ends in
                // the bytes behind its last whole word.
                let mut feed = format!("{RECORD}\n{RECORD}").into_bytes();
                feed.resize(feed.len() + pad, b' ');
                feed.extend_from_slice(last);
                feed.push(b'\n');
                let (packets, bad, _) = pull(&mut NdjsonRecordSource::new(&feed[..]), false);
                assert_eq!((packets.len(), bad), (records, malformed), "{pad}");
            }
        }
    }

    /// Every decimal string of up to six digits, bare and behind a sign,
    /// leading zeros included, and the edges of both widths: the integer
    /// readers read what `str::parse` reads.
    #[test]
    fn ndjson_integer_readers_agree_with_str_parse() {
        use std::fmt::Write as _;
        let agree = |text: &str| {
            assert_eq!(read_u16(text.as_bytes()), text.parse().ok(), "u16 {text:?}");
            assert_eq!(read_u32(text.as_bytes()), text.parse().ok(), "u32 {text:?}");
        };
        let edges = ["", "+", "-", "++1", "+-1", "1+", " 1", "1 ", "0x1", "1_0"];
        let widths = [
            "65535",
            "65536",
            "4294967295",
            "4294967296",
            "18446744073709551616",
        ];
        for edge in edges.into_iter().chain(widths) {
            agree(edge);
            agree(&format!("+{edge}"));
            agree(&format!("0000000000{edge}"));
        }
        let mut text = String::with_capacity(8);
        for digits in 1..=6 {
            for n in 0..10u32.pow(digits) {
                for sign in ["", "+", "-"] {
                    text.clear();
                    write!(text, "{sign}{n:0width$}", width = digits as usize).unwrap();
                    agree(&text);
                }
            }
        }
    }

    /// Every address of four octets drawn from the awkward ones, and seeded
    /// strings of up to 16 bytes over digits, dots, signs and spaces: the
    /// address reader reads what `Ipv4Addr::from_str` reads.
    #[test]
    fn ndjson_ipv4_reader_agrees_with_ipv4addr_from_str() {
        let agree = |text: &str| {
            let expected: Option<Ipv4Addr> = text.parse().ok();
            assert_eq!(read_ipv4(text.as_bytes()), expected, "{text:?}");
            expected.is_some()
        };
        const OCTETS: [&str; 11] = [
            "0", "00", "01", "9", "10", "99", "100", "255", "256", "999", "0000",
        ];
        let mut valid = 0;
        for a in OCTETS {
            for b in OCTETS {
                for c in OCTETS {
                    for d in OCTETS {
                        valid += usize::from(agree(&format!("{a}.{b}.{c}.{d}")));
                    }
                }
            }
        }
        assert_eq!(valid, 6usize.pow(4), "the octets std takes");
        // Digits most of the time and a dot every few, so some strings are
        // addresses and most are near misses.
        let mut rng = Pcg64::seed_from_u64(0x1b_4add);
        let (mut text, mut valid) = (String::with_capacity(16), 0);
        for _ in 0..200_000 {
            text.clear();
            for _ in 0..rng.index(17) {
                text.push(match rng.next_below(16) {
                    0..=3 => '.',
                    4 => ['+', '-', ' '][rng.index(3)],
                    _ => char::from(b'0' + rng.next_below(10) as u8),
                });
            }
            valid += usize::from(agree(&text));
        }
        assert!(valid > 100, "{valid} addresses among the strings");
    }

    /// A `BufRead` that hands `feed` out in the fragments `cuts` (end offsets)
    /// make of it, like a pipe whose reads return what they return. Given a
    /// `strict` flag it raises it on every read that delivers the end of a
    /// line and panics when it is read again with the flag up: the caller
    /// lowers it each time the source returns.
    struct Fragments<'a> {
        feed: &'a [u8],
        cuts: std::vec::IntoIter<usize>,
        buffered: std::ops::Range<usize>,
        strict: Option<&'a std::cell::Cell<bool>>,
    }

    impl<'a> Fragments<'a> {
        fn new(feed: &'a [u8], mut cuts: Vec<usize>) -> Self {
            cuts.retain(|cut| (1..feed.len()).contains(cut));
            cuts.sort_unstable();
            cuts.dedup();
            cuts.push(feed.len());
            Fragments {
                feed,
                cuts: cuts.into_iter(),
                buffered: 0..0,
                strict: None,
            }
        }
    }

    impl io::Read for Fragments<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let available = io::BufRead::fill_buf(self)?;
            let n = available.len().min(out.len());
            out[..n].copy_from_slice(&available[..n]);
            io::BufRead::consume(self, n);
            Ok(n)
        }
    }

    impl io::BufRead for Fragments<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.buffered.is_empty() {
                let up = self.strict.is_some_and(std::cell::Cell::get);
                assert!(!up, "read again with a complete line in hand");
                if let Some(end) = self.cuts.next() {
                    self.buffered = self.buffered.end..end;
                    let line_delivered = self.feed[self.buffered.clone()].contains(&b'\n');
                    if let Some(flag) = self.strict {
                        flag.set(line_delivered);
                    }
                }
            }
            Ok(&self.feed[self.buffered.clone()])
        }

        fn consume(&mut self, n: usize) {
            self.buffered.start += n;
            assert!(self.buffered.start <= self.buffered.end);
        }
    }

    /// Seeded cuts over `len` bytes: mostly a few bytes apart, now and then a
    /// single byte or up to 70 KiB, plus the `forced` offsets.
    fn arbitrary_cuts(rng: &mut Pcg64, len: usize, forced: &[usize]) -> Vec<usize> {
        let mut cuts = forced.to_vec();
        let mut at = 0;
        while at < len {
            at += match rng.next_below(8) {
                0 => 1,
                1 => 1 + rng.index(70 << 10),
                2 => 1 + rng.index(4 << 10),
                _ => 1 + rng.index(200),
            };
            cuts.push(at);
        }
        cuts
    }

    /// A feed with everything the framing has to get right, and the offsets
    /// worth cutting at: inside a multi-byte sequence and around the cap.
    fn awkward_feed(rng: &mut Pcg64) -> (Vec<u8>, Vec<usize>) {
        let mut feed = Vec::new();
        let mut forced = Vec::new();
        for _ in 0..600 {
            let record = render_fields(&arbitrary_fields(rng));
            match rng.next_below(16) {
                0 => feed.extend_from_slice(b"not json"),
                1 => feed.extend_from_slice(b"\xff\xfe"),
                2 => feed.extend_from_slice(b" \t"), // blank, like the empty line
                3 => {}
                4 => feed.extend_from_slice(format!("{record}\r").as_bytes()),
                5 => {
                    forced.push(feed.len() + 10); // inside the first char of the note
                    feed.extend_from_slice("{\"note\":\"\u{65e5}\u{672c}\",".as_bytes());
                    feed.extend_from_slice(&record.as_bytes()[1..]);
                }
                6 => {
                    // At the cap a line is a record; one byte over it is not.
                    let width = MAX_NDJSON_LINE_BYTES + rng.index(2);
                    forced.extend([feed.len() + MAX_NDJSON_LINE_BYTES, feed.len() + width + 1]);
                    feed.extend_from_slice(record.as_bytes());
                    feed.resize(feed.len() + width - record.len(), b' ');
                }
                7 if rng.bernoulli(0.2) => feed.extend(std::iter::repeat_n(b'x', 200 << 10)),
                _ => feed.extend_from_slice(arbitrary_line(rng).replace('\n', " ").as_bytes()),
            }
            feed.push(b'\n');
        }
        // The last line has no newline behind it.
        feed.extend_from_slice(render_fields(&arbitrary_fields(rng)).as_bytes());
        (feed, forced)
    }

    #[test]
    fn ndjson_chunks_are_invariant_under_how_reads_cut_the_feed() {
        for seed in 0..12 {
            let mut rng = Pcg64::seed_from_u64(0xf7a6 + seed);
            let (feed, forced) = awkward_feed(&mut rng);
            let expected = line_at_a_time(&feed, true);
            assert!(expected.len() > 400, "{} lines", expected.len());
            for forced in [&forced[..], &[]] {
                let cuts = arbitrary_cuts(&mut rng, feed.len(), forced);
                let mut source = NdjsonRecordSource::new(Fragments::new(&feed, cuts));
                let mut seen = Vec::with_capacity(expected.len());
                while tagged_poll(&mut source, &mut seen) {}
                assert_eq!(seen, expected, "seed {seed}");
            }
            // The untagged polls never look at the tag; these go through a
            // real `BufReader`, smaller than some of the lines.
            let mut packets = Vec::new();
            let mut bad = 0;
            for line in line_at_a_time(&feed, false) {
                match line {
                    Line::Row(_, record) => packets.push(record.timestamp.as_nanos()),
                    Line::Bad(_) => bad += 1,
                }
            }
            let cuts = arbitrary_cuts(&mut rng, feed.len(), &forced);
            let reader = io::BufReader::with_capacity(300, Fragments::new(&feed, cuts));
            let mut source = NdjsonRecordSource::new(reader);
            assert_eq!(
                pull(&mut source, false),
                (packets, bad, false),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn ndjson_step_returns_what_has_arrived_before_it_reads_again() {
        // No blank lines here: a read that delivers the end of a line delivers
        // a record or an error, and the source has to hand that over before
        // it touches the reader again.
        let mut rng = Pcg64::seed_from_u64(0x0574_71c7);
        let mut feed = Vec::new();
        for _ in 0..2000 {
            let line = match rng.next_below(20) {
                0 => "not json".to_string(),
                _ => render_fields(&arbitrary_fields(&mut rng)),
            };
            feed.extend_from_slice(line.as_bytes());
            feed.push(b'\n');
        }
        let expected = line_at_a_time(&feed, true);
        for _ in 0..8 {
            let line_delivered = std::cell::Cell::new(false);
            let cuts = arbitrary_cuts(&mut rng, feed.len(), &[]);
            let mut reader = Fragments::new(&feed, cuts);
            reader.strict = Some(&line_delivered);
            let mut source = NdjsonRecordSource::new(reader);
            let mut seen = Vec::with_capacity(expected.len());
            while tagged_poll(&mut source, &mut seen) {
                line_delivered.set(false);
            }
            assert_eq!(seen, expected);
        }
    }

    /// The read after `first` fails with `Interrupted` once, as a blocked
    /// read does when a signal lands, then `rest` arrives.
    struct SignalBetween<'a> {
        first: &'a [u8],
        interrupted: bool,
        rest: &'a [u8],
    }

    impl io::Read for SignalBetween<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.first.is_empty() && !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            let unread = if self.first.is_empty() {
                &mut self.rest
            } else {
                &mut self.first
            };
            io::Read::read(unread, out)
        }
    }

    #[test]
    fn ndjson_an_interrupted_read_is_one_idle_poll_then_the_same_records() {
        let mut rng = Pcg64::seed_from_u64(0x51_6e7);
        let mut feed = String::new();
        for _ in 0..40 {
            feed.push_str(&render_fields(&arbitrary_fields(&mut rng)));
            feed.push('\n');
        }
        let expected = pull(&mut NdjsonRecordSource::new(feed.as_bytes()), false);
        assert_eq!(expected.0.len(), 40);
        // Two writes, cut at a line end, with the signal between them.
        let cut = feed[..feed.len() / 2].rfind('\n').unwrap() + 1;
        let reader = SignalBetween {
            first: &feed.as_bytes()[..cut],
            interrupted: false,
            rest: &feed.as_bytes()[cut..],
        };
        let mut source = NdjsonRecordSource::new(io::BufReader::new(reader));
        let first_write = feed[..cut].matches('\n').count();
        let (mut seen, mut idle) = (Vec::new(), 0);
        while let Some(chunk) = source.try_next_chunk().unwrap() {
            if chunk.is_empty() {
                assert_eq!(seen.len(), first_write, "idle between the writes");
                idle += 1;
            }
            seen.extend_from_slice(chunk.ts_nanos());
        }
        assert_eq!(idle, 1, "one idle poll for one interrupted read");
        assert_eq!((seen, 0, false), expected);
    }

    #[test]
    fn tail_source_window_is_bounded_whatever_the_capture_size() {
        let records: Vec<PacketRecord> = (0..50_000u32)
            .map(|i| {
                PacketRecord::udp(
                    Timestamp::from_micros(i as u64 * 100),
                    Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
                    1000,
                    Ipv4Addr::new(100, 64, 0, 1),
                    80,
                    60,
                )
            })
            .collect();
        let capture = records_to_pcap_bytes(&records).unwrap();
        let expected = pull(&mut PcapBytesSource::new(&capture).unwrap(), false).0;
        assert_eq!(expected.len(), records.len());
        // A few read quanta plus one record (16-byte header, 74-byte frame),
        // with room for `Vec`'s amortised growth — a small fraction of the
        // capture.
        let bound = 4 * TAIL_READ_QUANTUM + 90;
        assert!(capture.len() > 10 * bound, "{} bytes", capture.len());
        let file = format!("flowrank-tail-window-{}.pcap", std::process::id());
        let file = std::env::temp_dir().join(file);
        std::fs::write(&file, &capture).unwrap();
        for follow in [false, true] {
            let tail = PcapTailSource::open(&file).unwrap();
            let mut tail = tail.with_chunk_packets(256).follow(follow);
            let mut seen = Vec::new();
            // To the end of the stream, or to the first idle poll.
            while let Some(chunk) = tail.try_next_chunk().unwrap().filter(|c| !c.is_empty()) {
                assert!(chunk.len() <= 256);
                seen.extend_from_slice(chunk.ts_nanos());
                let held = tail.buf.capacity();
                assert!(held <= bound, "follow {follow}: window holds {held} bytes");
            }
            assert_eq!(seen, expected, "follow {follow}");
            assert_eq!(tail.consumed(), capture.len(), "follow {follow}");
        }
        std::fs::remove_file(file).unwrap();
    }

    /// Writer that passes its first `ok` writes through to a `Vec`, fails
    /// the next `failures` with the given error kind, then passes the rest.
    #[derive(Debug)]
    struct FlakyWriter {
        ok: usize,
        failures: usize,
        kind: io::ErrorKind,
        out: Vec<u8>,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok > 0 {
                self.ok -= 1;
            } else if self.failures > 0 {
                self.failures -= 1;
                return Err(io::Error::new(self.kind, "injected write failure"));
            }
            self.out.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_sink_emit_classifies_transient_and_permanent_failures() {
        let reports = run_records(&trace());
        assert!(reports.len() >= 2);

        // An `Interrupted` write in the middle of a report is ridden out by
        // `write_all`: every report is still one whole line. This is why
        // nothing above the sink retries a failed report.
        let mut sink = NdjsonSink::new(FlakyWriter {
            ok: 2,
            failures: 1,
            kind: io::ErrorKind::Interrupted,
            out: Vec::new(),
        });
        for report in &reports {
            sink.emit(report).expect("an interrupt is not a failure");
        }
        let out = String::from_utf8(sink.finish().expect("nothing latched").out).unwrap();
        assert_eq!(out.lines().count(), reports.len());
        for (line, report) in out.lines().zip(&reports) {
            assert!(line.starts_with(&format!("{{\"bin\":{},", report.bin_index)));
            assert_eq!(line.matches("{\"bin\"").count(), 1, "{line}");
            assert!(line.ends_with("]}"), "{line}");
        }

        // Any other error latches, whatever its kind: later reports are
        // refused by `emit` and `accept` alike, and `finish` returns it.
        for kind in [io::ErrorKind::TimedOut, io::ErrorKind::BrokenPipe] {
            let mut sink = CsvSink::new(FlakyWriter {
                ok: 1,
                failures: 1,
                kind,
                out: Vec::new(),
            });
            assert_eq!(sink.emit(&reports[0]).unwrap_err().kind(), kind);
            assert_eq!(sink.emit(&reports[1]).unwrap_err().kind(), kind, "latched");
            sink.accept(&reports[1]); // must be a no-op, not a panic
            assert_eq!(sink.finish().unwrap_err().kind(), kind);
        }

        // `drive` delivers through `accept`: the failed sink does not stop
        // the drive, and its `finish` still returns the error.
        let mut sink = NdjsonSink::new(FlakyWriter {
            ok: 1,
            failures: 1,
            kind: io::ErrorKind::BrokenPipe,
            out: Vec::new(),
        });
        let batch = PacketBatch::from_records(&trace());
        let stats = monitor().drive(&mut BatchSource::new(&batch), &mut sink);
        assert_eq!(stats.reports, reports.len() as u64);
        assert_eq!(sink.finish().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn rate_curve_with_zero_bins_is_empty() {
        let curve = RateCurve::new();
        assert_eq!(curve.bins, 0);
        assert!(curve.points().is_empty());
    }

    #[test]
    fn rate_curve_from_a_single_report_is_finite() {
        // One bin, one lane, one observation per stat: the std-dev of a
        // single sample is undefined, and points() must report 0.0 for it
        // rather than NaN.
        let mut curve = RateCurve::new();
        drive_one_packet(&mut curve);
        let points = curve.points();
        assert_eq!(curve.bins, 1);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].observations, 1);
        assert_eq!(points[0].ranking_std, 0.0);
        assert_eq!(points[0].detection_std, 0.0);
        assert!(points[0].ranking_mean.is_finite());
    }

    #[test]
    fn rate_curve_folds_duplicate_rate_ids_across_runs_and_bins() {
        // Three runs share each rate_id, over two bins: every point must
        // fold bins × runs observations into one entry per rate, in grid
        // order, not one entry per lane.
        let mut packets = synth_packets(40, 0.0);
        packets.extend(synth_packets(40, 61.0));
        let mut m = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.1 })
            .rates(&[0.05, 0.5])
            .runs(3)
            .seed(9)
            .bin_length(Timestamp::from_secs_f64(60.0))
            .build();
        let mut curve = RateCurve::new();
        let batch = PacketBatch::from_records(&packets);
        m.push_batch_into(&batch, &mut curve);
        m.finish_into(&mut curve);
        let points = curve.points();
        assert_eq!(curve.bins, 2);
        assert_eq!(points.len(), 2, "one point per rate_id");
        for (i, point) in points.iter().enumerate() {
            assert_eq!(point.rate_id, i, "grid order");
            assert_eq!(point.observations, 6, "2 bins × 3 runs");
        }
    }

    #[test]
    fn rate_curve_is_nan_free_when_a_lane_keeps_nothing() {
        // A rate-0 lane never samples a packet: every metric it reports is
        // constant, and the curve must stay finite everywhere.
        let mut packets = synth_packets(30, 0.0);
        packets.extend(synth_packets(30, 61.0));
        let mut m = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.0 })
            .seed(4)
            .bin_length(Timestamp::from_secs_f64(60.0))
            .build();
        let mut curve = RateCurve::new();
        let batch = PacketBatch::from_records(&packets);
        m.push_batch_into(&batch, &mut curve);
        m.finish_into(&mut curve);
        let points = curve.points();
        assert_eq!(points.len(), 1);
        for point in &points {
            for value in [
                point.ranking_mean,
                point.ranking_std,
                point.detection_mean,
                point.detection_std,
            ] {
                assert!(value.is_finite(), "NaN/inf leaked into {point:?}");
            }
        }
    }
}
