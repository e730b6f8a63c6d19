//! `source = socket`: a live TCP ndjson listener.
//!
//! The stdin ndjson source covers pipelines (`exporter | flowrank-serve`),
//! but a daemon on a monitoring host receives records over the network.
//! [`listen`] binds a TCP port and pumps newline-delimited JSON records
//! from accepted connections into a
//! [`ChannelSource`] — the non-blocking
//! packet source whose idle poll (an empty chunk) lets the drive loop idle
//! politely (counted idle polls, stall detection) while the socket is
//! quiet.
//!
//! Each connection is read through the stdin path's source,
//! [`NdjsonRecordSource`], so the wire format, the 64 KiB line limit and
//! the malformed-record contract are the stdin path's: a bad line — not a
//! record, oversized, not UTF-8 — is forwarded as one recoverable
//! [`SourceError::Malformed`] and counted/skipped by the daemon's resilient
//! [`DrivePolicy`](flowrank_monitor::DrivePolicy), and the records behind
//! it on the same connection still arrive. Records are forwarded a chunk
//! at a time — every complete line a read delivered — through a bounded
//! queue: when the monitor is the slower side the pump blocks on the full
//! queue, stops reading, and TCP pushes back on the exporter.
//!
//! Connections are served one at a time, each to EOF — the model is one
//! exporter streaming records, reconnecting if it restarts. The accept
//! loop polls the stop flag between connections and drops the channel
//! sender when it is raised, which ends the stream cleanly on the drive
//! side; a pump blocked mid-connection ends with the process instead.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::Duration;

use flowrank_monitor::{ChannelSource, NdjsonRecordSource, PacketSource, SourceError};
use flowrank_net::PacketBatch;

/// How often the accept loop re-checks the stop flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Chunks and malformed-line errors the pump may run ahead of the drive loop.
/// A chunk is at most one read of a connection, so this bounds the queue to
/// a few hundred records' worth of memory.
const QUEUE_DEPTH: usize = 16;

/// Binds `addr` and returns the bound address plus a [`ChannelSource`]
/// fed by a background pump thread for the rest of the process. Pass port
/// `0` to pick a free port (the daemon prints it on startup).
pub fn listen(
    addr: impl ToSocketAddrs,
    stop: Arc<AtomicBool>,
) -> std::io::Result<(SocketAddr, ChannelSource)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    // Non-blocking accepts keep the stop flag honored while idle.
    listener.set_nonblocking(true)?;
    let (sender, source) = queue();
    std::thread::Builder::new()
        .name("flowrank-serve-socket".to_string())
        .spawn(move || pump(listener, sender, stop))?;
    Ok((bound, source))
}

/// The bounded queue between the pump and the drive loop: a full one blocks
/// the sender.
fn queue() -> (SyncSender<Result<PacketBatch, SourceError>>, ChannelSource) {
    let (sender, receiver) = std::sync::mpsc::sync_channel(QUEUE_DEPTH);
    (sender, ChannelSource::new(receiver))
}

/// The accept loop: one connection at a time, records forwarded chunk by
/// chunk. Returns (dropping the sender, ending the stream) when the stop
/// flag rises or the drive side hangs up.
fn pump(
    listener: TcpListener,
    sender: SyncSender<Result<PacketBatch, SourceError>>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Within a connection reads block: records arrive when the
                // exporter sends them, and the drive side's polls idle
                // meanwhile.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                if !pump_connection(stream, &sender) {
                    return;
                }
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Forwards one connection's records until EOF, blocking while the queue is
/// full. Returns `false` when the drive side hung up (the pump should exit).
fn pump_connection(
    stream: impl std::io::Read,
    sender: &SyncSender<Result<PacketBatch, SourceError>>,
) -> bool {
    let mut source = NdjsonRecordSource::new(std::io::BufReader::new(stream));
    loop {
        let message = match source.try_next_chunk() {
            Ok(Some(chunk)) => Ok(chunk.clone()),
            Ok(None) => return true, // EOF: exporter done, accept the next one.
            Err(error) if error.is_recoverable() => Err(error),
            Err(_) => return true, // Connection died mid-line: drop it.
        };
        if sender.send(message).is_err() {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn poll_until<T>(
        source: &mut ChannelSource,
        mut check: impl FnMut(&mut ChannelSource) -> Option<T>,
    ) -> T {
        for _ in 0..400 {
            if let Some(value) = check(source) {
                return value;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("socket source never delivered");
    }

    #[test]
    fn records_flow_from_a_tcp_client_to_the_source() {
        const RECORD: &[u8] = b"{\"ts\":1.0,\"src\":\"10.0.0.1\",\"dst\":\"10.0.0.2\",\"sport\":1,\"dport\":2,\"len\":100,\"proto\":\"udp\"}\n";
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, mut source) = listen("127.0.0.1:0", Arc::clone(&stop)).expect("bind");
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        // Sends one line, then waits for what it turns into: the packets of
        // a chunk, or the error.
        let mut deliver = |line: &[u8]| {
            client.write_all(line).expect("send");
            client.flush().expect("flush");
            poll_until(&mut source, |source| match source.try_next_chunk() {
                Ok(Some(batch)) if batch.is_empty() => None,
                Ok(Some(batch)) => Some(Ok(batch.len())),
                Err(error) => Some(Err(error)),
                other => panic!("unexpected poll: {other:?}"),
            })
        };
        assert_eq!(deliver(RECORD).expect("a record"), 1);
        // A malformed line — not a record, or not even text — surfaces as a
        // recoverable error, and the records behind it on the same
        // connection still arrive.
        for junk in [&b"not json\n"[..], b"\xff\xfe\n"] {
            let error = deliver(junk).expect_err("a malformed line");
            assert!(error.is_recoverable(), "{error:?}");
            assert_eq!(deliver(RECORD).expect("the record behind it"), 1);
        }
        // Raising stop ends the stream once the pump notices.
        drop(client);
        stop.store(true, Ordering::Release);
        let ended = poll_until(&mut source, |source| match source.try_next_chunk() {
            Ok(None) => Some(true),
            Ok(Some(batch)) if batch.is_empty() => None,
            other => panic!("unexpected poll: {other:?}"),
        });
        assert!(ended);
    }

    fn record(ts: usize) -> String {
        format!("{{\"ts\":{ts},\"src\":\"10.0.0.1\",\"dst\":\"10.0.0.2\",\"sport\":1,\"dport\":2,\"len\":100,\"proto\":\"udp\"}}\n")
    }

    #[test]
    fn one_write_of_many_records_arrives_whole_and_in_order() {
        // 100 records and two bad lines in one `write_all`: chunks totalling
        // 100 packets in order, each error between the records around it.
        let bad_after = [10, 50];
        let mut feed = String::new();
        let mut expected = Vec::new();
        for ts in 0..100 {
            feed.push_str(&record(ts));
            expected.push(Some(ts as u64 * 1_000_000_000));
            if bad_after.contains(&ts) {
                feed.push_str("not json\n");
                expected.push(None);
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, mut source) = listen("127.0.0.1:0", Arc::clone(&stop)).expect("bind");
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        client.write_all(feed.as_bytes()).expect("send");
        let mut seen = Vec::new();
        poll_until(&mut source, |source| {
            match source.try_next_chunk() {
                Ok(Some(chunk)) => seen.extend(chunk.ts_nanos().iter().map(|ts| Some(*ts))),
                Err(error) if error.is_recoverable() => seen.push(None),
                other => panic!("unexpected poll: {other:?}"),
            }
            (seen.len() == expected.len()).then_some(())
        });
        assert_eq!(seen, expected);
        drop(client);
        stop.store(true, Ordering::Release);
    }

    /// A connection whose every read returns one line, counting them.
    struct LineAtATime {
        feed: Vec<u8>,
        at: usize,
        lines_read: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl std::io::Read for LineAtATime {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let rest = &self.feed[self.at..];
            let line = rest
                .iter()
                .position(|byte| *byte == b'\n')
                .map_or(0, |end| end + 1);
            assert!(line <= out.len(), "a line fits a read");
            out[..line].copy_from_slice(&rest[..line]);
            self.at += line;
            self.lines_read
                .fetch_add((line > 0) as usize, Ordering::SeqCst);
            Ok(line)
        }
    }

    #[test]
    fn the_queue_between_pump_and_drive_loop_is_bounded() {
        const LINES: usize = 40 * QUEUE_DEPTH;
        let connection = |lines_read: &Arc<std::sync::atomic::AtomicUsize>| LineAtATime {
            feed: (0..LINES).map(record).collect::<String>().into_bytes(),
            at: 0,
            lines_read: Arc::clone(lines_read),
        };
        let wait_for_a_full_queue = |lines_read: &std::sync::atomic::AtomicUsize| {
            for _ in 0..2000 {
                if lines_read.load(Ordering::SeqCst) > QUEUE_DEPTH {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("the pump never filled the queue");
        };

        // With the drive side not polling the pump reads what the queue holds
        // and the one chunk it is blocked on, and no further.
        let lines_read = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (sender, mut source) = queue();
        let reader = connection(&lines_read);
        let pump = std::thread::spawn(move || pump_connection(reader, &sender));
        wait_for_a_full_queue(&lines_read);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(lines_read.load(Ordering::SeqCst), QUEUE_DEPTH + 1);
        // Once it drains everything arrives, in order, never further ahead.
        let mut taken = 0;
        loop {
            match source.try_next_chunk() {
                Ok(Some(chunk)) if chunk.is_empty() => std::thread::yield_now(),
                Ok(Some(chunk)) => {
                    assert_eq!(chunk.ts_nanos(), [taken as u64 * 1_000_000_000]);
                    taken += 1;
                    assert!(lines_read.load(Ordering::SeqCst) <= taken + QUEUE_DEPTH + 1);
                }
                Ok(None) => break,
                Err(error) => panic!("unexpected error: {error:?}"),
            }
        }
        assert_eq!(taken, LINES);
        assert!(
            pump.join().expect("pump"),
            "the connection ended, not the stream"
        );

        // A pump blocked on a full queue still ends when the drive side goes.
        let lines_read = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (sender, source) = queue();
        let reader = connection(&lines_read);
        let pump = std::thread::spawn(move || pump_connection(reader, &sender));
        wait_for_a_full_queue(&lines_read);
        drop(source);
        assert!(!pump.join().expect("pump"), "the stream ended");
    }
}
