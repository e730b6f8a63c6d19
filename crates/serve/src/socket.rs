//! `source = socket`: a live TCP ndjson listener.
//!
//! The stdin ndjson source covers pipelines (`exporter | flowrank-serve`),
//! but a daemon on a monitoring host receives records over the network.
//! [`listen`] binds a TCP port and returns a [`SocketSource`], which the
//! drive loop polls like any other source, on its own thread and with no
//! thread behind it: the listener and the connection are non-blocking, so
//! a poll with nothing to accept or read answers an idle poll (an empty
//! chunk), the drive loop waits out `idle_wait`, and a
//! [`StopGate`](flowrank_monitor::StopGate) sees the stop flag at the next
//! poll, a silent client connected or not.
//!
//! Each connection is read through the stdin path's source,
//! [`NdjsonRecordSource`], so the wire format, the 64 KiB line limit and
//! the malformed-record contract are the stdin path's: a bad line — not a
//! record, oversized, not UTF-8 — is one recoverable
//! [`SourceError::Malformed`], counted and skipped by the daemon's resilient
//! [`DrivePolicy`](flowrank_monitor::DrivePolicy), and the records behind
//! it on the same connection still arrive. A chunk is every complete line
//! a read delivered, and a line split across reads is carried until its
//! newline arrives. The monitor reads only when it polls, so a monitor
//! slower than its exporter leaves bytes in the socket and TCP pushes back.
//!
//! Connections are served one at a time, each to EOF — the model is one
//! exporter streaming records, reconnecting if it restarts. At a
//! connection's EOF or a read that fails it, the connection is dropped and
//! the next poll accepts the next one.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

use flowrank_monitor::{NdjsonRecordSource, PacketSource, SourceError};
use flowrank_net::PacketBatch;

/// What a poll with nothing to accept or read answers.
static IDLE: PacketBatch = PacketBatch::new();

/// Binds `addr` and returns the bound address plus the [`SocketSource`]
/// that accepts on it. Pass port `0` to pick a free port (the daemon prints
/// it on startup).
pub fn listen(addr: impl ToSocketAddrs) -> std::io::Result<(SocketAddr, SocketSource)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let source = SocketSource {
        listener,
        connection: None,
        ended: false,
    };
    Ok((bound, source))
}

/// The packet source of `source = socket`: a non-blocking listener and the
/// connection it is reading, if any.
#[derive(Debug)]
pub struct SocketSource {
    listener: TcpListener,
    connection: Option<NdjsonRecordSource<BufReader<TcpStream>>>,
    /// The connection reached its end at the last poll; the next drops it.
    ended: bool,
}

impl PacketSource for SocketSource {
    /// A chunk or a recoverable error of the current connection; an idle
    /// poll when there is none to accept, nothing has arrived, or the
    /// connection just ended. The stream itself never ends.
    fn try_next_chunk(&mut self) -> Result<Option<&PacketBatch>, SourceError> {
        if std::mem::take(&mut self.ended) {
            self.connection = None;
        }
        if self.connection.is_none() {
            let Ok((stream, _peer)) = self.listener.accept() else {
                return Ok(Some(&IDLE));
            };
            if stream.set_nonblocking(true).is_err() {
                return Ok(Some(&IDLE));
            }
            self.connection = Some(NdjsonRecordSource::new(BufReader::new(stream)));
        }
        let connection = self.connection.as_mut().expect("accepted above");
        match connection.try_next_chunk() {
            Ok(Some(chunk)) => Ok(Some(chunk)),
            Err(error) if error.is_recoverable() => Err(error),
            // At EOF, or a read that failed: the exporter is done with it.
            Ok(None) | Err(_) => {
                self.ended = true;
                Ok(Some(&IDLE))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use flowrank_monitor::StopGate;

    fn record(ts: usize) -> String {
        format!("{{\"ts\":{ts},\"src\":\"10.0.0.1\",\"dst\":\"10.0.0.2\",\"sport\":1,\"dport\":2,\"len\":100,\"proto\":\"udp\"}}\n")
    }

    /// Polls `source` every 5 ms until `check` returns a value; panics after
    /// two seconds.
    fn poll_until<S: PacketSource, T>(
        source: &mut S,
        mut check: impl FnMut(&mut S) -> Option<T>,
    ) -> T {
        for _ in 0..400 {
            if let Some(value) = check(source) {
                return value;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("socket source never delivered");
    }

    /// Polls until something other than an idle poll: the packet count of a
    /// chunk, or the error.
    fn next_delivery(source: &mut impl PacketSource) -> Result<usize, SourceError> {
        poll_until(source, |source| match source.try_next_chunk() {
            Ok(Some(batch)) if batch.is_empty() => None,
            Ok(Some(batch)) => Some(Ok(batch.len())),
            Err(error) => Some(Err(error)),
            Ok(None) => panic!("the socket stream ended"),
        })
    }

    /// Polls `polls` times, each 5 ms apart; every poll must be idle.
    fn only_idle(source: &mut impl PacketSource, polls: usize) {
        for _ in 0..polls {
            match source.try_next_chunk() {
                Ok(Some(batch)) if batch.is_empty() => {}
                other => panic!("want an idle poll, got {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn records_flow_from_a_tcp_client_to_the_source() {
        let (addr, mut source) = listen("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(addr).expect("connect");
        // Sends one line, then waits for what it turns into.
        let mut deliver = |line: &[u8]| {
            client.write_all(line).expect("send");
            next_delivery(&mut source)
        };
        assert_eq!(deliver(record(1).as_bytes()).expect("a record"), 1);
        // A malformed line — not a record, or not even text — surfaces as a
        // recoverable error, and the records behind it on the same
        // connection still arrive.
        for junk in [&b"not json\n"[..], b"\xff\xfe\n"] {
            let error = deliver(junk).expect_err("a malformed line");
            assert!(error.is_recoverable(), "{error:?}");
            assert_eq!(
                deliver(record(2).as_bytes()).expect("the record behind it"),
                1
            );
        }
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
        let (addr, mut source) = listen("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(addr).expect("connect");
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
    }

    #[test]
    fn a_record_split_across_a_pause_arrives_whole_after_idle_polls() {
        let (addr, mut source) = listen("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(addr).expect("connect");
        let line = record(3);
        let (front, back) = line.as_bytes().split_at(40);
        client.write_all(front).expect("send");
        // The half line is read and carried; the pause is idle polls.
        only_idle(&mut source, 20);
        client.write_all(back).expect("send");
        assert_eq!(next_delivery(&mut source).expect("the whole record"), 1);
    }

    #[test]
    fn a_silent_client_gets_idle_polls_and_the_stop_flag_ends_the_stream() {
        let (addr, source) = listen("127.0.0.1:0").expect("bind");
        let stop = Arc::new(AtomicBool::new(false));
        let mut gated = StopGate::new(source, Arc::clone(&stop));
        let _client = TcpStream::connect(addr).expect("connect");
        only_idle(&mut gated, 20);
        stop.store(true, Ordering::Release);
        assert!(matches!(gated.try_next_chunk(), Ok(None)), "ends at once");
    }

    #[test]
    fn a_line_cut_by_a_close_ends_there_and_the_next_connection_follows() {
        let (addr, mut source) = listen("127.0.0.1:0").expect("bind");
        let mut first = TcpStream::connect(addr).expect("connect");
        // A record, then one cut short of its newline by the close: read as
        // the last line of a feed.
        let last = record(5);
        first
            .write_all((record(4) + last.trim_end()).as_bytes())
            .expect("send");
        drop(first);
        let mut seen = 0;
        while seen < 2 {
            seen += next_delivery(&mut source).expect("records");
        }
        assert_eq!(seen, 2);
        let mut second = TcpStream::connect(addr).expect("connect");
        second
            .write_all((record(6) + &record(7)).as_bytes())
            .expect("send");
        let mut seen = 0;
        while seen < 2 {
            seen += next_delivery(&mut source).expect("the next connection's records");
        }
        assert_eq!(seen, 2);
    }

    /// This process's thread ids, from `/proc/self/task`.
    #[cfg(target_os = "linux")]
    fn thread_ids() -> std::collections::BTreeSet<String> {
        let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
        let names = tasks.map(|task| task.expect("task").file_name());
        names
            .map(|name| name.to_string_lossy().into_owned())
            .collect()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn listening_and_reading_a_connection_start_no_thread() {
        // The test harness starts threads for other tests meanwhile; a
        // source that started one of its own would show a new thread id in
        // every attempt, each with its own listener.
        let no_new_thread = (0..10).any(|_| {
            let before = thread_ids();
            let (addr, mut source) = listen("127.0.0.1:0").expect("bind");
            let mut client = TcpStream::connect(addr).expect("connect");
            client.write_all(record(8).as_bytes()).expect("send");
            assert_eq!(next_delivery(&mut source).expect("a record"), 1);
            thread_ids().is_subset(&before)
        });
        assert!(no_new_thread);
    }
}
