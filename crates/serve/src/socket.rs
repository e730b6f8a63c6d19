//! `source = socket`: a live TCP ndjson listener.
//!
//! The stdin ndjson source covers pipelines (`exporter | flowrank-serve`),
//! but a daemon on a monitoring host receives records over the network.
//! [`listen`] binds a TCP port and pumps newline-delimited JSON records
//! from accepted connections into a
//! [`ChannelSource`] — the non-blocking
//! packet source whose `poll_chunk`/`Pending` contract lets the drive loop
//! idle politely (counted idle polls, stall detection) while the socket is
//! quiet.
//!
//! Each connection is read through the stdin path's source,
//! [`NdjsonRecordSource`], so the wire format, the 64 KiB line limit and
//! the malformed-record contract are the stdin path's: a bad line — not a
//! record, oversized, not UTF-8 — is forwarded as one recoverable
//! [`SourceError::Malformed`] and counted/skipped by the daemon's resilient
//! [`DrivePolicy`](flowrank_monitor::DrivePolicy), and the records behind
//! it on the same connection still arrive.
//!
//! Connections are served one at a time, each to EOF — the model is one
//! exporter streaming records, reconnecting if it restarts. The accept
//! loop polls the stop flag between connections and drops the channel
//! sender when it is raised, which ends the stream cleanly on the drive
//! side; a pump blocked mid-connection ends with the process instead.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

use flowrank_monitor::{ChannelSource, NdjsonRecordSource, PacketSource, SourceError};
use flowrank_net::PacketBatch;

/// How often the accept loop re-checks the stop flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

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
    let (sender, source) = ChannelSource::channel();
    std::thread::Builder::new()
        .name("flowrank-serve-socket".to_string())
        .spawn(move || pump(listener, sender, stop))?;
    Ok((bound, source))
}

/// The accept loop: one connection at a time, records forwarded line by
/// line. Returns (dropping the sender, ending the stream) when the stop
/// flag rises or the drive side hangs up.
fn pump(
    listener: TcpListener,
    sender: Sender<Result<PacketBatch, SourceError>>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Within a connection reads block: records arrive when the
                // exporter sends them, and the drive side idles on
                // `Pending` meanwhile.
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

/// Forwards one connection's records until EOF. Returns `false` when the
/// drive side hung up (the pump should exit).
fn pump_connection(
    stream: std::net::TcpStream,
    sender: &Sender<Result<PacketBatch, SourceError>>,
) -> bool {
    let mut source = NdjsonRecordSource::new(std::io::BufReader::new(stream));
    loop {
        let message = match source.try_next_chunk() {
            Ok(Some(record)) => Ok(record.clone()),
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
    use flowrank_monitor::SourcePoll;
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
            poll_until(&mut source, |source| match source.poll_chunk() {
                Ok(SourcePoll::Chunk(batch)) => Some(Ok(batch.len())),
                Ok(SourcePoll::Pending) => None,
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
        let ended = poll_until(&mut source, |source| match source.poll_chunk() {
            Ok(SourcePoll::End) => Some(true),
            Ok(SourcePoll::Pending) => None,
            other => panic!("unexpected poll: {other:?}"),
        });
        assert!(ended);
    }
}
