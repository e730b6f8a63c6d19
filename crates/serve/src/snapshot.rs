//! The rolling-state publisher and its poll endpoint.
//!
//! [`PublishSink`] is the daemon's primary [`ReportSink`]: each closed bin
//! is folded into a bounded [`RollingWindow`], the window is rendered to
//! one JSON object, and the rendered snapshot is swapped into a
//! [`SnapshotPublisher`] that any number of pollers read concurrently.
//!
//! The endpoint wraps every response as
//! `{"age_s": <seconds since last publish>, "state": <snapshot|null>}`.
//! `age_s` is the **source-starvation watchdog**: the monitor only
//! publishes when a bin closes, so a poller that sees `age_s` grow far past
//! the bin length knows the source stopped delivering — even while the
//! daemon itself is healthy and politely idle-polling.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flowrank_monitor::{BinReport, ReportSink, RollingWindow};

#[derive(Debug)]
struct Shared {
    json: String,
    published_at: Option<Instant>,
}

/// A thread-safe slot holding the latest rendered snapshot, plus the tiny
/// HTTP endpoint that serves it.
#[derive(Debug, Clone)]
pub struct SnapshotPublisher {
    shared: Arc<Mutex<Shared>>,
}

impl Default for SnapshotPublisher {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotPublisher {
    /// An empty publisher: polls answer `"state": null` until the first
    /// `SnapshotPublisher::publish`.
    pub fn new() -> Self {
        SnapshotPublisher {
            shared: Arc::new(Mutex::new(Shared {
                json: String::new(),
                published_at: None,
            })),
        }
    }

    /// Replaces the current snapshot.
    pub(crate) fn publish(&self, json: &str) {
        let mut shared = self.shared.lock().expect("snapshot lock");
        shared.json.clear();
        shared.json.push_str(json);
        shared.published_at = Some(Instant::now());
    }

    /// The response body a poller would receive right now.
    pub fn render_poll(&self) -> String {
        let shared = self.shared.lock().expect("snapshot lock");
        match shared.published_at {
            None => "{\"age_s\":null,\"state\":null}".to_string(),
            Some(at) => format!(
                "{{\"age_s\":{:.3},\"state\":{}}}",
                at.elapsed().as_secs_f64(),
                shared.json
            ),
        }
    }

    /// Binds `addr` and serves snapshot polls from a background thread for
    /// the rest of the process. Returns the bound address (pass port `0`
    /// to pick a free one). Each connection receives one HTTP/1.1 response
    /// with the [`SnapshotPublisher::render_poll`] body and is closed —
    /// enough for `curl`, `nc`, or a scraper.
    pub fn serve(&self, addr: impl ToSocketAddrs) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let publisher = self.clone();
        std::thread::Builder::new()
            .name("flowrank-serve-snapshot".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    let Ok(mut stream) = stream else { continue };
                    // Drain the request up to the end of its headers (best
                    // effort — plain `nc` sends nothing, so each read is
                    // capped at 200 ms). Clients may deliver the request in
                    // several writes; answering after the first one would
                    // close the socket with bytes still in flight, and the
                    // resulting RST eats the response.
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                    let mut scratch = [0u8; 1024];
                    let mut filled = 0;
                    loop {
                        match stream.read(&mut scratch[filled..]) {
                            Ok(0) => break,
                            Ok(n) => {
                                filled += n;
                                let headers_done = scratch[..filled]
                                    .windows(4)
                                    .any(|w| w == b"\r\n\r\n");
                                if headers_done || filled == scratch.len() {
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                    }
                    let body = publisher.render_poll();
                    let _ = write!(
                        stream,
                        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                        body.len(),
                        body
                    );
                }
            })?;
        Ok(bound)
    }
}

/// The daemon's report sink: rolling window + snapshot publication + the
/// optional bin-count limiter.
#[derive(Debug)]
pub struct PublishSink {
    window: RollingWindow,
    publisher: SnapshotPublisher,
    scratch: String,
    /// Raise `stop` after this many bins (`0` = never): the clean-exit
    /// hook smoke tests and finite serving runs use.
    max_bins: u64,
    stop: Option<Arc<AtomicBool>>,
}

impl PublishSink {
    /// A sink retaining `retain_bins` summaries and publishing each new
    /// snapshot to `publisher`.
    pub fn new(retain_bins: usize, publisher: SnapshotPublisher) -> Self {
        PublishSink {
            window: RollingWindow::new(retain_bins),
            publisher,
            scratch: String::new(),
            max_bins: 0,
            stop: None,
        }
    }

    /// Raises `stop` once `max_bins` bins have closed (`0` disables).
    pub fn stop_after(mut self, max_bins: u64, stop: Arc<AtomicBool>) -> Self {
        self.max_bins = max_bins;
        self.stop = Some(stop);
        self
    }

    /// The rolling window behind the snapshot.
    pub fn window(&self) -> &RollingWindow {
        &self.window
    }
}

impl ReportSink for PublishSink {
    fn accept(&mut self, report: &BinReport) {
        self.window.accept(report);
        self.window.render_json(&mut self.scratch);
        self.publisher.publish(&self.scratch);
        if self.max_bins > 0 && self.window.bins_seen() >= self.max_bins {
            if let Some(stop) = &self.stop {
                stop.store(true, Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    #[test]
    fn polls_report_null_then_the_published_state_with_age() {
        let publisher = SnapshotPublisher::new();
        assert_eq!(publisher.render_poll(), "{\"age_s\":null,\"state\":null}");
        publisher.publish("{\"bins_seen\":3}");
        let poll = publisher.render_poll();
        assert!(poll.starts_with("{\"age_s\":0."), "{poll}");
        assert!(poll.ends_with(",\"state\":{\"bins_seen\":3}}"), "{poll}");
    }

    #[test]
    fn the_endpoint_answers_http_polls() {
        let publisher = SnapshotPublisher::new();
        publisher.publish("{\"ok\":true}");
        let addr = publisher.serve("127.0.0.1:0").expect("bind");
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("request");
        let mut reader = std::io::BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).expect("status line");
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        let mut body = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            body = line.trim().to_string();
        }
        assert!(body.contains("\"state\":{\"ok\":true}"), "{body}");
    }
}
