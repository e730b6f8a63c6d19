//! Real-time paced replay of a synthesised workload.
//!
//! A [`SynthesisStream`] produces its windows as fast as the caller pulls
//! them; a [`PacedReplay`] wraps one and meters the windows out on the wall
//! clock instead, so a long-lived monitor (the `flowrank-serve` daemon) can
//! replay a scenario the way a live link would deliver it. The replay is
//! *non-blocking by construction*: [`PacedReplay::tick`] answers whether the
//! next window is due now, not yet (and how long until it is), or the trace
//! is over — the caller decides whether to sleep, poll something else, or
//! shut down. Pacing never changes the packet sequence: a paced drive is
//! bit-identical to driving the underlying stream directly.
//!
//! Pacing granularity is the synthesis window: a window's packets are
//! released together when the window's *first* timestamp falls due. Choose
//! the window length ([`crate::Workload::stream_with_window`]) for the
//! latency/overhead trade: sub-second windows make the replay smooth,
//! bin-length windows make it bursty.

use std::time::{Duration, Instant};

use flowrank_net::PacketBatch;

use crate::stream::SynthesisStream;

/// What one [`PacedReplay::tick`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayTick {
    /// The next window's first timestamp has been reached: take it with
    /// [`PacedReplay::take_window`].
    Due,
    /// The next window exists but is not yet due; the payload is how much
    /// wall time remains until it is.
    NotYet(Duration),
    /// The trace is exhausted.
    Done,
}

/// Wall-clock pacing over a [`SynthesisStream`].
///
/// `speed` is trace-seconds per wall-second: `1.0` replays in real time,
/// `60.0` replays a minute of trace per second, and any value `<= 0.0`
/// disables pacing entirely (every window is immediately [`ReplayTick::Due`]
/// — the as-fast-as-possible mode benchmarks use). The wall clock starts at
/// the first `tick`, anchored to the trace's first packet timestamp, so
/// leading quiet time in the trace is not replayed as dead air.
#[derive(Debug)]
pub struct PacedReplay {
    stream: SynthesisStream,
    speed: f64,
    epoch: Option<Instant>,
    origin_nanos: u64,
    /// A staged window is held here (copied out of the stream's recycled
    /// buffer) until the caller takes it.
    batch: PacketBatch,
    held: bool,
    held_first_nanos: u64,
}

impl PacedReplay {
    /// Paces `stream` at `speed` trace-seconds per wall-second.
    pub fn new(stream: SynthesisStream, speed: f64) -> Self {
        PacedReplay {
            stream,
            speed,
            epoch: None,
            origin_nanos: 0,
            batch: PacketBatch::new(),
            held: false,
            held_first_nanos: 0,
        }
    }

    /// An unpaced replay: every window is due immediately. Equivalent to
    /// driving the stream directly, plus one copy per window.
    pub fn unpaced(stream: SynthesisStream) -> Self {
        PacedReplay::new(stream, 0.0)
    }

    /// Stages the next window if none is staged, then answers whether it is
    /// due on the wall clock. Never sleeps.
    pub fn tick(&mut self) -> ReplayTick {
        if !self.held {
            match self.stream.next_window() {
                None => return ReplayTick::Done,
                Some(window) => {
                    self.batch.clear();
                    self.batch.extend_from_batch(window, 0..window.len());
                    // next_window never yields an empty batch.
                    self.held_first_nanos = self.batch.ts_nanos()[0];
                    self.held = true;
                }
            }
        }
        if self.speed <= 0.0 {
            return ReplayTick::Due;
        }
        let epoch = match self.epoch {
            Some(epoch) => epoch,
            None => {
                let now = Instant::now();
                self.epoch = Some(now);
                self.origin_nanos = self.held_first_nanos;
                now
            }
        };
        let due_wall_nanos =
            ((self.held_first_nanos - self.origin_nanos) as f64 / self.speed) as u64;
        let elapsed_nanos = epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if elapsed_nanos >= due_wall_nanos {
            ReplayTick::Due
        } else {
            ReplayTick::NotYet(Duration::from_nanos(due_wall_nanos - elapsed_nanos))
        }
    }

    /// Takes the staged window after a [`ReplayTick::Due`]. The borrow is
    /// valid until the next [`PacedReplay::tick`].
    ///
    /// # Panics
    ///
    /// If no window is staged (no preceding `Due` tick).
    pub fn take_window(&mut self) -> &PacketBatch {
        assert!(self.held, "take_window without a Due tick");
        self.held = false;
        &self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use flowrank_net::PacketRecord;

    fn drain_paced(replay: &mut PacedReplay) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        loop {
            match replay.tick() {
                ReplayTick::Due => out.extend(replay.take_window().iter_records()),
                ReplayTick::NotYet(wait) => std::thread::sleep(wait),
                ReplayTick::Done => return out,
            }
        }
    }

    #[test]
    fn unpaced_replay_equals_the_raw_stream() {
        let workload = Workload::rank_churn();
        let mut direct = Vec::new();
        let mut stream = workload.stream(11);
        while let Some(window) = stream.next_window() {
            direct.extend(window.iter_records());
        }
        let mut replay = PacedReplay::unpaced(workload.stream(11));
        assert_eq!(drain_paced(&mut replay), direct);
        assert_eq!(replay.tick(), ReplayTick::Done, "stays exhausted");
    }

    #[test]
    fn extreme_speed_factors_release_everything_quickly_and_identically() {
        let workload = Workload::port_scan();
        let baseline = drain_paced(&mut PacedReplay::unpaced(workload.stream(5)));
        // A workload spanning minutes of trace time replays in microseconds
        // at this speed; pacing must only delay, never reorder or drop.
        let mut fast = PacedReplay::new(workload.stream(5), 1e9);
        assert_eq!(drain_paced(&mut fast), baseline);
    }

    #[test]
    fn pacing_delays_the_second_window() {
        // Two windows far apart in trace time: at a modest speed the second
        // is NotYet immediately after the first is taken.
        let workload = Workload::rank_churn();
        let mut replay = PacedReplay::new(workload.stream(3), 60.0);
        assert_eq!(replay.tick(), ReplayTick::Due, "first window is due now");
        let first_len = replay.take_window().len();
        assert!(first_len > 0);
        match replay.tick() {
            ReplayTick::NotYet(wait) => assert!(wait > Duration::ZERO),
            other => panic!("second window should be paced, got {other:?}"),
        }
    }
}
