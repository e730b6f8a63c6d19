//! Streaming flow-to-packet synthesis: windows of packets on demand.
//!
//! [`crate::synthesize_packets`] materialises a whole trace before anything
//! downstream runs, so experiment length is capped by RAM. This module is
//! the pull-based form of the same expansion: a [`SynthesisStream`] holds
//! the *flow-level* records (memory proportional to flows, not packets) and
//! produces the packet trace one time window at a time, each window as a
//! ready-to-push SoA [`PacketBatch`]. It is the packet source behind
//! `Monitor::drive` for scenario workloads.
//!
//! # How a window is produced
//!
//! Packet placement draws come from one [`Pcg64`] stream consumed flow by
//! flow in generation order — exactly the draws [`crate::synthesize_packets`]
//! makes. At construction the stream walks that RNG once, snapshotting its
//! state *before* each flow's draws (a [`Pcg64`] is a few machine words).
//! A window is then synthesised by replaying, from its snapshot, every flow
//! whose lifetime overlaps the window and keeping the packets whose
//! timestamps fall inside it; flows enter and leave the active set as the
//! window advances, so a window's cost is proportional to the flows alive
//! in it.
//!
//! # Ordering contract
//!
//! Within a window, packets are ordered by the total key
//! `(timestamp, flow index, packet index)`; concatenating all windows yields
//! the whole trace in that order. [`crate::synthesize_packets`] sorts with
//! an *unstable* sort whose order among equal timestamps is unspecified, so
//! the two traces can permute packets that share a timestamp. The
//! systematic source of equal timestamps is multi-packet flows of zero
//! duration, whose packets differ only in their TCP sequence number — a
//! field no `flowrank-monitor` report depends on — so for such ties the
//! permutation is report-invisible, and the drive-path conformance tests
//! pin the streamed and materialised paths to bit-identical reports for the
//! pinned scenarios. *Cross-flow* nanosecond collisions (two continuous
//! arrival processes rounding to the same nanosecond) are also possible,
//! just vanishingly rare at catalog scale; if one ever lands on opposite
//! sides of the two sort orders, the streamed and materialised *packet
//! sequences* — and hence the sampled reports — may differ, which the
//! conformance harness reports loudly rather than papering over. The
//! streamed order is the canonical one: it is a pure function of the
//! workload, not of a sort implementation.
//!
//! # Cost model
//!
//! Construction walks the placement RNG once (`O(total packets)`, no packet
//! storage). Each window then replays, from its snapshot, *every* packet of
//! every flow overlapping the window, keeping the in-window ones — so a
//! flow's expansion cost is its packet count times the number of windows
//! its lifetime spans. That is the right trade for the catalog's
//! short-lived flows (mean lifetime well under one window); a population
//! dominated by flows living across many windows pays the multiplier and
//! would want per-flow resume state instead.

use flowrank_net::{CompactKey, PacketBatch, Timestamp};
use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};

use crate::flow_record::FlowRecord;
use crate::synthesis::SynthesisConfig;

/// Default window length: one of the paper's 60-second measurement bins.
pub(crate) const DEFAULT_WINDOW: Timestamp = Timestamp::from_nanos(60_000_000_000);

/// A pull-based packet synthesiser: yields the trace window by window.
///
/// Construct one with [`SynthesisStream::new`] (or
/// [`crate::Workload::stream`] for a scenario) and call
/// [`SynthesisStream::next_window`] until it returns `None`. Peak memory is
/// the flow population plus one window of packets, independent of trace
/// length.
#[derive(Debug)]
pub struct SynthesisStream {
    flows: Vec<FlowRecord>,
    /// RNG state immediately before each flow's placement draws.
    draw_states: Vec<Pcg64>,
    /// First/last possible packet timestamp of each flow, in nanoseconds.
    starts: Vec<u64>,
    ends: Vec<u64>,
    /// Flow indices ordered by `starts`, consumed as windows advance.
    by_start: Vec<u32>,
    config: SynthesisConfig,
    window_nanos: u64,
    /// Next window index, and one past the last non-empty window.
    window: u64,
    windows: u64,
    /// Cursor into `by_start`; flows before it have been activated.
    activated: usize,
    /// Flows whose lifetime may still overlap the current or later windows.
    active: Vec<u32>,
    /// Scratch: `(timestamp, flow index, packet index)` of the window.
    staged: Vec<(u64, u32, u32)>,
    batch: PacketBatch,
}

impl SynthesisStream {
    /// Prepares a stream over `flows` with the given synthesis options and
    /// placement seed — the streaming counterpart of
    /// [`crate::synthesize_packets`] with the same arguments.
    pub fn new(flows: &[FlowRecord], config: &SynthesisConfig, seed: u64) -> Self {
        Self::with_window(flows, config, seed, DEFAULT_WINDOW)
    }

    /// [`SynthesisStream::new`] with an explicit window length. Reports are
    /// invariant to the window length (it only sets the chunk granularity);
    /// [`Timestamp::ZERO`] is treated as [`DEFAULT_WINDOW`].
    pub(crate) fn with_window(
        flows: &[FlowRecord],
        config: &SynthesisConfig,
        seed: u64,
        window: Timestamp,
    ) -> Self {
        Self::from_flows(flows.to_vec(), config, seed, window)
    }

    /// [`SynthesisStream::with_window`] taking the flow population by value
    /// — the flow vector is the stream's dominant memory term, so callers
    /// that generate flows just to stream them (e.g.
    /// [`crate::Workload::stream`]) hand them over instead of copying.
    pub(crate) fn from_flows(
        flows: Vec<FlowRecord>,
        config: &SynthesisConfig,
        seed: u64,
        window: Timestamp,
    ) -> Self {
        let window_nanos = if window == Timestamp::ZERO {
            DEFAULT_WINDOW.as_nanos()
        } else {
            window.as_nanos()
        };
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut draw_states = Vec::with_capacity(flows.len());
        let mut starts = Vec::with_capacity(flows.len());
        let mut ends = Vec::with_capacity(flows.len());
        let mut max_end = 0u64;
        for flow in &flows {
            draw_states.push(rng.clone());
            // Advance the shared stream by exactly the draws
            // `synthesize_packets` makes for this flow.
            if placement_draws(flow, config) {
                for _ in 0..flow.packets {
                    rng.next_f64();
                }
            }
            // Packet timestamps are `from_secs_f64(start + offset)` with
            // `0 <= offset <= duration`; the conversion is monotone, so the
            // flow's packets live in this closed nanosecond interval.
            let start = Timestamp::from_secs_f64(flow.start).as_nanos();
            let end = Timestamp::from_secs_f64(flow.start + flow.duration).as_nanos();
            starts.push(start);
            ends.push(end);
            if flow.packets > 0 {
                max_end = max_end.max(end);
            }
        }
        let mut by_start: Vec<u32> = (0..flows.len() as u32).collect();
        by_start.sort_unstable_by_key(|&i| starts[i as usize]);
        let windows = if flows.iter().all(|f| f.packets == 0) {
            0
        } else {
            max_end / window_nanos + 1
        };
        SynthesisStream {
            flows,
            draw_states,
            starts,
            ends,
            by_start,
            config: *config,
            window_nanos,
            window: 0,
            windows,
            activated: 0,
            active: Vec::new(),
            staged: Vec::new(),
            batch: PacketBatch::new(),
        }
    }

    /// Synthesises the next non-empty window of packets, or `None` when the
    /// trace is exhausted. The returned batch is owned by the stream and is
    /// overwritten by the next call.
    pub fn next_window(&mut self) -> Option<&PacketBatch> {
        while self.window < self.windows {
            let lo = self.window * self.window_nanos;
            let hi = lo.saturating_add(self.window_nanos);
            let last = self.window + 1 == self.windows;
            self.window += 1;

            // Admit flows whose earliest packet can fall before the window
            // ends; retire flows already past.
            while self.activated < self.by_start.len() {
                let flow = self.by_start[self.activated];
                if self.starts[flow as usize] >= hi {
                    break;
                }
                self.active.push(flow);
                self.activated += 1;
            }
            let ends = &self.ends;
            self.active.retain(|&flow| ends[flow as usize] >= lo);

            self.staged.clear();
            for &flow_index in &self.active {
                let flow = &self.flows[flow_index as usize];
                let draws = placement_draws(flow, &self.config);
                let mut rng = self.draw_states[flow_index as usize].clone();
                for i in 0..flow.packets {
                    let offset = if !draws {
                        if flow.packets == 1 || flow.duration == 0.0 {
                            0.0
                        } else {
                            flow.duration * i as f64 / (flow.packets - 1) as f64
                        }
                    } else {
                        rng.next_f64() * flow.duration
                    };
                    let ts = Timestamp::from_secs_f64(flow.start + offset).as_nanos();
                    // The final window is closed on the right so the very
                    // last timestamp (== max_end) is not dropped.
                    if ts >= lo && (ts < hi || (last && ts == hi)) {
                        self.staged.push((ts, flow_index, i as u32));
                    }
                }
            }
            if self.staged.is_empty() {
                continue;
            }
            // The key is unique, so this total order is what the module docs
            // promise: timestamp first, generation order among ties.
            self.staged.sort_unstable();
            self.batch.clear();
            self.batch.reserve(self.staged.len());
            for &(ts, flow_index, packet_index) in &self.staged {
                let flow = &self.flows[flow_index as usize];
                self.batch.push_columns(
                    ts,
                    flow.key.pack(),
                    self.config.packet_bytes,
                    Some((packet_index as u64 * self.config.packet_bytes as u64) as u32),
                );
            }
            return Some(&self.batch);
        }
        None
    }
}

/// Whether `synthesize_packets` consumes one RNG draw per packet of `flow`.
fn placement_draws(flow: &FlowRecord, config: &SynthesisConfig) -> bool {
    config.uniform_placement && flow.packets > 1 && flow.duration != 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::synthesize_packets;
    use crate::workloads::Workload;
    use flowrank_net::PacketRecord;
    use std::collections::HashMap;

    fn drain(stream: &mut SynthesisStream) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        while let Some(batch) = stream.next_window() {
            assert!(!batch.is_empty(), "next_window never yields empty batches");
            out.extend(batch.iter_records());
        }
        out
    }

    /// The streamed trace must equal the materialised one up to permutations
    /// within one timestamp — and any permuted pair must be two packets of
    /// the same flow with the same length (only `tcp_seq` may differ), which
    /// is what makes the permutation invisible to every monitor report.
    fn assert_equivalent(streamed: &[PacketRecord], materialised: &[PacketRecord], label: &str) {
        assert_eq!(streamed.len(), materialised.len(), "{label}: packet count");
        for (a, b) in streamed.iter().zip(materialised) {
            if a == b {
                continue;
            }
            assert_eq!(a.timestamp, b.timestamp, "{label}: tie permutation only");
            assert_eq!(a.length, b.length, "{label}");
            assert_eq!(
                (a.src_ip, a.dst_ip, a.src_port, a.dst_port, a.protocol),
                (b.src_ip, b.dst_ip, b.src_port, b.dst_port, b.protocol),
                "{label}: permuted packets must share their flow"
            );
        }
        // And as multisets the two traces are identical.
        let mut counts: HashMap<String, i64> = HashMap::new();
        for p in streamed {
            *counts.entry(format!("{p:?}")).or_default() += 1;
        }
        for p in materialised {
            *counts.entry(format!("{p:?}")).or_default() -= 1;
        }
        assert!(
            counts.values().all(|&c| c == 0),
            "{label}: multiset mismatch"
        );
    }

    #[test]
    fn every_catalog_stream_matches_its_materialised_trace() {
        for workload in Workload::catalog() {
            let seed = 0xBEE5;
            let materialised = workload.synthesize(seed);
            let mut stream = workload.stream(seed);
            let streamed = drain(&mut stream);
            assert_equivalent(&streamed, &materialised, workload.name());
            assert!(stream.next_window().is_none(), "stream stays exhausted");
        }
    }

    #[test]
    fn window_length_does_not_change_the_stream() {
        let workload = Workload::ddos_flood();
        let flows = workload.generate_flows(3);
        let config = SynthesisConfig::default();
        let baseline = drain(&mut SynthesisStream::new(&flows, &config, 3));
        for secs in [0.25, 7.0, 61.0, 10_000.0] {
            let mut stream =
                SynthesisStream::with_window(&flows, &config, 3, Timestamp::from_secs_f64(secs));
            assert_eq!(drain(&mut stream), baseline, "window {secs}s");
        }
        // Zero falls back to the default window.
        let mut stream = SynthesisStream::with_window(&flows, &config, 3, Timestamp::ZERO);
        assert_eq!(drain(&mut stream), baseline);
    }

    #[test]
    fn stream_is_sorted_and_deterministic() {
        let workload = Workload::rank_churn();
        let a = drain(&mut workload.stream(9));
        let b = drain(&mut workload.stream(9));
        assert_eq!(a, b);
        for pair in a.windows(2) {
            assert!(pair[0].timestamp <= pair[1].timestamp);
        }
        let c = drain(&mut workload.stream(10));
        assert_ne!(a, c, "seed-sensitive");
    }

    #[test]
    fn even_placement_streams_identically() {
        let flows = Workload::heavy_tail(1.5).generate_flows(4);
        let config = SynthesisConfig {
            uniform_placement: false,
            ..SynthesisConfig::default()
        };
        let streamed = drain(&mut SynthesisStream::new(&flows, &config, 4));
        let materialised = synthesize_packets(&flows, &config, 4);
        assert_equivalent(&streamed, &materialised, "even placement");
    }

    #[test]
    fn empty_population_streams_nothing() {
        let mut stream = SynthesisStream::new(&[], &SynthesisConfig::default(), 1);
        assert!(stream.next_window().is_none());
        assert!(stream.flows.is_empty());
    }
}
