//! Flow-to-packet synthesis, one window of packets at a time.
//!
//! A [`SynthesisStream`] holds the *flow-level* records (memory proportional
//! to flows, not packets) and produces the packet trace one time window at a
//! time, each window as a ready-to-push SoA [`PacketBatch`]. It is the
//! crate's only flow-to-packet expansion: [`crate::synthesize_packets`],
//! [`crate::Workload::synthesize`], [`crate::Workload::synthesize_batch`] and
//! [`crate::export::export_flows_to_pcap`] drain it, and `Monitor::drive`
//! pulls it directly for the scenario workloads and the Figs. 12–16
//! experiments.
//!
//! # How a window is produced
//!
//! Packet placement draws come from one [`Pcg64`] stream consumed flow by
//! flow in generation order, one draw per packet of every flow that has more
//! than one packet and a non-zero duration. At construction the stream walks
//! that RNG once, snapshotting its state *before* each flow's draws (a
//! [`Pcg64`] is a few machine words). A window is then synthesised by
//! replaying, from its snapshot, every flow whose lifetime overlaps the
//! window and keeping the packets whose timestamps fall inside it; flows
//! enter and leave the active set as the window advances, so a window's cost
//! is proportional to the flows alive in it.
//!
//! # Order
//!
//! The trace has one order, the total key `(timestamp, flow index, packet
//! index)`: timestamps first, then generation order among packets on the
//! same nanosecond. Concatenating the windows yields the whole trace in that
//! order whatever the window length. It is exactly what listing every
//! packet flow by flow, packet by packet, and then sorting *stably* by
//! timestamp produces — this module's tests hold the stream to that
//! definition packet for packet.
//!
//! # Cost model
//!
//! Construction walks the placement RNG once (`O(total packets)`, no packet
//! storage). Each window then replays, from its snapshot, *every* packet of
//! every flow overlapping the window, keeping the in-window ones — so a
//! flow's expansion cost is its packet count times the number of windows
//! its lifetime spans. That is the right trade for short-lived flows (the
//! catalog's and the paper's mean lifetimes are well under one window); a
//! population dominated by flows living across many windows pays the
//! multiplier and would want per-flow resume state instead.

use flowrank_net::{CompactKey, PacketBatch, PacketRecord, Timestamp};
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
    /// Latest possible packet timestamp, `None` when no flow has a packet.
    last_nanos: Option<u64>,
    /// Next window index.
    window: u64,
    /// Cursor into `by_start`; flows before it have been activated.
    activated: usize,
    /// Flows whose lifetime may still overlap the current or later windows.
    active: Vec<u32>,
    /// Scratch: `(timestamp, flow index, packet index)` of the window.
    staged: Vec<(u64, u32, u32)>,
    batch: PacketBatch,
}

impl SynthesisStream {
    /// Prepares a stream over `flows` (taken by value: the flow vector is the
    /// stream's dominant memory term) with the given synthesis options and
    /// placement seed, in 60-second windows.
    pub fn new(flows: Vec<FlowRecord>, config: &SynthesisConfig, seed: u64) -> Self {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut draw_states = Vec::with_capacity(flows.len());
        let mut starts = Vec::with_capacity(flows.len());
        let mut ends = Vec::with_capacity(flows.len());
        let mut last_nanos = None;
        for flow in &flows {
            draw_states.push(rng.clone());
            // Advance the shared stream by exactly the draws this flow's
            // packets make when its windows are replayed.
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
                last_nanos = last_nanos.max(Some(end));
            }
        }
        // Generators emit flows in start order, so the stable sort merges a
        // few sorted runs; the order among equal starts is never observed.
        let mut by_start: Vec<u32> = (0..flows.len() as u32).collect();
        by_start.sort_by_key(|&i| starts[i as usize]);
        SynthesisStream {
            flows,
            draw_states,
            starts,
            ends,
            by_start,
            config: *config,
            window_nanos: DEFAULT_WINDOW.as_nanos(),
            last_nanos,
            window: 0,
            activated: 0,
            active: Vec::new(),
            staged: Vec::new(),
            batch: PacketBatch::new(),
        }
    }

    /// Sets the window length before the first window is taken. It only sets
    /// the chunk granularity: the packet sequence is the same for every
    /// length. [`Timestamp::ZERO`] keeps [`DEFAULT_WINDOW`].
    pub(crate) fn windowed(mut self, window: Timestamp) -> Self {
        debug_assert_eq!(self.window, 0, "the window is fixed once streaming starts");
        if window != Timestamp::ZERO {
            self.window_nanos = window.as_nanos();
        }
        self
    }

    /// Synthesises the next non-empty window of packets, or `None` when the
    /// trace is exhausted. The returned batch is owned by the stream and is
    /// overwritten by the next call.
    pub fn next_window(&mut self) -> Option<&PacketBatch> {
        if !self.stage_next_window() {
            return None;
        }
        self.batch.clear();
        self.batch.reserve(self.staged.len());
        for &(ts, flow_index, packet_index) in &self.staged {
            let flow = &self.flows[flow_index as usize];
            self.batch.push_columns(
                ts,
                flow.key.pack(),
                self.config.packet_bytes,
                Some(tcp_seq(packet_index, &self.config)),
            );
        }
        Some(&self.batch)
    }

    /// Stages the next non-empty window as its sorted `(timestamp, flow
    /// index, packet index)` keys; `false` once the trace is exhausted.
    fn stage_next_window(&mut self) -> bool {
        let windows = self
            .last_nanos
            .map_or(0, |last| last / self.window_nanos + 1);
        while self.window < windows {
            let lo = self.window * self.window_nanos;
            let hi = lo.saturating_add(self.window_nanos);
            let last = self.window + 1 == windows;
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
                    // The final window is closed on the right: only there can
                    // `hi` have saturated at `u64::MAX` (always, in a
                    // whole-trace drain), which a saturated timestamp equals.
                    if ts >= lo && (ts < hi || (last && ts == hi)) {
                        self.staged.push((ts, flow_index, i as u32));
                    }
                }
            }
            if !self.staged.is_empty() {
                // The key is unique, so this is the module's one order.
                self.staged.sort_unstable();
                return true;
            }
        }
        false
    }

    /// Drains the whole stream into one batch: one window as long as time
    /// itself, so every flow is replayed once and nothing is copied.
    pub(crate) fn into_batch(self) -> PacketBatch {
        let mut whole = self.windowed(Timestamp::from_nanos(u64::MAX));
        whole.next_window();
        whole.batch
    }

    /// Drains the whole stream into one record vector, from the same single
    /// window's keys.
    pub(crate) fn into_records(self) -> Vec<PacketRecord> {
        let mut whole = self.windowed(Timestamp::from_nanos(u64::MAX));
        whole.stage_next_window();
        let (flows, config) = (&whole.flows, &whole.config);
        whole
            .staged
            .iter()
            .map(|&(ts, flow_index, packet_index)| {
                let key = flows[flow_index as usize].key;
                PacketRecord {
                    timestamp: Timestamp::from_nanos(ts),
                    src_ip: key.src_ip,
                    dst_ip: key.dst_ip,
                    src_port: key.src_port,
                    dst_port: key.dst_port,
                    protocol: key.protocol,
                    length: config.packet_bytes,
                    tcp_seq: Some(tcp_seq(packet_index, config)),
                }
            })
            .collect()
    }
}

/// The synthetic TCP sequence number of a flow's `packet_index`-th packet:
/// its byte offset within the flow.
fn tcp_seq(packet_index: u32, config: &SynthesisConfig) -> u32 {
    (packet_index as u64 * config.packet_bytes as u64) as u32
}

/// Whether `flow`'s placement consumes one RNG draw per packet.
fn placement_draws(flow: &FlowRecord, config: &SynthesisConfig) -> bool {
    config.uniform_placement && flow.packets > 1 && flow.duration != 0.0
}

/// The definition the stream is held to: every packet listed flow by flow,
/// packet by packet, with the same placement draws, then sorted *stably* by
/// timestamp.
#[cfg(test)]
pub(crate) fn materialise_and_sort(
    flows: &[FlowRecord],
    config: &SynthesisConfig,
    seed: u64,
) -> Vec<PacketRecord> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut packets = Vec::new();
    for flow in flows {
        let n = flow.packets;
        for i in 0..n {
            let offset = if n == 1 || flow.duration == 0.0 {
                0.0
            } else if config.uniform_placement {
                rng.next_f64() * flow.duration
            } else {
                flow.duration * i as f64 / (n - 1) as f64
            };
            packets.push(PacketRecord {
                timestamp: Timestamp::from_secs_f64(flow.start + offset),
                src_ip: flow.key.src_ip,
                dst_ip: flow.key.dst_ip,
                src_port: flow.key.src_port,
                dst_port: flow.key.dst_port,
                protocol: flow.key.protocol,
                length: config.packet_bytes,
                tcp_seq: Some((i * config.packet_bytes as u64) as u32),
            });
        }
    }
    packets.sort_by_key(|p| p.timestamp);
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_record::synthetic_key;
    use crate::workloads::{Workload, SYNTHESIS_SALT};
    use crate::{AbileneModel, SprintModel};
    use std::net::Ipv4Addr;

    fn drain(stream: &mut SynthesisStream) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        while let Some(batch) = stream.next_window() {
            assert!(!batch.is_empty(), "next_window never yields empty batches");
            out.extend(batch.iter_records());
        }
        out
    }

    /// Holds both the windowed stream and the whole-trace drain of `flows` to
    /// the stable-sort definition.
    fn assert_matches_oracle(flows: Vec<FlowRecord>, config: &SynthesisConfig, seed: u64) {
        let oracle = materialise_and_sort(&flows, config, seed);
        let mut windowed = SynthesisStream::new(flows.clone(), config, seed);
        assert_eq!(drain(&mut windowed), oracle);
        assert_eq!(
            SynthesisStream::new(flows, config, seed).into_records(),
            oracle
        );
    }

    #[test]
    fn every_catalog_stream_matches_its_materialised_trace() {
        for workload in Workload::catalog() {
            let seed = 0xBEE5;
            let oracle = materialise_and_sort(
                &workload.generate_flows(seed),
                &SynthesisConfig::default(),
                seed ^ SYNTHESIS_SALT,
            );
            let mut stream = workload.stream(seed);
            assert_eq!(drain(&mut stream), oracle, "{}", workload.name());
            assert!(stream.next_window().is_none(), "stream stays exhausted");
        }
    }

    #[test]
    fn small_sprint_stream_matches_the_oracle() {
        let flows = SprintModel::small(130.0, 30.0).generate_flows(3);
        assert_matches_oracle(flows, &SynthesisConfig::default(), 3);
    }

    #[test]
    fn figure_traces_match_the_oracle() {
        // The Figs. 12–16 populations at the figure goldens' scale, with the
        // placement salts `flowrank-sim`'s scenario helpers use.
        let config = SynthesisConfig::default();
        assert_matches_oracle(
            SprintModel::paper(0.005).generate_flows(2026),
            &config,
            2026 ^ 0xA5A5,
        );
        assert_matches_oracle(
            AbileneModel::paper(0.005).generate_flows(16),
            &config,
            16 ^ 0x5A5A,
        );
    }

    #[test]
    fn same_nanosecond_packets_follow_flow_then_packet_order() {
        // Flow 0 (two packets of zero duration) and flow 1 (one packet) share
        // a nanosecond; flow 2 comes first in time but last in generation.
        let flow = |index: u64, packets: u64, start: f64| {
            let key = synthetic_key(index, Ipv4Addr::new(100, 64, 0, 10), 80);
            FlowRecord::new(key, packets, packets * 500, start, 0.0)
        };
        let flows = vec![flow(7, 2, 1.0), flow(3, 1, 1.0), flow(5, 1, 0.5)];
        let config = SynthesisConfig::default();
        let streamed = SynthesisStream::new(flows.clone(), &config, 1).into_records();
        let order: Vec<(Ipv4Addr, Option<u32>)> =
            streamed.iter().map(|p| (p.src_ip, p.tcp_seq)).collect();
        let src = |i: usize| flows[i].key.src_ip;
        assert_eq!(
            order,
            [
                (src(2), Some(0)),
                (src(0), Some(0)),
                (src(0), Some(500)),
                (src(1), Some(0))
            ]
        );
        assert_eq!(streamed, materialise_and_sort(&flows, &config, 1));
    }

    #[test]
    fn window_length_does_not_change_the_stream() {
        let workload = Workload::ddos_flood();
        let flows = workload.generate_flows(3);
        let config = SynthesisConfig::default();
        let stream = |window: Timestamp| {
            drain(&mut SynthesisStream::new(flows.clone(), &config, 3).windowed(window))
        };
        let baseline = stream(DEFAULT_WINDOW);
        for secs in [0.25, 7.0, 61.0, 10_000.0] {
            assert_eq!(
                stream(Timestamp::from_secs_f64(secs)),
                baseline,
                "window {secs}s"
            );
        }
        // Zero keeps the default window.
        assert_eq!(stream(Timestamp::ZERO), baseline);
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
        assert_matches_oracle(flows, &config, 4);
    }

    #[test]
    fn empty_population_streams_nothing() {
        let mut stream = SynthesisStream::new(Vec::new(), &SynthesisConfig::default(), 1);
        assert!(stream.next_window().is_none());
        assert!(stream.flows.is_empty());
    }
}
