//! Rolling serving state: a bounded sliding window of per-bin summaries.
//!
//! A long-lived monitor (the `flowrank-serve` daemon) cannot keep every
//! [`BinReport`] — a report carries `runs × rates` lanes, and the stream
//! never ends. [`RollingWindow`] is the serving-side [`ReportSink`]: it
//! folds each closed bin into a compact [`BinSummary`] (per-rate accuracy
//! means, the current top-k list, packet/flow totals), retains only the most
//! recent `retain` of them, and renders the whole state as one JSON snapshot
//! on demand. Memory is `O(retain × rates × top_t)` — independent of how
//! long the daemon has been running — and summaries are recycled front to
//! back, so steady-state bin closes reuse the evicted summary's allocations.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::pipeline::ReportSink;
use crate::report::BinReport;

/// Mean accuracy of one sampling rate's lanes in one bin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RateSummary {
    /// Nominal sampling rate.
    pub rate: f64,
    /// Index in the monitor's rate grid (see
    /// [`LaneReport::rate_id`](crate::LaneReport::rate_id)).
    pub rate_id: usize,
    /// Lanes that ran at this rate.
    pub lanes: usize,
    /// Mean ranking metric (weighted swapped pairs) across the lanes.
    pub mean_ranking: f64,
    /// Mean detection metric (top-t boundary swaps) across the lanes.
    pub mean_detection: f64,
    /// Mean packets the lanes retained.
    pub mean_sampled_packets: f64,
}

/// One bin of a [`RollingWindow`]: everything the serving snapshot keeps
/// after the full [`BinReport`] is recycled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BinSummary {
    /// 0-based bin index since time zero.
    pub bin_index: u64,
    /// Bin start in trace seconds.
    pub bin_start_secs: f64,
    /// Packets observed in the bin (before sampling).
    pub packets: u64,
    /// Distinct ground-truth flows in the bin.
    pub flows: usize,
    /// One summary per sampling rate, in rate-grid order.
    pub rates: Vec<RateSummary>,
    /// The top-k list of the first lane that ran a backend: rendered flow
    /// key and estimated size, largest first.
    pub top: Vec<(String, u64)>,
}

impl BinSummary {
    fn fill(&mut self, report: &BinReport) {
        self.bin_index = report.bin_index;
        self.bin_start_secs = report.bin_start.as_secs_f64();
        self.packets = report.packets;
        self.flows = report.flows;
        self.rates.clear();
        for lane in &report.lanes {
            let slot = match self.rates.iter_mut().find(|r| r.rate_id == lane.rate_id) {
                Some(slot) => slot,
                None => {
                    self.rates.push(RateSummary {
                        rate: lane.rate,
                        rate_id: lane.rate_id,
                        ..RateSummary::default()
                    });
                    self.rates.last_mut().expect("just pushed")
                }
            };
            slot.lanes += 1;
            slot.mean_ranking += lane.ranking_metric();
            slot.mean_detection += lane.detection_metric();
            slot.mean_sampled_packets += lane.sampled_packets as f64;
        }
        for slot in &mut self.rates {
            let n = slot.lanes.max(1) as f64;
            slot.mean_ranking /= n;
            slot.mean_detection /= n;
            slot.mean_sampled_packets /= n;
        }
        self.rates.sort_by_key(|r| r.rate_id);
        self.top.clear();
        if let Some(topk) = report.lanes.iter().find_map(|lane| lane.topk.as_ref()) {
            for entry in &topk.entries {
                self.top.push((entry.key.to_string(), entry.estimate));
            }
        }
    }
}

/// A [`ReportSink`] that keeps the most recent `retain` bins as compact
/// [`BinSummary`]s plus running stream totals, and serves the whole state
/// as a JSON snapshot — the state behind `flowrank-serve`'s poll endpoint.
#[derive(Debug)]
pub struct RollingWindow {
    bins: VecDeque<BinSummary>,
    retain: usize,
    bins_seen: u64,
    packets_seen: u64,
}

impl RollingWindow {
    /// A window retaining the latest `retain` bins (at least one).
    pub fn new(retain: usize) -> Self {
        let retain = retain.max(1);
        RollingWindow {
            bins: VecDeque::with_capacity(retain),
            retain,
            bins_seen: 0,
            packets_seen: 0,
        }
    }

    /// Bins accepted over the sink's whole lifetime (retained or not).
    pub fn bins_seen(&self) -> u64 {
        self.bins_seen
    }

    /// The retained summaries, oldest first.
    pub fn bins(&self) -> impl Iterator<Item = &BinSummary> {
        self.bins.iter()
    }

    /// The most recently closed bin, if any bin has closed yet.
    pub fn latest(&self) -> Option<&BinSummary> {
        self.bins.back()
    }

    /// Packets across the retained window only.
    pub(crate) fn window_packets(&self) -> u64 {
        self.bins.iter().map(|bin| bin.packets).sum()
    }

    /// Renders the whole window as one JSON object into `out` (cleared
    /// first). Retained bins appear oldest first; the latest bin carries
    /// its full per-rate and top-k detail, earlier bins only totals.
    pub fn render_json(&self, out: &mut String) {
        out.clear();
        out.push('{');
        let _ = write!(
            out,
            "\"bins_seen\":{},\"retain\":{},\"packets_seen\":{},\"window_packets\":{}",
            self.bins_seen,
            self.retain,
            self.packets_seen,
            self.window_packets()
        );
        out.push_str(",\"bins\":[");
        for (i, bin) in self.bins.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"bin\":{},\"start_s\":{},\"packets\":{},\"flows\":{}}}",
                bin.bin_index, bin.bin_start_secs, bin.packets, bin.flows
            );
        }
        out.push(']');
        if let Some(latest) = self.latest() {
            let _ = write!(
                out,
                ",\"latest\":{{\"bin\":{},\"start_s\":{},\"packets\":{},\"flows\":{}",
                latest.bin_index, latest.bin_start_secs, latest.packets, latest.flows
            );
            out.push_str(",\"rates\":[");
            for (i, rate) in latest.rates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"rate\":{},\"lanes\":{},\"mean_ranking\":{},\"mean_detection\":{},\"mean_sampled_packets\":{}}}",
                    rate.rate,
                    rate.lanes,
                    rate.mean_ranking,
                    rate.mean_detection,
                    rate.mean_sampled_packets
                );
            }
            out.push_str("],\"top\":[");
            for (i, (flow, estimate)) in latest.top.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"flow\":\"{flow}\",\"bytes\":{estimate}}}");
            }
            out.push_str("]}");
        }
        out.push('}');
    }
}

impl ReportSink for RollingWindow {
    fn accept(&mut self, report: &BinReport) {
        self.bins_seen += 1;
        self.packets_seen += report.packets;
        let mut summary = if self.bins.len() >= self.retain {
            // Evict the oldest and reuse its buffers for the new bin.
            self.bins.pop_front().expect("retain >= 1")
        } else {
            BinSummary::default()
        };
        summary.fill(report);
        self.bins.push_back(summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::LaneReport;
    use flowrank_core::metrics::ComparisonOutcome;
    use flowrank_net::Timestamp;

    fn report(bin_index: u64, packets: u64) -> BinReport {
        let lane = |rate: f64, rate_id: usize, run: usize, swaps: u64| LaneReport {
            rate,
            rate_id,
            run,
            sampler: "random",
            sampled_flows: 3,
            sampled_packets: packets / 10,
            outcome: ComparisonOutcome {
                ranking_swaps: swaps,
                detection_swaps: 0,
                missed_top_flows: 0,
                ranking_pairs: 10,
                detection_pairs: 10,
            },
            topk: None,
            controlled: false,
        };
        BinReport {
            bin_index,
            bin_start: Timestamp::from_secs_f64(bin_index as f64 * 60.0),
            packets,
            flows: 7,
            lanes: vec![lane(0.1, 0, 0, 2), lane(0.1, 0, 1, 4), lane(0.5, 1, 0, 1)],
            controller: None,
            evictions: 0,
        }
    }

    #[test]
    fn retention_is_bounded_and_totals_keep_counting() {
        let mut window = RollingWindow::new(3);
        for i in 0..10 {
            window.accept(&report(i, 100));
        }
        assert_eq!(window.bins().count(), 3);
        assert_eq!(window.bins_seen(), 10);
        assert_eq!(window.packets_seen, 1000);
        assert_eq!(window.window_packets(), 300);
        let indices: Vec<u64> = window.bins().map(|b| b.bin_index).collect();
        assert_eq!(indices, vec![7, 8, 9], "oldest bins evicted first");
    }

    #[test]
    fn per_rate_means_average_over_the_rate_lanes() {
        let mut window = RollingWindow::new(4);
        window.accept(&report(0, 100));
        let latest = window.latest().expect("one bin");
        assert_eq!(latest.rates.len(), 2);
        assert_eq!(latest.rates[0].lanes, 2);
        assert!((latest.rates[0].mean_ranking - 3.0).abs() < 1e-12);
        assert_eq!(latest.rates[1].lanes, 1);
        assert!((latest.rates[1].mean_ranking - 1.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_json_is_well_formed_and_carries_the_latest_bin() {
        let mut window = RollingWindow::new(2);
        window.accept(&report(0, 100));
        window.accept(&report(1, 200));
        let mut json = String::new();
        window.render_json(&mut json);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"bins_seen\":2"));
        assert!(json.contains("\"latest\":{\"bin\":1"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
    }

    #[test]
    fn empty_window_still_renders_a_snapshot() {
        let window = RollingWindow::new(2);
        let mut json = String::new();
        window.render_json(&mut json);
        assert!(json.contains("\"bins_seen\":0"));
        assert!(!json.contains("\"latest\""));
    }
}
