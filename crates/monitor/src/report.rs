//! Reports emitted by the streaming monitor when a measurement bin closes.

use flowrank_core::metrics::ComparisonOutcome;
use flowrank_net::Timestamp;
use flowrank_topk::TopKEntry;

/// End-of-bin state of one lane's memory-bounded top-k backend.
///
/// Backends are keyed by 5-tuple regardless of the monitor's flow
/// definition (the `flowrank-topk` trackers only know [`TopKEntry`]'s
/// `FiveTuple` keys), so under a prefix definition these entries live in a
/// different key space than the bin's ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKReport {
    /// Backend name (`exact`, `space-saving`, …).
    pub backend: &'static str,
    /// Estimated top-`t` list, largest first.
    pub entries: Vec<TopKEntry>,
    /// Flow records the backend held when the bin closed.
    pub memory_entries: usize,
}

/// Per-lane outcome of one measurement bin.
///
/// A lane is one independent sampling run at one rate; a multi-run monitor
/// carries `runs × rates` lanes that all share the bin's single ground-truth
/// classification.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneReport {
    /// Nominal sampling rate of the lane.
    pub rate: f64,
    /// Index of the lane's rate in the monitor's rate grid (0 when the
    /// monitor runs a single group at the template's own rate). Rate-keyed
    /// aggregation matches lanes on this id, not on `f64` equality of
    /// `rate`, so a requested rate that round-trips inexactly through
    /// arithmetic (`0.1 + 0.2 - 0.2 != 0.1`) still finds its lanes.
    pub rate_id: usize,
    /// Run index within the lane's rate (0-based).
    pub run: usize,
    /// Sampling discipline name.
    pub sampler: &'static str,
    /// Flows that survived sampling in this bin.
    pub sampled_flows: usize,
    /// Packets the lane retained in this bin.
    pub sampled_packets: u64,
    /// Swapped-pair counts against the bin's ground truth.
    pub outcome: ComparisonOutcome,
    /// End-of-bin top-k state, when the lane runs a backend.
    pub topk: Option<TopKReport>,
    /// Whether this lane's rate is steered by the monitor's controller
    /// (at most one lane per monitor; its `rate` field is the rate that
    /// was *applied* during this bin, so the trail of `rate` values across
    /// bins is the controller's audit log in every sink).
    pub controlled: bool,
}

impl LaneReport {
    /// The ranking metric value of this lane for this bin.
    pub(crate) fn ranking_metric(&self) -> f64 {
        self.outcome.ranking_swaps as f64
    }

    /// The detection metric value of this lane for this bin.
    pub(crate) fn detection_metric(&self) -> f64 {
        self.outcome.detection_swaps as f64
    }
}

/// One bin's entry in the controller's decision trail: what rate the
/// controlled lane ran, what the controller decided for the next bin, and
/// the feedback it decided on. Carried on [`BinReport::controller`] so
/// every sink (csv, ndjson, rate-curve, digest) can audit the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerTrail {
    /// Controller discipline name (`model-driven`, `aimd-slo`, …).
    pub controller: &'static str,
    /// Index of the controlled lane in [`BinReport::lanes`].
    pub lane: usize,
    /// Rate the controlled lane ran during this bin.
    pub applied_rate: f64,
    /// Rate the controller decided for the next bin.
    pub decided_rate: f64,
    /// Fraction of adjacent top-t pairs the controlled lane misranked.
    pub swapped_fraction: f64,
    /// Fraction of the true top-t set that changed since the previous bin.
    pub top_churn: f64,
}

/// Everything the monitor learned about one measurement bin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BinReport {
    /// 0-based index of the bin since time zero.
    pub bin_index: u64,
    /// Wall-clock start of the bin.
    pub bin_start: Timestamp,
    /// Packets observed in the bin (before sampling).
    pub packets: u64,
    /// Distinct ground-truth flows in the bin.
    pub flows: usize,
    /// One report per lane, in lane order (rates outer, runs inner; the
    /// controlled lane, when one is attached, comes last).
    pub lanes: Vec<LaneReport>,
    /// The controller's decision for this bin, when one is attached.
    pub controller: Option<ControllerTrail>,
    /// Flow-table entries evicted during this bin by the monitor's memory
    /// budget (ground truth + all lanes), 0 when no budget is configured
    /// or the budget never bound. Part of the budget decision trail: under
    /// a fixed budget the eviction count per bin is deterministic and
    /// golden-pinnable.
    pub evictions: u64,
}

impl BinReport {
    /// Clears the per-bin payload while keeping the lane buffer's
    /// allocation, so a recycled report shell can be refilled without
    /// reallocating — both the serial close path and the worker runtime's
    /// report assembly on the calling thread reuse their shell through this.
    pub(crate) fn reset(&mut self) {
        self.lanes.clear();
        self.controller = None;
        self.evictions = 0;
    }

    /// Resolves a requested sampling rate to the [`LaneReport::rate_id`] of
    /// the closest rate any lane ran at, or `None` when no lane's rate is
    /// within a 1-part-in-10⁹ relative tolerance of the request.
    ///
    /// Matching by nearest-within-tolerance instead of exact `f64 ==` means
    /// a request like `0.1 + 0.2 - 0.2` (one ulp away from `0.1`) still
    /// finds the `0.1` lanes, while genuinely different grid rates — which
    /// are orders of magnitude apart in any real configuration — can never
    /// be conflated.
    pub(crate) fn rate_id_of(&self, rate: f64) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for lane in &self.lanes {
            let diff = (lane.rate - rate).abs();
            if best.is_none_or(|(b, _)| diff < b) {
                best = Some((diff, lane.rate_id));
            }
        }
        let (diff, id) = best?;
        let tolerance = 1e-9 * rate.abs().max(f64::MIN_POSITIVE);
        (diff == 0.0 || diff <= tolerance).then_some(id)
    }

    /// The lanes belonging to one sampling rate (resolved through
    /// `BinReport::rate_id_of`, so inexact requests match their grid rate).
    pub fn lanes_at_rate(&self, rate: f64) -> impl Iterator<Item = &LaneReport> {
        let id = self.rate_id_of(rate);
        self.lanes
            .iter()
            .filter(move |lane| Some(lane.rate_id) == id)
    }
}
