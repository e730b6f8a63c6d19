//! The catalogue: every workload and every metric the ledger knows, with
//! unit, direction, regression bound and — for layer metrics — the
//! end-to-end metric and workload each is expected to move. `BENCHMARK.json`
//! at the repository root carries the same names, units, directions and
//! bounds (a test holds the two together); the reasons live here and in the
//! README because the contract's schema has no field for them.

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: which layers it loads.
    pub why: &'static str,
}

/// The five workloads, in the order a full run interleaves them.
pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "sec8_fanout",
        why: "paper Sec. 8 grid, 4 rates x 30 runs, serial engine: lane sampling, sampled-table updates and the 120-lane seal dominate; no decode",
    },
    WorkloadInfo {
        name: "sec8_fanout_t2",
        why: "same inputs and grid on the 2-thread pipelined runtime: ingest, SPSC queues, workers and sequencer; shows what helps one engine and costs the other",
    },
    WorkloadInfo {
        name: "pcap_lean",
        why: "one 0.1 lane with space-saving:64 over an in-memory capture: decode, key derivation, ground-truth classify and sink rendering dominate; lanes are a tenth of a table",
    },
    WorkloadInfo {
        name: "serve_ndjson",
        why: "release flowrank-serve fed ndjson on stdin, reports on stdout: the only path across the process boundary; record parsing and one-record chunks dominate",
    },
    WorkloadInfo {
        name: "fleet_1k",
        why: "1000 light tenant monitors fed 500 ms tagged windows: demux copies, the walk over every slot per window and ordered delivery dominate, not the monitors",
    },
];

/// Whether a larger or a smaller reading is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricInfo {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by before the
    /// driver of `BENCHMARK.json` rejects a change. It judges single runs on
    /// ten different seeds, so it is as wide as those spread on the
    /// calibration box. End-to-end metrics only.
    pub bound: Option<f64>,
    /// The same for `ledger compare`, which judges two `ledger suite` files
    /// of one seed — three interleaved segments a side — and holds the
    /// tighter line those repeat to. End-to-end metrics only.
    pub suite_bound: Option<f64>,
    /// How the reading is taken.
    pub how: &'static str,
    /// Which end-to-end metric, on which workload, the reading is expected
    /// to move; elsewhere the prediction is no change.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    suite_bound: f64,
    how: &'static str,
) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound: Some(bound),
        suite_bound: Some(suite_bound),
        how,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: &'static str,
    moves: &'static str,
) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound: None,
        suite_bound: None,
        how,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. The same five names on every workload,
/// from the `--trace 0` run. The three timings of the passes are scaled to
/// the reference host speed by the run's host probe (see [`crate::host`]).
pub const END_TO_END: [MetricInfo; 5] = [
    e2e(
        "pkts_per_s",
        "1/s",
        Higher,
        0.25,
        0.10,
        "median over passes of packets / wall time of the timed call (Monitor::drive, Fleet::drive, first stdin byte to child exit), times the run's host slowdown; build and teardown are outside",
    ),
    e2e(
        "cpu_s_per_mpkt",
        "s",
        Lower,
        0.25,
        0.10,
        "user+sys CPU seconds of the process under test, read from /proc/<pid>/stat around each timed call and summed, per million packets, over the run's host slowdown; catches faster-by-burning-a-second-core",
    ),
    e2e(
        "report_lag_ms_p50",
        "ms",
        Lower,
        0.25,
        0.10,
        "median over every bin of every pass of: sink receives the bin's report - source handed over the first chunk holding a packet of a later bin (or the end of the stream), over the run's host slowdown",
    ),
    e2e(
        "peak_mem_mib",
        "MiB",
        Lower,
        0.15,
        0.05,
        "peak memory the program adds on top of the resident inputs: peak live heap over the passes minus live heap at the end of set-up (counting allocator in the harness); the child's VmHWM for serve_ndjson",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        0.25,
        "median of three set-ups: input generation from the seed plus reference computation, before the first pass (not scaled)",
    ),
];

/// Layer readings every workload's `--trace 1` run gives: each is taken on
/// the workload's own packets, through the layer's public functions.
pub const PER_LAYER: [MetricInfo; 25] = [
    layer(
        "trace.synth_ns_per_pkt",
        "ns",
        Lower,
        "Workload::synthesize (FleetScenario stream for fleet_1k) in set-up, per packet",
        "setup_s @ all",
    ),
    layer(
        "net.key_derive_ns_per_pkt",
        "ns",
        Lower,
        "replica: PacketBatch::flow_key over each within-bin segment into a recycled key column",
        "pkts_per_s @ pcap_lean, fleet_1k",
    ),
    layer(
        "net.classify_ns_per_pkt",
        "ns",
        Lower,
        "replica: FlowTable::observe_batch per segment into a recycled ground-truth table",
        "pkts_per_s @ pcap_lean (largest stage); small @ serve_ndjson; about 5 % @ sec8_fanout",
    ),
    layer(
        "net.flows_per_bin",
        "count",
        Lower,
        "replica: mean ground-truth flows per closed bin (exact)",
        "context for classify and rank",
    ),
    layer(
        "flowtable.upsert_ns_per_op",
        "ns",
        Lower,
        "replica side stage: bare FlowMap::upsert with a unit payload over the same key stream",
        "as classify @ pcap_lean; isolates hash and probe from the per-flow counters",
    ),
    layer(
        "flowtable.load_factor_at_seal",
        "ratio",
        Lower,
        "replica: ground-truth len / capacity at each bin close, mean (exact)",
        "context for upsert and classify",
    ),
    layer(
        "sampling.keep_batch_ns_per_offered_pkt",
        "ns",
        Lower,
        "replica: the random sampler's keep_batch per lane and segment, per packet offered",
        "pkts_per_s @ sec8_fanout, sec8_fanout_t2; about 0 @ pcap_lean",
    ),
    layer(
        "sampling.kept_share",
        "ratio",
        Lower,
        "replica: packets kept / packets offered over all lanes (exact)",
        "context for keep_batch and lane_update",
    ),
    layer(
        "monitor.lane_update_ns_per_kept_pkt",
        "ns",
        Lower,
        "replica: FlowTable::observe_keyed_parts on the kept indices of every lane",
        "pkts_per_s, cpu_s_per_mpkt @ sec8_fanout, sec8_fanout_t2 (dominant)",
    ),
    layer(
        "core.rank_us_per_bin",
        "us",
        Lower,
        "replica: collecting the bin's sized flows and GroundTruthRanking::new",
        "report_lag_ms_p50 @ all",
    ),
    layer(
        "core.score_us_per_lane_bin",
        "us",
        Lower,
        "replica: GroundTruthRanking::compare_with, the lane report and the lane restart, per lane and bin",
        "report_lag_ms_p50, pkts_per_s @ sec8_fanout, sec8_fanout_t2 (x 120 per bin)",
    ),
    layer(
        "monitor.build_ms",
        "ms",
        Lower,
        "MonitorBuilder::build of the workload's monitor (pool spawn at t2; one tenant's monitor for fleet_1k)",
        "none (outside the timed call); context",
    ),
    layer(
        "monitor.push_batch_ns_per_pkt",
        "ns",
        Lower,
        "push_batch_into of 4096-packet chunks plus finish_into, no source, discarding sink",
        "pkts_per_s @ all",
    ),
    layer(
        "monitor.push_single_ns_per_pkt",
        "ns",
        Lower,
        "the same with one-packet batches, over the first 20 000 packets",
        "pkts_per_s @ serve_ndjson",
    ),
    layer(
        "monitor.seal_ms_per_bin",
        "ms",
        Lower,
        "finish_into on a monitor holding the stream's first full bin",
        "report_lag_ms_p50 @ all",
    ),
    layer(
        "monitor.report_lag_ms_p95",
        "ms",
        Lower,
        "as report_lag_ms_p50: p95, or the highest percentile that still has ten samples beyond it",
        "tail of report_lag_ms_p50; too noisy to gate",
    ),
    layer(
        "monitor.source_share",
        "ratio",
        Lower,
        "time inside the harness's source wrapper / wall time of the real call (the in-process drive for serve_ndjson)",
        "pkts_per_s @ pcap_lean",
    ),
    layer(
        "monitor.drive_self_share",
        "ratio",
        Lower,
        "(real call - source - sink - sum of the replica's engine stages) / real call: what the stage sum does not explain",
        "tracked line; falls as instrumentation inside the program lands",
    ),
    layer(
        "monitor.sink_ndjson_us_per_report",
        "us",
        Lower,
        "NdjsonSink::accept into a byte-counting writer on the captured reports",
        "report_lag_ms_p50 @ pcap_lean, serve_ndjson",
    ),
    layer(
        "monitor.rolling_fold_us_per_report",
        "us",
        Lower,
        "RollingWindow::accept plus render_json on the captured reports",
        "report_lag_ms_p50 @ serve_ndjson",
    ),
    layer(
        "monitor.segments_dispatched",
        "count",
        Higher,
        "Monitor::segment_stats().1 after a pass (exact)",
        "path selection @ sec8_fanout_t2",
    ),
    layer(
        "monitor.segments_inline",
        "count",
        Lower,
        "Monitor::segment_stats().0 after a pass (exact)",
        "path selection @ sec8_fanout_t2",
    ),
    layer(
        "bench.trace_overhead_share",
        "ratio",
        Lower,
        "1 - median pkts_per_s of the traced passes / of the untraced passes of the same run",
        "validity of the layer readings",
    ),
    layer(
        "bench.host_steal_share",
        "ratio",
        Lower,
        "/proc/stat steal delta / (wall x host CPUs) over the run",
        "context for every wall-clock reading",
    ),
    layer(
        "bench.passes",
        "count",
        Higher,
        "untraced passes of the real call in the run",
        "context",
    ),
];

/// A layer reading only some workloads give. Printed by their traced run
/// beside the common ones; outside `BENCHMARK.json`, whose layer metrics
/// every workload must report.
#[derive(Debug, Clone, Copy)]
pub struct DetailInfo {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// The workloads that report it.
    pub workload: &'static str,
    /// How the reading is taken.
    pub how: &'static str,
    /// What it is expected to move.
    pub moves: &'static str,
}

const fn detail(
    name: &'static str,
    unit: &'static str,
    workload: &'static str,
    how: &'static str,
    moves: &'static str,
) -> DetailInfo {
    DetailInfo {
        name,
        unit,
        workload,
        how,
        moves,
    }
}

/// The workload-specific layer readings.
pub const DETAIL: [DetailInfo; 22] = [
    detail(
        "topk.offer_ns_per_kept_pkt",
        "ns",
        "pcap_lean, serve_ndjson",
        "replica: the lane's space-saving:64 tracker updated with every kept packet",
        "pkts_per_s @ pcap_lean, serve_ndjson; no tracker @ sec8_*, fleet_1k",
    ),
    detail(
        "net.pcap_decode_ns_per_pkt",
        "ns",
        "pcap_lean",
        "replica: PcapBatchCursor::decode_some into a recycled batch, 4096 per chunk",
        "pkts_per_s, cpu_s_per_mpkt @ pcap_lean",
    ),
    detail(
        "net.pcap_bytes_per_pkt",
        "B",
        "pcap_lean",
        "capture bytes / packets (exact)",
        "context for decode",
    ),
    detail(
        "monitor.ndjson_parse_ns_per_record",
        "ns",
        "serve_ndjson",
        "replica: parse_ndjson_record per line, 4096 lines per call",
        "pkts_per_s, cpu_s_per_mpkt @ serve_ndjson only",
    ),
    detail(
        "monitor.ndjson_source_ns_per_record",
        "ns",
        "serve_ndjson",
        "NdjsonRecordSource::next_chunk over the input bytes",
        "pkts_per_s @ serve_ndjson",
    ),
    detail(
        "serve.startup_ms",
        "ms",
        "serve_ndjson",
        "spawn to the snapshot-endpoint line on stderr, median",
        "none (outside the timed call)",
    ),
    detail(
        "serve.stdin_mib_per_s",
        "MiB/s",
        "serve_ndjson",
        "input bytes / median child wall time",
        "pkts_per_s @ serve_ndjson",
    ),
    detail(
        "serve.shell_share",
        "ratio",
        "serve_ndjson",
        "1 - in-process ndjson drive wall / child wall: what pipe, stdout and publisher add",
        "pkts_per_s @ serve_ndjson",
    ),
    detail(
        "serve.snapshot_poll_ms_p50",
        "ms",
        "serve_ndjson",
        "50 sequential GETs from the writer thread at the input's half-way mark, traced passes only",
        "operator-visible poll latency; report_lag_ms_p50 if the endpoint ever blocks the drive",
    ),
    detail(
        "serve.malformed_skipped",
        "count",
        "serve_ndjson",
        "the final line's count (exact; a pass fails unless it equals the lines injected)",
        "failed passes",
    ),
    detail(
        "serve.child_elapsed_s",
        "s",
        "serve_ndjson",
        "the final line's elapsed_s of the last pass",
        "cross-check of pkts_per_s",
    ),
    detail(
        "net.demux_ns_per_pkt",
        "ns",
        "fleet_1k",
        "replica: TaggedBatch::runs plus PacketBatch::extend_from_batch per run",
        "pkts_per_s @ fleet_1k",
    ),
    detail(
        "fleet.build_ms",
        "ms",
        "fleet_1k",
        "FleetBuilder::build for every tenant, median over passes",
        "context",
    ),
    detail(
        "fleet.push_window_us_p50",
        "us",
        "fleet_1k",
        "Fleet::push_tagged per window: hand-over to the source's next call, traced passes",
        "pkts_per_s, report_lag_ms_p50 @ fleet_1k",
    ),
    detail(
        "fleet.push_window_us_p95",
        "us",
        "fleet_1k",
        "the same, p95",
        "as p50",
    ),
    detail(
        "fleet.idle_window_us",
        "us",
        "fleet_1k",
        "push_tagged of a one-packet window: the fixed clear, walk and delivery over every slot",
        "pkts_per_s @ fleet_1k",
    ),
    detail(
        "fleet.active_tenant_share",
        "ratio",
        "fleet_1k",
        "tenant runs per window / tenants (exact)",
        "context for an active-slot list",
    ),
    detail(
        "fleet.evictions",
        "count",
        "fleet_1k",
        "FleetSummary::evictions of the last pass (exact)",
        "context for flow_budget",
    ),
    detail(
        "fleet.cost_vs_standalone",
        "ratio",
        "fleet_1k",
        "fleet CPU per packet / CPU per packet of the 16 sampled tenants as standalone monitors",
        "cpu_s_per_mpkt @ fleet_1k",
    ),
    detail(
        "fleet.mem_per_tenant_kib",
        "KiB",
        "fleet_1k",
        "peak live heap one fleet pass adds / tenants",
        "peak_mem_mib @ fleet_1k",
    ),
    detail(
        "fleet.threads2_pkts_per_s",
        "1/s",
        "fleet_1k",
        "the same windows on two fleet workers, median of 2 s of passes",
        "per-window scoped-spawn cost; not gated",
    ),
    detail(
        "monitor.report_lag_tail_percentile",
        "ratio",
        "all",
        "the percentile monitor.report_lag_ms_p95 actually stands for in this run",
        "context",
    ),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Prints the catalogue: what `ledger --list` shows.
pub fn print() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end-to-end metrics (--trace 0):");
    for m in &END_TO_END {
        println!(
            "  {:<40} {:<6} better={:<6} bound={:<5} compare-bound={:<5} {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.unwrap_or(0.0),
            m.suite_bound.unwrap_or(0.0),
            m.how
        );
    }
    println!("per-layer metrics, every workload (--trace 1):");
    for m in &PER_LAYER {
        println!(
            "  {:<40} {:<6} better={:<6} {} | moves: {}",
            m.name,
            m.unit,
            m.better.word(),
            m.how,
            m.moves
        );
    }
    println!("per-layer detail, one workload each (--trace 1, beside the above):");
    for d in &DETAIL {
        println!(
            "  {:<40} {:<6} @{:<23} {} | moves: {}",
            d.name, d.unit, d.workload, d.how, d.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(DETAIL.iter().map(|d| d.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64, "{name} is too long");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside the contract"
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} characters",
                w.name,
                w.why.len()
            );
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
            // `compare` is never looser than the driver, and past 0.10 only
            // for set-up time.
            let suite = m.suite_bound.expect("end-to-end metrics are bounded");
            assert!(suite > 0.0 && suite <= bound, "{}: {suite}", m.name);
            assert!(suite <= 0.10 || m.name == "setup_s", "{}: {suite}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
