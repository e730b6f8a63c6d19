//! Fleet-vs-standalone conformance: a [`flowrank_fleet::Fleet`] hosting N
//! tenants must emit, for every tenant, *exactly* the `BinReport` stream a
//! standalone [`flowrank_monitor::Monitor`] produces when driven over that
//! tenant's own synthesis stream — bit-identical, at every fleet worker
//! count. The equivalence surface is [`FleetBuilder::tenant_builder`] (the
//! documented standalone-monitor constructor) on the monitor side and
//! [`FleetScenario::tenant_stream`] (the per-tenant view of the merged
//! tagged stream) on the traffic side.
//!
//! The budgeted half pins the *eviction* path the same way: per-tenant flow
//! budgets evict deterministically, so the budgeted report streams are also
//! thread-count invariant and their digests are committed as goldens in
//! `tests/goldens/fleet_eviction.txt`. Regenerate with
//! `scripts/regen_goldens.sh` (refuses dirty trees) after an intentional
//! behaviour change; `REGEN_GOLDENS=1` rewrites the file directly.

use std::fmt::Write as _;

use flowrank_fleet::{FleetBuilder, FleetCollect, FleetSource};
use flowrank_monitor::{
    BinReport, Collect, DigestSink, MonitorBuilder, ReportSink, SamplerSpec, TopKSpec,
};
use flowrank_net::{TaggedBatch, TenantId, Timestamp};
use flowrank_trace::FleetScenario;

/// One seed drives the whole suite: tenant seeds and tenant traffic are both
/// derived from it, on the fleet side and the standalone side alike.
const SEED: u64 = 0xF1EE_2026_0001;
/// Enough tenants to cover most of the catalog round-robin and both phase
/// extremes of the diurnal envelope.
const TENANTS: u32 = 5;
/// Per-tenant flow budget of the eviction half — small enough that several
/// tenants actually evict.
const BUDGET_FLOWS: usize = 32;
/// Fleet worker counts the equivalence must hold at.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens/fleet_eviction.txt");

/// The tenant monitor template: a sampler with per-lane RNG state, a
/// bounded top-k backend and a multi-lane grid, so the equivalence covers
/// seeded sampling, eviction and lane fan-out — not just counting.
fn template() -> MonitorBuilder {
    MonitorBuilder::new()
        .sampler(SamplerSpec::Random { rate: 0.1 })
        .rates(&[0.01, 0.1])
        .runs(2)
        .topk(TopKSpec::SpaceSaving { capacity: 24 })
        .top_t(10)
        .bin_length(Timestamp::from_secs_f64(60.0))
}

fn builder(threads: usize, budget: Option<usize>) -> FleetBuilder {
    let mut builder = FleetBuilder::new(TENANTS)
        .monitor(template())
        .seed(SEED)
        .threads(threads);
    if let Some(flows) = budget {
        builder = builder.flow_budget(flows);
    }
    builder
}

/// Drives the whole fleet scenario through one slab and collects every
/// `(tenant, report)` pair in delivery order.
fn fleet_reports(threads: usize, budget: Option<usize>) -> FleetCollect {
    let mut fleet = builder(threads, budget).build();
    let mut collect = FleetCollect::new();
    let mut stream = FleetScenario::new(TENANTS).stream(SEED);
    fleet.drive(&mut stream, &mut collect);
    collect
}

/// Drives each tenant's standalone twin: `tenant_builder` monitor over
/// `tenant_stream` traffic, no fleet anywhere.
fn standalone_reports(budget: Option<usize>) -> Vec<Vec<BinReport>> {
    let scenario = FleetScenario::new(TENANTS);
    let blueprint = builder(1, budget);
    (0..TENANTS)
        .map(|t| {
            let tenant = TenantId(t);
            let mut monitor = blueprint.tenant_builder(tenant).build();
            let mut collect = Collect::default();
            let mut stream = scenario.tenant_stream(SEED, tenant);
            monitor.drive(&mut stream, &mut collect);
            collect.reports
        })
        .collect()
}

/// Asserts the fleet's per-tenant streams equal the standalone baseline,
/// report for report, at every fleet worker count.
fn assert_matches_standalone(budget: Option<usize>, baseline: &[Vec<BinReport>]) {
    for threads in THREAD_COUNTS {
        let collect = fleet_reports(threads, budget);
        let at = format!("{threads} fleet workers (budget {budget:?})");
        assert_tenants_match(&collect, baseline, &at);
    }
}

/// Asserts every tenant's delivered reports equal its standalone baseline.
fn assert_tenants_match(collect: &FleetCollect, baseline: &[Vec<BinReport>], at: &str) {
    for (t, expected) in baseline.iter().enumerate() {
        let got = collect.tenant_reports(TenantId(t as u32));
        assert_eq!(
            got.len(),
            expected.len(),
            "tenant {t} bin count diverged at {at}"
        );
        for (bin, (fleet_report, standalone)) in got.iter().zip(expected).enumerate() {
            assert_eq!(
                *fleet_report, standalone,
                "tenant {t} bin {bin} diverged at {at}"
            );
        }
    }
}

/// The scenario's packets re-cut the way the daemon reads a tagged feed:
/// merged in timestamp order (stable, so each tenant's own order holds)
/// and cut into 512-record windows, so tenants interleave packet by packet
/// instead of arriving in per-tenant bursts.
fn serve_shaped_windows() -> Vec<TaggedBatch> {
    let mut stream = FleetScenario::new(TENANTS).stream(SEED);
    let mut windows = Vec::new();
    while let Some(window) = stream.next_tagged() {
        windows.push(window.clone());
    }
    let mut order: Vec<(u64, usize, usize)> = windows
        .iter()
        .enumerate()
        .flat_map(|(w, window)| {
            let ts = window.batch().ts_nanos();
            (0..window.len()).map(move |i| (ts[i], w, i))
        })
        .collect();
    order.sort_by_key(|&(ts, ..)| ts);
    order
        .chunks(512)
        .map(|chunk| {
            let mut recut = TaggedBatch::new();
            for &(_, w, i) in chunk {
                let window = &windows[w];
                recut.extend_from_batch(window.tenant(i), window.batch(), i..i + 1);
            }
            recut
        })
        .collect()
}

#[test]
fn fleet_reports_are_bit_identical_to_standalone_monitors() {
    let baseline = standalone_reports(None);
    assert!(
        baseline.iter().all(|reports| !reports.is_empty()),
        "every tenant must close at least one bin"
    );
    assert_matches_standalone(None, &baseline);
}

#[test]
fn budgeted_fleet_matches_budgeted_standalone_monitors() {
    let baseline = standalone_reports(Some(BUDGET_FLOWS));
    let evictions: u64 = baseline
        .iter()
        .flatten()
        .map(|report| report.evictions)
        .sum();
    assert!(
        evictions > 0,
        "a {BUDGET_FLOWS}-flow budget must actually evict, or the test pins nothing"
    );
    assert_matches_standalone(Some(BUDGET_FLOWS), &baseline);
}

#[test]
fn budgeted_fleet_evictions_match_golden_digests() {
    let mut fleet = builder(2, Some(BUDGET_FLOWS)).build();
    let mut collect = FleetCollect::new();
    let mut stream = FleetScenario::new(TENANTS).stream(SEED);
    let summary = fleet.drive(&mut stream, &mut collect);
    assert!(summary.evictions > 0, "budgeted fleet must evict");

    let mut lines = Vec::new();
    for stats in fleet.tenant_stats() {
        let mut digest = DigestSink::new();
        for report in collect.tenant_reports(stats.tenant) {
            digest.accept(report);
        }
        lines.push(format!(
            "fleet/tenants={TENANTS}/budget={BUDGET_FLOWS}/tenant{} {:016x} packets={} bins={} evictions={}",
            stats.tenant.0,
            digest.digest(),
            stats.packets,
            stats.reports,
            stats.evictions
        ));
    }

    let mut rendered = String::from(
        "# Golden eviction digests: the budgeted fleet's per-tenant BinReport\n\
         # stream (FNV-1a) plus its packet/bin/eviction counters.\n\
         # Regenerate with scripts/regen_goldens.sh (refuses dirty trees).\n",
    );
    for line in &lines {
        writeln!(rendered, "{line}").unwrap();
    }

    if std::env::var_os("REGEN_GOLDENS").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        eprintln!("regenerated {} ({} tenants)", GOLDEN_PATH, lines.len());
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run scripts/regen_goldens.sh");
    let golden_lines: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert_eq!(
        golden_lines.len(),
        lines.len(),
        "golden tenant count diverged — run scripts/regen_goldens.sh if intentional"
    );
    for (computed, pinned) in lines.iter().zip(&golden_lines) {
        assert_eq!(
            computed, pinned,
            "golden eviction digest mismatch — a refactor changed the budgeted \
             fleet's observable results; if intentional, regenerate with \
             scripts/regen_goldens.sh"
        );
    }
}

#[test]
fn serve_shaped_windows_match_standalone_monitors_in_tenant_order() {
    let windows = serve_shaped_windows();
    let packets: usize = windows.iter().map(TaggedBatch::len).sum();
    let runs: usize = windows.iter().map(|window| window.runs().count()).sum();
    assert!(
        2 * runs > packets,
        "tenants must interleave: {runs} runs for {packets} packets"
    );
    for budget in [None, Some(BUDGET_FLOWS)] {
        let baseline = standalone_reports(budget);
        for threads in [1, 2] {
            let at = format!("{threads} fleet workers (budget {budget:?}), 512-record windows");
            let mut fleet = builder(threads, budget).build();
            let mut collect = FleetCollect::new();
            let mut deliver = |push: &mut dyn FnMut(&mut FleetCollect)| {
                let mut delivered = FleetCollect::new();
                push(&mut delivered);
                let order: Vec<(u32, u64)> = delivered
                    .reports
                    .iter()
                    .map(|(tenant, report)| (tenant.0, report.bin_index))
                    .collect();
                assert!(
                    order.windows(2).all(|pair| pair[0] < pair[1]),
                    "delivery out of (tenant, bin) order at {at}: {order:?}"
                );
                collect.reports.extend(delivered.reports);
            };
            for window in &windows {
                deliver(&mut |sink| fleet.push_tagged(window, sink));
            }
            deliver(&mut |sink| fleet.finish(sink));
            assert_tenants_match(&collect, &baseline, &at);
        }
    }
}
