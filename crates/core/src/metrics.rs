//! Empirical ranking / detection metrics on concrete flow tables.
//!
//! The trace-driven simulations of Sec. 8 compute, for every measurement bin,
//! the same swapped-pair counts the analytical models predict — but on the
//! actual flow tables built before and after sampling. These functions do
//! that counting. They are generic over the flow key so both flow
//! definitions (5-tuple and /24 prefix) use the same code.

use std::cmp::Ordering;
use std::sync::OnceLock;

use flowrank_flowtable::{CompactKey, FlowMap};

/// A flow with its true (unsampled) size, as produced by ranking the original
/// flow table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizedFlow<K> {
    /// Flow identity.
    pub key: K,
    /// True size in packets.
    pub packets: u64,
}

/// Result of comparing a sampled ranking against the true ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComparisonOutcome {
    /// The paper's ranking metric: swapped pairs whose first element is a
    /// true top-`t` flow and whose second element is any other flow.
    pub ranking_swaps: u64,
    /// The paper's detection metric: swapped pairs whose first element is a
    /// true top-`t` flow and whose second element is outside the top `t`.
    pub detection_swaps: u64,
    /// Number of true top-`t` flows that do not appear in the sampled table
    /// at all (sampled size zero).
    pub missed_top_flows: u64,
    /// Number of pairs considered for the ranking metric.
    pub ranking_pairs: u64,
    /// Number of pairs considered for the detection metric.
    pub detection_pairs: u64,
}

/// A ground-truth ranking prepared once and compared against many sampled
/// tables.
///
/// The streaming monitor classifies each measurement bin exactly once and
/// then scores every sampling lane (run × rate) against the same ranked
/// truth. The paper's metrics count pairs whose first flow is one of the
/// true top `t`, so scoring needs the top flows, where each one's run of
/// equal sizes ends, and every flow's true size, but no order over the
/// whole population. `new` pays for exactly that, in time linear in the
/// population `n`: it selects the top `t` (and the first flow below the
/// cut) and sorts only those, and counts for each top flow how many flows
/// are at least its size (which is how many pairs it is in). The
/// population stays in **id** order — a flow's id is its position in the
/// population `new` was given, which for a `FlowTable` drain is the
/// table's own flow id. A lane is then scored through one of two entry
/// points that return the same [`ComparisonOutcome`]:
///
/// * [`GroundTruthRanking::compare_with`] — **the definition**: `n` lookups
///   by key through a closure plus the literal `O(t·n)` scan over every
///   pair, in rank order. The per-packet oracle `sim::engine::run_bin` and
///   the ledger's replica score with it.
/// * [`GroundTruthRanking::compare_sparse`] — the kernel the monitor runs,
///   over the lane's sampled sizes indexed by flow id: `t` array reads for
///   the top flows, one pass over the lane's `m` sampled flows and
///   `O(t·m′)` comparisons for the `m′ ≤ m` of them large enough to matter,
///   because at low sampling rates almost every flow samples to zero (the
///   paper's own premise, Secs. 3–5) and a pair of two zeros needs no
///   comparison.
///
/// The population in rank order, behind [`GroundTruthRanking::flows`],
/// [`GroundTruthRanking::rank_of_id`] and `compare_with`, is the one
/// `O(n log n)` sort; it is built by the first call that needs it, once
/// per ranking, and never by `compare_sparse` or
/// [`GroundTruthRanking::top`].
#[derive(Debug, Clone)]
pub struct GroundTruthRanking<K> {
    /// The population in id order: `flows[id]` is flow `id`.
    flows: Vec<SizedFlow<K>>,
    top_t: usize,
    /// The ids of the `min(t + 1, n)` largest flows in rank order: the top
    /// `t` and the first flow below the cut.
    top_ids: Vec<u32>,
    /// For each top flow, how many flows are at least its size: one past
    /// the last rank of its run of equal true sizes (ties are contiguous in
    /// the rank order). Every other flow is strictly smaller, so the flow
    /// is in `n − tie_end` ranking pairs and `n − max(t, tie_end)`
    /// detection pairs.
    tie_end: Vec<u32>,
    /// The population in rank order and the rank of every id, built on
    /// first use.
    rank_order: OnceLock<RankOrder<K>>,
}

/// The whole population sorted, for the dense definition and the accessors
/// that read ranks.
#[derive(Debug, Clone)]
struct RankOrder<K> {
    ranked: Vec<SizedFlow<K>>,
    rank_of_id: Vec<u32>,
}

/// The rank order: decreasing true size, ties broken by key order so the
/// ranking is identical across runs and platforms. Keys are distinct, so
/// the order is total and an unstable sort or selection is deterministic.
fn by_rank<K: Ord>(a: &SizedFlow<K>, b: &SizedFlow<K>) -> Ordering {
    b.packets.cmp(&a.packets).then_with(|| a.key.cmp(&b.key))
}

impl<K: CompactKey + Ord> GroundTruthRanking<K> {
    /// Ranks a flow population by decreasing true size (ties broken by key
    /// order): selects the top `t` flows and the first below the cut, sorts
    /// only those, and finds where each top flow's run of ties ends. Keys
    /// must be distinct — true of every `FlowTable` drain.
    pub fn new(flows: Vec<SizedFlow<K>>, top_t: usize) -> Self {
        let n = flows.len();
        assert!(n <= u32::MAX as usize, "flow ids are u32");
        let top_t = top_t.min(n);
        let by_id_rank = |&a: &u32, &b: &u32| by_rank(&flows[a as usize], &flows[b as usize]);
        // Hoare's FIND puts the `kept` first ids in front of the rest in
        // linear time; only those are sorted.
        let kept = (top_t + 1).min(n);
        let mut top_ids: Vec<u32> = (0..n as u32).collect();
        if kept < n {
            top_ids.select_nth_unstable_by(kept - 1, by_id_rank);
            top_ids.truncate(kept);
        }
        top_ids.sort_unstable_by(by_id_rank);

        // A flow at least as large as the smallest top flow counts towards
        // the tie end of every top flow it reaches, a suffix of the top
        // found by binary search: count where each suffix starts, then sum
        // the counts up.
        let mut tie_end = vec![0u32; top_t];
        let top = &top_ids[..top_t];
        if let Some(&last) = top.last() {
            let smallest = flows[last as usize].packets;
            for flow in flows.iter().filter(|flow| flow.packets >= smallest) {
                tie_end[top.partition_point(|&a| flows[a as usize].packets > flow.packets)] += 1;
            }
            let mut at_least = 0;
            for end in &mut tie_end {
                at_least += *end;
                *end = at_least;
            }
        }

        GroundTruthRanking {
            flows,
            top_t,
            top_ids,
            tie_end,
            rank_order: OnceLock::new(),
        }
    }

    /// The `min(t + 1, n)` largest flows in rank order: the top `t` and
    /// the first flow below the cut. Sorts nothing.
    pub fn top(&self) -> impl ExactSizeIterator<Item = &SizedFlow<K>> + Clone + '_ {
        self.top_ids.iter().map(|&id| &self.flows[id as usize])
    }

    /// The rank of flow `id` (its position in the population given to
    /// [`GroundTruthRanking::new`]): `flows()[rank_of_id(id)]` is that flow.
    /// The first call sorts the population.
    pub fn rank_of_id(&self, id: u32) -> usize {
        self.rank_order().rank_of_id[id as usize] as usize
    }

    /// The population, sorted by decreasing true size. The first call sorts
    /// it.
    pub fn flows(&self) -> &[SizedFlow<K>] {
        &self.rank_order().ranked
    }

    /// The population in rank order, sorted on the first call.
    fn rank_order(&self) -> &RankOrder<K> {
        self.rank_order.get_or_init(|| {
            let flows = &self.flows;
            let mut order: Vec<u32> = (0..flows.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| by_rank(&flows[a as usize], &flows[b as usize]));
            let mut rank_of_id = vec![0; flows.len()];
            for (rank, &id) in order.iter().enumerate() {
                rank_of_id[id as usize] = rank as u32;
            }
            let ranked: Vec<SizedFlow<K>> =
                order.iter().map(|&id| flows[id as usize].clone()).collect();
            debug_assert!(
                ranked.windows(2).all(|w| w[0].key != w[1].key),
                "duplicate flow key"
            );
            RankOrder { ranked, rank_of_id }
        })
    }

    /// Scores one sampled table against this truth, looking sampled sizes up
    /// through `sampled_size_of` (flows the sampler missed must report 0).
    ///
    /// A pair `(a, b)` with true sizes `S_a > S_b` is *swapped* when the
    /// sampled sizes satisfy `s_b ≥ s_a` — the paper's pairwise definition
    /// `P{s_small ≥ s_large}`; a pair in which neither flow was sampled
    /// counts as swapped. Pairs of equal true size are skipped (their order
    /// is arbitrary even without sampling).
    pub fn compare_with<F: Fn(&K) -> u64>(&self, sampled_size_of: F) -> ComparisonOutcome {
        let t = self.top_t;
        let mut ranking_swaps = 0u64;
        let mut detection_swaps = 0u64;
        let mut ranking_pairs = 0u64;
        let mut detection_pairs = 0u64;
        let mut missed_top_flows = 0u64;

        // One lookup per flow, in rank order. The pairwise scan below would
        // otherwise look every non-top flow up once *per top flow* — `t·n`
        // sampled-table probes per lane, which dominated multi-lane
        // monitors before this cache. `sampled_size_of` must be pure; it is
        // now called exactly once per flow.
        let ranked = self.flows();
        let sampled: Vec<u64> = ranked
            .iter()
            .map(|flow| sampled_size_of(&flow.key))
            .collect();

        for (rank_a, top_flow) in ranked.iter().take(t).enumerate() {
            let s_a = sampled[rank_a];
            if s_a == 0 {
                missed_top_flows += 1;
            }
            // Pairs are unordered: every pair is counted once, with the
            // higher-ranked flow as its first element (pairs of two top
            // flows are counted by the smaller rank only) — hence the scan
            // starts below `rank_a`.
            for (offset, other) in ranked[rank_a + 1..].iter().enumerate() {
                let rank_b = rank_a + 1 + offset;
                if top_flow.packets == other.packets {
                    continue;
                }
                // top_flow.packets > other.packets by construction of the sort.
                let swapped = sampled[rank_b] >= s_a;
                ranking_pairs += 1;
                if swapped {
                    ranking_swaps += 1;
                }
                if rank_b >= t {
                    detection_pairs += 1;
                    if swapped {
                        detection_swaps += 1;
                    }
                }
            }
        }

        ComparisonOutcome {
            ranking_swaps,
            detection_swaps,
            missed_top_flows,
            ranking_pairs,
            detection_pairs,
        }
    }

    /// Scores one lane from only the flows it sampled — same outcome as
    /// [`GroundTruthRanking::compare_with`], at a cost proportional to what
    /// the lane kept instead of to the population.
    ///
    /// The lane is given by flow id: `counts[id]` is the sampled size of
    /// flow `id` (0 for a flow it missed; ids past the slice's end count as
    /// 0 too), and `touched` lists every id whose count is non-zero, once.
    /// Every id in `touched` must belong to the truth (`< n`); a lane that
    /// kept flows the truth no longer holds drops them before the call.
    ///
    /// A top flow sampled to zero is swapped with every pair it is in — a
    /// count read off `tie_end`. One that was sampled can only be swapped
    /// with a strictly smaller flow sampled at least as often, so only the
    /// entries of `touched` that reach the smallest non-zero top sampled
    /// size are held against the top flows larger than they are:
    /// `O(t + m + t·m′)`, every lookup an array read by flow id. Reads no
    /// rank and sorts nothing.
    pub fn compare_sparse(&self, counts: &[u32], touched: &[u32]) -> ComparisonOutcome {
        let t = self.top_t;
        let n = self.flows.len();
        let count_of = |id: u32| counts.get(id as usize).map_or(0, |&c| u64::from(c));
        let top_ids = &self.top_ids[..t];
        let top: Vec<u64> = top_ids.iter().map(|&id| count_of(id)).collect();

        let mut ranking_swaps = 0u64;
        let mut detection_swaps = 0u64;
        let mut ranking_pairs = 0u64;
        let mut detection_pairs = 0u64;
        let mut missed_top_flows = 0u64;
        // Below this sampled size a flow is swapped with no sampled top flow.
        let mut floor = u64::MAX;
        for (rank_a, &s_a) in top.iter().enumerate() {
            let end = self.tie_end[rank_a] as usize;
            // Every flow from `end` on is strictly smaller than this one.
            let (ranking, detection) = ((n - end) as u64, (n - end.max(t)) as u64);
            ranking_pairs += ranking;
            detection_pairs += detection;
            if s_a == 0 {
                missed_top_flows += 1;
                ranking_swaps += ranking;
                detection_swaps += detection;
                continue;
            }
            floor = floor.min(s_a);
            // Strictly smaller top flows rank from `end` up to `t`.
            ranking_swaps += top[end.min(t)..].iter().filter(|&&s_b| s_b >= s_a).count() as u64;
        }
        // (No top flow sampled, or no flow outside the top: every count is
        // already taken, skip the walk.)
        if floor < u64::MAX && t < n {
            // The smallest top flow: a flow ranked no lower is a top flow.
            let last = &self.flows[top_ids[t - 1] as usize];
            for &id in touched {
                let s_b = count_of(id);
                if s_b < floor {
                    continue;
                }
                let flow = &self.flows[id as usize];
                if by_rank(flow, last) != Ordering::Greater {
                    continue;
                }
                // The top flows strictly larger than this one lead the rank
                // order.
                let larger =
                    top_ids.partition_point(|&a| self.flows[a as usize].packets > flow.packets);
                let swapped = top[..larger]
                    .iter()
                    .filter(|&&s_a| s_a != 0 && s_b >= s_a)
                    .count() as u64;
                ranking_swaps += swapped;
                detection_swaps += swapped;
            }
        }

        ComparisonOutcome {
            ranking_swaps,
            detection_swaps,
            missed_top_flows,
            ranking_pairs,
            detection_pairs,
        }
    }

    /// Scores a sampled size map against this truth (convenience over
    /// [`GroundTruthRanking::compare_with`]).
    pub(crate) fn compare(&self, sampled_sizes: &FlowMap<K, u64>) -> ComparisonOutcome {
        self.compare_with(|key| sampled_sizes.get(key).copied().unwrap_or(0))
    }
}

/// Compares the true ranking of a flow population against its sampled sizes.
///
/// * `original` — every flow of the bin with its true size, in any order.
/// * `sampled_sizes` — sampled size per flow key; flows absent from the map
///   have sampled size zero.
/// * `top_t` — how many top flows the monitor reports.
///
/// One-shot convenience over [`GroundTruthRanking`]; callers that score many
/// sampled tables against the same truth should build the ranking once
/// instead.
pub fn compare_rankings<K: CompactKey + Ord>(
    original: &[SizedFlow<K>],
    sampled_sizes: &FlowMap<K, u64>,
    top_t: usize,
) -> ComparisonOutcome {
    GroundTruthRanking::new(original.to_vec(), top_t).compare(sampled_sizes)
}

/// Test oracle for the detection metric: whether the sampled top-`t` *set*
/// matches the true top-`t` set (order ignored), computed by sorting both
/// sides instead of counting pairs.
#[cfg(test)]
fn top_set_matches<K: CompactKey + Ord>(
    original: &[SizedFlow<K>],
    sampled_sizes: &FlowMap<K, u64>,
    top_t: usize,
) -> bool {
    let mut true_ranked: Vec<&SizedFlow<K>> = original.iter().collect();
    true_ranked.sort_by(|a, b| b.packets.cmp(&a.packets).then(a.key.cmp(&b.key)));
    let mut true_top: Vec<K> = true_ranked.iter().take(top_t).map(|f| f.key).collect();
    true_top.sort();

    let mut sampled_ranked: Vec<(&K, u64)> = original
        .iter()
        .map(|f| (&f.key, sampled_sizes.get(&f.key).copied().unwrap_or(0)))
        .collect();
    sampled_ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut sampled_top: Vec<K> = sampled_ranked
        .iter()
        .take(top_t)
        .map(|(k, _)| **k)
        .collect();
    sampled_top.sort();

    true_top == sampled_top
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_stats::rng::{derive_seeds, Pcg64, Rng, SeedableRng};

    fn flows(sizes: &[u64]) -> Vec<SizedFlow<u32>> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &packets)| SizedFlow {
                key: i as u32,
                packets,
            })
            .collect()
    }

    fn sampled(pairs: &[(u32, u64)]) -> FlowMap<u32, u64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn perfect_sampling_has_no_swaps() {
        let original = flows(&[100, 80, 60, 40, 20]);
        let exact = sampled(&[(0, 100), (1, 80), (2, 60), (3, 40), (4, 20)]);
        let outcome = compare_rankings(&original, &exact, 3);
        assert_eq!(outcome.ranking_swaps, 0);
        assert_eq!(outcome.detection_swaps, 0);
        assert_eq!(outcome.missed_top_flows, 0);
        // Pairs: top-3 against everyone below them: 4 + 3 + 2 = 9.
        assert_eq!(outcome.ranking_pairs, 9);
        // Detection pairs: top-3 × the 2 non-top flows = 6.
        assert_eq!(outcome.detection_pairs, 6);
        assert!(top_set_matches(&original, &exact, 3));
    }

    #[test]
    fn single_adjacent_swap_counts_once_for_ranking_only() {
        let original = flows(&[100, 80, 60, 40, 20]);
        // Flows 1 and 2 (both in the top 3) swap after sampling.
        let swapped = sampled(&[(0, 50), (1, 20), (2, 30), (3, 10), (4, 5)]);
        let outcome = compare_rankings(&original, &swapped, 3);
        assert_eq!(outcome.ranking_swaps, 1);
        // The swap is inside the top-3 set, so detection is unaffected.
        assert_eq!(outcome.detection_swaps, 0);
        assert!(top_set_matches(&original, &swapped, 3));
    }

    #[test]
    fn swap_across_the_boundary_counts_for_both_metrics() {
        let original = flows(&[100, 80, 60, 40, 20]);
        // Flow 3 (outside the top 3) out-samples flow 2 (inside).
        let swapped = sampled(&[(0, 50), (1, 40), (2, 5), (3, 30), (4, 1)]);
        let outcome = compare_rankings(&original, &swapped, 3);
        assert!(outcome.ranking_swaps >= 1);
        assert_eq!(outcome.detection_swaps, 1);
        assert!(!top_set_matches(&original, &swapped, 3));
    }

    #[test]
    fn unsampled_top_flow_counts_as_swapped_with_everything() {
        let original = flows(&[100, 80, 60, 40, 20]);
        // Flow 0 disappears entirely: every one of its 4 pairs is swapped
        // (sampled sizes of the others are ≥ 0 = its sampled size).
        let missing = sampled(&[(1, 40), (2, 30), (3, 20), (4, 10)]);
        let outcome = compare_rankings(&original, &missing, 1);
        assert_eq!(outcome.missed_top_flows, 1);
        assert_eq!(outcome.ranking_swaps, 4);
        assert_eq!(outcome.detection_swaps, 4);
    }

    #[test]
    fn both_flows_unsampled_is_a_swap() {
        let original = flows(&[100, 10]);
        let nothing: FlowMap<u32, u64> = FlowMap::new();
        let outcome = compare_rankings(&original, &nothing, 1);
        assert_eq!(outcome.ranking_swaps, 1);
        assert_eq!(outcome.detection_swaps, 1);
        assert_eq!(outcome.missed_top_flows, 1);
    }

    #[test]
    fn equal_true_sizes_are_skipped() {
        let original = flows(&[50, 50, 10]);
        let exact = sampled(&[(0, 5), (1, 9), (2, 1)]);
        let outcome = compare_rankings(&original, &exact, 2);
        // The (0,1) pair is skipped; only (0,2) and (1,2) are counted.
        assert_eq!(outcome.ranking_pairs, 2);
        assert_eq!(outcome.ranking_swaps, 0);
    }

    #[test]
    fn top_t_larger_than_population_is_clamped() {
        let original = flows(&[30, 20, 10]);
        let exact = sampled(&[(0, 3), (1, 2), (2, 1)]);
        let outcome = compare_rankings(&original, &exact, 10);
        assert_eq!(outcome.ranking_swaps, 0);
        assert_eq!(outcome.detection_pairs, 0);
        assert!(top_set_matches(&original, &exact, 10));
    }

    #[test]
    fn ground_truth_ranking_is_reusable_across_lanes() {
        let original = flows(&[100, 80, 60, 40, 20]);
        let truth = GroundTruthRanking::new(original.clone(), 3);
        assert_eq!(truth.flows.len(), 5);
        assert_eq!(truth.top_t, 3);
        assert_eq!(truth.flows()[0].packets, 100);
        let exact = sampled(&[(0, 100), (1, 80), (2, 60), (3, 40), (4, 20)]);
        let degraded = sampled(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        // The prepared ranking scores any number of sampled tables and agrees
        // with the one-shot entry point on each.
        assert_eq!(
            truth.compare(&exact),
            compare_rankings(&original, &exact, 3)
        );
        assert_eq!(
            truth.compare(&degraded),
            compare_rankings(&original, &degraded, 3)
        );
        // Lookup-based scoring matches the map-based one.
        assert_eq!(
            truth.compare_with(|k| degraded.get(k).copied().unwrap_or(0)),
            truth.compare(&degraded)
        );
    }

    /// Brute-force counter written from the paper's definition over the
    /// *unsorted* population: a pair with `S_a > S_b` whose larger flow is in
    /// the true top `t` under the `(size, key)` order is swapped iff
    /// `s_b ≥ s_a`. No rank array, no sampled-size cache: a flow is in the top
    /// `t` when fewer than `t` flows precede it.
    fn brute_force(
        population: &[SizedFlow<u32>],
        sampled_size_of: impl Fn(&u32) -> u64,
        top_t: usize,
    ) -> ComparisonOutcome {
        let precedes = |a: &SizedFlow<u32>, b: &SizedFlow<u32>| {
            a.packets > b.packets || (a.packets == b.packets && a.key < b.key)
        };
        let in_top: Vec<bool> = population
            .iter()
            .map(|flow| population.iter().filter(|o| precedes(o, flow)).count() < top_t)
            .collect();
        let mut outcome = ComparisonOutcome {
            ranking_swaps: 0,
            detection_swaps: 0,
            missed_top_flows: 0,
            ranking_pairs: 0,
            detection_pairs: 0,
        };
        for (a, larger) in population.iter().enumerate() {
            if !in_top[a] {
                continue;
            }
            if sampled_size_of(&larger.key) == 0 {
                outcome.missed_top_flows += 1;
            }
            for (b, smaller) in population.iter().enumerate() {
                if larger.packets <= smaller.packets {
                    continue;
                }
                let swapped = sampled_size_of(&smaller.key) >= sampled_size_of(&larger.key);
                outcome.ranking_pairs += 1;
                outcome.ranking_swaps += u64::from(swapped);
                if !in_top[b] {
                    outcome.detection_pairs += 1;
                    outcome.detection_swaps += u64::from(swapped);
                }
            }
        }
        outcome
    }

    /// One random case of the kernel property: an unsorted population with
    /// rounded heavy-tailed sizes (long runs of ties, one of them forced
    /// across rank `t`), a top-`t` boundary, and a binomially thinned lane as
    /// `(key, sampled size)` pairs — which may name keys the truth does not
    /// hold.
    struct KernelCase {
        population: Vec<SizedFlow<u32>>,
        top_t: usize,
        lane: Vec<(u32, u64)>,
        /// How many of the lane's keys the population does not hold.
        absent: usize,
    }

    /// Sampling rates a lane is drawn at.
    const RATES: [f64; 6] = [0.0, 0.001, 0.01, 0.1, 0.5, 1.0];

    /// A lane that kept each packet of `population` with probability
    /// `rate`, as `(key, sampled size)` pairs of the flows it kept.
    fn thin(population: &[SizedFlow<u32>], rate: f64, rng: &mut Pcg64) -> Vec<(u32, u64)> {
        population
            .iter()
            .map(|flow| {
                let kept = (0..flow.packets).filter(|_| rng.bernoulli(rate)).count();
                (flow.key, kept as u64)
            })
            .filter(|&(_, kept)| kept > 0)
            .collect()
    }

    fn kernel_case(rng: &mut Pcg64) -> KernelCase {
        const ABSENT: usize = 8;
        let n = rng.index(401);
        let top_t = match rng.index(5) {
            0 => 0,
            1 => 1,
            2 => 10,
            3 => n,
            _ => n + 5,
        };
        let rate = RATES[rng.index(RATES.len())];
        // Pareto(shape 1.1) rounded down and capped: mostly 1s and 2s, a
        // few flows in the hundreds.
        let mut sizes: Vec<u64> = (0..n)
            .map(|_| (rng.next_open_f64().powf(-1.0 / 1.1) as u64).clamp(1, 2000))
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        if n > 0 && rng.bernoulli(0.5) {
            // A run of equal sizes that starts at or above rank t and ends
            // at or below it (still sorted: the run takes its first size).
            let lo = top_t.min(n - 1).saturating_sub(rng.index(4));
            let hi = (top_t + 1 + rng.index(4)).min(n);
            let size = sizes[lo];
            sizes[lo..hi].fill(size);
        }
        // Distinct keys spread over the whole u32 range, in an order that
        // has nothing to do with size; the last few are held back as keys
        // only a lane knows.
        let mut keys: Vec<u32> = (0..(n + ABSENT) as u32)
            .map(|k| k.wrapping_mul(0x9E37_79B1))
            .collect();
        rng.shuffle(&mut keys);
        let mut population: Vec<SizedFlow<u32>> = sizes
            .iter()
            .zip(&keys)
            .map(|(&packets, &key)| SizedFlow { key, packets })
            .collect();
        rng.shuffle(&mut population);
        let mut lane = thin(&population, rate, rng);
        let absent = if rng.bernoulli(0.25) {
            1 + rng.index(ABSENT)
        } else {
            0
        };
        for &key in &keys[n..n + absent] {
            lane.push((key, 1 + rng.next_below(50)));
        }
        rng.shuffle(&mut lane);
        KernelCase {
            population,
            top_t,
            lane,
            absent,
        }
    }

    /// A lane fed the way a table lane is: each sampled key resolved to its
    /// flow id (its position in the population), keys the truth does not
    /// hold skipped. Returns the counts by id and the ids counted.
    fn by_id(population: &[SizedFlow<u32>], lane: &[(u32, u64)]) -> (Vec<u32>, Vec<u32>) {
        let ids: FlowMap<u32, u32> = population.iter().map(|f| f.key).zip(0..).collect();
        let mut counts = vec![0u32; population.len()];
        let mut touched = Vec::new();
        for (key, size) in lane {
            if let Some(&id) = ids.get(key) {
                counts[id as usize] = *size as u32;
                touched.push(id);
            }
        }
        (counts, touched)
    }

    /// Whether the population's rank-order copy has been built.
    fn rank_order_built<K>(truth: &GroundTruthRanking<K>) -> bool {
        truth.rank_order.get().is_some()
    }

    /// Holds what `new` selects — the top ids, `top()` and every tie end —
    /// against a full sort of `population` by (size descending, key
    /// ascending), without building the truth's own rank-order copy.
    fn assert_selection_matches_a_full_sort(
        truth: &GroundTruthRanking<u32>,
        population: &[SizedFlow<u32>],
    ) {
        let built = rank_order_built(truth);
        let (n, t) = (population.len(), truth.top_t);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&population[a as usize], &population[b as usize]);
            b.packets.cmp(&a.packets).then(a.key.cmp(&b.key))
        });
        let kept = (t + 1).min(n);
        assert_eq!(truth.top_ids, order[..kept], "top ids, n = {n}, t = {t}");
        let top: Vec<&SizedFlow<u32>> = order[..kept]
            .iter()
            .map(|&id| &population[id as usize])
            .collect();
        assert_eq!(
            truth.top().collect::<Vec<_>>(),
            top,
            "top(), n = {n}, t = {t}"
        );
        let tie_end: Vec<u32> = top[..t]
            .iter()
            .map(|a| population.iter().filter(|b| b.packets >= a.packets).count() as u32)
            .collect();
        assert_eq!(truth.tie_end, tie_end, "tie ends, n = {n}, t = {t}");
        assert_eq!(rank_order_built(truth), built, "the checks sorted");
    }

    /// A population of distinct keys, in no order, holding `sizes`.
    fn shuffled(sizes: &[u64], rng: &mut Pcg64) -> Vec<SizedFlow<u32>> {
        let mut keys: Vec<u32> = (0..sizes.len() as u32)
            .map(|k| k.wrapping_mul(0x9E37_79B1))
            .collect();
        rng.shuffle(&mut keys);
        sizes
            .iter()
            .zip(keys)
            .map(|(&packets, key)| SizedFlow { key, packets })
            .collect()
    }

    #[test]
    fn tie_heavy_populations_select_and_score_like_the_definition() {
        // (sizes, t): every edge of the selection and of the tie ends.
        let straddle: Vec<u64> = (0..300).map(|i| [9, 5, 5, 3, 1, 1, 1][i % 7]).collect();
        let shapes: Vec<(Vec<u64>, usize)> = vec![
            // The t-th and (t+1)-th sizes tied, inside and across longer runs.
            (vec![9, 8, 7, 7, 5, 5, 5, 5, 2, 1], 5),
            (vec![9, 8, 7, 7, 5, 5, 5, 5, 2, 1], 4),
            (vec![4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 1], 3),
            (straddle.clone(), 10),
            (straddle.clone(), 43),
            (straddle, 299),
            // All sizes equal.
            (vec![4; 20], 1),
            (vec![4; 20], 7),
            (vec![4; 20], 19),
            (vec![4; 20], 20),
            (vec![1; 300], 10),
            // n < t, n = t and n = t + 1.
            (vec![6, 6, 3, 2, 2], 6),
            (vec![6, 6, 3, 2, 2, 2], 6),
            (vec![6, 6, 3, 2, 2, 2, 2], 6),
            (vec![7], 0),
            (vec![7], 1),
            (vec![7], 2),
            // t = 0 and n = 0.
            (vec![9, 8, 8, 3, 1], 0),
            (vec![], 0),
            (vec![], 3),
        ];
        let mut rng = Pcg64::seed_from_u64(0x71E5);
        for (sizes, top_t) in shapes {
            for _ in 0..4 {
                let population = shuffled(&sizes, &mut rng);
                let truth = GroundTruthRanking::new(population.clone(), top_t);
                assert_selection_matches_a_full_sort(&truth, &population);
                for rate in RATES {
                    let lane = thin(&population, rate, &mut rng);
                    let (counts, touched) = by_id(&population, &lane);
                    let sparse = truth.compare_sparse(&counts, &touched);
                    let sampled: FlowMap<u32, u64> = lane.iter().copied().collect();
                    let lookup = |key: &u32| sampled.get(key).copied().unwrap_or(0);
                    assert_eq!(
                        sparse,
                        truth.compare_with(lookup),
                        "sizes {sizes:?}, t = {top_t}, rate {rate}"
                    );
                    assert_eq!(sparse, brute_force(&population, lookup, top_t));
                }
            }
        }
    }

    #[test]
    fn scoring_sorts_nothing_until_an_oracle_asks() {
        let mut rng = Pcg64::seed_from_u64(42);
        let sizes: Vec<u64> = (0..500).map(|i| 1 + (i % 13) * (i % 5)).collect();
        let population = shuffled(&sizes, &mut rng);
        let truth = GroundTruthRanking::new(population.clone(), 10);
        assert_eq!(truth.top().len(), 11);
        for rate in RATES {
            let (counts, touched) = by_id(&population, &thin(&population, rate, &mut rng));
            truth.compare_sparse(&counts, &touched);
        }
        assert!(!rank_order_built(&truth), "scoring built the rank order");
        // The accessors that read ranks build the copy once and reuse it.
        let ranked = truth.flows();
        assert!(rank_order_built(&truth));
        assert!(std::ptr::eq(ranked, truth.flows()));
        assert_eq!(ranked[truth.rank_of_id(7)], population[7]);
    }

    #[test]
    fn kernels_agree_with_the_brute_force_definition_on_random_cases() {
        const CASES: usize = 20_000;
        const MASTER_SEED: u64 = 0x5EA1_C0DE;
        let mut straddling = 0usize;
        let mut absent_keys = 0usize;
        let mut all_zero = 0usize;
        for (case, seed) in derive_seeds(MASTER_SEED, CASES).into_iter().enumerate() {
            let KernelCase {
                population,
                top_t,
                lane,
                absent,
            } = kernel_case(&mut Pcg64::seed_from_u64(seed));
            let sampled: FlowMap<u32, u64> = lane.iter().copied().collect();
            let lookup = |key: &u32| sampled.get(key).copied().unwrap_or(0);
            let expected = brute_force(&population, lookup, top_t);
            let truth = GroundTruthRanking::new(population.clone(), top_t);
            assert_eq!(
                truth.compare_with(lookup),
                expected,
                "compare_with, case {case} (seed {seed:#x}): n = {}, t = {top_t}, m = {}",
                population.len(),
                lane.len()
            );
            let (counts, touched) = by_id(&population, &lane);
            assert_eq!(
                truth.compare_sparse(&counts, &touched),
                expected,
                "compare_sparse, case {case} (seed {seed:#x}): n = {}, t = {top_t}, m = {}",
                population.len(),
                lane.len()
            );

            assert_selection_matches_a_full_sort(&truth, &population);
            let ranked = truth.flows();
            straddling += usize::from(
                (1..ranked.len()).contains(&top_t)
                    && ranked[top_t - 1].packets == ranked[top_t].packets,
            );
            absent_keys += usize::from(absent > 0);
            all_zero += usize::from(lane.is_empty() && !population.is_empty());
        }
        // The generator must keep producing the cases the kernel is most
        // likely to get wrong.
        assert!(
            straddling > CASES / 20,
            "tie runs across rank t: {straddling}"
        );
        assert!(
            absent_keys > CASES / 10,
            "lanes with absent keys: {absent_keys}"
        );
        assert!(all_zero > CASES / 10, "all-zero lanes: {all_zero}");
    }

    #[test]
    fn empty_population() {
        let original: Vec<SizedFlow<u32>> = Vec::new();
        let outcome = compare_rankings(&original, &FlowMap::new(), 5);
        assert_eq!(outcome.ranking_pairs, 0);
        assert_eq!(outcome.ranking_swaps, 0);
        assert!(top_set_matches(&original, &FlowMap::new(), 5));
        // An empty bin stays free: nothing is allocated, a lane whose kept
        // flows the truth never saw (so none resolved to an id) scores to
        // nothing, and no rank-order copy is built.
        let truth = GroundTruthRanking::new(original, 5);
        assert_eq!(truth.flows.capacity(), 0);
        assert_eq!(truth.top_ids.capacity(), 0);
        assert_eq!(truth.tie_end.capacity(), 0);
        assert_eq!(truth.compare_sparse(&[3], &[]), outcome);
        assert!(!rank_order_built(&truth));
    }
}
