//! The guarantees the top-k backends are cited for, asserted against the
//! exact backend on every catalog scenario, plus a brute-force reference of
//! the bounded memories' victim rule — a literal scan for the `(count, key)`
//! minimum, which the memories' indexed min-heap has to agree with packet
//! for packet, counts and displacements included.
//!
//! Everything here goes through `TopKSpec::build()` or, for the counters
//! the trait does not expose, `FlowMemory`'s own accessors, so the suite is
//! independent of how the backends are laid out behind the spec. The
//! conformance goldens pin *digests* of what the backends do today; these
//! tests pin that what they do is *right*:
//!
//! * Space-Saving with `k` counters over `N` packets (Metwally, Agrawal &
//!   El Abbadi, ICDT 2005): every tracked flow has
//!   `true ≤ estimate ≤ true + N/k`, and every flow with `true > N/k` is
//!   tracked.
//! * The bounded sorted list and sample-and-hold count a flow only while it
//!   is in memory: `estimate ≤ true`.
//! * The multistage filter whose flow memory never fills (Estan & Varghese,
//!   SIGCOMM 2002) has no false negatives — every flow with
//!   `true ≥ threshold` is tracked — and never undercounts a tracked flow.
//! * Exact counting is exact.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use flowrank_monitor::TopKSpec;
use flowrank_net::{FiveTuple, FlowKey, Protocol};
use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};
use flowrank_topk::{FlowMemory, TopKTracker};
use flowrank_trace::Workload;

/// Counters of the bounded backends: far fewer than any catalog scenario's
/// flows, so eviction, replacement and refusal all happen.
const CAPACITY: usize = 24;
/// Promotion threshold of the multistage filter.
const THRESHOLD: u64 = 8;
/// A multistage flow memory no catalog scenario fills.
const ROOMY: usize = 1 << 20;

/// The 5-tuple of every packet of `workload`, in arrival order.
fn packet_keys(workload: &Workload, seed: u64) -> Vec<FiveTuple> {
    workload
        .synthesize(seed)
        .iter()
        .map(FiveTuple::from_packet)
        .collect()
}

/// Feeds `keys` to a fresh tracker of `spec` and returns it.
fn fed(spec: TopKSpec, keys: &[FiveTuple], seed: u64) -> Box<dyn TopKTracker + Send> {
    let mut tracker = spec.build();
    let mut rng = Pcg64::seed_from_u64(seed);
    for key in keys {
        tracker.observe(key, &mut rng);
    }
    tracker
}

/// Every flow a tracker holds, with its estimate.
fn tracked(tracker: &dyn TopKTracker) -> BTreeMap<FiveTuple, u64> {
    let entries = tracker.top(usize::MAX);
    assert_eq!(entries.len(), tracker.memory_entries());
    entries.iter().map(|e| (e.key, e.estimate)).collect()
}

#[test]
fn every_backend_keeps_its_cited_bound_on_every_catalog_scenario() {
    for (index, workload) in Workload::catalog().into_iter().enumerate() {
        let name = workload.name();
        let keys = packet_keys(&workload, 0x5EED_B0D5 ^ ((index as u64) << 32));
        let n = keys.len() as u64;
        let mut counted = BTreeMap::new();
        for key in &keys {
            *counted.entry(*key).or_insert(0u64) += 1;
        }
        assert!(
            counted.len() > 4 * CAPACITY,
            "{name}: {} flows cannot pressure {CAPACITY} counters",
            counted.len()
        );

        // Exact is exact — and is the truth the other four are held to.
        let truth = tracked(fed(TopKSpec::Exact, &keys, 1).as_ref());
        assert_eq!(truth, counted, "{name}: exact backend miscounts");
        let true_size = |key: &FiveTuple| truth.get(key).copied().unwrap_or(0);

        // Space-Saving: bounded overestimate, no heavy flow missed.
        let capacity = CAPACITY;
        let slack = n / capacity as u64;
        let held = tracked(fed(TopKSpec::SpaceSaving { capacity }, &keys, 2).as_ref());
        assert_eq!(
            held.len(),
            CAPACITY,
            "{name}: space-saving fills its counters"
        );
        for (key, &estimate) in &held {
            let size = true_size(key);
            assert!(
                size <= estimate && estimate <= size + slack,
                "{name}: space-saving estimate {estimate} outside [{size}, {size} + {slack}]"
            );
        }
        for (key, &size) in &truth {
            assert!(
                size <= slack || held.contains_key(key),
                "{name}: space-saving lost a flow of {size} > N/k = {slack} packets"
            );
        }

        // Sorted list and sample-and-hold count only while the flow is held.
        let undercounting = [
            TopKSpec::SortedList { capacity },
            TopKSpec::SampleAndHold {
                entry_probability: 0.05,
                capacity,
            },
        ];
        for spec in undercounting {
            let held = tracked(fed(spec, &keys, 3).as_ref());
            assert!(!held.is_empty() && held.len() <= CAPACITY, "{name}");
            for (key, &estimate) in &held {
                let size = true_size(key);
                assert!(
                    (1..=size).contains(&estimate),
                    "{name}: {} estimate {estimate} overcounts a flow of {size}",
                    spec.name()
                );
            }
        }

        // Multistage filter in front of a memory that never fills.
        let spec = TopKSpec::Multistage {
            stages: 2,
            counters_per_stage: 128,
            threshold: THRESHOLD,
            memory_capacity: ROOMY,
        };
        let held = tracked(fed(spec, &keys, 4).as_ref());
        assert!(held.len() < ROOMY, "{name}: the roomy memory filled");
        for (key, &estimate) in &held {
            let size = true_size(key);
            assert!(
                estimate >= size,
                "{name}: multistage estimate {estimate} undercounts a flow of {size}"
            );
        }
        for (key, &size) in &truth {
            assert!(
                size < THRESHOLD || held.contains_key(key),
                "{name}: multistage missed a flow of {size} >= {THRESHOLD} packets"
            );
        }
    }
}

/// Brute-force reference of the two bounded memories' rule: a `Vec` of
/// `(key, count)`; on a miss with the memory full, the victim is found by a
/// literal scan for the `(count, key)` minimum. The sorted list starts the
/// newcomer at 1, Space-Saving at the victim's count plus 1.
struct VecMemory {
    capacity: usize,
    inherit: bool,
    entries: Vec<(FiveTuple, u64)>,
    /// Victims since the last reset.
    evictions: u64,
}

impl VecMemory {
    fn new(capacity: usize, inherit: bool) -> Self {
        VecMemory {
            capacity,
            inherit,
            entries: Vec::new(),
            evictions: 0,
        }
    }

    fn count(&self, key: &FiveTuple) -> Option<u64> {
        self.entries
            .iter()
            .find(|entry| entry.0 == *key)
            .map(|entry| entry.1)
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.evictions = 0;
    }

    fn observe(&mut self, key: FiveTuple) {
        if let Some(entry) = self.entries.iter_mut().find(|entry| entry.0 == key) {
            entry.1 += 1;
            return;
        }
        let mut count = 1;
        if self.entries.len() >= self.capacity {
            let mut victim = 0;
            for (i, &(candidate, held)) in self.entries.iter().enumerate() {
                let (lowest_key, lowest) = self.entries[victim];
                if (held, candidate) < (lowest, lowest_key) {
                    victim = i;
                }
            }
            let (_, evicted) = self.entries.swap_remove(victim);
            self.evictions += 1;
            if self.inherit {
                count += evicted;
            }
        }
        self.entries.push((key, count));
    }
}

/// Test flow number `i`; the field mix makes key order differ from `i`'s.
fn flow(i: u32) -> FiveTuple {
    FiveTuple {
        src_ip: Ipv4Addr::from(0x0A00_0000 | (i * 7 % 16)),
        dst_ip: Ipv4Addr::new(100, 64, 0, i as u8),
        src_port: 1_000 + (i * 5 % 16) as u16,
        dst_port: 80,
        protocol: if i.is_multiple_of(3) {
            Protocol::Udp
        } else {
            Protocol::Tcp
        },
    }
}

#[test]
fn victim_order_matches_the_brute_force_reference_on_tie_heavy_streams() {
    let mut evicting_cases = 0;
    for capacity in [1usize, 2, 7, 64] {
        for (case, distinct) in [2u64, 3, 8, 16, 16, 16].into_iter().enumerate() {
            for inherit in [false, true] {
                let spec = if inherit {
                    TopKSpec::SpaceSaving { capacity }
                } else {
                    TopKSpec::SortedList { capacity }
                };
                let seed = 0x71E5 ^ ((capacity as u64) << 16) ^ ((case as u64) << 8);
                let mut draw = Pcg64::seed_from_u64(seed);
                let mut unused = Pcg64::seed_from_u64(0);
                let mut tracker = spec.build();
                let mut reference = VecMemory::new(capacity, inherit);
                // Few keys drawn uniformly: counts stay level, so almost
                // every eviction has to break a tie on the key.
                for packet in 0..3_000 {
                    let key = flow(draw.next_below(distinct) as u32);
                    tracker.observe(&key, &mut unused);
                    reference.observe(key);
                    let mut expected = reference.entries.clone();
                    expected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    let got: Vec<(FiveTuple, u64)> = tracker
                        .top(usize::MAX)
                        .iter()
                        .map(|e| (e.key, e.estimate))
                        .collect();
                    assert_eq!(
                        got,
                        expected,
                        "{} capacity {capacity}, {distinct} keys, packet {packet}",
                        spec.name()
                    );
                }
                evicting_cases += usize::from(distinct as usize > capacity);
            }
        }
    }
    assert!(evicting_cases >= 30, "most cases must actually evict");
}

#[test]
fn counts_and_displacements_match_the_reference_across_bin_resets() {
    for capacity in [1usize, 2, 7, 64] {
        for skewed in [false, true] {
            for inherit in [false, true] {
                let spec = if inherit {
                    TopKSpec::SpaceSaving { capacity }
                } else {
                    TopKSpec::SortedList { capacity }
                };
                let seed = 0xB1_5EA1 ^ ((capacity as u64) << 16) ^ (u64::from(skewed) << 8);
                let mut draw = Pcg64::seed_from_u64(seed);
                let mut unused = Pcg64::seed_from_u64(0);
                let mut tracker = FlowMemory::new(spec);
                let mut reference = VecMemory::new(capacity, inherit);
                let mut evicted_somewhere = false;
                for packet in 0..4_000 {
                    // The monitor resets its tracker at every bin seal.
                    if packet % 500 == 0 {
                        tracker.reset();
                        reference.reset();
                    }
                    // Skewed: three flows carry three packets in four, so
                    // their counts climb past every light flow's and a hit
                    // on one moves it through the memory's order. Level: a
                    // pool just over twice the capacity, drawn uniformly.
                    let index = if skewed {
                        match draw.next_below(8) {
                            0..=2 => 0,
                            3 | 4 => 1,
                            5 => 2,
                            _ => 3 + draw.next_below(200),
                        }
                    } else {
                        draw.next_below(2 * capacity as u64 + 1)
                    };
                    let key = flow(index as u32);
                    tracker.observe(&key, &mut unused);
                    reference.observe(key);
                    let context = format!(
                        "{} capacity {capacity}, skewed {skewed}, packet {packet}",
                        spec.name()
                    );
                    assert_eq!(tracker.count(&key), reference.count(&key), "{context}");
                    assert_eq!(tracker.displaced(), reference.evictions, "{context}");
                    assert_eq!(
                        tracker.memory_entries(),
                        reference.entries.len(),
                        "{context}"
                    );
                    evicted_somewhere |= reference.evictions > 0;
                }
                let mut expected = reference.entries.clone();
                expected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let got: Vec<(FiveTuple, u64)> = tracker
                    .top(usize::MAX)
                    .iter()
                    .map(|e| (e.key, e.estimate))
                    .collect();
                assert_eq!(got, expected, "{} capacity {capacity}", spec.name());
                assert!(evicted_somewhere, "{} capacity {capacity}", spec.name());
            }
        }
    }
}
