//! # flowrank-topk
//!
//! Heavy-hitter / top-k flow memory: one memory, five admission policies.
//!
//! The related-work section of the paper (Sec. 2) surveys mechanisms that
//! rank the largest flows *under memory constraints* — maintaining a small
//! sorted list (Jedwab, Phaal & Pinna, HP Labs 1992, reference \[13\]) or the
//! sample-and-hold / multistage-filter techniques of Estan & Varghese
//! (reference \[11\]) — and its first future-work direction is to feed *sampled*
//! traffic into those mechanisms. This crate implements them so that a
//! monitor lane can run exactly that experiment.
//!
//! All of them are the same object: a table of flows whose packets are
//! counted exactly while the flow is tracked. They differ only in what a
//! packet of an *untracked* flow does, and [`TopKSpec`] is the enum of those
//! five decisions with their parameters:
//!
//! * [`TopKSpec::Exact`] — always insert (the ground truth the paper uses).
//! * [`TopKSpec::SortedList`] — evict the smallest record, start at 1 (\[13\]).
//! * [`TopKSpec::SpaceSaving`] — take over the smallest counter and inherit
//!   its count (Metwally et al. 2005), a later baseline included as an
//!   extension because it strictly dominates the bounded sorted list on the
//!   same memory budget.
//! * [`TopKSpec::SampleAndHold`] — insert with a small probability while
//!   there is room (\[11\]).
//! * [`TopKSpec::Multistage`] — raise one hashed counter per stage and
//!   promote the flow once all of them reach a threshold (\[11\]).
//!
//! [`FlowMemory`] runs a spec and is the only [`TopKTracker`]; the hit path,
//! the top-`t` list and the indexed `(count, key)` min-heap that finds the
//! two evicting policies' victim in O(log capacity) exist once, and each
//! algorithm's citation and description sit on its arm of the one private
//! `admit` function in [`memory`]. A tracker is driven packet-by-packet
//! (flow key + increment) and reports an estimated top-`t` list at the end
//! of the measurement interval.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memory;
pub mod tracker;

pub use memory::{FlowMemory, TopKSpec};
pub use tracker::{TopKEntry, TopKTracker};

// The unit tests each policy had as a type of its own, now run through its
// spec; one module per policy.

#[cfg(test)]
mod exact {
    mod tests {
        use crate::tracker::test_util::{key, skewed_workload};
        use crate::{FlowMemory, TopKSpec, TopKTracker};
        use flowrank_stats::rng::{Pcg64, SeedableRng};

        #[test]
        fn counts_exactly() {
            let mut tracker = FlowMemory::new(TopKSpec::Exact);
            let mut rng = Pcg64::seed_from_u64(1);
            for packet_key in skewed_workload(10, 5) {
                tracker.observe(&packet_key, &mut rng);
            }
            assert_eq!(tracker.count(&key(0)), Some(50));
            assert_eq!(tracker.count(&key(9)), Some(5));
            assert_eq!(tracker.count(&key(100)), None);
            assert_eq!(tracker.memory_entries(), 10);
            assert_eq!(tracker.displaced(), 0);
        }

        #[test]
        fn top_list_is_correctly_ordered() {
            let mut tracker = FlowMemory::new(TopKSpec::Exact);
            let mut rng = Pcg64::seed_from_u64(1);
            for packet_key in skewed_workload(20, 3) {
                tracker.observe(&packet_key, &mut rng);
            }
            let top5 = tracker.top(5);
            assert_eq!(top5.len(), 5);
            let estimates: Vec<u64> = top5.iter().map(|e| e.estimate).collect();
            assert_eq!(estimates, vec![60, 57, 54, 51, 48]);
            assert_eq!(top5[0].key, key(0));
            // Asking for more than exists returns everything.
            assert_eq!(tracker.top(100).len(), 20);
        }

        #[test]
        fn reset_clears_state() {
            let mut tracker = FlowMemory::new(TopKSpec::Exact);
            let mut rng = Pcg64::seed_from_u64(1);
            tracker.observe(&key(1), &mut rng);
            assert_eq!(tracker.memory_entries(), 1);
            tracker.reset();
            assert_eq!(tracker.memory_entries(), 0);
            assert!(tracker.top(3).is_empty());
            assert_eq!(tracker.name(), "exact");
        }
    }
}

#[cfg(test)]
mod sorted_list {
    mod tests {
        use crate::tracker::test_util::{key, skewed_workload};
        use crate::{FlowMemory, TopKSpec, TopKTracker};
        use flowrank_stats::rng::{Pcg64, SeedableRng};

        fn sorted_list(capacity: usize) -> FlowMemory {
            FlowMemory::new(TopKSpec::SortedList { capacity })
        }

        #[test]
        fn never_exceeds_capacity() {
            let mut tracker = sorted_list(16);
            let mut rng = Pcg64::seed_from_u64(1);
            for packet_key in skewed_workload(100, 2) {
                tracker.observe(&packet_key, &mut rng);
                assert!(tracker.memory_entries() <= 16);
            }
            assert!(tracker.displaced() > 0);
        }

        #[test]
        fn finds_large_flows_when_memory_is_generous() {
            // With memory comfortably larger than the number of heavy flows,
            // the top of the list matches the exact ranking.
            let workload = skewed_workload(50, 20);
            let mut bounded = sorted_list(100);
            let mut exact = FlowMemory::new(TopKSpec::Exact);
            let mut rng = Pcg64::seed_from_u64(2);
            for packet_key in &workload {
                bounded.observe(packet_key, &mut rng);
                exact.observe(packet_key, &mut rng);
            }
            let top_bounded: Vec<_> = bounded.top(5).iter().map(|e| e.key).collect();
            let top_exact: Vec<_> = exact.top(5).iter().map(|e| e.key).collect();
            assert_eq!(top_bounded, top_exact);
        }

        #[test]
        fn tight_memory_loses_counts_under_eviction_pressure() {
            // The bottom-eviction list is known to thrash when the number of
            // concurrently active flows exceeds its capacity (this is exactly
            // the weakness Estan–Varghese address): the heaviest flow keeps
            // being evicted and restarted, so its final estimate is far below
            // its true 2000 packets. This test documents that limitation.
            let workload = skewed_workload(200, 10);
            let mut tracker = sorted_list(32);
            let mut rng = Pcg64::seed_from_u64(3);
            for packet_key in &workload {
                tracker.observe(packet_key, &mut rng);
            }
            assert!(tracker.displaced() > 0);
            let top = tracker.top(1);
            assert!(
                top[0].estimate < 1_000,
                "bounded list should have lost most of the heavy flow's count, got {}",
                top[0].estimate
            );
        }

        #[test]
        fn capacity_one_degenerates_to_last_heavy_hitter() {
            let mut tracker = sorted_list(1);
            let mut rng = Pcg64::seed_from_u64(4);
            for _ in 0..10 {
                tracker.observe(&key(7), &mut rng);
            }
            assert_eq!(tracker.top(1)[0].key, key(7));
            assert_eq!(tracker.top(1)[0].estimate, 10);
            // A capacity of 0 is clamped to 1: the newcomer replaces flow 7.
            let mut clamped = sorted_list(0);
            clamped.observe(&key(7), &mut rng);
            clamped.observe(&key(8), &mut rng);
            assert_eq!(clamped.count(&key(8)), Some(1));
            assert_eq!(clamped.memory_entries(), 1);
        }

        #[test]
        fn reset_clears_counters_and_evictions() {
            let mut tracker = sorted_list(4);
            let mut rng = Pcg64::seed_from_u64(5);
            for packet_key in skewed_workload(10, 2) {
                tracker.observe(&packet_key, &mut rng);
            }
            tracker.reset();
            assert_eq!(tracker.memory_entries(), 0);
            assert_eq!(tracker.displaced(), 0);
            assert_eq!(tracker.name(), "sorted-list");
        }
    }
}

#[cfg(test)]
mod space_saving {
    mod tests {
        use crate::tracker::test_util::{key, skewed_workload};
        use crate::{FlowMemory, TopKSpec, TopKTracker};
        use flowrank_net::FiveTuple;
        use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};

        fn space_saving(capacity: usize) -> FlowMemory {
            FlowMemory::new(TopKSpec::SpaceSaving { capacity })
        }

        #[test]
        fn memory_is_exactly_bounded() {
            let mut tracker = space_saving(10);
            let mut rng = Pcg64::seed_from_u64(1);
            for packet_key in skewed_workload(200, 3) {
                tracker.observe(&packet_key, &mut rng);
                assert!(tracker.memory_entries() <= 10);
            }
            assert_eq!(tracker.memory_entries(), 10);
            // A capacity of 0 is clamped to 1: the second flow takes over
            // the first one's counter and inherits its count.
            let mut clamped = space_saving(0);
            clamped.observe(&key(1), &mut rng);
            clamped.observe(&key(2), &mut rng);
            assert_eq!(clamped.count(&key(2)), Some(2));
            assert_eq!(clamped.memory_entries(), 1);
        }

        #[test]
        fn estimates_are_upper_bounds_within_error() {
            let workload = skewed_workload(100, 10);
            let mut tracker = space_saving(50);
            let mut exact = FlowMemory::new(TopKSpec::Exact);
            let mut rng = Pcg64::seed_from_u64(2);
            for packet_key in &workload {
                tracker.observe(packet_key, &mut rng);
                exact.observe(packet_key, &mut rng);
            }
            // Metwally et al.: no counter overestimates by more than N/k.
            let slack = workload.len() as u64 / 50;
            for entry in tracker.top(50) {
                let true_count = exact.count(&entry.key).unwrap_or(0);
                assert!(
                    entry.estimate >= true_count,
                    "estimate must upper-bound truth"
                );
                assert!(entry.estimate <= true_count + slack, "N/k bound violated");
            }
        }

        #[test]
        fn heavy_hitters_survive_with_tight_memory() {
            // 5 elephants of 1000 packets among 1000 mice of 1 packet.
            let mut packets = Vec::new();
            for i in 0..5u32 {
                for _ in 0..1_000 {
                    packets.push(key(i));
                }
            }
            for i in 100..1_100u32 {
                packets.push(key(i));
            }
            // Interleave mice throughout to stress replacement.
            let mut rng_shuffle = Pcg64::seed_from_u64(3);
            rng_shuffle.shuffle(&mut packets);

            let mut tracker = space_saving(64);
            let mut rng = Pcg64::seed_from_u64(4);
            for packet_key in &packets {
                tracker.observe(packet_key, &mut rng);
            }
            let top: Vec<FiveTuple> = tracker.top(5).iter().map(|e| e.key).collect();
            for i in 0..5u32 {
                assert!(top.contains(&key(i)), "elephant {i} missing from top-5");
            }
        }

        #[test]
        fn reset_clears_counters() {
            let mut tracker = space_saving(4);
            let mut rng = Pcg64::seed_from_u64(5);
            tracker.observe(&key(1), &mut rng);
            assert_eq!(tracker.memory_entries(), 1);
            assert_eq!(tracker.count(&key(1)), Some(1));
            tracker.reset();
            assert_eq!(tracker.memory_entries(), 0);
            assert_eq!(tracker.count(&key(1)), None);
            assert_eq!(tracker.name(), "space-saving");
        }
    }
}

#[cfg(test)]
mod sample_and_hold {
    mod tests {
        use crate::tracker::test_util::{key, skewed_workload};
        use crate::{FlowMemory, TopKSpec, TopKTracker};
        use flowrank_stats::rng::{Pcg64, SeedableRng};

        fn sample_and_hold(entry_probability: f64, capacity: usize) -> FlowMemory {
            FlowMemory::new(TopKSpec::SampleAndHold {
                entry_probability,
                capacity,
            })
        }

        #[test]
        fn large_flows_are_held_and_counted_nearly_exactly() {
            // Flow 0 sends 2000 packets; with p=0.01 it is caught within a
            // few hundred packets and counted exactly afterwards.
            let mut tracker = sample_and_hold(0.01, 1_000);
            let mut rng = Pcg64::seed_from_u64(1);
            for packet_key in skewed_workload(20, 100) {
                tracker.observe(&packet_key, &mut rng);
            }
            let top = tracker.top(3);
            assert!(!top.is_empty());
            // The heaviest flow (2000 packets) is caught early and counted
            // nearly exactly; because the estimate only counts packets since
            // insertion, it may be narrowly outranked by the second-heaviest
            // flow, but it must appear near the top with most of its packets
            // counted.
            let heaviest = top
                .iter()
                .find(|e| e.key == key(0))
                .expect("heaviest flow must be in the top 3");
            assert!(heaviest.estimate > 1_000 && heaviest.estimate <= 2_000);
        }

        #[test]
        fn small_flows_mostly_stay_out_of_memory() {
            let mut tracker = sample_and_hold(0.001, 10_000);
            let mut rng = Pcg64::seed_from_u64(2);
            // 5000 flows of 2 packets each.
            for i in 0..5_000u32 {
                tracker.observe(&key(i), &mut rng);
                tracker.observe(&key(i), &mut rng);
            }
            assert!(
                tracker.memory_entries() < 100,
                "only ~10 of 5000 mouse flows should be held, got {}",
                tracker.memory_entries()
            );
        }

        #[test]
        fn capacity_limit_is_enforced() {
            let mut tracker = sample_and_hold(1.0, 8);
            let mut rng = Pcg64::seed_from_u64(3);
            for i in 0..100u32 {
                tracker.observe(&key(i), &mut rng);
            }
            assert_eq!(tracker.memory_entries(), 8);
            assert_eq!(tracker.displaced(), 92);
        }

        #[test]
        fn zero_probability_never_creates_entries() {
            let mut tracker = sample_and_hold(0.0, 100);
            let mut rng = Pcg64::seed_from_u64(4);
            for packet_key in skewed_workload(5, 10) {
                tracker.observe(&packet_key, &mut rng);
            }
            assert_eq!(tracker.memory_entries(), 0);
            assert!(tracker.top(5).is_empty());
        }

        #[test]
        fn reset_and_accessors() {
            // An out-of-range probability is clamped to 1: every flow enters.
            let mut tracker = sample_and_hold(1.7, 10);
            let mut rng = Pcg64::seed_from_u64(5);
            tracker.observe(&key(1), &mut rng);
            assert_eq!(tracker.count(&key(1)), Some(1));
            tracker.reset();
            assert_eq!(tracker.memory_entries(), 0);
            assert_eq!(tracker.name(), "sample-and-hold");
        }
    }
}

#[cfg(test)]
mod multistage {
    mod tests {
        use crate::tracker::test_util::key;
        use crate::{FlowMemory, TopKSpec, TopKTracker};
        use flowrank_stats::rng::{Pcg64, SeedableRng};

        fn multistage(
            stages: usize,
            counters_per_stage: usize,
            threshold: u64,
            memory_capacity: usize,
        ) -> FlowMemory {
            FlowMemory::new(TopKSpec::Multistage {
                stages,
                counters_per_stage,
                threshold,
                memory_capacity,
            })
        }

        #[test]
        fn elephants_are_promoted_mice_are_not() {
            let mut filter = multistage(4, 1024, 50, 100);
            let mut rng = Pcg64::seed_from_u64(1);
            // Flow 0: 500 packets (elephant); flows 1..=400: 2 packets each.
            for _ in 0..500 {
                filter.observe(&key(0), &mut rng);
            }
            for i in 1..=400u32 {
                filter.observe(&key(i), &mut rng);
                filter.observe(&key(i), &mut rng);
            }
            let top = filter.top(5);
            assert!(
                top.iter().any(|e| e.key == key(0)),
                "elephant must be tracked"
            );
            // The elephant's exact count after promotion is close to its size.
            let elephant = top.iter().find(|e| e.key == key(0)).unwrap();
            assert!(elephant.estimate >= 450, "estimate {}", elephant.estimate);
            // Few mice sneak in.
            assert!(
                filter.memory_entries() <= 10,
                "flow memory holds {} entries",
                filter.memory_entries()
            );
        }

        #[test]
        fn memory_capacity_is_respected() {
            let mut filter = multistage(1, 4, 1, 5);
            let mut rng = Pcg64::seed_from_u64(3);
            for i in 0..100u32 {
                filter.observe(&key(i), &mut rng);
                filter.observe(&key(i), &mut rng);
            }
            assert!(filter.memory_entries() <= 5);
            assert!(filter.displaced() > 0, "refused promotions are counted");
        }

        #[test]
        fn reset_and_accessors() {
            let mut filter = multistage(3, 128, 10, 50);
            let mut rng = Pcg64::seed_from_u64(4);
            for _ in 0..100 {
                filter.observe(&key(1), &mut rng);
            }
            assert!(filter.memory_entries() > 0);
            assert!(filter.filter_estimate(&key(1)) > 0);
            filter.reset();
            assert_eq!(filter.memory_entries(), 0);
            assert_eq!(filter.filter_estimate(&key(1)), 0);
            assert_eq!(filter.name(), "multistage-filter");
            // Degenerate dimensions are clamped to one stage of one counter,
            // threshold 1, room for one flow: the first packet is promoted.
            let mut tiny = multistage(0, 0, 0, 0);
            tiny.observe(&key(1), &mut rng);
            tiny.observe(&key(2), &mut rng);
            assert_eq!(tiny.count(&key(1)), Some(1));
            assert_eq!(tiny.memory_entries(), 1);
        }
    }
}
