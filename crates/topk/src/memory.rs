//! The one flow memory, and the five admission policies it can run.
//!
//! Every backend is the same object — a table of flows whose packets are
//! counted exactly while the flow is tracked — and differs only in what it
//! does with a packet of a flow it is *not* tracking. [`TopKSpec`] names
//! that decision with its parameters; [`FlowMemory`] runs it.
//!
//! The layout is the same under all five policies: a [`FlowMap`] index from
//! each tracked flow to its *slot*, and one `(count, packed key)` pair per
//! slot. The two policies that evict — the sorted list and Space-Saving —
//! also keep an indexed binary min-heap of their slots, ordered by
//! `(count, packed key)`. `FiveTuple::pack` is monotone in `FiveTuple`'s
//! order, so the heap's root is the `(count, key)` minimum: the victim is
//! found without looking at the other flows, a hit is one increment and a
//! sift-down from the flow's heap position, and a full miss rewrites the
//! root's slot for the newcomer and sifts it down. Either costs
//! O(log capacity) per packet, against the O(capacity) of a scan for the
//! minimum.

use flowrank_flowtable::{fx_fold, fx_mix64, CompactKey};
use flowrank_net::{FiveTuple, FlowMap};
use flowrank_stats::rng::Rng;

use crate::tracker::{TopKEntry, TopKTracker};

/// Which memory-bounded top-k backend a monitor lane feeds with its sampled
/// packets — the paper's first future-work direction (sampling in front of a
/// heavy-hitter mechanism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopKSpec {
    /// Unbounded exact counting (the idealised monitor).
    Exact,
    /// Bounded sorted list with bottom eviction (Jedwab–Phaal–Pinna).
    SortedList {
        /// Maximum number of tracked flows.
        capacity: usize,
    },
    /// Space-Saving (Metwally et al. 2005).
    SpaceSaving {
        /// Number of counters.
        capacity: usize,
    },
    /// Estan–Varghese sample-and-hold.
    SampleAndHold {
        /// Probability that a packet of an untracked flow creates an entry.
        entry_probability: f64,
        /// Maximum number of flow entries.
        capacity: usize,
    },
    /// Estan–Varghese parallel multistage filter with exact memory behind it.
    Multistage {
        /// Number of parallel stages.
        stages: usize,
        /// Counters per stage.
        counters_per_stage: usize,
        /// Promotion threshold in packets.
        threshold: u64,
        /// Capacity of the exact flow memory.
        memory_capacity: usize,
    },
}

impl TopKSpec {
    /// Short human-readable name of the backend.
    pub fn name(&self) -> &'static str {
        match self {
            TopKSpec::Exact => "exact",
            TopKSpec::SortedList { .. } => "sorted-list",
            TopKSpec::SpaceSaving { .. } => "space-saving",
            TopKSpec::SampleAndHold { .. } => "sample-and-hold",
            TopKSpec::Multistage { .. } => "multistage-filter",
        }
    }

    /// Instantiates the tracker.
    pub fn build(&self) -> Box<dyn TopKTracker + Send> {
        Box::new(FlowMemory::new(*self))
    }
}

/// A flow memory running one [`TopKSpec`]: tracked flows are counted
/// exactly, and the spec decides what a packet of an untracked flow does.
///
/// A tracked flow owns a slot of `slots` from its entry until a reset or
/// its eviction, and `index` finds it. Under the sorted list and
/// Space-Saving, `heap` holds every slot as a binary min-heap by the slot's
/// `(count, packed key)` and `place` is its inverse, so the eviction victim
/// is `heap[0]` and a counted packet restores the order in
/// O(log capacity) steps; under the other three policies both are empty.
#[derive(Debug, Clone)]
pub struct FlowMemory {
    /// The spec, with degenerate parameters clamped.
    policy: TopKSpec,
    /// The slot of each tracked flow.
    index: FlowMap<FiveTuple, u32>,
    /// Per slot: the flow's count and its packed key.
    slots: Vec<(u64, u128)>,
    /// Slots in min-heap order by `slots[slot]` (evicting policies only).
    heap: Vec<u32>,
    /// `place[slot]` is the slot's position in `heap`.
    place: Vec<u32>,
    /// The multistage filter's counters, one row per stage; empty otherwise.
    stages: Vec<Vec<u64>>,
    displaced: u64,
}

impl FlowMemory {
    /// Creates an empty memory for `spec`. Capacities, stage dimensions and
    /// thresholds are raised to at least 1, probabilities clamped to
    /// `[0, 1]`.
    pub fn new(spec: TopKSpec) -> Self {
        let policy = match spec {
            TopKSpec::Exact => spec,
            TopKSpec::SortedList { capacity } => TopKSpec::SortedList {
                capacity: capacity.max(1),
            },
            TopKSpec::SpaceSaving { capacity } => TopKSpec::SpaceSaving {
                capacity: capacity.max(1),
            },
            TopKSpec::SampleAndHold {
                entry_probability,
                capacity,
            } => TopKSpec::SampleAndHold {
                entry_probability: entry_probability.clamp(0.0, 1.0),
                capacity: capacity.max(1),
            },
            TopKSpec::Multistage {
                stages,
                counters_per_stage,
                threshold,
                memory_capacity,
            } => TopKSpec::Multistage {
                stages: stages.max(1),
                counters_per_stage: counters_per_stage.max(1),
                threshold: threshold.max(1),
                memory_capacity: memory_capacity.max(1),
            },
        };
        let mut memory = FlowMemory {
            policy,
            index: FlowMap::new(),
            slots: Vec::new(),
            heap: Vec::new(),
            place: Vec::new(),
            stages: Vec::new(),
            displaced: 0,
        };
        match policy {
            // The two policies that always fill their memory get it up front.
            TopKSpec::SortedList { capacity } | TopKSpec::SpaceSaving { capacity } => {
                memory.index = FlowMap::with_capacity(capacity);
                memory.slots = Vec::with_capacity(capacity);
                memory.heap = Vec::with_capacity(capacity);
                memory.place = Vec::with_capacity(capacity);
            }
            TopKSpec::Multistage {
                stages,
                counters_per_stage,
                ..
            } => memory.stages = vec![vec![0; counters_per_stage]; stages],
            TopKSpec::Exact | TopKSpec::SampleAndHold { .. } => {}
        }
        memory
    }

    /// The count held for `key`, if the flow is tracked.
    pub fn count(&self, key: &FiveTuple) -> Option<u64> {
        self.index.get(key).map(|&slot| self.slots[slot as usize].0)
    }

    /// Flows evicted to make room plus inserts refused because the memory
    /// was full, since the last reset (a measure of thrash).
    pub fn displaced(&self) -> u64 {
        self.displaced
    }

    /// The multistage filter's size estimate for `key`: the minimum of its
    /// counters across stages (0 under every other policy).
    pub fn filter_estimate(&self, key: &FiveTuple) -> u64 {
        self.stages
            .iter()
            .enumerate()
            .map(|(stage, counters)| counters[stage_slot(stage, key, counters.len())])
            .min()
            .unwrap_or(0)
    }

    /// A packet of an untracked flow: the five algorithms.
    fn admit(&mut self, key: &FiveTuple, rng: &mut dyn Rng) {
        match self.policy {
            // Exact: one counter per flow, always. The idealised monitor the
            // paper assumes when it isolates the effect of *sampling* on the
            // ranking — with unbounded memory and no sampling the ranking is
            // perfect, so any error measured in the trace-driven experiments
            // is attributable to sampling alone.
            TopKSpec::Exact => self.track(key, 1),
            // Bounded sorted list (Jedwab, Phaal & Pinna, HP Labs 1992,
            // reference [13] of the paper): when the list is full, the record
            // at its bottom makes room and the newcomer starts at 1. The
            // paper (Sec. 2) notes that these mechanisms rank the *observed*
            // (possibly sampled) stream well, but cannot repair errors
            // introduced by sampling.
            TopKSpec::SortedList { capacity } => {
                if self.slots.len() < capacity {
                    self.track(key, 1);
                } else {
                    self.replace_minimum(key, |_| 1);
                }
            }
            // Space-Saving (Metwally, Agrawal & El Abbadi, ICDT 2005), later
            // than the algorithms the paper cites and included as the
            // "modern" baseline: exactly `capacity` counters, and a newcomer
            // to a full memory takes over the smallest one and inherits its
            // value, so estimates are upper bounds that overestimate by at
            // most the minimum counter. On the same memory it strictly
            // dominates the bottom-eviction list at finding heavy hitters.
            TopKSpec::SpaceSaving { capacity } => {
                if self.slots.len() < capacity {
                    self.track(key, 1);
                } else {
                    self.replace_minimum(key, |inherited| inherited + 1);
                }
            }
            // Sample-and-hold (Estan & Varghese, SIGCOMM 2002, reference
            // [11]): a packet of an untracked flow creates an entry with a
            // small probability (chosen so that `p × threshold ≈ O(1)`), and
            // once created the flow is *held* — every later packet is
            // counted. Large flows are caught early and counted almost
            // exactly, most small flows never enter, and the estimate is the
            // count since insertion, a slight undercount.
            TopKSpec::SampleAndHold {
                entry_probability,
                capacity,
            } => {
                if rng.bernoulli(entry_probability) {
                    self.hold(key, 1, capacity);
                }
            }
            // Parallel multistage filter (the second mechanism of [11]): the
            // packet raises one counter per stage, each stage hashing the
            // flow differently, and a flow whose counters *all* reach the
            // threshold is promoted into the exact memory, seeded with the
            // threshold (an upper bound of what it has sent). Small flows
            // almost never pass every stage at once, so the memory holds
            // (mostly) elephants.
            TopKSpec::Multistage {
                threshold,
                memory_capacity,
                ..
            } => {
                let mut passes = true;
                for (stage, counters) in self.stages.iter_mut().enumerate() {
                    let slot = stage_slot(stage, key, counters.len());
                    counters[slot] += 1;
                    passes &= counters[slot] >= threshold;
                }
                if passes {
                    self.hold(key, threshold, memory_capacity);
                }
            }
        }
    }

    /// Whether the policy evicts, and so keeps the heap.
    #[inline]
    fn evicting(&self) -> bool {
        matches!(
            self.policy,
            TopKSpec::SortedList { .. } | TopKSpec::SpaceSaving { .. }
        )
    }

    /// Starts tracking `key` at `count` in a new slot.
    fn track(&mut self, key: &FiveTuple, count: u64) {
        let slot = self.slots.len() as u32;
        self.slots.push((count, key.pack()));
        self.index.insert(*key, slot);
        if self.evicting() {
            self.heap.push(slot);
            self.place.push(slot);
            self.sift_up(slot as usize);
        }
    }

    /// Evicts the `(count, key)` minimum, the heap's root, and gives its
    /// slot to `key` at `count(victim's count)`. The `(count, key)` order is
    /// total, so the victim is independent of how the memory is laid out.
    fn replace_minimum(&mut self, key: &FiveTuple, count: impl FnOnce(u64) -> u64) {
        let root = self.heap[0];
        let (victim_count, victim) = self.slots[root as usize];
        self.index.remove(&FiveTuple::unpack(victim));
        self.index.insert(*key, root);
        self.slots[root as usize] = (count(victim_count), key.pack());
        self.displaced += 1;
        self.sift_down(0);
    }

    /// Starts tracking `key` at `count` while there is room; a refused
    /// insert is counted instead.
    fn hold(&mut self, key: &FiveTuple, count: u64, capacity: usize) {
        if self.slots.len() < capacity {
            self.track(key, count);
        } else {
            self.displaced += 1;
        }
    }

    /// Moves the slot at heap position `pos` towards the root until its
    /// parent ranks below it.
    fn sift_up(&mut self, mut pos: usize) {
        let moving = self.heap[pos];
        let rank = self.slots[moving as usize];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if ranks_below(self.slots[above as usize], rank) {
                break;
            }
            self.heap[pos] = above;
            self.place[above as usize] = pos as u32;
            pos = parent;
        }
        self.heap[pos] = moving;
        self.place[moving as usize] = pos as u32;
    }

    /// Moves the slot at heap position `pos` away from the root until both
    /// its children rank above it.
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        let moving = self.heap[pos];
        let rank = self.slots[moving as usize];
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len {
                let right_first = ranks_below(
                    self.slots[self.heap[right] as usize],
                    self.slots[self.heap[left] as usize],
                );
                left + usize::from(right_first)
            } else {
                left
            };
            let below = self.heap[child];
            if ranks_below(rank, self.slots[below as usize]) {
                break;
            }
            self.heap[pos] = below;
            self.place[below as usize] = pos as u32;
            pos = child;
        }
        self.heap[pos] = moving;
        self.place[moving as usize] = pos as u32;
    }
}

/// `a < b` in the heap's `(count, packed key)` order, written without
/// short-circuits: the sift loops compare ranks whose order is a coin flip,
/// and a branch-free compare costs less than the mispredictions.
#[inline(always)]
fn ranks_below(a: (u64, u128), b: (u64, u128)) -> bool {
    (a.0 < b.0) | ((a.0 == b.0) & (a.1 < b.1))
}

/// The counter a flow maps to in one stage of the multistage filter: the
/// stage number is folded in ahead of the packed key, so every stage maps
/// flows to independent counters. Same integer-hash family as the flow
/// tables — the filter's input is a trusted trace, not adversarial keys.
fn stage_slot(stage: usize, key: &FiveTuple, counters: usize) -> usize {
    let packed = key.pack();
    let folded = fx_fold(
        fx_fold(stage as u64 + 1, (packed >> 64) as u64),
        packed as u64,
    );
    (fx_mix64(folded) % counters as u64) as usize
}

impl TopKTracker for FlowMemory {
    fn observe(&mut self, key: &FiveTuple, rng: &mut dyn Rng) {
        match self.index.get(key) {
            Some(&slot) => {
                self.slots[slot as usize].0 += 1;
                if self.evicting() {
                    self.sift_down(self.place[slot as usize] as usize);
                }
            }
            None => self.admit(key, rng),
        }
    }

    fn top(&self, t: usize) -> Vec<TopKEntry> {
        let mut ranked = self.slots.clone();
        ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked
            .iter()
            .take(t)
            .map(|&(estimate, packed)| TopKEntry {
                key: FiveTuple::unpack(packed),
                estimate,
            })
            .collect()
    }

    fn memory_entries(&self) -> usize {
        self.slots.len()
    }

    fn reset(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.heap.clear();
        self.place.clear();
        self.stages.iter_mut().for_each(|counters| counters.fill(0));
        self.displaced = 0;
    }

    fn name(&self) -> &'static str {
        self.policy.name()
    }
}

#[cfg(test)]
impl FlowMemory {
    /// Asserts the layout's invariants: `index` and `slots` name the same
    /// flows, and under an evicting policy `heap` is in min-heap order by
    /// `(count, packed key)` with `place` its inverse.
    fn check_heap(&self) {
        assert_eq!(self.index.len(), self.slots.len());
        for (key, &slot) in self.index.iter() {
            assert_eq!(self.slots[slot as usize].1, key.pack());
        }
        if !self.evicting() {
            assert!(self.heap.is_empty() && self.place.is_empty());
            return;
        }
        assert_eq!(self.heap.len(), self.slots.len());
        assert_eq!(self.place.len(), self.slots.len());
        for (pos, &slot) in self.heap.iter().enumerate() {
            assert_eq!(self.place[slot as usize] as usize, pos, "place[{slot}]");
            if pos > 0 {
                let parent = self.heap[(pos - 1) / 2];
                assert!(
                    self.slots[parent as usize] < self.slots[slot as usize],
                    "heap position {pos} ranks below its parent"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::test_util::key;
    use flowrank_stats::rng::{Pcg64, SeedableRng};

    #[test]
    fn heap_order_and_place_hold_after_every_packet_and_reset() {
        for capacity in [1usize, 2, 3, 7, 16, 64] {
            for spec in [
                TopKSpec::SortedList { capacity },
                TopKSpec::SpaceSaving { capacity },
                TopKSpec::SampleAndHold {
                    entry_probability: 0.5,
                    capacity,
                },
            ] {
                let mut memory = FlowMemory::new(spec);
                let mut draw = Pcg64::seed_from_u64(capacity as u64);
                let mut rng = Pcg64::seed_from_u64(7);
                memory.check_heap();
                for packet in 0..3_000u32 {
                    if packet % 700 == 699 {
                        memory.reset();
                        memory.check_heap();
                    }
                    // A pool of a few times the capacity, drawn uniformly:
                    // counts stay level, so ties on the count are common
                    // and the key decides most comparisons.
                    let flow = draw.next_below(3 * capacity as u64 + 2) as u32;
                    memory.observe(&key(flow), &mut rng);
                    memory.check_heap();
                }
                assert!(memory.displaced() > 0, "{} {capacity}", spec.name());
            }
        }
    }
}
