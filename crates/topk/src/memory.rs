//! The one flow memory, and the five admission policies it can run.
//!
//! Every backend is the same object — a table of flows whose packets are
//! counted exactly while the flow is tracked — and differs only in what it
//! does with a packet of a flow it is *not* tracking. [`TopKSpec`] names
//! that decision with its parameters; [`FlowMemory`] runs it.

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
#[derive(Debug, Clone)]
pub struct FlowMemory {
    /// The spec, with degenerate parameters clamped.
    policy: TopKSpec,
    counts: FlowMap<FiveTuple, u64>,
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
        // The two policies that always fill their memory get it up front.
        let (counts, stages) = match policy {
            TopKSpec::SortedList { capacity } | TopKSpec::SpaceSaving { capacity } => {
                (FlowMap::with_capacity(capacity), Vec::new())
            }
            TopKSpec::Multistage {
                stages,
                counters_per_stage,
                ..
            } => (FlowMap::new(), vec![vec![0; counters_per_stage]; stages]),
            TopKSpec::Exact | TopKSpec::SampleAndHold { .. } => (FlowMap::new(), Vec::new()),
        };
        FlowMemory {
            policy,
            counts,
            stages,
            displaced: 0,
        }
    }

    /// The count held for `key`, if the flow is tracked.
    pub fn count(&self, key: &FiveTuple) -> Option<u64> {
        self.counts.get(key).copied()
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
            TopKSpec::Exact => {
                self.counts.insert(*key, 1);
            }
            // Bounded sorted list (Jedwab, Phaal & Pinna, HP Labs 1992,
            // reference [13] of the paper): when the list is full, the record
            // at its bottom makes room and the newcomer starts at 1. The
            // paper (Sec. 2) notes that these mechanisms rank the *observed*
            // (possibly sampled) stream well, but cannot repair errors
            // introduced by sampling.
            TopKSpec::SortedList { capacity } => {
                if self.counts.len() >= capacity {
                    self.evict_minimum();
                }
                self.counts.insert(*key, 1);
            }
            // Space-Saving (Metwally, Agrawal & El Abbadi, ICDT 2005), later
            // than the algorithms the paper cites and included as the
            // "modern" baseline: exactly `capacity` counters, and a newcomer
            // to a full memory takes over the smallest one and inherits its
            // value, so estimates are upper bounds that overestimate by at
            // most the minimum counter. On the same memory it strictly
            // dominates the bottom-eviction list at finding heavy hitters.
            TopKSpec::SpaceSaving { capacity } => {
                let inherited = if self.counts.len() >= capacity {
                    self.evict_minimum()
                } else {
                    0
                };
                self.counts.insert(*key, inherited + 1);
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

    /// Removes the tracked flow with the smallest count and returns that
    /// count. The `(count, key)` tie-break totally orders the candidates, so
    /// the victim is independent of the table's iteration order.
    fn evict_minimum(&mut self) -> u64 {
        let (victim, &count) = self
            .counts
            .iter()
            .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
            .expect("a full memory holds at least one flow");
        self.counts.remove(&victim);
        self.displaced += 1;
        count
    }

    /// Starts tracking `key` at `count` while there is room; a refused
    /// insert is counted instead.
    fn hold(&mut self, key: &FiveTuple, count: u64, capacity: usize) {
        if self.counts.len() < capacity {
            self.counts.insert(*key, count);
        } else {
            self.displaced += 1;
        }
    }
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
        match self.counts.get_mut(key) {
            Some(count) => *count += 1,
            None => self.admit(key, rng),
        }
    }

    fn top(&self, t: usize) -> Vec<TopKEntry> {
        let mut entries: Vec<TopKEntry> = self
            .counts
            .iter()
            .map(|(key, &estimate)| TopKEntry { key, estimate })
            .collect();
        entries.sort_by(|a, b| b.estimate.cmp(&a.estimate).then(a.key.cmp(&b.key)));
        entries.truncate(t);
        entries
    }

    fn memory_entries(&self) -> usize {
        self.counts.len()
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.stages.iter_mut().for_each(|counters| counters.fill(0));
        self.displaced = 0;
    }

    fn name(&self) -> &'static str {
        self.policy.name()
    }
}
