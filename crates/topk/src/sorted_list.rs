//! Bounded sorted-list flow memory (Jedwab, Phaal & Pinna, HP Labs 1992).
//!
//! Reference \[13\] of the paper: keep a small list of flow records sorted by
//! count; when a packet arrives for a flow not in the list and the list is
//! full, evict a record at the bottom of the list to make room. The paper
//! (Sec. 2) notes that these mechanisms rank the *observed* (possibly
//! sampled) stream well, but cannot repair errors introduced by sampling.

use flowrank_net::{FiveTuple, FlowMap};
use flowrank_stats::rng::Rng;

use crate::tracker::{TopKEntry, TopKTracker};

/// Bounded flow memory with bottom-of-list eviction.
#[derive(Debug, Clone)]
pub struct SortedListMemory {
    capacity: usize,
    counts: FlowMap<FiveTuple, u64>,
    evictions: u64,
}

impl SortedListMemory {
    /// Creates a memory with room for `capacity` flow records (at least 1).
    pub fn new(capacity: usize) -> Self {
        SortedListMemory {
            capacity: capacity.max(1),
            counts: FlowMap::with_capacity(capacity.max(1)),
            evictions: 0,
        }
    }

    /// Number of records evicted so far (a measure of thrash).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn evict_smallest(&mut self) {
        // The (count, key) tie-break totally orders the candidates, so the
        // victim is independent of the map's iteration order.
        if let Some((victim, _)) = self
            .counts
            .iter()
            .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
        {
            self.counts.remove(&victim);
            self.evictions += 1;
        }
    }
}

impl TopKTracker for SortedListMemory {
    fn observe(&mut self, key: &FiveTuple, _rng: &mut dyn Rng) {
        if let Some(count) = self.counts.get_mut(key) {
            *count += 1;
            return;
        }
        if self.counts.len() >= self.capacity {
            self.evict_smallest();
        }
        self.counts.insert(*key, 1);
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
        self.evictions = 0;
    }

    fn name(&self) -> &'static str {
        "sorted-list"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactTopK;
    use crate::tracker::test_util::{key, skewed_workload};
    use flowrank_stats::rng::{Pcg64, SeedableRng};

    #[test]
    fn never_exceeds_capacity() {
        let mut tracker = SortedListMemory::new(16);
        let mut rng = Pcg64::seed_from_u64(1);
        for packet_key in skewed_workload(100, 2) {
            tracker.observe(&packet_key, &mut rng);
            assert!(tracker.memory_entries() <= 16);
        }
        assert!(tracker.evictions() > 0);
        assert_eq!(tracker.capacity(), 16);
    }

    #[test]
    fn finds_large_flows_when_memory_is_generous() {
        // With memory comfortably larger than the number of heavy flows, the
        // top of the list matches the exact ranking.
        let workload = skewed_workload(50, 20);
        let mut bounded = SortedListMemory::new(100);
        let mut exact = ExactTopK::new();
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
        // concurrently active flows exceeds its capacity (this is exactly the
        // weakness Estan–Varghese address): the heaviest flow keeps being
        // evicted and restarted, so its final estimate is far below its true
        // 2000 packets. This test documents that limitation.
        let workload = skewed_workload(200, 10);
        let mut tracker = SortedListMemory::new(32);
        let mut rng = Pcg64::seed_from_u64(3);
        for packet_key in &workload {
            tracker.observe(packet_key, &mut rng);
        }
        assert!(tracker.evictions() > 0);
        let top = tracker.top(1);
        assert!(
            top[0].estimate < 1_000,
            "bounded list should have lost most of the heavy flow's count, got {}",
            top[0].estimate
        );
    }

    #[test]
    fn capacity_one_degenerates_to_last_heavy_hitter() {
        let mut tracker = SortedListMemory::new(1);
        let mut rng = Pcg64::seed_from_u64(4);
        for _ in 0..10 {
            tracker.observe(&key(7), &mut rng);
        }
        assert_eq!(tracker.top(1)[0].key, key(7));
        assert_eq!(tracker.top(1)[0].estimate, 10);
        assert_eq!(SortedListMemory::new(0).capacity(), 1);
    }

    #[test]
    fn reset_clears_counters_and_evictions() {
        let mut tracker = SortedListMemory::new(4);
        let mut rng = Pcg64::seed_from_u64(5);
        for packet_key in skewed_workload(10, 2) {
            tracker.observe(&packet_key, &mut rng);
        }
        tracker.reset();
        assert_eq!(tracker.memory_entries(), 0);
        assert_eq!(tracker.evictions(), 0);
        assert_eq!(tracker.name(), "sorted-list");
    }
}
