//! The open-addressing keyed accumulator.
//!
//! [`FlowMap`] maps a [`CompactKey`] to a value through a two-part layout:
//!
//! * a power-of-two **slot array** of `u32` indices, probed linearly from
//!   the key's mixed hash and kept at most half full; a removal pulls the
//!   rest of its probe run back over the hole, so no tombstone is left, and
//! * a **slab** (`Vec`) of `(packed key, value)` entries in insertion
//!   order.
//!
//! The split buys the two properties the workspace needs from its flow
//! tables. First, *reuse*: [`FlowMap::clear`] empties both parts but keeps
//! their allocations, so a streaming monitor pays the table's growth once
//! and then recycles it bin after bin. Second, *determinism*: iteration
//! walks the slab, so the order every consumer drains flows in is a pure
//! function of the operation sequence (insertion order, with
//! [`FlowMap::remove`] swapping the last entry into the vacated position) —
//! never of hash-table internals. See the crate docs for the full contract.

use crate::key::{CompactKey, PackedKey};

/// Slot marker: unoccupied.
const EMPTY: u32 = u32::MAX;
/// Entry indices stay below `EMPTY`.
const MAX_ENTRIES: usize = EMPTY as usize;

/// Slots for `entries` live entries at the maximum load of 1/2 (removals
/// leave no tombstones, so live entries are the whole load).
#[inline]
fn slots_for(entries: usize) -> usize {
    (entries * 2).max(16).next_power_of_two()
}

/// An open-addressing map from compact flow keys to slab-backed values.
#[derive(Debug, Clone)]
pub struct FlowMap<K: CompactKey, V> {
    slots: Vec<u32>,
    entries: Vec<(K::Packed, V)>,
}

impl<K: CompactKey, V> Default for FlowMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: CompactKey, V> FlowMap<K, V> {
    /// Creates an empty map. No allocation happens until the first insert.
    pub fn new() -> Self {
        FlowMap {
            slots: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Creates an empty map pre-sized for `n` entries: both the slot array
    /// and the entry slab are allocated up front, so the first `n` inserts
    /// never reallocate.
    pub fn with_capacity(n: usize) -> Self {
        let mut map = Self::new();
        if n > 0 {
            map.slots = vec![EMPTY; slots_for(n)];
            map.entries = Vec::with_capacity(n);
        }
        map
    }

    /// Number of entries in the map.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries the map can hold before the slot array grows.
    pub fn capacity(&self) -> usize {
        self.slots.len() / 2
    }

    /// Removes every entry but keeps both allocations for reuse — the
    /// start-of-bin reset of the paper's binning methodology, without the
    /// per-bin rehash-from-zero a fresh map would pay.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.slots.fill(EMPTY);
    }

    /// Returns a reference to the value of `key`, if present.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find_entry(key.pack()).map(|i| &self.entries[i].1)
    }

    /// Returns a mutable reference to the value of `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find_entry(key.pack()).map(|i| &mut self.entries[i].1)
    }

    /// The one-lookup update-or-insert every per-packet hot path uses:
    /// applies `update` when the key is present, inserts `insert()`
    /// otherwise, and returns the entry's value either way.
    #[inline]
    pub fn upsert(
        &mut self,
        key: K,
        insert: impl FnOnce() -> V,
        update: impl FnOnce(&mut V),
    ) -> &mut V {
        let id = self.upsert_id(key, insert, update);
        &mut self.entries[id].1
    }

    /// [`FlowMap::upsert`], returning the entry's slab position — its
    /// **flow id**. Ids are dense (`0..len()`, in insertion order) and stay
    /// put until a [`FlowMap::remove`] moves the last entry into a hole or
    /// `clear()` restarts them from 0, so a caller that never removes can
    /// index per-flow arrays by id instead of hashing the key again.
    #[inline]
    pub fn upsert_id(
        &mut self,
        key: K,
        insert: impl FnOnce() -> V,
        update: impl FnOnce(&mut V),
    ) -> usize {
        let packed = key.pack();
        match self.probe(packed) {
            Ok(slot) => {
                let i = self.slots[slot] as usize;
                update(&mut self.entries[i].1);
                i
            }
            Err(vacancy) => self.push_new(packed, insert(), vacancy),
        }
    }

    /// The flow id (slab position) of `key`, if present.
    #[inline]
    pub fn id_of(&self, key: &K) -> Option<usize> {
        self.find_entry(key.pack())
    }

    /// The key at flow id (slab position) `id`. Panics when `id >= len()`.
    #[inline]
    pub fn key_at(&self, id: usize) -> K {
        K::unpack(self.entries[id].0)
    }

    /// Inserts or replaces the value of `key`; returns the previous value
    /// when the key was already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let packed = key.pack();
        match self.probe(packed) {
            Ok(slot) => {
                let i = self.slots[slot] as usize;
                Some(std::mem::replace(&mut self.entries[i].1, value))
            }
            Err(vacancy) => {
                self.push_new(packed, value, vacancy);
                None
            }
        }
    }

    /// Removes `key`, returning its value when present.
    ///
    /// The last-inserted entry is swapped into the removed entry's slab
    /// position, so subsequent iteration order changes deterministically
    /// (a pure function of the operation sequence, never of hashing).
    ///
    /// The slot is freed by backward-shift deletion (Knuth, TAOCP Vol. 3,
    /// §6.4, Algorithm R): each later member of the probe run whose home
    /// lies cyclically at or before the hole moves into it, and the hole
    /// moves on, until an empty slot ends the run.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let packed = key.pack();
        let mut hole = self.probe(packed).ok()?;
        let entry_index = self.slots[hole] as usize;
        let mask = self.slots.len() - 1;
        let mut index = hole;
        loop {
            index = (index + 1) & mask;
            let entry = self.slots[index];
            if entry == EMPTY {
                break;
            }
            let home = self.entries[entry as usize].0.mix() as usize & mask;
            // Move the occupant unless its home is nearer to it than the hole.
            if index.wrapping_sub(home) & mask >= index.wrapping_sub(hole) & mask {
                self.slots[hole] = entry;
                hole = index;
            }
        }
        self.slots[hole] = EMPTY;
        let (_, value) = self.entries.swap_remove(entry_index);
        let moved_from = self.entries.len();
        if entry_index < moved_from {
            // The entry that lived at the slab's end moved into the hole;
            // repoint its slot.
            let moved_packed = self.entries[entry_index].0;
            let moved_slot = self
                .slot_of_entry(moved_packed, moved_from as u32)
                .expect("moved entry must have a slot");
            self.slots[moved_slot] = entry_index as u32;
        }
        Some(value)
    }

    /// Iterates over `(key, &value)` pairs in deterministic slab order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.entries.iter().map(|(p, v)| (K::unpack(*p), v))
    }

    /// Iterates over the values in deterministic slab order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Finds the entry index of `packed`, if present.
    #[inline]
    fn find_entry(&self, packed: K::Packed) -> Option<usize> {
        self.probe(packed).ok().map(|s| self.slots[s] as usize)
    }

    /// Walks `packed`'s probe chain once: `Ok` with the slot holding it, or
    /// `Err` with the empty slot that ends the chain, the one `free_slot`
    /// would pick. An empty slot array gives `Err(0)`, which no insert
    /// uses: the first insert grows the array.
    #[inline]
    fn probe(&self, packed: K::Packed) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut index = packed.mix() as usize & mask;
        loop {
            let entry = self.slots[index];
            if entry == EMPTY {
                return Err(index);
            }
            if self.entries[entry as usize].0 == packed {
                return Ok(index);
            }
            index = (index + 1) & mask;
        }
    }

    /// Finds the slot currently pointing at entry index `entry_index` along
    /// `packed`'s probe chain (used to fix up a swap-removed entry).
    fn slot_of_entry(&self, packed: K::Packed, entry_index: u32) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut index = packed.mix() as usize & mask;
        loop {
            match self.slots[index] {
                EMPTY => return None,
                slot_entry if slot_entry == entry_index => return Some(index),
                _ => {}
            }
            index = (index + 1) & mask;
        }
    }

    /// Appends a new entry and links it from the slot array at `vacancy`,
    /// the free slot `probe` found for it, or at a new one when the insert
    /// would pass half load and first grows the array. The caller guarantees
    /// `packed` is absent.
    fn push_new(&mut self, packed: K::Packed, value: V, vacancy: usize) -> usize {
        assert!(self.entries.len() < MAX_ENTRIES, "FlowMap is full");
        let slot = if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.rehash(slots_for(self.entries.len() + 1));
            self.free_slot(packed)
        } else {
            debug_assert_eq!(vacancy, self.free_slot(packed));
            vacancy
        };
        let entry_index = self.entries.len();
        self.entries.push((packed, value));
        self.slots[slot] = entry_index as u32;
        entry_index
    }

    /// The empty slot that ends `packed`'s probe chain. The caller
    /// guarantees `packed` is absent from the map.
    #[inline]
    fn free_slot(&self, packed: K::Packed) -> usize {
        let mask = self.slots.len() - 1;
        let mut index = packed.mix() as usize & mask;
        loop {
            if self.slots[index] == EMPTY {
                return index;
            }
            index = (index + 1) & mask;
        }
    }

    /// Extends the map from `(key, value)` pairs; later pairs replace
    /// earlier values for the same key (like `HashMap`).
    pub(crate) fn extend(&mut self, pairs: impl IntoIterator<Item = (K, V)>) {
        for (key, value) in pairs {
            self.insert(key, value);
        }
    }

    /// Rebuilds the slot array at `new_len` slots from the entry slab.
    fn rehash(&mut self, new_len: usize) {
        let mask = new_len - 1;
        let mut slots = vec![EMPTY; new_len];
        for (entry_index, (packed, _)) in self.entries.iter().enumerate() {
            let mut index = packed.mix() as usize & mask;
            while slots[index] != EMPTY {
                index = (index + 1) & mask;
            }
            slots[index] = entry_index as u32;
        }
        self.slots = slots;
    }
}

impl<K: CompactKey, V> FromIterator<(K, V)> for FlowMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        let mut map = FlowMap::new();
        map.extend(pairs);
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    impl<K: CompactKey, V> FlowMap<K, V> {
        /// The probe-chain invariant: every slot is `EMPTY` or links a
        /// distinct entry, every entry has a slot, and every entry is
        /// reachable from its home slot without crossing an `EMPTY`.
        fn check_chains(&self) {
            let mask = self.slots.len().wrapping_sub(1);
            let mut linked = vec![false; self.entries.len()];
            for (index, &entry) in self.slots.iter().enumerate() {
                if entry == EMPTY {
                    continue;
                }
                let entry = entry as usize;
                assert!(
                    entry < self.entries.len(),
                    "slot {index} links past the slab"
                );
                assert!(!linked[entry], "entry {entry} is linked twice");
                linked[entry] = true;
                let mut probe = self.entries[entry].0.mix() as usize & mask;
                while probe != index {
                    assert_ne!(
                        self.slots[probe], EMPTY,
                        "entry {entry} at slot {index}: empty slot {probe} cuts it off from its home"
                    );
                    probe = (probe + 1) & mask;
                }
            }
            assert!(linked.iter().all(|&l| l), "an entry has no slot");
        }
    }

    #[test]
    fn empty_map() {
        let map: FlowMap<u64, u32> = FlowMap::new();
        assert_eq!(map.len(), 0);
        assert!(map.is_empty());
        assert_eq!(map.get(&1), None);
        assert_eq!(map.iter().count(), 0);
    }

    #[test]
    fn insert_get_update() {
        let mut map: FlowMap<u64, u32> = FlowMap::new();
        assert_eq!(map.insert(10, 1), None);
        assert_eq!(map.insert(20, 2), None);
        assert_eq!(map.insert(10, 3), Some(1));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&10), Some(&3));
        *map.get_mut(&20).unwrap() += 5;
        assert_eq!(map.get(&20), Some(&7));
        assert!(map.get(&10).is_some());
        assert!(map.get(&30).is_none());
    }

    #[test]
    fn upsert_counts() {
        let mut map: FlowMap<u32, u64> = FlowMap::new();
        for _ in 0..5 {
            map.upsert(9, || 1, |c| *c += 1);
        }
        assert_eq!(map.get(&9), Some(&5));
        assert_eq!(*map.upsert(9, || 100, |_| ()), 5);
        assert_eq!(*map.upsert(10, || 100, |_| ()), 100);
    }

    #[test]
    fn flow_ids_are_slab_positions() {
        let mut map: FlowMap<u64, u32> = FlowMap::new();
        // First sight assigns the next id; later sights return it again.
        let ids: Vec<usize> = [30, 10, 30, 20, 10]
            .iter()
            .map(|&k| map.upsert_id(k, || 1, |c| *c += 1))
            .collect();
        assert_eq!(ids, [0, 1, 0, 2, 1]);
        assert_eq!(map.id_of(&20), Some(2));
        assert_eq!(map.id_of(&40), None);
        let slab: Vec<(u64, u32)> = map.iter().map(|(k, &c)| (k, c)).collect();
        assert_eq!(slab, [(30, 2), (10, 2), (20, 1)]);
        // A removal moves the last entry into the hole; a clear restarts ids.
        map.remove(&30);
        assert_eq!(map.id_of(&20), Some(0));
        map.clear();
        assert_eq!(map.upsert_id(10, || 1, |c| *c += 1), 0);
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut map: FlowMap<u64, usize> = FlowMap::new();
        let keys: Vec<u64> = (0..200).map(|i| i * 7 + 3).collect();
        for (rank, &k) in keys.iter().enumerate() {
            map.insert(k, rank);
        }
        let seen: Vec<u64> = map.iter().map(|(k, _)| k).collect();
        assert_eq!(seen, keys);
        let values: Vec<usize> = map.values().copied().collect();
        assert_eq!(values, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn remove_swaps_last_entry_into_hole() {
        let mut map: FlowMap<u64, u32> = FlowMap::new();
        for k in 0..6u64 {
            map.insert(k, k as u32 * 10);
        }
        assert_eq!(map.remove(&1), Some(10));
        assert_eq!(map.remove(&1), None);
        assert_eq!(map.len(), 5);
        // Entry 5 moved into position 1.
        assert_eq!(
            map.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            vec![0, 5, 2, 3, 4]
        );
        assert_eq!(map.get(&5), Some(&50));
        assert_eq!(map.get(&0), Some(&0));
    }

    #[test]
    fn clear_keeps_capacity_and_resets_content() {
        let mut map: FlowMap<u64, u32> = FlowMap::with_capacity(100);
        let cap = map.capacity();
        assert!(cap >= 100);
        for k in 0..100u64 {
            map.insert(k, 0);
        }
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.capacity(), cap, "clear must not shrink the table");
        for k in 0..100u64 {
            map.insert(k, 1);
        }
        assert_eq!(map.capacity(), cap, "reuse must not regrow");
        assert_eq!(map.len(), 100);
    }

    #[test]
    fn with_capacity_presizes() {
        let map: FlowMap<u128, u8> = FlowMap::with_capacity(1000);
        assert!(map.capacity() >= 1000);
        let none: FlowMap<u128, u8> = FlowMap::with_capacity(0);
        assert_eq!(none.capacity(), 0);
    }

    #[test]
    fn heavy_churn_matches_reference_hashmap() {
        // Deterministic pseudo-random op sequence (no external RNG): an LCG
        // drives inserts, upserts and removals; the map must agree with
        // std::HashMap on contents at every step.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut map: FlowMap<u64, u64> = FlowMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for op in 0..20_000 {
            let key = next() % 512; // force collisions and revisits
            match next() % 4 {
                0 => {
                    let value = next();
                    assert_eq!(map.insert(key, value), reference.insert(key, value));
                }
                1 => {
                    map.upsert(key, || 1, |v| *v += 1);
                    reference.entry(key).and_modify(|v| *v += 1).or_insert(1);
                }
                2 => {
                    assert_eq!(map.remove(&key), reference.remove(&key), "op {op}");
                }
                _ => {
                    assert_eq!(map.get(&key), reference.get(&key), "op {op}");
                }
            }
            assert_eq!(map.len(), reference.len(), "op {op}");
            map.check_chains();
        }
        // Final full-content comparison.
        for (k, v) in map.iter() {
            assert_eq!(reference.get(&k), Some(v));
        }
    }

    #[test]
    fn clear_reuse_across_many_bins() {
        // The monitor's steady state: one table recycled bin after bin with
        // a *different* key population each bin. Contents must be exact per
        // bin, no stale entries may leak across a clear, and the
        // allocations must be paid once.
        let mut map: FlowMap<u64, u64> = FlowMap::new();
        let mut grown_capacity = 0;
        for bin in 0..5u64 {
            let keys: Vec<u64> = (0..300u64).map(|i| bin * 1_000_000 + i * 3).collect();
            for (rank, &k) in keys.iter().enumerate() {
                map.upsert(k, || rank as u64, |v| *v += 1);
            }
            assert_eq!(map.len(), keys.len(), "bin {bin}");
            // No key of any previous bin survives the clear.
            if bin > 0 {
                assert!(map.get(&((bin - 1) * 1_000_000)).is_none(), "bin {bin}");
            }
            for (rank, &k) in keys.iter().enumerate() {
                assert_eq!(map.get(&k), Some(&(rank as u64)), "bin {bin}");
            }
            assert_eq!(
                map.iter().map(|(k, _)| k).collect::<Vec<_>>(),
                keys,
                "bin {bin} order"
            );
            if bin == 0 {
                grown_capacity = map.capacity();
            } else {
                assert_eq!(
                    map.capacity(),
                    grown_capacity,
                    "bin {bin}: clear() reuse must never regrow"
                );
            }
            map.clear();
            assert!(map.is_empty());
            assert_eq!(map.get(&(bin * 1_000_000)), None);
        }
    }

    #[test]
    fn growth_happens_exactly_at_the_load_boundary() {
        // The 1/2 load rule, pinned at the exact boundary for several
        // power-of-two slot sizes: `capacity()` inserts fit without growth,
        // one more entry grows the table, and every key stays reachable
        // through the rehash.
        for requested in [14usize, 100, 448, 1_000] {
            let mut map: FlowMap<u64, usize> = FlowMap::with_capacity(requested);
            let boundary = map.capacity();
            assert!(boundary >= requested);
            for i in 0..boundary as u64 {
                map.insert(i * 7 + 1, i as usize);
                assert_eq!(
                    map.capacity(),
                    boundary,
                    "insert {i} of {boundary} must not grow"
                );
            }
            assert_eq!(map.len(), boundary);
            // The boundary-crossing insert grows the slot array…
            map.insert(u64::MAX - 3, usize::MAX);
            assert!(
                map.capacity() > boundary,
                "insert {} must grow past {boundary}",
                boundary + 1
            );
            // …and the rehash keeps every entry reachable, in slab order.
            assert_eq!(map.len(), boundary + 1);
            for i in 0..boundary as u64 {
                assert_eq!(map.get(&(i * 7 + 1)), Some(&(i as usize)));
            }
            assert_eq!(map.get(&(u64::MAX - 3)), Some(&usize::MAX));
            let keys: Vec<u64> = map.iter().map(|(k, _)| k).collect();
            assert_eq!(keys.len(), boundary + 1);
            assert_eq!(keys[0], 1);
            assert_eq!(*keys.last().unwrap(), u64::MAX - 3);
        }
    }

    #[test]
    fn bounded_churn_never_grows_the_table() {
        // Heavy insert/remove churn with a bounded live population: every
        // slot is filled and freed over and over, yet a removal leaves the
        // slot empty (the probe run shifts back over it), so the table must
        // keep its initial sizing — while agreeing with a reference map and
        // keeping every chain intact at every step.
        let mut map: FlowMap<u64, u64> = FlowMap::with_capacity(14);
        let cap = map.capacity();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        for op in 0..50_000u64 {
            let key = next() % 10; // ≤ 10 live entries, far under capacity
            if next() % 2 == 0 {
                let value = next();
                assert_eq!(
                    map.insert(key, value),
                    reference.insert(key, value),
                    "op {op}"
                );
            } else {
                assert_eq!(map.remove(&key), reference.remove(&key), "op {op}");
            }
            assert_eq!(map.len(), reference.len(), "op {op}");
            assert_eq!(
                map.capacity(),
                cap,
                "op {op}: churn with ≤10 live entries resized the table"
            );
            map.check_chains();
        }
        for (k, v) in map.iter() {
            assert_eq!(reference.get(&k), Some(v));
        }
        // Absent-key probes still terminate and miss correctly after the
        // churn.
        for k in 100..200u64 {
            assert_eq!(map.get(&k), None);
        }
    }

    #[test]
    fn find_or_insert_reuses_the_probed_slot_under_churn() {
        // One probe serves both the lookup and the insert: on a 16-slot map
        // that churns through every slot, each upsert_id/insert must land
        // where a separate free-slot search would (checked in debug builds
        // by `push_new`) and the map must agree with a reference model of
        // its contents and its slab (ids in insertion order, the last
        // entry swapped into a removal's hole).
        let mut map: FlowMap<u64, u64> = FlowMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut slab: Vec<u64> = Vec::new();
        let mut state = 0x00DD_BA11_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        for op in 0..40_000u64 {
            let key = next() % 8; // ≤ 8 live keys: the map stays at 16 slots
            match next() % 3 {
                0 => {
                    let id = map.upsert_id(key, || 1, |v| *v += 1);
                    *reference.entry(key).or_insert(0) += 1;
                    if !slab.contains(&key) {
                        slab.push(key);
                    }
                    assert_eq!(slab[id], key, "op {op}");
                }
                1 => {
                    let value = next();
                    assert_eq!(map.insert(key, value), reference.insert(key, value));
                    if !slab.contains(&key) {
                        slab.push(key);
                    }
                }
                _ => {
                    assert_eq!(map.remove(&key), reference.remove(&key), "op {op}");
                    if let Some(hole) = slab.iter().position(|&k| k == key) {
                        slab.swap_remove(hole);
                    }
                }
            }
            assert_eq!(map.capacity(), 8, "op {op}: the 16-slot map grew");
            map.check_chains();
            assert_eq!(
                map.iter().map(|(k, _)| k).collect::<Vec<_>>(),
                slab,
                "op {op}"
            );
            for (k, v) in map.iter() {
                assert_eq!(reference.get(&k), Some(v), "op {op}");
            }
        }
    }

    #[test]
    fn churn_far_past_the_slot_count_never_loops() {
        let mut map: FlowMap<u64, u64> = FlowMap::with_capacity(64);
        let cap = map.capacity();
        // Insert/remove cycles far beyond the slot count: a removal that
        // left its slot occupied would fill every chain, and the next
        // probe for an absent key would never meet an empty slot.
        for round in 0..10_000u64 {
            map.insert(round, round);
            map.check_chains();
            assert_eq!(map.remove(&round), Some(round));
            map.check_chains();
        }
        assert!(map.is_empty());
        assert_eq!(map.capacity(), cap);
        assert!(map.slots.iter().all(|&s| s == EMPTY));
        map.insert(7, 7);
        assert_eq!(map.get(&7), Some(&7));
        assert_eq!(map.get(&8), None);
    }

    #[test]
    fn removal_shifts_runs_across_the_wrap_around() {
        // Six keys whose homes are the last three slots of a 16-slot array,
        // two each: their probe run wraps past slot 15 to slots 0-2, so the
        // shift runs across the wrap. Inserted by ascending home, every key
        // past the first sits after its home; by descending home, the first
        // key of each home sits on it, so a removal meets occupants that
        // must stay put. Every removal order from both must keep every chain
        // intact and every remaining key reachable.
        let home = |k: u64| k.mix() as usize & 15;
        let mut keys: Vec<u64> = Vec::new();
        for slot in [13, 14, 15] {
            keys.extend((0u64..).filter(|&k| home(k) == slot).take(2));
        }
        let descending: Vec<u64> = keys.iter().rev().copied().collect();
        let mut orders = Vec::new();
        permutations(&mut (0..keys.len()).collect::<Vec<_>>(), 0, &mut orders);
        assert_eq!(orders.len(), 720);
        for inserted in [&keys, &descending] {
            for order in &orders {
                let mut map: FlowMap<u64, u64> = FlowMap::new();
                for &k in inserted {
                    map.insert(k, k);
                }
                assert_eq!(map.capacity(), 8);
                map.check_chains();
                for (done, &i) in order.iter().enumerate() {
                    assert_eq!(map.remove(&keys[i]), Some(keys[i]), "{order:?}");
                    map.check_chains();
                    for &j in &order[done + 1..] {
                        assert_eq!(map.get(&keys[j]), Some(&keys[j]), "{order:?}");
                    }
                    assert_eq!(map.get(&keys[i]), None, "{order:?}");
                }
                assert!(map.slots.iter().all(|&s| s == EMPTY));
            }
        }
    }

    /// Every permutation of `items[at..]` after the fixed prefix.
    fn permutations(items: &mut Vec<usize>, at: usize, out: &mut Vec<Vec<usize>>) {
        if at == items.len() {
            out.push(items.clone());
            return;
        }
        for i in at..items.len() {
            items.swap(at, i);
            permutations(items, at + 1, out);
            items.swap(at, i);
        }
    }
}
