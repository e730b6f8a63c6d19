//! The open-addressing keyed accumulator.
//!
//! [`FlowMap`] maps a [`CompactKey`] to a value through a two-part layout:
//!
//! * a power-of-two **slot array** of `u32` indices, probed linearly from
//!   the key's mixed hash (with tombstones for removals), and
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

/// Slot marker: never occupied.
const EMPTY: u32 = u32::MAX;
/// Slot marker: previously occupied, removed (probe chains continue past it).
const TOMBSTONE: u32 = u32::MAX - 1;
/// Largest representable entry index.
const MAX_ENTRIES: usize = (u32::MAX - 2) as usize;

/// Maximum slot load (live entries plus tombstones) is 7/8.
#[inline]
fn slots_for(entries: usize) -> usize {
    (entries * 8 / 7 + 1).max(16).next_power_of_two()
}

/// An open-addressing map from compact flow keys to slab-backed values.
#[derive(Debug, Clone)]
pub struct FlowMap<K: CompactKey, V> {
    slots: Vec<u32>,
    entries: Vec<(K::Packed, V)>,
    tombstones: usize,
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
            tombstones: 0,
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
        self.slots.len() * 7 / 8
    }

    /// Removes every entry but keeps both allocations for reuse — the
    /// start-of-bin reset of the paper's binning methodology, without the
    /// per-bin rehash-from-zero a fresh map would pay.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.slots.fill(EMPTY);
        self.tombstones = 0;
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
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let packed = key.pack();
        let slot = self.find_slot(packed)?;
        let entry_index = self.slots[slot] as usize;
        self.slots[slot] = TOMBSTONE;
        self.tombstones += 1;
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
        self.find_slot(packed).map(|s| self.slots[s] as usize)
    }

    /// Finds the slot index holding `packed`, if present.
    #[inline]
    fn find_slot(&self, packed: K::Packed) -> Option<usize> {
        self.probe(packed).ok()
    }

    /// Walks `packed`'s probe chain once: `Ok` with the slot holding it, or
    /// `Err` with the first reusable slot (tombstone or empty) on the chain,
    /// the one `free_slot` would pick. An empty slot array gives `Err(0)`,
    /// which no insert uses: the first insert grows the array.
    #[inline]
    fn probe(&self, packed: K::Packed) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut index = packed.mix() as usize & mask;
        let mut vacancy = None;
        loop {
            match self.slots[index] {
                EMPTY => return Err(vacancy.unwrap_or(index)),
                TOMBSTONE => {
                    vacancy.get_or_insert(index);
                }
                entry => {
                    if self.entries[entry as usize].0 == packed {
                        return Ok(index);
                    }
                }
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
    /// first grows or purges the array. The caller guarantees `packed` is
    /// absent.
    fn push_new(&mut self, packed: K::Packed, value: V, vacancy: usize) -> usize {
        assert!(self.entries.len() < MAX_ENTRIES, "FlowMap is full");
        let slot = if (self.entries.len() + self.tombstones + 1) * 8 > self.slots.len() * 7 {
            // Rehashing rebuilds the slots from the slab, which also purges
            // tombstones; size for the live entries only.
            self.rehash(slots_for(self.entries.len() + 1));
            self.free_slot(packed)
        } else {
            debug_assert_eq!(vacancy, self.free_slot(packed));
            vacancy
        };
        let entry_index = self.entries.len();
        self.entries.push((packed, value));
        if self.slots[slot] == TOMBSTONE {
            self.tombstones -= 1;
        }
        self.slots[slot] = entry_index as u32;
        entry_index
    }

    /// First reusable slot (tombstone or empty) on `packed`'s probe chain.
    /// The caller guarantees `packed` is absent from the map.
    #[inline]
    fn free_slot(&self, packed: K::Packed) -> usize {
        let mask = self.slots.len() - 1;
        let mut index = packed.mix() as usize & mask;
        loop {
            if self.slots[index] == EMPTY || self.slots[index] == TOMBSTONE {
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
        self.tombstones = 0;
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
        // The 7/8 load rule, pinned at the exact boundary for several
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
    fn tombstone_reuse_keeps_a_churned_table_from_growing() {
        // Heavy insert/remove churn with a bounded live population: every
        // slot gets tombstoned over and over, yet because dead slots are
        // reused (and rehashes size for live entries only) the table must
        // never grow beyond its initial sizing — while agreeing with a
        // reference map at every step.
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
            assert!(
                map.capacity() <= cap,
                "op {op}: churn with ≤10 live entries grew the table \
                 ({} > {cap}) — tombstones treated as live?",
                map.capacity()
            );
        }
        for (k, v) in map.iter() {
            assert_eq!(reference.get(&k), Some(v));
        }
        // Absent-key probes still terminate and miss correctly after the
        // churn (chains are full of reused slots).
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
            let key = next() % 13; // ≤ 13 live keys: the map stays at 16 slots
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
            assert_eq!(map.capacity(), 14, "op {op}: the 16-slot map grew");
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
    fn tombstone_buildup_triggers_purging_rehash() {
        let mut map: FlowMap<u64, u64> = FlowMap::with_capacity(64);
        // Insert/remove cycles far beyond the slot count: without tombstone
        // purging the probe chains would fill up and loop forever.
        for round in 0..10_000u64 {
            map.insert(round, round);
            assert_eq!(map.remove(&round), Some(round));
        }
        assert!(map.is_empty());
        map.insert(7, 7);
        assert_eq!(map.get(&7), Some(&7));
    }
}
