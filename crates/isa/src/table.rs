//! Keyed tables for the simulator hot paths.
//!
//! Two shapes cover the consumers:
//!
//! * [`BlockTable`] — a persistent block-keyed table where `T::default()`
//!   means "absent" (a cleared entry and a missing entry are
//!   indistinguishable, which matches how every consumer treats it).
//!   Workloads allocate addresses densely from zero
//!   (`retcon_workloads::Alloc`), so block numbers are small: a
//!   direct-indexed `Vec` answers the common case with a bounds check and
//!   an array load, and only sparse keys (large literals in tests) fall
//!   back to a hash map. Directory entries, footprint rows and watcher
//!   counts live here for the whole run: one table each per machine,
//!   touched on every access. A per-core table trained on a few blocks
//!   (the tracking predictor) is a plain Fx map instead, since a dense
//!   window per core reaches the highest block that core ever saw.
//! * [`EpochMap`] — a *per-transaction* map, cleared at every commit and
//!   abort: a plain Fx map, since a dense window sized by the highest key
//!   a core ever touched would outlive every transaction that touched it.

use std::collections::hash_map::Entry;

use crate::fx::FxHashMap;

/// Keys below this use the direct-indexed dense storage (the dense page
/// window of the simulated memory is 16 MiB = 2^18 64-byte blocks, well
/// under this bound). The dense vector grows on demand up to the highest
/// key actually touched, so small workloads stay small.
const DENSE_KEYS: u64 = 1 << 21;

/// A block-keyed table: dense direct-indexed storage for low keys, sparse
/// hash fallback above, `T::default()` meaning "absent".
#[derive(Debug, Clone, Default)]
pub struct BlockTable<T> {
    dense: Vec<T>,
    sparse: FxHashMap<u64, T>,
    /// What [`get_ref`](BlockTable::get_ref) lends for an absent key.
    absent: T,
}

impl<T: Copy + Default + PartialEq> BlockTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        BlockTable {
            dense: Vec::new(),
            sparse: FxHashMap::default(),
            absent: T::default(),
        }
    }

    /// The entry for `key`, by value (`T::default()` if absent).
    #[inline]
    pub fn get(&self, key: u64) -> T {
        *self.get_ref(key)
    }

    /// The entry for `key`, in place (a `T::default()` if absent). For wide
    /// rows: [`get`](Self::get) copies the whole entry.
    #[inline]
    pub fn get_ref(&self, key: u64) -> &T {
        let entry = if key < DENSE_KEYS {
            self.dense.get(key as usize)
        } else {
            self.sparse.get(&key)
        };
        entry.unwrap_or(&self.absent)
    }

    /// A mutable reference to the entry for `key`, created as
    /// `T::default()` if absent.
    #[inline]
    pub fn entry(&mut self, key: u64) -> &mut T {
        if key < DENSE_KEYS {
            let i = key as usize;
            if self.dense.len() <= i {
                self.dense.resize(i + 1, T::default());
            }
            &mut self.dense[i]
        } else {
            self.sparse.entry(key).or_default()
        }
    }

    /// Resets the entry for `key` to `T::default()`, returning the previous
    /// value.
    #[inline]
    pub fn clear_entry(&mut self, key: u64) -> T {
        if key < DENSE_KEYS {
            match self.dense.get_mut(key as usize) {
                Some(slot) => std::mem::take(slot),
                None => T::default(),
            }
        } else {
            self.sparse.remove(&key).unwrap_or_default()
        }
    }
}

/// A per-transaction map from key to value: an `FxHashMap` whose
/// [`clear`](EpochMap::clear) keeps its allocation, so a core reuses one
/// table across all its transactions. The name is kept because
/// `benchmark/` times it (`isa.epochmap_insert_clear_ns`); the
/// epoch-stamped dense design it replaced is in DESIGN.md "Tried and
/// rejected".
#[derive(Debug, Clone, Default)]
pub struct EpochMap<V> {
    map: FxHashMap<u64, V>,
}

impl<V: Copy> EpochMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        EpochMap {
            map: FxHashMap::default(),
        }
    }

    /// Inserts `value` for `key` only if absent; returns `true` if newly
    /// inserted (the first-write-wins shape the undo log and value logs
    /// need).
    #[inline]
    pub fn insert_if_absent(&mut self, key: u64, value: V) -> bool {
        match self.map.entry(key) {
            Entry::Vacant(e) => {
                e.insert(value);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Inserts (or overwrites) `value` for `key`; returns `true` if the key
    /// was newly inserted (the last-write-wins shape the write buffer
    /// needs).
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> bool {
        self.map.insert(key, value).is_none()
    }

    /// The value for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        self.map.get(&key).copied()
    }

    /// Empties the map, keeping its allocation.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_table_dense_and_sparse_round_trip() {
        let mut t: BlockTable<u64> = BlockTable::new();
        assert_eq!(t.get(3), 0);
        *t.entry(3) = 7;
        let far = DENSE_KEYS + 123;
        *t.entry(far) = 9;
        assert_eq!(t.get(3), 7);
        assert_eq!(t.get(far), 9);
        assert_eq!(t.get_ref(3), &7);
        assert_eq!(t.get_ref(far), &9);
        assert_eq!(t.get_ref(far + 1), &0);
        assert_eq!(t.clear_entry(3), 7);
        assert_eq!(t.clear_entry(far), 9);
        assert_eq!(t.get(3), 0);
        assert_eq!(t.get(far), 0);
        // Clearing an untouched key is a no-op.
        assert_eq!(t.clear_entry(DENSE_KEYS * 2), 0);
    }

    #[test]
    fn block_table_default_entries_read_as_absent() {
        let mut t: BlockTable<u64> = BlockTable::new();
        *t.entry(100) = 0; // grows the dense vec but stays default
        assert_eq!(t.get(100), 0);
        assert_eq!(t.get(99), 0);
        assert_eq!(t.clear_entry(100), 0);
    }

    #[test]
    fn epoch_map_insert_reports_fresh_keys_across_clears() {
        let mut m: EpochMap<u64> = EpochMap::new();
        for round in 0..100u64 {
            assert!(m.insert(round % 7, round));
            assert!(!m.insert(round % 7, round + 1));
            assert_eq!(m.get(round % 7), Some(round + 1));
            m.clear();
        }
    }

    #[test]
    fn epoch_map_first_write_wins() {
        let far = 1 << 40;
        let mut m: EpochMap<u64> = EpochMap::new();
        assert!(m.insert_if_absent(3, 10));
        assert!(!m.insert_if_absent(3, 20));
        assert_eq!(m.get(3), Some(10));
        assert!(m.insert_if_absent(far, 30));
        assert!(!m.insert_if_absent(far, 40));
        assert_eq!(m.get(far), Some(30));
        assert_eq!(m.get(4), None);
        m.clear();
        assert_eq!(m.get(3), None);
        assert_eq!(m.get(far), None);
        assert!(m.insert_if_absent(3, 50));
        assert_eq!(m.get(3), Some(50));
    }
}
