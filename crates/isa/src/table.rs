//! Dense-first keyed tables for the simulator hot paths.
//!
//! Every per-block or per-word structure on the access hot path (directory
//! entries, transaction footprints, word-log membership, tracking
//! predictors) used to be an `FxHashMap` — one hash per consultation,
//! several consultations per simulated memory access. Workloads allocate addresses densely from zero
//! (`retcon_workloads::Alloc`), so block and word numbers are small: a
//! direct-indexed `Vec` answers the common case with a bounds check and an
//! array load, and only adversarial/sparse keys (large literals in tests)
//! fall back to a hash map.
//!
//! Two shapes cover the consumers:
//!
//! * [`BlockTable`] — a persistent table where `T::default()` means
//!   "absent" (a cleared entry and a missing entry are indistinguishable,
//!   which matches how every consumer already treated its map);
//! * [`EpochSet`] / [`EpochMap`] — *per-transaction* membership with O(1)
//!   bulk clear: entries are stamped with the current epoch and `clear`
//!   just increments it, so the per-transaction footprint structures never
//!   pay a drain loop or a rehash.

use crate::fx::{FxHashMap, FxHashSet};

/// Keys below this use the direct-indexed dense storage (matches the dense
/// page window of the simulated memory: 16 MiB = 2^18 64-byte blocks or
/// 2^21 words — block-keyed tables stay well under the word bound). The
/// dense vector grows on demand up to the highest key actually touched, so
/// small workloads stay small.
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

    /// Number of non-default entries (diagnostics; scans the table).
    pub fn occupied(&self) -> usize {
        let d = T::default();
        self.dense.iter().filter(|&&v| v != d).count()
            + self.sparse.values().filter(|&&v| v != d).count()
    }
}

/// A set of keys with O(1) bulk [`clear`](EpochSet::clear): dense slots are
/// stamped with the epoch they were inserted in, so clearing is one
/// increment (plus draining the rare sparse spill). A per-transaction set
/// (RETCON's plainly-accessed blocks) clears once per transaction — this
/// removes both its per-access hashing and its per-transaction drain.
#[derive(Debug, Clone)]
pub struct EpochSet {
    stamps: Vec<u32>,
    epoch: u32,
    sparse: FxHashSet<u64>,
}

impl Default for EpochSet {
    fn default() -> Self {
        EpochSet::new()
    }
}

impl EpochSet {
    /// An empty set.
    pub fn new() -> Self {
        EpochSet {
            stamps: Vec::new(),
            // Epoch 0 is reserved as "never stamped".
            epoch: 1,
            sparse: FxHashSet::default(),
        }
    }

    /// Inserts `key`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        if key < DENSE_KEYS {
            let i = key as usize;
            if self.stamps.len() <= i {
                self.stamps.resize(i + 1, 0);
            }
            let slot = &mut self.stamps[i];
            let fresh = *slot != self.epoch;
            *slot = self.epoch;
            fresh
        } else {
            self.sparse.insert(key)
        }
    }

    /// `true` if `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        if key < DENSE_KEYS {
            self.stamps.get(key as usize) == Some(&self.epoch)
        } else {
            self.sparse.contains(&key)
        }
    }

    /// Removes `key`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, key: u64) -> bool {
        if key < DENSE_KEYS {
            match self.stamps.get_mut(key as usize) {
                Some(slot) if *slot == self.epoch => {
                    *slot = 0;
                    true
                }
                _ => false,
            }
        } else {
            self.sparse.remove(&key)
        }
    }

    /// Empties the set in O(1) (amortized: the stamp array is zeroed only
    /// when the 32-bit epoch wraps).
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        if !self.sparse.is_empty() {
            self.sparse.clear();
        }
    }
}

/// An [`EpochSet`] carrying a value per present key.
#[derive(Debug, Clone)]
pub struct EpochMap<V> {
    stamps: Vec<u32>,
    values: Vec<V>,
    epoch: u32,
    sparse: FxHashMap<u64, V>,
}

impl<V: Copy + Default> Default for EpochMap<V> {
    fn default() -> Self {
        EpochMap::new()
    }
}

impl<V: Copy + Default> EpochMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        EpochMap {
            stamps: Vec::new(),
            values: Vec::new(),
            epoch: 1,
            sparse: FxHashMap::default(),
        }
    }

    /// Inserts `value` for `key` only if absent; returns `true` if newly
    /// inserted (the first-write-wins shape the undo log and value logs
    /// need).
    #[inline]
    pub fn insert_if_absent(&mut self, key: u64, value: V) -> bool {
        if key < DENSE_KEYS {
            let i = key as usize;
            if self.stamps.len() <= i {
                self.stamps.resize(i + 1, 0);
                self.values.resize(i + 1, V::default());
            }
            if self.stamps[i] == self.epoch {
                return false;
            }
            self.stamps[i] = self.epoch;
            self.values[i] = value;
            true
        } else if let std::collections::hash_map::Entry::Vacant(e) = self.sparse.entry(key) {
            e.insert(value);
            true
        } else {
            false
        }
    }

    /// Inserts (or overwrites) `value` for `key`; returns `true` if the key
    /// was newly inserted (the last-write-wins shape the write buffer
    /// needs).
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> bool {
        if key < DENSE_KEYS {
            let i = key as usize;
            if self.stamps.len() <= i {
                self.stamps.resize(i + 1, 0);
                self.values.resize(i + 1, V::default());
            }
            let fresh = self.stamps[i] != self.epoch;
            self.stamps[i] = self.epoch;
            self.values[i] = value;
            fresh
        } else {
            self.sparse.insert(key, value).is_none()
        }
    }

    /// The value for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        if key < DENSE_KEYS {
            let i = key as usize;
            if self.stamps.get(i) == Some(&self.epoch) {
                Some(self.values[i])
            } else {
                None
            }
        } else {
            self.sparse.get(&key).copied()
        }
    }

    /// Empties the map in O(1) (amortized; see [`EpochSet::clear`]).
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        if !self.sparse.is_empty() {
            self.sparse.clear();
        }
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
        assert_eq!(t.occupied(), 2);
        assert_eq!(t.clear_entry(3), 7);
        assert_eq!(t.clear_entry(far), 9);
        assert_eq!(t.get(3), 0);
        assert_eq!(t.get(far), 0);
        assert_eq!(t.occupied(), 0);
        // Clearing an untouched key is a no-op.
        assert_eq!(t.clear_entry(DENSE_KEYS * 2), 0);
    }

    #[test]
    fn block_table_default_entries_do_not_count_as_occupied() {
        let mut t: BlockTable<u64> = BlockTable::new();
        *t.entry(100) = 0; // grows the dense vec but stays default
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn epoch_set_insert_contains_remove_clear() {
        let far = DENSE_KEYS + 5;
        let mut s = EpochSet::new();
        assert!(s.insert(4));
        assert!(!s.insert(4));
        assert!(s.insert(far));
        assert!(s.contains(4) && s.contains(far));
        assert!(!s.contains(5));
        assert!(s.remove(4));
        assert!(!s.remove(4));
        assert!(!s.contains(4));
        s.clear();
        assert!(!s.contains(far));
        // Post-clear the same keys insert as fresh.
        assert!(s.insert(4));
        assert!(s.insert(far));
    }

    #[test]
    fn epoch_set_survives_many_clears() {
        let mut s = EpochSet::new();
        for round in 0..100u64 {
            assert!(s.insert(round % 7));
            assert!(!s.insert(round % 7));
            s.clear();
        }
    }

    #[test]
    fn epoch_map_first_write_wins() {
        let far = DENSE_KEYS + 9;
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
