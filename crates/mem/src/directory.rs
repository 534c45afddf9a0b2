//! Directory coherence state.
//!
//! Entries are stored compactly as a per-block *sharer bitset* plus an
//! optional owner index, so the hot-path questions — "who must be
//! invalidated", "can the data be forwarded", "does this core hold the block
//! modified" — are fixed-width bit operations instead of `BTreeSet`
//! traversals. The [`DirState`] enum remains as a read-only *view* for tests
//! and diagnostics.
//!
//! The sharer set is a [`CoreSet<N>`]: `N = 1` (the default everywhere the
//! paper matrix runs) keeps the historical one-`u64` entry layout and
//! codegen; wider size classes (`N` up to 16, 1024 cores) widen every
//! operation to an unrolled word loop with no code changes here.

use std::collections::BTreeSet;

use retcon_isa::{BlockAddr, CoreSet};

use crate::system::CoreId;
use retcon_isa::table::BlockTable;

/// The directory's default (`N = 1`) size class supports at most this many
/// cores; wider machines use `CoreSet<N>` entries supporting `64 * N`.
pub const MAX_CORES: usize = 64;

/// Sentinel for "no modified owner" (`u16` so owner indices cover the
/// 1024-core size class).
const NO_OWNER: u16 = u16::MAX;

/// Compact per-block directory entry: either one modified owner, or a
/// bitset of read-only sharers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry<const N: usize = 1> {
    /// Core `i` present: core `i` holds a read-only copy (only meaningful
    /// when `owner == NO_OWNER`).
    sharers: CoreSet<N>,
    /// Index of the modified owner, or [`NO_OWNER`].
    owner: u16,
}

/// The default entry is the uncached state: no sharers, no owner.
impl<const N: usize> Default for Entry<N> {
    fn default() -> Self {
        Entry {
            sharers: CoreSet::EMPTY,
            owner: NO_OWNER,
        }
    }
}

impl<const N: usize> Entry<N> {
    #[inline]
    fn modified(core: CoreId) -> Entry<N> {
        debug_assert!(core.0 < CoreSet::<N>::CAPACITY);
        Entry {
            sharers: CoreSet::EMPTY,
            owner: core.0 as u16,
        }
    }

    #[inline]
    fn shared(mask: CoreSet<N>) -> Entry<N> {
        Entry {
            sharers: mask,
            owner: NO_OWNER,
        }
    }

    #[inline]
    fn holder_mask(self) -> CoreSet<N> {
        if self.owner == NO_OWNER {
            self.sharers
        } else {
            CoreSet::solo(self.owner as usize)
        }
    }
}

/// Coherence state of one block as seen by the directory (a view assembled
/// on demand; the directory's storage is the compact [`Entry`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No core caches the block.
    Uncached,
    /// One or more cores hold read-only copies.
    Shared(BTreeSet<CoreId>),
    /// Exactly one core holds the block with write permission.
    Modified(CoreId),
}

impl DirState {
    /// The set of cores currently holding any copy.
    pub fn holders(&self) -> Vec<CoreId> {
        match self {
            DirState::Uncached => Vec::new(),
            DirState::Shared(s) => s.iter().copied().collect(),
            DirState::Modified(c) => vec![*c],
        }
    }

    /// `true` if `core` holds a copy.
    pub fn holds(&self, core: CoreId) -> bool {
        match self {
            DirState::Uncached => false,
            DirState::Shared(s) => s.contains(&core),
            DirState::Modified(c) => *c == core,
        }
    }

    /// `true` if `core` holds the block with write permission.
    pub fn holds_modified(&self, core: CoreId) -> bool {
        matches!(self, DirState::Modified(c) if *c == core)
    }
}

/// The directory: authoritative coherence state for every block.
///
/// The directory answers two questions for the memory system: *who must be
/// invalidated/downgraded to grant this request* and *can the data be
/// forwarded from a remote owner instead of DRAM*. State transitions are
/// driven exclusively by [`grant_read`](Directory::grant_read),
/// [`grant_write`](Directory::grant_write) and
/// [`drop_holder`](Directory::drop_holder); the per-core tag arrays mirror
/// this state for latency and speculative-bit lookups.
#[derive(Debug, Clone, Default)]
pub struct Directory<const N: usize = 1> {
    /// Per-block entries; the dense-first table makes every hot-path
    /// question an array load for densely-allocated workloads.
    entries: BlockTable<Entry<N>>,
}

impl<const N: usize> Directory<N> {
    /// Creates an empty directory (all blocks [`DirState::Uncached`]).
    pub fn new() -> Self {
        Directory {
            entries: BlockTable::new(),
        }
    }

    /// The current state of `block`, as an assembled view (allocates for
    /// shared blocks; intended for tests and diagnostics, not the hot path).
    pub fn state(&self, block: BlockAddr) -> DirState {
        let e = self.entries.get(block.0);
        if e == Entry::default() {
            DirState::Uncached
        } else if e.owner != NO_OWNER {
            DirState::Modified(CoreId(e.owner as usize))
        } else {
            DirState::Shared(e.sharers.iter().map(CoreId).collect())
        }
    }

    /// Debug-asserts that `core` fits this size class's sharer sets. The
    /// `MemorySystem` constructor enforces this for protocol-driven use;
    /// this guard covers direct `Directory` users.
    #[inline]
    fn check_core(core: CoreId) {
        debug_assert!(
            core.0 < CoreSet::<N>::CAPACITY,
            "CoreId {core} exceeds this size class's capacity ({})",
            CoreSet::<N>::CAPACITY
        );
    }

    /// `true` if `core` holds any copy of `block`.
    #[inline]
    pub fn holds(&self, core: CoreId, block: BlockAddr) -> bool {
        Self::check_core(core);
        self.entries.get(block.0).holder_mask().contains(core.0)
    }

    /// `true` if `core` holds `block` with write permission.
    #[inline]
    pub fn holds_modified(&self, core: CoreId, block: BlockAddr) -> bool {
        Self::check_core(core);
        self.entries.get(block.0).owner == core.0 as u16
    }

    /// Set of cores whose copies must change state for `core` to perform
    /// the given access: for a write, every other holder; for a read, the
    /// remote modified owner (who must downgrade), if any.
    #[inline]
    pub fn victims_mask(&self, core: CoreId, block: BlockAddr, write: bool) -> CoreSet<N> {
        Self::check_core(core);
        let e = self.entries.get(block.0);
        if e.owner != NO_OWNER {
            e.holder_mask().without(core.0)
        } else if write {
            e.sharers.without(core.0)
        } else {
            CoreSet::EMPTY
        }
    }

    /// [`victims_mask`](Self::victims_mask) as a `Vec` (tests and
    /// diagnostics).
    pub fn victims(&self, core: CoreId, block: BlockAddr, write: bool) -> Vec<CoreId> {
        self.victims_mask(core, block, write)
            .iter()
            .map(CoreId)
            .collect()
    }

    /// `true` if a miss by `core` would be serviced by a remote owner's cache
    /// (dirty forward) rather than DRAM.
    #[inline]
    pub fn forwarded_from_owner(&self, core: CoreId, block: BlockAddr) -> bool {
        Self::check_core(core);
        let owner = self.entries.get(block.0).owner;
        owner != NO_OWNER && owner != core.0 as u16
    }

    /// Records that `core` has been granted a read-only copy, downgrading a
    /// remote modified owner to shared. Returns the downgraded owner, if any.
    pub fn grant_read(&mut self, core: CoreId, block: BlockAddr) -> Option<CoreId> {
        Self::check_core(core);
        let e = self.entries.entry(block.0);
        if e.owner == NO_OWNER {
            // Uncached or shared: join the sharer set.
            e.sharers.insert(core.0);
            None
        } else if e.owner == core.0 as u16 {
            None
        } else {
            let owner = CoreId(e.owner as usize);
            let mut sharers = CoreSet::solo(core.0);
            sharers.insert(owner.0);
            *e = Entry::shared(sharers);
            Some(owner)
        }
    }

    /// Records that `core` has been granted an exclusive (writable) copy,
    /// invalidating all other holders. Returns the set of invalidated
    /// cores.
    pub fn grant_write(&mut self, core: CoreId, block: BlockAddr) -> CoreSet<N> {
        let victims = self.victims_mask(core, block, true);
        *self.entries.entry(block.0) = Entry::modified(core);
        victims
    }

    /// Records that `core` no longer caches `block` (eviction or
    /// invalidation acknowledged).
    pub fn drop_holder(&mut self, core: CoreId, block: BlockAddr) {
        Self::check_core(core);
        let mut e = self.entries.get(block.0);
        if e == Entry::default() {
            return;
        }
        if e.owner != NO_OWNER {
            if e.owner == core.0 as u16 {
                self.entries.clear_entry(block.0);
            }
        } else {
            e.sharers.remove(core.0);
            if e.sharers.is_empty() {
                self.entries.clear_entry(block.0);
            } else {
                *self.entries.entry(block.0) = e;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const C2: CoreId = CoreId(2);
    const B: BlockAddr = BlockAddr(7);

    /// `CoreSet` with exactly the given members (expected-value helper).
    fn set<const N: usize>(cores: &[usize]) -> CoreSet<N> {
        let mut s = CoreSet::EMPTY;
        for &c in cores {
            s.insert(c);
        }
        s
    }

    #[test]
    fn starts_uncached() {
        let d: Directory = Directory::new();
        assert_eq!(d.state(B), DirState::Uncached);
        assert!(d.victims(C0, B, true).is_empty());
        assert_eq!(d.victims_mask(C0, B, true), CoreSet::EMPTY);
    }

    #[test]
    fn read_read_shares() {
        let mut d: Directory = Directory::new();
        assert_eq!(d.grant_read(C0, B), None);
        assert_eq!(d.grant_read(C1, B), None);
        let s = d.state(B);
        assert!(s.holds(C0) && s.holds(C1));
        assert!(!s.holds_modified(C0));
        assert!(d.holds(C0, B) && d.holds(C1, B));
        assert!(!d.holds_modified(C0, B));
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d: Directory = Directory::new();
        d.grant_read(C0, B);
        d.grant_read(C1, B);
        let victims = d.grant_write(C2, B);
        assert_eq!(victims, set(&[0, 1]));
        assert!(d.state(B).holds_modified(C2));
        assert!(d.holds_modified(C2, B));
    }

    #[test]
    fn read_downgrades_modified_owner() {
        let mut d: Directory = Directory::new();
        d.grant_write(C0, B);
        assert!(d.forwarded_from_owner(C1, B));
        let downgraded = d.grant_read(C1, B);
        assert_eq!(downgraded, Some(C0));
        let s = d.state(B);
        assert!(s.holds(C0) && s.holds(C1));
        assert!(!s.holds_modified(C0));
    }

    #[test]
    fn owner_rereading_keeps_modified() {
        let mut d: Directory = Directory::new();
        d.grant_write(C0, B);
        assert_eq!(d.grant_read(C0, B), None);
        assert!(d.state(B).holds_modified(C0));
    }

    #[test]
    fn write_steals_from_owner() {
        let mut d: Directory = Directory::new();
        d.grant_write(C0, B);
        let victims = d.grant_write(C1, B);
        assert_eq!(victims, set(&[0]));
        assert!(d.state(B).holds_modified(C1));
    }

    #[test]
    fn drop_holder_transitions() {
        let mut d: Directory = Directory::new();
        d.grant_read(C0, B);
        d.grant_read(C1, B);
        d.drop_holder(C0, B);
        assert!(!d.state(B).holds(C0));
        assert!(d.state(B).holds(C1));
        d.drop_holder(C1, B);
        assert_eq!(d.state(B), DirState::Uncached);
        assert!(!d.holds(C0, B) && !d.holds(C1, B));

        d.grant_write(C2, B);
        d.drop_holder(C2, B);
        assert_eq!(d.state(B), DirState::Uncached);
    }

    #[test]
    fn victims_for_read_only_modified_owner() {
        let mut d: Directory = Directory::new();
        d.grant_read(C0, B);
        assert!(d.victims(C1, B, false).is_empty());
        d.grant_write(C0, B);
        assert_eq!(d.victims(C1, B, false), vec![C0]);
        assert_eq!(d.victims(C0, B, false), Vec::<CoreId>::new());
    }

    #[test]
    fn drop_of_non_holder_is_noop() {
        let mut d: Directory = Directory::new();
        d.grant_write(C0, B);
        d.drop_holder(C1, B);
        assert!(d.state(B).holds_modified(C0));
    }

    #[test]
    fn wide_size_class_tracks_high_cores() {
        // The 16-word size class handles cores past every narrower limit.
        let mut d: Directory<16> = Directory::new();
        let hi = CoreId(1000);
        let lo = CoreId(3);
        d.grant_read(hi, B);
        d.grant_read(lo, B);
        assert!(d.holds(hi, B) && d.holds(lo, B));
        let victims = d.grant_write(CoreId(512), B);
        assert_eq!(victims, set(&[3, 1000]));
        assert!(d.holds_modified(CoreId(512), B));
    }
}
