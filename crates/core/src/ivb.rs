//! The initial value buffer (IVB).
//!
//! Figure 5 of the paper: *"The Initial value buffer is a cache-like
//! structure indexed by data address. Each entry contains the address tag
//! bits, the initial concrete value of the symbolic memory location, and the
//! symbolic constraints associated with that memory location (if any)."*
//!
//! Per the §4.4 optimizations, entries are maintained at cache-block
//! granularity (a symbolic load starts tracking the whole 64-byte block) and
//! equality constraints are compressed into per-word *equality bits* stored
//! directly in the entry. Interval constraints live in the engine's separate
//! constraint buffer. Each entry additionally records a *written* bit (§4.4,
//! "avoidance of upgrade misses during pre-commit": blocks that will receive
//! commit-time stores are reacquired with write permission directly) and a
//! *lost* bit for the Table 3 "blocks lost" statistic.

use retcon_isa::{Addr, BlockAddr, WORDS_PER_BLOCK};

/// One block-granularity entry of the initial value buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IvbEntry {
    block: BlockAddr,
    initial: [u64; WORDS_PER_BLOCK as usize],
    /// Final values, filled in by pre-commit step 1; until then a copy of
    /// `initial`.
    current: [u64; WORDS_PER_BLOCK as usize],
    /// Per-word equality bits (§4.4 compressed equality constraints).
    equality: u8,
    /// Block will be written at commit (reacquire with write permission).
    written: bool,
    /// Block was stolen away at least once during the transaction.
    lost: bool,
}

impl IvbEntry {
    /// The block this entry tracks.
    pub fn block(&self) -> BlockAddr {
        self.block
    }

    /// The initial value recorded for `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not within this entry's block.
    pub fn initial(&self, addr: Addr) -> u64 {
        assert!(
            self.block.contains(addr),
            "{addr:?} not in {:?}",
            self.block
        );
        self.initial[addr.offset_in_block() as usize]
    }

    /// The current (commit-time) value recorded for `addr`.
    pub fn current(&self, addr: Addr) -> u64 {
        assert!(
            self.block.contains(addr),
            "{addr:?} not in {:?}",
            self.block
        );
        self.current[addr.offset_in_block() as usize]
    }

    /// Whether `addr` carries an equality bit.
    pub fn has_equality(&self, addr: Addr) -> bool {
        self.equality & (1 << addr.offset_in_block()) != 0
    }

    /// Number of words with equality bits set.
    pub fn equality_count(&self) -> usize {
        self.equality.count_ones() as usize
    }

    /// Whether the block was stolen during the transaction.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Whether the block receives commit-time stores.
    pub fn is_written(&self) -> bool {
        self.written
    }
}

/// The initial value buffer: a small, capacity-limited set of tracked
/// blocks.
///
/// With the paper's default of 16 entries a linear scan is faster than any
/// indexed structure, and keeps the implementation obviously correct.
#[derive(Debug, Clone, Default)]
pub struct Ivb {
    entries: Vec<IvbEntry>,
    capacity: usize,
}

impl Ivb {
    /// Creates an empty buffer holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        Ivb {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no blocks are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if another block can be tracked.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// `true` if `block` is tracked.
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.entries.iter().any(|e| e.block == block)
    }

    /// The entry for `block`, if tracked.
    #[inline]
    pub fn get(&self, block: BlockAddr) -> Option<&IvbEntry> {
        self.entries.iter().find(|e| e.block == block)
    }

    fn get_mut(&mut self, block: BlockAddr) -> Option<&mut IvbEntry> {
        self.entries.iter_mut().find(|e| e.block == block)
    }

    /// Starts tracking `block`, capturing the initial value of each of its
    /// words via `read_word`. Returns `false` (and tracks nothing) if the
    /// buffer is full; re-tracking an already-tracked block is a no-op
    /// returning `true`.
    pub fn allocate(&mut self, block: BlockAddr, mut read_word: impl FnMut(Addr) -> u64) -> bool {
        if self.contains(block) {
            return true;
        }
        if !self.has_room() {
            return false;
        }
        let mut initial = [0u64; WORDS_PER_BLOCK as usize];
        for (i, w) in block.words().enumerate() {
            initial[i] = read_word(w);
        }
        self.entries.push(IvbEntry {
            block,
            initial,
            current: initial,
            equality: 0,
            written: false,
            lost: false,
        });
        true
    }

    /// Sets the equality bit for `addr`. Returns `false` if the word's block
    /// is not tracked (a protocol error: symbolic values always root at
    /// tracked words).
    pub fn set_equality(&mut self, addr: Addr) -> bool {
        match self.get_mut(addr.block()) {
            Some(e) => {
                e.equality |= 1 << addr.offset_in_block();
                true
            }
            None => false,
        }
    }

    /// Marks `block` as receiving commit-time stores.
    pub fn mark_written(&mut self, block: BlockAddr) {
        if let Some(e) = self.get_mut(block) {
            e.written = true;
        }
    }

    /// Marks `block` as stolen.
    pub fn mark_lost(&mut self, block: BlockAddr) {
        if let Some(e) = self.get_mut(block) {
            e.lost = true;
        }
    }

    /// Captures the commit-time value of every word of every tracked block
    /// (pre-commit step 1a) via `read_word`, visiting entries in allocation
    /// order and words in ascending address order — one pass, no per-commit
    /// scratch allocation.
    pub fn capture_currents(&mut self, mut read_word: impl FnMut(Addr) -> u64) {
        for e in &mut self.entries {
            let base = e.block.base().0;
            for (i, cur) in e.current.iter_mut().enumerate() {
                *cur = read_word(Addr(base + i as u64));
            }
        }
    }

    /// The commit-time value of `addr`, if its block is tracked.
    pub fn current(&self, addr: Addr) -> Option<u64> {
        self.get(addr.block()).map(|e| e.current(addr))
    }

    /// The initial value of `addr`, if its block is tracked.
    pub fn initial(&self, addr: Addr) -> Option<u64> {
        self.get(addr.block()).map(|e| e.initial(addr))
    }

    /// Iterates over tracked entries in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = &IvbEntry> {
        self.entries.iter()
    }

    /// The `i`-th entry in allocation order (index-based iteration lets the
    /// commit path interleave entry visits with `&mut` protocol work
    /// without collecting the entries first).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn entry_at(&self, i: usize) -> &IvbEntry {
        &self.entries[i]
    }

    /// Number of blocks marked lost.
    pub fn lost_count(&self) -> usize {
        self.entries.iter().filter(|e| e.lost).count()
    }

    /// Total equality bits set across all entries.
    pub fn equality_count(&self) -> usize {
        self.entries.iter().map(|e| e.equality_count()).sum()
    }

    /// Forgets all entries (transaction end).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn allocate_captures_all_words() {
        let mut ivb = Ivb::new(16);
        assert!(ivb.allocate(blk(2), |a| a.0 * 10));
        let e = ivb.get(blk(2)).unwrap();
        for w in blk(2).words() {
            assert_eq!(e.initial(w), w.0 * 10);
            assert_eq!(e.current(w), w.0 * 10);
        }
        assert_eq!(ivb.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut ivb = Ivb::new(2);
        assert!(ivb.allocate(blk(0), |_| 0));
        assert!(ivb.allocate(blk(1), |_| 0));
        assert!(!ivb.has_room());
        assert!(!ivb.allocate(blk(2), |_| 0));
        // Re-allocating a tracked block still succeeds.
        assert!(ivb.allocate(blk(1), |_| 99));
        // ...and does not overwrite the captured initial values.
        assert_eq!(ivb.get(blk(1)).unwrap().initial(blk(1).base()), 0);
    }

    #[test]
    fn equality_bits_per_word() {
        let mut ivb = Ivb::new(4);
        ivb.allocate(blk(1), |_| 7);
        let w0 = blk(1).base();
        let w3 = Addr(w0.0 + 3);
        assert!(ivb.set_equality(w3));
        let e = ivb.get(blk(1)).unwrap();
        assert!(e.has_equality(w3));
        assert!(!e.has_equality(w0));
        assert_eq!(e.equality_count(), 1);
        assert_eq!(ivb.equality_count(), 1);
        // Untracked block: cannot set.
        assert!(!ivb.set_equality(Addr(999)));
    }

    #[test]
    fn lost_and_written_flags() {
        let mut ivb = Ivb::new(4);
        ivb.allocate(blk(5), |_| 0);
        assert!(!ivb.get(blk(5)).unwrap().is_lost());
        ivb.mark_lost(blk(5));
        ivb.mark_written(blk(5));
        let e = ivb.get(blk(5)).unwrap();
        assert!(e.is_lost() && e.is_written());
        assert_eq!(ivb.lost_count(), 1);
        // Marking an untracked block is a no-op.
        ivb.mark_lost(blk(9));
        assert_eq!(ivb.lost_count(), 1);
    }

    #[test]
    fn current_values_update() {
        let mut ivb = Ivb::new(4);
        ivb.allocate(blk(0), |_| 1);
        let w = Addr(3);
        ivb.capture_currents(|a| if a == w { 42 } else { 1 });
        assert_eq!(ivb.current(w), Some(42));
        assert_eq!(ivb.initial(w), Some(1));
        assert_eq!(ivb.current(Addr(100)), None);
    }

    #[test]
    fn clear_empties() {
        let mut ivb = Ivb::new(4);
        ivb.allocate(blk(0), |_| 1);
        ivb.clear();
        assert!(ivb.is_empty());
        assert!(!ivb.contains(blk(0)));
    }

    #[test]
    #[should_panic(expected = "not in")]
    fn initial_outside_block_panics() {
        let mut ivb = Ivb::new(4);
        ivb.allocate(blk(0), |_| 1);
        let _ = ivb.get(blk(0)).unwrap().initial(Addr(8));
    }
}
