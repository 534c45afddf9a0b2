//! Version management: eager undo logging and lazy write buffering.
//!
//! The paper's baseline uses *eager version management* — speculative stores
//! update memory in place and an undo log restores pre-speculative values on
//! abort (§2, "the baseline is configured to use eager version management and
//! model a zero-cycle rollback penalty"). The LazyTM variant of Figure 2 and
//! the value-based `lazy-vb` configuration instead buffer stores locally
//! until commit. Both mechanisms live here so every protocol in
//! `retcon-htm` shares one tested implementation — and both are the same
//! structure underneath, a [`WordLog`], which `lazy-vb` also uses directly
//! as its log of values read.

use retcon_isa::table::EpochMap;
use retcon_isa::Addr;

use crate::memory::GlobalMemory;

/// An insertion-ordered map from word address to value whose
/// [`clear`](WordLog::clear) keeps its allocations: what a transaction
/// remembers per word.
#[derive(Debug, Clone, Default)]
pub struct WordLog {
    /// (address, value), in first-insertion order.
    entries: Vec<(Addr, u64)>,
    /// Word → index into `entries`.
    index: EpochMap<u32>,
}

impl WordLog {
    /// Logs `value()` for `addr` unless the word is already logged (first
    /// write wins; `value` is not evaluated then). Returns `true` if it was
    /// logged.
    #[inline]
    pub fn insert_first(&mut self, addr: Addr, value: impl FnOnce() -> u64) -> bool {
        let fresh = self
            .index
            .insert_if_absent(addr.0, self.entries.len() as u32);
        if fresh {
            self.entries.push((addr, value()));
        }
        fresh
    }

    /// Logs `value` for `addr`, replacing the word's value where it stands
    /// if already logged (last write wins, first write fixes the order).
    #[inline]
    pub fn insert(&mut self, addr: Addr, value: u64) {
        if !self.insert_first(addr, || value) {
            let i = self.index.get(addr.0).expect("logged word is indexed");
            self.entries[i as usize].1 = value;
        }
    }

    /// The value logged for `addr`, if any.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<u64> {
        self.index.get(addr.0).map(|i| self.entries[i as usize].1)
    }

    /// The logged `(address, value)` pairs in first-insertion order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (Addr, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Empties the log.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    /// Number of distinct words logged.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An eager-version-management undo log.
///
/// The log records the *first* pre-speculative value of each word written by
/// the current transaction. [`rollback`](UndoLog::rollback) restores them;
/// per the paper's baseline the restoration itself costs zero cycles.
///
/// # Example
///
/// ```
/// use retcon_mem::{GlobalMemory, UndoLog};
/// use retcon_isa::Addr;
///
/// let mut mem = GlobalMemory::new();
/// let mut log = UndoLog::new();
/// mem.write(Addr(1), 10);
///
/// log.record(&mem, Addr(1));
/// mem.write(Addr(1), 99);
/// log.rollback(&mut mem);
/// assert_eq!(mem.read(Addr(1)), 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UndoLog {
    /// Word → pre-speculative value, in first-write order.
    log: WordLog,
}

impl UndoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the current value of `addr` if this is the first speculative
    /// write to it in the current transaction.
    #[inline]
    pub fn record(&mut self, mem: &GlobalMemory, addr: Addr) {
        self.log.insert_first(addr, || mem.read(addr));
    }

    /// Restores every logged word to its pre-speculative value and clears the
    /// log. Restoration happens in reverse order, though with first-write-only
    /// logging the order is immaterial.
    pub fn rollback(&mut self, mem: &mut GlobalMemory) {
        for (addr, value) in self.log.iter().rev() {
            mem.write(addr, value);
        }
        self.clear();
    }

    /// Discards the log without restoring (used at commit).
    pub fn clear(&mut self) {
        self.log.clear();
    }

    /// Number of distinct words logged.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// The pre-speculative value recorded for `addr`, if any.
    pub fn old_value(&self, addr: Addr) -> Option<u64> {
        self.log.get(addr)
    }
}

/// A lazy-version-management store buffer.
///
/// Speculative stores are collected here and only drained to
/// [`GlobalMemory`] at commit; loads must consult the buffer first to see
/// the transaction's own stores.
///
/// # Example
///
/// ```
/// use retcon_mem::{GlobalMemory, WriteBuffer};
/// use retcon_isa::Addr;
///
/// let mut mem = GlobalMemory::new();
/// let mut wb = WriteBuffer::new();
/// wb.write(Addr(4), 5);
/// assert_eq!(wb.read(Addr(4)), Some(5));
/// assert_eq!(mem.read(Addr(4)), 0); // not yet visible
/// wb.drain(&mut mem);
/// assert_eq!(mem.read(Addr(4)), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteBuffer {
    /// Word → latest buffered value, in first-store order.
    log: WordLog,
}

impl WriteBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers a store of `value` to `addr`.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: u64) {
        self.log.insert(addr, value);
    }

    /// The buffered value for `addr`, if the transaction has stored to it.
    #[inline]
    pub fn read(&self, addr: Addr) -> Option<u64> {
        self.log.get(addr)
    }

    /// Writes every buffered store to memory (in first-store order) and
    /// clears the buffer.
    pub fn drain(&mut self, mem: &mut GlobalMemory) {
        for (addr, value) in self.log.iter() {
            mem.write(addr, value);
        }
        self.discard();
    }

    /// Clears the buffer without writing (abort).
    pub fn discard(&mut self) {
        self.log.clear();
    }

    /// Number of distinct words buffered.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// `true` if no stores are buffered.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Iterates over buffered `(address, value)` pairs in first-store order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        self.log.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undo_log_restores_first_values() {
        let mut mem = GlobalMemory::new();
        let mut log = UndoLog::new();
        mem.write(Addr(1), 10);

        log.record(&mem, Addr(1));
        mem.write(Addr(1), 20);
        log.record(&mem, Addr(1)); // second record is a no-op
        mem.write(Addr(1), 30);
        log.record(&mem, Addr(2));
        mem.write(Addr(2), 5);

        assert_eq!(log.len(), 2);
        assert_eq!(log.old_value(Addr(1)), Some(10));
        log.rollback(&mut mem);
        assert_eq!(mem.read(Addr(1)), 10);
        assert_eq!(mem.read(Addr(2)), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn undo_log_clear_commits() {
        let mut mem = GlobalMemory::new();
        let mut log = UndoLog::new();
        log.record(&mem, Addr(3));
        mem.write(Addr(3), 7);
        log.clear();
        log.rollback(&mut mem); // nothing to roll back
        assert_eq!(mem.read(Addr(3)), 7);
    }

    #[test]
    fn write_buffer_forwards_to_own_reads() {
        let mut wb = WriteBuffer::new();
        assert_eq!(wb.read(Addr(9)), None);
        wb.write(Addr(9), 1);
        wb.write(Addr(9), 2);
        assert_eq!(wb.read(Addr(9)), Some(2));
        assert_eq!(wb.len(), 1);
    }

    #[test]
    fn write_buffer_drain_publishes_in_order() {
        let mut mem = GlobalMemory::new();
        let mut wb = WriteBuffer::new();
        wb.write(Addr(1), 11);
        wb.write(Addr(2), 22);
        wb.write(Addr(1), 111); // overwrite keeps original order slot
        let pairs: Vec<_> = wb.iter().collect();
        assert_eq!(pairs, vec![(Addr(1), 111), (Addr(2), 22)]);
        wb.drain(&mut mem);
        assert_eq!(mem.read(Addr(1)), 111);
        assert_eq!(mem.read(Addr(2)), 22);
        assert!(wb.is_empty());
    }

    #[test]
    fn write_buffer_discard_drops_stores() {
        let mut mem = GlobalMemory::new();
        let mut wb = WriteBuffer::new();
        wb.write(Addr(1), 11);
        wb.discard();
        wb.drain(&mut mem);
        assert_eq!(mem.read(Addr(1)), 0);
    }
}
