//! The symbolic store buffer (SSB).
//!
//! Figure 5 of the paper: *"The Symbolic store buffer records
//! symbolically-tracked stores. It is indexed by data address and accessed
//! like a conventional cache-like unordered store buffer. Each entry contains
//! the address tag bits, the store's concrete value, and the store's symbolic
//! value (if any)."*
//!
//! An entry exists for a word when the transaction has stored either a
//! symbolic value to it, or *any* value to a word of a symbolically tracked
//! block (§4.2's store flowchart). Later loads forward from the buffer —
//! copying the symbolic value rather than chaining through it, which is what
//! flattens store-load dependences and lets commit repair every entry
//! independently (§4.3).

use retcon_isa::Addr;

use crate::sym::SymValue;

/// One word-granularity symbolic store buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsbEntry {
    /// Target word of the store.
    pub addr: Addr,
    /// The concrete value stored (the best-guess value as of execution).
    pub value: u64,
    /// The symbolic value stored, if the source register carried one.
    pub sym: Option<SymValue>,
}

/// The symbolic store buffer.
///
/// Entries are kept in first-store order (so commit-time draining is
/// deterministic); a store to a word that already has an entry overwrites
/// the entry in place.
#[derive(Debug, Clone, Default)]
pub struct Ssb {
    entries: Vec<SsbEntry>,
    capacity: usize,
}

/// Error returned when the buffer is full (the transaction must fall back to
/// an abort; Table 3 shows 32 entries suffice for virtually all
/// transactions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsbOverflow;

impl Ssb {
    /// Creates an empty buffer holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Ssb {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Number of buffered stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no stores are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a store. Overwrites in place if `addr` already has an entry;
    /// otherwise appends.
    ///
    /// # Errors
    ///
    /// Returns [`SsbOverflow`] if a new entry is needed and the buffer is
    /// full.
    pub fn insert(
        &mut self,
        addr: Addr,
        value: u64,
        sym: Option<SymValue>,
    ) -> Result<(), SsbOverflow> {
        if let Some(e) = self.entries.iter_mut().find(|e| e.addr == addr) {
            e.value = value;
            e.sym = sym;
            return Ok(());
        }
        if self.entries.len() >= self.capacity {
            return Err(SsbOverflow);
        }
        self.entries.push(SsbEntry { addr, value, sym });
        Ok(())
    }

    /// The buffered store to `addr`, if any (store-to-load forwarding).
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<&SsbEntry> {
        self.entries.iter().find(|e| e.addr == addr)
    }

    /// Removes the entry for `addr` (a non-symbolic store overwrote it).
    /// Returns `true` if an entry was removed.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        match self.entries.iter().position(|e| e.addr == addr) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Iterates over entries in first-store order.
    pub fn iter(&self) -> impl Iterator<Item = &SsbEntry> {
        self.entries.iter()
    }

    /// Forgets all entries (transaction end).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_forward() {
        let mut ssb = Ssb::new(4);
        ssb.insert(Addr(1), 10, None).unwrap();
        let sym = SymValue::root(Addr(8)).add(2);
        ssb.insert(Addr(2), 20, Some(sym)).unwrap();
        assert_eq!(ssb.len(), 2);
        assert_eq!(ssb.lookup(Addr(1)).unwrap().value, 10);
        assert_eq!(ssb.lookup(Addr(2)).unwrap().sym, Some(sym));
        assert!(ssb.lookup(Addr(3)).is_none());
    }

    #[test]
    fn overwrite_in_place_keeps_order_and_capacity() {
        let mut ssb = Ssb::new(2);
        ssb.insert(Addr(1), 10, None).unwrap();
        ssb.insert(Addr(2), 20, None).unwrap();
        // Overwriting does not need a new slot even when full.
        ssb.insert(Addr(1), 11, None).unwrap();
        let order: Vec<Addr> = ssb.iter().map(|e| e.addr).collect();
        assert_eq!(order, vec![Addr(1), Addr(2)]);
        assert_eq!(ssb.lookup(Addr(1)).unwrap().value, 11);
    }

    #[test]
    fn overflow_reported() {
        let mut ssb = Ssb::new(1);
        ssb.insert(Addr(1), 10, None).unwrap();
        assert_eq!(ssb.insert(Addr(2), 20, None), Err(SsbOverflow));
        assert_eq!(ssb.len(), 1);
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut ssb = Ssb::new(4);
        ssb.insert(Addr(1), 10, None).unwrap();
        assert!(ssb.invalidate(Addr(1)));
        assert!(!ssb.invalidate(Addr(1)));
        assert!(ssb.lookup(Addr(1)).is_none());
        assert!(ssb.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut ssb = Ssb::new(4);
        ssb.insert(Addr(1), 10, None).unwrap();
        ssb.clear();
        assert!(ssb.is_empty());
    }
}
