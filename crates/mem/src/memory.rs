//! Architectural memory state.

use retcon_isa::Addr;

use crate::fx::FxHashMap;

/// Words per page: 512 × 8-byte words = 4 KiB pages.
const PAGE_WORDS: usize = 512;
/// log2(PAGE_WORDS), for shift/mask addressing.
const PAGE_SHIFT: u32 = PAGE_WORDS.trailing_zeros();
const PAGE_MASK: u64 = PAGE_WORDS as u64 - 1;

/// Highest page number served by the dense direct-indexed table; pages
/// above it live in the sparse fallback map. 4096 pages × 4 KiB = a 16 MiB
/// simulated address space before any access ever hashes.
const DENSE_PAGES: u64 = 4096;

/// The architectural memory of the simulated machine: 64-bit words, unwritten
/// words read as zero, like zero-initialized physical memory.
///
/// Storage is a paged flat store with a two-level index. Workloads allocate
/// addresses densely from zero (see `retcon_workloads::Alloc`), so the
/// first [`DENSE_PAGES`] page slots are a plain `Vec` — the hot-path word
/// load/store is two array indexes, no hashing at all. Pages beyond the
/// dense window (sparse test patterns, adversarial addresses) fall back to
/// a small [`FxHashMap`]. Either way there are no per-word map entries and
/// no allocation after the working set's pages exist.
///
/// `GlobalMemory` holds *values only*; which core may access a word, at what
/// latency, and whether doing so conflicts with a speculative region is the
/// business of [`MemorySystem`](crate::MemorySystem). Version management
/// (undo logs, write buffers) layers on top via
/// [`UndoLog`](crate::UndoLog) / [`WriteBuffer`](crate::WriteBuffer).
///
/// # Example
///
/// ```
/// use retcon_mem::GlobalMemory;
/// use retcon_isa::Addr;
///
/// let mut mem = GlobalMemory::new();
/// assert_eq!(mem.read(Addr(10)), 0);
/// mem.write(Addr(10), 99);
/// assert_eq!(mem.read(Addr(10)), 99);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlobalMemory {
    /// Dense page table for page numbers below [`DENSE_PAGES`], grown on
    /// first write; `None` slots read as zero.
    dense: Vec<Option<Box<[u64; PAGE_WORDS]>>>,
    /// Sparse fallback for page numbers at or above [`DENSE_PAGES`].
    sparse: FxHashMap<u64, Box<[u64; PAGE_WORDS]>>,
}

impl GlobalMemory {
    /// Creates an all-zero memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the word at `addr` (zero if never written).
    #[inline]
    pub fn read(&self, addr: Addr) -> u64 {
        let pno = addr.0 >> PAGE_SHIFT;
        let idx = (addr.0 & PAGE_MASK) as usize;
        if pno < DENSE_PAGES {
            match self.dense.get(pno as usize) {
                Some(Some(page)) => page[idx],
                _ => 0,
            }
        } else {
            match self.sparse.get(&pno) {
                Some(page) => page[idx],
                None => 0,
            }
        }
    }

    /// Writes `value` to the word at `addr`.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: u64) {
        let pno = addr.0 >> PAGE_SHIFT;
        let idx = (addr.0 & PAGE_MASK) as usize;
        if value == 0 {
            // Zero is the default: only touch pages that already exist.
            let page = if pno < DENSE_PAGES {
                self.dense.get_mut(pno as usize).and_then(Option::as_mut)
            } else {
                self.sparse.get_mut(&pno)
            };
            if let Some(page) = page {
                page[idx] = 0;
            }
        } else {
            let page = if pno < DENSE_PAGES {
                if self.dense.len() <= pno as usize {
                    self.dense.resize(pno as usize + 1, None);
                }
                self.dense[pno as usize].get_or_insert_with(|| Box::new([0u64; PAGE_WORDS]))
            } else {
                self.sparse
                    .entry(pno)
                    .or_insert_with(|| Box::new([0u64; PAGE_WORDS]))
            };
            page[idx] = value;
        }
    }

    /// The populated `(page number, page)` pairs, in arbitrary order.
    fn pages(&self) -> impl Iterator<Item = (u64, &[u64; PAGE_WORDS])> {
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(pno, p)| Some((pno as u64, &**p.as_ref()?)))
            .chain(self.sparse.iter().map(|(&pno, p)| (pno, &**p)))
    }

    /// Iterates over `(address, value)` pairs of nonzero words in arbitrary
    /// order. Intended for test assertions and debugging dumps; use
    /// [`iter_sorted`](Self::iter_sorted) when a stable order matters.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        self.pages()
            .flat_map(|(pno, page)| nonzero_words_of(pno, page))
    }

    /// Iterates over `(address, value)` pairs of nonzero words in ascending
    /// address order. Only the page *index* is sorted (one small allocation);
    /// words within a page are already stored in address order — the
    /// sorted-dump helper workload final-state verification shares.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        let mut pages: Vec<(u64, &[u64; PAGE_WORDS])> = self.pages().collect();
        pages.sort_unstable_by_key(|&(pno, _)| pno);
        pages
            .into_iter()
            .flat_map(|(pno, page)| nonzero_words_of(pno, page))
    }
}

/// The nonzero `(address, value)` pairs of one page, in address order.
fn nonzero_words_of(pno: u64, page: &[u64; PAGE_WORDS]) -> impl Iterator<Item = (Addr, u64)> + '_ {
    page.iter().enumerate().filter_map(move |(i, &v)| {
        if v != 0 {
            Some((Addr((pno << PAGE_SHIFT) | i as u64), v))
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let mem = GlobalMemory::new();
        assert_eq!(mem.read(Addr(0)), 0);
        assert_eq!(mem.read(Addr(u64::MAX)), 0);
    }

    #[test]
    fn write_then_read() {
        let mut mem = GlobalMemory::new();
        mem.write(Addr(5), 42);
        mem.write(Addr(6), 43);
        assert_eq!(mem.read(Addr(5)), 42);
        assert_eq!(mem.read(Addr(6)), 43);
        assert_eq!(mem.iter().count(), 2);
    }

    #[test]
    fn overwrite_with_zero_stays_sparse() {
        let mut mem = GlobalMemory::new();
        mem.write(Addr(5), 42);
        mem.write(Addr(5), 0);
        assert_eq!(mem.read(Addr(5)), 0);
        assert_eq!(mem.iter().count(), 0);
        // Writing zero to a never-written word allocates nothing.
        mem.write(Addr(1 << 40), 0);
        assert_eq!(mem.read(Addr(1 << 40)), 0);
    }

    #[test]
    fn iter_covers_written_words() {
        let mut mem = GlobalMemory::new();
        mem.write(Addr(1), 10);
        mem.write(Addr(2), 20);
        let mut pairs: Vec<(Addr, u64)> = mem.iter().collect();
        pairs.sort();
        assert_eq!(pairs, vec![(Addr(1), 10), (Addr(2), 20)]);
    }

    #[test]
    fn iter_sorted_is_ascending_across_pages() {
        let mut mem = GlobalMemory::new();
        // Spread across three pages, written out of order.
        for &(a, v) in &[(5000u64, 3u64), (1, 1), (600, 2), (5001, 4)] {
            mem.write(Addr(a), v);
        }
        let pairs: Vec<(Addr, u64)> = mem.iter_sorted().collect();
        assert_eq!(
            pairs,
            vec![
                (Addr(1), 1),
                (Addr(600), 2),
                (Addr(5000), 3),
                (Addr(5001), 4)
            ]
        );
    }

    #[test]
    fn cross_page_boundary_addressing() {
        let mut mem = GlobalMemory::new();
        let boundary = PAGE_WORDS as u64;
        mem.write(Addr(boundary - 1), 7);
        mem.write(Addr(boundary), 8);
        assert_eq!(mem.read(Addr(boundary - 1)), 7);
        assert_eq!(mem.read(Addr(boundary)), 8);
        assert_eq!(mem.iter().count(), 2);
    }

    #[test]
    fn overwrite_nonzero_keeps_count() {
        let mut mem = GlobalMemory::new();
        mem.write(Addr(3), 1);
        mem.write(Addr(3), 2);
        assert_eq!(mem.iter().collect::<Vec<_>>(), vec![(Addr(3), 2)]);
    }
}
