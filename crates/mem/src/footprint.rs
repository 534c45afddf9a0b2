//! Block-granular transaction footprints: who has read or written which
//! block since their transaction began.
//!
//! This is the paper's speculative read/written bits plus the
//! permissions-only cache (§2), and equally DATM's read/write sets: one
//! row of reader/writer core sets per block, so "who else holds this
//! block" is a lookup instead of a snoop of every core, and one list of
//! touched blocks per core, so ending a transaction walks what it marked
//! and nothing else. A core's own bits are two bit tests on the row. The
//! table knows nothing of watchers or caches — callers act on what `mark`
//! and the clears return.

use retcon_isa::table::BlockTable;
use retcon_isa::CoreSet;

use crate::cache::SpecBits;

/// The cores holding a read (resp. written) bit on one block.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Row<const N: usize> {
    readers: CoreSet<N>,
    writers: CoreSet<N>,
}

/// Every core's read/written bits per block (see the module docs). Rows
/// are read in place: one is 256 bytes at `N = 16`.
#[derive(Debug, Clone)]
pub struct Footprints<const N: usize = 1> {
    rows: BlockTable<Row<N>>,
    /// Per core: the blocks it gained a first bit on since its last
    /// [`clear_core`](Self::clear_core), in that order. A block whose bits
    /// were taken away by [`clear_block`](Self::clear_block) stays listed,
    /// and is listed again if re-marked; `clear_core` skips entries that
    /// hold no bits by the time it reaches them.
    touched: Vec<Vec<u64>>,
}

impl<const N: usize> Footprints<N> {
    /// Empty footprints for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        Footprints {
            rows: BlockTable::new(),
            touched: vec![Vec::new(); num_cores],
        }
    }

    /// The bits `core` holds on `block`.
    #[inline]
    pub fn bits(&self, core: usize, block: u64) -> SpecBits {
        let row = self.rows.get_ref(block);
        SpecBits {
            read: row.readers.contains(core),
            written: row.writers.contains(core),
        }
    }

    /// The cores other than `core` holding a written bit on `block`.
    #[inline]
    pub fn other_writers(&self, core: usize, block: u64) -> CoreSet<N> {
        self.rows.get_ref(block).writers.without(core)
    }

    /// The cores other than `core` holding any bit on `block`.
    #[inline]
    pub fn other_holders(&self, core: usize, block: u64) -> CoreSet<N> {
        let row = self.rows.get_ref(block);
        row.readers.union(row.writers).without(core)
    }

    /// Adds `bits` to what `core` holds on `block`; `true` if that grew
    /// (a first bit, or a read joined by a write or the reverse).
    #[inline]
    pub fn mark(&mut self, core: usize, block: u64, bits: SpecBits) -> bool {
        let row = self.rows.entry(block);
        let first = !(row.readers.contains(core) || row.writers.contains(core));
        let grew =
            (bits.read && row.readers.insert(core)) | (bits.written && row.writers.insert(core));
        if first && grew {
            self.touched[core].push(block);
        }
        grew
    }

    /// Takes `core`'s bits off `block` (a steal) and returns them.
    #[inline]
    pub fn clear_block(&mut self, core: usize, block: u64) -> SpecBits {
        let bits = self.bits(core, block);
        if bits.any() {
            let row = self.rows.entry(block);
            row.readers.remove(core);
            row.writers.remove(core);
        }
        bits
    }

    /// Takes every bit `core` holds (its transaction ended), calling
    /// `visit` once per block it still held bits on, in first-mark order.
    pub fn clear_core(&mut self, core: usize, mut visit: impl FnMut(u64)) {
        for i in 0..self.touched[core].len() {
            let block = self.touched[core][i];
            if self.clear_block(core, block).any() {
                visit(block);
            }
        }
        self.touched[core].clear();
    }

    /// The blocks `core` holds bits on, in first-mark order; a block that
    /// was stolen and re-marked appears once per marking.
    pub fn blocks(&self, core: usize) -> impl Iterator<Item = (u64, SpecBits)> + '_ {
        self.touched[core].iter().filter_map(move |&block| {
            let bits = self.bits(core, block);
            bits.any().then_some((block, bits))
        })
    }
}
