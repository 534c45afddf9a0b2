//! Workload specifications and memory layout allocation.

use retcon_isa::{Addr, Program, WORDS_PER_BLOCK};

/// A fully-built workload: one program and input tape per core, plus the
/// initial contents of shared memory.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Display name (Table 2 label).
    pub name: &'static str,
    /// One program per core.
    pub programs: Vec<Program>,
    /// One input tape per core (pre-randomized keys etc.).
    pub tapes: Vec<Vec<u64>>,
    /// Initial nonzero memory words.
    pub init: Vec<(Addr, u64)>,
}

impl WorkloadSpec {
    /// Number of cores the spec was built for.
    pub fn num_cores(&self) -> usize {
        self.programs.len()
    }
}

/// A bump allocator for the simulated word address space.
///
/// Regions are always block-aligned so that logically-private data never
/// false-shares a cache block with another region — false sharing is then a
/// deliberate workload property, not an accident of layout.
///
/// # Example
///
/// ```
/// use retcon_workloads::Alloc;
/// let mut a = Alloc::new();
/// let table = a.alloc_blocks(4); // 4 blocks = 32 words
/// let other = a.alloc_words(3);  // block-aligned, 1 block consumed
/// assert_eq!(table.0 % 8, 0);
/// assert_eq!(other.0 % 8, 0);
/// assert!(other.0 >= table.0 + 32);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Alloc {
    next_block: u64,
}

impl Alloc {
    /// A fresh allocator starting at address 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `n` whole blocks; returns the base word address.
    pub fn alloc_blocks(&mut self, n: u64) -> Addr {
        let base = Addr(self.next_block * WORDS_PER_BLOCK);
        self.next_block += n;
        base
    }

    /// Allocates at least `n` words, block-aligned.
    pub fn alloc_words(&mut self, n: u64) -> Addr {
        let blocks = n.div_ceil(WORDS_PER_BLOCK);
        self.alloc_blocks(blocks.max(1))
    }

    /// Words allocated so far (always a multiple of the block size).
    pub fn used_words(&self) -> u64 {
        self.next_block * WORDS_PER_BLOCK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_block_aligned_and_disjoint() {
        let mut a = Alloc::new();
        let x = a.alloc_words(1);
        let y = a.alloc_words(9);
        let z = a.alloc_blocks(2);
        assert_eq!(x.0 % 8, 0);
        assert_eq!(y.0 % 8, 0);
        assert_eq!(z.0 % 8, 0);
        assert_eq!(x.0, 0);
        assert_eq!(y.0, 8);
        assert_eq!(z.0, 24); // 9 words rounded to 2 blocks
        assert_eq!(a.used_words(), 40);
    }

    #[test]
    fn zero_word_request_still_allocates_a_block() {
        let mut a = Alloc::new();
        let x = a.alloc_words(0);
        let y = a.alloc_words(1);
        assert_ne!(x, y);
    }
}
