//! Set-associative tag arrays with speculative access bits.

use std::ops::Range;

use retcon_isa::BlockAddr;

/// The speculative-access bits attached to a cached block (§2: a
/// "speculatively-read" and a "speculatively-written" bit per L1 block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpecBits {
    /// Block was read within the current speculative region.
    pub read: bool,
    /// Block was written within the current speculative region.
    pub written: bool,
}

impl SpecBits {
    /// Neither bit set.
    pub const NONE: SpecBits = SpecBits {
        read: false,
        written: false,
    };

    /// The read bit alone.
    pub const READ: SpecBits = SpecBits {
        read: true,
        written: false,
    };

    /// The written bit alone.
    pub const WRITTEN: SpecBits = SpecBits {
        read: false,
        written: true,
    };

    /// `true` if either bit is set.
    #[inline]
    pub fn any(self) -> bool {
        self.read || self.written
    }

    /// Merges another set of bits into this one.
    #[inline]
    pub fn merge(&mut self, other: SpecBits) {
        self.read |= other.read;
        self.written |= other.written;
    }
}

/// Geometry of a set-associative cache with 64-byte blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    /// Derives geometry from a capacity in bytes and an associativity,
    /// assuming 64-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways * 64`.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        let blocks = capacity_bytes / 64;
        assert!(
            blocks % ways == 0 && blocks > 0,
            "capacity {capacity_bytes} not divisible into {ways}-way sets of 64B blocks"
        );
        CacheGeometry {
            sets: blocks / ways,
            ways,
        }
    }

    /// The set index for `block`.
    #[inline]
    pub fn set_of(&self, block: BlockAddr) -> usize {
        (block.0 as usize) % self.sets
    }

    /// Total number of blocks the cache can hold.
    #[inline]
    pub fn capacity_blocks(&self) -> usize {
        self.sets * self.ways
    }
}

/// One way of one touched set, in one word: the block in bits 0–60
/// (block = word address / 8 < 2^61), the read bit in bit 62, the written
/// bit in bit 63. Bit 61 is set only in [`VACANT`].
type Line = u64;

const _: () = assert!(std::mem::size_of::<Line>() == 8, "a line is one word");

const READ: Line = 1 << 62;
const WRITTEN: Line = 1 << 63;
const SPEC: Line = READ | WRITTEN;
/// The block and bit 61: what a lookup compares, so that no block — not
/// even the top one, 2^61 − 1 — matches a vacant slot.
const TAG: Line = READ - 1;

/// A slot that holds no block, the only line with bit 61 set. A row needs
/// no length beside it: its occupied slots come first and the vacant ones
/// after.
const VACANT: Line = Line::MAX;

/// Puts `line` in front of `set`'s first `at` lines, shifting them back one
/// slot over slot `at`: the shift a hit, fill or eviction makes.
#[inline]
fn to_front(set: &mut [Line], at: usize, line: Line) {
    let set = &mut set[..=at];
    for i in (1..set.len()).rev() {
        set[i] = set[i - 1];
    }
    set[0] = line;
}

impl SpecBits {
    #[inline]
    fn of(line: Line) -> SpecBits {
        SpecBits {
            read: line & READ != 0,
            written: line & WRITTEN != 0,
        }
    }

    #[inline]
    fn word(self) -> Line {
        (Line::from(self.read) * READ) | (Line::from(self.written) * WRITTEN)
    }
}

/// Touched sets a [`CacheArray`] finds through its short list before it
/// allocates the per-set row index: a 64-byte list to scan.
const SPARSE: usize = 16;

/// A set-associative tag array.
///
/// The array tracks *presence* and speculative bits only; block data lives in
/// [`GlobalMemory`](crate::GlobalMemory) and coherence permissions live in
/// the directory. Replacement is LRU, preferring non-speculative victims so
/// speculative state stays resident as long as possible (evicted speculative
/// permissions are retained by the memory system's permissions-only cache).
///
/// Storage is a lazy slab: a set gets a row of `ways` one-word lines at the
/// end of one shared vector when a block is first inserted into it, and
/// keeps the row in recency order, most recent first. The first 16 touched
/// sets (`SPARSE`) are found through a list of their numbers; the next one
/// allocates a 4-byte row offset per set and the list goes. An array that
/// touches a handful of sets — a 1024-core `scaling_xl` core touches one of
/// its 4 352 — never pays for the per-set index, and one that touches more
/// gets a lookup with no list to scan.
#[derive(Debug, Clone)]
pub struct CacheArray {
    geometry: CacheGeometry,
    /// Per set, where its row starts in `lines`; 0 = never touched. Stored
    /// as the offset, not the row number, so a lookup goes from this load
    /// to the line's address without a multiply by `ways`. Empty while
    /// `sparse` names the touched sets.
    rows: Vec<u32>,
    /// Until more than [`SPARSE`] sets are touched: the touched sets in
    /// row order, set `sparse[i]` owning row `i + 1`. Empty after.
    sparse: Vec<u32>,
    /// Rows of `ways` lines. Row 0 belongs to no set and stays vacant, so
    /// a lookup in a never-touched set needs no branch: it scans that row
    /// and finds nothing. The touched sets' rows follow in first-touch
    /// order. Within a row the occupied lines come first, most recently
    /// used first, and the [`VACANT`] ones after.
    lines: Vec<Line>,
}

impl CacheArray {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more lines than a `u32` row offset can name.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            u32::try_from((geometry.sets + 1) * geometry.ways).is_ok(),
            "{} sets of {} ways exceed the u32 row offset",
            geometry.sets,
            geometry.ways
        );
        CacheArray {
            geometry,
            rows: Vec::new(),
            sparse: Vec::new(),
            lines: vec![VACANT; geometry.ways],
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Where `block`'s set lives in `lines`: the vacant row 0 if it was
    /// never touched.
    #[inline]
    fn row(&self, block: BlockAddr) -> Range<usize> {
        debug_assert!(block.0 < 1 << 61, "{block:?} does not fit a line");
        let set = self.geometry.set_of(block);
        let ways = self.geometry.ways;
        let start = if self.rows.is_empty() {
            self.sparse
                .iter()
                .position(|&s| s as usize == set)
                .map_or(0, |i| (i + 1) * ways)
        } else {
            self.rows[set] as usize
        };
        start..start + ways
    }

    /// The line holding `block`, if it is resident.
    #[inline]
    fn line(&self, block: BlockAddr) -> Option<Line> {
        self.lines[self.row(block)]
            .iter()
            .copied()
            .find(|l| l & TAG == block.0)
    }

    #[inline]
    fn line_mut(&mut self, block: BlockAddr) -> Option<&mut Line> {
        let row = self.row(block);
        self.lines[row].iter_mut().find(|l| **l & TAG == block.0)
    }

    /// `true` if `block` is present.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.line(block).is_some()
    }

    /// Returns the speculative bits of `block`, if present.
    pub fn spec_bits(&self, block: BlockAddr) -> Option<SpecBits> {
        self.line(block).map(SpecBits::of)
    }

    /// Marks `block` most-recently-used and returns whether it was present.
    pub fn touch(&mut self, block: BlockAddr) -> bool {
        let row = self.row(block);
        let set = &mut self.lines[row];
        match set.iter().position(|l| l & TAG == block.0) {
            Some(at) => {
                to_front(set, at, set[at]);
                true
            }
            None => false,
        }
    }

    /// Inserts `block` (MRU position), evicting the LRU line if the set is
    /// full. Returns the evicted block and its speculative bits, if any.
    ///
    /// Victim selection prefers lines without speculative bits; if every line
    /// in the set is speculative, the LRU speculative line is evicted and its
    /// bits are returned so the caller can preserve them in the
    /// permissions-only cache.
    pub fn insert(&mut self, block: BlockAddr) -> Option<(BlockAddr, SpecBits)> {
        let ways = self.geometry.ways;
        let mut row = self.row(block);
        if row.start == 0 {
            // First touch: the set gets the next row of the slab.
            let set = self.geometry.set_of(block);
            row = self.lines.len()..self.lines.len() + ways;
            self.lines.resize(row.end, VACANT);
            // At most one row per set, and `new` checked that all fit u32.
            if self.rows.is_empty() && self.sparse.len() < SPARSE {
                self.sparse.push(set as u32);
            } else {
                if self.rows.is_empty() {
                    self.rows = vec![0; self.geometry.sets];
                    for (i, &s) in self.sparse.iter().enumerate() {
                        self.rows[s as usize] = ((i + 1) * ways) as u32;
                    }
                    self.sparse = Vec::new();
                }
                self.rows[set] = row.start as u32;
            }
        }
        let set = &mut self.lines[row];
        // Occupied lines are a prefix, so `block` is not past the first
        // vacant one. A full set without it gives up its least recent line
        // without speculative bits, else its least recent line.
        match set.iter().position(|&l| l & TAG == block.0 || l == VACANT) {
            Some(at) => {
                let line = if set[at] == VACANT { block.0 } else { set[at] };
                to_front(set, at, line);
                None
            }
            None => {
                let at = set.iter().rposition(|l| l & SPEC == 0).unwrap_or(ways - 1);
                let victim = set[at];
                to_front(set, at, block.0);
                Some((BlockAddr(victim & TAG), SpecBits::of(victim)))
            }
        }
    }

    /// Removes `block` if present, returning its speculative bits.
    pub fn remove(&mut self, block: BlockAddr) -> Option<SpecBits> {
        let row = self.row(block);
        let set = &mut self.lines[row];
        let at = set.iter().position(|l| l & TAG == block.0)?;
        let spec = SpecBits::of(set[at]);
        // The less recent lines move up one: the order stays, and the
        // occupied lines stay a prefix.
        set.copy_within(at + 1.., at);
        set[set.len() - 1] = VACANT;
        Some(spec)
    }

    /// ORs `bits` into the speculative bits of `block`. Returns `false` if
    /// the block is not present.
    pub fn mark_spec(&mut self, block: BlockAddr, bits: SpecBits) -> bool {
        if let Some(line) = self.line_mut(block) {
            *line |= bits.word();
            true
        } else {
            false
        }
    }

    /// Clears the speculative bits of `block` if it is resident. Returns
    /// `true` if the block was present with at least one bit set. Unlike
    /// [`clear_all_spec`](Self::clear_all_spec) this touches one set only,
    /// so a commit clearing N tracked blocks costs O(N), not O(cache).
    pub fn clear_spec(&mut self, block: BlockAddr) -> bool {
        if let Some(line) = self.line_mut(block) {
            let had = *line & SPEC != 0;
            *line &= !SPEC;
            had
        } else {
            false
        }
    }

    /// Clears the speculative bits of every resident block, returning how
    /// many blocks had any bit set. Walks the touched sets only.
    pub fn clear_all_spec(&mut self) -> usize {
        let mut cleared = 0;
        for line in self.lines.iter_mut().filter(|l| **l != VACANT) {
            if *line & SPEC != 0 {
                cleared += 1;
                *line &= !SPEC;
            }
        }
        cleared
    }

    /// Iterates over resident blocks with at least one speculative bit set,
    /// in no particular order. Walks the touched sets only.
    pub fn spec_blocks(&self) -> impl Iterator<Item = (BlockAddr, SpecBits)> + '_ {
        self.lines
            .iter()
            .filter(|&&l| l != VACANT && l & SPEC != 0)
            .map(|&l| (BlockAddr(l & TAG), SpecBits::of(l)))
    }

    /// Number of resident blocks. Walks the touched sets only.
    pub fn len(&self) -> usize {
        self.lines.iter().filter(|&&l| l != VACANT).count()
    }

    /// `true` if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.lines.iter().all(|&l| l == VACANT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 2 sets, 2 ways.
        CacheArray::new(CacheGeometry { sets: 2, ways: 2 })
    }

    #[test]
    fn geometry_from_capacity() {
        let g = CacheGeometry::new(64 * 1024, 4);
        assert_eq!(g.sets, 256);
        assert_eq!(g.capacity_blocks(), 1024);
        let g2 = CacheGeometry::new(1024 * 1024, 4);
        assert_eq!(g2.sets, 4096);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_panics() {
        let _ = CacheGeometry::new(100, 3);
    }

    #[test]
    fn insert_and_contains() {
        let mut c = tiny();
        assert!(c.insert(BlockAddr(0)).is_none());
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (even block numbers, 2 sets).
        c.insert(BlockAddr(0));
        c.insert(BlockAddr(2));
        c.touch(BlockAddr(0)); // 2 is now LRU
        let evicted = c.insert(BlockAddr(4)).expect("eviction");
        assert_eq!(evicted.0, BlockAddr(2));
        assert!(c.contains(BlockAddr(0)));
        assert!(c.contains(BlockAddr(4)));
    }

    #[test]
    fn eviction_prefers_non_speculative_victims() {
        let mut c = tiny();
        c.insert(BlockAddr(0));
        c.insert(BlockAddr(2));
        c.mark_spec(
            BlockAddr(0),
            SpecBits {
                read: true,
                written: false,
            },
        );
        // Block 0 is LRU but speculative; block 2 should be evicted instead.
        let evicted = c.insert(BlockAddr(4)).expect("eviction");
        assert_eq!(evicted.0, BlockAddr(2));
        assert!(c.contains(BlockAddr(0)));
    }

    #[test]
    fn evicting_speculative_line_returns_bits() {
        let mut c = tiny();
        c.insert(BlockAddr(0));
        c.insert(BlockAddr(2));
        c.mark_spec(
            BlockAddr(0),
            SpecBits {
                read: true,
                written: false,
            },
        );
        c.mark_spec(
            BlockAddr(2),
            SpecBits {
                read: false,
                written: true,
            },
        );
        let (block, bits) = c.insert(BlockAddr(4)).expect("eviction");
        assert_eq!(block, BlockAddr(0)); // LRU among speculative lines
        assert!(bits.read);
    }

    #[test]
    fn reinsert_refreshes_lru_without_eviction() {
        let mut c = tiny();
        c.insert(BlockAddr(0));
        c.insert(BlockAddr(2));
        assert!(c.insert(BlockAddr(0)).is_none());
        // Now 2 is LRU.
        let evicted = c.insert(BlockAddr(4)).unwrap();
        assert_eq!(evicted.0, BlockAddr(2));
    }

    #[test]
    fn spec_bit_lifecycle() {
        let mut c = tiny();
        c.insert(BlockAddr(1));
        assert!(c.mark_spec(
            BlockAddr(1),
            SpecBits {
                read: true,
                written: false
            }
        ));
        assert!(c.mark_spec(
            BlockAddr(1),
            SpecBits {
                read: false,
                written: true
            }
        ));
        let bits = c.spec_bits(BlockAddr(1)).unwrap();
        assert!(bits.read && bits.written);
        assert_eq!(c.spec_blocks().count(), 1);
        assert_eq!(c.clear_all_spec(), 1);
        assert_eq!(c.spec_blocks().count(), 0);
        assert!(!c.mark_spec(
            BlockAddr(9),
            SpecBits {
                read: true,
                written: false
            }
        ));
    }

    #[test]
    fn a_few_touched_sets_need_no_per_set_index() {
        let mut c = CacheArray::new(CacheGeometry {
            sets: 4096,
            ways: 2,
        });
        let touched: Vec<BlockAddr> = (0..SPARSE as u64).map(|i| BlockAddr(i * 251)).collect();
        for &b in &touched {
            assert!(c.insert(b).is_none());
        }
        assert!(c.rows.is_empty(), "no per-set index yet");
        assert_eq!(c.sparse.len(), SPARSE);
        let far = BlockAddr(4095);
        assert_eq!(c.row(far), 0..2, "an untouched set reads the vacant row");
        assert!(!c.contains(far));
        assert!(!c.touch(far));
        assert!(!c.mark_spec(far, SpecBits::WRITTEN));
        assert!(c.remove(far).is_none());
        assert!(c.rows.is_empty(), "a miss allocates nothing");
        for &b in &touched {
            assert!(c.contains(b), "{b:?}");
        }
    }

    #[test]
    fn the_set_after_the_list_indexes_every_set_and_keeps_the_rows() {
        let geometry = CacheGeometry { sets: 200, ways: 2 };
        let mut c = CacheArray::new(geometry);
        let first: Vec<BlockAddr> = (0..SPARSE as u64).map(|i| BlockAddr(i * 7)).collect();
        for &b in &first {
            c.insert(b);
        }
        // A second block in the first set, and speculative bits on it.
        c.insert(BlockAddr(200));
        c.mark_spec(BlockAddr(200), SpecBits::READ);
        let last = BlockAddr(199);
        assert!(c.insert(last).is_none());
        assert!(c.sparse.is_empty(), "the list goes");
        assert_eq!(c.rows.len(), geometry.sets);
        for &b in first.iter().chain([BlockAddr(200), last].iter()) {
            assert!(c.contains(b), "{b:?}");
        }
        assert_eq!(c.spec_bits(BlockAddr(200)), Some(SpecBits::READ));
        assert_eq!(c.len(), first.len() + 2);
        assert!(!c.contains(BlockAddr(198)), "an untouched set still misses");
    }

    /// A full 4-way set in which the line at recency position `p` (0 = most
    /// recent) is the only one without speculative bits gives up that line,
    /// whatever `p`; with none such it gives up the least recent line.
    #[test]
    fn the_victim_is_the_least_recent_non_speculative_line_at_every_position() {
        for p in 0..=4 {
            let mut c = CacheArray::new(CacheGeometry { sets: 1, ways: 4 });
            for b in 0..4 {
                c.insert(BlockAddr(b));
            }
            c.touch(BlockAddr(1));
            assert!(c.insert(BlockAddr(0)).is_none());
            // Most recent first.
            let order = [0, 1, 3, 2].map(BlockAddr);
            assert_eq!(c.lines[c.row(order[0])], order.map(|b| b.0));
            for (i, &b) in order.iter().enumerate() {
                if i != p {
                    c.mark_spec(b, [SpecBits::READ, SpecBits::WRITTEN][i % 2]);
                }
            }
            let victim = order.get(p).copied().unwrap_or(order[3]);
            let (evicted, bits) = c.insert(BlockAddr(4)).expect("the set is full");
            assert_eq!(evicted, victim, "position {p}");
            assert_eq!(bits.any(), p == 4, "position {p}");
            assert!(!c.contains(victim));
            assert_eq!(c.lines[c.row(victim)][0], 4, "the new line is most recent");
        }
    }

    #[test]
    fn the_top_block_is_not_the_vacant_slot_and_keeps_its_bits() {
        let top = retcon_isa::Addr(u64::MAX).block();
        assert_eq!(top.0, (1 << 61) - 1);
        let mut c = CacheArray::new(CacheGeometry { sets: 1, ways: 2 });
        assert!(!c.contains(top), "the vacant row holds nothing");
        assert!(c.insert(top).is_none());
        assert!(c.contains(top));
        assert_eq!(c.len(), 1, "the vacant slot beside it is not a second copy");
        assert!(c.mark_spec(top, SpecBits::READ) && c.mark_spec(top, SpecBits::WRITTEN));
        let both = SpecBits {
            read: true,
            written: true,
        };
        assert_eq!(c.spec_bits(top), Some(both));
        assert_eq!(c.spec_blocks().collect::<Vec<_>>(), [(top, both)]);
        assert!(c.insert(BlockAddr(0)).is_none());
        assert!(c.touch(top));
        assert_eq!(c.insert(BlockAddr(1)), Some((BlockAddr(0), SpecBits::NONE)));
        assert_eq!(c.insert(BlockAddr(2)), Some((BlockAddr(1), SpecBits::NONE)));
        assert_eq!(c.spec_bits(top), Some(both));
        assert_eq!(c.clear_all_spec(), 1);
        assert_eq!(c.spec_bits(top), Some(SpecBits::NONE));
        assert_eq!(c.remove(top), Some(SpecBits::NONE));
        assert!(!c.contains(top));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_returns_bits() {
        let mut c = tiny();
        c.insert(BlockAddr(3));
        c.mark_spec(
            BlockAddr(3),
            SpecBits {
                read: true,
                written: true,
            },
        );
        let bits = c.remove(BlockAddr(3)).unwrap();
        assert!(bits.read && bits.written);
        assert!(!c.contains(BlockAddr(3)));
        assert!(c.remove(BlockAddr(3)).is_none());
    }

    #[test]
    fn spec_bits_merge() {
        let mut b = SpecBits::NONE;
        assert!(!b.any());
        b.merge(SpecBits {
            read: true,
            written: false,
        });
        assert!(b.any() && b.read && !b.written);
        b.merge(SpecBits {
            read: false,
            written: true,
        });
        assert!(b.read && b.written);
    }
}
