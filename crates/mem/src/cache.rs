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

/// One way of one touched set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    block: BlockAddr,
    spec: SpecBits,
    /// Larger = more recently used.
    lru: u64,
}

/// Block id marking a slot that holds no block. No address reaches it
/// (block = word address / 8 < 2^61), so a row needs no length beside it:
/// its occupied slots come first and a scan ends at the first vacant one.
const VACANT: BlockAddr = BlockAddr(u64::MAX);

impl Line {
    const VACANT: Line = Line {
        block: VACANT,
        spec: SpecBits::NONE,
        lru: 0,
    };

    fn new(block: BlockAddr, lru: u64) -> Line {
        Line {
            block,
            spec: SpecBits::NONE,
            lru,
        }
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
/// Storage is a lazy slab: a set gets a row of `ways` slots at the end of
/// one shared vector when a block is first inserted into it. The first
/// 16 touched sets (`SPARSE`) are found through a list of their numbers; the
/// next one allocates a 4-byte row offset per set and the list goes. An
/// array that touches a handful of sets — a 1024-core `scaling_xl` core
/// touches one of its 4 352 — never pays for the per-set index, and one
/// that touches more gets a lookup with no list to scan.
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
    /// Rows of `ways` slots. Row 0 belongs to no set and stays vacant, so
    /// a lookup in a never-touched set needs no branch: it scans that row
    /// and finds nothing. The touched sets' rows follow in first-touch
    /// order. Within a row the occupied slots come first, the [`VACANT`]
    /// ones after.
    lines: Vec<Line>,
    tick: u64,
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
            lines: vec![Line::VACANT; geometry.ways],
            tick: 0,
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
        debug_assert_ne!(block, VACANT, "the vacant-slot sentinel is not a block");
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
    fn line(&self, block: BlockAddr) -> Option<&Line> {
        self.lines[self.row(block)]
            .iter()
            .take_while(|l| l.block != VACANT)
            .find(|l| l.block == block)
    }

    #[inline]
    fn line_mut(&mut self, block: BlockAddr) -> Option<&mut Line> {
        let row = self.row(block);
        self.lines[row]
            .iter_mut()
            .take_while(|l| l.block != VACANT)
            .find(|l| l.block == block)
    }

    /// `true` if `block` is present.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.line(block).is_some()
    }

    /// Returns the speculative bits of `block`, if present.
    pub fn spec_bits(&self, block: BlockAddr) -> Option<SpecBits> {
        self.line(block).map(|l| l.spec)
    }

    /// Marks `block` most-recently-used and returns whether it was present.
    pub fn touch(&mut self, block: BlockAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        if let Some(line) = self.line_mut(block) {
            line.lru = tick;
            true
        } else {
            false
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
        self.tick += 1;
        let tick = self.tick;
        let ways = self.geometry.ways;
        let mut row = self.row(block);
        if row.start == 0 {
            // First touch: the set gets the next row of the slab.
            let set = self.geometry.set_of(block);
            row = self.lines.len()..self.lines.len() + ways;
            self.lines.resize(row.end, Line::VACANT);
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
        for line in set.iter_mut() {
            if line.block == block {
                line.lru = tick;
                return None;
            }
            // Occupied slots are a prefix, so `block` is not further on.
            if line.block == VACANT {
                *line = Line::new(block, tick);
                return None;
            }
        }
        // Prefer the LRU non-speculative line; fall back to the LRU line.
        let victim_idx = set
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.spec.any())
            .min_by_key(|(_, l)| l.lru)
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(i, _)| i)
                    .expect("full set has lines")
            });
        let victim = set[victim_idx];
        // The last line takes the victim's slot and the new one goes last:
        // the order `swap_remove` + `push` leave.
        set[victim_idx] = set[ways - 1];
        set[ways - 1] = Line::new(block, tick);
        Some((victim.block, victim.spec))
    }

    /// Removes `block` if present, returning its speculative bits.
    pub fn remove(&mut self, block: BlockAddr) -> Option<SpecBits> {
        let row = self.row(block);
        let set = &mut self.lines[row];
        let idx = set
            .iter()
            .take_while(|l| l.block != VACANT)
            .position(|l| l.block == block)?;
        let spec = set[idx].spec;
        // Keep the occupied slots a prefix: the last one fills the hole
        // (`swap_remove`).
        let len = set[idx..]
            .iter()
            .position(|l| l.block == VACANT)
            .map_or(set.len(), |vacant| idx + vacant);
        set[idx] = set[len - 1];
        set[len - 1] = Line::VACANT;
        Some(spec)
    }

    /// ORs `bits` into the speculative bits of `block`. Returns `false` if
    /// the block is not present.
    pub fn mark_spec(&mut self, block: BlockAddr, bits: SpecBits) -> bool {
        if let Some(line) = self.line_mut(block) {
            line.spec.merge(bits);
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
            let had = line.spec.any();
            line.spec = SpecBits::NONE;
            had
        } else {
            false
        }
    }

    /// Clears the speculative bits of every resident block, returning how
    /// many blocks had any bit set. Walks the touched sets only.
    pub fn clear_all_spec(&mut self) -> usize {
        let mut cleared = 0;
        for line in &mut self.lines {
            if line.spec.any() {
                cleared += 1;
                line.spec = SpecBits::NONE;
            }
        }
        cleared
    }

    /// Iterates over resident blocks with at least one speculative bit set,
    /// in no particular order. Walks the touched sets only.
    pub fn spec_blocks(&self) -> impl Iterator<Item = (BlockAddr, SpecBits)> + '_ {
        // A vacant slot carries no bits, so the filter skips it too.
        self.lines
            .iter()
            .filter(|l| l.spec.any())
            .map(|l| (l.block, l.spec))
    }

    /// Number of resident blocks. Walks the touched sets only.
    pub fn len(&self) -> usize {
        self.lines.iter().filter(|l| l.block != VACANT).count()
    }

    /// `true` if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.lines.iter().all(|l| l.block == VACANT)
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
