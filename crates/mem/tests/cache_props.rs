//! Model-based property tests for the cache array and directory, and the
//! differential test of the slab-backed `CacheArray` (its short list of
//! touched sets, then its per-set row index) against the `Vec<Vec<Line>>`
//! implementation it replaced.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use retcon_isa::BlockAddr;
use retcon_mem::{CacheArray, CacheGeometry, CoreId, Directory, SpecBits};

/// One way of one set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    block: BlockAddr,
    spec: SpecBits,
    /// Larger = more recently used.
    lru: u64,
}

/// The obvious tag array — one `Vec<Line>` per set, built eagerly — that
/// `CacheArray` was until it became a lazy slab, kept verbatim as the
/// reference the slab is checked against: same return values, same victim,
/// same bits, after every operation.
#[derive(Debug, Clone)]
struct RefCache {
    geometry: CacheGeometry,
    sets: Vec<Vec<Line>>,
    tick: u64,
}

impl RefCache {
    /// Creates an empty cache with the given geometry.
    fn new(geometry: CacheGeometry) -> Self {
        RefCache {
            geometry,
            sets: vec![Vec::new(); geometry.sets],
            tick: 0,
        }
    }

    /// The cache's geometry.
    fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// `true` if `block` is present.
    fn contains(&self, block: BlockAddr) -> bool {
        self.sets[self.geometry.set_of(block)]
            .iter()
            .any(|l| l.block == block)
    }

    /// Returns the speculative bits of `block`, if present.
    fn spec_bits(&self, block: BlockAddr) -> Option<SpecBits> {
        self.sets[self.geometry.set_of(block)]
            .iter()
            .find(|l| l.block == block)
            .map(|l| l.spec)
    }

    /// Marks `block` most-recently-used and returns whether it was present.
    fn touch(&mut self, block: BlockAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.geometry.set_of(block);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.block == block) {
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
    fn insert(&mut self, block: BlockAddr) -> Option<(BlockAddr, SpecBits)> {
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.geometry.set_of(block);
        let ways = self.geometry.ways;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.block == block) {
            line.lru = tick;
            return None;
        }
        let mut evicted = None;
        if set.len() >= ways {
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
            let victim = set.swap_remove(victim_idx);
            evicted = Some((victim.block, victim.spec));
        }
        set.push(Line {
            block,
            spec: SpecBits::NONE,
            lru: tick,
        });
        evicted
    }

    /// Removes `block` if present, returning its speculative bits.
    fn remove(&mut self, block: BlockAddr) -> Option<SpecBits> {
        let set = self.geometry.set_of(block);
        let lines = &mut self.sets[set];
        let idx = lines.iter().position(|l| l.block == block)?;
        Some(lines.swap_remove(idx).spec)
    }

    /// ORs `bits` into the speculative bits of `block`. Returns `false` if
    /// the block is not present.
    fn mark_spec(&mut self, block: BlockAddr, bits: SpecBits) -> bool {
        let set = self.geometry.set_of(block);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.block == block) {
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
    fn clear_spec(&mut self, block: BlockAddr) -> bool {
        let set = self.geometry.set_of(block);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.block == block) {
            let had = line.spec.any();
            line.spec = SpecBits::NONE;
            had
        } else {
            false
        }
    }

    /// Clears the speculative bits of every resident block, returning how
    /// many blocks had any bit set.
    fn clear_all_spec(&mut self) -> usize {
        let mut cleared = 0;
        for set in &mut self.sets {
            for line in set.iter_mut() {
                if line.spec.any() {
                    cleared += 1;
                    line.spec = SpecBits::NONE;
                }
            }
        }
        cleared
    }

    /// Iterates over resident blocks with at least one speculative bit set.
    fn spec_blocks(&self) -> impl Iterator<Item = (BlockAddr, SpecBits)> + '_ {
        self.sets
            .iter()
            .flat_map(|set| set.iter())
            .filter(|l| l.spec.any())
            .map(|l| (l.block, l.spec))
    }

    /// Number of resident blocks.
    fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// `true` if no blocks are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Random cache operations checked against a naive reference model that
/// tracks only membership and capacity (replacement policy is the cache's
/// own business; membership and bounds are the invariants).
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Insert(u64),
    Remove(u64),
    Touch(u64),
    MarkSpec(u64),
    ClearSpec,
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u64..64).prop_map(CacheOp::Insert),
        (0u64..64).prop_map(CacheOp::Remove),
        (0u64..64).prop_map(CacheOp::Touch),
        (0u64..64).prop_map(CacheOp::MarkSpec),
        Just(CacheOp::ClearSpec),
    ]
}

/// One operation of the differential test. Blocks are named by a set
/// selector and a tag so that every geometry sees the same pressure:
/// twenty-four sets at most, eight tags each — more than any tested
/// associativity.
#[derive(Debug, Clone, Copy)]
enum DiffOp {
    Insert(u64, u64),
    Touch(u64, u64),
    Remove(u64, u64),
    MarkSpec(u64, u64, bool, bool),
    ClearSpec(u64, u64),
    ClearAllSpec,
}

const DIFF_SELECTORS: u64 = 24;
const DIFF_TAGS: u64 = 8;

/// The set a selector names, reduced modulo the geometry's set count:
/// more distinct sets than the short list of touched sets holds, so a run
/// crosses into the per-set index part way; the first set, the last and
/// the rest spread between them.
fn diff_block(geometry: CacheGeometry, selector: u64, tag: u64) -> BlockAddr {
    let sets = geometry.sets as u64;
    let set = match selector {
        0 => 0,
        1 => sets - 1,
        s => s * 37 % sets,
    };
    BlockAddr(set + sets * tag)
}

fn diff_op() -> impl Strategy<Value = DiffOp> {
    let block = || (0..DIFF_SELECTORS, 0..DIFF_TAGS);
    prop_oneof![
        // Twice, so that inserts outweigh removes and sets fill up.
        block().prop_map(|(s, t)| DiffOp::Insert(s, t)),
        block().prop_map(|(s, t)| DiffOp::Insert(s, t)),
        block().prop_map(|(s, t)| DiffOp::Touch(s, t)),
        block().prop_map(|(s, t)| DiffOp::Remove(s, t)),
        (block(), any::<bool>(), any::<bool>())
            .prop_map(|((s, t), r, w)| DiffOp::MarkSpec(s, t, r, w)),
        block().prop_map(|(s, t)| DiffOp::ClearSpec(s, t)),
        Just(DiffOp::ClearAllSpec),
    ]
}

fn sorted(blocks: impl Iterator<Item = (BlockAddr, SpecBits)>) -> Vec<(u64, bool, bool)> {
    let mut v: Vec<_> = blocks.map(|(b, s)| (b.0, s.read, s.written)).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Optimized ≡ obvious: the slab and the reference agree on every
    /// return value — the evicted block *and* its bits, so victim choice is
    /// covered — and on every observable after every operation.
    #[test]
    fn slab_matches_reference_implementation(ops in proptest::collection::vec(diff_op(), 1..300)) {
        for (sets, ways) in [(1, 1), (4, 2), (3, 5), (256, 4), (200, 4), (4096, 4)] {
            let geometry = CacheGeometry { sets, ways };
            let mut slab = CacheArray::new(geometry);
            let mut reference = RefCache::new(geometry);
            prop_assert_eq!(slab.geometry(), reference.geometry());
            for &op in &ops {
                let at = |s, t| diff_block(geometry, s, t);
                match op {
                    DiffOp::Insert(s, t) => {
                        prop_assert_eq!(slab.insert(at(s, t)), reference.insert(at(s, t)), "{:?}", op);
                    }
                    DiffOp::Touch(s, t) => {
                        prop_assert_eq!(slab.touch(at(s, t)), reference.touch(at(s, t)), "{:?}", op);
                    }
                    DiffOp::Remove(s, t) => {
                        prop_assert_eq!(slab.remove(at(s, t)), reference.remove(at(s, t)), "{:?}", op);
                    }
                    DiffOp::MarkSpec(s, t, read, written) => {
                        let bits = SpecBits { read, written };
                        prop_assert_eq!(
                            slab.mark_spec(at(s, t), bits),
                            reference.mark_spec(at(s, t), bits),
                            "{:?}", op
                        );
                    }
                    DiffOp::ClearSpec(s, t) => {
                        prop_assert_eq!(
                            slab.clear_spec(at(s, t)),
                            reference.clear_spec(at(s, t)),
                            "{:?}", op
                        );
                    }
                    DiffOp::ClearAllSpec => {
                        prop_assert_eq!(slab.clear_all_spec(), reference.clear_all_spec());
                    }
                }
                for s in 0..DIFF_SELECTORS {
                    for t in 0..DIFF_TAGS {
                        let b = at(s, t);
                        prop_assert_eq!(slab.contains(b), reference.contains(b), "{:?}", b);
                        prop_assert_eq!(slab.spec_bits(b), reference.spec_bits(b), "{:?}", b);
                    }
                }
                prop_assert_eq!(slab.len(), reference.len());
                prop_assert_eq!(slab.is_empty(), reference.is_empty());
                prop_assert_eq!(sorted(slab.spec_blocks()), sorted(reference.spec_blocks()));
            }
        }
    }

    #[test]
    fn cache_membership_and_capacity(ops in proptest::collection::vec(cache_op(), 1..200)) {
        let geometry = CacheGeometry { sets: 4, ways: 2 };
        let mut cache = CacheArray::new(geometry);
        // Reference: per-set membership sets.
        let mut model: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
        for op in ops {
            match op {
                CacheOp::Insert(b) => {
                    let set = geometry.set_of(BlockAddr(b));
                    let evicted = cache.insert(BlockAddr(b));
                    let entry = model.entry(set).or_default();
                    entry.insert(b);
                    if let Some((victim, _)) = evicted {
                        prop_assert_eq!(geometry.set_of(victim), set, "victim from wrong set");
                        prop_assert_ne!(victim.0, b, "evicted the block being inserted");
                        entry.remove(&victim.0);
                    }
                    prop_assert!(entry.len() <= geometry.ways, "set over capacity");
                }
                CacheOp::Remove(b) => {
                    let set = geometry.set_of(BlockAddr(b));
                    let was_present = model.entry(set).or_default().remove(&b);
                    prop_assert_eq!(cache.remove(BlockAddr(b)).is_some(), was_present);
                }
                CacheOp::Touch(b) => {
                    let set = geometry.set_of(BlockAddr(b));
                    let present = model.entry(set).or_default().contains(&b);
                    prop_assert_eq!(cache.touch(BlockAddr(b)), present);
                }
                CacheOp::MarkSpec(b) => {
                    let set = geometry.set_of(BlockAddr(b));
                    let present = model.entry(set).or_default().contains(&b);
                    let marked = cache.mark_spec(
                        BlockAddr(b),
                        SpecBits { read: true, written: false },
                    );
                    prop_assert_eq!(marked, present);
                }
                CacheOp::ClearSpec => {
                    cache.clear_all_spec();
                    prop_assert_eq!(cache.spec_blocks().count(), 0);
                }
            }
            // Global membership agreement.
            for b in 0u64..64 {
                let set = geometry.set_of(BlockAddr(b));
                let in_model = model.get(&set).map(|s| s.contains(&b)).unwrap_or(false);
                prop_assert_eq!(cache.contains(BlockAddr(b)), in_model, "block {}", b);
            }
            prop_assert_eq!(cache.len(), model.values().map(|s| s.len()).sum::<usize>());
        }
    }

    /// Directory invariants under random grant/drop sequences: at most one
    /// modified holder; holders reported consistently; a write grant makes
    /// the writer the only holder.
    #[test]
    fn directory_single_writer(ops in proptest::collection::vec(
        (0usize..4, 0u64..8, any::<bool>(), any::<bool>()), 1..200
    )) {
        let mut dir: Directory = Directory::new();
        for (core, block, write, drop) in ops {
            let core = CoreId(core);
            let block = BlockAddr(block);
            if drop {
                dir.drop_holder(core, block);
                prop_assert!(!dir.state(block).holds(core));
            } else if write {
                let victims = dir.grant_write(core, block);
                prop_assert!(!victims.contains(core.0));
                let state = dir.state(block);
                prop_assert!(state.holds_modified(core));
                prop_assert_eq!(state.holders(), vec![core]);
            } else {
                dir.grant_read(core, block);
                let state = dir.state(block);
                prop_assert!(state.holds(core));
                // Reader never ends up as someone else's modified copy.
                let modified_holders = (0..4)
                    .filter(|&c| state.holds_modified(CoreId(c)))
                    .count();
                prop_assert!(modified_holders <= 1);
            }
        }
    }
}
