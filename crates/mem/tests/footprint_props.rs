//! Differential tests of the two "stored once" structures against the
//! designs they replaced: `Footprints` (and `MemorySystem`'s speculative
//! bookkeeping over it) against the per-core bit maps plus separately
//! maintained masks, and `WordLog` against a `Vec` + `HashMap`.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use retcon_isa::{Addr, BlockAddr};
use retcon_mem::{
    AccessKind, CacheGeometry, CoreId, Footprints, LatencyModel, MemConfig, MemorySystem, SpecBits,
    WordLog,
};

/// The speculative-permission bookkeeping `MemorySystem` had until
/// `Footprints`, kept verbatim (over std collections) as the reference:
/// each core's bits in a map of its own, the per-block reader/writer masks
/// maintained beside them "in lockstep", and a bump wherever a change must
/// wake the block's watchers — recorded as the sequence of blocks bumped.
#[derive(Debug, Default)]
struct RefSpec {
    bits: HashMap<usize, HashMap<u64, SpecBits>>,
    touched: HashMap<usize, Vec<u64>>,
    masks: HashMap<u64, (BTreeSet<usize>, BTreeSet<usize>)>,
    bumps: Vec<u64>,
}

impl RefSpec {
    fn spec_bits(&self, core: usize, block: u64) -> SpecBits {
        let of_core = self.bits.get(&core);
        of_core
            .and_then(|m| m.get(&block))
            .copied()
            .unwrap_or_default()
    }

    fn mark_spec(&mut self, core: usize, block: u64, bits: SpecBits) {
        if !bits.any() {
            return;
        }
        let entry = self.bits.entry(core).or_default().entry(block).or_default();
        let before = *entry;
        entry.merge(bits);
        let merged = *entry;
        if !before.any() {
            self.touched.entry(core).or_default().push(block);
        }
        if merged != before {
            self.bumps.push(block);
        }
        let mask = self.masks.entry(block).or_default();
        if merged.read {
            mask.0.insert(core);
        }
        if merged.written {
            mask.1.insert(core);
        }
    }

    fn clear_mask(&mut self, core: usize, block: u64) {
        let Some(mask) = self.masks.get_mut(&block) else {
            return;
        };
        let was_reader = mask.0.remove(&core);
        let was_writer = mask.1.remove(&core);
        if !was_reader && !was_writer {
            return;
        }
        self.bumps.push(block);
        if mask.0.is_empty() && mask.1.is_empty() {
            self.masks.remove(&block);
        }
    }

    fn invalidate_block(&mut self, core: usize, block: u64) -> SpecBits {
        let bits = self.bits.entry(core).or_default().remove(&block);
        self.clear_mask(core, block);
        bits.unwrap_or_default()
    }

    fn clear_spec(&mut self, core: usize) -> usize {
        let touched = std::mem::take(self.touched.entry(core).or_default());
        let mut cleared = 0;
        for block in touched {
            let bits = self.bits.entry(core).or_default().remove(&block);
            if !bits.unwrap_or_default().any() {
                continue;
            }
            cleared += 1;
            self.clear_mask(core, block);
        }
        cleared
    }

    /// The touched list with the entries that still hold bits, in list
    /// order (what `spec_blocks` sorted and deduplicated).
    fn held(&self, core: usize) -> Vec<(u64, SpecBits)> {
        let touched = self.touched.get(&core);
        touched
            .into_iter()
            .flatten()
            .map(|&b| (b, self.spec_bits(core, b)))
            .filter(|(_, bits)| bits.any())
            .collect()
    }

    fn spec_blocks(&self, core: usize) -> Vec<(BlockAddr, SpecBits)> {
        let mut blocks: Vec<_> = self
            .held(core)
            .into_iter()
            .map(|(b, bits)| (BlockAddr(b), bits))
            .collect();
        blocks.sort_by_key(|(b, _)| b.0);
        blocks.dedup();
        blocks
    }

    fn conflict_mask(&self, core: usize, block: u64, kind: AccessKind) -> Vec<usize> {
        let Some((readers, writers)) = self.masks.get(&block) else {
            return Vec::new();
        };
        let mut conflicting = writers.clone();
        if kind == AccessKind::Write {
            conflicting.extend(readers);
        }
        conflicting.remove(&core);
        conflicting.into_iter().collect()
    }
}

/// Core and block are indices into the lists `check` is given.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A non-speculative read, so that the block is (or stops being) in the
    /// tiny L1 and the cache-line copy of the bits comes and goes.
    Touch(usize, usize),
    Mark(usize, usize, bool, bool),
    Steal(usize, usize),
    StealThenMark(usize, usize, bool, bool),
    ClearCore(usize),
}

const CORES: usize = 5;
/// Two of them above `BlockTable`'s dense window (2^21 keys).
const BLOCKS: [u64; 6] = [0, 1, 2, 3, (1 << 21) + 5, (1 << 22) + 1];

fn op() -> impl Strategy<Value = Op> {
    let at = || (0..CORES, 0..BLOCKS.len());
    prop_oneof![
        at().prop_map(|(c, b)| Op::Touch(c, b)),
        (at(), any::<bool>(), any::<bool>()).prop_map(|((c, b), r, w)| Op::Mark(c, b, r, w)),
        (at(), any::<bool>(), any::<bool>()).prop_map(|((c, b), r, w)| Op::Mark(c, b, r, w)),
        at().prop_map(|(c, b)| Op::Steal(c, b)),
        (at(), any::<bool>(), any::<bool>())
            .prop_map(|((c, b), r, w)| Op::StealThenMark(c, b, r, w)),
        (0..CORES).prop_map(Op::ClearCore),
    ]
}

/// The three sides of the comparison: the memory system, a bare
/// `Footprints`, and the reference.
struct Sides<const N: usize> {
    ms: MemorySystem<N>,
    fp: Footprints<N>,
    reference: RefSpec,
}

impl<const N: usize> Sides<N> {
    fn mark(&mut self, core: usize, block: u64, bits: SpecBits) {
        let bumps_before = self.reference.bumps.len();
        self.reference.mark_spec(core, block, bits);
        let bumped = self.reference.bumps.len() > bumps_before;
        self.ms.mark_spec(CoreId(core), BlockAddr(block), bits);
        assert_eq!(self.fp.mark(core, block, bits), bumped, "grew");
    }

    fn steal(&mut self, core: usize, block: u64) {
        let expected = self.reference.invalidate_block(core, block);
        let stolen = self.ms.invalidate_block(CoreId(core), BlockAddr(block));
        assert_eq!(stolen, expected);
        assert_eq!(self.fp.clear_block(core, block), expected);
    }
}

/// Runs `ops` through all three sides, comparing every return value and
/// every observable after every operation. Spare cores, outside `cores`,
/// each watch one of `BLOCKS`: the wakes are how the memory system's bumps
/// are observed.
fn check<const N: usize>(cores: [usize; CORES], ops: &[Op]) {
    let num_cores = cores[CORES - 1] + 1;
    let spares: Vec<usize> = (0..num_cores)
        .filter(|c| !cores.contains(c))
        .take(BLOCKS.len())
        .collect();
    // One line per level: any second block evicts the first, so bits
    // outlive their cache line all the time.
    let tiny = CacheGeometry { sets: 1, ways: 1 };
    let cfg = MemConfig {
        l1: tiny,
        l2: tiny,
        latency: LatencyModel::default(),
    };
    let mut sides: Sides<N> = Sides {
        ms: MemorySystem::new(cfg, num_cores),
        fp: Footprints::new(num_cores),
        reference: RefSpec::default(),
    };
    for (&spare, &b) in spares.iter().zip(&BLOCKS) {
        sides.ms.watch(CoreId(spare), [BlockAddr(b)], false);
    }

    for &op in ops {
        let bumps_before = sides.reference.bumps.len();
        match op {
            Op::Touch(c, b) => {
                let (core, addr) = (CoreId(cores[c]), BlockAddr(BLOCKS[b]).base());
                if !sides.ms.has_conflicts(core, addr, AccessKind::Read) {
                    sides.ms.access(core, addr, AccessKind::Read, false);
                }
            }
            Op::Mark(c, b, read, written) => {
                sides.mark(cores[c], BLOCKS[b], SpecBits { read, written });
            }
            Op::Steal(c, b) => sides.steal(cores[c], BLOCKS[b]),
            Op::StealThenMark(c, b, read, written) => {
                sides.steal(cores[c], BLOCKS[b]);
                sides.mark(cores[c], BLOCKS[b], SpecBits { read, written });
            }
            Op::ClearCore(c) => {
                let cleared = sides.reference.clear_spec(cores[c]);
                assert_eq!(sides.ms.clear_spec(CoreId(cores[c])), cleared, "{op:?}");
                // The order blocks are visited in is the order the
                // reference bumps them in.
                let mut visited = Vec::new();
                sides.fp.clear_core(cores[c], |b| visited.push(b));
                assert_eq!(visited, sides.reference.bumps[bumps_before..], "{op:?}");
            }
        }

        let Sides { ms, fp, reference } = &mut sides;
        let bumped = &reference.bumps[bumps_before..];
        let expected: Vec<usize> = spares
            .iter()
            .zip(&BLOCKS)
            .filter(|(_, b)| bumped.contains(b))
            .map(|(&spare, _)| spare)
            .collect();
        let woken: Vec<usize> = ms.take_woken().iter().collect();
        assert_eq!(woken, expected, "{op:?}: watchers woken");
        for &c in &cores {
            assert_eq!(
                ms.spec_blocks(CoreId(c)),
                reference.spec_blocks(c),
                "{op:?}"
            );
            let held: Vec<_> = fp.blocks(c).collect();
            assert_eq!(held, reference.held(c), "{op:?}: core {c}");
            for &b in &BLOCKS {
                let expected = reference.spec_bits(c, b);
                assert_eq!(ms.spec_bits(CoreId(c), BlockAddr(b)), expected, "{op:?}");
                assert_eq!(fp.bits(c, b), expected, "{op:?}");
                let addr = BlockAddr(b).base();
                for kind in [AccessKind::Read, AccessKind::Write] {
                    let expected = reference.conflict_mask(c, b, kind);
                    let mask = ms.conflict_mask_of(CoreId(c), addr, kind);
                    assert_eq!(mask.iter().collect::<Vec<_>>(), expected, "{op:?}");
                    let mask = match kind {
                        AccessKind::Read => fp.other_writers(c, b),
                        AccessKind::Write => fp.other_holders(c, b),
                    };
                    assert_eq!(mask.iter().collect::<Vec<_>>(), expected, "{op:?}");
                }
            }
        }
    }
}

/// One operation on a word log. Keys are indices into `WORDS`.
#[derive(Debug, Clone, Copy)]
enum LogOp {
    InsertFirst(usize, u64),
    Insert(usize, u64),
    Clear,
}

/// Small, adjacent and far-apart words: two sit above 2^21, beyond any
/// dense window a word index might be given.
const WORDS: [u64; 6] = [0, 1, 8, 9, (1 << 21) + 3, (1 << 30) + 7];

fn log_op() -> impl Strategy<Value = LogOp> {
    let word = || (0..WORDS.len(), 0u64..4);
    prop_oneof![
        // Inserts outweigh clears five to one, so logs fill up.
        word().prop_map(|(w, v)| LogOp::InsertFirst(w, v)),
        word().prop_map(|(w, v)| LogOp::InsertFirst(w, v)),
        word().prop_map(|(w, v)| LogOp::Insert(w, v)),
        word().prop_map(|(w, v)| LogOp::Insert(w, v)),
        word().prop_map(|(w, v)| LogOp::Insert(w, v)),
        Just(LogOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Optimized ≡ obvious for the speculative bits: one word of cores, and
    /// two words with cores on both sides of the word boundary.
    #[test]
    fn footprints_match_per_core_maps_plus_masks(ops in proptest::collection::vec(op(), 1..120)) {
        check::<1>([0, 1, 31, 62, 63], &ops);
        check::<2>([0, 63, 64, 65, 127], &ops);
    }

    /// The word log against an entries `Vec` and a `HashMap` index: same
    /// answers, same order, after every operation.
    #[test]
    fn word_log_matches_vec_plus_hashmap(ops in proptest::collection::vec(log_op(), 1..200)) {
        let mut log = WordLog::default();
        let mut entries: Vec<(Addr, u64)> = Vec::new();
        let mut index: HashMap<u64, usize> = HashMap::new();
        for op in ops {
            match op {
                LogOp::InsertFirst(w, v) => {
                    let addr = Addr(WORDS[w]);
                    let fresh = !index.contains_key(&addr.0);
                    if fresh {
                        index.insert(addr.0, entries.len());
                        entries.push((addr, v));
                    }
                    let mut evaluated = false;
                    let logged = log.insert_first(addr, || {
                        evaluated = true;
                        v
                    });
                    prop_assert_eq!(logged, fresh, "{:?}", op);
                    prop_assert_eq!(evaluated, fresh, "{:?}: value evaluated only when logged", op);
                }
                LogOp::Insert(w, v) => {
                    let addr = Addr(WORDS[w]);
                    match index.get(&addr.0) {
                        Some(&i) => entries[i].1 = v,
                        None => {
                            index.insert(addr.0, entries.len());
                            entries.push((addr, v));
                        }
                    }
                    log.insert(addr, v);
                }
                LogOp::Clear => {
                    entries.clear();
                    index.clear();
                    log.clear();
                }
            }
            prop_assert_eq!(log.iter().collect::<Vec<_>>(), entries.clone(), "{:?}", op);
            prop_assert_eq!(log.len(), entries.len());
            prop_assert_eq!(log.is_empty(), entries.is_empty());
            for &w in &WORDS {
                let expected = index.get(&w).map(|&i| entries[i].1);
                prop_assert_eq!(log.get(Addr(w)), expected, "{:?}: word {}", op, w);
            }
        }
    }
}
