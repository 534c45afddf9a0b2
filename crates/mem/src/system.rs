//! The memory-system façade: caches + directory + latency + speculative bits.

use std::fmt;

use retcon_isa::{Addr, BlockAddr, CoreSet};

use crate::cache::{CacheArray, SpecBits};
use crate::config::MemConfig;
use crate::directory::Directory;
use crate::footprint::Footprints;
use crate::memory::GlobalMemory;
use crate::stats::MemStats;
use retcon_isa::fx::FxHashMap;
use retcon_isa::table::BlockTable;

/// Identifier of a simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The two kinds of memory access, as seen by coherence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Requires a readable copy.
    Read,
    /// Requires an exclusive copy.
    Write,
}

/// A conflict detected by snooping another core's speculative bits (§2: "a
/// conflict is defined as an external write request to a block that has been
/// speculatively read or any external request to a speculatively-written
/// block").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// The core whose speculative state conflicts with the request.
    pub core: CoreId,
    /// That core's speculative bits on the requested block.
    pub bits: SpecBits,
}

const INLINE_CONFLICTS: usize = 4;

/// The conflicts of one access, stored inline for the common cases (zero or
/// a handful of conflicting cores) and spilling to the heap only for wide
/// fan-outs. The conflict-free hot path allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ConflictSet {
    len: usize,
    inline: [Option<Conflict>; INLINE_CONFLICTS],
    spill: Vec<Conflict>,
}

impl ConflictSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, c: Conflict) {
        if self.spill.is_empty() && self.len < INLINE_CONFLICTS {
            self.inline[self.len] = Some(c);
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill
                    .extend(self.inline[..self.len].iter().map(|o| o.expect("filled")));
                self.len = 0;
            }
            self.spill.push(c);
        }
    }

    /// Number of conflicts.
    pub fn len(&self) -> usize {
        self.len + self.spill.len()
    }

    /// `true` if the access conflicts with no core.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the conflicts in ascending core order.
    pub fn iter(&self) -> impl Iterator<Item = &Conflict> {
        self.inline[..self.len]
            .iter()
            .filter_map(|o| o.as_ref())
            .chain(self.spill.iter())
    }

    /// The conflicts as a `Vec` (diagnostics and the [`Probe`] view).
    pub fn to_vec(&self) -> Vec<Conflict> {
        self.iter().copied().collect()
    }
}

/// Result of [`MemorySystem::probe`]: what an access *would* cost and whom it
/// would conflict with, without changing any state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// Cycles the access will take.
    pub latency: u64,
    /// Cores with conflicting speculative permissions on the block.
    pub conflicts: Vec<Conflict>,
}

/// Where an access was serviced (used for latency and statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Service {
    L1Hit,
    L1Upgrade,
    L2Hit,
    L2HitUpgrade,
    Miss { forwarded: bool },
}

/// The allocation-free probe result handed back to
/// [`MemorySystem::access_planned`]: the cache classification (and the
/// latency derived from it) computed once at probe time, plus the conflict
/// set. Valid only while the memory system is untouched — resolving a
/// conflict (abort, steal, invalidate) can change the classification, so
/// after resolution protocols must fall back to [`MemorySystem::access`],
/// which re-classifies.
#[derive(Debug, Clone)]
pub struct AccessPlan {
    /// Cycles the access will take (if performed before any state change).
    pub latency: u64,
    /// Cores with conflicting speculative permissions on the block.
    pub conflicts: ConflictSet,
    core: CoreId,
    addr: Addr,
    kind: AccessKind,
    service: Service,
}

impl AccessPlan {
    /// `true` if the planned access conflicts with at least one core.
    pub fn has_conflicts(&self) -> bool {
        !self.conflicts.is_empty()
    }
}

/// Which cores watch which blocks, and which were woken (see
/// [`MemorySystem`], "Watchers").
#[derive(Debug, Clone, Default)]
struct Watchers<const N: usize> {
    /// Per block, how many cores watch it: a change to a block nobody
    /// watches is one read of this table.
    count: BlockTable<u32>,
    /// The cores watching each block.
    waiters: FxHashMap<u64, CoreSet<N>>,
    /// Watchers that their own [`clear_spec`](MemorySystem::clear_spec)
    /// wakes too: cores out of the run queue, which would not otherwise
    /// notice a remote abort.
    sleepers: CoreSet<N>,
    /// Watchers woken since the last
    /// [`take_woken`](MemorySystem::take_woken).
    woken: CoreSet<N>,
    /// `!woken.is_empty()`, as one flag the simulator tests per access.
    wake_pending: bool,
}

impl<const N: usize> Watchers<N> {
    #[inline]
    fn wake(&mut self, block: u64) {
        if self.count.get(block) != 0 {
            self.wake_waiters(block);
        }
    }

    #[inline(never)]
    fn wake_waiters(&mut self, block: u64) {
        self.woken |= self.waiters[&block];
        self.wake_pending = true;
    }
}

/// The complete simulated memory system: architectural memory, per-core
/// L1/L2 tag arrays, a directory, per-core permissions-only overflow caches,
/// and latency/statistics accounting.
///
/// # Protocol contract
///
/// Concurrency-control protocols drive the system in three steps:
///
/// 1. [`conflict_mask_of`](Self::conflict_mask_of) — the cores whose
///    speculative bits conflict with the access, without changing state;
/// 2. the protocol resolves each conflict (abort the victim and clear its
///    speculative bits via [`clear_spec`](Self::clear_spec), steal the block
///    via [`invalidate_block`](Self::invalidate_block), or stall the
///    requester);
/// 3. [`access`](Self::access) — classifies the access against the caches as
///    they now stand (a resolution may have changed them) and performs the
///    coherence transitions, cache fills/evictions and speculative-bit
///    update.
///
/// Calling `access` while another core still holds conflicting speculative
/// bits is a protocol bug; debug builds panic on it.
///
/// [`plan`](Self::plan) → [`access_planned`](Self::access_planned) is the
/// same access with the classification carried in a token. No protocol uses
/// it (DESIGN.md, "Probe-token handoff"); the benchmark's probes do.
///
/// # Speculative-permission bookkeeping
///
/// Speculative read/written bits have one home and one hint:
///
/// * [`Footprints`] (`spec`) — per block, the cores holding a read bit and
///   those holding a written bit, covering both cache-resident and
///   overflowed ("permissions-only cache") state. Conflict detection reads
///   the row's sets; [`spec_bits`](Self::spec_bits) is two bit tests on the
///   same row; commit and abort walk the core's touched-block list;
/// * **cache-line bits** — a copy kept solely so LRU victim selection can
///   prefer non-speculative lines; eviction migrates nothing (the
///   footprint row already has the bits) and only counts a
///   `spec_overflows` statistic.
///
/// # Watchers
///
/// A core may [`watch`](Self::watch) blocks for a change that a
/// conflict-resolution verdict on the block could depend on: any core's
/// speculative bits on it growing ([`mark_spec`](Self::mark_spec)) or
/// going ([`clear_spec`](Self::clear_spec),
/// [`invalidate_block`](Self::invalidate_block)), or a protocol-side event
/// reported through [`wake_watchers`](Self::wake_watchers). Each change adds
/// the block's watchers to a wake set that the owner drains with
/// [`take_woken`](Self::take_woken); a change to a block nobody watches
/// costs one read of a per-block count. The simulator's stall fast-forward
/// is the consumer: a certified storm watches the blocks its verdict read
/// and stays valid until it is woken.
#[derive(Debug, Clone)]
pub struct MemorySystem<const N: usize = 1> {
    mem: GlobalMemory,
    l1: Vec<CacheArray>,
    l2: Vec<CacheArray>,
    dir: Directory<N>,
    /// Every core's speculative bits (cache + permissions-only overflow
    /// united), per block.
    spec: Footprints<N>,
    /// The cores watching blocks, and those woken.
    watchers: Watchers<N>,
    cfg: MemConfig,
    stats: Vec<MemStats>,
}

impl<const N: usize> MemorySystem<N> {
    /// Creates a memory system for `num_cores` cores.
    pub fn new(cfg: MemConfig, num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        assert!(
            num_cores <= CoreSet::<N>::CAPACITY,
            "this size class supports at most {} cores (got {num_cores}); \
             use a wider CoreSet size class",
            CoreSet::<N>::CAPACITY
        );
        MemorySystem {
            mem: GlobalMemory::new(),
            l1: (0..num_cores).map(|_| CacheArray::new(cfg.l1)).collect(),
            l2: (0..num_cores).map(|_| CacheArray::new(cfg.l2)).collect(),
            dir: Directory::new(),
            spec: Footprints::new(num_cores),
            watchers: Watchers::default(),
            cfg,
            stats: vec![MemStats::default(); num_cores],
        }
    }

    /// Number of cores sharing this memory system.
    pub fn num_cores(&self) -> usize {
        self.l1.len()
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Reads the architectural value of a word (no timing, no coherence).
    #[inline]
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.mem.read(addr)
    }

    /// Writes the architectural value of a word (no timing, no coherence).
    /// Used for workload initialization, undo-log rollback and commit-time
    /// repair, whose coherence actions are modelled separately.
    #[inline]
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        self.mem.write(addr, value);
    }

    /// Direct access to the architectural memory (for integration tests and
    /// version-management helpers).
    pub fn memory(&self) -> &GlobalMemory {
        &self.mem
    }

    /// Mutable access to the architectural memory.
    pub fn memory_mut(&mut self) -> &mut GlobalMemory {
        &mut self.mem
    }

    fn classify(&self, core: CoreId, block: BlockAddr, kind: AccessKind) -> Service {
        let needs_exclusive = kind == AccessKind::Write;
        if self.l1[core.0].contains(block) {
            if needs_exclusive && !self.dir.holds_modified(core, block) {
                Service::L1Upgrade
            } else {
                Service::L1Hit
            }
        } else if self.l2[core.0].contains(block) {
            if needs_exclusive && !self.dir.holds_modified(core, block) {
                Service::L2HitUpgrade
            } else {
                Service::L2Hit
            }
        } else {
            Service::Miss {
                forwarded: self.dir.forwarded_from_owner(core, block),
            }
        }
    }

    fn latency_of(&self, service: Service) -> u64 {
        let lat = &self.cfg.latency;
        match service {
            Service::L1Hit => lat.l1_hit,
            Service::L1Upgrade => lat.l1_hit + lat.upgrade(),
            Service::L2Hit => lat.l2_hit,
            Service::L2HitUpgrade => lat.l2_hit + lat.upgrade(),
            Service::Miss { forwarded } => lat.l2_miss(forwarded),
        }
    }

    /// The speculative bits `core` holds on `block`, whether resident in its
    /// L1 or overflowed into its permissions-only cache.
    #[inline]
    pub fn spec_bits(&self, core: CoreId, block: BlockAddr) -> SpecBits {
        self.spec.bits(core.0, block.0)
    }

    /// Computes the latency, classification and conflict set of an access
    /// without performing it — the allocation-free probe. Hand the plan to
    /// [`access_planned`](Self::access_planned) when it is conflict-free.
    pub fn plan(&self, core: CoreId, addr: Addr, kind: AccessKind) -> AccessPlan {
        let block = addr.block();
        let service = self.classify(core, block, kind);
        AccessPlan {
            latency: self.latency_of(service),
            conflicts: self.conflict_set(core, addr, kind),
            core,
            addr,
            kind,
            service,
        }
    }

    /// The set of cores whose speculative bits conflict with `core`
    /// performing `kind` on `addr`'s block (the allocation- and
    /// struct-free form of [`conflict_set`](Self::conflict_set)).
    #[inline]
    pub fn conflict_mask_of(&self, core: CoreId, addr: Addr, kind: AccessKind) -> CoreSet<N> {
        let block = addr.block().0;
        match kind {
            AccessKind::Read => self.spec.other_writers(core.0, block),
            AccessKind::Write => self.spec.other_holders(core.0, block),
        }
    }

    /// Computes the latency and conflict set of an access without performing
    /// it ([`plan`](Self::plan) with a `Vec`-backed view; kept for tests and
    /// diagnostics).
    pub fn probe(&self, core: CoreId, addr: Addr, kind: AccessKind) -> Probe {
        let plan = self.plan(core, addr, kind);
        Probe {
            latency: plan.latency,
            conflicts: plan.conflicts.to_vec(),
        }
    }

    /// `true` if `core` performing `kind` on `addr`'s block would conflict
    /// with at least one other core's speculative bits. O(1).
    #[inline]
    pub fn has_conflicts(&self, core: CoreId, addr: Addr, kind: AccessKind) -> bool {
        !self.conflict_mask_of(core, addr, kind).is_empty()
    }

    /// The cores whose speculative bits conflict with `core` performing
    /// `kind` on `addr`'s block, in ascending core order.
    pub fn conflict_set(&self, core: CoreId, addr: Addr, kind: AccessKind) -> ConflictSet {
        let block = addr.block();
        let mut out = ConflictSet::new();
        for i in self.conflict_mask_of(core, addr, kind) {
            out.push(Conflict {
                core: CoreId(i),
                bits: self.spec_bits(CoreId(i), block),
            });
        }
        out
    }

    /// [`conflict_set`](Self::conflict_set) as a `Vec` (tests and
    /// diagnostics).
    pub fn conflicts(&self, core: CoreId, addr: Addr, kind: AccessKind) -> Vec<Conflict> {
        self.conflict_set(core, addr, kind).to_vec()
    }

    /// Performs the access: directory transition, cache fills (with
    /// inclusion-maintaining evictions), invalidation of remote copies, and —
    /// when `speculative` — setting this core's speculative bit for the
    /// block. Returns the access latency in cycles.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if another core still holds conflicting
    /// speculative bits (the protocol must resolve conflicts first).
    pub fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind, speculative: bool) -> u64 {
        let block = addr.block();
        let service = self.classify(core, block, kind);
        self.perform(core, addr, kind, speculative, service)
    }

    /// Performs a conflict-free planned access, reusing the classification
    /// computed by [`plan`](Self::plan) instead of re-deriving it. Returns
    /// the access latency in cycles.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the plan has unresolved conflicts, or if
    /// memory-system state changed since the plan was taken (the plan's
    /// classification is then stale — use [`access`](Self::access)).
    pub fn access_planned(&mut self, plan: &AccessPlan, speculative: bool) -> u64 {
        debug_assert!(
            plan.conflicts.is_empty(),
            "access_planned with unresolved conflicts; resolve, then use access()"
        );
        debug_assert_eq!(
            self.classify(plan.core, plan.addr.block(), plan.kind),
            plan.service,
            "stale AccessPlan: state changed since plan() was taken"
        );
        self.perform(plan.core, plan.addr, plan.kind, speculative, plan.service)
    }

    fn perform(
        &mut self,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
        speculative: bool,
        service: Service,
    ) -> u64 {
        let block = addr.block();
        debug_assert!(
            !self.has_conflicts(core, addr, kind),
            "access by {core} to {addr:?} with unresolved conflicts: {:?}",
            self.conflicts(core, addr, kind)
        );
        let latency = self.latency_of(service);

        // Directory transition + remote copy removal.
        let n_victims = match kind {
            AccessKind::Read => {
                // A remote modified owner is downgraded but keeps its copy.
                self.dir.grant_read(core, block);
                0u64
            }
            AccessKind::Write => {
                let victims = self.dir.grant_write(core, block);
                let n = u64::from(victims.count());
                for v in victims {
                    self.drop_copy(CoreId(v), block);
                    self.stats[v].invalidations_received += 1;
                }
                n
            }
        };
        self.stats[core.0].invalidations_sent += n_victims;

        // Fill local caches (L2 then L1, maintaining inclusion).
        self.fill(core, block);

        // Speculative bit update.
        if speculative {
            let bits = match kind {
                AccessKind::Read => SpecBits::READ,
                AccessKind::Write => SpecBits::WRITTEN,
            };
            self.mark_spec(core, block, bits);
        }

        // Statistics.
        let st = &mut self.stats[core.0];
        st.accesses += 1;
        match service {
            Service::L1Hit => st.l1_hits += 1,
            Service::L1Upgrade | Service::L2HitUpgrade => st.upgrades += 1,
            Service::L2Hit => st.l2_hits += 1,
            Service::Miss { .. } => st.misses += 1,
        }
        latency
    }

    /// `true` when an access by `core` to `block` would be serviced as a
    /// plain L1 hit — resident, and already writable for `Write` — with no
    /// coherence transition. The stall fast-forward's commit-storm oracle
    /// uses this to prove a reacquisition walk is a fixed point: an L1-hit
    /// re-access only refreshes LRU recency (idempotent across identical
    /// walks) and counts statistics, which
    /// [`replay_l1_hits`](Self::replay_l1_hits) replays in bulk.
    pub fn is_l1_hit(&self, core: CoreId, block: BlockAddr, kind: AccessKind) -> bool {
        matches!(self.classify(core, block, kind), Service::L1Hit)
    }

    /// Replays `count` L1-hit accesses into `core`'s memory statistics —
    /// the per-retry footprint of a skipped commit-reacquisition walk
    /// (every walk access was proven an L1 hit by
    /// [`is_l1_hit`](Self::is_l1_hit); an L1 hit's only non-idempotent
    /// effect is these two counters).
    pub fn replay_l1_hits(&mut self, core: CoreId, count: u64) {
        let st = &mut self.stats[core.0];
        st.accesses += count;
        st.l1_hits += count;
    }

    /// Wakes the cores watching `block` on a protocol-side event that
    /// conflict verdicts on it may depend on but that the memory system
    /// cannot see itself (RETCON beginning symbolic tracking of the block,
    /// DATM dependence-graph changes).
    #[inline]
    pub fn wake_watchers(&mut self, block: BlockAddr) {
        self.watchers.wake(block.0);
    }

    /// Makes `core` watch `blocks`: the next change to any of them adds it
    /// to the wake set. A `sleeping` watcher — one nothing else runs — is
    /// also woken by its own [`clear_spec`](Self::clear_spec), i.e. by a
    /// remote abort.
    pub fn watch(
        &mut self,
        core: CoreId,
        blocks: impl IntoIterator<Item = BlockAddr>,
        sleeping: bool,
    ) {
        let w = &mut self.watchers;
        if sleeping {
            w.sleepers.insert(core.0);
        }
        for b in blocks {
            if w.waiters.entry(b.0).or_default().insert(core.0) {
                *w.count.entry(b.0) += 1;
            }
        }
    }

    /// Undoes [`watch`](Self::watch) over the same `blocks`; a no-op for a
    /// core not watching.
    pub fn unwatch(&mut self, core: CoreId, blocks: impl IntoIterator<Item = BlockAddr>) {
        let w = &mut self.watchers;
        w.sleepers.remove(core.0);
        for b in blocks {
            if w.waiters
                .get_mut(&b.0)
                .is_some_and(|set| set.remove(core.0))
            {
                *w.count.entry(b.0) -= 1;
            }
        }
    }

    /// `true` while no core watches any block.
    pub fn no_watchers(&self) -> bool {
        let w = &self.watchers;
        w.sleepers.is_empty() && w.waiters.values().all(CoreSet::is_empty)
    }

    /// `true` if a watcher was woken since the last
    /// [`take_woken`](Self::take_woken): one flag.
    pub fn wake_pending(&self) -> bool {
        self.watchers.wake_pending
    }

    /// The watchers woken since the last call (they keep watching until
    /// [`unwatch`](Self::unwatch)ed).
    pub fn take_woken(&mut self) -> CoreSet<N> {
        self.watchers.wake_pending = false;
        std::mem::take(&mut self.watchers.woken)
    }

    /// Sets speculative bits on a block the core already caches (or tracks in
    /// its permissions-only cache).
    pub fn mark_spec(&mut self, core: CoreId, block: BlockAddr, bits: SpecBits) {
        if !bits.any() {
            return;
        }
        // Cache-line bits drive LRU victim preference only; absence (the
        // block was evicted) is fine — the footprint row is authoritative.
        self.l1[core.0].mark_spec(block, bits);
        if self.spec.mark(core.0, block.0, bits) {
            // The core's footprint on the block grew (new bit, or a read
            // upgraded to written): conflict verdicts may change.
            self.wake_watchers(block);
        }
    }

    /// Removes `block` from `core`'s caches and directory entry, returning
    /// any speculative bits it carried (cache + permissions-only cache).
    /// This is the "steal" primitive used by RETCON and by protocols
    /// resolving conflicts in favour of a remote requester.
    pub fn invalidate_block(&mut self, core: CoreId, block: BlockAddr) -> SpecBits {
        let mut bits = SpecBits::NONE;
        if let Some(b) = self.l1[core.0].remove(block) {
            bits.merge(b);
        }
        self.l2[core.0].remove(block);
        let held = self.spec.clear_block(core.0, block.0);
        if held.any() {
            self.wake_watchers(block);
        }
        bits.merge(held);
        self.dir.drop_holder(core, block);
        bits
    }

    /// Clears every speculative bit held by `core` (transaction commit or
    /// abort), waking `core` if it is a sleeping watcher. Returns the number
    /// of blocks that had bits set.
    pub fn clear_spec(&mut self, core: CoreId) -> usize {
        let w = &mut self.watchers;
        if w.sleepers.contains(core.0) {
            w.woken.insert(core.0);
            w.wake_pending = true;
        }
        let mut cleared = 0;
        self.spec.clear_core(core.0, |block| {
            cleared += 1;
            self.l1[core.0].clear_spec(BlockAddr(block));
            self.watchers.wake(block);
        });
        cleared
    }

    /// Blocks on which `core` currently holds speculative bits, in ascending
    /// block order.
    pub fn spec_blocks(&self, core: CoreId) -> Vec<(BlockAddr, SpecBits)> {
        let mut blocks: Vec<(BlockAddr, SpecBits)> = self
            .spec
            .blocks(core.0)
            .map(|(b, bits)| (BlockAddr(b), bits))
            .collect();
        blocks.sort_by_key(|(b, _)| b.0);
        blocks.dedup();
        blocks
    }

    /// `true` if `core` currently caches `block` (L1 or L2).
    pub fn caches_block(&self, core: CoreId, block: BlockAddr) -> bool {
        self.l1[core.0].contains(block) || self.l2[core.0].contains(block)
    }

    /// This core's accumulated statistics.
    pub fn stats(&self, core: CoreId) -> &MemStats {
        &self.stats[core.0]
    }

    /// The directory (read-only), for tests asserting coherence state.
    pub fn directory(&self) -> &Directory<N> {
        &self.dir
    }

    fn drop_copy(&mut self, core: CoreId, block: BlockAddr) {
        // Invalidation from a remote write: remove the copy everywhere. Any
        // speculative bits still present here are a protocol error (debug
        // asserted in `perform`) — a write request conflicts with *any*
        // remote speculative bit, so legal victims carry none.
        self.l1[core.0].remove(block);
        self.l2[core.0].remove(block);
        self.dir.drop_holder(core, block);
    }

    fn fill(&mut self, core: CoreId, block: BlockAddr) {
        // L2 fill with inclusion: evicting an L2 block removes it from L1 too
        // and gives up its directory holding.
        if let Some((victim, _)) = self.l2[core.0].insert(block) {
            if let Some(bits) = self.l1[core.0].remove(victim) {
                if bits.any() {
                    self.overflow_spec(core);
                }
            }
            // The block leaves this core entirely.
            self.dir.drop_holder(core, victim);
        }
        // L1 fill.
        if let Some((victim, bits)) = self.l1[core.0].insert(block) {
            if bits.any() {
                self.overflow_spec(core);
            }
            // The L2 insert above already took its own victim out of L1, so
            // this one is still in L2 and keeps its directory holding.
            debug_assert!(self.l2[core.0].contains(victim), "inclusion");
        }
    }

    /// Records that a speculative line was evicted. The permissions survive
    /// in the footprint row (the OneTM-style permissions-only cache), so
    /// only the statistic moves.
    fn overflow_spec(&mut self, core: CoreId) {
        self.stats[core.0].spec_overflows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheGeometry;
    use crate::config::LatencyModel;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);

    fn ms(cores: usize) -> MemorySystem {
        MemorySystem::new(MemConfig::default(), cores)
    }

    #[test]
    fn cold_miss_then_hits() {
        let mut m = ms(1);
        let a = Addr(0);
        // Cold: directory miss to DRAM.
        assert_eq!(m.access(C0, a, AccessKind::Read, false), 140);
        // Warm: L1 hit.
        assert_eq!(m.access(C0, a, AccessKind::Read, false), 1);
        // Same block, different word: still a hit.
        assert_eq!(m.access(C0, Addr(5), AccessKind::Read, false), 1);
        let st = m.stats(C0);
        assert_eq!(st.accesses, 3);
        assert_eq!(st.misses, 1);
        assert_eq!(st.l1_hits, 2);
    }

    #[test]
    fn planned_access_matches_plain_access() {
        let mut m = ms(2);
        let a = Addr(0);
        let plan = m.plan(C0, a, AccessKind::Read);
        assert!(!plan.has_conflicts());
        assert_eq!(plan.latency, 140);
        assert_eq!(m.access_planned(&plan, false), 140);
        // Warm L1 hit through the planned path.
        let plan = m.plan(C0, a, AccessKind::Write);
        assert_eq!(m.access_planned(&plan, true), 41);
        assert_eq!(m.stats(C0).accesses, 2);
        // Conflicting plan reports the conflict.
        let plan = m.plan(C1, a, AccessKind::Read);
        assert_eq!(plan.conflicts.len(), 1);
        assert_eq!(plan.conflicts.iter().next().unwrap().core, C0);
    }

    #[test]
    fn upgrade_miss_costs_directory_roundtrip() {
        let mut m = ms(2);
        let a = Addr(0);
        m.access(C0, a, AccessKind::Read, false);
        m.access(C1, a, AccessKind::Read, false);
        // C0 holds Shared; write needs upgrade: 1 (L1) + 40 (2 hops).
        assert_eq!(m.access(C0, a, AccessKind::Write, false), 41);
        assert_eq!(m.stats(C0).upgrades, 1);
        // C1's copy was invalidated.
        assert!(!m.caches_block(C1, a.block()));
        assert_eq!(m.stats(C1).invalidations_received, 1);
    }

    #[test]
    fn dirty_forward_cheaper_than_dram() {
        let mut m = ms(2);
        let a = Addr(0);
        m.access(C0, a, AccessKind::Write, false); // C0 Modified
                                                   // C1 read: forwarded from owner = 2*20 + 20 = 60.
        assert_eq!(m.access(C1, a, AccessKind::Read, false), 60);
        // Both now share.
        assert!(m.directory().state(a.block()).holds(C0));
        assert!(m.directory().state(a.block()).holds(C1));
    }

    #[test]
    fn write_after_owner_write_invalidates() {
        let mut m = ms(2);
        let a = Addr(0);
        m.access(C0, a, AccessKind::Write, false);
        m.access(C1, a, AccessKind::Write, false);
        assert!(m.directory().state(a.block()).holds_modified(C1));
        assert!(!m.caches_block(C0, a.block()));
    }

    #[test]
    fn speculative_bits_set_and_conflict() {
        let mut m = ms(2);
        let a = Addr(0);
        m.access(C0, a, AccessKind::Read, true);
        let bits = m.spec_bits(C0, a.block());
        assert!(bits.read && !bits.written);

        // Remote read does not conflict with a spec-read block.
        assert!(m.probe(C1, a, AccessKind::Read).conflicts.is_empty());
        assert!(!m.has_conflicts(C1, a, AccessKind::Read));
        // Remote write does.
        let p = m.probe(C1, a, AccessKind::Write);
        assert_eq!(p.conflicts.len(), 1);
        assert_eq!(p.conflicts[0].core, C0);
        assert!(m.has_conflicts(C1, a, AccessKind::Write));
    }

    #[test]
    fn spec_written_conflicts_with_remote_read() {
        let mut m = ms(2);
        let a = Addr(0);
        m.access(C0, a, AccessKind::Write, true);
        let p = m.probe(C1, a, AccessKind::Read);
        assert_eq!(p.conflicts.len(), 1);
        assert!(p.conflicts[0].bits.written);
    }

    #[test]
    fn clear_spec_resolves_conflicts() {
        let mut m = ms(2);
        let a = Addr(0);
        m.access(C0, a, AccessKind::Write, true);
        assert_eq!(m.clear_spec(C0), 1);
        assert!(m.probe(C1, a, AccessKind::Read).conflicts.is_empty());
        // Second clear is a no-op.
        assert_eq!(m.clear_spec(C0), 0);
    }

    #[test]
    fn invalidate_block_steals_and_returns_bits() {
        let mut m = ms(2);
        let a = Addr(0);
        m.access(C0, a, AccessKind::Read, true);
        let bits = m.invalidate_block(C0, a.block());
        assert!(bits.read);
        assert!(!m.caches_block(C0, a.block()));
        assert!(m.probe(C1, a, AccessKind::Write).conflicts.is_empty());
        // After the steal, C1 can write at DRAM cost (block now uncached).
        assert_eq!(m.access(C1, a, AccessKind::Write, false), 140);
    }

    #[test]
    fn spec_bits_survive_capacity_eviction_via_po_cache() {
        // Tiny caches force evictions: 1-set 1-way L1, 1-set 1-way L2.
        let cfg = MemConfig {
            l1: CacheGeometry { sets: 1, ways: 1 },
            l2: CacheGeometry { sets: 1, ways: 1 },
            latency: LatencyModel::default(),
        };
        let mut m: MemorySystem = MemorySystem::new(cfg, 2);
        let a = Addr(0);
        let b = Addr(8); // different block, same set
        m.access(C0, a, AccessKind::Read, true);
        m.access(C0, b, AccessKind::Read, true); // evicts block of `a`
        assert!(!m.caches_block(C0, a.block()));
        // Permissions survive: a remote write still conflicts.
        let p = m.probe(C1, a, AccessKind::Write);
        assert_eq!(p.conflicts.len(), 1);
        assert!(m.stats(C0).spec_overflows >= 1);
        // And spec_blocks reports both.
        let blocks = m.spec_blocks(C0);
        assert_eq!(blocks.len(), 2);
    }

    #[test]
    fn l1_hit_refreshes_l2_recency() {
        // One 2-way set at each level: the L2 victim is the block whose last
        // access, L1 hits included, is the oldest.
        let one_set = CacheGeometry { sets: 1, ways: 2 };
        let cfg = MemConfig {
            l1: one_set,
            l2: one_set,
            latency: LatencyModel::default(),
        };
        let mut m: MemorySystem = MemorySystem::new(cfg, 1);
        let (a, b, c) = (Addr(0), Addr(8), Addr(16));
        m.access(C0, a, AccessKind::Read, false);
        m.access(C0, b, AccessKind::Read, false);
        assert_eq!(m.access(C0, a, AccessKind::Read, false), 1, "an L1 hit");
        m.access(C0, c, AccessKind::Read, false);
        assert!(m.caches_block(C0, a.block()));
        assert!(!m.caches_block(C0, b.block()), "b was the L2 LRU");
        assert!(!m.directory().state(b.block()).holds(C0));
    }

    #[test]
    fn spec_blocks_merges_cache_and_overflow() {
        let mut m = ms(1);
        let a = Addr(0);
        m.access(C0, a, AccessKind::Read, true);
        m.mark_spec(C0, a.block(), SpecBits::WRITTEN);
        let blocks = m.spec_blocks(C0);
        assert_eq!(blocks.len(), 1);
        assert!(blocks[0].1.read && blocks[0].1.written);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unresolved conflicts")]
    fn unresolved_conflict_panics_in_debug() {
        let mut m = ms(2);
        let a = Addr(0);
        m.access(C0, a, AccessKind::Write, true);
        let _ = m.access(C1, a, AccessKind::Read, false);
    }

    #[test]
    fn architectural_rw_bypasses_timing() {
        let mut m = ms(1);
        m.write_word(Addr(3), 9);
        assert_eq!(m.read_word(Addr(3)), 9);
        assert_eq!(m.stats(C0).accesses, 0);
    }

    #[test]
    fn downgrade_keeps_owner_copy() {
        let mut m = ms(2);
        let a = Addr(0);
        m.access(C0, a, AccessKind::Write, false);
        m.access(C1, a, AccessKind::Read, false);
        assert!(m.caches_block(C0, a.block()));
        assert!(m.caches_block(C1, a.block()));
        // C0 writing again needs an upgrade (it was downgraded to Shared).
        assert_eq!(m.access(C0, a, AccessKind::Write, false), 41);
    }

    #[test]
    fn conflict_set_spills_past_inline_capacity() {
        let mut m: MemorySystem = MemorySystem::new(MemConfig::default(), 8);
        let a = Addr(0);
        for i in 0..7 {
            m.access(CoreId(i), a, AccessKind::Read, true);
        }
        let set = m.conflict_set(CoreId(7), a, AccessKind::Write);
        assert_eq!(set.len(), 7);
        let cores: Vec<usize> = set.iter().map(|c| c.core.0).collect();
        assert_eq!(cores, vec![0, 1, 2, 3, 4, 5, 6], "ascending core order");
        assert_eq!(set.to_vec().len(), 7);
    }

    #[test]
    fn watchers_wake_on_a_watched_change_and_sleepers_on_their_own_clear() {
        let mut m = ms(3);
        let (a, b) = (BlockAddr(0), BlockAddr(1));
        m.watch(C1, [a, b, a], true);
        m.watch(CoreId(2), [b], false);
        assert!(!m.no_watchers() && !m.wake_pending());
        m.wake_watchers(BlockAddr(2)); // unwatched
        assert!(!m.wake_pending());
        m.wake_watchers(b);
        assert_eq!(m.take_woken().iter().collect::<Vec<_>>(), [1, 2]);
        assert!(!m.wake_pending(), "taking clears the flag");
        m.clear_spec(C0); // another core's clear
        assert!(!m.wake_pending());
        m.clear_spec(CoreId(2)); // a watcher that is not asleep
        assert!(!m.wake_pending());
        m.clear_spec(C1);
        assert_eq!(m.take_woken(), CoreSet::solo(1));
        m.unwatch(C1, [a, b, a]);
        m.unwatch(CoreId(2), [b]);
        assert!(m.no_watchers());
        m.wake_watchers(a);
        m.clear_spec(C1);
        assert!(
            !m.wake_pending(),
            "cores that stopped watching are not woken"
        );
    }

    #[test]
    fn too_many_cores_rejected() {
        let result = std::panic::catch_unwind(|| MemorySystem::<1>::new(MemConfig::default(), 65));
        assert!(result.is_err());
    }

    #[test]
    fn wide_size_class_accepts_and_tracks_high_cores() {
        let mut m: MemorySystem<16> = MemorySystem::new(MemConfig::default(), 1024);
        let a = Addr(0);
        let hi = CoreId(1000);
        m.access(hi, a, AccessKind::Write, true);
        assert!(m.spec_bits(hi, a.block()).written);
        // A low core's read conflicts with the high core's written bit.
        let set = m.conflict_set(CoreId(3), a, AccessKind::Read);
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().next().unwrap().core, hi);
        assert_eq!(m.clear_spec(hi), 1);
        assert!(!m.has_conflicts(CoreId(3), a, AccessKind::Read));
    }
}
