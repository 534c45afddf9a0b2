//! A dependence-aware TM (DATM) model sufficient for Figure 2(b).
//!
//! Ramadan et al.'s DATM forwards speculatively written data between
//! running transactions and enforces atomicity by committing transactions in
//! dependence order; a *cyclic* dependence cannot be serialized and aborts a
//! transaction. Figure 2(b) of the RETCON paper shows the consequence for
//! repeated counter increments: the first remote increment forwards, but the
//! second closes a cycle and forces an abort — the case RETCON's symbolic
//! repair handles without any abort.
//!
//! This implementation keeps block-granular read/write sets in its own
//! [`Footprints`] (not the memory system's: invalidation semantics do
//! not fit forwarding) and maintains the dependence graph with one
//! progress-guaranteeing restriction: dependences may only point from
//! *older* to *younger* transactions. Forwarding from an older writer to a
//! younger reader is allowed; an access that would create a younger→older
//! edge (the situation that closes a cycle in general DATM) instead aborts
//! the younger endpoint, cascading to every transaction that consumed its
//! forwarded data. Edges therefore always follow the age order, the graph
//! is acyclic by construction, the oldest transaction never waits or
//! aborts — and the Figure 2(b) schedule (second increment closes the
//! would-be cycle, younger transaction aborts) is reproduced exactly.
//! Commits wait for all predecessors, enforcing the dependence order.

use retcon_isa::{Addr, CoreSet, Reg};
use retcon_mem::{AccessKind, CoreId, Footprints, FxHashSet, MemorySystem, SpecBits, UndoLog};

use crate::protocol::Protocol;
use crate::result::{AbortCause, CommitResult, MemResult, ProtocolStats, RegUpdates};
use crate::storm::{StallAction, StallStorm};
use crate::tx::{tx_accessors, Tx};
use retcon_isa::BlockAddr;

#[derive(Debug, Default)]
struct CoreState {
    tx: Tx,
    undo: UndoLog,
}

/// Simplified dependence-aware transactional memory (see module docs).
#[derive(Debug)]
pub struct DatmLite<const N: usize = 1> {
    cores: Vec<CoreState>,
    /// Dependence edges `(pred, succ)`: `succ` must commit after `pred`.
    edges: FxHashSet<(usize, usize)>,
    /// The read and write sets of the active transactions.
    sets: Footprints<N>,
    /// Scratch: the cascading-abort DFS worklist (reused across cascades
    /// so the abort path never allocates in steady state).
    cascade: Vec<usize>,
    /// Scratch: the victim list of the current cascade, rolled back
    /// youngest-first.
    victims: Vec<usize>,
}

impl<const N: usize> DatmLite<N> {
    /// Creates the protocol for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        DatmLite {
            cores: (0..num_cores).map(|_| CoreState::default()).collect(),
            edges: FxHashSet::default(),
            sets: Footprints::new(num_cores),
            cascade: Vec::new(),
            victims: Vec::new(),
        }
    }

    fn age(&self, c: usize) -> (u64, usize) {
        (self.cores[c].tx.birth().unwrap_or(u64::MAX), c)
    }

    /// Requires `pred` to commit before `succ`. If `pred` is actually the
    /// *younger* transaction, the edge would invert the age order (the
    /// cycle-closing situation of Figure 2(b)): the younger endpoint aborts
    /// with cascades instead. Returns `false` if `requester` was aborted
    /// (directly or by a cascade).
    fn add_edge(
        &mut self,
        pred: usize,
        succ: usize,
        mem: &mut MemorySystem<N>,
        requester: usize,
    ) -> bool {
        if pred == succ {
            return true;
        }
        if self.age(pred) > self.age(succ) {
            // The predecessor is younger: abort it (and its consumers).
            self.abort_cascading(pred, mem);
        } else {
            self.edges.insert((pred, succ));
        }
        self.cores[requester].tx.is_active()
    }

    /// Aborts `core` and every active transaction that consumed data
    /// forwarded from it (its successors in the dependence graph).
    ///
    /// The DFS worklist and victim list are reusable scratch buffers and
    /// the visited set is a fixed-width [`CoreSet`], so cascades
    /// allocate nothing once the buffers reach steady capacity — this was
    /// the last allocating path in any protocol's conflict handling
    /// (`tests/no_alloc_machine.rs` pins DATM under max contention).
    fn abort_cascading(&mut self, core: usize, mem: &mut MemorySystem<N>) {
        let mut stack = std::mem::take(&mut self.cascade);
        stack.clear();
        stack.push(core);
        let mut seen: CoreSet<N> = CoreSet::EMPTY;
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            stack.extend(
                self.edges
                    .iter()
                    .filter(|&&(p, _)| p == c)
                    .map(|&(_, s)| s)
                    .filter(|s| self.cores[*s].tx.is_active()),
            );
        }
        self.cascade = stack;
        // Roll back in reverse dependence order (youngest first) so each
        // undo log restores the values its successors forwarded. The sort
        // key `(birth, id)` is unique per victim, so the unstable sort is
        // deterministic.
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        victims.extend(seen.iter().filter(|&c| c < self.cores.len()));
        victims.retain(|&c| self.cores[c].tx.is_active());
        victims.sort_unstable_by_key(|&c| {
            std::cmp::Reverse((self.cores[c].tx.birth().unwrap_or(0), c))
        });
        for &v in &victims {
            self.cores[v].undo.rollback(mem.memory_mut());
            self.sets.clear_core(v, |_| {});
            self.cores[v].tx.abort(AbortCause::Cycle, true);
            self.edges.retain(|&(p, s)| p != v && s != v);
        }
        self.victims = victims;
        // Dependence edges and activity changed: commit-waiting verdicts
        // (keyed on the sentinel block 0 by `stall_storm`) may change.
        mem.wake_watchers(BlockAddr(0));
    }

    /// `true` while a transaction `core` must commit after is still active
    /// — the one condition a DATM commit stalls on.
    fn has_active_predecessor(&self, core: usize) -> bool {
        self.edges
            .iter()
            .any(|&(p, s)| s == core && self.cores[p].tx.is_active())
    }
}

impl<const N: usize> Protocol<N> for DatmLite<N> {
    fn name(&self) -> &'static str {
        "datm"
    }

    fn tx_begin(&mut self, core: CoreId, now: u64) {
        self.cores[core.0].tx.begin(now);
    }

    tx_accessors!();

    fn read(
        &mut self,
        core: CoreId,
        _dst: Reg,
        addr: Addr,
        _addr_reg: Option<Reg>,
        mem: &mut MemorySystem<N>,
        _now: u64,
    ) -> MemResult {
        let block = addr.block().0;
        if self.tx_active(core) {
            // Forwarding: reading a block another transaction wrote creates
            // a dependence writer -> reader (we must commit after them).
            for w in self.sets.other_writers(core.0, block) {
                if !self.add_edge(w, core.0, mem, core.0) {
                    return MemResult::Abort;
                }
            }
            if !self.tx_active(core) {
                // Cascaded abort caught us.
                return MemResult::Abort;
            }
            self.sets.mark(core.0, block, SpecBits::READ);
        }
        let latency = mem.access(core, addr, AccessKind::Read, false);
        MemResult::Value {
            value: mem.read_word(addr),
            latency,
        }
    }

    fn write(
        &mut self,
        core: CoreId,
        _src: Option<Reg>,
        value: u64,
        addr: Addr,
        _addr_reg: Option<Reg>,
        mem: &mut MemorySystem<N>,
        _now: u64,
    ) -> MemResult {
        let block = addr.block().0;
        if self.tx_active(core) {
            // Anti- and output-dependences: prior readers and writers must
            // commit before us (writers first, then pure readers, each in
            // ascending core order, as the old per-core snoop produced).
            let writers = self.sets.other_writers(core.0, block);
            let readers = self.sets.other_holders(core.0, block).and_not(writers);
            for group in [writers, readers] {
                for other in group {
                    if !self.add_edge(other, core.0, mem, core.0) {
                        return MemResult::Abort;
                    }
                }
            }
            if !self.tx_active(core) {
                return MemResult::Abort;
            }
            self.sets.mark(core.0, block, SpecBits::WRITTEN);
            self.cores[core.0].undo.record(mem.memory(), addr);
        }
        let latency = mem.access(core, addr, AccessKind::Write, false);
        mem.write_word(addr, value);
        MemResult::Value { value, latency }
    }

    fn commit(&mut self, core: CoreId, mem: &mut MemorySystem<N>, _now: u64) -> CommitResult {
        if !self.tx_active(core) {
            // A cascading abort landed between the last access and commit.
            return CommitResult::Abort;
        }
        // Commit in dependence order: wait for active predecessors.
        if self.has_active_predecessor(core.0) {
            self.cores[core.0].tx.stats.stalls += 1;
            return CommitResult::Stall;
        }
        self.cores[core.0].undo.clear();
        self.sets.clear_core(core.0, |_| {});
        self.cores[core.0].tx.commit();
        self.edges.retain(|&(p, s)| p != core.0 && s != core.0);
        mem.clear_spec(core);
        // A predecessor leaving the dependence graph releases waiting
        // committers: wake the watchers of the sentinel block
        // commit-waiting verdicts key on (see `stall_storm`).
        mem.wake_watchers(BlockAddr(0));
        CommitResult::Committed {
            latency: 0,
            reg_updates: RegUpdates::EMPTY,
        }
    }

    fn stall_storm(
        &self,
        core: CoreId,
        action: StallAction,
        _mem: &MemorySystem<N>,
    ) -> Option<StallStorm<N>> {
        // Accesses never stall under DATM (they forward or abort). A commit
        // stalled behind an active predecessor is a fixed point: this
        // core's predecessor set only grows through its *own* accesses, so
        // while it is stalled the verdict can change only when a
        // predecessor commits or an abort cascade runs — both wake the
        // watchers of the sentinel block 0, which the returned storm is
        // keyed on. The stalled commit attempt itself reads the edge set
        // without mutating anything but the stall counter.
        if !matches!(action, StallAction::Commit) {
            return None;
        }
        (self.tx_active(core) && self.has_active_predecessor(core.0))
            .then_some(StallStorm::access(CoreSet::EMPTY, BlockAddr(0)))
    }

    fn apply_stall_retries(
        &mut self,
        core: CoreId,
        _storm: &StallStorm<N>,
        n: u64,
        _mem: &mut MemorySystem<N>,
    ) {
        // n repetitions of `commit`'s active-predecessor stall.
        self.cores[core.0].tx.stats.stalls += n;
    }

    fn check_quiescent(&self) -> Result<(), String> {
        if !self.edges.is_empty() {
            return Err(format!(
                "datm: {} dependence edges survive quiescence",
                self.edges.len()
            ));
        }
        for (i, cs) in self.cores.iter().enumerate() {
            cs.tx
                .check_quiescent("datm", i, ("undo log", cs.undo.len()))?;
            let held = self.sets.blocks(i).count();
            if held != 0 {
                return Err(format!(
                    "datm: core {i} holds {held} blocks in its read/write sets at quiescence"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retcon_mem::MemConfig;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const A: Addr = Addr(0);

    fn setup() -> (MemorySystem, DatmLite) {
        (MemorySystem::new(MemConfig::default(), 2), DatmLite::new(2))
    }

    fn value(r: MemResult) -> u64 {
        match r {
            MemResult::Value { value, .. } => value,
            other => panic!("expected value, got {other:?}"),
        }
    }

    fn increment(tm: &mut DatmLite, mem: &mut MemorySystem, core: CoreId) -> MemResult {
        let v = match tm.read(core, Reg(1), A, None, mem, 0) {
            MemResult::Value { value, .. } => value,
            other => return other,
        };
        tm.write(core, Some(Reg(1)), v + 1, A, None, mem, 0)
    }

    #[test]
    fn forwarding_allows_acyclic_sharing() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        tm.tx_begin(C1, 1);
        // C0 increments once; C1 reads the forwarded value.
        assert!(matches!(
            increment(&mut tm, &mut mem, C0),
            MemResult::Value { .. }
        ));
        let v = value(tm.read(C1, Reg(1), A, None, &mut mem, 2));
        assert_eq!(v, 1, "speculative value forwarded");
        // C1 must commit after C0.
        assert_eq!(tm.commit(C1, &mut mem, 3), CommitResult::Stall);
        assert!(matches!(
            tm.commit(C0, &mut mem, 4),
            CommitResult::Committed { .. }
        ));
        assert!(matches!(
            tm.commit(C1, &mut mem, 5),
            CommitResult::Committed { .. }
        ));
    }

    #[test]
    fn figure2b_cycle_aborts_younger() {
        // Figure 2(b): both transactions increment twice. The interleaving
        // P0 inc, P1 inc (forwards, edge P0->P1), P1 inc again, P0 inc again
        // (edge P1->P0: cycle!) aborts the younger transaction (P1).
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        tm.tx_begin(C1, 1);
        assert!(matches!(
            increment(&mut tm, &mut mem, C0),
            MemResult::Value { .. }
        ));
        assert!(matches!(
            increment(&mut tm, &mut mem, C1),
            MemResult::Value { .. }
        ));
        assert!(matches!(
            increment(&mut tm, &mut mem, C1),
            MemResult::Value { .. }
        ));
        // P0's second increment reads the block P1 wrote: edge P1->P0 closes
        // the cycle; P1 (younger) aborts and its writes roll back.
        let r = increment(&mut tm, &mut mem, C0);
        assert!(matches!(r, MemResult::Value { .. }), "{r:?}");
        assert!(tm.take_aborted(C1));
        assert_eq!(tm.stats(C1).aborts_cycle, 1);
        // P0 commits with its two increments.
        assert!(matches!(
            tm.commit(C0, &mut mem, 9),
            CommitResult::Committed { .. }
        ));
        assert_eq!(mem.read_word(A), 2);
        // P1 retries and commits.
        tm.tx_begin(C1, 10);
        assert!(matches!(
            increment(&mut tm, &mut mem, C1),
            MemResult::Value { .. }
        ));
        assert!(matches!(
            increment(&mut tm, &mut mem, C1),
            MemResult::Value { .. }
        ));
        assert!(matches!(
            tm.commit(C1, &mut mem, 11),
            CommitResult::Committed { .. }
        ));
        assert_eq!(mem.read_word(A), 4);
    }

    #[test]
    fn cascading_abort_rolls_back_consumers() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        tm.tx_begin(C1, 1);
        // C0 writes 5; C1 reads the forwarded 5 and writes elsewhere.
        let _ = tm.write(C0, None, 5, A, None, &mut mem, 2);
        assert_eq!(value(tm.read(C1, Reg(1), A, None, &mut mem, 3)), 5);
        let _ = tm.write(C1, None, 1, Addr(64), None, &mut mem, 4);
        // Abort C0 (simulate via cascading helper): C1 must abort too.
        tm.abort_cascading(0, &mut mem);
        // The preview sees the pending flags without clearing them...
        assert!(tm.abort_pending(C0));
        assert!(tm.abort_pending(C1));
        assert!(tm.abort_pending(C1), "preview must not clear");
        // ...and delivery clears them.
        assert!(tm.take_aborted(C0));
        assert!(tm.take_aborted(C1));
        assert!(!tm.abort_pending(C0));
        assert!(!tm.abort_pending(C1));
        assert_eq!(mem.read_word(A), 0);
        assert_eq!(mem.read_word(Addr(64)), 0);
    }

    #[test]
    fn disjoint_txs_commit_freely() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        tm.tx_begin(C1, 1);
        let _ = tm.write(C0, None, 5, Addr(0), None, &mut mem, 2);
        let _ = tm.write(C1, None, 7, Addr(64), None, &mut mem, 3);
        assert!(matches!(
            tm.commit(C1, &mut mem, 4),
            CommitResult::Committed { .. }
        ));
        assert!(matches!(
            tm.commit(C0, &mut mem, 5),
            CommitResult::Committed { .. }
        ));
    }
}
