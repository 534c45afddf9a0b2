//! The full RETCON protocol: the symbolic engine wired into coherence, on
//! top of the §2 baseline ([`EagerTm`]).

use retcon::{Engine, PrecommitCursor, Repair, RetconConfig, RetconStats, StorePath};
use retcon_isa::{Addr, BlockAddr, CoreSet, Reg};
use retcon_mem::{AccessKind, CoreId, FxHashSet, MemorySystem};

use crate::cm::ConflictPolicy;
use crate::eager::{EagerTm, Verdict};
use crate::result::{AbortCause, CommitResult, MemResult, ProtocolStats, RegUpdates};
use crate::storm::{StallAction, StallStorm, WatchList};

/// What RETCON keeps per core beside the baseline's transaction state.
#[derive(Debug)]
struct CoreState {
    start_cycle: u64,
    engine: Engine,
    /// Blocks accessed *plainly* (untracked) by the current transaction.
    /// Tracking decisions are sticky within a transaction: once a block has
    /// been read or written through the ordinary speculative path, its
    /// value has flowed into the transaction unconstrained, so beginning
    /// symbolic tracking later (the predictor can train mid-transaction)
    /// would let a steal invalidate that value without any constraint —
    /// an unserializable commit. Such blocks stay plain until the
    /// transaction ends.
    plain_blocks: FxHashSet<u64>,
    rstats: RetconStats,
    /// Scratch: the pre-commit repair output buffers.
    repair: Repair,
}

impl CoreState {
    fn new(cfg: RetconConfig) -> Self {
        CoreState {
            start_cycle: 0,
            engine: Engine::new(cfg),
            plain_blocks: FxHashSet::default(),
            rstats: RetconStats::new(),
            repair: Repair::default(),
        }
    }

    /// Collapses the symbolic state when the transaction ends, committed
    /// or aborted.
    fn end_tx(&mut self) {
        self.engine.reset();
        self.plain_blocks.clear();
    }

    /// The tracking decision for a plain access to `addr` that is about to
    /// complete: begins symbolic tracking of the block if this transaction
    /// has not accessed it plainly before and the predictor has learned it
    /// is conflict-prone. `insert` doubles as the membership test (one
    /// lookup, not two) and gates the predictor lookup.
    fn begins_tracking<const N: usize>(&mut self, addr: Addr, mem: &mut MemorySystem<N>) -> bool {
        let block = addr.block();
        if !(self.plain_blocks.insert(block.0) && self.engine.wants_tracking(addr)) {
            return false;
        }
        self.plain_blocks.remove(&block.0);
        let memory = &*mem;
        let ok = self.engine.begin_tracking(block, |w| memory.read_word(w));
        debug_assert!(ok, "wants_tracking implies room");
        // Tracked blocks are stealable: a conflict verdict input.
        mem.wake_watchers(block);
        true
    }
}

/// The access the pre-commit process acquires a block with, from the
/// engine's written-bit hint.
fn acquire_kind(write: bool) -> AccessKind {
    if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// The full RETCON hardware: the baseline eager HTM of §2 extended with the
/// `retcon` crate's symbolic engine.
///
/// Non-symbolic accesses behave exactly like [`EagerTm`](crate::EagerTm)
/// with the timestamp policy. The differences (§4):
///
/// * loads from predicted-conflicting blocks initiate **symbolic tracking**;
///   later loads are served from the initial value buffer or the symbolic
///   store buffer without touching coherence;
/// * a remote request that conflicts only with *symbolically tracked,
///   read-only* state **steals** the block instead of invoking contention
///   management — the victim keeps running on its recorded initial values;
/// * stores of symbolic values (and all stores to tracked blocks) are
///   buffered in the symbolic store buffer, invisible to coherence until
///   commit;
/// * commit runs the Figure 7 pre-commit process: reacquire lost blocks
///   (serially by default; in parallel under
///   [`RetconConfig::idealized`]), validate constraints, and repair
///   buffered stores and symbolic registers against final values.
///
/// # Example
///
/// A tracked counter is stolen by a remote write, yet the transaction
/// commits with a repaired value:
///
/// ```
/// use retcon::RetconConfig;
/// use retcon_htm::{AnyProtocol, RetconTm, MemResult, CommitResult};
/// use retcon_mem::{MemorySystem, MemConfig, CoreId};
/// use retcon_isa::{Addr, Reg, BinOp};
///
/// let mut mem: MemorySystem = MemorySystem::new(MemConfig::default(), 2);
/// let mut cfg = RetconConfig::default();
/// cfg.initial_threshold = 0; // track on first touch (no warm-up)
/// let mut tm: AnyProtocol = RetconTm::new(2, cfg).into();
///
/// tm.tx_begin(CoreId(0), 0);
/// let v = match tm.read(CoreId(0), Reg(1), Addr(0), None, &mut mem, 1) {
///     MemResult::Value { value, .. } => value,
///     other => panic!("{other:?}"),
/// };
/// let v = tm.on_alu(CoreId(0), BinOp::Add, Reg(1), Reg(1), None, v, 1);
/// tm.write(CoreId(0), Some(Reg(1)), v, Addr(0), None, &mut mem, 2);
///
/// // A remote (non-transactional) write steals the tracked block...
/// tm.write(CoreId(1), None, 10, Addr(0), None, &mut mem, 3);
/// assert!(!tm.take_aborted(CoreId(0)), "steal, not abort");
///
/// // ...and commit repairs the increment on top of the new value.
/// assert!(matches!(tm.commit(CoreId(0), &mut mem, 4), CommitResult::Committed { .. }));
/// assert_eq!(mem.read_word(Addr(0)), 11);
/// ```
#[derive(Debug)]
pub struct RetconTm<const N: usize = 1> {
    /// Ages, undo logs, abort and the contention verdict: non-symbolic
    /// accesses behave exactly like the baseline because they *are* the
    /// baseline.
    base: EagerTm<N>,
    cores: Vec<CoreState>,
}

impl<const N: usize> RetconTm<N> {
    /// Creates the protocol for `num_cores` cores with the given RETCON
    /// structure configuration (use `RetconConfig::default()` for the
    /// paper's Table 1 sizes).
    pub fn new(num_cores: usize, cfg: RetconConfig) -> Self {
        RetconTm {
            base: EagerTm::new(num_cores, ConflictPolicy::OldestWins),
            cores: (0..num_cores).map(|_| CoreState::new(cfg)).collect(),
        }
    }

    /// The RETCON engine of `core` (for tests and diagnostics).
    pub fn engine(&self, core: CoreId) -> &Engine {
        &self.cores[core.0].engine
    }

    /// The engine the register hooks of `core` drive.
    pub(crate) fn engine_mut(&mut self, core: CoreId) -> &mut Engine {
        &mut self.cores[core.0].engine
    }

    /// Aborts `core`'s own transaction for a RETCON-specific `cause`.
    fn abort_self(&mut self, core: CoreId, mem: &mut MemorySystem<N>, cause: AbortCause) {
        self.base.abort_core(core, mem, cause, false);
        self.cores[core.0].end_tx();
    }

    /// Trains the predictor down on every block the overflowing transaction
    /// tracks. Without this, a transaction whose store footprint exceeds the
    /// symbolic store buffer would retry, re-track the same blocks and
    /// overflow again, forever — the same pathology a constraint violation
    /// causes, handled the same way (§5.1's aggressive train-down).
    fn train_down_on_overflow(&mut self, core: CoreId) {
        let engine = &mut self.cores[core.0].engine;
        for i in 0..engine.ivb().len() {
            let block = engine.ivb().entry_at(i).block();
            engine.predictor_mut().on_violation(block);
        }
    }

    /// Offers a transactional store to the symbolic store buffer. `None`
    /// sends it down the plain speculative path.
    fn buffer_store(
        &mut self,
        core: CoreId,
        src: Option<Reg>,
        value: u64,
        addr: Addr,
        mem: &mut MemorySystem<N>,
    ) -> Option<MemResult> {
        match self.cores[core.0].engine.on_store(addr, src, value) {
            StorePath::Buffered => Some(MemResult::Value { value, latency: 1 }),
            StorePath::Overflow => {
                self.train_down_on_overflow(core);
                self.abort_self(core, mem, AbortCause::Overflow);
                Some(MemResult::Abort)
            }
            StorePath::Normal => None,
        }
    }

    /// The baseline verdict with RETCON's steal rule (§4.2): a victim whose
    /// only speculative claim on `block` is *symbolic read-only tracking*
    /// loses the block without aborting.
    fn verdict(
        &self,
        core: CoreId,
        block: BlockAddr,
        conflicts: CoreSet<N>,
        mem: &MemorySystem<N>,
    ) -> Verdict<N> {
        self.base.verdict(core, conflicts, |victim| {
            self.cores[victim.0].engine.is_tracking(block) && !mem.spec_bits(victim, block).written
        })
    }

    /// First half of every access, plain or commit-time: resolves whatever
    /// conflicts `kind` on `addr` raises (`None` lets the access proceed).
    /// Every conflict trains the predictor on both sides (which is how
    /// blocks *become* symbolic in the first place), stealable victims lose
    /// the block and keep running on their recorded initial values, and the
    /// baseline carries out the contention manager's ruling on the rest.
    fn resolve(
        &mut self,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
        mem: &mut MemorySystem<N>,
    ) -> Option<MemResult> {
        let conflicts = mem.conflict_mask_of(core, addr, kind);
        if conflicts.is_empty() {
            return None;
        }
        let block = addr.block();
        let verdict = self.verdict(core, block, conflicts, mem);
        for victim in conflicts {
            self.cores[victim].engine.predictor_mut().on_conflict(block);
            self.cores[core.0].engine.predictor_mut().on_conflict(block);
        }
        for victim in verdict.steal {
            mem.invalidate_block(CoreId(victim), block);
            self.cores[victim].engine.on_steal(block);
        }
        let cores = &mut self.cores;
        self.base
            .apply(core, &verdict, mem, |aborted| cores[aborted.0].end_tx())
    }

    /// The commit-storm oracle: a read-only walk of `commit`'s
    /// acquisition order, deciding whether a stalled commit's retry is a
    /// fixed point. Every block ahead of the stall must re-access as a
    /// plain L1 hit — the steady state the first stalled attempt
    /// established — and goes into the storm's watch list; the first
    /// conflicted block must stall the commit again with nothing to steal.
    /// Anything else (a possible steal, a coherence transition, an
    /// oversized prefix, a walk that would now run to completion) declines
    /// and the commit retries step-by-step.
    fn commit_storm(&self, core: CoreId, mem: &MemorySystem<N>) -> Option<StallStorm<N>> {
        let engine = &self.cores[core.0].engine;
        let mut walk = PrecommitCursor::default();
        let mut watch = WatchList::EMPTY;
        while let Some((block, write)) = engine.next_precommit_block(&mut walk) {
            let kind = acquire_kind(write);
            let conflicts = mem.conflict_mask_of(core, block.base(), kind);
            if !conflicts.is_empty() {
                return self
                    .verdict(core, block, conflicts, mem)
                    .restalls()
                    .then(|| StallStorm {
                        train_mask: conflicts,
                        block,
                        // Every earlier step passed the L1-hit check, so
                        // the replayed prefix is exactly the watch list.
                        prefix_hits: watch.blocks().len() as u32,
                        watch,
                    });
            }
            if !mem.is_l1_hit(core, block, kind) || !watch.push(block) {
                return None;
            }
        }
        None
    }

    pub(crate) fn name(&self) -> &'static str {
        "RetCon"
    }

    pub(crate) fn tx_begin(&mut self, core: CoreId, now: u64) {
        self.base.tx_begin(core, now);
        let cs = &mut self.cores[core.0];
        cs.start_cycle = now;
        cs.plain_blocks.clear();
        cs.engine.begin();
    }

    pub(crate) fn tx_active(&self, core: CoreId) -> bool {
        self.base.tx_active(core)
    }

    pub(crate) fn read(
        &mut self,
        core: CoreId,
        dst: Reg,
        addr: Addr,
        addr_reg: Option<Reg>,
        mem: &mut MemorySystem<N>,
    ) -> MemResult {
        let active = self.base.tx_active(core);
        if active {
            let cs = &mut self.cores[core.0];
            if let Some(r) = addr_reg {
                cs.engine.concretize_addr_reg(r);
            }
            // Figure 6: symbolic store buffer, then initial value buffer,
            // then memory — classified and completed in one fused pass.
            if let Some(value) = cs.engine.transactional_load(dst, addr) {
                return MemResult::Value { value, latency: 1 };
            }
        }
        if let Some(result) = self.resolve(core, addr, AccessKind::Read, mem) {
            return result;
        }
        let latency = mem.access(core, addr, AccessKind::Read, active);
        let value = mem.read_word(addr);
        if active {
            let cs = &mut self.cores[core.0];
            if cs.begins_tracking(addr, mem) {
                let v = cs.engine.finish_tracked_load(dst, addr);
                debug_assert_eq!(v, value);
            } else {
                cs.engine.finish_memory_load(dst, value);
            }
        }
        MemResult::Value { value, latency }
    }

    pub(crate) fn write(
        &mut self,
        core: CoreId,
        src: Option<Reg>,
        value: u64,
        addr: Addr,
        addr_reg: Option<Reg>,
        mem: &mut MemorySystem<N>,
    ) -> MemResult {
        let active = self.base.tx_active(core);
        if active {
            if let Some(r) = addr_reg {
                self.cores[core.0].engine.concretize_addr_reg(r);
            }
            if let Some(result) = self.buffer_store(core, src, value, addr, mem) {
                return result;
            }
        }
        if let Some(result) = self.resolve(core, addr, AccessKind::Write, mem) {
            return result;
        }
        // Store-initiated tracking: a *blind* write (the block was never
        // accessed plainly by this transaction) to a block the predictor
        // has learned is conflict-prone begins tracking too, so the store
        // is buffered and reapplied at commit (this is how RETCON
        // "implicitly provides selective lazy conflict detection", §5.1).
        // Conflicts were resolved above, so memory holds no other core's
        // uncommitted data for this block.
        if active && self.cores[core.0].begins_tracking(addr, mem) {
            return self
                .buffer_store(core, src, value, addr, mem)
                .expect("stores to tracked blocks buffer");
        }
        self.base.plain_write(core, value, addr, mem)
    }

    pub(crate) fn commit(
        &mut self,
        core: CoreId,
        mem: &mut MemorySystem<N>,
        now: u64,
    ) -> CommitResult {
        debug_assert!(self.base.tx_active(core));
        let cfg = *self.cores[core.0].engine.config();
        let mut serial_latency = 0u64;
        let mut parallel_latency = 0u64;

        // Figure 7, step 1 (acquisition): reacquire every tracked block and
        // acquire write permission for buffered stores to untracked blocks.
        // Conflicts go through the normal contention manager; a stall
        // reschedules the entire commit (partial acquisitions are harmless
        // — the blocks are simply cached). The engine does not change under
        // the walk: resolution only ever mutates *other* cores unless it
        // aborts this one, which ends the walk.
        let mut walk = PrecommitCursor::default();
        while let Some((block, write)) = self.cores[core.0].engine.next_precommit_block(&mut walk) {
            let (addr, kind) = (block.base(), acquire_kind(write));
            match self.resolve(core, addr, kind, mem) {
                None => {}
                Some(MemResult::Stall) => return CommitResult::Stall,
                Some(_) => return CommitResult::Abort,
            }
            let l = mem.access(core, addr, kind, true);
            serial_latency += l;
            parallel_latency = parallel_latency.max(l);
        }
        let mut latency = if cfg.parallel_reacquire {
            parallel_latency
        } else {
            serial_latency
        };

        // Figure 7, steps 1 (validation) and 2 (repair), into the reusable
        // repair buffers.
        let mut repair = std::mem::take(&mut self.cores[core.0].repair);
        let cs = &mut self.cores[core.0];
        let validated = {
            // Split borrows: the engine reads final values from memory.
            let memory = &*mem;
            cs.engine
                .validate_and_repair_into(|w| memory.read_word(w), &mut repair)
        };
        match validated {
            Err(v) => {
                cs.engine.predictor_mut().on_violation(v.block);
                cs.rstats.record_violation();
                cs.repair = repair;
                self.abort_self(core, mem, AbortCause::Validation);
                CommitResult::Abort
            }
            Ok(()) => {
                for &(addr, value) in &repair.stores {
                    debug_assert!(
                        !mem.has_conflicts(core, addr, AccessKind::Write),
                        "store blocks were acquired above"
                    );
                    let l = mem.access(core, addr, AccessKind::Write, false);
                    if !cfg.free_commit_stores {
                        latency += l;
                    }
                    mem.write_word(addr, value);
                }
                let mut reg_updates = RegUpdates::EMPTY;
                for &(r, v) in &repair.registers {
                    reg_updates.push(r, v);
                }
                let mut snap = cs.engine.snapshot();
                snap.commit_cycles = latency;
                let lifetime = now.saturating_sub(cs.start_cycle) + latency;
                cs.rstats.record_commit(snap, lifetime.max(1));
                cs.end_tx();
                cs.repair = repair;
                self.base.retire(core, mem);
                CommitResult::Committed {
                    latency,
                    reg_updates,
                }
            }
        }
    }

    pub(crate) fn take_aborted(&mut self, core: CoreId) -> bool {
        self.base.take_aborted(core)
    }

    pub(crate) fn abort_pending(&self, core: CoreId) -> bool {
        self.base.abort_pending(core)
    }

    pub(crate) fn stats(&self, core: CoreId) -> &ProtocolStats {
        self.base.stats(core)
    }

    pub(crate) fn stall_storm(
        &self,
        core: CoreId,
        action: StallAction,
        mem: &MemorySystem<N>,
    ) -> Option<StallStorm<N>> {
        // Every stalled retry trains both predictors per conflicting core,
        // which the storm's `train_mask` carries. A commit retry
        // additionally re-walks its conflict-free acquisition prefix.
        let Some((addr, kind)) = action.access() else {
            return self.commit_storm(core, mem);
        };
        let conflicts = mem.conflict_mask_of(core, addr, kind);
        self.verdict(core, addr.block(), conflicts, mem)
            .restalls()
            .then(|| StallStorm::access(conflicts, addr.block()))
    }

    pub(crate) fn apply_stall_retries(
        &mut self,
        core: CoreId,
        storm: &StallStorm<N>,
        n: u64,
        mem: &mut MemorySystem<N>,
    ) {
        // n repetitions of the stalled outcome: per conflicting core, one
        // conflict observation for the victim and one for the requester
        // (saturating counters commute, so the bulk update is exact), the
        // requester's stall count, and — for commit storms — the prefix
        // walk's L1-hit statistics.
        let n32 = u32::try_from(n).unwrap_or(u32::MAX);
        for victim_id in storm.train_mask {
            self.cores[victim_id]
                .engine
                .predictor_mut()
                .on_conflicts(storm.block, n32);
            self.cores[core.0]
                .engine
                .predictor_mut()
                .on_conflicts(storm.block, n32);
        }
        self.base.apply_stall_retries(core, n);
        if storm.prefix_hits != 0 {
            mem.replay_l1_hits(core, n.saturating_mul(u64::from(storm.prefix_hits)));
        }
    }

    /// Aggregate RETCON structure statistics over every core (Table 3).
    pub(crate) fn retcon_stats(&self) -> RetconStats {
        let mut agg = RetconStats::new();
        for cs in &self.cores {
            agg.merge(&cs.rstats);
        }
        agg
    }

    /// Repair-chain consistency: every commit/abort must collapse the
    /// symbolic state — IVB and SSB drained, no register still carrying a
    /// symbolic tag (a dangling tag would let a stale repair chain leak
    /// into the next transaction).
    pub(crate) fn check_quiescent(&self) -> Result<(), String> {
        self.base
            .check_quiescent()
            .map_err(|e| format!("RetCon baseline, {e}"))?;
        for (i, cs) in self.cores.iter().enumerate() {
            if cs.engine.in_tx() {
                return Err(format!("RetCon: core {i} engine still in a transaction"));
            }
            if !cs.engine.ivb().is_empty() {
                return Err(format!(
                    "RetCon: core {i} IVB tracks {} blocks at quiescence",
                    cs.engine.ivb().len()
                ));
            }
            if !cs.engine.ssb().is_empty() {
                return Err(format!(
                    "RetCon: core {i} SSB buffers {} stores at quiescence",
                    cs.engine.ssb().len()
                ));
            }
            for r in retcon_isa::Reg::all() {
                if cs.engine.symbolic_value(r).is_some() {
                    return Err(format!(
                        "RetCon: core {i} register {r:?} still carries a symbolic tag"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retcon_isa::{BinOp, CmpOp};
    use retcon_mem::MemConfig;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const A: Addr = Addr(0);

    fn setup() -> (MemorySystem, RetconTm) {
        let cfg = RetconConfig {
            initial_threshold: 0, // track everything (simplifies tests)
            ..RetconConfig::default()
        };
        (
            MemorySystem::new(MemConfig::default(), 2),
            RetconTm::new(2, cfg),
        )
    }

    fn value(r: MemResult) -> u64 {
        match r {
            MemResult::Value { value, .. } => value,
            other => panic!("expected value, got {other:?}"),
        }
    }

    /// Drive one "load; add k; store" increment through the protocol.
    fn increment(tm: &mut RetconTm, mem: &mut MemorySystem, core: CoreId, addr: Addr, k: u64) {
        let v = value(tm.read(core, Reg(1), addr, None, mem));
        let nv = tm
            .engine_mut(core)
            .on_alu(BinOp::Add, Reg(1), Reg(1), None, v, k);
        assert_eq!(nv, v.wrapping_add(k));
        let r = tm.write(core, Some(Reg(1)), nv, addr, None, mem);
        assert!(matches!(r, MemResult::Value { .. }));
    }

    #[test]
    fn figure2a_schedule_both_commit() {
        // Figure 2(a): P0 and P1 each increment the counter twice,
        // concurrently. RETCON repairs; both commit; the counter ends at 4.
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        tm.tx_begin(C1, 1);
        increment(&mut tm, &mut mem, C0, A, 1);
        increment(&mut tm, &mut mem, C0, A, 1);
        increment(&mut tm, &mut mem, C1, A, 1);
        increment(&mut tm, &mut mem, C1, A, 1);
        let r0 = tm.commit(C0, &mut mem, 10);
        assert!(matches!(r0, CommitResult::Committed { .. }), "{r0:?}");
        let r1 = tm.commit(C1, &mut mem, 11);
        assert!(matches!(r1, CommitResult::Committed { .. }), "{r1:?}");
        assert_eq!(mem.read_word(A), 4);
        assert_eq!(tm.stats(C0).commits, 1);
        assert_eq!(tm.stats(C1).commits, 1);
        assert_eq!(tm.stats(C0).aborts() + tm.stats(C1).aborts(), 0);
        let rs = tm.retcon_stats();
        assert_eq!(rs.transactions, 2);
    }

    #[test]
    fn steal_lets_victim_continue() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        // C0 tracks A symbolically.
        let v = value(tm.read(C0, Reg(1), A, None, &mut mem));
        assert_eq!(v, 0);
        assert!(tm.engine(C0).is_tracking(A.block()));
        // A non-tx write by C1 steals the block instead of aborting C0.
        let _ = tm.write(C1, None, 42, A, None, &mut mem);
        assert!(!tm.take_aborted(C0));
        assert!(tm.tx_active(C0));
        // C0's later read still sees the initial value (0).
        assert_eq!(value(tm.read(C0, Reg(2), A, None, &mut mem)), 0);
        // And C0 commits fine (no constraints were generated).
        assert!(matches!(
            tm.commit(C0, &mut mem, 4),
            CommitResult::Committed { .. }
        ));
        let rs = tm.retcon_stats();
        assert_eq!(rs.sum.blocks_lost, 1);
    }

    #[test]
    fn violated_constraint_aborts_and_trains_down() {
        let (mut mem, mut tm) = setup();
        mem.write_word(A, 5);
        tm.tx_begin(C0, 0);
        let v = value(tm.read(C0, Reg(1), A, None, &mut mem));
        // Branch: r1 < 10 (taken) -> constraint A < 10.
        assert!(tm.engine_mut(C0).on_branch(CmpOp::Lt, Reg(1), None, v, 10));
        // Remote write pushes A to 50 (stealing the block).
        let _ = tm.write(C1, None, 50, A, None, &mut mem);
        // Commit: constraint 50 < 10 fails -> abort + train-down.
        assert_eq!(tm.commit(C0, &mut mem, 3), CommitResult::Abort);
        assert_eq!(tm.stats(C0).aborts_validation, 1);
        assert!(!tm.engine(C0).predictor().should_track(A.block()));
        assert_eq!(tm.retcon_stats().violations, 1);
    }

    #[test]
    fn repair_applies_register_updates() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        let v = value(tm.read(C0, Reg(1), A, None, &mut mem));
        let nv = tm
            .engine_mut(C0)
            .on_alu(BinOp::Add, Reg(1), Reg(1), None, v, 3);
        assert_eq!(nv, 3);
        // Remote +10 steals the block.
        let _ = tm.write(C1, None, 10, A, None, &mut mem);
        match tm.commit(C0, &mut mem, 3) {
            CommitResult::Committed { reg_updates, .. } => {
                assert_eq!(reg_updates.as_slice(), &[(Reg(1), 13)]);
            }
            other => panic!("expected commit, got {other:?}"),
        }
    }

    #[test]
    fn written_blocks_are_not_stealable() {
        let (mut mem, tm) = setup();
        // Disable tracking so C0's write is a normal speculative write.
        let cfg = RetconConfig {
            initial_threshold: u32::MAX,
            ..RetconConfig::default()
        };
        let mut tm2 = RetconTm::new(2, cfg);
        tm2.tx_begin(C0, 0);
        let _ = tm2.write(C0, None, 7, A, None, &mut mem);
        // Younger C1 writing the same block must stall (oldest wins), not
        // steal.
        tm2.tx_begin(C1, 5);
        assert_eq!(tm2.write(C1, None, 9, A, None, &mut mem), MemResult::Stall);
        let _ = tm; // silence unused
    }

    #[test]
    fn untracked_behaves_like_eager() {
        let cfg = RetconConfig {
            initial_threshold: u32::MAX, // never track
            ..RetconConfig::default()
        };
        let mut mem: MemorySystem = MemorySystem::new(MemConfig::default(), 2);
        let mut tm = RetconTm::new(2, cfg);
        tm.tx_begin(C0, 0);
        let _ = tm.write(C0, None, 5, A, None, &mut mem);
        // Non-tx reader aborts the younger... no: non-tx always wins.
        let v = value(tm.read(C1, Reg(0), A, None, &mut mem));
        assert_eq!(v, 0, "speculative value rolled back");
        assert!(tm.take_aborted(C0));
    }

    #[test]
    fn ssb_overflow_aborts() {
        let cfg = RetconConfig {
            initial_threshold: 0,
            ssb_capacity: 1,
            ..RetconConfig::default()
        };
        let mut mem: MemorySystem = MemorySystem::new(MemConfig::default(), 2);
        let mut tm = RetconTm::new(2, cfg);
        tm.tx_begin(C0, 0);
        // Track block of A; two buffered stores to different words overflow.
        let _ = tm.read(C0, Reg(1), A, None, &mut mem);
        assert!(matches!(
            tm.write(C0, None, 1, Addr(1), None, &mut mem),
            MemResult::Value { .. }
        ));
        assert_eq!(
            tm.write(C0, None, 2, Addr(2), None, &mut mem),
            MemResult::Abort
        );
        assert_eq!(tm.stats(C0).aborts_overflow, 1);
    }

    #[test]
    fn predictor_learns_from_conflicts() {
        // With the real threshold (1 conflict), the first conflict aborts,
        // and the retry tracks the block symbolically.
        let cfg = RetconConfig {
            initial_threshold: 1,
            ..RetconConfig::default()
        };
        let mut mem: MemorySystem = MemorySystem::new(MemConfig::default(), 2);
        let mut tm = RetconTm::new(2, cfg);

        tm.tx_begin(C1, 0);
        let _ = tm.read(C1, Reg(1), A, None, &mut mem);
        assert!(!tm.engine(C1).is_tracking(A.block()), "not yet learned");
        // Non-tx write by C0: C1 is not tracking, so it aborts — and both
        // predictors observe the conflict.
        let _ = tm.write(C0, None, 5, A, None, &mut mem);
        assert!(tm.take_aborted(C1));
        // Retry: now the block is predicted conflicting and gets tracked.
        tm.tx_begin(C1, 3);
        let _ = tm.read(C1, Reg(1), A, None, &mut mem);
        assert!(tm.engine(C1).is_tracking(A.block()));
        // This time the same remote write steals instead of aborting.
        let _ = tm.write(C0, None, 9, A, None, &mut mem);
        assert!(!tm.take_aborted(C1));
        assert!(matches!(
            tm.commit(C1, &mut mem, 6),
            CommitResult::Committed { .. }
        ));
    }

    #[test]
    fn serializability_of_counter_increments() {
        // N interleaved increments from both cores: final value must equal
        // the total number of committed increments.
        let (mut mem, mut tm) = setup();
        let mut committed = 0u64;
        for round in 0..10u64 {
            tm.tx_begin(C0, round * 100);
            tm.tx_begin(C1, round * 100 + 1);
            increment(&mut tm, &mut mem, C0, A, 1);
            increment(&mut tm, &mut mem, C1, A, 1);
            if matches!(
                tm.commit(C0, &mut mem, round * 100 + 50),
                CommitResult::Committed { .. }
            ) {
                committed += 1;
            }
            if matches!(
                tm.commit(C1, &mut mem, round * 100 + 51),
                CommitResult::Committed { .. }
            ) {
                committed += 1;
            }
            // Clear any aborted flags for the next round.
            let _ = tm.take_aborted(C0);
            let _ = tm.take_aborted(C1);
        }
        assert_eq!(mem.read_word(A), committed);
        assert_eq!(committed, 20, "RETCON repairs every increment");
    }
}
