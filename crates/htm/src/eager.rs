//! The eager-conflict-detection HTM baseline (§2 of the paper), and the
//! mechanics [`RetconTm`](crate::RetconTm) builds on: transaction ages,
//! the undo log, abort and the contention verdict.

use retcon_isa::{Addr, CoreSet, Reg};
use retcon_mem::{AccessKind, CoreId, MemorySystem, UndoLog};

use crate::cm::{decide, Age, ConflictPolicy, Decision};
use crate::protocol::Protocol;
use crate::result::{AbortCause, CommitResult, MemResult, ProtocolStats, RegUpdates};
use crate::storm::{StallAction, StallStorm};
use crate::tx::{tx_accessors, Tx};

#[derive(Debug, Default)]
struct CoreState {
    tx: Tx,
    undo: UndoLog,
}

/// What conflict resolution does with one conflicting access: the single
/// statement of the §2 policy (plus RETCON's steal rule, §4.2).
/// [`EagerTm::apply`] carries it out; the stall-storm oracle only reads it.
#[derive(Debug)]
pub(crate) struct Verdict<const N: usize> {
    /// Victims that lose the block without aborting. Always empty under
    /// the plain baseline, where nothing is stealable.
    pub(crate) steal: CoreSet<N>,
    /// The remaining victims, which the contention manager rules on.
    pub(crate) hard: CoreSet<N>,
    /// The contention manager's ruling over `hard` (with no hard victims,
    /// [`Decision::AbortVictims`]: the requester proceeds).
    pub(crate) decision: Decision,
}

impl<const N: usize> Verdict<N> {
    /// `true` when a retry of the access is a fixed point: the requester
    /// stalls again and no steal mutates coherence state on the way. The
    /// conflict mask, the steal inputs and every age are frozen while the
    /// requester owns the scheduler, so the verdict of the retry is this
    /// verdict.
    pub(crate) fn restalls(&self) -> bool {
        self.steal.is_empty() && self.decision == Decision::StallRequester
    }
}

/// The baseline hardware transactional memory of §2: conflicts detected
/// eagerly through speculative cache bits, eager version management with an
/// undo log, zero-cycle rollback, and a configurable contention policy
/// (the baseline uses timestamp-based [`ConflictPolicy::OldestWins`]).
///
/// # Example
///
/// ```
/// use retcon_htm::{EagerTm, Protocol, MemResult, ConflictPolicy};
/// use retcon_mem::{MemorySystem, MemConfig, CoreId};
/// use retcon_isa::{Addr, CoreSet, Reg};
///
/// let mut mem: MemorySystem = MemorySystem::new(MemConfig::default(), 2);
/// let mut tm = EagerTm::new(2, ConflictPolicy::OldestWins);
/// tm.tx_begin(CoreId(0), 0);
/// let r = tm.write(CoreId(0), None, 7, Addr(0), None, &mut mem, 1);
/// assert!(matches!(r, MemResult::Value { value: 7, .. }));
///
/// // A younger conflicting transaction stalls behind the older one.
/// tm.tx_begin(CoreId(1), 5);
/// let r = tm.read(CoreId(1), Reg(0), Addr(0), None, &mut mem, 6);
/// assert_eq!(r, MemResult::Stall);
/// ```
#[derive(Debug)]
pub struct EagerTm<const N: usize = 1> {
    _class: core::marker::PhantomData<[u64; N]>,
    policy: ConflictPolicy,
    cores: Vec<CoreState>,
}

impl<const N: usize> EagerTm<N> {
    /// Creates the protocol for `num_cores` cores with the given contention
    /// policy.
    pub fn new(num_cores: usize, policy: ConflictPolicy) -> Self {
        EagerTm {
            _class: core::marker::PhantomData,
            policy,
            cores: (0..num_cores).map(|_| CoreState::default()).collect(),
        }
    }

    fn age(&self, core: CoreId) -> Option<Age> {
        self.cores[core.0].tx.age(core)
    }

    /// Zero-cycle rollback: restores memory from the undo log, drops the
    /// speculative bits and ends `core`'s transaction.
    pub(crate) fn abort_core(
        &mut self,
        core: CoreId,
        mem: &mut MemorySystem<N>,
        cause: AbortCause,
        remote: bool,
    ) {
        let cs = &mut self.cores[core.0];
        cs.undo.rollback(mem.memory_mut());
        mem.clear_spec(core);
        cs.tx.abort(cause, remote);
    }

    /// The verdict on `core`'s access conflicting with `conflicts`: victims `stealable` admits lose the block without
    /// aborting, the contention manager rules on the rest. Pure — it reads
    /// ages and whatever `stealable` reads, and allocates nothing.
    pub(crate) fn verdict(
        &self,
        core: CoreId,
        conflicts: CoreSet<N>,
        stealable: impl Fn(CoreId) -> bool,
    ) -> Verdict<N> {
        let mut steal = CoreSet::EMPTY;
        for c in conflicts {
            if stealable(CoreId(c)) {
                steal.insert(c);
            }
        }
        let hard = conflicts.and_not(steal);
        let ages = hard.iter().map(|c| {
            self.age(CoreId(c))
                .expect("speculative bits imply an active transaction")
        });
        Verdict {
            steal,
            hard,
            decision: decide(self.policy, self.age(core), ages),
        }
    }

    /// Carries out `verdict`'s contention-manager ruling (steals are the
    /// caller's business). Returns `None` when the requester may proceed
    /// (hard victims aborted), or the result to hand back. `on_abort` sees
    /// every core whose transaction this ended.
    pub(crate) fn apply(
        &mut self,
        core: CoreId,
        verdict: &Verdict<N>,
        mem: &mut MemorySystem<N>,
        mut on_abort: impl FnMut(CoreId),
    ) -> Option<MemResult> {
        match verdict.decision {
            Decision::AbortVictims => {
                for v in verdict.hard {
                    self.abort_core(CoreId(v), mem, AbortCause::Conflict, true);
                    on_abort(CoreId(v));
                }
                None
            }
            Decision::StallRequester => {
                self.cores[core.0].tx.stats.stalls += 1;
                Some(MemResult::Stall)
            }
            Decision::AbortRequester => {
                self.abort_core(core, mem, AbortCause::Conflict, false);
                on_abort(core);
                Some(MemResult::Abort)
            }
        }
    }

    /// First half of every access: resolves whatever conflicts `kind` on
    /// `addr` raises. `None` lets the access proceed.
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
        let verdict = self.verdict(core, conflicts, |_| false);
        self.apply(core, &verdict, mem, |_| {})
    }

    /// Ends `core`'s transaction as committed: the undo log and the
    /// speculative bits are dropped.
    pub(crate) fn retire(&mut self, core: CoreId, mem: &mut MemorySystem<N>) {
        let cs = &mut self.cores[core.0];
        cs.undo.clear();
        cs.tx.commit();
        mem.clear_spec(core);
    }

    /// Completes a store that passed conflict resolution: eager version
    /// management logs the pre-speculative value, then memory is updated
    /// in place.
    pub(crate) fn plain_write(
        &mut self,
        core: CoreId,
        value: u64,
        addr: Addr,
        mem: &mut MemorySystem<N>,
    ) -> MemResult {
        let cs = &mut self.cores[core.0];
        let spec = cs.tx.is_active();
        if spec {
            cs.undo.record(mem.memory(), addr);
        }
        let latency = mem.access(core, addr, AccessKind::Write, spec);
        mem.write_word(addr, value);
        MemResult::Value { value, latency }
    }
}

impl<const N: usize> Protocol<N> for EagerTm<N> {
    fn name(&self) -> &'static str {
        match self.policy {
            ConflictPolicy::OldestWins => "eager",
            ConflictPolicy::RequesterLoses => "eager-abort",
        }
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
        if let Some(result) = self.resolve(core, addr, AccessKind::Read, mem) {
            return result;
        }
        let latency = mem.access(core, addr, AccessKind::Read, self.tx_active(core));
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
        match self.resolve(core, addr, AccessKind::Write, mem) {
            Some(result) => result,
            None => self.plain_write(core, value, addr, mem),
        }
    }

    fn commit(&mut self, core: CoreId, mem: &mut MemorySystem<N>, _now: u64) -> CommitResult {
        self.retire(core, mem);
        CommitResult::Committed {
            latency: 0,
            reg_updates: RegUpdates::EMPTY,
        }
    }

    fn stall_storm(
        &self,
        core: CoreId,
        action: StallAction,
        mem: &MemorySystem<N>,
    ) -> Option<StallStorm<N>> {
        // Commits never stall here, and a stalled retry mutates nothing
        // but the stall counter.
        let (addr, kind) = action.access()?;
        self.verdict(core, mem.conflict_mask_of(core, addr, kind), |_| false)
            .restalls()
            .then(|| StallStorm::access(CoreSet::EMPTY, addr.block()))
    }

    fn apply_stall_retries(
        &mut self,
        core: CoreId,
        _storm: &StallStorm<N>,
        n: u64,
        _mem: &mut MemorySystem<N>,
    ) {
        // n repetitions of `apply`'s StallRequester arm.
        self.cores[core.0].tx.stats.stalls += n;
    }

    fn check_quiescent(&self) -> Result<(), String> {
        self.cores.iter().enumerate().try_for_each(|(i, cs)| {
            cs.tx
                .check_quiescent(self.name(), i, ("undo log", cs.undo.len()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retcon_mem::MemConfig;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const A: Addr = Addr(0);

    fn setup(policy: ConflictPolicy) -> (MemorySystem, EagerTm) {
        (
            MemorySystem::new(MemConfig::default(), 2),
            EagerTm::new(2, policy),
        )
    }

    fn value(r: MemResult) -> u64 {
        match r {
            MemResult::Value { value, .. } => value,
            other => panic!("expected value, got {other:?}"),
        }
    }

    #[test]
    fn non_conflicting_tx_commits() {
        let (mut mem, mut tm) = setup(ConflictPolicy::OldestWins);
        tm.tx_begin(C0, 0);
        assert!(tm.tx_active(C0));
        tm.write(C0, None, 5, A, None, &mut mem, 1);
        assert_eq!(value(tm.read(C0, Reg(0), A, None, &mut mem, 2)), 5);
        let r = tm.commit(C0, &mut mem, 3);
        assert!(matches!(r, CommitResult::Committed { .. }));
        assert!(!tm.tx_active(C0));
        assert_eq!(tm.stats(C0).commits, 1);
        assert_eq!(mem.read_word(A), 5);
    }

    #[test]
    fn younger_requester_stalls_oldest_wins() {
        let (mut mem, mut tm) = setup(ConflictPolicy::OldestWins);
        tm.tx_begin(C0, 0);
        tm.write(C0, None, 5, A, None, &mut mem, 1);
        tm.tx_begin(C1, 10);
        assert_eq!(tm.read(C1, Reg(0), A, None, &mut mem, 11), MemResult::Stall);
        assert_eq!(tm.stats(C1).stalls, 1);
        // After C0 commits, C1 proceeds.
        tm.commit(C0, &mut mem, 12);
        assert_eq!(value(tm.read(C1, Reg(0), A, None, &mut mem, 13)), 5);
    }

    #[test]
    fn older_requester_aborts_younger_victim() {
        let (mut mem, mut tm) = setup(ConflictPolicy::OldestWins);
        tm.tx_begin(C1, 0);
        tm.write(C1, None, 9, A, None, &mut mem, 1);
        // C0 is older by birth 0? No: C1 born 0, C0 born 5 -> C0 younger.
        // Make C0 older: begin before C1... instead use non-tx access which
        // always wins.
        let v = value(tm.read(C0, Reg(0), A, None, &mut mem, 6));
        // C1's speculative write was rolled back before the read.
        assert_eq!(v, 0);
        assert!(tm.take_aborted(C1));
        assert!(!tm.tx_active(C1));
        assert_eq!(tm.stats(C1).aborts(), 1);
        assert_eq!(mem.read_word(A), 0);
    }

    #[test]
    fn timestamp_orders_two_txs() {
        let (mut mem, mut tm) = setup(ConflictPolicy::OldestWins);
        tm.tx_begin(C0, 0); // older
        tm.tx_begin(C1, 5); // younger
        tm.write(C1, None, 9, A, None, &mut mem, 6);
        // Older requester aborts the younger victim.
        let v = value(tm.write(C0, None, 7, A, None, &mut mem, 7));
        assert_eq!(v, 7);
        assert!(tm.take_aborted(C1));
        // C1's write rolled back, then C0's applied.
        assert_eq!(mem.read_word(A), 7);
    }

    #[test]
    fn requester_loses_policy_self_aborts() {
        let (mut mem, mut tm) = setup(ConflictPolicy::RequesterLoses);
        tm.tx_begin(C0, 0);
        tm.write(C0, None, 5, A, None, &mut mem, 1);
        tm.tx_begin(C1, 2);
        assert_eq!(tm.read(C1, Reg(0), A, None, &mut mem, 3), MemResult::Abort);
        assert!(!tm.tx_active(C1));
        // Self-aborts are reported via the return value, not the flag.
        assert!(!tm.take_aborted(C1));
        assert_eq!(tm.stats(C1).aborts_conflict, 1);
    }

    #[test]
    fn abort_restores_memory() {
        let (mut mem, mut tm) = setup(ConflictPolicy::OldestWins);
        mem.write_word(A, 100);
        tm.tx_begin(C1, 5);
        tm.write(C1, None, 1, A, None, &mut mem, 6);
        tm.write(C1, None, 2, A, None, &mut mem, 7);
        assert_eq!(mem.read_word(A), 2);
        // Non-tx reader aborts C1 and sees the pre-speculative value.
        let v = value(tm.read(C0, Reg(0), A, None, &mut mem, 8));
        assert_eq!(v, 100);
    }

    #[test]
    fn birth_survives_abort_for_fairness() {
        let (mut mem, mut tm) = setup(ConflictPolicy::OldestWins);
        tm.tx_begin(C1, 0);
        tm.write(C1, None, 1, A, None, &mut mem, 1);
        // Non-tx access aborts C1.
        let _ = tm.read(C0, Reg(0), A, None, &mut mem, 2);
        assert!(tm.take_aborted(C1));
        // Retry keeps the original birth (0), so C1 is older than a tx born
        // at cycle 5 and now wins the same conflict.
        tm.tx_begin(C1, 3);
        tm.tx_begin(C0, 5);
        tm.write(C0, None, 7, A, None, &mut mem, 6);
        let r = tm.write(C1, None, 9, A, None, &mut mem, 7);
        assert!(matches!(r, MemResult::Value { .. }));
        assert!(tm.take_aborted(C0));
    }

    #[test]
    fn read_read_sharing_no_conflict() {
        let (mut mem, mut tm) = setup(ConflictPolicy::OldestWins);
        mem.write_word(A, 3);
        tm.tx_begin(C0, 0);
        tm.tx_begin(C1, 1);
        assert_eq!(value(tm.read(C0, Reg(0), A, None, &mut mem, 2)), 3);
        assert_eq!(value(tm.read(C1, Reg(0), A, None, &mut mem, 3)), 3);
        assert!(matches!(
            tm.commit(C0, &mut mem, 4),
            CommitResult::Committed { .. }
        ));
        assert!(matches!(
            tm.commit(C1, &mut mem, 5),
            CommitResult::Committed { .. }
        ));
    }
}
