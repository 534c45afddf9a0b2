//! The paper's `lazy-vb` configuration: value-based commit validation.
//!
//! §5.1: *"we also evaluate a limited variant of RETCON in which values read
//! are not allowed to change: instead, all reads are checked to have the same
//! value at commit (at a precise byte granularity). This RETCON variant,
//! which we refer to as lazy-vb, captures commits due to laziness and
//! false/silent sharing but does not allow commits where a value read has
//! been changed remotely."*

use retcon_isa::{Addr, BlockAddr};
use retcon_mem::{AccessKind, CoreId, MemorySystem, WordLog, WriteBuffer};

use crate::result::{AbortCause, CommitResult, MemResult, ProtocolStats, RegUpdates};
use crate::tx::{tx_accessors, Tx};

#[derive(Debug, Default)]
struct CoreState {
    tx: Tx,
    wb: WriteBuffer,
    /// First-read value per word, in read order (the value log).
    rlog: WordLog,
}

impl CoreState {
    /// Drops the transaction's buffered stores and value log.
    fn discard_tx(&mut self) {
        self.wb.discard();
        self.rlog.clear();
    }
}

/// Value-based conflict detection: no speculative bits, no in-flight
/// conflicts. Every transactional read logs the value it observed (repeated
/// reads are served from the log, giving a consistent snapshot — the same
/// behaviour RETCON's initial value buffer provides after a steal); commit
/// revalidates every logged word against memory and aborts on any change,
/// then drains the write buffer. Commit is atomic with respect to other
/// cores (the simulator executes it in one step), so committed transactions
/// serialize at their commit points.
///
/// # Example
///
/// ```
/// use retcon_htm::{AnyProtocol, CommitResult, LazyVbTm};
/// use retcon_mem::{MemorySystem, MemConfig, CoreId};
/// use retcon_isa::{Addr, Reg};
///
/// let mut mem: MemorySystem = MemorySystem::new(MemConfig::default(), 2);
/// let mut tm: AnyProtocol = LazyVbTm::new(2).into();
/// tm.tx_begin(CoreId(0), 0);
/// let _ = tm.read(CoreId(0), Reg(0), Addr(0), None, &mut mem, 1);
/// // A remote write changes the value: no in-flight conflict...
/// let _ = tm.write(CoreId(1), None, 9, Addr(0), None, &mut mem, 2);
/// // ...but the commit-time value check catches it.
/// assert_eq!(tm.commit(CoreId(0), &mut mem, 3), CommitResult::Abort);
/// ```
#[derive(Debug)]
pub struct LazyVbTm<const N: usize = 1> {
    _class: core::marker::PhantomData<[u64; N]>,
    cores: Vec<CoreState>,
}

impl<const N: usize> LazyVbTm<N> {
    /// Creates the protocol for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        LazyVbTm {
            _class: core::marker::PhantomData,
            cores: (0..num_cores).map(|_| CoreState::default()).collect(),
        }
    }

    pub(crate) fn name(&self) -> &'static str {
        "lazy-vb"
    }

    pub(crate) fn tx_begin(&mut self, core: CoreId, now: u64) {
        self.cores[core.0].tx.begin(now);
    }

    tx_accessors!();

    pub(crate) fn read(
        &mut self,
        core: CoreId,
        addr: Addr,
        mem: &mut MemorySystem<N>,
    ) -> MemResult {
        let cs = &mut self.cores[core.0];
        let active = cs.tx.is_active();
        if active {
            // Own buffered stores first, then the value log. Snapshot
            // semantics: repeated reads observe the logged value even if
            // memory has moved on; validation decides at commit.
            if let Some(value) = cs.wb.read(addr).or_else(|| cs.rlog.get(addr)) {
                return MemResult::Value { value, latency: 1 };
            }
        }
        let latency = mem.access(core, addr, AccessKind::Read, false);
        let value = mem.read_word(addr);
        if active {
            self.cores[core.0].rlog.insert_first(addr, || value);
        }
        MemResult::Value { value, latency }
    }

    pub(crate) fn write(
        &mut self,
        core: CoreId,
        value: u64,
        addr: Addr,
        mem: &mut MemorySystem<N>,
    ) -> MemResult {
        if self.tx_active(core) {
            self.cores[core.0].wb.write(addr, value);
            return MemResult::Value { value, latency: 1 };
        }
        let latency = mem.access(core, addr, AccessKind::Write, false);
        mem.write_word(addr, value);
        MemResult::Value { value, latency }
    }

    pub(crate) fn commit(&mut self, core: CoreId, mem: &mut MemorySystem<N>) -> CommitResult {
        let cs = &mut self.cores[core.0];
        // Step 1: reacquire and revalidate every read word by value.
        let mut latency = 0;
        let mut acquired: Option<BlockAddr> = None;
        let valid = cs.rlog.iter().all(|(addr, expected)| {
            if acquired != Some(addr.block()) {
                latency += mem.access(core, addr, AccessKind::Read, false);
                acquired = Some(addr.block());
            }
            mem.read_word(addr) == expected
        });
        if !valid {
            cs.discard_tx();
            cs.tx.abort(AbortCause::Validation, false);
            mem.clear_spec(core);
            return CommitResult::Abort;
        }
        // Step 2: drain the write buffer.
        for (addr, value) in cs.wb.iter() {
            latency += mem.access(core, addr, AccessKind::Write, false);
            mem.write_word(addr, value);
        }
        cs.discard_tx();
        cs.tx.commit();
        CommitResult::Committed {
            latency,
            reg_updates: RegUpdates::EMPTY,
        }
    }

    pub(crate) fn check_quiescent(&self) -> Result<(), String> {
        for (i, cs) in self.cores.iter().enumerate() {
            cs.tx
                .check_quiescent("lazy-vb", i, ("write buffer", cs.wb.len()))?;
            if !cs.rlog.is_empty() {
                return Err(format!(
                    "lazy-vb: core {i} value log holds {} entries at quiescence",
                    cs.rlog.len()
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

    fn setup() -> (MemorySystem, LazyVbTm) {
        (MemorySystem::new(MemConfig::default(), 2), LazyVbTm::new(2))
    }

    fn value(r: MemResult) -> u64 {
        match r {
            MemResult::Value { value, .. } => value,
            other => panic!("expected value, got {other:?}"),
        }
    }

    #[test]
    fn unchanged_values_commit() {
        let (mut mem, mut tm) = setup();
        mem.write_word(A, 3);
        tm.tx_begin(C0, 0);
        assert_eq!(value(tm.read(C0, A, &mut mem)), 3);
        tm.write(C0, 4, A, &mut mem);
        assert!(matches!(
            tm.commit(C0, &mut mem),
            CommitResult::Committed { .. }
        ));
        assert_eq!(mem.read_word(A), 4);
        assert_eq!(tm.stats(C0).commits, 1);
    }

    #[test]
    fn changed_value_aborts_at_commit() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        assert_eq!(value(tm.read(C0, A, &mut mem)), 0);
        // Remote non-tx write changes the value mid-flight: no in-flight
        // conflict under value-based detection...
        let _ = tm.write(C1, 9, A, &mut mem);
        // ...but commit-time validation catches it.
        assert_eq!(tm.commit(C0, &mut mem), CommitResult::Abort);
        assert_eq!(tm.stats(C0).aborts_validation, 1);
    }

    #[test]
    fn silent_store_commits() {
        // The write changed the word and changed it back ("temporally silent
        // sharing"): value validation admits the commit where bit-based
        // eager detection would have aborted.
        let (mut mem, mut tm) = setup();
        mem.write_word(A, 5);
        tm.tx_begin(C0, 0);
        assert_eq!(value(tm.read(C0, A, &mut mem)), 5);
        let _ = tm.write(C1, 9, A, &mut mem);
        let _ = tm.write(C1, 5, A, &mut mem);
        assert!(matches!(
            tm.commit(C0, &mut mem),
            CommitResult::Committed { .. }
        ));
    }

    #[test]
    fn false_sharing_commits() {
        // Remote write to a *different word of the same block* is invisible
        // to value validation (the paper: lazy-vb avoids false-sharing
        // conflicts).
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        assert_eq!(value(tm.read(C0, Addr(0), &mut mem)), 0);
        let _ = tm.write(C1, 7, Addr(1), &mut mem);
        assert!(matches!(
            tm.commit(C0, &mut mem),
            CommitResult::Committed { .. }
        ));
    }

    #[test]
    fn snapshot_reads_are_stable() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        assert_eq!(value(tm.read(C0, A, &mut mem)), 0);
        let _ = tm.write(C1, 9, A, &mut mem);
        // The second read returns the logged value, not the remote update.
        assert_eq!(value(tm.read(C0, A, &mut mem)), 0);
        assert_eq!(tm.commit(C0, &mut mem), CommitResult::Abort);
    }

    #[test]
    fn own_writes_forward() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        tm.write(C0, 8, A, &mut mem);
        assert_eq!(value(tm.read(C0, A, &mut mem)), 8);
        // A read that only ever saw own writes does not validate against
        // memory at all.
        assert!(matches!(
            tm.commit(C0, &mut mem),
            CommitResult::Committed { .. }
        ));
    }

    #[test]
    fn racing_increments_lose_exactly_one() {
        // Both read 0, both +1. The first committer wins; the second fails
        // validation — no lost update.
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        tm.tx_begin(C1, 1);
        let v0 = value(tm.read(C0, A, &mut mem));
        let v1 = value(tm.read(C1, A, &mut mem));
        tm.write(C0, v0 + 1, A, &mut mem);
        tm.write(C1, v1 + 1, A, &mut mem);
        assert!(matches!(
            tm.commit(C0, &mut mem),
            CommitResult::Committed { .. }
        ));
        assert_eq!(tm.commit(C1, &mut mem), CommitResult::Abort);
        assert_eq!(mem.read_word(A), 1);
    }
}
