//! Lazy conflict detection with committer-wins resolution (Figure 2(e)).

use retcon_isa::{Addr, Reg};
use retcon_mem::{AccessKind, CoreId, MemorySystem, WriteBuffer};

use crate::protocol::Protocol;
use crate::result::{AbortCause, CommitResult, MemResult, ProtocolStats, RegUpdates};
use crate::tx::{tx_accessors, Tx};

#[derive(Debug, Default)]
struct CoreState {
    tx: Tx,
    wb: WriteBuffer,
}

/// A lazy (commit-time conflict detection) HTM: speculative stores are
/// buffered locally and published at commit, which invalidates — and aborts —
/// every transaction that speculatively read the written blocks
/// ("committer wins"). Reads set speculative-read bits so the committer can
/// find its victims; writes touch no coherence state until commit.
///
/// This reproduces the LazyTM behaviour of Figure 2(e): a transaction may
/// run to its own commit point, but loses to any earlier committer it raced
/// with.
#[derive(Debug)]
pub struct LazyTm<const N: usize = 1> {
    _class: core::marker::PhantomData<[u64; N]>,
    cores: Vec<CoreState>,
}

impl<const N: usize> LazyTm<N> {
    /// Creates the protocol for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        LazyTm {
            _class: core::marker::PhantomData,
            cores: (0..num_cores).map(|_| CoreState::default()).collect(),
        }
    }

    /// Makes a store visible — a committing transaction's or a
    /// non-transactional one. The writer wins: every transaction that
    /// speculatively read the block aborts (ascending core order). Returns
    /// the store's latency.
    fn publish(&mut self, core: CoreId, addr: Addr, value: u64, mem: &mut MemorySystem<N>) -> u64 {
        for victim in mem.conflict_mask_of(core, addr, AccessKind::Write) {
            let cs = &mut self.cores[victim];
            cs.wb.discard();
            mem.clear_spec(CoreId(victim));
            cs.tx.abort(AbortCause::Conflict, true);
        }
        let latency = mem.access(core, addr, AccessKind::Write, false);
        mem.write_word(addr, value);
        latency
    }
}

impl<const N: usize> Protocol<N> for LazyTm<N> {
    fn name(&self) -> &'static str {
        "lazy"
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
        let active = self.tx_active(core);
        if active {
            if let Some(v) = self.cores[core.0].wb.read(addr) {
                return MemResult::Value {
                    value: v,
                    latency: 1,
                };
            }
        }
        // No write ever sets speculative-written bits under this protocol,
        // so reads cannot conflict.
        debug_assert!(!mem.has_conflicts(core, addr, AccessKind::Read));
        let latency = mem.access(core, addr, AccessKind::Read, active);
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
        if self.tx_active(core) {
            // Lazy version management: buffer locally, no coherence action.
            self.cores[core.0].wb.write(addr, value);
            return MemResult::Value { value, latency: 1 };
        }
        let latency = self.publish(core, addr, value, mem);
        MemResult::Value { value, latency }
    }

    fn commit(&mut self, core: CoreId, mem: &mut MemorySystem<N>, _now: u64) -> CommitResult {
        // Take the buffer so its entries can be drained while `self` aborts
        // victims; hand the allocation back afterwards (steady-state commits
        // allocate nothing).
        let wb = std::mem::take(&mut self.cores[core.0].wb);
        let mut latency = 0;
        for (addr, value) in wb.iter() {
            latency += self.publish(core, addr, value, mem);
        }
        let cs = &mut self.cores[core.0];
        cs.wb = wb;
        cs.wb.discard();
        cs.tx.commit();
        mem.clear_spec(core);
        CommitResult::Committed {
            latency,
            reg_updates: RegUpdates::EMPTY,
        }
    }

    fn check_quiescent(&self) -> Result<(), String> {
        self.cores.iter().enumerate().try_for_each(|(i, cs)| {
            cs.tx
                .check_quiescent("lazy", i, ("write buffer", cs.wb.len()))
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

    fn setup() -> (MemorySystem, LazyTm) {
        (MemorySystem::new(MemConfig::default(), 2), LazyTm::new(2))
    }

    fn value(r: MemResult) -> u64 {
        match r {
            MemResult::Value { value, .. } => value,
            other => panic!("expected value, got {other:?}"),
        }
    }

    #[test]
    fn writes_invisible_until_commit() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        tm.write(C0, None, 5, A, None, &mut mem, 1);
        assert_eq!(mem.read_word(A), 0);
        // Own reads forward from the write buffer.
        assert_eq!(value(tm.read(C0, Reg(0), A, None, &mut mem, 2)), 5);
        // Remote reads see the old value and do not conflict in flight.
        assert_eq!(value(tm.read(C1, Reg(0), A, None, &mut mem, 3)), 0);
        tm.commit(C0, &mut mem, 4);
        assert_eq!(mem.read_word(A), 5);
    }

    #[test]
    fn committer_aborts_speculative_readers() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        tm.tx_begin(C1, 1);
        // C1 reads A speculatively; C0 writes A and commits first.
        let _ = tm.read(C1, Reg(0), A, None, &mut mem, 2);
        tm.write(C0, None, 5, A, None, &mut mem, 3);
        let r = tm.commit(C0, &mut mem, 4);
        assert!(matches!(r, CommitResult::Committed { .. }));
        assert!(tm.take_aborted(C1));
        assert_eq!(tm.stats(C1).aborts(), 1);
        assert!(!tm.tx_active(C1));
    }

    #[test]
    fn disjoint_txs_both_commit() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C0, 0);
        tm.tx_begin(C1, 1);
        tm.write(C0, None, 5, Addr(0), None, &mut mem, 2);
        tm.write(C1, None, 7, Addr(64), None, &mut mem, 3);
        assert!(matches!(
            tm.commit(C0, &mut mem, 4),
            CommitResult::Committed { .. }
        ));
        assert!(matches!(
            tm.commit(C1, &mut mem, 5),
            CommitResult::Committed { .. }
        ));
        assert_eq!(mem.read_word(Addr(0)), 5);
        assert_eq!(mem.read_word(Addr(64)), 7);
        assert!(!tm.take_aborted(C0) && !tm.take_aborted(C1));
    }

    #[test]
    fn aborted_tx_buffer_discarded() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C1, 0);
        tm.write(C1, None, 9, A, None, &mut mem, 1);
        let _ = tm.read(C1, Reg(0), Addr(64), None, &mut mem, 2);
        // C0 commits a write to the block C1 read: C1 aborts; its buffered
        // store to A must never surface.
        tm.tx_begin(C0, 3);
        tm.write(C0, None, 1, Addr(64), None, &mut mem, 4);
        tm.commit(C0, &mut mem, 5);
        assert!(tm.take_aborted(C1));
        assert_eq!(mem.read_word(A), 0);
    }

    #[test]
    fn non_tx_write_aborts_readers() {
        let (mut mem, mut tm) = setup();
        tm.tx_begin(C1, 0);
        let _ = tm.read(C1, Reg(0), A, None, &mut mem, 1);
        let _ = tm.write(C0, None, 3, A, None, &mut mem, 2);
        assert!(tm.take_aborted(C1));
        assert_eq!(mem.read_word(A), 3);
    }
}
