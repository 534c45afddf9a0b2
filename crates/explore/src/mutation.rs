//! The mutation-test protocol: an intentionally-broken TM the oracles
//! must catch.
//!
//! [`LostUpdateTm`] models the classic *lost update* bug: it serializes
//! write-write conflicts (a block's first transactional writer holds it
//! until commit; later writers stall), but performs **no read validation**
//! whatsoever. Two transactions that both read a counter before either
//! writes it will both base their update on the same initial value — the
//! second commit silently swallows the first's increment. No abort, no
//! stall on the racing read: every interleaving that separates a
//! transaction's read from its write across another's read-modify-write
//! loses an update.
//!
//! The shim exists to mutation-test the exploration oracles (a search
//! harness that cannot flag this protocol is not testing anything) and,
//! because it is driven through `Box<dyn Protocol>` →
//! [`AnyProtocol::Dyn`](retcon_htm::AnyProtocol), it is also the first
//! full-machine coverage of the `Dyn` adapter parity path beyond unit
//! tests.

use retcon_isa::{Addr, Reg};
use retcon_mem::{AccessKind, CoreId, Footprints, MemorySystem, SpecBits};

use retcon_htm::{CommitResult, MemResult, Protocol, ProtocolStats, RegUpdates};

#[derive(Debug, Default)]
struct CoreState {
    active: bool,
    stats: ProtocolStats,
}

/// A deliberately-unserializable TM: write-write conflicts stall, reads
/// validate nothing (see module docs).
#[derive(Debug)]
pub struct LostUpdateTm {
    cores: Vec<CoreState>,
    /// The blocks each active transaction owns for writing (released at
    /// commit).
    owned: Footprints,
}

impl LostUpdateTm {
    /// Creates the shim for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        LostUpdateTm {
            cores: (0..num_cores).map(|_| CoreState::default()).collect(),
            owned: Footprints::new(num_cores),
        }
    }
}

impl Protocol for LostUpdateTm {
    fn name(&self) -> &'static str {
        "lost-update"
    }

    fn tx_begin(&mut self, core: CoreId, _now: u64) {
        self.cores[core.0].active = true;
    }

    fn tx_active(&self, core: CoreId) -> bool {
        self.cores[core.0].active
    }

    fn read(
        &mut self,
        core: CoreId,
        _dst: Reg,
        addr: Addr,
        _addr_reg: Option<Reg>,
        mem: &mut MemorySystem,
        _now: u64,
    ) -> MemResult {
        // The bug: transactional reads are never tracked or validated.
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
        mem: &mut MemorySystem,
        _now: u64,
    ) -> MemResult {
        if self.cores[core.0].active {
            let block = addr.block().0;
            if !self.owned.other_writers(core.0, block).is_empty() {
                // Another active transaction owns the block: wait for its
                // commit. (Write-write conflicts are the only ones this
                // protocol notices.)
                self.cores[core.0].stats.stalls += 1;
                return MemResult::Stall;
            }
            self.owned.mark(core.0, block, SpecBits::WRITTEN);
        }
        let latency = mem.access(core, addr, AccessKind::Write, false);
        mem.write_word(addr, value);
        MemResult::Value { value, latency }
    }

    fn commit(&mut self, core: CoreId, _mem: &mut MemorySystem, _now: u64) -> CommitResult {
        let cs = &mut self.cores[core.0];
        debug_assert!(cs.active);
        self.owned.clear_core(core.0, |_| {});
        cs.active = false;
        cs.stats.commits += 1;
        CommitResult::Committed {
            latency: 0,
            reg_updates: RegUpdates::EMPTY,
        }
    }

    fn take_aborted(&mut self, _core: CoreId) -> bool {
        false
    }

    fn stats(&self, core: CoreId) -> &ProtocolStats {
        &self.cores[core.0].stats
    }

    fn check_quiescent(&self) -> Result<(), String> {
        for (i, cs) in self.cores.iter().enumerate() {
            if cs.active {
                return Err(format!("lost-update: core {i} still active"));
            }
            let held = self.owned.blocks(i).count();
            if held != 0 {
                return Err(format!(
                    "lost-update: core {i} holds {held} blocks at quiescence"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Addr = Addr(0);

    #[test]
    fn loses_an_update_when_reads_interleave() {
        let mut mem = MemorySystem::new(retcon_mem::MemConfig::default(), 2);
        let mut tm = LostUpdateTm::new(2);
        tm.tx_begin(CoreId(0), 0);
        tm.tx_begin(CoreId(1), 0);
        let v0 = match tm.read(CoreId(0), Reg(1), A, None, &mut mem, 1) {
            MemResult::Value { value, .. } => value,
            other => panic!("{other:?}"),
        };
        let v1 = match tm.read(CoreId(1), Reg(1), A, None, &mut mem, 1) {
            MemResult::Value { value, .. } => value,
            other => panic!("{other:?}"),
        };
        // Both transactions read 0; their writes serialize via ownership,
        // but the second overwrites with its stale increment.
        assert!(matches!(
            tm.write(CoreId(0), None, v0 + 1, A, None, &mut mem, 2),
            MemResult::Value { .. }
        ));
        assert!(matches!(
            tm.write(CoreId(1), None, v1 + 1, A, None, &mut mem, 2),
            MemResult::Stall
        ));
        assert!(matches!(
            tm.commit(CoreId(0), &mut mem, 3),
            CommitResult::Committed { .. }
        ));
        assert!(matches!(
            tm.write(CoreId(1), None, v1 + 1, A, None, &mut mem, 4),
            MemResult::Value { .. }
        ));
        assert!(matches!(
            tm.commit(CoreId(1), &mut mem, 5),
            CommitResult::Committed { .. }
        ));
        assert_eq!(mem.read_word(A), 1, "two increments, one survivor");
        assert!(tm.check_quiescent().is_ok());
    }
}
