//! Explore-sized workload variants.
//!
//! The schedule-exploration subsystem (`retcon-explore`) runs thousands to
//! millions of interleavings per configuration, so its workloads must be
//! *small* — a handful of transactions per core — while still exercising
//! the conflict patterns the full-size workloads are built around. Each
//! builder here returns the [`WorkloadSpec`] together with an exact
//! serial-order oracle: the commutative transaction bodies (additive
//! updates, conserving transfers) make the final state identical under
//! *every* serializable commit order, so the oracle is valid for any
//! explored schedule — a violation is a genuine serializability bug, never
//! an artifact of reordering.

use retcon_isa::{Addr, BinOp, CmpOp, Operand, ProgramBuilder, Reg};

use crate::spec::{Alloc, WorkloadSpec};
use crate::SplitMix64;

/// The shared-counter micro-workload at explore size: every transaction
/// increments the one shared counter twice (the Figure 2 schedule), `iters`
/// transactions per core.
///
/// Oracle: final counter value is exactly [`counter_expected`] under any
/// serializable schedule.
pub fn counter(num_cores: usize, iters: u64) -> WorkloadSpec {
    let mut alloc = Alloc::new();
    let addr = alloc.alloc_words(1);
    let mut programs = Vec::with_capacity(num_cores);
    for _ in 0..num_cores {
        let mut b = ProgramBuilder::new();
        let body = b.block();
        let done = b.block();
        b.imm(Reg(0), iters);
        b.imm(Reg(1), addr.0);
        b.jump(body);
        b.select(body);
        b.tx_begin();
        for i in 0..2 {
            b.load(Reg(2), Reg(1), 0);
            b.bin(BinOp::Add, Reg(2), Reg(2), Operand::Imm(1));
            b.store(Operand::Reg(Reg(2)), Reg(1), 0);
            if i == 0 {
                b.work(5);
            }
        }
        b.tx_commit();
        b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
        b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
        b.select(done);
        b.halt();
        programs.push(b.build().expect("explore counter program is well-formed"));
    }
    WorkloadSpec {
        name: "x-counter",
        tapes: vec![Vec::new(); num_cores],
        init: Vec::new(),
        programs,
    }
}

/// The exact final counter value for [`counter`]: two increments per
/// transaction, `iters` transactions per core.
pub fn counter_expected(num_cores: usize, iters: u64) -> u64 {
    2 * iters * num_cores as u64
}

/// A counter-pool workload: each transaction picks one of `pool`
/// block-private counters by tape (seeded), increments it `incs` times,
/// and commits. Returns the spec and the exact expected final value of
/// every counter (valid under any serializable schedule — increments
/// commute).
pub fn pool(
    num_cores: usize,
    pool: u64,
    iters: u64,
    incs: u32,
    seed: u64,
) -> (WorkloadSpec, Vec<u64>) {
    assert!(pool > 0 && incs > 0);
    let mut programs = Vec::with_capacity(num_cores);
    for _ in 0..num_cores {
        let mut b = ProgramBuilder::new();
        let body = b.block();
        let done = b.block();
        b.imm(Reg(0), iters);
        b.jump(body);
        b.select(body);
        b.input(Reg(1));
        b.bin(BinOp::Mod, Reg(1), Reg(1), Operand::Imm(pool as i64));
        b.bin(BinOp::Shl, Reg(1), Reg(1), Operand::Imm(3)); // one block each
        b.tx_begin();
        for i in 0..incs {
            b.load(Reg(2), Reg(1), 0);
            b.bin(BinOp::Add, Reg(2), Reg(2), Operand::Imm(1));
            b.store(Operand::Reg(Reg(2)), Reg(1), 0);
            if i + 1 < incs {
                b.work(3);
            }
        }
        b.tx_commit();
        b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
        b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
        b.select(done);
        b.halt();
        programs.push(b.build().expect("explore pool program is well-formed"));
    }
    let mut rng = SplitMix64::new(seed);
    let mut expected = vec![0u64; pool as usize];
    let tapes: Vec<Vec<u64>> = (0..num_cores)
        .map(|_| {
            (0..iters)
                .map(|_| {
                    let v = rng.next_u64() >> 8;
                    expected[(v % pool) as usize] += incs as u64;
                    v
                })
                .collect()
        })
        .collect();
    (
        WorkloadSpec {
            name: "x-pool",
            tapes,
            init: Vec::new(),
            programs,
        },
        expected,
    )
}

/// A transfer workload: each transaction moves one unit from a
/// tape-chosen source counter to a tape-chosen destination counter when
/// the source is positive (a branchy, non-additive body). Returns the
/// spec and the conserved total — the sum over the pool never changes
/// under any serializable schedule.
pub fn transfer(num_cores: usize, pool: u64, iters: u64, seed: u64) -> (WorkloadSpec, u64) {
    assert!(pool > 0);
    const INITIAL: u64 = 100;
    let mut programs = Vec::with_capacity(num_cores);
    for _ in 0..num_cores {
        let mut b = ProgramBuilder::new();
        let body = b.block();
        let transfer = b.block();
        let skip = b.block();
        let done = b.block();
        b.imm(Reg(0), iters);
        b.jump(body);
        b.select(body);
        b.input(Reg(1)); // source index
        b.input(Reg(2)); // destination index
        b.bin(BinOp::Mod, Reg(1), Reg(1), Operand::Imm(pool as i64));
        b.bin(BinOp::Shl, Reg(1), Reg(1), Operand::Imm(3));
        b.bin(BinOp::Mod, Reg(2), Reg(2), Operand::Imm(pool as i64));
        b.bin(BinOp::Shl, Reg(2), Reg(2), Operand::Imm(3));
        b.tx_begin();
        b.load(Reg(3), Reg(1), 0);
        b.branch(CmpOp::Gt, Reg(3), Operand::Imm(0), transfer, skip);
        b.select(transfer);
        b.bin(BinOp::Sub, Reg(3), Reg(3), Operand::Imm(1));
        b.store(Operand::Reg(Reg(3)), Reg(1), 0);
        b.load(Reg(4), Reg(2), 0);
        b.bin(BinOp::Add, Reg(4), Reg(4), Operand::Imm(1));
        b.store(Operand::Reg(Reg(4)), Reg(2), 0);
        b.jump(skip);
        b.select(skip);
        b.tx_commit();
        b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
        b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
        b.select(done);
        b.halt();
        programs.push(b.build().expect("explore transfer program is well-formed"));
    }
    let mut rng = SplitMix64::new(seed);
    let tapes: Vec<Vec<u64>> = (0..num_cores)
        .map(|_| (0..2 * iters).map(|_| rng.next_u64() >> 8).collect())
        .collect();
    (
        WorkloadSpec {
            name: "x-transfer",
            tapes,
            init: (0..pool).map(|i| (Addr(i * 8), INITIAL)).collect(),
            programs,
        },
        INITIAL * pool,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_spec, System};

    #[test]
    fn counter_oracle_holds_under_default_schedule() {
        let spec = counter(3, 4);
        for p in &spec.programs {
            assert!(p.validate().is_ok());
        }
        let cfg = retcon_sim::SimConfig::with_cores(3);
        let mut m = retcon_sim::Machine::new(cfg, System::Eager.protocol(3), spec.programs.clone());
        let report = m.run().expect("runs");
        assert_eq!(report.protocol.commits, 12);
        assert_eq!(m.mem().read_word(Addr(0)), counter_expected(3, 4));
    }

    #[test]
    fn pool_oracle_matches_tape_replay() {
        let (spec, expected) = pool(3, 4, 5, 2, 9);
        let cfg = retcon_sim::SimConfig::with_cores(3);
        let mut m =
            retcon_sim::Machine::new(cfg, System::Retcon.protocol(3), spec.programs.clone());
        for (i, tape) in spec.tapes.iter().enumerate() {
            m.set_tape(i, tape.clone());
        }
        m.run().expect("runs");
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(m.mem().read_word(Addr(i as u64 * 8)), want, "counter {i}");
        }
        assert_eq!(expected.iter().sum::<u64>(), 3 * 5 * 2);
    }

    #[test]
    fn transfer_conserves_total() {
        let (spec, total) = transfer(2, 3, 6, 11);
        let report = run_spec(&spec, System::LazyVb, 2).expect("runs");
        assert_eq!(report.protocol.commits, 12);
        let cfg = retcon_sim::SimConfig::with_cores(2);
        let mut m =
            retcon_sim::Machine::new(cfg, System::LazyVb.protocol(2), spec.programs.clone());
        for (i, tape) in spec.tapes.iter().enumerate() {
            m.set_tape(i, tape.clone());
        }
        for &(addr, value) in &spec.init {
            m.init_word(addr, value);
        }
        m.run().expect("runs");
        let sum: u64 = (0..3).map(|i| m.mem().read_word(Addr(i * 8))).sum();
        assert_eq!(sum, total);
    }
}
