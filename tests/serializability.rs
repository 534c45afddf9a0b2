//! Serializability property tests: under every protocol, committed
//! transactions must be equivalent to some serial order.
//!
//! For commutative counter increments this has a crisp check: the final
//! counter value equals the number of committed increments — no lost
//! updates, no phantom updates — regardless of protocol, core count or
//! contention level.

use proptest::prelude::*;

use retcon_isa::{Addr, BinOp, CmpOp, Operand, Program, ProgramBuilder, Reg};
use retcon_sim::{Machine, SimConfig};
use retcon_workloads::System;

/// A program where each transaction picks a counter from a pool of
/// `pool` counters (tape-driven), increments it `incs` times, and spins
/// some work between increments.
fn pool_counter_program(pool: u64, iters: u64, incs: u32, work: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let body = b.block();
    let done = b.block();
    b.imm(Reg(0), iters);
    b.jump(body);
    b.select(body);
    b.input(Reg(1));
    b.bin(BinOp::Mod, Reg(1), Reg(1), Operand::Imm(pool as i64));
    b.bin(BinOp::Shl, Reg(1), Reg(1), Operand::Imm(3)); // one block per counter
    b.tx_begin();
    for i in 0..incs {
        b.load(Reg(2), Reg(1), 0);
        b.add_imm(Reg(2), 1);
        b.store(Operand::Reg(Reg(2)), Reg(1), 0);
        if i + 1 < incs && work > 0 {
            b.work(work);
        }
    }
    b.tx_commit();
    b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
    b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
    b.select(done);
    b.halt();
    b.build().expect("program is well-formed")
}

fn total_of_pool(machine: &Machine, pool: u64) -> u64 {
    (0..pool)
        .map(|i| machine.mem().read_word(Addr(i * 8)))
        .sum()
}

fn check_no_lost_updates(
    system: System,
    cores: usize,
    pool: u64,
    iters: u64,
    incs: u32,
    work: u32,
    seed: u64,
) {
    let cfg = SimConfig::with_cores(cores);
    let mut machine = Machine::new(
        cfg,
        system.protocol(cores),
        (0..cores)
            .map(|_| pool_counter_program(pool, iters, incs, work))
            .collect::<Vec<_>>(),
    );
    let mut rng = retcon_workloads::SplitMix64::new(seed);
    for c in 0..cores {
        machine.set_tape(c, (0..iters).map(|_| rng.next_u64() >> 8).collect());
    }
    let report = machine.run().expect("run completes");
    let expected = report.protocol.commits * incs as u64;
    assert_eq!(
        total_of_pool(&machine, pool),
        expected,
        "lost/phantom updates under {} (cores={cores} pool={pool} incs={incs})",
        system.label()
    );
    // Every transaction eventually commits exactly once.
    assert_eq!(report.protocol.commits, cores as u64 * iters);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn eager_counter_pool_serializable(
        cores in 1usize..6,
        pool in 1u64..5,
        incs in 1u32..4,
        work in 0u32..30,
        seed in any::<u64>(),
    ) {
        check_no_lost_updates(System::Eager, cores, pool, 16, incs, work, seed);
    }

    #[test]
    fn lazy_counter_pool_serializable(
        cores in 1usize..6,
        pool in 1u64..5,
        incs in 1u32..4,
        work in 0u32..30,
        seed in any::<u64>(),
    ) {
        check_no_lost_updates(System::Lazy, cores, pool, 16, incs, work, seed);
    }

    #[test]
    fn lazy_vb_counter_pool_serializable(
        cores in 1usize..6,
        pool in 1u64..5,
        incs in 1u32..4,
        work in 0u32..30,
        seed in any::<u64>(),
    ) {
        check_no_lost_updates(System::LazyVb, cores, pool, 16, incs, work, seed);
    }

    #[test]
    fn retcon_counter_pool_serializable(
        cores in 1usize..6,
        pool in 1u64..5,
        incs in 1u32..4,
        work in 0u32..30,
        seed in any::<u64>(),
    ) {
        check_no_lost_updates(System::Retcon, cores, pool, 16, incs, work, seed);
    }

    #[test]
    fn retcon_ideal_counter_pool_serializable(
        cores in 1usize..6,
        pool in 1u64..5,
        incs in 1u32..4,
        seed in any::<u64>(),
    ) {
        check_no_lost_updates(System::RetconIdeal, cores, pool, 16, incs, 10, seed);
    }

    #[test]
    fn datm_counter_pool_serializable(
        cores in 1usize..5,
        pool in 1u64..4,
        incs in 1u32..3,
        seed in any::<u64>(),
    ) {
        check_no_lost_updates(System::Datm, cores, pool, 12, incs, 10, seed);
    }
}

/// Mixed read-write transactions with branches: each transaction moves one
/// unit from counter A to counter B when A is positive. Conservation: the
/// sum across all counters never changes.
#[test]
fn transfer_conservation_under_all_systems() {
    let pool = 4u64;
    let cores = 4usize;
    let iters = 32u64;
    let build = || {
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
        b.add_imm(Reg(4), 1);
        b.store(Operand::Reg(Reg(4)), Reg(2), 0);
        b.jump(skip);
        b.select(skip);
        b.tx_commit();
        b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
        b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
        b.select(done);
        b.halt();
        b.build().expect("program is well-formed")
    };
    for system in [
        System::Eager,
        System::Lazy,
        System::LazyVb,
        System::Retcon,
        System::RetconIdeal,
    ] {
        let mut machine = Machine::new(
            SimConfig::with_cores(cores),
            system.protocol(cores),
            (0..cores).map(|_| build()).collect::<Vec<_>>(),
        );
        let initial_total = 1000 * pool;
        for i in 0..pool {
            machine.init_word(Addr(i * 8), 1000);
        }
        let mut rng = retcon_workloads::SplitMix64::new(17);
        for c in 0..cores {
            machine.set_tape(c, (0..2 * iters).map(|_| rng.next_u64() >> 8).collect());
        }
        machine.run().expect("run completes");
        let total: u64 = (0..pool)
            .map(|i| machine.mem().read_word(Addr(i * 8)))
            .sum();
        assert_eq!(
            total,
            initial_total,
            "conservation violated under {}",
            system.label()
        );
    }
}
