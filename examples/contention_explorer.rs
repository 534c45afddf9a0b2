//! Where does symbolic repair stop helping? A contention sweep.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example contention_explorer
//! ```
//!
//! Transactions update one counter chosen from a pool; shrinking the pool
//! raises contention. Every update is an increment (repairable), so RETCON
//! should hold its speedup all the way to a single white-hot counter, while
//! the eager baseline decays. The sweep also flips the update to a multiply
//! (untrackable) to show the repair advantage disappearing — §5.4's "a
//! repair-based approach is not always the right one" in miniature.

use retcon_isa::{BinOp, CmpOp, Operand, ProgramBuilder, Reg};
use retcon_sim::{Machine, SimConfig};
use retcon_workloads::{SplitMix64, System};

const CORES: usize = 16;
const TXS_PER_CORE: u64 = 128;

fn build_program(pool: u64, trackable: bool) -> retcon_isa::Program {
    let mut b = ProgramBuilder::new();
    let body = b.block();
    let done = b.block();
    b.imm(Reg(0), TXS_PER_CORE);
    b.jump(body);
    b.select(body);
    b.input(Reg(10));
    b.tx_begin();
    b.work(300);
    // address = (key % pool) * 8
    b.bin(BinOp::Mod, Reg(10), Reg(10), Operand::Imm(pool as i64));
    b.bin(BinOp::Shl, Reg(10), Reg(10), Operand::Imm(3));
    b.load(Reg(2), Reg(10), 0);
    if trackable {
        b.bin(BinOp::Add, Reg(2), Reg(2), Operand::Imm(1));
    } else {
        b.bin(BinOp::Mul, Reg(2), Reg(2), Operand::Imm(3));
        b.bin(BinOp::Add, Reg(2), Reg(2), Operand::Imm(1));
    }
    b.store(Operand::Reg(Reg(2)), Reg(10), 0);
    b.tx_commit();
    b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
    b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
    b.select(done);
    b.halt();
    b.build().expect("program is well-formed")
}

fn run(system: System, pool: u64, trackable: bool) -> u64 {
    let mut machine = Machine::new(
        SimConfig::with_cores(CORES),
        system.protocol(CORES),
        (0..CORES)
            .map(|_| build_program(pool, trackable))
            .collect::<Vec<_>>(),
    );
    let mut rng = SplitMix64::new(3);
    for core in 0..CORES {
        machine.set_tape(
            core,
            (0..TXS_PER_CORE).map(|_| rng.next_u64() >> 8).collect(),
        );
    }
    machine.run().expect("run completes").cycles
}

fn main() {
    println!("contention sweep, {CORES} cores, one counter update per transaction\n");
    println!("-- repairable updates (increment) --");
    println!(
        "{:>12} {:>12} {:>12} {:>9}",
        "pool size", "eager cyc", "RetCon cyc", "RetCon+"
    );
    for pool in [1024u64, 64, 8, 1] {
        let eager = run(System::Eager, pool, true);
        let retcon = run(System::Retcon, pool, true);
        println!(
            "{:>12} {:>12} {:>12} {:>8.1}x",
            pool,
            eager,
            retcon,
            eager as f64 / retcon as f64
        );
    }
    println!("\n-- untrackable updates (multiply) --");
    println!(
        "{:>12} {:>12} {:>12} {:>9}",
        "pool size", "eager cyc", "RetCon cyc", "RetCon+"
    );
    for pool in [1024u64, 64, 8, 1] {
        let eager = run(System::Eager, pool, false);
        let retcon = run(System::Retcon, pool, false);
        println!(
            "{:>12} {:>12} {:>12} {:>8.1}x",
            pool,
            eager,
            retcon,
            eager as f64 / retcon as f64
        );
    }
    println!("\nIncrements stay repairable at any contention; multiplies force");
    println!("equality constraints, so RETCON degrades to the eager baseline.");
}
