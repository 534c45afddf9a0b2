//! The resizable-hashtable bottleneck (`genome-sz`), built by hand from the
//! public APIs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example hashtable_resize
//! ```
//!
//! This example does not use a canned workload: it assembles its own
//! programs with [`ProgramBuilder`] and the [`HashTable`] emitter, wires
//! them into a [`Machine`] with the protocol of its choice, and inspects
//! final memory — the workflow a user extending this library would follow.
//! Every transaction inserts a distinct key (no semantic conflicts), yet
//! with a size field each insert increments one shared word; the example
//! shows eager collapsing and RETCON not caring, and verifies the size
//! field is exact either way.

use retcon_isa::{Addr, BinOp, CmpOp, Operand, ProgramBuilder, Reg};
use retcon_sim::{Machine, SimConfig};
use retcon_workloads::{HashTable, SplitMix64, System};

const CORES: usize = 16;
const INSERTS_PER_CORE: u64 = 64;
const BUCKETS: u64 = 512;

fn build_program(table: &HashTable, iters: u64) -> retcon_isa::Program {
    let mut b = ProgramBuilder::new();
    let body = b.block();
    let after_insert = b.block();
    let done = b.block();
    b.imm(Reg(0), iters);
    b.jump(body);
    b.select(body);
    b.input(Reg(10)); // the key
    b.tx_begin();
    b.work(500); // the rest of the transaction
    table.emit_insert(&mut b, Reg(10), [Reg(1), Reg(2), Reg(3)], after_insert);
    b.select(after_insert);
    b.tx_commit();
    b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
    b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
    b.select(done);
    b.halt();
    b.build().expect("program is well-formed")
}

fn run(system: System, resizable: bool) -> (u64, u64, u64) {
    // Layout: word 0 = size field (own block), buckets after it.
    let size_addr = Addr(0);
    let table = HashTable::new(Addr(8), BUCKETS, resizable.then_some(size_addr), 1_000_000);
    let mut machine = Machine::new(
        SimConfig::with_cores(CORES),
        system.protocol(CORES),
        (0..CORES)
            .map(|_| build_program(&table, INSERTS_PER_CORE))
            .collect::<Vec<_>>(),
    );
    let mut rng = SplitMix64::new(99);
    for core in 0..CORES {
        let keys: Vec<u64> = (0..INSERTS_PER_CORE).map(|_| rng.next_u64() >> 8).collect();
        machine.set_tape(core, keys);
    }
    let report = machine.run().expect("run completes");
    (
        report.cycles,
        report.protocol.aborts() + report.protocol.stalls,
        machine.mem().read_word(size_addr),
    )
}

fn main() {
    println!("hand-built hashtable inserts, {CORES} cores x {INSERTS_PER_CORE} inserts\n");
    println!(
        "{:<10} {:<10} {:>10} {:>16} {:>11}",
        "table", "system", "cycles", "aborts+stalls", "size field"
    );
    for resizable in [false, true] {
        for system in [System::Eager, System::Retcon] {
            let (cycles, trouble, size) = run(system, resizable);
            println!(
                "{:<10} {:<10} {:>10} {:>16} {:>11}",
                if resizable { "resizable" } else { "fixed" },
                system.label(),
                cycles,
                trouble,
                size
            );
            let expected = if resizable {
                CORES as u64 * INSERTS_PER_CORE
            } else {
                0
            };
            assert_eq!(size, expected, "size field must count every insert exactly");
        }
    }
    println!("\nWith the size field, eager pays for every insert's increment;");
    println!("RETCON repairs the increments and is insensitive to resizability —");
    println!("and the final size is exact under both, because repair is not approximation.");
}
