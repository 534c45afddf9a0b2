//! The genome model: gene-segment deduplication by hashtable insert.
//!
//! STAMP's genome spends its conflict-prone phase inserting segments into a
//! shared hashtable. With a fixed-size table, distinct segments rarely
//! collide (different buckets) and the workload scales; with a *resizable*
//! table every insert also increments the table's size field — the paper's
//! canonical auxiliary-data bottleneck (`genome-sz`).

use retcon_isa::{BinOp, CmpOp, Operand, ProgramBuilder, Reg};

use crate::hashtable::HashTable;
use crate::spec::{Alloc, WorkloadSpec};
use crate::SplitMix64;

/// Total segment inserts across all cores.
const TOTAL_INSERTS: u64 = 4096;
/// Buckets in the segment table (power of two; many more buckets than
/// concurrent transactions keeps bucket collisions rare).
const BUCKETS: u64 = 1024;
/// Abstract per-transaction work (segment construction and comparison; real
/// genome transactions are long relative to the size-field update).
const WORK: u32 = 2000;

/// Builds the genome model. `resizable` enables the shared size field (the
/// `-sz` variant).
pub fn build(num_cores: usize, seed: u64, resizable: bool) -> WorkloadSpec {
    let mut alloc = Alloc::new();
    let size_addr = alloc.alloc_words(1);
    let table = HashTable::new(
        alloc.alloc_blocks(BUCKETS),
        BUCKETS,
        resizable.then_some(size_addr),
        TOTAL_INSERTS * 2, // resize never triggers
    );
    let iters = (TOTAL_INSERTS / num_cores as u64).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x67_65_6e_6f_6d_65); // "genome"

    let mut programs = Vec::with_capacity(num_cores);
    let mut tapes = Vec::with_capacity(num_cores);
    for core in 0..num_cores {
        let mut core_rng = rng.fork(core as u64);
        let tape: Vec<u64> = (0..iters).map(|_| core_rng.next_u64() >> 8).collect();
        tapes.push(tape);

        let mut b = ProgramBuilder::new();
        let body = b.block();
        let after_insert = b.block();
        let done = b.block();
        let r_iter = Reg(0);
        let r_key = Reg(10);

        b.imm(r_iter, iters);
        b.jump(body);

        b.select(body);
        b.input(r_key);
        b.tx_begin();
        b.work(WORK);
        table.emit_insert(&mut b, r_key, [Reg(1), Reg(2), Reg(3)], after_insert);
        b.select(after_insert);
        b.tx_commit();
        b.bin(BinOp::Sub, r_iter, r_iter, Operand::Imm(1));
        b.branch(CmpOp::Gt, r_iter, Operand::Imm(0), body, done);

        b.select(done);
        b.barrier();
        b.halt();
        programs.push(b.build().expect("genome program is well-formed"));
    }
    WorkloadSpec {
        name: if resizable { "genome-sz" } else { "genome" },
        programs,
        tapes,
        init: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_spec, System};

    #[test]
    fn programs_validate() {
        for resizable in [false, true] {
            let spec = build(4, 1, resizable);
            for p in &spec.programs {
                assert!(p.validate().is_ok());
            }
            assert_eq!(spec.tapes[0].len() as u64, TOTAL_INSERTS / 4);
        }
    }

    #[test]
    fn size_field_counts_inserts_exactly() {
        // The size field must equal the total number of inserts under every
        // system — the repair-correctness litmus test.
        for system in [System::Eager, System::LazyVb, System::Retcon] {
            let spec = build(4, 1, true);
            let cfg = retcon_sim::SimConfig::with_cores(4);
            let mut machine =
                retcon_sim::Machine::new(cfg, system.protocol(4), spec.programs.clone());
            for (i, tape) in spec.tapes.iter().enumerate() {
                machine.set_tape(i, tape.clone());
            }
            machine.run().expect("runs");
            assert_eq!(
                machine.mem().read_word(retcon_isa::Addr(0)),
                TOTAL_INSERTS,
                "size field wrong under {system:?}"
            );
        }
    }

    #[test]
    fn retcon_reduces_conflict_time_on_sz() {
        let spec = build(8, 1, true);
        let eager = run_spec(&spec, System::Eager, 8).unwrap();
        let retcon = run_spec(&spec, System::Retcon, 8).unwrap();
        assert!(
            retcon.cycles < eager.cycles,
            "RetCon {} !< eager {}",
            retcon.cycles,
            eager.cycles
        );
    }
}
