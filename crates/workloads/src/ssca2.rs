//! The ssca2 model: graph kernels with scattered tiny transactions.
//!
//! STAMP's ssca2 performs very small transactions that update graph
//! adjacency structures at effectively random addresses. The paper singles
//! it out as limited by *"bad caching behavior"* (§3), not conflicts: the
//! whole graph fits one core's L2 when run sequentially, but 32 cores
//! writing random words force constant coherence traffic. The model
//! reproduces exactly that: random read-modify-writes over a large shared
//! array, transactions of a few instructions, negligible semantic
//! conflicts.

use retcon_isa::{BinOp, CmpOp, Operand, ProgramBuilder, Reg};

use crate::spec::{Alloc, WorkloadSpec};
use crate::SplitMix64;

/// Total edge-insertions across all cores.
const TOTAL_OPS: u64 = 16384;
/// Graph array words (512 KB — fits a 1 MB private L2 with room to spare).
const GRAPH_WORDS: u64 = 64 * 1024;
/// Tiny per-op work.
const WORK: u32 = 5;

/// Builds the ssca2 model.
pub fn build(num_cores: usize, seed: u64) -> WorkloadSpec {
    let mut alloc = Alloc::new();
    let graph = alloc.alloc_words(GRAPH_WORDS);
    let iters = (TOTAL_OPS / num_cores as u64).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x7373_6361); // "ssca"

    let mut programs = Vec::with_capacity(num_cores);
    let mut tapes = Vec::with_capacity(num_cores);
    for core in 0..num_cores {
        let mut core_rng = rng.fork(core as u64);
        // Two random word indices per op (an "edge").
        let mut tape = Vec::with_capacity(2 * iters as usize);
        for _ in 0..iters {
            tape.push(core_rng.below(GRAPH_WORDS));
            tape.push(core_rng.below(GRAPH_WORDS));
        }
        tapes.push(tape);

        let mut b = ProgramBuilder::new();
        let body = b.block();
        let done = b.block();
        let r_iter = Reg(0);
        let r_u = Reg(10);
        let r_v = Reg(11);
        let r_val = Reg(4);

        b.imm(r_iter, iters);
        b.jump(body);

        b.select(body);
        b.input(r_u);
        b.input(r_v);
        b.tx_begin();
        b.work(WORK);
        // Touch both endpoints: increment their adjacency counts.
        for r in [r_u, r_v] {
            b.bin(BinOp::Add, r, r, Operand::Imm(graph.0 as i64));
            b.load(r_val, r, 0);
            b.bin(BinOp::Add, r_val, r_val, Operand::Imm(1));
            b.store(Operand::Reg(r_val), r, 0);
        }
        b.tx_commit();
        b.bin(BinOp::Sub, r_iter, r_iter, Operand::Imm(1));
        b.branch(CmpOp::Gt, r_iter, Operand::Imm(0), body, done);

        b.select(done);
        b.barrier();
        b.halt();
        programs.push(b.build().expect("ssca2 program is well-formed"));
    }

    WorkloadSpec {
        name: "ssca2",
        programs: programs.into(),
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
        let spec = build(4, 5);
        for p in spec.programs.iter() {
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn degree_sum_is_preserved() {
        let spec = build(4, 5);
        let cfg = retcon_sim::SimConfig::with_cores(4);
        let mut machine =
            retcon_sim::Machine::new(cfg, System::Eager.protocol(4), spec.programs.clone());
        for (i, tape) in spec.tapes.iter().enumerate() {
            machine.set_tape(i, tape.clone());
        }
        machine.run().expect("runs");
        let total: u64 = machine.mem().memory().iter().map(|(_, v)| v).sum();
        assert_eq!(total, 2 * TOTAL_OPS);
    }

    #[test]
    fn conflicts_are_rare() {
        let report = run_spec(&build(8, 5), System::Eager, 8).unwrap();
        assert!(
            report.abort_ratio() < 0.05,
            "ssca2 should be nearly conflict-free: {}",
            report.abort_ratio()
        );
    }
}
