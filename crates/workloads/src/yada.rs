//! The yada model: Delaunay mesh refinement.
//!
//! STAMP's yada refines a shared mesh by expanding "cavities" of elements
//! reached through pointer traversal. The paper is explicit that these
//! conflicts resist both restructuring ("we have not found a way to reduce
//! these conflicts short of restructuring the algorithm") and RETCON
//! (§5.4: "the values on which there is contention are used to index into
//! memory" and "the data elements being operated on are central to the
//! dataflow of the entire transaction"). The model reproduces that
//! structure: each transaction pointer-chases through a shared node table
//! (every loaded value feeds the next address) and rewrites the visited
//! nodes.

use retcon_isa::{Addr, BinOp, CmpOp, Operand, ProgramBuilder, Reg};

use crate::spec::{Alloc, WorkloadSpec};
use crate::SplitMix64;

/// Total cavity refinements across all cores.
const TOTAL_TXS: u64 = 4096;
/// Mesh nodes (one word each; the region is small enough that concurrent
/// cavities overlap regularly, as real mesh neighborhoods do).
const NODES: u64 = 2048;
/// Nodes visited per cavity.
const CAVITY: usize = 4;
/// Per-node geometric work.
const WORK: u32 = 20;

/// Builds the yada model.
pub fn build(num_cores: usize, seed: u64) -> WorkloadSpec {
    let mut alloc = Alloc::new();
    let mesh = alloc.alloc_words(NODES);
    let iters = (TOTAL_TXS / num_cores as u64).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x7961_6461); // "yada"

    // The mesh is pre-linked with pseudo-random successor indices.
    let mut init = Vec::new();
    let mut link = rng.fork(4242);
    for i in 0..NODES {
        init.push((Addr(mesh.0 + i), link.below(NODES)));
    }

    let mut programs = Vec::with_capacity(num_cores);
    let mut tapes = Vec::with_capacity(num_cores);
    for core in 0..num_cores {
        let mut core_rng = rng.fork(core as u64);
        let tape: Vec<u64> = (0..iters).map(|_| core_rng.below(NODES)).collect();
        tapes.push(tape);

        let mut b = ProgramBuilder::new();
        let body = b.block();
        let done = b.block();
        let r_iter = Reg(0);
        let r_node = Reg(10);
        let r_addr = Reg(4);
        let r_val = Reg(5);

        b.imm(r_iter, iters);
        b.jump(body);

        b.select(body);
        b.input(r_node);
        b.tx_begin();
        // Chase CAVITY nodes: each loaded value picks the next node, and
        // each visited node is rewritten (re-linked).
        for _ in 0..CAVITY {
            b.work(WORK);
            b.mov(r_addr, r_node);
            b.bin(BinOp::And, r_addr, r_addr, Operand::Imm((NODES - 1) as i64));
            b.bin(BinOp::Add, r_addr, r_addr, Operand::Imm(mesh.0 as i64));
            b.load(r_val, r_addr, 0);
            // Re-link: successor rotated by one (stays within the mesh).
            b.bin(BinOp::Add, r_val, r_val, Operand::Imm(1));
            b.bin(BinOp::And, r_val, r_val, Operand::Imm((NODES - 1) as i64));
            b.store(Operand::Reg(r_val), r_addr, 0);
            // The loaded (pre-increment) successor is the next node.
            b.bin(BinOp::Sub, r_node, r_val, Operand::Imm(1));
        }
        b.tx_commit();
        b.bin(BinOp::Sub, r_iter, r_iter, Operand::Imm(1));
        b.branch(CmpOp::Gt, r_iter, Operand::Imm(0), body, done);

        b.select(done);
        b.barrier();
        b.halt();
        programs.push(b.build().expect("yada program is well-formed"));
    }

    WorkloadSpec {
        name: "yada",
        programs,
        tapes,
        init,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_spec, System};

    #[test]
    fn programs_validate() {
        let spec = build(4, 7);
        for p in &spec.programs {
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn conflicts_are_heavy() {
        let report = run_spec(&build(8, 7), System::Eager, 8).unwrap();
        assert!(
            report.breakdown().conflict > 0,
            "yada is abort-bound by construction"
        );
    }

    #[test]
    fn retcon_cannot_help_yada() {
        // Address-feeding loads force equality constraints that remote
        // writes violate; RETCON stays within noise of eager.
        let spec = build(8, 7);
        let eager = run_spec(&spec, System::Eager, 8).unwrap();
        let retcon = run_spec(&spec, System::Retcon, 8).unwrap();
        let ratio = retcon.cycles as f64 / eager.cycles as f64;
        assert!(ratio > 0.55, "unexpected large RETCON win on yada: {ratio}");
    }
}
