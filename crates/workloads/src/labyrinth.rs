//! The labyrinth model: shortest-path maze routing.
//!
//! STAMP's labyrinth routes wires through a shared grid with long
//! transactions; the paper moves the grid copy *before* the transaction
//! (in place of early release) and attributes its poor scaling to **load
//! imbalance** (§3, footnote: "labyrinth, in which the algorithm induces
//! load imbalance"): path lengths vary wildly, so cores idle at the final
//! barrier. Conflicts are rare because concurrently-routed paths seldom
//! overlap in a large grid.

use retcon_isa::{BinOp, CmpOp, Operand, ProgramBuilder, Reg};

use crate::spec::{Alloc, WorkloadSpec};
use crate::SplitMix64;

/// Total paths routed across all cores.
const TOTAL_PATHS: u64 = 256;
/// Grid words (a large routing grid).
const GRID_WORDS: u64 = 32 * 1024;
/// Minimum path length in cells.
const MIN_LEN: u64 = 8;
/// Maximum extra path length (high variance → imbalance).
const MAX_EXTRA: u64 = 400;
/// Work cycles per routed cell (the pre-transaction private-copy expansion
/// plus the in-transaction path computation).
const WORK_PER_CELL: u32 = 30;

/// Builds the labyrinth model.
pub fn build(num_cores: usize, seed: u64) -> WorkloadSpec {
    let mut alloc = Alloc::new();
    let grid = alloc.alloc_words(GRID_WORDS);
    let iters = (TOTAL_PATHS / num_cores as u64).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x6c61_6279); // "laby"

    let mut programs = Vec::with_capacity(num_cores);
    let mut tapes = Vec::with_capacity(num_cores);
    for core in 0..num_cores {
        let mut core_rng = rng.fork(core as u64);
        // Tape entries: (start cell, length) pairs.
        let mut tape = Vec::with_capacity(2 * iters as usize);
        for _ in 0..iters {
            let len = MIN_LEN + core_rng.below(MAX_EXTRA);
            let start = core_rng.below(GRID_WORDS - len - 1);
            tape.push(start);
            tape.push(len);
        }
        tapes.push(tape);

        let mut b = ProgramBuilder::new();
        let body = b.block();
        let copy_loop = b.block();
        let route_loop = b.block();
        let route_done = b.block();
        let done = b.block();
        let r_iter = Reg(0);
        let r_start = Reg(10);
        let r_len = Reg(11);
        let r_i = Reg(4);
        let r_addr = Reg(5);
        let r_val = Reg(6);

        b.imm(r_iter, iters);
        b.jump(body);

        b.select(body);
        b.input(r_start);
        b.input(r_len);
        // Pre-transaction private grid copy (the paper's restructuring):
        // modelled as per-cell work outside the transaction.
        b.mov(r_i, r_len);
        b.jump(copy_loop);
        b.select(copy_loop);
        b.work(WORK_PER_CELL);
        b.bin(BinOp::Sub, r_i, r_i, Operand::Imm(1));
        let after_copy = b.block();
        b.branch(CmpOp::Gt, r_i, Operand::Imm(0), copy_loop, after_copy);
        b.select(after_copy);

        // The routing transaction: claim every cell of the path.
        b.tx_begin();
        b.imm(r_i, 0);
        b.jump(route_loop);
        b.select(route_loop);
        b.mov(r_addr, r_start);
        b.bin(BinOp::Add, r_addr, r_addr, Operand::Reg(r_i));
        b.bin(BinOp::Add, r_addr, r_addr, Operand::Imm(grid.0 as i64));
        b.load(r_val, r_addr, 0);
        b.bin(BinOp::Add, r_val, r_val, Operand::Imm(1));
        b.store(Operand::Reg(r_val), r_addr, 0);
        b.work(WORK_PER_CELL);
        b.bin(BinOp::Add, r_i, r_i, Operand::Imm(1));
        b.branch(CmpOp::Lt, r_i, Operand::Reg(r_len), route_loop, route_done);
        b.select(route_done);
        b.tx_commit();
        b.bin(BinOp::Sub, r_iter, r_iter, Operand::Imm(1));
        b.branch(CmpOp::Gt, r_iter, Operand::Imm(0), body, done);

        b.select(done);
        b.barrier();
        b.halt();
        programs.push(b.build().expect("labyrinth program is well-formed"));
    }

    WorkloadSpec {
        name: "labyrinth",
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
        let spec = build(4, 4);
        for p in &spec.programs {
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn imbalance_shows_up_as_barrier_time() {
        let report = run_spec(&build(8, 4), System::Eager, 8).unwrap();
        let b = report.breakdown();
        assert!(
            b.barrier > b.conflict,
            "labyrinth should be imbalance-bound: barrier {} vs conflict {}",
            b.barrier,
            b.conflict
        );
    }

    #[test]
    fn retcon_does_not_change_labyrinth() {
        let spec = build(8, 4);
        let eager = run_spec(&spec, System::Eager, 8).unwrap();
        let retcon = run_spec(&spec, System::Retcon, 8).unwrap();
        let ratio = retcon.cycles as f64 / eager.cycles as f64;
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }
}
