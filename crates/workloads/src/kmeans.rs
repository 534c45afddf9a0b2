//! The kmeans model: partition-based clustering.
//!
//! Each transaction assigns a point to a cluster and folds the point into
//! the cluster centre's accumulators. The update uses a multiply (a running
//! scaled mean), which RETCON cannot track symbolically — so, as in the
//! paper's Figure 9, kmeans behaves the same under eager, lazy-vb and
//! RETCON: its moderate conflicts are genuine.

use retcon_isa::{BinOp, CmpOp, Operand, ProgramBuilder, Reg};

use crate::spec::{Alloc, WorkloadSpec};
use crate::SplitMix64;

/// Total points across all cores.
const TOTAL_POINTS: u64 = 8192;
/// Number of cluster centres (one block each).
const CLUSTERS: u64 = 256;
/// Distance-computation work per point (outside the transaction).
const WORK: u32 = 400;

/// Builds the kmeans model.
pub fn build(num_cores: usize, seed: u64) -> WorkloadSpec {
    let mut alloc = Alloc::new();
    let centers = alloc.alloc_blocks(CLUSTERS);
    let iters = (TOTAL_POINTS / num_cores as u64).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x6b6d_6561); // "kmea"

    let mut programs = Vec::with_capacity(num_cores);
    let mut tapes = Vec::with_capacity(num_cores);
    for core in 0..num_cores {
        let mut core_rng = rng.fork(core as u64);
        let tape: Vec<u64> = (0..iters).map(|_| core_rng.next_u64() >> 8).collect();
        tapes.push(tape);

        let mut b = ProgramBuilder::new();
        let body = b.block();
        let done = b.block();
        let r_iter = Reg(0);
        let r_pt = Reg(10);
        let r_addr = Reg(4);
        let r_val = Reg(5);

        b.imm(r_iter, iters);
        b.jump(body);

        b.select(body);
        b.input(r_pt);
        // Distance computation happens outside the critical section in
        // STAMP's kmeans; only the centre update is transactional.
        b.work(WORK);
        b.tx_begin();
        // centre = centers + (point & (CLUSTERS-1)) * 8
        b.mov(r_addr, r_pt);
        b.bin(
            BinOp::And,
            r_addr,
            r_addr,
            Operand::Imm((CLUSTERS - 1) as i64),
        );
        b.bin(BinOp::Shl, r_addr, r_addr, Operand::Imm(3));
        b.bin(BinOp::Add, r_addr, r_addr, Operand::Imm(centers.0 as i64));
        // count += 1 (word 0).
        b.load(r_val, r_addr, 0);
        b.bin(BinOp::Add, r_val, r_val, Operand::Imm(1));
        b.store(Operand::Reg(r_val), r_addr, 0);
        // Two accumulator words fold the point in with a scaled-mean update
        // (multiply ⇒ untrackable).
        for dim in 1..3 {
            b.load(r_val, r_addr, dim);
            b.bin(BinOp::Mul, r_val, r_val, Operand::Imm(3));
            b.bin(BinOp::Shr, r_val, r_val, Operand::Imm(2));
            b.bin(BinOp::Add, r_val, r_val, Operand::Reg(r_pt));
            b.store(Operand::Reg(r_val), r_addr, dim);
        }
        b.tx_commit();
        b.bin(BinOp::Sub, r_iter, r_iter, Operand::Imm(1));
        b.branch(CmpOp::Gt, r_iter, Operand::Imm(0), body, done);

        b.select(done);
        b.barrier();
        b.halt();
        programs.push(b.build().expect("kmeans program is well-formed"));
    }

    WorkloadSpec {
        name: "kmeans",
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
        let spec = build(4, 3);
        for p in spec.programs.iter() {
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn counts_are_preserved() {
        // Sum of the per-cluster counts equals the number of points, under
        // eager and RETCON alike.
        for system in [System::Eager, System::Retcon] {
            let spec = build(4, 3);
            let cfg = retcon_sim::SimConfig::with_cores(4);
            let mut machine =
                retcon_sim::Machine::new(cfg, system.protocol(4), spec.programs.clone());
            for (i, tape) in spec.tapes.iter().enumerate() {
                machine.set_tape(i, tape.clone());
            }
            machine.run().expect("runs");
            let total: u64 = (0..CLUSTERS)
                .map(|c| machine.mem().read_word(retcon_isa::Addr(c * 8)))
                .sum();
            assert_eq!(total, TOTAL_POINTS, "{system:?}");
        }
    }

    #[test]
    fn retcon_matches_eager() {
        // The multiply-based update defeats symbolic tracking: RETCON's time
        // is close to eager's (no large win or loss).
        let spec = build(8, 3);
        let eager = run_spec(&spec, System::Eager, 8).unwrap();
        let retcon = run_spec(&spec, System::Retcon, 8).unwrap();
        let ratio = retcon.cycles as f64 / eager.cycles as f64;
        assert!((0.6..1.4).contains(&ratio), "ratio {ratio}");
    }
}
