//! The Figure 2 micro-benchmark: every transaction increments one shared
//! counter twice.

use retcon_isa::{BinOp, CmpOp, Operand, ProgramBuilder, Reg};

use crate::spec::{Alloc, WorkloadSpec};

/// Total increments-transactions across all cores.
const TOTAL_TXS: u64 = 2048;
/// Abstract work cycles between the two increments.
const WORK: u32 = 10;

/// Builds the counter micro-benchmark: `TOTAL_TXS` transactions split
/// across `num_cores`, each performing `load; +1; store; work; load; +1;
/// store` on the single shared counter — the exact schedule of Figure 2.
/// Total transactions the counter workload commits at `num_cores`
/// (`TOTAL_TXS` rounded to an even per-core split).
pub fn total_transactions(num_cores: usize) -> u64 {
    (TOTAL_TXS / num_cores as u64).max(1) * num_cores as u64
}

pub fn build(num_cores: usize, _seed: u64) -> WorkloadSpec {
    let mut alloc = Alloc::new();
    let counter = alloc.alloc_words(1);
    let iters = (TOTAL_TXS / num_cores as u64).max(1);

    let mut programs = Vec::with_capacity(num_cores);
    for _ in 0..num_cores {
        let mut b = ProgramBuilder::new();
        let body = b.block();
        let done = b.block();
        let r_iter = Reg(0);
        let r_addr = Reg(1);
        let r_val = Reg(2);

        b.imm(r_iter, iters);
        b.imm(r_addr, counter.0);
        b.jump(body);

        b.select(body);
        b.tx_begin();
        b.load(r_val, r_addr, 0);
        b.bin(BinOp::Add, r_val, r_val, Operand::Imm(1));
        b.store(Operand::Reg(r_val), r_addr, 0);
        b.work(WORK);
        b.load(r_val, r_addr, 0);
        b.bin(BinOp::Add, r_val, r_val, Operand::Imm(1));
        b.store(Operand::Reg(r_val), r_addr, 0);
        b.tx_commit();
        b.bin(BinOp::Sub, r_iter, r_iter, Operand::Imm(1));
        b.branch(CmpOp::Gt, r_iter, Operand::Imm(0), body, done);

        b.select(done);
        b.barrier();
        b.halt();
        programs.push(b.build().expect("counter program is well-formed"));
    }
    WorkloadSpec {
        name: "counter",
        tapes: vec![Vec::new(); num_cores],
        init: Vec::new(),
        programs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_spec, System};
    use retcon_isa::Addr;

    /// The expected final counter value when every transaction commits.
    fn expected_total(num_cores: usize) -> u64 {
        total_transactions(num_cores) * 2
    }

    #[test]
    fn builds_for_any_core_count() {
        for cores in [1, 2, 7, 32] {
            let spec = build(cores, 0);
            assert_eq!(spec.num_cores(), cores);
            for p in &spec.programs {
                assert!(p.validate().is_ok());
            }
        }
    }

    #[test]
    fn all_systems_preserve_the_count() {
        for system in [System::Eager, System::Lazy, System::LazyVb, System::Retcon] {
            let spec = build(4, 0);
            let report = run_spec(&spec, system, 4).expect("runs");
            assert!(report.protocol.commits >= 2048, "{system:?}");
        }
    }

    #[test]
    fn retcon_commits_without_aborts() {
        let spec = build(4, 0);
        let report = run_spec(&spec, System::Retcon, 4).expect("runs");
        // After the predictor warms up (first conflict per core), steals
        // replace aborts almost entirely.
        assert!(
            report.protocol.aborts() < 16,
            "aborts: {}",
            report.protocol.aborts()
        );
    }

    #[test]
    fn final_value_is_preserved_under_contention() {
        let spec = build(4, 0);
        let cfg = retcon_sim::SimConfig::with_cores(4);
        let mut machine =
            retcon_sim::Machine::new(cfg, System::Eager.protocol(4), spec.programs.clone());
        machine.run().expect("runs");
        assert_eq!(machine.mem().read_word(Addr(0)), expected_total(4));
    }
}
