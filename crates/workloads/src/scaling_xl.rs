//! Past-the-paper scaling microbenchmark: group-local counters.
//!
//! The paper's machine tops out at 32 cores; the simulator's CoreSet size
//! classes go to 1024. This workload is built to exercise those widths
//! with *structured* contention: cores are split into groups of
//! [`GROUP_CORES`] contiguous ids, and each group hammers its own private
//! counter block with the Figure 2 double-increment transaction. Within a
//! group the conflict behaviour matches `counter` (every transaction
//! collides); across groups there is no sharing at all, so the block
//! footprints of any two groups are disjoint.
//!
//! That layout is deliberately shard-friendly: any contiguous core
//! partition whose boundaries fall on group multiples (e.g. 256 cores
//! into 2 shards of 128 = 16 whole groups each) has provably disjoint
//! shard footprints, which is exactly the premise the sharded runner
//! re-verifies at merge time. There is no barrier — each core halts when
//! its transactions are done — so the workload stays eligible for
//! sharding.

use retcon_isa::{BinOp, CmpOp, Operand, ProgramBuilder, Reg};

use crate::spec::{Alloc, WorkloadSpec};

/// Cores per contention group: one shared counter per 8 contiguous cores.
pub const GROUP_CORES: usize = 8;
/// Transactions per core (fixed per core, so total work scales with the
/// machine — this is a scaling stressor, not a fixed-work speedup curve).
const TXS_PER_CORE: u64 = 64;
/// Abstract work cycles between the two increments.
const WORK: u32 = 10;

/// Builds the group-local counter workload: `num_cores` cores in groups
/// of [`GROUP_CORES`], each group double-incrementing its own counter
/// block [`TXS_PER_CORE`] times per core.
pub fn build(num_cores: usize, _seed: u64) -> WorkloadSpec {
    let mut alloc = Alloc::new();
    let groups = num_cores.div_ceil(GROUP_CORES);
    let counters: Vec<u64> = (0..groups).map(|_| alloc.alloc_blocks(1).0).collect();

    let mut programs = Vec::with_capacity(num_cores);
    for core in 0..num_cores {
        let counter = counters[core / GROUP_CORES];
        let mut b = ProgramBuilder::new();
        let body = b.block();
        let done = b.block();
        let r_iter = Reg(0);
        let r_addr = Reg(1);
        let r_val = Reg(2);

        b.imm(r_iter, TXS_PER_CORE);
        b.imm(r_addr, counter);
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
        b.halt();
        programs.push(b.build().expect("scaling_xl program is well-formed"));
    }
    WorkloadSpec {
        name: "scaling_xl",
        tapes: vec![Vec::new(); num_cores],
        init: Vec::new(),
        programs: programs.into(),
    }
}

/// The value every group counter must reach when all commits land.
pub fn expected_group_total(num_cores: usize, group: usize) -> u64 {
    let lo = group * GROUP_CORES;
    let hi = (lo + GROUP_CORES).min(num_cores);
    (hi - lo) as u64 * TXS_PER_CORE * 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_spec, System};
    use retcon_isa::Addr;

    #[test]
    fn builds_and_validates_at_odd_sizes() {
        for cores in [1, 7, 8, 9, 64, 65] {
            let spec = build(cores, 0);
            assert_eq!(spec.num_cores(), cores);
            for p in spec.programs.iter() {
                assert!(p.validate().is_ok());
            }
        }
    }

    #[test]
    fn groups_preserve_their_counts() {
        let cores = 16;
        let spec = build(cores, 0);
        let cfg = retcon_sim::SimConfig::with_cores(cores);
        let mut machine: retcon_sim::Machine =
            retcon_sim::Machine::new(cfg, System::Retcon.protocol(cores), spec.programs.clone());
        machine.run().expect("runs");
        for g in 0..2 {
            let base = g as u64 * 8; // group g's counter block
            assert_eq!(
                machine.mem().read_word(Addr(base)),
                expected_group_total(cores, g),
                "group {g}"
            );
        }
    }

    #[test]
    fn within_group_contention_preserves_commits() {
        // 8 cores form one full group hammering a single counter block:
        // heavy contention, but no transaction may be lost. Cross-group
        // disjointness is pinned end-to-end by the sharded cmp test.
        let spec = build(8, 0);
        let report = run_spec(&spec, System::Eager, 8).expect("runs");
        assert_eq!(report.protocol.commits, 8 * TXS_PER_CORE);
        assert!(report.breakdown().conflict > 0, "one group must contend");
    }
}
