//! The transactionalized-CPython model: GIL elision with reference counts.
//!
//! The paper's most dramatic result: applying speculative lock elision to
//! CPython's global interpreter lock yields *no* scaling because every
//! bytecode batch updates **reference counts of hot shared objects**
//! (`None`, small ints, interned strings…), and — in the unoptimized
//! variant — shared interpreter globals that feed addresses (modelled here
//! as a shared free-list pointer). The `_opt` variant makes the globals
//! thread-private (the paper's `__thread` annotation), leaving only the
//! refcounts — which RETCON repairs, turning no-scaling into near-linear
//! scaling (30× on 32 cores).
//!
//! Each transaction INCREFs a handful of objects (references it acquires)
//! and DECREFs a *different* handful (references acquired by earlier
//! batches and released now) — so per-transaction refcount deltas are
//! nonzero, exactly as in a real interpreter where references outlive a GIL
//! window. Every DECREF is followed by the `if (refcount == 0) dealloc()`
//! branch, which RETCON captures as a `≠` constraint on the final count —
//! satisfied as long as the object stays referenced, i.e. always, for hot
//! objects.

use retcon_isa::{Addr, BinOp, CmpOp, Operand, ProgramBuilder, Reg};

use crate::spec::{Alloc, WorkloadSpec};
use crate::SplitMix64;

/// Total bytecode-batch transactions across all cores.
const TOTAL_TXS: u64 = 4096;
/// Hot shared objects (one block each; `None`, `True`, small ints…).
const HOT_OBJECTS: u64 = 8;
/// Cold objects.
const COLD_OBJECTS: u64 = 1024;
/// Objects INCREF'd (and, separately, DECREF'd) per transaction.
const TOUCHES: usize = 3;
/// Initial refcount of every object (hot objects are massively shared in a
/// real interpreter).
const INITIAL_RC: u64 = 1_000_000;
/// Interpreter work per half of a bytecode batch.
const WORK: u32 = 1500;
/// Free-list pool words (base variant).
const POOL_WORDS: u64 = 4096;

/// Builds the CPython model. `optimized` makes the interpreter globals
/// thread-private (removing the shared free-list pointer).
pub fn build(num_cores: usize, seed: u64, optimized: bool) -> WorkloadSpec {
    let mut alloc = Alloc::new();
    let freelist_ptr = alloc.alloc_words(1);
    let hot = alloc.alloc_blocks(HOT_OBJECTS);
    let cold = alloc.alloc_blocks(COLD_OBJECTS);
    let pool = alloc.alloc_words(POOL_WORDS);

    let mut init = Vec::new();
    for i in 0..HOT_OBJECTS {
        init.push((Addr(hot.0 + i * 8), INITIAL_RC));
    }
    for i in 0..COLD_OBJECTS {
        init.push((Addr(cold.0 + i * 8), INITIAL_RC));
    }

    let iters = (TOTAL_TXS / num_cores as u64).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x7079_7468); // "pyth"

    let mut programs = Vec::with_capacity(num_cores);
    let mut tapes = Vec::with_capacity(num_cores);
    for core in 0..num_cores {
        let mut core_rng = rng.fork(core as u64);
        // Tape: TOUCHES objects to INCREF, then TOUCHES *different* objects
        // to DECREF, per transaction (references flow across batches, so
        // per-transaction deltas are nonzero).
        let mut tape = Vec::with_capacity(iters as usize * TOUCHES * 2);
        for _ in 0..iters {
            for _ in 0..(2 * TOUCHES) {
                let addr = if core_rng.chance(3, 4) {
                    hot.0 + core_rng.below(HOT_OBJECTS) * 8
                } else {
                    cold.0 + core_rng.below(COLD_OBJECTS) * 8
                };
                tape.push(addr);
            }
        }
        tapes.push(tape);

        let mut b = ProgramBuilder::new();
        let body = b.block();
        let done = b.block();
        let r_iter = Reg(0);
        let r_inc: [Reg; TOUCHES] = [Reg(10), Reg(11), Reg(12)];
        let r_dec: [Reg; TOUCHES] = [Reg(13), Reg(14), Reg(15)];
        let r_a = Reg(4);
        let r_v = Reg(5);

        b.imm(r_iter, iters);
        b.jump(body);

        b.select(body);
        for r in r_inc.iter().chain(&r_dec) {
            b.input(*r);
        }
        b.tx_begin();
        b.work(WORK);

        if !optimized {
            // The shared interpreter global: a free-list pointer whose
            // loaded value feeds an address (Py_Malloc-style bump pointer).
            b.imm(r_a, freelist_ptr.0);
            b.load(r_v, r_a, 0);
            b.bin(BinOp::Add, r_v, r_v, Operand::Imm(1));
            b.store(Operand::Reg(r_v), r_a, 0);
            b.bin(BinOp::And, r_v, r_v, Operand::Imm((POOL_WORDS - 1) as i64));
            b.bin(BinOp::Add, r_v, r_v, Operand::Imm(pool.0 as i64));
            b.load(Reg(6), r_v, 0);
        }

        // INCREF each acquired object.
        for r in r_inc {
            b.load(r_v, r, 0);
            b.bin(BinOp::Add, r_v, r_v, Operand::Imm(1));
            b.store(Operand::Reg(r_v), r, 0);
        }
        b.work(WORK);
        // DECREF each released object, with the dealloc-if-zero branch.
        for r in r_dec {
            let dealloc = b.block();
            let next = b.block();
            b.load(r_v, r, 0);
            b.bin(BinOp::Sub, r_v, r_v, Operand::Imm(1));
            b.store(Operand::Reg(r_v), r, 0);
            b.branch(CmpOp::Eq, r_v, Operand::Imm(0), dealloc, next);
            b.select(dealloc);
            // Deallocation never actually happens for live objects; the
            // path exists so the branch constrains the count.
            b.work(200);
            b.jump(next);
            b.select(next);
        }
        b.tx_commit();
        b.bin(BinOp::Sub, r_iter, r_iter, Operand::Imm(1));
        b.branch(CmpOp::Gt, r_iter, Operand::Imm(0), body, done);

        b.select(done);
        b.barrier();
        b.halt();
        programs.push(b.build().expect("python program is well-formed"));
    }

    WorkloadSpec {
        name: if optimized { "python_opt" } else { "python" },
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
    fn both_variants_validate() {
        for optimized in [false, true] {
            let spec = build(4, 8, optimized);
            for p in &spec.programs {
                assert!(p.validate().is_ok());
            }
        }
    }

    #[test]
    fn refcounts_balance_in_aggregate() {
        // Every transaction INCREFs and DECREFs the same number of
        // references, so the *sum* of all refcounts is conserved — under
        // eager and RETCON alike (the repair-correctness litmus test).
        for system in [System::Eager, System::Retcon] {
            let spec = build(4, 8, true);
            let cfg = retcon_sim::SimConfig::with_cores(4);
            let mut machine =
                retcon_sim::Machine::new(cfg, system.protocol(4), spec.programs.clone());
            for (i, tape) in spec.tapes.iter().enumerate() {
                machine.set_tape(i, tape.clone());
            }
            for &(a, v) in &spec.init {
                machine.init_word(a, v);
            }
            machine.run().expect("runs");
            let expected: u64 = spec.init.iter().map(|&(_, v)| v).sum();
            let actual: u64 = spec
                .init
                .iter()
                .map(|&(a, _)| machine.mem().read_word(a))
                .sum();
            assert_eq!(actual, expected, "{system:?}");
        }
    }

    #[test]
    fn lazy_vb_cannot_rescue_python_opt() {
        // Refcount values genuinely change between read and commit, so
        // value-based validation keeps aborting (§5.1: lazy-vb "does not
        // allow commits where a value read has been changed remotely").
        let spec = build(8, 8, true);
        let lazy_vb = run_spec(&spec, System::LazyVb, 8).unwrap();
        let retcon = run_spec(&spec, System::Retcon, 8).unwrap();
        assert!(
            (retcon.cycles as f64) < 0.7 * lazy_vb.cycles as f64,
            "RetCon {} vs lazy-vb {}",
            retcon.cycles,
            lazy_vb.cycles
        );
    }

    #[test]
    fn retcon_transforms_python_opt() {
        let spec = build(8, 8, true);
        let eager = run_spec(&spec, System::Eager, 8).unwrap();
        let retcon = run_spec(&spec, System::Retcon, 8).unwrap();
        assert!(
            (retcon.cycles as f64) < 0.6 * eager.cycles as f64,
            "RetCon {} vs eager {}",
            retcon.cycles,
            eager.cycles
        );
    }

    #[test]
    fn retcon_does_not_rescue_base_python() {
        let spec = build(8, 8, false);
        let eager = run_spec(&spec, System::Eager, 8).unwrap();
        let retcon = run_spec(&spec, System::Retcon, 8).unwrap();
        let ratio = retcon.cycles as f64 / eager.cycles as f64;
        assert!(
            ratio > 0.55,
            "unexpected RETCON rescue of base python: {ratio}"
        );
    }
}
