//! The intruder model: network-packet processing through shared queues.
//!
//! STAMP's intruder *"dequeues work from one highly contended queue and
//! enqueues work onto another highly contended queue"* and additionally
//! aborts on red-black-tree rebalancing (§3). The paper's restructurings
//! split the queues thread-private and replace the tree with a hashtable
//! (`intruder_opt`); the `-sz` variant re-introduces the table's size
//! field.
//!
//! Crucially for RETCON (§5.4), the queue indices *feed addresses*: the
//! dequeue slot is `ring[head & mask]`. A symbolic head would need an
//! equality constraint, which any remote dequeue violates — so the base
//! variant is exactly the "repair cannot help" case the paper reports.

use retcon_isa::{Addr, BinOp, CmpOp, Operand, ProgramBuilder, Reg};

use crate::hashtable::HashTable;
use crate::spec::{Alloc, WorkloadSpec};
use crate::SplitMix64;

/// Total packets processed across all cores.
const TOTAL_PACKETS: u64 = 4096;
/// Ring capacity (power of two), sized to hold every packet.
const RING_CAP: u64 = 8192;
/// Map buckets.
const BUCKETS: u64 = 512;
/// Per-packet processing work (decoding and flow reassembly).
const WORK: u32 = 1500;
/// The two hot "tree rotation" words of the base variant.
const REBALANCE_PERIOD: u64 = 8;

/// Builds the intruder model. `optimized` applies the thread-private-queue
/// and hashtable restructurings; `resizable` tracks the map's size field.
pub fn build(num_cores: usize, seed: u64, optimized: bool, resizable: bool) -> WorkloadSpec {
    let mut alloc = Alloc::new();
    let size_addr = alloc.alloc_words(1);
    let in_head = alloc.alloc_words(1);
    let in_ring = alloc.alloc_blocks(RING_CAP / 8);
    let out_tail = alloc.alloc_words(1);
    let out_ring = alloc.alloc_blocks(RING_CAP / 8);
    let rot0 = alloc.alloc_words(1);
    let rot1 = alloc.alloc_words(1);
    let table = HashTable::new(
        alloc.alloc_blocks(BUCKETS),
        BUCKETS,
        (optimized && resizable).then_some(size_addr),
        TOTAL_PACKETS * 2,
    );

    let iters = (TOTAL_PACKETS / num_cores as u64).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x696e_7472); // "intr"

    // Pre-fill the shared input ring with every packet.
    let mut init = Vec::new();
    let mut fill = rng.fork(999);
    if !optimized {
        for i in 0..(iters * num_cores as u64) {
            init.push((Addr(in_ring.0 + (i % RING_CAP)), fill.next_u64() >> 8 | 1));
        }
    }

    let mut programs = Vec::with_capacity(num_cores);
    let mut tapes = Vec::with_capacity(num_cores);
    for core in 0..num_cores {
        let mut core_rng = rng.fork(core as u64);
        // The tape supplies packet keys for the optimized (thread-private
        // queue) variant, and rebalance coin flips for the base variant.
        let tape: Vec<u64> = (0..iters).map(|_| core_rng.next_u64() >> 8 | 1).collect();
        tapes.push(tape);

        let mut b = ProgramBuilder::new();
        let body = b.block();
        let after_deq = b.block();
        let after_insert = b.block();
        let after_rebalance = b.block();
        let done = b.block();
        let r_iter = Reg(0);
        let r_key = Reg(10);
        let r_a = Reg(4);
        let r_b = Reg(5);

        b.imm(r_iter, iters);
        b.jump(body);

        b.select(body);
        b.input(r_key); // packet key (base variant overwrites from the queue)
        b.tx_begin();
        b.work(WORK);

        if optimized {
            b.jump(after_deq);
        } else {
            // Dequeue: key = in_ring[head & mask]; head += 1. The loaded
            // head feeds the slot address.
            b.imm(r_a, in_head.0);
            b.load(r_b, r_a, 0); // head
            b.mov(r_key, r_b);
            b.bin(
                BinOp::And,
                r_key,
                r_key,
                Operand::Imm((RING_CAP - 1) as i64),
            );
            b.bin(BinOp::Add, r_key, r_key, Operand::Imm(in_ring.0 as i64));
            b.load(r_key, r_key, 0); // the packet
            b.bin(BinOp::Add, r_b, r_b, Operand::Imm(1));
            b.store(Operand::Reg(r_b), r_a, 0);
            b.jump(after_deq);
        }

        b.select(after_deq);
        table.emit_insert(&mut b, r_key, [Reg(1), Reg(2), Reg(3)], after_insert);
        b.select(after_insert);

        if optimized {
            b.jump(after_rebalance);
        } else {
            // Enqueue the processed packet on the shared output queue.
            b.imm(r_a, out_tail.0);
            b.load(r_b, r_a, 0); // tail
            b.mov(Reg(6), r_b);
            b.bin(
                BinOp::And,
                Reg(6),
                Reg(6),
                Operand::Imm((RING_CAP - 1) as i64),
            );
            b.bin(BinOp::Add, Reg(6), Reg(6), Operand::Imm(out_ring.0 as i64));
            b.store(Operand::Reg(r_key), Reg(6), 0);
            b.bin(BinOp::Add, r_b, r_b, Operand::Imm(1));
            b.store(Operand::Reg(r_b), r_a, 0);

            // Occasional tree-rebalance: blind writes to two hot words.
            let rebalance = b.block();
            b.mov(r_a, r_key);
            b.bin(BinOp::Shr, r_a, r_a, Operand::Imm(3));
            b.bin(
                BinOp::And,
                r_a,
                r_a,
                Operand::Imm((REBALANCE_PERIOD - 1) as i64),
            );
            b.branch(CmpOp::Eq, r_a, Operand::Imm(0), rebalance, after_rebalance);
            b.select(rebalance);
            b.imm(r_a, rot0.0);
            b.store(Operand::Reg(r_key), r_a, 0);
            b.imm(r_a, rot1.0);
            b.store(Operand::Reg(r_key), r_a, 0);
            b.jump(after_rebalance);
        }

        b.select(after_rebalance);
        b.tx_commit();
        b.bin(BinOp::Sub, r_iter, r_iter, Operand::Imm(1));
        b.branch(CmpOp::Gt, r_iter, Operand::Imm(0), body, done);

        b.select(done);
        b.barrier();
        b.halt();
        programs.push(b.build().expect("intruder program is well-formed"));
    }

    WorkloadSpec {
        name: match (optimized, resizable) {
            (false, _) => "intruder",
            (true, false) => "intruder_opt",
            (true, true) => "intruder_opt-sz",
        },
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
    fn all_variants_validate() {
        for (optimized, resizable) in [(false, false), (true, false), (true, true)] {
            let spec = build(4, 2, optimized, resizable);
            for p in &spec.programs {
                assert!(p.validate().is_ok());
            }
        }
    }

    #[test]
    fn base_variant_dequeues_every_packet() {
        let spec = build(2, 2, false, false);
        let cfg = retcon_sim::SimConfig::with_cores(2);
        let mut machine =
            retcon_sim::Machine::new(cfg, System::Eager.protocol(2), spec.programs.clone());
        for (i, tape) in spec.tapes.iter().enumerate() {
            machine.set_tape(i, tape.clone());
        }
        for &(a, v) in &spec.init {
            machine.init_word(a, v);
        }
        machine.run().expect("runs");
        // head advanced exactly once per packet.
        assert_eq!(machine.mem().read_word(Addr(8)), TOTAL_PACKETS);
    }

    #[test]
    fn opt_scales_better_than_base() {
        let base = run_spec(&build(8, 2, false, false), System::Eager, 8).unwrap();
        let opt = run_spec(&build(8, 2, true, false), System::Eager, 8).unwrap();
        assert!(
            opt.cycles < base.cycles,
            "opt {} !< base {}",
            opt.cycles,
            base.cycles
        );
    }

    #[test]
    fn retcon_helps_sz_but_not_base() {
        let base_e = run_spec(&build(8, 2, false, false), System::Eager, 8).unwrap();
        let base_r = run_spec(&build(8, 2, false, false), System::Retcon, 8).unwrap();
        let sz_e = run_spec(&build(8, 2, true, true), System::Eager, 8).unwrap();
        let sz_r = run_spec(&build(8, 2, true, true), System::Retcon, 8).unwrap();
        // -sz: RETCON clearly faster.
        assert!(sz_r.cycles < sz_e.cycles);
        // base: RETCON within noise of eager (no large win).
        let ratio = base_r.cycles as f64 / base_e.cycles as f64;
        assert!(
            ratio > 0.5,
            "unexpected RETCON speedup on base intruder: {ratio}"
        );
    }
}
