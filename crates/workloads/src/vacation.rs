//! The vacation model: a travel-reservation system.
//!
//! STAMP's vacation performs read-mostly reservation transactions over
//! several tables. The base variant aborts on red-black-tree rebalancing
//! (§3: "both intruder and vacation have aborts due to rebalancing
//! operations of a red-black tree used to implement a map interface");
//! `vacation_opt` replaces the tree with a hashtable, and
//! `vacation_opt-sz` makes that hashtable resizable — re-introducing the
//! size-field bottleneck on the customer-orders table.

use retcon_isa::{BinOp, CmpOp, Operand, ProgramBuilder, Reg};

use crate::hashtable::HashTable;
use crate::spec::{Alloc, WorkloadSpec};
use crate::SplitMix64;

/// Total reservation transactions across all cores.
const TOTAL_TXS: u64 = 4096;
/// Items per table (one block each: word 0 is the availability count).
const ITEMS: u64 = 2048;
/// Customer-orders table buckets.
const BUCKETS: u64 = 512;
/// Per-transaction work (itinerary construction).
const WORK: u32 = 600;
/// Initial availability of every item (never exhausted).
const INITIAL_AVAIL: u64 = 1_000_000;
/// Rebalance once per this many transactions (base variant).
const REBALANCE_PERIOD: u64 = 16;

/// Builds the vacation model.
pub fn build(num_cores: usize, seed: u64, optimized: bool, resizable: bool) -> WorkloadSpec {
    let mut alloc = Alloc::new();
    let size_addr = alloc.alloc_words(1);
    let flights = alloc.alloc_blocks(ITEMS);
    let rooms = alloc.alloc_blocks(ITEMS);
    let rot0 = alloc.alloc_words(1);
    let rot1 = alloc.alloc_words(1);
    let orders = HashTable::new(
        alloc.alloc_blocks(BUCKETS),
        BUCKETS,
        (optimized && resizable).then_some(size_addr),
        TOTAL_TXS * 2,
    );

    let mut init = Vec::new();
    for table in [flights, rooms] {
        for i in 0..ITEMS {
            init.push((retcon_isa::Addr(table.0 + i * 8), INITIAL_AVAIL));
        }
    }

    let iters = (TOTAL_TXS / num_cores as u64).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x7661_6361); // "vaca"

    let mut programs = Vec::with_capacity(num_cores);
    let mut tapes = Vec::with_capacity(num_cores);
    for core in 0..num_cores {
        let mut core_rng = rng.fork(core as u64);
        let tape: Vec<u64> = (0..iters).map(|_| core_rng.next_u64() >> 8 | 1).collect();
        tapes.push(tape);

        let mut b = ProgramBuilder::new();
        let body = b.block();
        let after_order = b.block();
        let after_rebalance = b.block();
        let done = b.block();
        let r_iter = Reg(0);
        let r_key = Reg(10);
        let r_a = Reg(4);
        let r_v = Reg(5);

        b.imm(r_iter, iters);
        b.jump(body);

        b.select(body);
        b.input(r_key);
        b.tx_begin();

        if optimized {
            b.work(WORK);
        } else {
            // Occasional tree-rebalance early in the transaction: blind
            // writes to hot words near the (modelled) tree root, whose
            // speculative-written bits are then held for the rest of the
            // long transaction — the serialization the paper attributes to
            // red-black rebalancing.
            let rebalance = b.block();
            let after_rb = b.block();
            b.mov(r_a, r_key);
            b.bin(BinOp::Shr, r_a, r_a, Operand::Imm(3));
            b.bin(
                BinOp::And,
                r_a,
                r_a,
                Operand::Imm((REBALANCE_PERIOD - 1) as i64),
            );
            b.branch(CmpOp::Eq, r_a, Operand::Imm(0), rebalance, after_rb);
            b.select(rebalance);
            b.imm(r_a, rot0.0);
            b.store(Operand::Reg(r_key), r_a, 0);
            b.imm(r_a, rot1.0);
            b.store(Operand::Reg(r_key), r_a, 0);
            b.jump(after_rb);
            b.select(after_rb);
            b.work(WORK);
        }

        // Browse: read the availability of a few items across both tables.
        for (t, table) in [flights, rooms, flights].iter().enumerate() {
            b.mov(r_a, r_key);
            b.bin(BinOp::Shr, r_a, r_a, Operand::Imm(4 * t as i64));
            b.bin(BinOp::And, r_a, r_a, Operand::Imm((ITEMS - 1) as i64));
            b.bin(BinOp::Shl, r_a, r_a, Operand::Imm(3));
            b.bin(BinOp::Add, r_a, r_a, Operand::Imm(table.0 as i64));
            b.load(r_v, r_a, 0);
        }
        // Reserve: decrement the availability of the last-browsed item if
        // it is positive (it always is with our inventory).
        let reserve = b.block();
        b.branch(CmpOp::Gt, r_v, Operand::Imm(0), reserve, after_order);
        b.select(reserve);
        b.bin(BinOp::Sub, r_v, r_v, Operand::Imm(1));
        b.store(Operand::Reg(r_v), r_a, 0);
        // Record the order in the customer-orders map.
        orders.emit_insert(&mut b, r_key, [Reg(1), Reg(2), Reg(3)], after_order);

        b.select(after_order);
        b.jump(after_rebalance);
        b.select(after_rebalance);
        b.tx_commit();
        b.bin(BinOp::Sub, r_iter, r_iter, Operand::Imm(1));
        b.branch(CmpOp::Gt, r_iter, Operand::Imm(0), body, done);

        b.select(done);
        b.barrier();
        b.halt();
        programs.push(b.build().expect("vacation program is well-formed"));
    }

    WorkloadSpec {
        name: match (optimized, resizable) {
            (false, _) => "vacation",
            (true, false) => "vacation_opt",
            (true, true) => "vacation_opt-sz",
        },
        programs: programs.into(),
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
            let spec = build(4, 6, optimized, resizable);
            for p in spec.programs.iter() {
                assert!(p.validate().is_ok());
            }
        }
    }

    #[test]
    fn reservations_conserve_inventory() {
        // Total decrements across both tables equals total transactions.
        let spec = build(4, 6, true, false);
        let cfg = retcon_sim::SimConfig::with_cores(4);
        let mut machine =
            retcon_sim::Machine::new(cfg, System::Eager.protocol(4), spec.programs.clone());
        for (i, tape) in spec.tapes.iter().enumerate() {
            machine.set_tape(i, tape.clone());
        }
        for &(a, v) in &spec.init {
            machine.init_word(a, v);
        }
        machine.run().expect("runs");
        let mut total = 0u64;
        for &(a, init_v) in &spec.init {
            total += init_v - machine.mem().read_word(a);
        }
        assert_eq!(total, TOTAL_TXS);
    }

    #[test]
    fn opt_beats_base() {
        let base = run_spec(&build(8, 6, false, false), System::Eager, 8).unwrap();
        let opt = run_spec(&build(8, 6, true, false), System::Eager, 8).unwrap();
        assert!(
            opt.cycles < base.cycles,
            "opt {} !< base {}",
            opt.cycles,
            base.cycles
        );
    }

    #[test]
    fn retcon_rescues_sz() {
        let sz_e = run_spec(&build(8, 6, true, true), System::Eager, 8).unwrap();
        let sz_r = run_spec(&build(8, 6, true, true), System::Retcon, 8).unwrap();
        assert!(sz_r.cycles < sz_e.cycles);
    }
}
