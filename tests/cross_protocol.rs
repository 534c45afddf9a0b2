//! Cross-protocol equivalence: for workloads whose transactions *commute*
//! (pure additive updates), every protocol must produce bit-identical final
//! memory — the serialization order cannot matter, so any deviation is a
//! lost or phantom update in some protocol.

use proptest::prelude::*;

use retcon_isa::{Addr, BinOp, CmpOp, Operand, Program, ProgramBuilder, Reg};
use retcon_sim::{Machine, SimConfig};
use retcon_workloads::{counter_total_transactions, SplitMix64, System, Workload};

/// Each transaction adds tape-provided deltas to `updates` counters chosen
/// by tape-provided indices (mod `pool`), with optional work between them.
fn additive_program(pool: u64, iters: u64, updates: u32, work: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let body = b.block();
    let done = b.block();
    b.imm(Reg(0), iters);
    b.jump(body);
    b.select(body);
    b.tx_begin();
    for _ in 0..updates {
        b.input(Reg(1)); // counter index
        b.input(Reg(2)); // delta
        b.bin(BinOp::Mod, Reg(1), Reg(1), Operand::Imm(pool as i64));
        b.bin(BinOp::Shl, Reg(1), Reg(1), Operand::Imm(3));
        b.load(Reg(3), Reg(1), 0);
        b.bin(BinOp::Add, Reg(3), Reg(3), Operand::Reg(Reg(2)));
        b.store(Operand::Reg(Reg(3)), Reg(1), 0);
        if work > 0 {
            b.work(work);
        }
    }
    b.tx_commit();
    b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
    b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
    b.select(done);
    b.halt();
    b.build().expect("program is well-formed")
}

/// Runs the additive workload under `system` and returns the final counter
/// values.
fn final_state(
    system: System,
    cores: usize,
    pool: u64,
    iters: u64,
    updates: u32,
    work: u32,
    seed: u64,
) -> Vec<u64> {
    let mut machine = Machine::new(
        SimConfig::with_cores(cores),
        system.protocol(cores),
        (0..cores)
            .map(|_| additive_program(pool, iters, updates, work))
            .collect::<Vec<_>>(),
    );
    let mut rng = SplitMix64::new(seed);
    for c in 0..cores {
        let tape: Vec<u64> = (0..2 * iters * updates as u64)
            .map(|i| {
                if i % 2 == 0 {
                    rng.next_u64() >> 8 // index
                } else {
                    rng.below(50) // small delta
                }
            })
            .collect();
        machine.set_tape(c, tape);
    }
    machine.run().expect("run completes");
    (0..pool)
        .map(|i| machine.mem().read_word(Addr(i * 8)))
        .collect()
}

/// Smoke-test matrix: the paper's shared-counter program (Figure 2) run
/// under every protocol of the evaluation. Each transaction increments the
/// single shared counter at `Addr(0)` twice, so *any* serializable commit
/// order ends with `counter == 2 * transactions`; a protocol that loses or
/// phantoms an update, or double-commits a transaction, fails one of the
/// assertions below.
#[test]
fn shared_counter_smoke_matrix_all_protocols() {
    let cores = 4usize;
    let seed = 7u64;
    let mut states: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for system in [
        System::Eager,
        System::Lazy,
        System::LazyVb,
        System::Retcon,
        System::Datm,
    ] {
        let spec = Workload::Counter.build(cores, seed);
        let txs = counter_total_transactions(cores);
        let mut machine = Machine::new(
            SimConfig::with_cores(cores),
            system.protocol(cores),
            spec.programs.clone(),
        );
        for (i, tape) in spec.tapes.iter().enumerate() {
            machine.set_tape(i, tape.clone());
        }
        for &(addr, value) in &spec.init {
            machine.init_word(addr, value);
        }
        let report = machine.run().expect("counter workload completes");

        // Serializable commit order: every transaction commits exactly once,
        // and the final counter equals the outcome of every serial order of
        // those commits.
        assert_eq!(
            report.protocol.commits,
            txs,
            "commit count under {} is not one-per-transaction",
            system.label()
        );
        assert_eq!(
            machine.mem().read_word(Addr(0)),
            2 * txs,
            "final counter under {} diverges from the serial oracle",
            system.label()
        );

        // Snapshot the counter's block for the cross-protocol comparison.
        let state: Vec<u64> = (0..8)
            .map(|w| machine.mem().read_word(Addr(w * 8)))
            .collect();
        states.push((system.label(), state));
    }
    // Identical final memory state across the whole matrix.
    let (first_label, first_state) = &states[0];
    for (label, state) in &states[1..] {
        assert_eq!(
            state, first_state,
            "final memory under {label} differs from {first_label}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Commutative workloads end in the same state under every protocol —
    /// and that state equals the oracle sum of all deltas.
    #[test]
    fn additive_workloads_agree_across_protocols(
        cores in 2usize..5,
        pool in 1u64..4,
        updates in 1u32..3,
        work in 0u32..20,
        seed in any::<u64>(),
    ) {
        let iters = 8u64;
        // Oracle: replay the tapes directly.
        let mut oracle = vec![0u64; pool as usize];
        let mut rng = SplitMix64::new(seed);
        for _ in 0..cores {
            for _ in 0..iters * updates as u64 {
                let idx = (rng.next_u64() >> 8) % pool;
                let delta = rng.below(50);
                oracle[idx as usize] = oracle[idx as usize].wrapping_add(delta);
            }
        }
        for system in [
            System::Eager,
            System::Lazy,
            System::LazyVb,
            System::Retcon,
            System::RetconIdeal,
        ] {
            let state = final_state(system, cores, pool, iters, updates, work, seed);
            prop_assert_eq!(
                &state, &oracle,
                "final state under {} diverges from the oracle", system.label()
            );
        }
    }
}
