//! The paper's core correctness claim, as a property test:
//!
//! *"As long as changes in values do not result in control flow changes,
//! the output thus produced will be the same as if the transaction had
//! executed using those input values in the first place."* (§4)
//!
//! We generate random straight-line transactions over a few symbolic
//! locations — loads, add/sub (and occasionally untrackable) arithmetic,
//! branches, stores — execute them through the RETCON engine against
//! *initial* values, steal every block, and repair against *final* values.
//! The engine is driven through the calls `RetconTm` makes: fused
//! `transactional_load`, then `begin_tracking` + `finish_tracked_load` on a
//! miss; `on_store`, then store-initiated tracking on a plain store; and
//! `validate_and_repair_into` into one reused `Repair`, as each core's
//! commit reuses its own.
//! Whenever the engine accepts the commit, the repaired outputs must equal
//! the outputs of an oracle interpreter that re-executes the same program
//! directly against the final values. Whenever the oracle's control flow
//! would have differed, the engine must have rejected the commit.

use std::cell::RefCell;

use proptest::prelude::*;

use retcon::{Engine, Repair, RetconConfig, StorePath};
use retcon_isa::{Addr, BinOp, CmpOp, Reg};

thread_local! {
    /// The repair buffers every case commits into: stale output from an
    /// earlier case must never leak into a later one.
    static REPAIR: RefCell<Repair> = RefCell::new(Repair::default());
}

/// One step of a generated transaction.
#[derive(Debug, Clone)]
enum Step {
    /// `reg[dst] <- mem[loc]` (symbolic location index).
    Load { dst: u8, loc: u8 },
    /// `reg[dst] <- reg[dst] op k`.
    Alu { dst: u8, op: BinOp, k: u8 },
    /// Branch on `reg[src] cmp k` (outcome recorded, both paths fall
    /// through — straight-line control flow keeps the oracle simple while
    /// still generating every kind of constraint).
    Branch { src: u8, cmp: CmpOp, k: u8 },
    /// `mem[loc] <- reg[src]`.
    Store { src: u8, loc: u8 },
}

const NUM_LOCS: usize = 4;
const NUM_REGS_USED: u8 = 4;

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..NUM_REGS_USED, 0..NUM_LOCS as u8).prop_map(|(dst, loc)| Step::Load { dst, loc }),
        (
            0..NUM_REGS_USED,
            prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Add),
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Sub),
                Just(BinOp::Mul), // occasionally untrackable
            ],
            0u8..16
        )
            .prop_map(|(dst, op, k)| Step::Alu { dst, op, k }),
        (
            0..NUM_REGS_USED,
            prop_oneof![
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge),
                Just(CmpOp::Eq),
                Just(CmpOp::Ne),
            ],
            0u8..200
        )
            .prop_map(|(src, cmp, k)| Step::Branch { src, cmp, k }),
        (0..NUM_REGS_USED, 0..NUM_LOCS as u8).prop_map(|(src, loc)| Step::Store { src, loc }),
    ]
}

/// Word address of symbolic location `i` (each in its own block).
fn loc_addr(i: u8) -> Addr {
    Addr(i as u64 * 8)
}

/// Oracle: directly executes the steps against `mem`, returning the final
/// registers, the memory updates in order, and the branch outcomes.
fn oracle(
    steps: &[Step],
    mem: &[u64; NUM_LOCS],
) -> ([u64; NUM_REGS_USED as usize], Vec<(u8, u64)>, Vec<bool>) {
    let mut mem = *mem;
    let mut regs = [0u64; NUM_REGS_USED as usize];
    let mut stores = Vec::new();
    let mut branches = Vec::new();
    for s in steps {
        match *s {
            Step::Load { dst, loc } => regs[dst as usize] = mem[loc as usize],
            Step::Alu { dst, op, k } => regs[dst as usize] = op.apply(regs[dst as usize], k as u64),
            Step::Branch { src, cmp, k } => branches.push(cmp.apply(regs[src as usize], k as u64)),
            Step::Store { src, loc } => {
                mem[loc as usize] = regs[src as usize];
                stores.push((loc, regs[src as usize]));
            }
        }
    }
    (regs, stores, branches)
}

/// Runs the steps through the RETCON engine against `initial`, then
/// attempts repair against `fin`. Returns `Some((regs, final_mem))` if the
/// engine committed, `None` if it aborted.
fn engine_run(
    steps: &[Step],
    initial: &[u64; NUM_LOCS],
    fin: &[u64; NUM_LOCS],
) -> Option<([u64; NUM_REGS_USED as usize], [u64; NUM_LOCS])> {
    let cfg = RetconConfig {
        initial_threshold: 0, // track everything
        ..RetconConfig::default()
    };
    let mut eng = Engine::new(cfg);
    eng.begin();
    let mut regs = [0u64; NUM_REGS_USED as usize];
    for s in steps {
        match *s {
            Step::Load { dst, loc } => {
                let addr = loc_addr(loc);
                let value = match eng.transactional_load(Reg(dst), addr) {
                    Some(value) => value,
                    None => {
                        // A memory load; with the threshold at 0 the
                        // predictor asks to track every block.
                        assert!(eng.wants_tracking(addr));
                        assert!(eng.begin_tracking(addr.block(), |_| initial[loc as usize]));
                        eng.finish_tracked_load(Reg(dst), addr)
                    }
                };
                regs[dst as usize] = value;
            }
            Step::Alu { dst, op, k } => {
                regs[dst as usize] =
                    eng.on_alu(op, Reg(dst), Reg(dst), None, regs[dst as usize], k as u64);
            }
            Step::Branch { src, cmp, k } => {
                let _ = eng.on_branch(cmp, Reg(src), None, regs[src as usize], k as u64);
            }
            Step::Store { src, loc } => {
                let addr = loc_addr(loc);
                let value = regs[src as usize];
                match eng.on_store(addr, Some(Reg(src)), value) {
                    StorePath::Buffered => {}
                    StorePath::Overflow => return None,
                    StorePath::Normal => {
                        // Store-initiated tracking of a blind write: a
                        // store can precede any load of the block.
                        assert!(eng.begin_tracking(addr.block(), |_| initial[loc as usize]));
                        match eng.on_store(addr, Some(Reg(src)), value) {
                            StorePath::Buffered => {}
                            StorePath::Overflow => return None,
                            StorePath::Normal => unreachable!("stores to tracked blocks buffer"),
                        }
                    }
                }
            }
        }
    }
    // Steal every block, then repair against the final values.
    for i in 0..NUM_LOCS as u8 {
        eng.on_steal(loc_addr(i).block());
    }
    REPAIR.with(|repair| {
        let mut repair = repair.borrow_mut();
        eng.validate_and_repair_into(
            |w| {
                let loc = (w.0 / 8) as usize;
                if w.offset_in_block() == 0 && loc < NUM_LOCS {
                    fin[loc]
                } else {
                    0
                }
            },
            &mut repair,
        )
        .ok()?;
        // Apply the repair.
        let mut mem = *fin;
        for &(addr, value) in &repair.stores {
            mem[(addr.0 / 8) as usize] = value;
        }
        for &(reg, value) in &repair.registers {
            regs[reg.index()] = value;
        }
        Some((regs, mem))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// If RETCON commits, its outputs equal direct execution against the
    /// final values; if the final values would change control flow, RETCON
    /// must abort.
    #[test]
    fn repair_equals_replay(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        initial in proptest::array::uniform4(100u64..200),
        fin in proptest::array::uniform4(100u64..200),
    ) {
        let (_, _, branches_initial) = oracle(&steps, &initial);
        let (oracle_regs, _, branches_final) = oracle(&steps, &fin);
        let mut oracle_mem = fin;
        let (_, oracle_stores, _) = oracle(&steps, &fin);
        for (loc, v) in oracle_stores {
            oracle_mem[loc as usize] = v;
        }

        match engine_run(&steps, &initial, &fin) {
            Some((regs, mem)) => {
                // The engine committed: control flow must genuinely be
                // unchanged, and outputs must match the replay oracle.
                prop_assert_eq!(
                    &branches_initial, &branches_final,
                    "engine committed across a control-flow change"
                );
                // Registers never written by the program are 0 in both.
                prop_assert_eq!(regs, oracle_regs, "register repair mismatch");
                prop_assert_eq!(mem, oracle_mem, "memory repair mismatch");
            }
            None => {
                // The engine aborted. That is always sound; it must happen
                // whenever control flow changed (completeness may also lose
                // to conservative equality pins, so we only check soundness
                // in the other direction).
            }
        }
    }

    /// With identical initial and final values, the engine must always
    /// commit (nothing changed, so nothing can violate a constraint) and
    /// reproduce direct execution exactly.
    #[test]
    fn unchanged_values_always_commit(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        initial in proptest::array::uniform4(100u64..200),
    ) {
        let (oracle_regs, oracle_stores, _) = oracle(&steps, &initial);
        let mut oracle_mem = initial;
        for (loc, v) in oracle_stores {
            oracle_mem[loc as usize] = v;
        }
        let result = engine_run(&steps, &initial, &initial);
        prop_assert!(result.is_some(), "abort despite unchanged inputs");
        let (regs, mem) = result.expect("checked");
        prop_assert_eq!(regs, oracle_regs);
        prop_assert_eq!(mem, oracle_mem);
    }
}
