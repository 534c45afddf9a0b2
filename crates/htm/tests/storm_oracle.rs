//! The stall-storm oracle against the real path, at protocol level: wherever
//! [`AnyProtocol::stall_storm`] certifies the retry of a stalled access or
//! commit, executing that retry for real and applying it through
//! [`AnyProtocol::apply_stall_retries`] must be indistinguishable — same
//! stall, same counters, and the same result of everything that follows.
//!
//! Sequences are short random interleavings on 2–4 cores. A core whose
//! action stalled retries that action on its next turn, after other cores
//! may have run — so the oracle is also asked in states the stalled
//! attempt did not leave behind (a new reader began tracking the block, a
//! victim committed), where it must decline rather than certify.

use proptest::prelude::*;
use retcon::RetconConfig;
use retcon_htm::{
    AnyProtocol, CommitResult, ConflictPolicy, DatmLite, EagerTm, MemResult, RetconTm, StallAction,
};
use retcon_isa::{Addr, BinOp, Reg};
use retcon_mem::{CoreId, MemConfig, MemorySystem};

#[derive(Debug, Clone, Copy)]
enum Op {
    Begin,
    Read(Addr),
    /// A store of an immediate, or (`true`) of `r1 + 1` through the
    /// register hooks, which RETCON buffers symbolically.
    Write(Addr, bool),
    Commit,
}

/// The protocols under test. RETCON runs twice: tracking from the first
/// touch (every conflict is a steal) and at the paper's threshold, where
/// cores that have not yet seen a conflict on a block access it plainly —
/// the mix of hard and stealable victims the verdict has to tell apart.
const PROTOCOLS: usize = 5;

fn protocol(i: usize, cores: usize) -> AnyProtocol {
    let track_on_first_touch = RetconConfig {
        initial_threshold: 0,
        ..RetconConfig::default()
    };
    match i {
        0 => EagerTm::new(cores, ConflictPolicy::OldestWins).into(),
        1 => EagerTm::new(cores, ConflictPolicy::RequesterLoses).into(),
        2 => RetconTm::new(cores, track_on_first_touch).into(),
        3 => RetconTm::new(cores, RetconConfig::default()).into(),
        _ => DatmLite::new(cores).into(),
    }
}

/// Drives `turns` (core, op) through `tm`. A certified retry is executed
/// for real when `real`, applied through the oracle otherwise. Returns
/// everything observable: each turn's result, then the counters.
fn drive(mut tm: AnyProtocol, cores: usize, turns: &[(usize, Op)], real: bool) -> Vec<String> {
    let mut mem: MemorySystem = MemorySystem::new(MemConfig::default(), cores);
    let mut stalled: Vec<Option<Op>> = vec![None; cores];
    let mut r1 = vec![0u64; cores];
    let mut log = Vec::new();
    for (step, &(c, fresh)) in turns.iter().enumerate() {
        let (core, now) = (CoreId(c), 10 * step as u64);
        if tm.take_aborted(core) {
            log.push(format!("{c}: aborted remotely"));
            stalled[c] = None;
        }
        // A stalled core retries; a fresh op the state does not admit
        // (nested begin, commit outside a transaction) becomes a read.
        let retry = stalled[c].take();
        let op = match retry.unwrap_or(fresh) {
            Op::Begin if tm.tx_active(core) => Op::Read(Addr(0)),
            Op::Commit if !tm.tx_active(core) => Op::Read(Addr(0)),
            op => op,
        };
        let action = match op {
            Op::Begin => None,
            Op::Read(a) => Some(StallAction::Read(a)),
            Op::Write(a, _) => Some(StallAction::Write(a)),
            Op::Commit => Some(StallAction::Commit),
        };
        let certified = action
            .filter(|_| retry.is_some())
            .and_then(|action| tm.stall_storm(core, action, &mem));
        if let (Some(storm), false) = (&certified, real) {
            tm.apply_stall_retries(core, storm, 1, &mut mem);
            log.push(format!("{c}: {op:?} -> certified stall"));
            stalled[c] = Some(op);
            continue;
        }
        let (result, stall) = match op {
            Op::Begin => {
                tm.tx_begin(core, now);
                ("begun".to_string(), false)
            }
            Op::Read(a) => {
                let r = tm.read(core, Reg(1), a, None, &mut mem, now);
                if let MemResult::Value { value, .. } = r {
                    r1[c] = value;
                }
                (format!("{r:?}"), r == MemResult::Stall)
            }
            Op::Write(a, from_reg) => {
                // The increment retires once; only the store retries.
                if from_reg && retry.is_none() {
                    r1[c] = tm.on_alu(core, BinOp::Add, Reg(1), Reg(1), None, r1[c], 1);
                }
                let (src, value) = if from_reg {
                    (Some(Reg(1)), r1[c])
                } else {
                    (None, 100 + step as u64)
                };
                let r = tm.write(core, src, value, a, None, &mut mem, now);
                (format!("{r:?}"), r == MemResult::Stall)
            }
            Op::Commit => {
                let r = tm.commit(core, &mut mem, now);
                if let CommitResult::Committed { reg_updates, .. } = &r {
                    for &(_, v) in reg_updates {
                        r1[c] = v;
                    }
                }
                (format!("{r:?}"), r == CommitResult::Stall)
            }
        };
        if certified.is_some() {
            assert!(stall, "{c}: {op:?} was certified to stall, got {result}");
            log.push(format!("{c}: {op:?} -> certified stall"));
        } else {
            log.push(format!("{c}: {op:?} -> {result}"));
        }
        stalled[c] = stall.then_some(op);
    }
    for c in 0..cores {
        log.push(format!(
            "{:?} {:?}",
            tm.stats(CoreId(c)),
            mem.stats(CoreId(c))
        ));
    }
    log.push(format!("{:?}", tm.retcon_stats()));
    log
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Two blocks, two words each: few enough that a stalled writer often
    // meets a plain reader and a tracking reader on one block, and still a
    // prefix block for RETCON's commit walk.
    let addr = (0u64..2, 0u64..2).prop_map(|(block, word)| Addr(block * 8 + word));
    prop_oneof![
        Just(Op::Begin),
        Just(Op::Begin),
        addr.clone().prop_map(Op::Read),
        addr.clone().prop_map(Op::Read),
        (addr.clone(), any::<bool>()).prop_map(|(a, from_reg)| Op::Write(a, from_reg)),
        (addr, any::<bool>()).prop_map(|(a, from_reg)| Op::Write(a, from_reg)),
        Just(Op::Commit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn certified_retries_equal_real_retries(
        cores in 2usize..=4,
        turns in proptest::collection::vec((0usize..4, op_strategy()), 20..80),
    ) {
        let turns: Vec<_> = turns.into_iter().map(|(c, op)| (c % cores, op)).collect();
        for i in 0..PROTOCOLS {
            let run = |real| drive(protocol(i, cores), cores, &turns, real);
            prop_assert_eq!(run(true), run(false));
        }
    }
}
