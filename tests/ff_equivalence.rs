//! Stall-storm fast-forward equivalence: analytically skipping certified
//! retry storms must be *invisible* in the report — every cycle count,
//! breakdown bucket, protocol counter, and RETCON structure statistic
//! identical to executing each retry step by step.
//!
//! The property is exercised over random small contended configurations
//! (the shapes that actually form storms) under all seven systems, on the
//! default deterministic schedule, where a certified storm parks until a
//! watched block moves and is charged in closed form when woken, and under
//! a `SeededFuzz` schedule, which decides one step at a time: there nothing
//! is certified, every retry is re-executed, and the run must record no
//! storm fast-forward at all. The targeted specs below drive each wake
//! condition on purpose: a change to a commit storm's watched prefix, a
//! remote abort, a predictor read by a core the parked storm trains, and
//! nothing left to wake at all. After every run that completes, no core
//! may still watch a block: a leaked watcher only causes spurious wakes,
//! which no report would show.

use proptest::prelude::*;
use retcon_isa::{Addr, CmpOp, Operand, Program, ProgramBuilder, Reg, WORDS_PER_BLOCK};
use retcon_obs::{EventKind, RingTracer};
use retcon_sim::{SeededFuzz, SimConfig, SimReport};
use retcon_workloads::{machine_for_sized, System, Workload, WorkloadSpec};

const SYSTEMS: [System; 7] = [
    System::Eager,
    System::EagerAbort,
    System::Lazy,
    System::LazyVb,
    System::Retcon,
    System::RetconIdeal,
    System::Datm,
];

/// Contended shapes kept small enough for step-by-step re-execution in a
/// debug-build property test.
fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(Workload::Counter),
        Just(Workload::Python { optimized: false }),
        Just(Workload::Genome { resizable: true }),
    ]
}

/// A run's outcome: the report with the `SeededFuzz` decision count and
/// trace hash (zero under the default schedule), or the error.
type Outcome = Result<(SimReport, u64, u64), String>;

/// Runs `spec` under each of `systems` at `CoreSet` size class `N` with
/// fast-forward on and off — on the default schedule, or on
/// `SeededFuzz::new(seed)` when `fuzz` is `Some(seed)` — and asserts equal
/// outcomes: the same report (and fuzz decision count and trace hash), or
/// the same error. A run that completes must leave no watcher behind, and
/// a fuzzed run, being stepped, must record no storm fast-forward. The
/// fast-forwarded run is traced; returns, per system, how many storm
/// fast-forwards core `core` took (a parked core records one per wake or
/// predictor flush that owed it retries).
fn assert_ff_equivalent<const N: usize>(
    spec: &WorkloadSpec,
    systems: &[System],
    cfg: SimConfig,
    core: usize,
    fuzz: Option<u64>,
) -> Vec<usize> {
    let cores = spec.num_cores();
    let mut ffs = Vec::new();
    for &system in systems {
        let mut outcomes = Vec::new();
        for ff in [true, false] {
            let mut machine = machine_for_sized::<N>(spec, system.protocol_sized::<N>(cores), cfg);
            machine.set_fast_forward(ff);
            if ff {
                machine.set_tracer(RingTracer::with_capacity(1 << 16));
            }
            let outcome: Outcome = match fuzz {
                None => machine.run().map(|report| (report, 0, 0)),
                Some(seed) => {
                    let mut sched = SeededFuzz::new(seed);
                    let report = machine.run_with(&mut sched);
                    report.map(|report| (report, sched.decisions(), sched.trace_hash()))
                }
            }
            .map_err(|e| e.to_string());
            assert!(
                outcome.is_err() || machine.mem().no_watchers(),
                "{} on {} cores under {} (fast-forward {ff}, fuzz {fuzz:?}): \
                 a watcher outlived the run",
                spec.name,
                cores,
                system.label()
            );
            outcomes.push(outcome);
            if let Some(tracer) = machine.take_tracer() {
                assert!(
                    fuzz.is_none() || tracer.count(EventKind::StormFf) == 0,
                    "{} on {} cores under {} (fuzz {fuzz:?}): a stepped run fast-forwarded",
                    spec.name,
                    cores,
                    system.label()
                );
                let of_core = tracer.events().filter(|e| {
                    usize::from(e.core) == core && e.event_kind() == Some(EventKind::StormFf)
                });
                ffs.push(of_core.count());
            }
        }
        assert_eq!(
            outcomes[0],
            outcomes[1],
            "{} on {} cores under {} (fuzz {fuzz:?}): fast-forwarded and step-by-step runs differ",
            spec.name,
            cores,
            system.label()
        );
    }
    ffs
}

/// [`assert_ff_equivalent`] for a run that completes, at default settings,
/// counting the last core's fast-forwards.
fn assert_ff_equivalent_run<const N: usize>(
    spec: &WorkloadSpec,
    systems: &[System],
    fuzz: Option<u64>,
) -> Vec<usize> {
    let cores = spec.num_cores();
    assert_ff_equivalent::<N>(spec, systems, SimConfig::with_cores(cores), cores - 1, fuzz)
}

/// `readers` transactional readers of one block, each holding it for 2000
/// cycles, and one *younger* transactional writer of the same block on the
/// last core: the writer's store conflicts with every reader at once.
fn wide_conflict(readers: usize) -> WorkloadSpec {
    let reader = {
        let mut b = ProgramBuilder::new();
        b.tx_begin().imm(Reg(1), 0).load(Reg(2), Reg(1), 0);
        b.work(2000).tx_commit().halt();
        b.build().expect("reader program")
    };
    let mut b = ProgramBuilder::new();
    b.work(50).tx_begin().imm(Reg(1), 0);
    b.store(Operand::Imm(7), Reg(1), 0).tx_commit().halt();
    let mut programs = vec![reader; readers];
    programs.push(b.build().expect("writer program"));
    WorkloadSpec {
        name: "wide_conflict",
        tapes: vec![Vec::new(); programs.len()],
        programs: programs.into(),
        init: vec![(Addr(0), 1)],
    }
}

/// A conflict wider than one `CoreSet` word certifies like any other: the
/// writer's storm against 95 older readers on a 2-word machine is
/// fast-forwarded, not retried step by step.
#[test]
fn conflicts_wider_than_64_victims_still_fast_forward() {
    let systems = [System::Eager, System::Retcon];
    let ffs = assert_ff_equivalent_run::<2>(&wide_conflict(95), &systems, None);
    assert!(
        ffs.iter().all(|&n| n > 0),
        "writer storm_ff events: {ffs:?}"
    );
}

/// The first word of block `b`.
const fn block(b: u64) -> i64 {
    (b * WORDS_PER_BLOCK) as i64
}

/// A spec of hand-written programs (no tapes, zeroed memory).
fn hand_spec(name: &'static str, programs: Vec<Program>) -> WorkloadSpec {
    WorkloadSpec {
        name,
        tapes: vec![Vec::new(); programs.len()],
        programs: programs.into(),
        init: Vec::new(),
    }
}

/// Holds block `b` written for `cycles` inside a transaction (run on core 0,
/// it is the oldest).
fn holder(b: u64, cycles: u32) -> Program {
    let mut p = ProgramBuilder::new();
    p.tx_begin().imm(Reg(1), block(b) as u64);
    p.store(Operand::Imm(1), Reg(1), 0)
        .work(cycles)
        .tx_commit()
        .halt();
    p.build().expect("holder program")
}

/// (a) A RETCON commit storm woken by its watched prefix alone. Core 1
/// tracks block 2 (its predictor learned the block from the abort core 2's
/// first store causes) and buffers a symbolic store to block 1, so its
/// commit re-acquires block 2 — the watched prefix — and stalls on block 1
/// behind core 0. Core 2 keeps writing block 2: each store steals it from
/// the parked committer, which changes block 2's footprint row and nothing
/// of block 1's. Woken, the committer re-acquires block 2 and downgrades core 2's
/// copy, so core 2's next store pays an upgrade; a committer left asleep
/// would let those stores hit.
#[test]
fn a_commit_storm_wakes_on_its_watched_prefix() {
    let committer = {
        let mut p = ProgramBuilder::new();
        p.imm(Reg(1), block(2) as u64).imm(Reg(3), block(1) as u64);
        p.tx_begin()
            .load(Reg(2), Reg(1), 0)
            .work(300)
            .add_imm(Reg(2), 1);
        p.store(Operand::Reg(Reg(2)), Reg(3), 0).tx_commit().halt();
        p.build().expect("committer program")
    };
    let stealer = {
        let mut p = ProgramBuilder::new();
        p.imm(Reg(1), block(2) as u64).work(100);
        p.store(Operand::Imm(5), Reg(1), 0).work(1500);
        for v in 0..8 {
            p.store(Operand::Imm(v), Reg(1), 0).work(200);
        }
        p.halt();
        p.build().expect("stealer program")
    };
    let spec = hand_spec("prefix_wake", vec![holder(1, 4000), committer, stealer]);
    let ffs = assert_ff_equivalent::<1>(&spec, &SYSTEMS, SimConfig::with_cores(3), 1, None);
    assert!(
        ffs[4] > 0,
        "the RetCon committer parked and was woken: {ffs:?}"
    );
}

/// (b) A parked core aborted remotely wakes at once. Core 1 holds block 2
/// written and stalls on block 1 behind core 0 (it never touched block 1,
/// so its own abort moves nothing it watches). Core 2, older than core 1,
/// then writes block 2 and aborts it: the parked core must restart from
/// that key, not sleep on until core 0 commits. Under `SeededFuzz` the
/// same storm is stepped: every retry re-executes and none is
/// fast-forwarded.
#[test]
fn a_remote_abort_wakes_the_parked_victim() {
    let victim = {
        let mut p = ProgramBuilder::new();
        p.work(10)
            .imm(Reg(1), block(2) as u64)
            .imm(Reg(3), block(1) as u64);
        p.tx_begin().store(Operand::Imm(2), Reg(1), 0);
        p.store(Operand::Imm(3), Reg(3), 0).tx_commit().halt();
        p.build().expect("victim program")
    };
    let aborter = {
        let mut p = ProgramBuilder::new();
        p.tx_begin().imm(Reg(1), block(2) as u64).work(1000);
        p.store(Operand::Imm(4), Reg(1), 0)
            .work(6000)
            .tx_commit()
            .halt();
        p.build().expect("aborter program")
    };
    let spec = hand_spec("remote_abort", vec![holder(1, 5000), victim, aborter]);
    let ffs = assert_ff_equivalent::<1>(&spec, &SYSTEMS, SimConfig::with_cores(3), 1, None);
    assert!(ffs[0] > 0, "the eager victim parked and was woken: {ffs:?}");
    let ffs = assert_ff_equivalent::<1>(&spec, &SYSTEMS, SimConfig::with_cores(3), 1, Some(1));
    assert!(
        ffs.iter().all(|&n| n == 0),
        "a stepped run records no storm_ff: {ffs:?}"
    );
}

/// (b) The same under DATM, through a cascade. Core 2 reads block 1, which
/// core 1 wrote, so its commit waits on core 1 and parks. Core 0, the
/// oldest, then reads block 2, also written by core 1: the dependence
/// would invert the age order, so core 1 aborts and takes its consumer,
/// the parked committer, with it.
#[test]
fn a_datm_cascade_wakes_the_parked_committer() {
    let reader_of_2 = {
        let mut p = ProgramBuilder::new();
        p.tx_begin().imm(Reg(1), block(2) as u64).work(2000);
        p.load(Reg(2), Reg(1), 0).tx_commit().halt();
        p.build().expect("oldest reader program")
    };
    let writer = {
        let mut p = ProgramBuilder::new();
        p.work(5)
            .imm(Reg(1), block(1) as u64)
            .imm(Reg(3), block(2) as u64);
        p.tx_begin().store(Operand::Imm(1), Reg(1), 0);
        p.store(Operand::Imm(2), Reg(3), 0)
            .work(5000)
            .tx_commit()
            .halt();
        p.build().expect("writer program")
    };
    let consumer = {
        let mut p = ProgramBuilder::new();
        p.work(300).imm(Reg(1), block(1) as u64);
        p.tx_begin().load(Reg(2), Reg(1), 0).tx_commit().halt();
        p.build().expect("consumer program")
    };
    let spec = hand_spec("datm_cascade", vec![reader_of_2, writer, consumer]);
    let ffs = assert_ff_equivalent::<1>(&spec, &SYSTEMS, SimConfig::with_cores(3), 2, None);
    assert!(
        ffs[6] > 0,
        "the DATM committer parked and was woken: {ffs:?}"
    );
}

/// (c) A parked storm trains the predictor of a core that reads it. Core 1
/// tracks block 1, records the constraint `block 1 != 0`, and buffers
/// stores to blocks 1 and 2; core 3 steals block 1 and zeroes it. Core 1's
/// commit re-acquires block 1 written and stalls on block 2 behind core 0,
/// so it parks. Core 2, younger, writes block 1 and stalls behind core 1:
/// its storm trains core 1's predictor on block 1 every retry. When core 0
/// commits, core 1's retried commit violates the constraint and trains its
/// predictor down from the conflict count — which must include core 2's
/// retries so far, and only those.
#[test]
fn a_parked_storm_trains_the_predictor_its_victim_reads() {
    let committer = {
        let mut p = ProgramBuilder::new();
        let nonzero = p.block();
        let zero = p.block();
        p.tx_begin()
            .imm(Reg(1), block(1) as u64)
            .imm(Reg(4), block(2) as u64);
        p.load(Reg(2), Reg(1), 0).work(300);
        p.branch(CmpOp::Eq, Reg(2), Operand::Imm(0), zero, nonzero);
        p.select(nonzero);
        p.add_imm(Reg(2), 1).store(Operand::Reg(Reg(2)), Reg(4), 0);
        p.store(Operand::Imm(9), Reg(1), 0).tx_commit().halt();
        p.select(zero);
        p.tx_commit().halt();
        p.build().expect("committer program")
    };
    let trainer = {
        let mut p = ProgramBuilder::new();
        p.tx_begin().work(1000).imm(Reg(1), block(1) as u64);
        p.store(Operand::Imm(3), Reg(1), 0).tx_commit();
        p.load(Reg(2), Reg(1), 0).halt();
        p.build().expect("trainer program")
    };
    let stealer = {
        let mut p = ProgramBuilder::new();
        p.imm(Reg(1), block(1) as u64).work(100);
        p.store(Operand::Imm(5), Reg(1), 0).work(150);
        p.store(Operand::Imm(0), Reg(1), 0).halt();
        p.build().expect("stealer program")
    };
    let spec = hand_spec(
        "parked_trainer",
        vec![holder(2, 6000), committer, trainer, stealer],
    );
    let ffs = assert_ff_equivalent::<1>(&spec, &SYSTEMS, SimConfig::with_cores(4), 2, None);
    assert!(
        ffs[4] > 0,
        "the RetCon trainer parked and was charged: {ffs:?}"
    );
}

/// (d) Every core that could run is parked: core 0 halts inside its
/// transaction holding block 1, core 1 stalls on it for good, core 2 waits
/// at a barrier that only a runnable-free machine would release.
/// Re-execution retries until the cycle limit; the parked run must report
/// the same error instead of releasing the barrier.
#[test]
fn nothing_left_to_wake_reaches_the_cycle_limit() {
    let abandoner = {
        let mut p = ProgramBuilder::new();
        p.tx_begin().imm(Reg(1), block(1) as u64);
        p.store(Operand::Imm(1), Reg(1), 0).halt();
        p.build().expect("abandoner program")
    };
    let waiter = {
        let mut p = ProgramBuilder::new();
        p.work(10).tx_begin().imm(Reg(1), block(1) as u64);
        p.store(Operand::Imm(2), Reg(1), 0).tx_commit().halt();
        p.build().expect("waiter program")
    };
    let mut idler = ProgramBuilder::new();
    idler.barrier().halt();
    let spec = hand_spec(
        "nothing_to_wake",
        vec![abandoner, waiter, idler.build().expect("idler program")],
    );
    let cfg = SimConfig {
        max_cycles: 50_000,
        ..SimConfig::with_cores(3)
    };
    assert_ff_equivalent::<1>(&spec, &SYSTEMS, cfg, 1, None);
    let eager = machine_for_sized::<1>(&spec, System::Eager.protocol_sized::<1>(3), cfg).run();
    assert!(eager.is_err(), "eager must hit the cycle limit: {eager:?}");
}

/// Core counts on both sides of a `CoreSet` word: 65 runs in the 2-word
/// size class, so waiter sets and trainer sets span words.
fn cores_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(3), Just(8), Just(33), Just(65)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Each generated configuration runs twice: parked on the default
    /// schedule, and stepped under `SeededFuzz` with a drawn seed.
    #[test]
    fn fast_forward_is_invisible_in_reports(
        workload in workload_strategy(),
        cores in cores_strategy(),
        seed in 0u64..1000,
        fuzz_seed in 0u64..1000,
    ) {
        let spec = workload.build(cores, seed);
        for fuzz in [None, Some(fuzz_seed)] {
            if cores > 64 {
                assert_ff_equivalent_run::<2>(&spec, &SYSTEMS, fuzz);
            } else {
                assert_ff_equivalent_run::<1>(&spec, &SYSTEMS, fuzz);
            }
        }
    }
}

/// Fixed fuzzed inputs beside the drawn ones: the contended counter under
/// every system, the storm-heavy python shape scaled down, and three more
/// fuzz seeds. A jittered schedule draws from its RNG on every executed
/// stall, so equal decision counts and trace hashes pin that fast-forward
/// left every retry to real execution.
#[test]
fn fuzzed_replay_is_identical_on_fixed_inputs() {
    let counter = |cores| Workload::Counter.build(cores, 42);
    assert_ff_equivalent_run::<1>(&counter(8), &SYSTEMS, Some(7));
    let python = Workload::Python { optimized: false }.build(4, 42);
    assert_ff_equivalent_run::<1>(&python, &[System::Retcon], Some(3));
    for fuzz_seed in [1, 99, 12345] {
        assert_ff_equivalent_run::<1>(&counter(4), &[System::Retcon], Some(fuzz_seed));
    }
}

/// The paper-shape corner: the heaviest contended configuration the bench
/// tracks, pinned deterministically on top of the random sweep (ignored by
/// default: ~a minute of step-by-step re-execution in debug builds; CI runs
/// it in release).
#[test]
#[ignore]
fn fast_forward_is_invisible_on_the_bench_shape() {
    assert_ff_equivalent_run::<1>(
        &Workload::Python { optimized: false }.build(32, 1),
        &SYSTEMS,
        None,
    );
}
