//! Stall-storm fast-forward equivalence: analytically skipping certified
//! retry storms must be *invisible* in the report — every cycle count,
//! breakdown bucket, protocol counter, and RETCON structure statistic
//! identical to executing each retry step by step.
//!
//! The property is exercised over random small contended configurations
//! (the shapes that actually form storms) under all seven systems, on the
//! default deterministic schedule where the closed form is active.

use proptest::prelude::*;
use retcon_isa::{Addr, Operand, ProgramBuilder, Reg};
use retcon_obs::{EventKind, RingTracer};
use retcon_sim::SimConfig;
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

/// Runs `spec` under each of `systems` at `CoreSet` size class `N` with
/// fast-forward on and off and asserts equal reports. The fast-forwarded
/// run is traced; returns, per system, how many storm fast-forwards the
/// last core took.
fn assert_ff_equivalent<const N: usize>(spec: &WorkloadSpec, systems: &[System]) -> Vec<usize> {
    let cores = spec.num_cores();
    let mut last_core_ffs = Vec::new();
    for &system in systems {
        let mut reports = Vec::new();
        for ff in [true, false] {
            let mut machine = machine_for_sized::<N>(
                spec,
                system.protocol_sized::<N>(cores),
                SimConfig::with_cores(cores),
            );
            machine.set_fast_forward(ff);
            if ff {
                machine.set_tracer(RingTracer::with_capacity(1 << 16));
            }
            reports.push(machine.run().expect("run completes"));
            if let Some(tracer) = machine.take_tracer() {
                let ffs = tracer.events().filter(|e| {
                    usize::from(e.core) == cores - 1 && e.event_kind() == Some(EventKind::StormFf)
                });
                last_core_ffs.push(ffs.count());
            }
        }
        assert_eq!(
            reports[0],
            reports[1],
            "{} on {} cores under {}: fast-forwarded and step-by-step reports differ",
            spec.name,
            cores,
            system.label()
        );
    }
    last_core_ffs
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
        programs,
        init: vec![(Addr(0), 1)],
    }
}

/// A conflict wider than one `CoreSet` word certifies like any other: the
/// writer's storm against 95 older readers on a 2-word machine is
/// fast-forwarded, not retried step by step.
#[test]
fn conflicts_wider_than_64_victims_still_fast_forward() {
    let systems = [System::Eager, System::Retcon];
    let ffs = assert_ff_equivalent::<2>(&wide_conflict(95), &systems);
    assert!(
        ffs.iter().all(|&n| n > 0),
        "writer storm_ff events: {ffs:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fast_forward_is_invisible_in_reports(
        workload in workload_strategy(),
        cores in 2usize..=4,
        seed in 0u64..1000,
    ) {
        assert_ff_equivalent::<1>(&workload.build(cores, seed), &SYSTEMS);
    }
}

/// The paper-shape corner: the heaviest contended configuration the bench
/// tracks, pinned deterministically on top of the random sweep (ignored by
/// default: ~a minute of step-by-step re-execution in debug builds).
#[test]
#[ignore]
fn fast_forward_is_invisible_on_the_bench_shape() {
    assert_ff_equivalent::<1>(
        &Workload::Python { optimized: false }.build(32, 1),
        &SYSTEMS,
    );
}
