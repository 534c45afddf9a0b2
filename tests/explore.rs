//! Integration tests for the schedule-exploration subsystem: the
//! scheduler seam stays deterministic, fuzzed and searched schedules
//! preserve every serializability oracle on the real protocols, the
//! lost-update mutation is flagged with a replayable trace, and the
//! `explore` experiment records are byte-stable across job counts and
//! round-trip through both serialization formats.

use retcon_explore::{
    bounded_search, fuzz, replay, Campaign, FuzzBudget, Mode, Scenario, ScenarioSpec, SearchBudget,
    SystemUnderTest,
};
use retcon_isa::Addr;
use retcon_sim::SimConfig;
use retcon_workloads::{machine_for, System, Workload};

/// `SimConfig::schedule_seed` (the `retcon-run --schedule-seed` path):
/// fuzzed runs are exactly reproducible from the seed, still
/// serializable, and actually explore different interleavings.
#[test]
fn schedule_seed_is_reproducible_and_serializable() {
    let spec = Workload::Counter.build(4, 42);
    let expected = 2 * retcon_workloads::counter_total_transactions(4);
    let run = |seed: u64| {
        let mut cfg = SimConfig::with_cores(4);
        cfg.schedule_seed = Some(seed);
        machine_for(&spec, System::Eager.protocol(4), cfg)
            .run()
            .expect("fuzzed run completes")
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.cycles, b.cycles, "same seed, same schedule");
    assert_eq!(a.protocol, b.protocol);
    assert_eq!(a.protocol.commits * 2, expected, "no lost updates");
    let cycles: Vec<u64> = (0..5).map(|s| run(s).cycles).collect();
    assert!(
        cycles.windows(2).any(|w| w[0] != w[1]),
        "five seeds produced one schedule: {cycles:?}"
    );
}

/// Fuzzed schedules across the protocol matrix against the *same* exact
/// final-state oracle — the cross-protocol agreement property under
/// schedule perturbation.
#[test]
fn fuzzed_schedules_preserve_oracles_across_protocols() {
    let scenario = Scenario::pool(3, 3, 3, 2, 7);
    let budget = FuzzBudget {
        base_seed: 1,
        seeds: 25,
        window: 2,
        max_jitter: 3,
    };
    for system in [System::Eager, System::LazyVb, System::Retcon, System::Datm] {
        let out = fuzz(&scenario, SystemUnderTest::Builtin(system), &budget);
        assert_eq!(out.runs, 25);
        assert!(
            out.violations.is_empty(),
            "{}: {:?}",
            system.label(),
            out.violations[0]
        );
        assert!(
            out.distinct > 15,
            "{}: schedules barely vary",
            system.label()
        );
    }
}

/// The bounded search: quiet on correct protocols, and the lost-update
/// mutation (running behind `AnyProtocol::Dyn`) is flagged within the CI
/// budget with a trace that replays to the same violation.
#[test]
fn bounded_search_flags_the_mutation_with_a_replayable_trace() {
    let scenario = Scenario::counter(2, 3);
    let budget = SearchBudget::quick();
    for system in [System::Eager, System::Retcon] {
        let out = bounded_search(&scenario, SystemUnderTest::Builtin(system), &budget);
        assert!(
            out.violation.is_none(),
            "false positive under {}: {:?}",
            system.label(),
            out.violation
        );
    }
    let out = bounded_search(&scenario, SystemUnderTest::LostUpdate, &budget);
    let found = out.violation.expect("mutation shim must be flagged");
    let replayed = replay(
        &scenario,
        SystemUnderTest::LostUpdate,
        &found.trace,
        budget.window,
    )
    .expect_err("the failing trace must reproduce its violation");
    assert_eq!(replayed, found.violation);
}

/// The mutation shim is also direct coverage of the `AnyProtocol::Dyn`
/// adapter in a full machine run: it executes, commits, and leaves memory
/// consistent with its (buggy) semantics — final counter strictly below
/// the serial oracle, never above.
#[test]
fn dyn_adapter_runs_the_mutation_shim_end_to_end() {
    let scenario = Scenario::counter(2, 4);
    let cfg = SimConfig::with_cores(2);
    let mut machine = machine_for(&scenario.spec, SystemUnderTest::LostUpdate.protocol(2), cfg);
    let report = machine.run().expect("shim run completes");
    assert_eq!(machine.protocol().name(), "lost-update");
    assert_eq!(report.protocol.commits, 8, "every transaction commits");
    let value = machine.mem().read_word(Addr(0));
    assert!(value <= 16, "phantom updates: {value}");
    assert!(
        machine.protocol().check_quiescent().is_ok(),
        "ownership must drain even in the buggy shim"
    );
}

/// The lab `explore` record: byte-identical at any `--jobs` count, and
/// losslessly round-trips through the JSON and CSV emitters like every
/// other dataset.
#[test]
fn explore_records_are_byte_stable_and_round_trip() {
    let campaigns = vec![
        Campaign {
            scenario: ScenarioSpec::Counter { cores: 2, iters: 2 },
            system: SystemUnderTest::Builtin(System::Eager),
            mode: Mode::Fuzz(FuzzBudget {
                base_seed: 1,
                seeds: 20,
                window: 2,
                max_jitter: 3,
            }),
            expect_violation: false,
        },
        Campaign {
            scenario: ScenarioSpec::Pool {
                cores: 2,
                pool: 2,
                iters: 2,
                incs: 1,
                seed: 5,
            },
            system: SystemUnderTest::Builtin(System::Retcon),
            mode: Mode::Search(SearchBudget {
                max_schedules: 40,
                max_branch_points: 16,
                window: 1,
            }),
            expect_violation: false,
        },
        Campaign {
            scenario: ScenarioSpec::Counter { cores: 2, iters: 2 },
            system: SystemUnderTest::LostUpdate,
            mode: Mode::Search(SearchBudget::quick()),
            expect_violation: true,
        },
    ];
    let serial = retcon_lab::explore::run_suite(&campaigns, "test", 1);
    assert!(serial.all_expected, "{}", serial.summary);
    let parallel = retcon_lab::explore::run_suite(&campaigns, "test", 4);
    let bytes = serial.record.to_json_string();
    assert_eq!(
        bytes,
        parallel.record.to_json_string(),
        "explore record differs between --jobs 1 and --jobs 4"
    );
    // Lossless JSON round-trip, stable CSV projection.
    let reparsed = retcon_lab::ExperimentRecord::from_json_str(&bytes).expect("JSON parses");
    assert_eq!(reparsed, serial.record);
    let csv = retcon_lab::csv::to_csv(&serial.record).expect("CSV emits");
    let via_csv = retcon_lab::csv::from_csv(&csv).expect("CSV parses");
    assert_eq!(
        retcon_lab::csv::to_csv(&via_csv).expect("CSV re-emits"),
        csv,
        "CSV projection is not byte-stable"
    );
    // The mutation campaign's replayable trace landed in the metadata.
    assert!(
        serial
            .record
            .meta
            .iter()
            .any(|(k, v)| k.starts_with("violation.") && v.contains("trace=")),
        "no replayable trace in record meta"
    );
}
