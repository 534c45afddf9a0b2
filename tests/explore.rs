//! Integration tests for the schedule-exploration subsystem: the
//! scheduler seam stays deterministic, fuzzed and searched schedules
//! preserve every serializability oracle on the real protocols, each
//! oracle fails on a run it does not describe, a searched trace replays
//! to the same run, and the `explore` experiment records are byte-stable
//! across job counts and round-trip through both serialization formats.
//! That the oracles catch a broken protocol is the mutation catalog's
//! job (`tests/mutants/`, `scripts/mutate.sh`).

use retcon_explore::{
    bounded_search, fuzz, replay, Campaign, ChoiceTrace, FuzzBudget, Mode, Scenario, ScenarioSpec,
    SearchBudget, TraceSchedule,
};
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
    };
    for system in [System::Eager, System::LazyVb, System::Retcon, System::Datm] {
        let out = fuzz(&scenario, system, &budget);
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

/// The bounded search is quiet on correct protocols within the CI budget.
#[test]
fn bounded_search_is_quiet_on_correct_protocols() {
    let scenario = Scenario::counter(2, 3);
    let budget = SearchBudget::quick();
    for system in [System::Eager, System::Retcon] {
        let out = bounded_search(&scenario, system, &budget);
        assert!(
            out.violation.is_none(),
            "false positive under {}: {:?}",
            system.label(),
            out.violation
        );
    }
}

/// Runs `scenario`'s machine under `system`, then checks the finished
/// run against `oracle` (another scenario's expectations).
fn check_against(scenario: &Scenario, oracle: &Scenario, system: System) -> Result<(), String> {
    let mut machine = machine_for(
        &scenario.spec,
        system.protocol(scenario.cores),
        SimConfig::with_cores(scenario.cores),
    );
    let report = machine.run().expect("explore scenario completes");
    scenario
        .check(&machine, &report)
        .expect("a run passes its own oracle");
    oracle.check(&machine, &report).map_err(|v| v.detail)
}

/// Each of `Scenario::check`'s failure paths fires on a run it does not
/// describe: a wrong commit count, a wrong final counter, a broken
/// conservation total.
#[test]
fn each_oracle_fails_on_a_run_it_does_not_describe() {
    let commits = check_against(
        &Scenario::counter(2, 3),
        &Scenario::counter(2, 4),
        System::Eager,
    )
    .expect_err("6 commits checked against 8");
    assert_eq!(commits, "x-counter: 6 commits, expected exactly 8");

    let state = check_against(
        &Scenario::pool(3, 3, 3, 2, 7),
        &Scenario::pool(3, 3, 3, 2, 8),
        System::Retcon,
    )
    .expect_err("seed 7's counters checked against seed 8's");
    assert!(state.contains("(lost or phantom update)"), "{state}");

    let conservation = check_against(
        &Scenario::transfer(2, 3, 3, 1),
        &Scenario::transfer(2, 4, 3, 1),
        System::LazyVb,
    )
    .expect_err("a 3-counter total checked against a 4-counter one");
    assert_eq!(
        conservation,
        "x-transfer: pool sum 300 != conserved total 400"
    );
}

/// A searched schedule that leaves the default at a choice point replays
/// from its full trace to the same run: no divergence, the same report
/// and the same decision fingerprint.
#[test]
fn a_searched_trace_replays_to_the_same_run() {
    let scenario = Scenario::counter(2, 3);
    let window = SearchBudget::quick().window;
    let cfg = SimConfig::with_cores(scenario.cores);
    let run = |system: System, trace: &ChoiceTrace| {
        let mut machine = machine_for(&scenario.spec, system.protocol(scenario.cores), cfg);
        let mut sched = TraceSchedule::new(trace, window);
        let report = machine.run_with(&mut sched).expect("run completes");
        (report, sched)
    };
    for system in [System::Eager, System::LazyVb, System::Retcon] {
        // Branch at the first choice point where the search would.
        let (_, default) = run(system, &ChoiceTrace::empty());
        let (p, j) = default
            .log()
            .iter()
            .enumerate()
            .find_map(|(p, point)| {
                (1..point.eligible.min(64))
                    .find(|&j| point.branchable & (1 << j) != 0)
                    .map(|j| (p, j))
            })
            .expect("a contended counter has a branchable choice point");
        let mut prefix = default.full_trace();
        prefix.choices.truncate(p);
        prefix.choices.push(j);
        let (report, searched) = run(system, &prefix);
        assert!(!searched.diverged());
        let full = searched.full_trace();
        assert!(full.choices.iter().any(|&c| c != 0));

        let (replayed, sched) = run(system, &full);
        assert!(
            !sched.diverged(),
            "{}: trace `{full}` diverged",
            system.label()
        );
        assert_eq!(
            replayed,
            report,
            "{}: replay changed the run",
            system.label()
        );
        assert_eq!(sched.trace_hash(), searched.trace_hash());
        assert_eq!(sched.full_trace(), full);
        replay(&scenario, system, &full, window).expect("a correct protocol passes its replay");
    }
}

/// The lab `explore` record: byte-identical at any `--jobs` count, and
/// losslessly round-trips through the JSON and CSV emitters like every
/// other dataset.
#[test]
fn explore_records_are_byte_stable_and_round_trip() {
    let campaigns = vec![
        Campaign {
            scenario: ScenarioSpec::Counter { cores: 2, iters: 2 },
            system: System::Eager,
            mode: Mode::Fuzz(FuzzBudget {
                base_seed: 1,
                seeds: 20,
            }),
        },
        Campaign {
            scenario: ScenarioSpec::Pool {
                cores: 2,
                pool: 2,
                iters: 2,
                incs: 1,
                seed: 5,
            },
            system: System::Retcon,
            mode: Mode::Search(SearchBudget {
                max_schedules: 40,
                max_branch_points: 16,
                window: 1,
            }),
        },
    ];
    let serial = retcon_lab::explore::run_suite(&campaigns, "test", 1);
    assert!(serial.all_passed, "{}", serial.summary);
    let parallel = retcon_lab::explore::run_suite(&campaigns, "test", 4);
    let bytes = serial.record.to_json_string();
    assert_eq!(
        bytes,
        parallel.record.to_json_string(),
        "explore record differs between --jobs 1 and --jobs 4"
    );
    // Lossless JSON round-trip; the CSV projection emits.
    let reparsed = retcon_lab::ExperimentRecord::from_json_str(&bytes).expect("JSON parses");
    assert_eq!(reparsed, serial.record);
    retcon_lab::csv::to_csv(&serial.record).expect("CSV emits");
}
