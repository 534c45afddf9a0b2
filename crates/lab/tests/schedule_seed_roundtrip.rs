//! Fuzzed-schedule replayability: a run driven by `--schedule-seed` must
//! stay replayable from its record. The seed rides in the `schedule-seed`
//! knob (`retcon-run --json` writes it; explore fuzz violations embed
//! `seed=…` in the record metadata), so the JSON must carry knob and
//! metadata through a round trip without loss, and the CSV projection
//! must emit both verbatim.

use retcon_lab::csv;
use retcon_lab::record::{ExperimentRecord, RunRecord};
use retcon_sim::json::Json;
use retcon_sim::{CoreReport, SimReport, TimeBreakdown};

fn fuzzed_run(schedule_seed: u64) -> RunRecord {
    RunRecord {
        workload: "counter".to_string(),
        system: "RetCon".to_string(),
        cores: 4,
        seed: 42,
        knobs: vec![("schedule-seed".to_string(), schedule_seed.to_string())],
        seq_cycles: 0,
        report: SimReport {
            protocol_name: "RetCon".to_string(),
            cycles: 1234,
            per_core: vec![CoreReport {
                breakdown: TimeBreakdown::from_array([1000, 200, 30, 4]),
                instructions: 999,
                finished_at: 1234,
            }],
            protocol: Default::default(),
            retcon: None,
        },
    }
}

#[test]
fn schedule_seed_survives_json_round_trip() {
    let run = fuzzed_run(7);
    assert_eq!(run.schedule_seed(), Some(7));
    let text = run.to_json().to_pretty_string();
    let parsed = RunRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(parsed, run);
    assert_eq!(parsed.schedule_seed(), Some(7));
}

/// The exact record shape `retcon-run --json --schedule-seed 7` emits
/// must parse on the lab side — this is the cross-binary contract.
/// The envelope below is assembled with the same `Json::obj` calls
/// `retcon-run` uses (field names, order, and the string-valued
/// `schedule-seed` knob pair).
#[test]
fn retcon_run_knob_shape_parses() {
    let report = fuzzed_run(7).report;
    let emitted = Json::obj(vec![
        ("workload", Json::str("counter")),
        ("system", Json::str("RetCon")),
        ("cores", Json::UInt(4)),
        ("seed", Json::UInt(42)),
        (
            "knobs",
            Json::Arr(vec![Json::Arr(vec![
                Json::str("schedule-seed"),
                Json::str("7"),
            ])]),
        ),
        ("seq_cycles", Json::UInt(100)),
        ("report", report.to_json()),
    ])
    .to_pretty_string();
    let parsed = RunRecord::from_json(&Json::parse(&emitted).unwrap()).unwrap();
    assert_eq!(parsed.schedule_seed(), Some(7));
    assert_eq!(parsed.knob("schedule-seed"), Some("7"));
    assert_eq!(parsed.report, report);
}

#[test]
fn schedule_seed_and_violation_meta_survive_csv_emission() {
    let exp = ExperimentRecord {
        name: "explore".to_string(),
        seed: 42,
        // The shape `retcon-lab -- explore` writes for a fuzz violation:
        // the replay seed is embedded in the meta value, so the CSV meta
        // projection (`# meta k=v` lines, value may itself contain `=`)
        // must preserve it byte-for-byte.
        meta: vec![(
            "violation.0".to_string(),
            "x-counter RetCon fuzz seed=7 window=16 jitter=8: lost update".to_string(),
        )],
        runs: vec![fuzzed_run(7)],
    };
    let text = csv::to_csv(&exp).unwrap();
    let meta: Vec<&str> = text.lines().filter(|l| l.starts_with("# meta ")).collect();
    assert_eq!(
        meta,
        ["# meta violation.0=x-counter RetCon fuzz seed=7 window=16 jitter=8: lost update"]
    );
    let knobs = csv::columns().iter().position(|c| *c == "knobs").unwrap();
    let row = text.lines().last().unwrap();
    assert_eq!(row.split(',').nth(knobs), Some("schedule-seed=7"));
}

#[test]
fn missing_or_malformed_schedule_seed_is_none() {
    let mut run = fuzzed_run(7);
    run.knobs.clear();
    assert_eq!(run.schedule_seed(), None);
    run.knobs
        .push(("schedule-seed".to_string(), "not-a-number".to_string()));
    assert_eq!(run.schedule_seed(), None);
}
