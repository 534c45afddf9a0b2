//! Record serialization properties: the JSON emitters are lossless
//! inverses of the parsers over *arbitrary* records, the CSV projection has
//! one full row per run, and one known seed-42 run is pinned as a golden
//! snapshot so the on-disk schema cannot drift silently.

use proptest::collection::vec;
use proptest::prelude::*;

use retcon::{RetconStats, TxSnapshot};
use retcon_htm::ProtocolStats;
use retcon_lab::record::{ExperimentRecord, RunRecord};
use retcon_lab::runner::{execute, Job};
use retcon_lab::{csv, SEED};
use retcon_sim::{CoreReport, SimReport, TimeBreakdown};
use retcon_workloads::{System, Workload};

/// Labels drawn from a CSV-safe alphabet (the emitters reject delimiter
/// characters by design; that rejection has its own unit test).
fn label_strategy() -> impl Strategy<Value = String> {
    vec(
        prop_oneof![
            Just('a'),
            Just('B'),
            Just('z'),
            Just('0'),
            Just('9'),
            Just('-'),
            Just('_'),
            Just('.'),
        ],
        1..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn knob_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    vec((label_strategy(), label_strategy()), 0..3)
}

/// Counters bounded to 2^40: real fields are cycle/commit counts, and the
/// aggregate helpers (`TimeBreakdown::total`, `SimReport::breakdown`)
/// deliberately assume sums fit u64 — unbounded values would overflow in
/// debug builds without testing anything records care about.
fn counter_strategy() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|v| v & ((1u64 << 40) - 1))
}

fn core_report_strategy() -> impl Strategy<Value = CoreReport> {
    (
        proptest::array::uniform4(counter_strategy()),
        counter_strategy(),
        counter_strategy(),
    )
        .prop_map(|(buckets, instructions, finished_at)| CoreReport {
            breakdown: TimeBreakdown::from_array(buckets),
            instructions,
            finished_at,
        })
}

fn retcon_stats_strategy() -> impl Strategy<Value = RetconStats> {
    (
        counter_strategy(),
        counter_strategy(),
        counter_strategy(),
        proptest::array::uniform8(counter_strategy()),
        proptest::array::uniform4(counter_strategy()),
    )
        .prop_map(|(transactions, tx_cycles, violations, a, b)| RetconStats {
            transactions,
            tx_cycles,
            violations,
            sum: TxSnapshot::from_array([a[0], a[1], a[2], a[3], a[4], a[5]]),
            max: TxSnapshot::from_array([a[6], a[7], b[0], b[1], b[2], b[3]]),
        })
}

fn report_strategy() -> impl Strategy<Value = SimReport> {
    (
        label_strategy(),
        counter_strategy(),
        vec(core_report_strategy(), 0..4),
        proptest::array::uniform8(counter_strategy()),
        prop_oneof![Just(None), retcon_stats_strategy().prop_map(Some).boxed(),],
    )
        .prop_map(
            |(protocol_name, cycles, per_core, stats, retcon)| SimReport {
                protocol_name,
                cycles,
                per_core,
                protocol: ProtocolStats::from_array([
                    stats[0], stats[1], stats[2], stats[3], stats[4], stats[5],
                ]),
                retcon,
            },
        )
}

fn run_strategy() -> impl Strategy<Value = RunRecord> {
    (
        label_strategy(),
        label_strategy(),
        1u64..256,
        any::<u64>(),
        knob_strategy(),
        counter_strategy(),
        report_strategy(),
    )
        .prop_map(
            |(workload, system, cores, seed, knobs, seq_cycles, report)| RunRecord {
                workload,
                system,
                cores,
                seed,
                knobs,
                seq_cycles,
                report,
            },
        )
}

fn experiment_strategy() -> impl Strategy<Value = ExperimentRecord> {
    (
        label_strategy(),
        any::<u64>(),
        vec((label_strategy(), label_strategy()), 0..3),
        vec(run_strategy(), 0..4),
    )
        .prop_map(|(name, seed, meta, runs)| ExperimentRecord {
            name,
            seed,
            meta,
            runs,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// JSON is a lossless inverse: parse(emit(x)) == x for arbitrary
    /// records, through both the value tree and the pretty-printed text.
    #[test]
    fn json_roundtrip_is_lossless(exp in experiment_strategy()) {
        let reparsed = ExperimentRecord::from_json(&exp.to_json()).unwrap();
        prop_assert_eq!(&reparsed, &exp);
        let through_text = ExperimentRecord::from_json_str(&exp.to_json_string()).unwrap();
        prop_assert_eq!(&through_text, &exp);
    }

    /// The CSV projection is rectangular: after the comment lines and the
    /// header, one data row per run, each with one cell per column.
    #[test]
    fn csv_has_one_full_row_per_run(exp in experiment_strategy()) {
        let text = csv::to_csv(&exp).unwrap();
        let mut lines = text.lines().skip_while(|l| l.starts_with("# "));
        prop_assert_eq!(lines.next(), Some(csv::columns().join(",").as_str()));
        let rows: Vec<&str> = lines.collect();
        prop_assert_eq!(rows.len(), exp.runs.len());
        for row in rows {
            prop_assert_eq!(row.split(',').count(), csv::columns().len());
        }
    }
}

/// The golden snapshot: a known seed-42 counter run under RETCON at 2
/// cores (with its 1-core eager baseline wired in), byte-compared against
/// the checked-in JSON. If this fails because the schema or the simulator
/// *intentionally* changed, regenerate via the instructions in the
/// assertion message.
#[test]
fn golden_counter_seed42_snapshot() {
    let mut run = execute(&Job::new(Workload::Counter, System::Retcon, 2, SEED)).unwrap();
    let baseline = execute(&Job::new(Workload::Counter, System::Eager, 1, SEED)).unwrap();
    run.seq_cycles = baseline.report.cycles;
    let exp = ExperimentRecord {
        name: "golden-counter".to_string(),
        seed: SEED,
        meta: vec![(
            "note".to_string(),
            "counter under RetCon, 2 cores, seed 42".to_string(),
        )],
        runs: vec![run],
    };
    let actual = exp.to_json_string();
    let expected = include_str!("golden/counter_seed42.json");
    if actual != expected {
        let out = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/counter_seed42.actual.json"
        );
        std::fs::write(out, &actual).expect("write actual snapshot");
        panic!(
            "golden snapshot drifted; inspect {out} and, if the change is \
             intentional, move it over tests/golden/counter_seed42.json"
        );
    }
    // And the golden text itself round-trips.
    assert_eq!(ExperimentRecord::from_json_str(expected).unwrap(), exp);
}
