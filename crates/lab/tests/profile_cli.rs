//! `retcon-lab run --profile` through the real binary: the phase profile
//! lands in the record's `meta` rows and changes nothing else.

use retcon_lab::ExperimentRecord;
use std::process::Command;

fn run_fig2(extra: &[&str]) -> ExperimentRecord {
    let out = Command::new(env!("CARGO_BIN_EXE_retcon-lab"))
        .args(["run", "fig2", "--json"])
        .args(extra)
        .output()
        .expect("spawn retcon-lab");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 record");
    ExperimentRecord::from_json_str(&text).expect("record parses")
}

#[test]
fn profile_adds_simulate_rows_and_leaves_runs_alone() {
    let plain = run_fig2(&[]);
    let profiled = run_fig2(&["--profile"]);
    let meta = |key: &str| {
        profiled
            .meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    // One simulate span per fig2 run.
    assert_eq!(meta("profile_simulate_spans"), Some("5"));
    assert!(meta("profile_simulate_micros").is_some());
    // Without `--out` nothing is serialized to disk, so no serialize rows.
    assert!(
        !profiled
            .meta
            .iter()
            .any(|(k, _)| k.starts_with("profile_serialize_")),
        "{:?}",
        profiled.meta
    );
    assert!(!plain.meta.iter().any(|(k, _)| k.starts_with("profile_")));
    assert_eq!(profiled.runs, plain.runs);
}
