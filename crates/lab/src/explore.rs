//! The `retcon-lab -- explore` command: runs the schedule-exploration
//! campaign suite and emits the standard experiment record shapes.
//!
//! Each campaign becomes one [`RunRecord`]: the record's report is the
//! scenario's *default-schedule* run (deterministic, so the record set is
//! byte-identical at any `--jobs` count and across hosts), and the
//! exploration outcome rides in the knobs (`mode`, `schedules`,
//! `distinct`, …). Violations are serialized into the record metadata as
//! replayable descriptions — `seed=…` for fuzzed schedules, `trace=…`
//! choice traces for searched ones.

use crate::record::{ExperimentRecord, RunRecord};
use retcon_explore::{run_campaigns, suite, Campaign, CampaignResult, Mode};
use std::collections::BTreeMap;

/// The assembled outcome of one `explore` invocation.
#[derive(Debug)]
pub struct ExploreRun {
    /// The experiment record (JSON/CSV payload).
    pub record: ExperimentRecord,
    /// The stdout summary table.
    pub summary: String,
    /// Whether no campaign found a violation. The smoke exit code.
    pub all_passed: bool,
}

/// Runs the suite and assembles record + summary. Pure function of
/// `(quick, jobs)` up to thread scheduling, which the index-addressed
/// campaign runner makes invisible — record bytes are identical at any
/// `--jobs` count.
pub fn run(quick: bool, jobs: usize) -> ExploreRun {
    run_suite(&suite(quick), if quick { "quick" } else { "full" }, jobs)
}

/// [`run`] over an explicit campaign list (tests use miniature suites).
pub fn run_suite(campaigns: &[Campaign], budget_label: &str, jobs: usize) -> ExploreRun {
    let results = run_campaigns(campaigns, jobs);
    let record = record_from(budget_label, &results);
    let summary = summarize(&results, &record);
    ExploreRun {
        record,
        summary,
        all_passed: results.iter().all(|r| r.violations_total == 0),
    }
}

fn knob(key: &str, value: impl ToString) -> (String, String) {
    (key.to_string(), value.to_string())
}

fn record_from(budget_label: &str, results: &[CampaignResult]) -> ExperimentRecord {
    let mut meta = vec![
        ("budget".to_string(), budget_label.to_string()),
        (
            "oracles".to_string(),
            "exact final state (commutative); conservation (transfer); \
             exactly-once commits; protocol quiescence invariants"
                .to_string(),
        ),
    ];
    // Distinct-schedule totals per protocol (fingerprint counts summed
    // across that protocol's campaigns; different scenarios cannot
    // produce identical decision sequences in practice).
    let mut distinct: BTreeMap<&str, u64> = BTreeMap::new();
    for r in results {
        *distinct.entry(r.campaign.system.label()).or_default() += r.distinct;
    }
    for (system, count) in &distinct {
        meta.push((format!("distinct.{system}"), count.to_string()));
    }
    let mut violation_idx = 0usize;
    for r in results {
        for v in &r.violations {
            meta.push((
                format!("violation.{violation_idx}"),
                format!(
                    "{} {} {} {v}",
                    r.campaign.scenario.label(),
                    r.campaign.system.label(),
                    r.campaign.mode.label(),
                ),
            ));
            violation_idx += 1;
        }
    }
    let runs = results
        .iter()
        .map(|r| {
            let mut knobs = vec![
                knob("mode", r.campaign.mode.label()),
                knob("schedules", r.schedules),
                knob("distinct", r.distinct),
                knob("decisions", r.decisions),
                knob("violations", r.violations_total),
            ];
            if let Mode::Search(_) = r.campaign.mode {
                knobs.push(knob("branched", r.branched));
                knobs.push(knob("pruned", r.pruned));
                knobs.push(knob("exhausted", if r.exhausted { "yes" } else { "no" }));
            }
            RunRecord {
                workload: r.campaign.scenario.label().to_string(),
                system: r.campaign.system.label().to_string(),
                cores: r.campaign.scenario.cores() as u64,
                seed: r.campaign.scenario.seed(),
                knobs,
                seq_cycles: 0,
                report: r.default_report.clone(),
            }
        })
        .collect();
    ExperimentRecord {
        name: "explore".to_string(),
        seed: 42,
        meta,
        runs,
    }
}

/// Renders the stdout summary.
fn summarize(results: &[CampaignResult], record: &ExperimentRecord) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<11} {:<12} {:<7} {:>9} {:>9} {:>11}  status\n",
        "scenario", "system", "mode", "schedules", "distinct", "violations"
    ));
    for r in results {
        let status = if r.violations_total == 0 {
            "ok"
        } else {
            "VIOLATED"
        };
        out.push_str(&format!(
            "{:<11} {:<12} {:<7} {:>9} {:>9} {:>11}  {}\n",
            r.campaign.scenario.label(),
            r.campaign.system.label(),
            r.campaign.mode.label(),
            r.schedules,
            r.distinct,
            r.violations_total,
            status
        ));
    }
    let total_schedules: u64 = results.iter().map(|r| r.schedules).sum();
    out.push_str(&format!(
        "\n{} campaigns, {} schedules explored; per-protocol distinct: {}\n",
        results.len(),
        total_schedules,
        record
            .meta
            .iter()
            .filter(|(k, _)| k.starts_with("distinct."))
            .map(|(k, v)| format!("{}={v}", &k["distinct.".len()..]))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for (k, v) in record
        .meta
        .iter()
        .filter(|(k, _)| k.starts_with("violation"))
    {
        out.push_str(&format!("{k}: {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use retcon_explore::{run_campaign, ScenarioSpec, SearchBudget};
    use retcon_workloads::System;

    /// A search violation lands in the record as a replayable `trace=…`
    /// meta row that survives the JSON round trip; the CSV emits it.
    #[test]
    fn a_search_violation_becomes_a_replayable_meta_row() {
        let mut result = run_campaign(&Campaign {
            scenario: ScenarioSpec::Counter { cores: 2, iters: 2 },
            system: System::Eager,
            mode: Mode::Search(SearchBudget {
                max_schedules: 4,
                max_branch_points: 4,
                window: 1,
            }),
        });
        result.violations_total = 1;
        result.violations = vec![
            "trace=0.1.0 window=1: x-counter: counter 0 ended at 6, serial oracle says 8 \
             (lost or phantom update)"
                .to_string(),
        ];
        let record = record_from("test", &[result]);
        let row = record
            .meta
            .iter()
            .find(|(k, _)| k == "violation.0")
            .map(|(_, v)| v.as_str());
        assert_eq!(
            row,
            Some(
                "x-counter eager search trace=0.1.0 window=1: x-counter: counter 0 ended at \
                 6, serial oracle says 8 (lost or phantom update)"
            )
        );
        assert!(record.meta.iter().all(|(k, _)| k != "violation.1"));
        let json = record.to_json_string();
        assert_eq!(ExperimentRecord::from_json_str(&json).unwrap(), record);
        crate::csv::to_csv(&record).unwrap();
    }
}
