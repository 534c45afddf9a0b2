//! Bounded DFS over scheduling choice points (DPOR-lite).
//!
//! The search replays the scenario with a [`TraceSchedule`]: a prescribed
//! prefix of choices, default-deterministic beyond it. After each run, the
//! recorded choice-point log tells the search where alternatives existed;
//! it enqueues each unexplored alternative as `log[0..p] + [j]` — the
//! standard stateless-model-checking replay scheme (cf. the bounded
//! exploration harnesses in the kani-adjacent tooling this subsystem
//! follows).
//!
//! # Pruning (the "-lite" in DPOR-lite)
//!
//! At a choice point, an alternative core is only worth branching to when
//! its *immediate next action* conflicts with another eligible core's next
//! action ([`CoreAction::conflicts_with`](retcon_sim::CoreAction)):
//! reordering cores whose next actions are pairwise independent commutes
//! at this point, so only the default order is explored through it. This
//! is a per-point persistent-set approximation — it inspects one
//! instruction of lookahead, not whole-execution happens-before relations,
//! so it prunes less than full DPOR but never needs a dependency log. The
//! search stays a *bounded heuristic*: completeness within the budget is
//! claimed only relative to this equivalence, and the budget itself
//! (schedule count, branch depth) truncates deep interleavings.

use std::collections::HashSet;

use retcon_sim::SimConfig;
use retcon_workloads::{machine_for, System};

use crate::scenario::{Scenario, Violation};
use crate::trace::{ChoiceTrace, TraceSchedule};

/// Exploration limits for one [`bounded_search`] campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum schedules to execute.
    pub max_schedules: u64,
    /// Only choice points with index below this branch (depth bound);
    /// later points always take the default.
    pub max_branch_points: usize,
    /// Eligibility window in cycles (`0` = exact clock ties only).
    pub window: u64,
}

impl SearchBudget {
    /// A CI-sized budget: a few hundred schedules, small enough to run
    /// inside tier-1 tests.
    pub fn quick() -> Self {
        SearchBudget {
            max_schedules: 400,
            max_branch_points: 40,
            window: 1,
        }
    }
}

/// A violation found by the search, replayable by rerunning the scenario
/// under `TraceSchedule::new(&trace, window)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoundViolation {
    /// The complete choice trace of the failing schedule.
    pub trace: ChoiceTrace,
    /// The failed check.
    pub violation: Violation,
}

/// Search totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct interleavings among them (decision-fingerprint count).
    pub distinct: u64,
    /// Choice points passed across all runs (prescribed and
    /// freshly-decided alike).
    pub choice_points: u64,
    /// Alternatives enqueued for exploration.
    pub branched: u64,
    /// Alternatives skipped by the independence pruning.
    pub pruned: u64,
    /// First violation found, if any (the search stops on it).
    pub violation: Option<FoundViolation>,
    /// `true` when the frontier drained before the budget ran out: every
    /// alternative reachable under the pruning and depth bound was run.
    pub exhausted: bool,
}

/// Runs the bounded DFS. Deterministic: same inputs, same outcome.
///
/// # Panics
///
/// Panics if a run exceeds the simulator cycle cap — explore scenarios
/// are sized orders of magnitude below it, so a cap hit is a harness bug.
pub fn bounded_search(scenario: &Scenario, system: System, budget: &SearchBudget) -> SearchOutcome {
    let cfg = SimConfig::with_cores(scenario.cores);
    let mut out = SearchOutcome {
        schedules: 0,
        distinct: 0,
        choice_points: 0,
        branched: 0,
        pruned: 0,
        violation: None,
        exhausted: false,
    };
    let mut fingerprints = HashSet::new();
    let mut stack = vec![ChoiceTrace::empty()];
    while let Some(trace) = stack.pop() {
        if out.schedules >= budget.max_schedules {
            return out; // frontier non-empty: not exhausted
        }
        let mut machine = machine_for(&scenario.spec, system.protocol(scenario.cores), cfg);
        let mut sched = TraceSchedule::new(&trace, budget.window);
        let report = machine
            .run_with(&mut sched)
            .expect("explore scenario stays under the cycle cap");
        out.schedules += 1;
        if fingerprints.insert(sched.trace_hash()) {
            out.distinct += 1;
        }
        if let Err(violation) = scenario.check(&machine, &report) {
            out.violation = Some(FoundViolation {
                trace: sched.full_trace(),
                violation,
            });
            return out;
        }
        // Expand alternatives, but only at choice points this run decided
        // freshly (p >= the prescribed prefix — earlier points were
        // expanded when an ancestor first passed them), below the depth
        // bound, and only where the next actions actually conflict.
        let log = sched.log();
        out.choice_points += log.len() as u64;
        for p in (trace.choices.len()..log.len().min(budget.max_branch_points)).rev() {
            let point = log[p];
            debug_assert_eq!(point.taken, 0, "un-prescribed points take the default");
            for j in (1..point.eligible.min(64)).rev() {
                if point.branchable & (1u64 << j) == 0 {
                    out.pruned += 1;
                    continue;
                }
                let mut next = ChoiceTrace {
                    choices: log[..p].iter().map(|q| q.taken).collect(),
                };
                next.choices.push(j);
                stack.push(next);
                out.branched += 1;
            }
        }
    }
    out.exhausted = true;
    out
}

/// Replays one explicit trace and checks the oracle — the verification
/// path for a [`FoundViolation`] shipped in a record.
///
/// # Errors
///
/// Returns the violation the replayed schedule produces (a confirmed
/// failing trace reproduces its violation exactly).
///
/// # Panics
///
/// Panics when the trace does not fit the scenario (a prescribed choice
/// index out of range, or more choices than the run has choice points):
/// the executed schedule would not be the one the trace describes, so a
/// clean oracle pass would falsely suggest the recorded violation is
/// irreproducible.
pub fn replay(
    scenario: &Scenario,
    system: System,
    trace: &ChoiceTrace,
    window: u64,
) -> Result<(), Violation> {
    let cfg = SimConfig::with_cores(scenario.cores);
    let mut machine = machine_for(&scenario.spec, system.protocol(scenario.cores), cfg);
    let mut sched = TraceSchedule::new(trace, window);
    let report = machine
        .run_with(&mut sched)
        .expect("explore scenario stays under the cycle cap");
    assert!(
        !sched.diverged(),
        "trace `{trace}` does not fit scenario {} under {} (corrupted trace or wrong \
         scenario/window pairing)",
        scenario.name,
        system.label()
    );
    scenario.check(&machine, &report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_explores_without_false_positives_on_correct_protocols() {
        let scenario = Scenario::counter(2, 2);
        let budget = SearchBudget {
            max_schedules: 200,
            max_branch_points: 30,
            window: 1,
        };
        for system in [System::Eager, System::Retcon, System::Datm] {
            let out = bounded_search(&scenario, system, &budget);
            assert!(
                out.violation.is_none(),
                "false positive under {}: {:?}",
                system.label(),
                out.violation
            );
            assert!(out.schedules > 1, "no branching under {}", system.label());
            assert_eq!(out.schedules, out.distinct, "duplicate interleavings");
        }
    }

    #[test]
    fn pruning_skips_independent_alternatives() {
        let scenario = Scenario::pool(3, 3, 2, 1, 5);
        let budget = SearchBudget {
            max_schedules: 300,
            max_branch_points: 30,
            window: 1,
        };
        let out = bounded_search(&scenario, System::Eager, &budget);
        assert!(out.violation.is_none());
        assert!(
            out.pruned > 0,
            "pool transactions on distinct counters must yield independent \
             alternatives to prune"
        );
    }
}
