//! Seeded schedule fuzzing: many reproducible perturbations per scenario.
//!
//! Each run drives the scenario's machine with a [`SeededFuzz`] schedule
//! under one seed of a contiguous seed range; the whole campaign is a pure
//! function of `(scenario, system, budget)`. Distinct interleavings are
//! counted by the schedule's decision fingerprint.

use std::collections::HashSet;

use retcon_sim::{SeededFuzz, SimConfig};
use retcon_workloads::{machine_for, System};

use crate::scenario::{Scenario, Violation};

/// How much fuzzing a campaign performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzBudget {
    /// First schedule seed of the contiguous range.
    pub base_seed: u64,
    /// Number of seeds to run.
    pub seeds: u64,
}

/// One oracle violation found by fuzzing, replayable from its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzViolation {
    /// The schedule seed that produced the failing interleaving; replay
    /// with `SeededFuzz::new(seed)` or `retcon-run --schedule-seed`.
    pub seed: u64,
    /// The failed check.
    pub violation: Violation,
}

/// Campaign totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzOutcome {
    /// Schedules executed.
    pub runs: u64,
    /// Distinct interleavings among them (decision-fingerprint count).
    pub distinct: u64,
    /// Total scheduling decisions across all runs.
    pub decisions: u64,
    /// Every violation found, in seed order.
    pub violations: Vec<FuzzViolation>,
}

/// Runs the fuzz campaign. Deterministic: same inputs, same outcome.
///
/// # Panics
///
/// Panics if a run exceeds the simulator cycle cap — explore scenarios
/// are sized orders of magnitude below it, so a cap hit is a harness bug.
pub fn fuzz(scenario: &Scenario, system: System, budget: &FuzzBudget) -> FuzzOutcome {
    let mut fingerprints = HashSet::new();
    let mut outcome = FuzzOutcome {
        runs: 0,
        distinct: 0,
        decisions: 0,
        violations: Vec::new(),
    };
    let cfg = SimConfig::with_cores(scenario.cores);
    for seed in budget.base_seed..budget.base_seed + budget.seeds {
        let mut machine = machine_for(&scenario.spec, system.protocol(scenario.cores), cfg);
        let mut sched = SeededFuzz::new(seed);
        let report = machine
            .run_with(&mut sched)
            .expect("explore scenario stays under the cycle cap");
        outcome.runs += 1;
        outcome.decisions += sched.decisions();
        fingerprints.insert(sched.trace_hash());
        if let Err(violation) = scenario.check(&machine, &report) {
            outcome.violations.push(FuzzViolation { seed, violation });
        }
    }
    outcome.distinct = fingerprints.len() as u64;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_is_deterministic_and_schedules_are_distinct() {
        let scenario = Scenario::counter(3, 3);
        let budget = FuzzBudget {
            base_seed: 0,
            seeds: 40,
        };
        let a = fuzz(&scenario, System::Eager, &budget);
        let b = fuzz(&scenario, System::Eager, &budget);
        assert_eq!(a, b);
        assert_eq!(a.runs, 40);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        // Perturbation actually perturbs: nearly every seed is a new
        // interleaving.
        assert!(a.distinct >= 35, "only {} distinct schedules", a.distinct);
    }
}
