//! Exploration campaigns: the unit `retcon-lab -- explore` fans out.
//!
//! A [`Campaign`] names a scenario, a system under test, and a mode
//! (fuzzing or bounded search) with its budget. Campaign execution is a
//! pure function of that description, so the job-parallel driver
//! ([`run_campaigns`]) writes results into index-addressed slots and the
//! result vector is byte-identical at any worker count — the same
//! determinism contract as the `retcon-lab` dataset runner.

use retcon_obs::pool::ordered_map;
use retcon_sim::{SimConfig, SimReport};
use retcon_workloads::{machine_for, System};

use crate::fuzz::{fuzz, FuzzBudget};
use crate::scenario::Scenario;
use crate::search::{bounded_search, SearchBudget};

/// The five-protocol exploration matrix (the cross-protocol smoke set:
/// one representative per conflict-management family).
pub const MATRIX: [System; 5] = [
    System::Eager,
    System::Lazy,
    System::LazyVb,
    System::Retcon,
    System::Datm,
];

/// A cheap, cloneable description of a [`Scenario`] (campaigns carry the
/// description; workers build the spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioSpec {
    /// [`Scenario::counter`].
    Counter {
        /// Core count.
        cores: usize,
        /// Transactions per core.
        iters: u64,
    },
    /// [`Scenario::pool`].
    Pool {
        /// Core count.
        cores: usize,
        /// Number of counters.
        pool: u64,
        /// Transactions per core.
        iters: u64,
        /// Increments per transaction.
        incs: u32,
        /// Tape seed.
        seed: u64,
    },
    /// [`Scenario::transfer`].
    Transfer {
        /// Core count.
        cores: usize,
        /// Number of counters.
        pool: u64,
        /// Transactions per core.
        iters: u64,
        /// Tape seed.
        seed: u64,
    },
}

impl ScenarioSpec {
    /// Builds the scenario.
    pub fn build(self) -> Scenario {
        match self {
            ScenarioSpec::Counter { cores, iters } => Scenario::counter(cores, iters),
            ScenarioSpec::Pool {
                cores,
                pool,
                iters,
                incs,
                seed,
            } => Scenario::pool(cores, pool, iters, incs, seed),
            ScenarioSpec::Transfer {
                cores,
                pool,
                iters,
                seed,
            } => Scenario::transfer(cores, pool, iters, seed),
        }
    }

    /// The scenario label without building it.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioSpec::Counter { .. } => "x-counter",
            ScenarioSpec::Pool { .. } => "x-pool",
            ScenarioSpec::Transfer { .. } => "x-transfer",
        }
    }

    /// Core count without building.
    pub fn cores(self) -> usize {
        match self {
            ScenarioSpec::Counter { cores, .. }
            | ScenarioSpec::Pool { cores, .. }
            | ScenarioSpec::Transfer { cores, .. } => cores,
        }
    }

    /// Tape seed without building (0 for the tapeless counter).
    pub fn seed(self) -> u64 {
        match self {
            ScenarioSpec::Counter { .. } => 0,
            ScenarioSpec::Pool { seed, .. } | ScenarioSpec::Transfer { seed, .. } => seed,
        }
    }
}

/// Exploration mode and budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Seeded fuzzing.
    Fuzz(FuzzBudget),
    /// Bounded DFS.
    Search(SearchBudget),
}

impl Mode {
    /// `"fuzz"` or `"search"`.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Fuzz(_) => "fuzz",
            Mode::Search(_) => "search",
        }
    }
}

/// One exploration campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Campaign {
    /// What to run.
    pub scenario: ScenarioSpec,
    /// Which protocol to drive.
    pub system: System,
    /// How to explore.
    pub mode: Mode,
}

/// The outcome of one campaign, flattened for records.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The campaign that produced this result.
    pub campaign: Campaign,
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct interleavings (decision-fingerprint count).
    pub distinct: u64,
    /// Scheduling decisions (fuzz) or choice points passed (search).
    pub decisions: u64,
    /// Search only: alternatives enqueued / pruned by independence.
    pub branched: u64,
    /// Search only: alternatives pruned by independence.
    pub pruned: u64,
    /// Search only: frontier drained before the budget.
    pub exhausted: bool,
    /// Total violations found (the search stops at its first; fuzzing
    /// counts every failing seed).
    pub violations_total: u64,
    /// Replayable descriptions of the first few violations (`seed=…` for
    /// fuzz, `trace=…` for search), each with the failed check — capped at
    /// [`VIOLATION_EXAMPLES`] so a thoroughly-broken protocol cannot flood
    /// the record.
    pub violations: Vec<String>,
    /// The scenario's *default-schedule* report (deterministic min-heap) —
    /// the record payload, byte-identical across job counts and runs.
    pub default_report: SimReport,
}

/// How many violation examples a campaign result retains.
pub const VIOLATION_EXAMPLES: usize = 3;

/// Runs one campaign. Pure: same campaign, same result.
pub fn run_campaign(campaign: &Campaign) -> CampaignResult {
    let scenario = campaign.scenario.build();
    let cfg = SimConfig::with_cores(scenario.cores);
    let default_report = machine_for(
        &scenario.spec,
        campaign.system.protocol(scenario.cores),
        cfg,
    )
    .run()
    .expect("explore scenario stays under the cycle cap");
    let mut result = CampaignResult {
        campaign: *campaign,
        schedules: 0,
        distinct: 0,
        decisions: 0,
        branched: 0,
        pruned: 0,
        exhausted: false,
        violations_total: 0,
        violations: Vec::new(),
        default_report,
    };
    match campaign.mode {
        Mode::Fuzz(budget) => {
            let out = fuzz(&scenario, campaign.system, &budget);
            result.schedules = out.runs;
            result.distinct = out.distinct;
            result.decisions = out.decisions;
            result.violations_total = out.violations.len() as u64;
            result.violations = out
                .violations
                .iter()
                .take(VIOLATION_EXAMPLES)
                .map(|v| {
                    format!(
                        "seed={} window={} jitter={}: {}",
                        v.seed, budget.window, budget.max_jitter, v.violation.detail
                    )
                })
                .collect();
        }
        Mode::Search(budget) => {
            let out = bounded_search(&scenario, campaign.system, &budget);
            result.schedules = out.schedules;
            result.distinct = out.distinct;
            result.decisions = out.choice_points;
            result.branched = out.branched;
            result.pruned = out.pruned;
            result.exhausted = out.exhausted;
            if let Some(found) = out.violation {
                result.violations_total = 1;
                result.violations.push(format!(
                    "trace={} window={}: {}",
                    found.trace, budget.window, found.violation.detail
                ));
            }
        }
    }
    result
}

/// Runs every campaign, fanning out across `workers` threads (`<= 1`
/// serial); results return **in campaign order**, so record assembly is
/// byte-identical at any worker count.
pub fn run_campaigns(campaigns: &[Campaign], workers: usize) -> Vec<CampaignResult> {
    ordered_map(campaigns, workers, run_campaign)
}

/// The explore suite at a given scale. `quick` is the CI smoke budget —
/// still >= 10k distinct schedules per protocol (two fuzz campaigns per
/// system) plus a transfer fuzz and a search campaign per system; the
/// full suite multiplies the seed ranges and search budgets.
pub fn suite(quick: bool) -> Vec<Campaign> {
    let fuzz_seeds: u64 = if quick { 5_500 } else { 25_000 };
    let search = if quick {
        SearchBudget::quick()
    } else {
        SearchBudget {
            max_schedules: 4_000,
            max_branch_points: 64,
            window: 1,
        }
    };
    let counter = ScenarioSpec::Counter { cores: 3, iters: 4 };
    let pool = ScenarioSpec::Pool {
        cores: 3,
        pool: 3,
        iters: 4,
        incs: 2,
        seed: 42,
    };
    let transfer = ScenarioSpec::Transfer {
        cores: 3,
        pool: 3,
        iters: 4,
        seed: 42,
    };
    let mut campaigns = Vec::new();
    for system in MATRIX {
        for scenario in [counter, pool] {
            campaigns.push(Campaign {
                scenario,
                system,
                mode: Mode::Fuzz(FuzzBudget {
                    base_seed: 1,
                    seeds: fuzz_seeds,
                    window: 2,
                    max_jitter: 3,
                }),
            });
        }
        campaigns.push(Campaign {
            scenario: transfer,
            system,
            mode: Mode::Fuzz(FuzzBudget {
                base_seed: 1,
                seeds: if quick { 500 } else { 5_000 },
                window: 2,
                max_jitter: 3,
            }),
        });
        campaigns.push(Campaign {
            scenario: ScenarioSpec::Counter { cores: 2, iters: 3 },
            system,
            mode: Mode::Search(search),
        });
    }
    campaigns
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature suite for harness tests (seconds, not minutes, in
    /// debug builds).
    fn tiny_suite() -> Vec<Campaign> {
        vec![
            Campaign {
                scenario: ScenarioSpec::Counter { cores: 2, iters: 2 },
                system: System::Eager,
                mode: Mode::Fuzz(FuzzBudget {
                    base_seed: 1,
                    seeds: 25,
                    window: 2,
                    max_jitter: 3,
                }),
            },
            Campaign {
                scenario: ScenarioSpec::Counter { cores: 2, iters: 2 },
                system: System::Retcon,
                mode: Mode::Search(SearchBudget {
                    max_schedules: 60,
                    max_branch_points: 20,
                    window: 1,
                }),
            },
        ]
    }

    #[test]
    fn campaigns_pass_their_oracles_and_parallelism_is_transparent() {
        let campaigns = tiny_suite();
        let serial = run_campaigns(&campaigns, 1);
        for r in &serial {
            assert_eq!(
                r.violations_total,
                0,
                "{} {} {}: violations={:?}",
                r.campaign.scenario.label(),
                r.campaign.system.label(),
                r.campaign.mode.label(),
                r.violations
            );
            assert!(r.schedules > 0);
        }
        let parallel = run_campaigns(&campaigns, 4);
        assert_eq!(serial, parallel, "campaign results differ across --jobs");
    }

    #[test]
    fn suite_covers_every_matrix_protocol() {
        let suite = suite(true);
        assert_eq!(suite.len(), 4 * MATRIX.len());
        for system in MATRIX {
            assert_eq!(suite.iter().filter(|c| c.system == system).count(), 4);
        }
    }
}
