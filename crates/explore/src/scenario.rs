//! Explore scenarios: a small workload plus a schedule-independent oracle.
//!
//! Every oracle here is valid under *any* serializable commit order — the
//! transaction bodies either commute (additive updates, so the final state
//! is a pure function of the committed multiset) or conserve an invariant
//! (transfers). A schedule that fails an oracle therefore witnessed a
//! genuine serializability violation, never a legal reordering.

use retcon_isa::Addr;
use retcon_sim::{Machine, SimReport};
use retcon_workloads::{explore, WorkloadSpec};

/// The final-state predicate a scenario pins.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OracleKind {
    /// Counter `i` (one per block) must end exactly at `expected[i]` —
    /// valid under every serial order because the updates commute, and
    /// identical for every protocol (the cross-protocol agreement oracle
    /// is this exactness: all systems are checked against one state).
    Exact { expected: Vec<u64> },
    /// The sum over the first `pool` counters must stay `total`
    /// (transfers conserve; per-counter values are order-dependent).
    Conservation { pool: u64, total: u64 },
}

/// A serializability violation (or protocol-invariant leak) found on an
/// explored schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Human-readable description of the failed check.
    pub detail: String,
}

/// A small workload plus its schedule-independent oracle.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label (`"x-counter"`, `"x-pool"`, `"x-transfer"`).
    pub name: &'static str,
    /// Core count the spec was built for.
    pub cores: usize,
    /// Workload-build seed (tapes).
    pub seed: u64,
    /// The built workload.
    pub spec: WorkloadSpec,
    /// Exactly-once commit count every run must reach.
    pub expected_commits: u64,
    oracle: OracleKind,
}

impl Scenario {
    /// The shared-counter scenario: `iters` double-increment transactions
    /// per core on one counter.
    pub fn counter(cores: usize, iters: u64) -> Scenario {
        Scenario {
            name: "x-counter",
            cores,
            seed: 0,
            spec: explore::counter(cores, iters),
            expected_commits: cores as u64 * iters,
            oracle: OracleKind::Exact {
                expected: vec![explore::counter_expected(cores, iters)],
            },
        }
    }

    /// The counter-pool scenario: tape-chosen counters, `incs` increments
    /// per transaction.
    pub fn pool(cores: usize, pool: u64, iters: u64, incs: u32, seed: u64) -> Scenario {
        let (spec, expected) = explore::pool(cores, pool, iters, incs, seed);
        Scenario {
            name: "x-pool",
            cores,
            seed,
            spec,
            expected_commits: cores as u64 * iters,
            oracle: OracleKind::Exact { expected },
        }
    }

    /// The transfer scenario: branchy conserving transactions.
    pub fn transfer(cores: usize, pool: u64, iters: u64, seed: u64) -> Scenario {
        let (spec, total) = explore::transfer(cores, pool, iters, seed);
        Scenario {
            name: "x-transfer",
            cores,
            seed,
            spec,
            expected_commits: cores as u64 * iters,
            oracle: OracleKind::Conservation { pool, total },
        }
    }

    /// Checks the oracle against a finished run: exactly-once commits, the
    /// final-state predicate, and the protocol's quiescence invariants
    /// ([`retcon_sim::AnyProtocol::check_quiescent`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found.
    pub fn check(&self, machine: &Machine, report: &SimReport) -> Result<(), Violation> {
        if report.protocol.commits != self.expected_commits {
            return Err(Violation {
                detail: format!(
                    "{}: {} commits, expected exactly {}",
                    self.name, report.protocol.commits, self.expected_commits
                ),
            });
        }
        match &self.oracle {
            OracleKind::Exact { expected } => {
                for (i, &want) in expected.iter().enumerate() {
                    let got = machine.mem().read_word(Addr(i as u64 * 8));
                    if got != want {
                        return Err(Violation {
                            detail: format!(
                                "{}: counter {i} ended at {got}, serial oracle says {want} \
                                 (lost or phantom update)",
                                self.name
                            ),
                        });
                    }
                }
            }
            OracleKind::Conservation { pool, total } => {
                let sum: u64 = (0..*pool)
                    .map(|i| machine.mem().read_word(Addr(i * 8)))
                    .sum();
                if sum != *total {
                    return Err(Violation {
                        detail: format!("{}: pool sum {sum} != conserved total {total}", self.name),
                    });
                }
            }
        }
        machine
            .protocol()
            .check_quiescent()
            .map_err(|detail| Violation {
                detail: format!("{}: quiescence invariant: {detail}", self.name),
            })
    }
}
