//! Schedule exploration for the RETCON reproduction.
//!
//! The simulator's default scheduler is deterministic: one interleaving
//! per configuration. Serializability is a property of *all*
//! interleavings, so this crate turns the repo's oracles into real
//! scenario coverage by driving the simulator's scheduling seam
//! ([`retcon_sim::Schedule`]) with two exploration engines:
//!
//! * **Seeded fuzzing** ([`fuzz`](mod@fuzz)) — thousands of splitmix-perturbed
//!   schedules per configuration, each reproducible from `(config,
//!   seed)`;
//! * **Bounded search** ([`search`]) — a DFS over scheduling choice
//!   points with next-action independence pruning (DPOR-lite) and a
//!   schedule/depth budget, producing *replayable choice traces* for any
//!   violation.
//!
//! Both engines check every run against schedule-independent oracles
//! ([`scenario`]): exactly-once commits, exact final state for
//! commutative workloads (which doubles as the cross-protocol agreement
//! oracle — every protocol is held to the same state), conservation for
//! transfers, and the protocols' own quiescence invariants
//! ([`retcon_sim::AnyProtocol::check_quiescent`]). That the oracles can fail
//! at all is checked outside the crate, by the mutation catalog under
//! `tests/mutants/`: patches that break a real protocol, each of which
//! `scripts/mutate.sh` must see caught.
//!
//! `retcon-lab -- explore` fans the campaign suite ([`campaign`]) across
//! worker threads and emits the standard experiment record shapes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod fuzz;
pub mod scenario;
pub mod search;
pub mod trace;

pub use campaign::{
    run_campaign, run_campaigns, suite, Campaign, CampaignResult, Mode, ScenarioSpec, MATRIX,
};
pub use fuzz::{fuzz, FuzzBudget, FuzzOutcome, FuzzViolation};
pub use scenario::{Scenario, Violation};
pub use search::{bounded_search, replay, FoundViolation, SearchBudget, SearchOutcome};
pub use trace::{ChoicePoint, ChoiceTrace, TraceSchedule};
