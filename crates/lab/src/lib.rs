//! `retcon-lab` — experiment orchestration for the RETCON reproduction.
//!
//! The paper's entire evaluation (§5, Figures 1–10, Tables 1–3) is a
//! deterministic `System × Workload × cores` matrix. This crate turns
//! that matrix into a first-class subsystem with three layers:
//!
//! 1. **records** ([`record`], [`csv`]) — [`record::ExperimentRecord`] /
//!    [`record::RunRecord`] capture each run's full context and
//!    [`retcon_sim::SimReport`] cycle breakdown, with a hand-rolled JSON
//!    emitter and parser (lossless, so result sets round-trip offline with
//!    no external dependencies) and a flat CSV projection for plotting;
//! 2. **runner** ([`runner`]) — a `std::thread`-scoped job-parallel
//!    executor that fans a job list across N workers and returns records
//!    bit-identical to serial execution (pinned by the root determinism
//!    suite at `--jobs 1/4/8`);
//! 3. **checks** ([`checks`]) — EXPERIMENTS.md's qualitative claims (who
//!    wins, by roughly what factor, where the crossovers sit) as a
//!    declarative expectation table evaluated against fresh records;
//! 4. **explore** ([`explore`]) — the `retcon-explore` campaign suite
//!    (seeded schedule fuzzing + bounded interleaving search with
//!    serializability oracles) emitted through the same record shapes.
//!
//! The `retcon-lab` binary ties them together:
//!
//! ```text
//! cargo run --release -p retcon-lab -- all --jobs 8 --out results/
//! cargo run --release -p retcon-lab -- run fig9 --jobs 8
//! cargo run --release -p retcon-lab -- check --quick
//! cargo run --release -p retcon-lab -- explore --quick --jobs 8
//! cargo run --release -p retcon-lab -- list
//! ```
//!
//! `run <dataset>` regenerates one figure or table and prints the
//! historical stdout table, or the record itself with `--json`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checks;
pub mod cli;
pub mod csv;
pub mod datasets;
pub mod engine;
pub mod explore;
pub mod record;
pub mod render;
pub mod runner;

pub use datasets::Dataset;
pub use engine::{FaultPlan, ReportCache, ResultStore, RunKey, SimCache};
pub use record::{ExperimentRecord, RunRecord};

/// The seed used for every reported experiment (runs are fully
/// deterministic).
pub const SEED: u64 = 42;

/// The paper's core count.
pub const CORES: usize = 32;
