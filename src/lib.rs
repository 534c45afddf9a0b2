//! Facade crate for the RETCON reproduction.
//!
//! This repository implements *RETCON: Transactional Repair Without Replay*
//! (Blundell, Raghavan, Martin — ISCA 2010) as a set of Rust crates:
//!
//! * [`retcon`] — the paper's contribution: symbolic tracking and
//!   commit-time repair (initial value buffer, symbolic store buffer,
//!   constraint buffer, predictor, Figure 6/7 algorithms);
//! * [`retcon_isa`] — the mini RISC-like IR workloads are written in;
//! * [`retcon_mem`] — caches, directory coherence, speculative bits,
//!   version management;
//! * [`retcon_htm`] — the concurrency-control protocols compared in the
//!   evaluation (eager, lazy, lazy-vb, RETCON, DATM);
//! * [`retcon_sim`] — the deterministic cycle-driven multicore simulator;
//! * [`retcon_workloads`] — STAMP-like workload models plus the
//!   transactionalized-CPython model.
//!
//! The runnable examples in `examples/` are the quickest tour:
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example refcount_interpreter
//! cargo run --release --example hashtable_resize
//! cargo run --release --example contention_explorer
//! ```
//!
//! Every table and figure of the paper regenerates with
//! `cargo run --release -p retcon-lab -- run <dataset>` (see
//! `EXPERIMENTS.md` for the index and recorded results).

#![forbid(unsafe_code)]

pub use retcon;
pub use retcon_htm;
pub use retcon_isa;
pub use retcon_mem;
pub use retcon_sim;
pub use retcon_workloads;
