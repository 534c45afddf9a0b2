//! Deterministic cycle-driven multicore simulator for the RETCON
//! reproduction.
//!
//! The paper evaluates RETCON on a simulated 32-core machine (Table 1: 32
//! in-order x86 cores at 1 IPC). This crate provides the equivalent
//! execution substrate: each core interprets a [`Program`] in the
//! `retcon-isa` IR, every memory operation is routed through a
//! concurrency-control [`Protocol`] (crate `retcon-htm`) over the shared
//! [`MemorySystem`] (crate `retcon-mem`), and a global scheduler advances
//! whichever core has the smallest local clock — making every run exactly
//! reproducible.
//!
//! The simulator owns the paper's *measurement* machinery:
//!
//! * per-core cycle accounting into the **busy / conflict / barrier /
//!   other** buckets of Figures 4 and 10 ("conflict" is time stalled by
//!   another processor plus work in transactions that ultimately abort;
//!   "other" here is commit processing such as RETCON's pre-commit repair);
//! * transaction restart with register/input-tape checkpointing and the
//!   paper's zero-cycle rollback;
//! * barrier synchronization (barrier wait time indicates load imbalance,
//!   the labyrinth bottleneck);
//! * aggregation into a [`SimReport`] from which every figure and table is
//!   printed.
//!
//! # Example
//!
//! Two cores atomically increment a shared counter 100 times each:
//!
//! ```
//! use retcon_isa::{ProgramBuilder, Reg, Operand, BinOp, CmpOp};
//! use retcon_sim::{Machine, SimConfig};
//! use retcon_htm::{EagerTm, ConflictPolicy};
//!
//! fn counter_program(iters: u64) -> retcon_isa::Program {
//!     let mut b = ProgramBuilder::new();
//!     let body = b.block();
//!     let done = b.block();
//!     b.imm(Reg(0), iters);
//!     b.imm(Reg(1), 0); // counter address
//!     b.jump(body);
//!     b.select(body);
//!     b.tx_begin();
//!     b.load(Reg(2), Reg(1), 0);
//!     b.bin(BinOp::Add, Reg(2), Reg(2), Operand::Imm(1));
//!     b.store(Operand::Reg(Reg(2)), Reg(1), 0);
//!     b.tx_commit();
//!     b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
//!     b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
//!     b.select(done);
//!     b.halt();
//!     b.build().unwrap()
//! }
//!
//! let cfg = SimConfig::with_cores(2);
//! let protocol = EagerTm::new(2, ConflictPolicy::OldestWins);
//! let programs = vec![counter_program(100), counter_program(100)];
//! let mut machine: Machine = Machine::new(cfg, protocol, programs);
//! let report = machine.run()?;
//! assert_eq!(machine.mem().read_word(retcon_isa::Addr(0)), 200);
//! assert_eq!(report.protocol.commits, 200);
//! # Ok::<(), retcon_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod canon;
mod config;
pub mod json;
mod machine;
mod report;
pub mod schedule;
pub mod shard;
mod tape;

pub use canon::{content_hash128, Canon};
pub use config::SimConfig;
pub use machine::{Machine, SimError};
pub use report::{CoreReport, SimReport, TimeBreakdown};
pub use schedule::{
    Bound, CoreAction, Decision, DeterministicMin, Schedule, SchedulePeek, ScheduleStats,
    SeededFuzz, TraceHash,
};
pub use shard::{run_sharded, shard_ranges, ShardedOutcome};
pub use tape::InputTape;

// Re-exports so workload crates need only depend on `retcon-sim`.
pub use retcon_htm::{
    AbortCause, AnyProtocol, CommitResult, ConflictPolicy, DatmLite, EagerTm, LazyTm, LazyVbTm,
    MemResult, Protocol, ProtocolStats, RegUpdates, RetconTm,
};
pub use retcon_isa::Program;
pub use retcon_mem::{MemConfig, MemorySystem};
