//! RETCON: symbolic tracking and commit-time transactional repair without
//! replay.
//!
//! This crate implements the primary contribution of *RETCON: Transactional
//! Repair Without Replay* (Blundell, Raghavan, Martin — ISCA 2010): a
//! hardware mechanism that lets a transaction **lose cache blocks during
//! execution without aborting**, by tracking the relationship between loaded
//! inputs and produced outputs *symbolically* and repairing the outputs at
//! commit against the inputs' final values.
//!
//! # The mechanism
//!
//! While a transaction runs, selected memory locations (chosen by a
//! conflict-history [`Predictor`]) become **symbolic locations**. A load from
//! a symbolic location records the block's initial contents in the
//! **initial value buffer** ([`Ivb`]) and tags the destination register with
//! the symbolic value `[A] + 0` in the **symbolic register file**
//! ([`SymRegFile`]). Additions and subtractions propagate the tag
//! (`[A] + k`, the §4.4 compressed representation); branches on tagged
//! values add **interval constraints** ([`Constraint`]) on the location's
//! final value; operations that cannot be tracked (multiplies, address
//! generation, two symbolic inputs) pin the root location with an *equality
//! constraint*. Stores of tagged values — and all stores to symbolic
//! locations — are buffered in the **symbolic store buffer** ([`Ssb`]).
//!
//! If a remote core steals a tracked block mid-transaction, nothing aborts:
//! execution continues on the recorded initial values. At commit, the
//! pre-commit repair process (Figure 7 of the paper, [`Engine::validate_and_repair`])
//! reacquires lost blocks, checks every constraint against the final values,
//! and — when they hold — rewrites the transaction's outputs (symbolic
//! registers and buffered stores) as if it had executed with the final
//! values all along.
//!
//! The [`Engine`] type drives all of this for one core; a concurrency-control
//! protocol (crate `retcon-htm`) calls into it at every load, store, ALU
//! operation and branch, and runs the pre-commit process at commit.
//!
//! # Example
//!
//! Track a shared counter through two increments and repair after a remote
//! update, reproducing Figure 2(a) of the paper:
//!
//! ```
//! use retcon::{Engine, RetconConfig, LoadPath};
//! use retcon_isa::{Addr, Reg, BinOp};
//!
//! let counter = Addr(0);
//! let mut eng = Engine::new(RetconConfig::default());
//! eng.begin();
//!
//! // The predictor has learned this address conflicts; track it.
//! assert!(matches!(eng.load_path(counter), LoadPath::Memory));
//! eng.begin_tracking(counter.block(), |_| 0); // initial value 0
//! let v0 = eng.finish_tracked_load(Reg(1), counter);
//! assert_eq!(v0, 0);
//!
//! // r1 += 1 twice: symbolic value becomes [counter] + 2.
//! let v1 = eng.on_alu(BinOp::Add, Reg(1), Reg(1), None, v0, 1);
//! let v2 = eng.on_alu(BinOp::Add, Reg(1), Reg(1), None, v1, 1);
//! assert_eq!(v2, 2);
//!
//! // Store the result back: buffered symbolically.
//! eng.on_store(counter, Reg(1).into(), v2);
//!
//! // Remote core steals the block and commits "+2" of its own...
//! eng.on_steal(counter.block());
//!
//! // ...so at commit, repair re-reads the final value (2) and our store
//! // becomes 2 + 2 = 4 — exactly as if we had run after the remote tx.
//! let repair = eng.validate_and_repair(|_| 2).expect("constraints hold");
//! assert_eq!(repair.stores, vec![(counter, 4)]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod constraint;
mod engine;
mod ivb;
mod predictor;
mod regfile;
mod ssb;
mod stats;
mod sym;

pub use config::RetconConfig;
pub use constraint::Constraint;
pub use engine::{Engine, LoadPath, PrecommitCursor, Repair, StorePath, Violation};
pub use ivb::{Ivb, IvbEntry};
pub use predictor::Predictor;
pub use regfile::SymRegFile;
pub use ssb::{Ssb, SsbEntry, SsbOverflow};
pub use stats::{RetconStats, TxSnapshot};
pub use sym::SymValue;
