//! Mini RISC-like instruction set for the RETCON transactional-memory simulator.
//!
//! The RETCON paper (Blundell, Raghavan, Martin — ISCA 2010) evaluates a
//! hardware mechanism that tracks, *per dynamic instruction*, how values
//! loaded from memory flow through registers, arithmetic, branches and
//! stores. Reproducing that mechanism therefore requires an instruction-level
//! substrate: workloads must be expressed as programs whose loads, adds,
//! branches and stores the simulated hardware can observe one at a time.
//!
//! This crate defines that substrate: a deliberately small, word-granularity
//! (64-bit) RISC-like IR with
//!
//! * integer registers ([`Reg`]),
//! * basic blocks of instructions ([`Instr`], [`BasicBlock`]) with explicit
//!   control transfers,
//! * transactional region markers (`TxBegin` / `TxCommit`),
//! * a thread-private *input tape* instruction (`Input`) used by workload
//!   generators to feed pre-randomized keys into programs without modelling
//!   an RNG in simulated memory, and
//! * an abstract `Work` instruction that models computation that neither
//!   touches memory nor is trackable symbolically.
//!
//! Addresses are in units of 64-bit *words* (the simulator's coherence
//! substrate groups 8 consecutive words into a 64-byte block, matching the
//! paper's Table 1 configuration).
//!
//! # Example
//!
//! Build a program that atomically increments a shared counter at word
//! address 100 a given number of times:
//!
//! ```
//! use retcon_isa::{ProgramBuilder, Reg, Operand, BinOp, CmpOp};
//!
//! let mut b = ProgramBuilder::new();
//! let body = b.block();
//! let done = b.block();
//!
//! let iters = Reg(0);
//! let addr = Reg(1);
//! let val = Reg(2);
//!
//! b.select(b.entry());
//! b.imm(iters, 10);
//! b.imm(addr, 100);
//! b.jump(body);
//!
//! b.select(body);
//! b.tx_begin();
//! b.load(val, addr, 0);
//! b.bin(BinOp::Add, val, val, Operand::Imm(1));
//! b.store(Operand::Reg(val), addr, 0);
//! b.tx_commit();
//! b.bin(BinOp::Sub, iters, iters, Operand::Imm(1));
//! b.branch(CmpOp::Gt, iters, Operand::Imm(0), body, done);
//!
//! b.select(done);
//! b.halt();
//!
//! let program = b.build()?;
//! assert!(program.validate().is_ok());
//! # Ok::<(), retcon_isa::BuildError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod addr;
mod builder;
pub mod coreset;
pub mod fx;
mod instr;
mod program;
mod reg;
mod rng;
pub mod table;

pub use addr::{Addr, BlockAddr, WORDS_PER_BLOCK};
pub use builder::{BuildError, ProgramBuilder};
pub use coreset::CoreSet;
pub use instr::{BinOp, CmpOp, Instr, Operand};
pub use program::{BasicBlock, BlockId, Pc, Program, ValidateError};
pub use reg::{Reg, NUM_REGS};
pub use rng::SplitMix64;
