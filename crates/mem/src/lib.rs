//! Memory-system substrate for the RETCON transactional-memory simulator.
//!
//! The RETCON paper evaluates its mechanism on a 32-core machine with private
//! L1/L2 caches kept coherent by a directory protocol (Table 1). Conflict
//! detection for the baseline HTM piggybacks on that protocol: each L1 block
//! carries a *speculatively-read* and a *speculatively-written* bit, and
//! external requests snoop those bits (§2). This crate reproduces that
//! substrate at the fidelity the mechanism needs:
//!
//! * [`GlobalMemory`] — the architectural state, a sparse map of 64-bit words;
//! * [`CacheArray`] — set-associative tag arrays (no data; data lives in
//!   [`GlobalMemory`]) with LRU replacement and per-block speculative bits;
//! * a directory tracking, per 64-byte block, which cores cache it and which
//!   (if any) holds it modified;
//! * [`MemorySystem`] — the façade gluing caches, directory and latency model
//!   together, with a two-phase API (`probe` then `access`) so concurrency
//!   -control protocols can consult the contention manager between conflict
//!   *detection* and conflict *resolution*;
//! * [`UndoLog`] / [`WriteBuffer`] — eager and lazy version management, both
//!   over one [`WordLog`];
//! * [`Footprints`] — each transaction's read/written bits per block, which
//!   is also the *permissions-only cache* in the spirit of OneTM (§2):
//!   speculative read/write permissions survive cache eviction, so capacity
//!   never forces an abort (the paper reports that this configuration
//!   "essentially eliminates cache overflows entirely").
//!
//! Latencies follow Table 1: L1 hit 1 cycle, private L2 hit 10 cycles,
//! directory hop 20 cycles, DRAM lookup 100 cycles.
//!
//! # Example
//!
//! ```
//! use retcon_mem::{MemorySystem, MemConfig, CoreId, AccessKind};
//! use retcon_isa::Addr;
//!
//! let mut ms: MemorySystem = MemorySystem::new(MemConfig::default(), 2);
//! let a = Addr(0x40);
//!
//! // Core 0 writes 7 into `a` speculatively.
//! ms.write_word(a, 7);
//! let lat = ms.access(CoreId(0), a, AccessKind::Write, true);
//! assert!(lat >= 1);
//!
//! // Core 1 probing a read of the same block sees the conflict.
//! let probe = ms.probe(CoreId(1), a, AccessKind::Read);
//! assert_eq!(probe.conflicts.len(), 1);
//! assert_eq!(probe.conflicts[0].core, CoreId(0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod config;
mod directory;
mod footprint;
mod memory;
mod stats;
mod system;
mod version;

pub use cache::{CacheArray, CacheGeometry, SpecBits};
pub use config::{LatencyModel, MemConfig};
pub use directory::{DirState, Directory, MAX_CORES};
pub use footprint::Footprints;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet};
pub use memory::GlobalMemory;
pub use retcon_isa::fx;
pub use retcon_isa::table::{BlockTable, EpochMap};
pub use stats::MemStats;
pub use system::{AccessKind, AccessPlan, Conflict, ConflictSet, CoreId, MemorySystem, Probe};
pub use version::{UndoLog, WordLog, WriteBuffer};
