//! Hardware-TM concurrency-control protocols for the RETCON simulator.
//!
//! The paper's evaluation (§5) compares three hardware configurations —
//! **eager** (the §2 baseline HTM), **lazy-vb** (RETCON hardware limited to
//! value-based commit validation) and **RETCON** (full symbolic repair) —
//! and its Figure 2 additionally illustrates **Eager-Stall**, **LazyTM**
//! and **DATM** on a two-increment counter schedule. This crate implements
//! all of them behind one enum, [`AnyProtocol`], that the simulator drives:
//!
//! * [`EagerTm`] — eager conflict detection through speculative cache bits,
//!   eager version management with an undo log, and either the baseline
//!   timestamp-based "oldest transaction wins" contention policy
//!   ([`ConflictPolicy::OldestWins`], which stalls younger requesters —
//!   Figure 2(d)) or the abort-the-requester policy of Figure 2(c)
//!   ([`ConflictPolicy::RequesterLoses`]);
//! * [`LazyTm`] — write buffering with commit-time invalidation of
//!   conflicting readers (Figure 2(e));
//! * [`LazyVbTm`] — the paper's `lazy-vb`: every read is value-logged and
//!   revalidated byte-for-byte at commit; commits with changed values abort
//!   (§5.1);
//! * [`RetconTm`] — the full mechanism: the `retcon` crate's engine wired
//!   into the coherence substrate, with block stealing, constraint
//!   validation, and the Figure 7 pre-commit repair;
//! * [`DatmLite`] — a dependence-aware TM sufficient to reproduce
//!   Figure 2(b): speculative values forward between transactions, commit
//!   order follows the dependence order, and cyclic dependences abort.
//!
//! All protocols share the [`MemResult`]/[`CommitResult`] interface: an
//! access either completes with a value and a latency, stalls (the simulator
//! retries it), or aborts the local transaction (the simulator rolls the
//! core back to its transaction begin).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod any;
mod cm;
mod datm;
mod eager;
mod lazy;
mod lazy_vb;
mod result;
mod retcon_tm;
mod storm;
mod tx;

pub use any::AnyProtocol;
pub use cm::{ConflictPolicy, Decision};
pub use datm::DatmLite;
pub use eager::EagerTm;
pub use lazy::LazyTm;
pub use lazy_vb::LazyVbTm;
pub use result::{AbortCause, CommitResult, MemResult, ProtocolStats, RegUpdates};
pub use retcon_tm::RetconTm;
pub use storm::{StallAction, StallStorm};
