//! Monomorphized protocol dispatch.
//!
//! The simulator calls into the concurrency-control protocol once per
//! *instruction* (register hooks) and once per *memory access* — by far the
//! hottest call sites in the workspace. Routing them through a trait
//! object costs an indirect call that the optimizer cannot see
//! through, so nothing inlines and every per-access branch is re-derived
//! behind the call. [`AnyProtocol`] flattens the five built-in protocols
//! into one enum whose methods dispatch with an ordinary (predictable,
//! inlineable) `match`, the same enum-state-machine shape the related kani
//! and mv codebases use for their hot dispatch.

use retcon::RetconStats;
use retcon_isa::{Addr, BinOp, CmpOp, Reg};
use retcon_mem::{CoreId, MemorySystem};

use crate::protocol::Protocol;
use crate::result::{CommitResult, MemResult, ProtocolStats};
use crate::storm::{StallAction, StallStorm};
use crate::{DatmLite, EagerTm, LazyTm, LazyVbTm, RetconTm};

/// Every concurrency-control protocol, dispatched by `match` instead of
/// vtable.
///
/// Construct it with `From`/`Into` from any built-in protocol value:
///
/// ```
/// use retcon_htm::{AnyProtocol, ConflictPolicy, EagerTm};
///
/// let p: AnyProtocol = EagerTm::new(2, ConflictPolicy::OldestWins).into();
/// assert_eq!(p.name(), "eager");
/// ```
pub enum AnyProtocol<const N: usize = 1> {
    /// The §2 baseline eager HTM (both contention policies).
    Eager(EagerTm<N>),
    /// Lazy conflict detection, committer wins (Figure 2(e)).
    Lazy(LazyTm<N>),
    /// Value-based commit validation (§5.1 `lazy-vb`).
    LazyVb(LazyVbTm<N>),
    /// Full RETCON symbolic repair (and its idealized configuration).
    Retcon(RetconTm<N>),
    /// Dependence-aware forwarding TM (Figure 2(b)).
    Datm(DatmLite<N>),
}

impl<const N: usize> std::fmt::Debug for AnyProtocol<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The protocol name identifies every variant; the full state of a
        // protocol is too large to print.
        f.debug_tuple("AnyProtocol").field(&self.name()).finish()
    }
}

/// Expands one protocol call across every variant. Method-call syntax
/// picks the receiver each [`Protocol`] method wants, so one expansion
/// serves all five arms.
macro_rules! dispatch {
    ($self:expr, $method:ident ( $($args:expr),* )) => {
        match $self {
            AnyProtocol::Eager(p) => p.$method($($args),*),
            AnyProtocol::Lazy(p) => p.$method($($args),*),
            AnyProtocol::LazyVb(p) => p.$method($($args),*),
            AnyProtocol::Retcon(p) => p.$method($($args),*),
            AnyProtocol::Datm(p) => p.$method($($args),*),
        }
    };
}

impl<const N: usize> AnyProtocol<N> {
    /// Short name for reports (e.g. `"eager"`, `"lazy-vb"`, `"RetCon"`).
    #[inline]
    pub fn name(&self) -> &'static str {
        dispatch!(self, name())
    }

    /// Begins (or re-begins after an abort) a transaction on `core`.
    #[inline]
    pub fn tx_begin(&mut self, core: CoreId, now: u64) {
        dispatch!(self, tx_begin(core, now))
    }

    /// `true` while `core` has an active transaction.
    #[inline]
    pub fn tx_active(&self, core: CoreId) -> bool {
        dispatch!(self, tx_active(core))
    }

    /// Performs a load (see [`Protocol::read`]).
    #[inline]
    pub fn read(
        &mut self,
        core: CoreId,
        dst: Reg,
        addr: Addr,
        addr_reg: Option<Reg>,
        mem: &mut MemorySystem<N>,
        now: u64,
    ) -> MemResult {
        dispatch!(self, read(core, dst, addr, addr_reg, mem, now))
    }

    /// Performs a store (see [`Protocol::write`]).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &mut self,
        core: CoreId,
        src: Option<Reg>,
        value: u64,
        addr: Addr,
        addr_reg: Option<Reg>,
        mem: &mut MemorySystem<N>,
        now: u64,
    ) -> MemResult {
        dispatch!(self, write(core, src, value, addr, addr_reg, mem, now))
    }

    /// Attempts to commit `core`'s transaction.
    #[inline]
    pub fn commit(&mut self, core: CoreId, mem: &mut MemorySystem<N>, now: u64) -> CommitResult {
        dispatch!(self, commit(core, mem, now))
    }

    /// Returns and clears the "aborted by another core" flag.
    #[inline]
    pub fn take_aborted(&mut self, core: CoreId) -> bool {
        dispatch!(self, take_aborted(core))
    }

    /// Non-clearing preview of the flag (see
    /// [`Protocol::abort_pending`]).
    #[inline]
    pub fn abort_pending(&self, core: CoreId) -> bool {
        dispatch!(self, abort_pending(core))
    }

    /// Hook: `dst` was overwritten with an immediate.
    #[inline]
    pub fn on_imm(&mut self, core: CoreId, dst: Reg) {
        dispatch!(self, on_imm(core, dst))
    }

    /// Hook: register move `dst <- src`.
    #[inline]
    pub fn on_mov(&mut self, core: CoreId, dst: Reg, src: Reg) {
        dispatch!(self, on_mov(core, dst, src))
    }

    /// Hook: ALU operation; returns the concrete result.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn on_alu(
        &mut self,
        core: CoreId,
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Option<Reg>,
        lhs_val: u64,
        rhs_val: u64,
    ) -> u64 {
        dispatch!(self, on_alu(core, op, dst, lhs, rhs, lhs_val, rhs_val))
    }

    /// Hook: branch; returns the concrete outcome.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn on_branch(
        &mut self,
        core: CoreId,
        cmp: CmpOp,
        lhs: Reg,
        rhs: Option<Reg>,
        lhs_val: u64,
        rhs_val: u64,
    ) -> bool {
        dispatch!(self, on_branch(core, cmp, lhs, rhs, lhs_val, rhs_val))
    }

    /// This core's protocol statistics.
    #[inline]
    pub fn stats(&self, core: CoreId) -> &ProtocolStats {
        dispatch!(self, stats(core))
    }

    /// Aggregate RETCON structure statistics, if collected.
    #[inline]
    pub fn retcon_stats(&self) -> Option<RetconStats> {
        dispatch!(self, retcon_stats())
    }

    /// Read-only stall-storm dry run (see [`Protocol::stall_storm`]).
    #[inline]
    pub fn stall_storm(
        &self,
        core: CoreId,
        action: StallAction,
        mem: &MemorySystem<N>,
    ) -> Option<StallStorm<N>> {
        dispatch!(self, stall_storm(core, action, mem))
    }

    /// Applies `n` fast-forwarded stall retries (see
    /// [`Protocol::apply_stall_retries`]).
    #[inline]
    pub fn apply_stall_retries(
        &mut self,
        core: CoreId,
        storm: &StallStorm<N>,
        n: u64,
        mem: &mut MemorySystem<N>,
    ) {
        dispatch!(self, apply_stall_retries(core, storm, n, mem))
    }

    /// Checks protocol-internal invariants at a quiescent point (see
    /// [`Protocol::check_quiescent`]).
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn check_quiescent(&self) -> Result<(), String> {
        dispatch!(self, check_quiescent())
    }

    /// The inner [`RetconTm`], if this is the RETCON variant (tests and
    /// diagnostics that reach for the symbolic engine).
    pub fn as_retcon(&self) -> Option<&RetconTm<N>> {
        match self {
            AnyProtocol::Retcon(p) => Some(p),
            _ => None,
        }
    }
}

/// Every built-in protocol converts into its variant.
macro_rules! from_builtin {
    ($($variant:ident($protocol:ident)),*) => {$(
        impl<const N: usize> From<$protocol<N>> for AnyProtocol<N> {
            fn from(p: $protocol<N>) -> Self {
                AnyProtocol::$variant(p)
            }
        }
    )*};
}
from_builtin!(
    Eager(EagerTm),
    Lazy(LazyTm),
    LazyVb(LazyVbTm),
    Retcon(RetconTm),
    Datm(DatmLite)
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConflictPolicy;

    #[test]
    fn every_builtin_converts() {
        use retcon::RetconConfig;
        let all: Vec<AnyProtocol> = vec![
            EagerTm::new(2, ConflictPolicy::OldestWins).into(),
            EagerTm::new(2, ConflictPolicy::RequesterLoses).into(),
            LazyTm::new(2).into(),
            LazyVbTm::new(2).into(),
            RetconTm::new(2, RetconConfig::default()).into(),
            DatmLite::new(2).into(),
        ];
        let names: Vec<&str> = all.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["eager", "eager-abort", "lazy", "lazy-vb", "RetCon", "datm"]
        );
        assert!(all[4].as_retcon().is_some());
        assert!(all[0].as_retcon().is_none());
    }
}
