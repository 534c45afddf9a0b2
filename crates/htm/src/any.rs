//! The protocol interface the simulator drives.
//!
//! The simulator calls into the concurrency-control protocol once per
//! *instruction* (register hooks) and once per *memory access* — by far the
//! hottest call sites in the workspace. [`AnyProtocol`] flattens the five
//! built-in protocols into one enum whose methods dispatch with an ordinary
//! (predictable, inlineable) `match`, the same enum-state-machine shape the
//! related kani and mv codebases use for their hot dispatch. Each arm passes
//! its protocol only the arguments that protocol reads.

use retcon::RetconStats;
use retcon_isa::{Addr, BinOp, CmpOp, Reg};
use retcon_mem::{CoreId, MemorySystem};

use crate::result::{CommitResult, MemResult, ProtocolStats};
use crate::storm::{StallAction, StallStorm};
use crate::{DatmLite, EagerTm, LazyTm, LazyVbTm, RetconTm};

/// A hardware concurrency-control protocol: every one the simulator runs,
/// dispatched by `match`.
///
/// The simulator routes every memory access, transaction boundary and —
/// because RETCON shadows the register file symbolically — every
/// register-writing instruction of every core through this enum. The
/// protocols that do not track registers compute the concrete result of a
/// register hook and keep nothing.
///
/// # Abort handshake
///
/// A protocol may abort a *remote* core's transaction while servicing a
/// request (contention management) or a commit. The simulator polls
/// [`take_aborted`](AnyProtocol::take_aborted) before each instruction; a
/// core whose flag is set rolls its control flow back to the transaction
/// begin. Memory and speculative state have already been restored by the
/// protocol at abort time (zero-cycle rollback, per the paper's baseline).
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

/// Expands one protocol call that every variant takes with the same
/// arguments. Method-call syntax picks the receiver each method wants, so
/// one expansion serves all five arms.
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

    /// Begins (or re-begins after an abort) a transaction on `core` at cycle
    /// `now`.
    #[inline]
    pub fn tx_begin(&mut self, core: CoreId, now: u64) {
        dispatch!(self, tx_begin(core, now))
    }

    /// `true` while `core` has an active transaction.
    #[inline]
    pub fn tx_active(&self, core: CoreId) -> bool {
        dispatch!(self, tx_active(core))
    }

    /// Performs a load of `addr` into `dst`. `addr_reg` names the register
    /// the address was computed from (for RETCON's address-use equality
    /// pins). No protocol reads the cycle of an access.
    #[inline]
    pub fn read(
        &mut self,
        core: CoreId,
        dst: Reg,
        addr: Addr,
        addr_reg: Option<Reg>,
        mem: &mut MemorySystem<N>,
        _now: u64,
    ) -> MemResult {
        match self {
            AnyProtocol::Eager(p) => p.read(core, addr, mem),
            AnyProtocol::Lazy(p) => p.read(core, addr, mem),
            AnyProtocol::LazyVb(p) => p.read(core, addr, mem),
            AnyProtocol::Retcon(p) => p.read(core, dst, addr, addr_reg, mem),
            AnyProtocol::Datm(p) => p.read(core, addr, mem),
        }
    }

    /// Performs a store of `value` to `addr`. `src` names the source
    /// register (`None` for an immediate operand); `addr_reg` is as for
    /// [`read`](AnyProtocol::read).
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
        _now: u64,
    ) -> MemResult {
        match self {
            AnyProtocol::Eager(p) => p.write(core, value, addr, mem),
            AnyProtocol::Lazy(p) => p.write(core, value, addr, mem),
            AnyProtocol::LazyVb(p) => p.write(core, value, addr, mem),
            AnyProtocol::Retcon(p) => p.write(core, src, value, addr, addr_reg, mem),
            AnyProtocol::Datm(p) => p.write(core, value, addr, mem),
        }
    }

    /// Attempts to commit `core`'s transaction at cycle `now`.
    #[inline]
    pub fn commit(&mut self, core: CoreId, mem: &mut MemorySystem<N>, now: u64) -> CommitResult {
        match self {
            AnyProtocol::Eager(p) => p.commit(core, mem),
            AnyProtocol::Lazy(p) => p.commit(core, mem),
            AnyProtocol::LazyVb(p) => p.commit(core, mem),
            AnyProtocol::Retcon(p) => p.commit(core, mem, now),
            AnyProtocol::Datm(p) => p.commit(core, mem),
        }
    }

    /// Returns and clears the "aborted by another core" flag.
    #[inline]
    pub fn take_aborted(&mut self, core: CoreId) -> bool {
        dispatch!(self, take_aborted(core))
    }

    /// Non-clearing preview of [`take_aborted`](AnyProtocol::take_aborted):
    /// `true` while `core` has a pending remote abort the simulator has
    /// not yet delivered. Exploration pruning consults this so a core
    /// about to restart is treated as performing its transaction begin,
    /// not the (stale) instruction under its program counter.
    #[inline]
    pub fn abort_pending(&self, core: CoreId) -> bool {
        dispatch!(self, abort_pending(core))
    }

    /// Hook: `dst` was overwritten with an immediate.
    #[inline]
    pub fn on_imm(&mut self, core: CoreId, dst: Reg) {
        if let AnyProtocol::Retcon(p) = self {
            p.engine_mut(core).on_imm(dst);
        }
    }

    /// Hook: register move `dst <- src`.
    #[inline]
    pub fn on_mov(&mut self, core: CoreId, dst: Reg, src: Reg) {
        if let AnyProtocol::Retcon(p) = self {
            p.engine_mut(core).on_mov(dst, src);
        }
    }

    /// Hook: ALU operation; returns the concrete result. RETCON also
    /// propagates symbolic tags.
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
        match self {
            AnyProtocol::Retcon(p) => p
                .engine_mut(core)
                .on_alu(op, dst, lhs, rhs, lhs_val, rhs_val),
            _ => op.apply(lhs_val, rhs_val),
        }
    }

    /// Hook: branch; returns the concrete outcome. RETCON also records
    /// control-flow constraints.
    #[inline]
    pub fn on_branch(
        &mut self,
        core: CoreId,
        cmp: CmpOp,
        lhs: Reg,
        rhs: Option<Reg>,
        lhs_val: u64,
        rhs_val: u64,
    ) -> bool {
        match self {
            AnyProtocol::Retcon(p) => p
                .engine_mut(core)
                .on_branch(cmp, lhs, rhs, lhs_val, rhs_val),
            _ => cmp.apply(lhs_val, rhs_val),
        }
    }

    /// This core's protocol statistics.
    #[inline]
    pub fn stats(&self, core: CoreId) -> &ProtocolStats {
        dispatch!(self, stats(core))
    }

    /// Aggregate RETCON structure statistics (Table 3); `None` for every
    /// other protocol.
    #[inline]
    pub fn retcon_stats(&self) -> Option<RetconStats> {
        self.as_retcon().map(RetconTm::retcon_stats)
    }

    /// Read-only dry run for the simulator's stall fast-forward: if the
    /// stalled `action` were retried by `core` right now, would it stall
    /// again with exactly the per-retry side effects described by the
    /// returned [`StallStorm`]? `Some` only when a retry is a provable fixed
    /// point — it mutates nothing beyond the storm's declared side effects
    /// and its outcome cannot change until another core runs (e.g. RETCON
    /// returns `None` while a steal is possible, because a steal mutates
    /// coherence state). Lazy and lazy-vb never stall, so they never admit
    /// a storm.
    #[inline]
    pub fn stall_storm(
        &self,
        core: CoreId,
        action: StallAction,
        mem: &MemorySystem<N>,
    ) -> Option<StallStorm<N>> {
        match self {
            AnyProtocol::Eager(p) => p.stall_storm(core, action, mem),
            AnyProtocol::Lazy(_) | AnyProtocol::LazyVb(_) => None,
            AnyProtocol::Retcon(p) => p.stall_storm(core, action, mem),
            AnyProtocol::Datm(p) => p.stall_storm(core, action),
        }
    }

    /// Applies the side effects of `n` retries of the storm previously
    /// validated by [`stall_storm`](AnyProtocol::stall_storm) — exactly
    /// equivalent to executing the stalled instruction `n` more times.
    /// `mem` receives the per-retry memory-statistics replay for commit
    /// storms ([`StallStorm::prefix_hits`]).
    #[inline]
    pub fn apply_stall_retries(
        &mut self,
        core: CoreId,
        storm: &StallStorm<N>,
        n: u64,
        mem: &mut MemorySystem<N>,
    ) {
        match self {
            AnyProtocol::Eager(p) => p.apply_stall_retries(core, n),
            AnyProtocol::Lazy(_) | AnyProtocol::LazyVb(_) => {}
            AnyProtocol::Retcon(p) => p.apply_stall_retries(core, storm, n, mem),
            AnyProtocol::Datm(p) => p.apply_stall_retries(core, n),
        }
    }

    /// Checks protocol-internal invariants at a *quiescent* point — no
    /// core has an active transaction (e.g. after a completed run). All
    /// speculative state must have been retired: undo logs and write
    /// buffers empty, no pending abort flags, no dependence edges, and
    /// RETCON's symbolic repair chain fully collapsed (IVB/SSB empty, no
    /// register still carrying a symbolic tag). The exploration subsystem
    /// calls this after every explored schedule, turning internal
    /// bookkeeping leaks into reported violations instead of silent state
    /// corruption carried into the next run.
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
    use retcon_mem::MemConfig;

    #[test]
    fn every_builtin_converts() {
        use retcon::RetconConfig;
        let mut all: Vec<AnyProtocol> = vec![
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
        // Only RETCON collects Table 3 statistics.
        let collects: Vec<bool> = all.iter().map(|p| p.retcon_stats().is_some()).collect();
        assert_eq!(collects, [false, false, false, false, true, false]);
        // Lazy and lazy-vb never stall, so they admit no storm.
        let mem: MemorySystem = MemorySystem::new(MemConfig::default(), 2);
        for p in &all[2..4] {
            assert_eq!(p.stall_storm(CoreId(0), StallAction::Commit, &mem), None);
            assert_eq!(
                p.stall_storm(CoreId(0), StallAction::Read(Addr(0)), &mem),
                None
            );
        }
        // The register hooks of the protocols that track no registers
        // compute the concrete result.
        for p in all.iter_mut().filter(|p| p.as_retcon().is_none()) {
            let sum = p.on_alu(CoreId(0), BinOp::Add, Reg(1), Reg(1), None, 40, 2);
            assert_eq!(sum, BinOp::Add.apply(40, 2));
            assert!(p.on_branch(CoreId(0), CmpOp::Lt, Reg(1), None, 1, 2));
            assert!(!p.on_branch(CoreId(0), CmpOp::Lt, Reg(1), None, 2, 1));
        }
    }
}
