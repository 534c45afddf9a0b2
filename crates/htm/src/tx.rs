//! The per-core transaction lifecycle every protocol shares.

use retcon_mem::CoreId;

use crate::cm::Age;
use crate::result::{AbortCause, ProtocolStats};

/// One core's transaction lifecycle: begin, age, the abort handshake and
/// the protocol counters. What a protocol keeps *beside* it (undo log,
/// write buffer, symbolic engine) is its version management; this is the
/// part that is the same under all five.
#[derive(Debug, Default)]
pub(crate) struct Tx {
    active: bool,
    /// Cycle of the transaction's *first* begin; survives retries so the
    /// oldest transaction eventually wins.
    birth: Option<u64>,
    /// Aborted by another core, not yet delivered through
    /// [`Protocol::take_aborted`](crate::Protocol::take_aborted).
    aborted: bool,
    pub(crate) stats: ProtocolStats,
}

impl Tx {
    /// Begins (or re-begins after an abort) the transaction at cycle `now`.
    pub(crate) fn begin(&mut self, now: u64) {
        debug_assert!(
            !self.active,
            "nested transactions are flattened by the simulator"
        );
        self.active = true;
        self.birth.get_or_insert(now);
    }

    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// The first-begin cycle, kept across aborts until the commit.
    pub(crate) fn birth(&self) -> Option<u64> {
        self.birth
    }

    /// The contention-manager age of `core`'s transaction; `None` while no
    /// transaction is active (non-transactional requesters always win).
    pub(crate) fn age(&self, core: CoreId) -> Option<Age> {
        self.active
            .then(|| (self.birth.expect("active tx has a birth"), core.0))
    }

    /// Ends the transaction as aborted. `remote` raises the flag the
    /// simulator polls; a self-abort is reported through the access's or
    /// commit's return value instead.
    pub(crate) fn abort(&mut self, cause: AbortCause, remote: bool) {
        debug_assert!(self.active, "aborting an inactive transaction");
        self.active = false;
        self.aborted = remote;
        self.stats.record_abort(cause);
    }

    /// Ends the transaction as committed.
    pub(crate) fn commit(&mut self) {
        debug_assert!(self.active, "commit without an active transaction");
        self.active = false;
        self.birth = None;
        self.stats.commits += 1;
    }

    pub(crate) fn take_aborted(&mut self) -> bool {
        std::mem::take(&mut self.aborted)
    }

    pub(crate) fn abort_pending(&self) -> bool {
        self.aborted
    }

    /// The quiescence checks common to every protocol: no active
    /// transaction, no birth stamp, an empty version-management log
    /// (`log` names it and gives its length) and no undelivered abort.
    pub(crate) fn check_quiescent(
        &self,
        protocol: &str,
        core: usize,
        log: (&str, usize),
    ) -> Result<(), String> {
        if self.active {
            return Err(format!(
                "{protocol}: core {core} still has an active transaction"
            ));
        }
        if self.birth.is_some() {
            return Err(format!(
                "{protocol}: core {core} kept a transaction birth stamp"
            ));
        }
        if log.1 != 0 {
            return Err(format!(
                "{protocol}: core {core} {} holds {} entries at quiescence",
                log.0, log.1
            ));
        }
        if self.aborted {
            return Err(format!(
                "{protocol}: core {core} has an undelivered abort flag"
            ));
        }
        Ok(())
    }
}

/// The four [`Protocol`](crate::Protocol) methods that only read or clear
/// the [`Tx`] of `self.cores[core]`, written once for every protocol.
macro_rules! tx_accessors {
    () => {
        fn tx_active(&self, core: CoreId) -> bool {
            self.cores[core.0].tx.is_active()
        }

        fn take_aborted(&mut self, core: CoreId) -> bool {
            self.cores[core.0].tx.take_aborted()
        }

        fn abort_pending(&self, core: CoreId) -> bool {
            self.cores[core.0].tx.abort_pending()
        }

        fn stats(&self, core: CoreId) -> &ProtocolStats {
            &self.cores[core.0].tx.stats
        }
    };
}
pub(crate) use tx_accessors;
