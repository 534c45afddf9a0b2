//! Stall-storm descriptions for the simulator's analytic fast-forward.
//!
//! On heavily contended runs most of the simulated work is *stall
//! retries*: a core whose access lost a conflict waits the retry latency
//! and re-issues the same instruction, which loses the same conflict
//! against the same frozen masks, over and over, until another core
//! changes the blocks the verdict depends on (32-core `python`/RetCon
//! retires 1.7 M instructions but executes 4.5 M retries). Until then each
//! retry's outcome is a fixed point — the simulator can *compute* the storm
//! instead of simulating it.
//!
//! [`AnyProtocol::stall_storm`](crate::AnyProtocol::stall_storm) is the
//! read-only dry run: "if the stalled instruction were retried right now, would it
//! stall again with exactly the same side effects?" A `Some` answer carries
//! a [`StallStorm`] describing the side effects of one retry; the simulator
//! then charges `n` retries in closed form and hands the storm back through
//! [`AnyProtocol::apply_stall_retries`](crate::AnyProtocol::apply_stall_retries)
//! to apply the side effects `n` times (stall counters, predictor
//! training, cache-hit statistics for commit reacquisition walks). A
//! `None` answer means the retry is not provably a fixed point (e.g. a
//! RETCON steal would mutate coherence state) and the simulator falls back
//! to executing retries one by one.
//!
//! # Access storms and commit storms
//!
//! A stalled *access* retry touches exactly one block, so its verdict
//! depends on that block's conflict state alone. A stalled RETCON *commit*
//! retry re-walks the reacquisition prefix first — every tracked block and
//! buffered-store block ahead of the one it stalls on — re-accessing each
//! (an L1 hit with no coherence transition in steady state) before losing
//! the same conflict. Such a storm carries the prefix in [`watch`]
//! (`StallStorm::watch`) and the per-retry hit count in
//! [`prefix_hits`](StallStorm::prefix_hits): the verdict additionally
//! depends on the prefix blocks *staying* conflict-free and resident, and
//! each skipped retry must replay the prefix's cache-hit statistics.
//!
//! # Lifecycle
//!
//! The dry run's verdict stays valid as long as its inputs do: every input
//! lives on the contended block or the watched prefix, or is the stalled
//! core's own transaction, which only a remote abort can end. The stalled
//! core *watches* exactly those blocks
//! ([`MemorySystem::watch`](retcon_mem::MemorySystem::watch)), and the
//! first change to one of them wakes it, which ends the certificate. The
//! core also leaves the run queue, so its own remote abort wakes it too;
//! the waker's scheduling key bounds the retries re-execution would have
//! run meanwhile, they are charged at once, and the core re-executes the
//! instruction for real. Single-stepping schedules (jittered ones among
//! them) certify nothing: they re-execute every retry.

use retcon_isa::{Addr, BlockAddr, CoreSet};
use retcon_mem::AccessKind;

/// The stalled instruction a storm re-executes, as the simulator saw it:
/// the resolved address of a load/store, or a transaction commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallAction {
    /// A load of `Addr` stalled.
    Read(Addr),
    /// A store to `Addr` stalled.
    Write(Addr),
    /// A transaction commit stalled.
    Commit,
}

impl StallAction {
    /// The access a stalled load or store retries; `None` for a commit.
    pub(crate) fn access(self) -> Option<(Addr, AccessKind)> {
        match self {
            StallAction::Read(a) => Some((a, AccessKind::Read)),
            StallAction::Write(a) => Some((a, AccessKind::Write)),
            StallAction::Commit => None,
        }
    }
}

/// Upper bound on the watched reacquisition prefix of a commit storm. A
/// commit whose footprint exceeds this (possible only under enlarged
/// IVB/SSB sweep configurations) is simply not certified and retries
/// step-by-step.
pub const MAX_WATCHED_BLOCKS: usize = 64;

/// The conflict-free reacquisition prefix a commit storm depends on: the
/// verdict "this commit stalls at [`StallStorm::block`]" holds only while
/// none of these blocks gains a conflict or loses residency, both of which
/// change the block's footprint row and so wake its watchers. Empty for
/// access storms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchList {
    len: u8,
    blocks: [BlockAddr; MAX_WATCHED_BLOCKS],
}

impl WatchList {
    /// The empty watch list (access storms).
    pub const EMPTY: WatchList = WatchList {
        len: 0,
        blocks: [BlockAddr(0); MAX_WATCHED_BLOCKS],
    };

    /// Appends a block; returns `false` (list unchanged) when full.
    #[must_use]
    pub fn push(&mut self, block: BlockAddr) -> bool {
        if usize::from(self.len) == MAX_WATCHED_BLOCKS {
            return false;
        }
        self.blocks[usize::from(self.len)] = block;
        self.len += 1;
        true
    }

    /// The watched blocks.
    pub fn blocks(&self) -> &[BlockAddr] {
        &self.blocks[..usize::from(self.len)]
    }
}

/// The per-retry side effects of a stable stall storm, as validated by
/// [`AnyProtocol::stall_storm`](crate::AnyProtocol::stall_storm): each retry
/// increments the requester's stall counter, trains — under RETCON — the
/// conflict predictor of the requester and of every core in `train_mask`
/// on `block`, and, for commit storms, re-hits the L1 once per watched
/// prefix block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallStorm<const N: usize = 1> {
    /// Set of conflicting cores whose predictors (and the requester's,
    /// once per member) observe one conflict on `block` per retry; empty
    /// for protocols without predictors.
    pub train_mask: CoreSet<N>,
    /// The contended block the retry loses its conflict on (and that the
    /// predictors train on when `train_mask` is non-zero).
    pub block: BlockAddr,
    /// L1-hit accesses each retry performs re-walking the commit
    /// reacquisition prefix (zero for access storms); the simulator replays
    /// `n * prefix_hits` hits into the requester's memory statistics.
    pub prefix_hits: u32,
    /// The conflict-free reacquisition prefix the verdict also depends on.
    pub watch: WatchList,
}

impl<const N: usize> StallStorm<N> {
    /// An access storm: single contended block, no prefix.
    pub const fn access(train_mask: CoreSet<N>, block: BlockAddr) -> StallStorm<N> {
        StallStorm {
            train_mask,
            block,
            prefix_hits: 0,
            watch: WatchList::EMPTY,
        }
    }
}
