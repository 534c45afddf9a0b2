//! The symbolic-tracking predictor.
//!
//! §4.1/§5.1 of the paper: a symbolic location is *"a memory address that
//! RETCON decides to track symbolically (e.g., via a predictor trained by
//! past history of conflicts)"*, and *"to avoid elongating the amount of
//! time that is spent in transactions that will eventually abort, a violated
//! constraint causes the predictor to train down aggressively, requiring the
//! observation of 100 conflicts on that block before attempting symbolic
//! tracking on that block again."*

use retcon_isa::fx::FxHashMap;
use retcon_isa::BlockAddr;

/// Per-block conflict-history predictor deciding which blocks to track
/// symbolically.
///
/// A block becomes trackable once it has been observed in `initial_threshold`
/// conflicts; a constraint violation at commit raises the bar by
/// `violation_backoff` further conflicts.
///
/// One entry per block the predictor was trained on, in a map: a core
/// trains on the few blocks it conflicts on, which a table indexed by
/// block number would pay for up to the highest of them (DESIGN.md "Keyed
/// tables").
///
/// # Example
///
/// ```
/// use retcon::Predictor;
/// use retcon_isa::BlockAddr;
///
/// let mut p = Predictor::new(1, 100);
/// let b = BlockAddr(3);
/// assert!(!p.should_track(b));
/// p.on_conflict(b);
/// assert!(p.should_track(b));
/// p.on_violation(b);
/// assert!(!p.should_track(b)); // needs 100 more conflicts now
/// ```
#[derive(Debug, Clone)]
pub struct Predictor {
    initial_threshold: u32,
    violation_backoff: u32,
    entries: FxHashMap<u64, Entry>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    conflicts: u32,
    /// Conflicts required before tracking; starts at `initial_threshold` and
    /// is raised on violations.
    required: u32,
}

impl Predictor {
    /// Creates a predictor that enables tracking after `initial_threshold`
    /// observed conflicts and backs off by `violation_backoff` conflicts on
    /// each constraint violation.
    pub fn new(initial_threshold: u32, violation_backoff: u32) -> Self {
        Predictor {
            initial_threshold,
            violation_backoff,
            entries: FxHashMap::default(),
        }
    }

    /// Should loads from `block` initiate symbolic tracking?
    #[inline]
    pub fn should_track(&self, block: BlockAddr) -> bool {
        match self.entries.get(&block.0) {
            Some(e) => e.conflicts >= e.required,
            None => self.initial_threshold == 0,
        }
    }

    /// The entry for `block`, initialized on first touch.
    #[inline]
    fn entry(&mut self, block: BlockAddr) -> &mut Entry {
        let required = self.initial_threshold;
        self.entries.entry(block.0).or_insert(Entry {
            conflicts: 0,
            required,
        })
    }

    /// Records that a conflict was observed on `block` (an abort or stall
    /// whose contended block this was).
    #[inline]
    pub fn on_conflict(&mut self, block: BlockAddr) {
        let e = self.entry(block);
        e.conflicts = e.conflicts.saturating_add(1);
    }

    /// Records `n` conflict observations on `block` at once — exactly
    /// equivalent to `n` [`on_conflict`](Predictor::on_conflict) calls
    /// (saturating addition makes the bulk form exact). The simulator's
    /// stall fast-forward uses this to train analytically instead of once
    /// per replayed retry.
    #[inline]
    pub fn on_conflicts(&mut self, block: BlockAddr, n: u32) {
        let e = self.entry(block);
        e.conflicts = e.conflicts.saturating_add(n);
    }

    /// Records that a commit-time constraint check failed for `block`:
    /// tracking is disabled until `violation_backoff` further conflicts
    /// accumulate.
    pub fn on_violation(&mut self, block: BlockAddr) {
        let backoff = self.violation_backoff;
        let e = self.entry(block);
        e.required = e.conflicts.saturating_add(backoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr(9);

    #[test]
    fn tracks_after_threshold() {
        let mut p = Predictor::new(2, 100);
        assert!(!p.should_track(B));
        p.on_conflict(B);
        assert!(!p.should_track(B));
        p.on_conflict(B);
        assert!(p.should_track(B));
    }

    #[test]
    fn zero_threshold_tracks_everything() {
        let p = Predictor::new(0, 100);
        assert!(p.should_track(B));
        assert!(p.should_track(BlockAddr(1234)));
    }

    #[test]
    fn violation_requires_backoff_conflicts() {
        let mut p = Predictor::new(1, 3);
        p.on_conflict(B);
        assert!(p.should_track(B));
        p.on_violation(B);
        assert!(!p.should_track(B));
        p.on_conflict(B);
        p.on_conflict(B);
        assert!(!p.should_track(B));
        p.on_conflict(B);
        assert!(p.should_track(B));
    }

    #[test]
    fn violation_on_unseen_block_sets_bar() {
        let mut p = Predictor::new(0, 2);
        p.on_violation(B);
        assert!(!p.should_track(B));
        p.on_conflict(B);
        p.on_conflict(B);
        assert!(p.should_track(B));
        // Other blocks unaffected.
        assert!(p.should_track(BlockAddr(1)));
    }

    #[test]
    fn histories_are_per_block() {
        let mut p = Predictor::new(1, 100);
        p.on_conflict(B);
        assert!(p.should_track(B));
        assert!(!p.should_track(BlockAddr(10)));
    }

    #[test]
    fn saturating_counters() {
        let mut p = Predictor::new(1, u32::MAX);
        p.on_conflict(B);
        p.on_violation(B); // required saturates at u32::MAX
        for _ in 0..10 {
            p.on_conflict(B);
        }
        assert!(!p.should_track(B));
    }
}
