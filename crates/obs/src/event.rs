//! The transaction event schema and the tracer seam contract.
//!
//! Events are fixed-width (`at`/`arg`/`core`/`kind`, 24 bytes) so an
//! enabled tracer can preallocate its entire buffer up front and the
//! hot loop never allocates. `arg` is one kind-specific payload word —
//! enough to answer "which block / how long / how many" without
//! growing the event.

/// What happened. The discriminants are the wire/byte encoding and are
/// append-only: new kinds get new numbers, existing numbers never move
/// (hash-pinned event streams depend on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A transaction began. `arg` = 0.
    TxBegin = 0,
    /// A transaction committed. `arg` = commit latency in cycles (the
    /// RETCON commit-time reacquire/replay cost; 0 under eager systems).
    Commit = 1,
    /// The core stalled. `arg` = conflicting block id, or 0 for a
    /// commit-time stall.
    Stall = 2,
    /// A conflicting access was observed on the aborting path. `arg` =
    /// block id.
    Conflict = 3,
    /// The transaction aborted. `arg` = cause: 0 access conflict,
    /// 1 commit-time, 2 remote (another core's action killed it).
    Abort = 4,
    /// RETCON repaired instead of aborting: the commit replayed with
    /// symbolic register updates. `arg` = number of registers repaired.
    Repair = 5,
    /// A stall-retry storm was fast-forwarded analytically. `arg` =
    /// number of retries charged without execution.
    StormFf = 6,
    /// A sharded run's merge decision. `core` = shard index, `arg` =
    /// 0 merged (footprints disjoint), 1 overlap (serial fallback).
    ShardMerge = 7,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 8] = [
        EventKind::TxBegin,
        EventKind::Commit,
        EventKind::Stall,
        EventKind::Conflict,
        EventKind::Abort,
        EventKind::Repair,
        EventKind::StormFf,
        EventKind::ShardMerge,
    ];

    /// Stable display name (the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TxBegin => "tx_begin",
            EventKind::Commit => "commit",
            EventKind::Stall => "stall",
            EventKind::Conflict => "conflict",
            EventKind::Abort => "abort",
            EventKind::Repair => "repair",
            EventKind::StormFf => "storm_ff",
            EventKind::ShardMerge => "shard_merge",
        }
    }

    /// The kind with byte encoding `v`, if any.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }
}

/// One traced event, fixed-width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event happened at.
    pub at: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub arg: u64,
    /// Core (or shard, for [`EventKind::ShardMerge`]) the event belongs
    /// to.
    pub core: u16,
    /// Byte-encoded [`EventKind`].
    pub kind: u8,
}

impl TraceEvent {
    /// Builds an event, clamping `core` into the `u16` field (the
    /// simulator tops out at 1024 cores, far below the clamp).
    pub fn new(core: usize, kind: EventKind, at: u64, arg: u64) -> TraceEvent {
        TraceEvent {
            at,
            arg,
            core: core.min(u16::MAX as usize) as u16,
            kind: kind as u8,
        }
    }

    /// The event's kind (always valid for events built via
    /// [`TraceEvent::new`]).
    pub fn event_kind(&self) -> Option<EventKind> {
        EventKind::from_u8(self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_encoding_round_trips_and_is_pinned() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as u8, i as u8, "discriminants are append-only");
            assert_eq!(EventKind::from_u8(i as u8), Some(*k));
        }
        assert_eq!(EventKind::from_u8(8), None);
    }

    #[test]
    fn event_is_fixed_width() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 24);
    }

    #[test]
    fn core_clamps_into_u16() {
        let e = TraceEvent::new(1 << 20, EventKind::TxBegin, 1, 0);
        assert_eq!(e.core, u16::MAX);
        assert_eq!(e.event_kind(), Some(EventKind::TxBegin));
    }
}
