//! The enabled tracer: a preallocated ring buffer of fixed-width
//! events.
//!
//! All memory is allocated once, in [`RingTracer::with_capacity`] —
//! recording an event into a full ring overwrites the oldest event and
//! bumps a drop counter, so the simulator's steady state never
//! allocates with tracing on either. Tests that pin event streams
//! assert `dropped() == 0` first: a stream hash only identifies a
//! *complete* stream.

use crate::event::{EventKind, TraceEvent};

/// Default ring capacity (events). Sized from the heaviest traced shape
/// in the suite: 32-core unoptimized `python` under RetCon emits ~1.6M
/// events (commits + aborts + per-episode stalls + storm fast-forwards),
/// so 4M leaves ~2.5x headroom before anything drops.
pub const DEFAULT_CAPACITY: usize = 1 << 22;

/// A drop-oldest ring buffer of [`TraceEvent`]s with a deterministic
/// stream hash.
#[derive(Debug, Clone)]
pub struct RingTracer {
    buf: Vec<TraceEvent>,
    /// Index of the next write (== oldest event once the ring wrapped).
    head: usize,
    /// Events currently held (`<= buf.capacity()`).
    len: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
    capacity: usize,
}

impl Default for RingTracer {
    fn default() -> Self {
        RingTracer::with_capacity(DEFAULT_CAPACITY)
    }
}

impl RingTracer {
    /// A ring holding at most `capacity` events, fully preallocated
    /// here (the one allocation this tracer ever makes).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> RingTracer {
        assert!(capacity > 0, "a zero-capacity ring can hold nothing");
        RingTracer {
            buf: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
            dropped: 0,
            capacity,
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events have been recorded (or all were dropped).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events overwritten by newer ones (0 means the stream is
    /// complete).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Maximum events the ring holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let start = if self.len < self.capacity {
            0
        } else {
            self.head
        };
        (0..self.len).map(move |i| &self.buf[(start + i) % self.capacity])
    }

    /// How many held events are of `kind`.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.events().filter(|e| e.kind == kind as u8).count() as u64
    }

    /// Appends `other`'s events (oldest first) with every core id
    /// shifted by `core_offset` — the shard-merge primitive: shard `s`
    /// traced its cores locally from zero, the merge restores global
    /// numbering.
    pub fn extend_offset(&mut self, other: &RingTracer, core_offset: usize) {
        for e in other.events() {
            self.push(TraceEvent {
                core: (e.core as usize + core_offset).min(u16::MAX as usize) as u16,
                ..*e
            });
        }
        self.dropped += other.dropped;
    }

    /// A deterministic FNV-1a hash of the complete event stream (order,
    /// fields, and drop count all included) — the value determinism
    /// tests pin: same `(config, seed)` must reproduce it exactly.
    pub fn stream_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.len as u64);
        mix(self.dropped);
        for e in self.events() {
            mix(e.at);
            mix(e.arg);
            mix(u64::from(e.core) << 8 | u64::from(e.kind));
        }
        h
    }

    fn push(&mut self, e: TraceEvent) {
        if self.len < self.capacity {
            debug_assert_eq!(self.head, 0, "head moves only once full");
            self.buf.push(e);
            self.len += 1;
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records one event. The caller passes what the simulator *already
    /// decided*, and the simulator never reads the ring — nothing can feed
    /// back, which is what makes "tracing on vs off" byte-identical by
    /// construction.
    #[inline]
    pub fn record(&mut self, core: usize, kind: EventKind, at: u64, arg: u64) {
        self.push(TraceEvent::new(core, kind, at, arg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_below_capacity() {
        let mut r = RingTracer::with_capacity(8);
        for i in 0..5u64 {
            r.record(i as usize, EventKind::TxBegin, i * 10, i);
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let ats: Vec<u64> = r.events().map(|e| e.at).collect();
        assert_eq!(ats, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut r = RingTracer::with_capacity(3);
        for i in 0..5u64 {
            r.record(0, EventKind::Commit, i, 0);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let ats: Vec<u64> = r.events().map(|e| e.at).collect();
        assert_eq!(ats, vec![2, 3, 4], "oldest first, oldest dropped");
        assert_eq!(r.count(EventKind::Commit), 3);
    }

    #[test]
    fn stream_hash_is_deterministic_and_field_sensitive() {
        let mut a = RingTracer::with_capacity(16);
        let mut b = RingTracer::with_capacity(16);
        for r in [&mut a, &mut b] {
            r.record(1, EventKind::TxBegin, 5, 0);
            r.record(1, EventKind::Commit, 9, 2);
        }
        assert_eq!(a.stream_hash(), b.stream_hash());
        b.record(2, EventKind::Abort, 11, 0);
        assert_ne!(a.stream_hash(), b.stream_hash());
    }

    #[test]
    fn extend_offset_renumbers_cores() {
        let mut shard = RingTracer::with_capacity(4);
        shard.record(0, EventKind::Commit, 7, 1);
        shard.record(1, EventKind::Abort, 8, 0);
        let mut merged = RingTracer::with_capacity(8);
        merged.extend_offset(&shard, 16);
        let cores: Vec<u16> = merged.events().map(|e| e.core).collect();
        assert_eq!(cores, vec![16, 17]);
    }
}
