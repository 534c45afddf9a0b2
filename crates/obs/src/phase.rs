//! Process-global phase accumulators: where does lab wall-clock go —
//! simulating or serializing records?
//!
//! Callers time a span themselves (`std::time::Instant`) and charge the
//! elapsed microseconds to a [`Phase`] with [`add`]; [`snapshot`] reads
//! the totals. Accumulation is two relaxed atomic adds, cheap enough to
//! run unconditionally — *surfacing* the numbers (record meta, bench
//! entries) is what stays opt-in, because timings are nondeterministic
//! and the repo's record bytes are not allowed to be.

use std::sync::atomic::{AtomicU64, Ordering};

/// A profiled span category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Running simulations.
    Simulate = 0,
    /// Serializing records to JSON/CSV.
    Serialize = 1,
}

impl Phase {
    /// Every phase, in index order.
    pub const ALL: [Phase; 2] = [Phase::Simulate, Phase::Serialize];

    /// Stable display name (used as the record-meta key suffix).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Simulate => "simulate",
            Phase::Serialize => "serialize",
        }
    }
}

const N: usize = 2;
static MICROS: [AtomicU64; N] = [AtomicU64::new(0), AtomicU64::new(0)];
static SPANS: [AtomicU64; N] = [AtomicU64::new(0), AtomicU64::new(0)];

/// Charges one `micros`-long span to `phase`.
pub fn add(phase: Phase, micros: u64) {
    MICROS[phase as usize].fetch_add(micros, Ordering::Relaxed);
    SPANS[phase as usize].fetch_add(1, Ordering::Relaxed);
}

/// One phase's accumulated totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Which phase.
    pub phase: Phase,
    /// Total microseconds charged since process start (or the snapshot
    /// this is diffed against).
    pub micros: u64,
    /// Number of spans charged.
    pub spans: u64,
}

/// Current totals for every phase, in [`Phase::ALL`] order.
pub fn snapshot() -> [PhaseTotal; 2] {
    std::array::from_fn(|i| PhaseTotal {
        phase: Phase::ALL[i],
        micros: MICROS[i].load(Ordering::Relaxed),
        spans: SPANS[i].load(Ordering::Relaxed),
    })
}

/// `now - then`, per phase — the per-dataset delta the lab's `--profile`
/// meta reports. Saturating, so a racing reset cannot underflow.
pub fn delta(then: &[PhaseTotal; 2], now: &[PhaseTotal; 2]) -> [PhaseTotal; 2] {
    std::array::from_fn(|i| PhaseTotal {
        phase: now[i].phase,
        micros: now[i].micros.saturating_sub(then[i].micros),
        spans: now[i].spans.saturating_sub(then[i].spans),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_diff() {
        let before = snapshot();
        add(Phase::Simulate, 100);
        add(Phase::Simulate, 50);
        add(Phase::Serialize, 7);
        let after = snapshot();
        let d = delta(&before, &after);
        assert_eq!(d[Phase::Simulate as usize].micros, 150);
        assert_eq!(d[Phase::Simulate as usize].spans, 2);
        assert_eq!(d[Phase::Serialize as usize].micros, 7);
        assert_eq!(d[Phase::Serialize as usize].spans, 1);
    }
}
