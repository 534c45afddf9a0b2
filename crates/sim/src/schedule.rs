//! The pluggable scheduling seam.
//!
//! [`Machine::run`](crate::Machine::run) always advances the runnable core
//! with the smallest `(clock, id)` — one deterministic interleaving per
//! configuration. Every other interleaving the timing model permits was
//! previously unreachable, so the serializability and cross-protocol
//! oracles only ever witnessed that single schedule. This module extracts
//! the policy behind a [`Schedule`] trait so the same machine can be driven
//! by other policies:
//!
//! * [`DeterministicMin`] — the default; byte-for-byte the historical
//!   behavior, including the stall-boundary batching contract.
//! * [`SeededFuzz`] — a splitmix-seeded perturber that reorders
//!   same-clock-eligible cores and injects bounded stall jitter; every run
//!   is exactly reproducible from `(config, seed)`.
//! * `retcon-explore`'s `TraceSchedule` — replays an explicit choice trace
//!   for the bounded DFS interleaving search.
//!
//! # Determinism contract
//!
//! A schedule decides *which* runnable core executes next and for how long
//! ([`Bound`]); it never touches simulation state. Given the same decision
//! sequence, the machine is a pure function of its inputs, so any
//! `Schedule` whose decisions are a deterministic function of its own state
//! and the observed yields keeps the whole run reproducible. The default
//! policy must uphold the invariant pinned by `tests/determinism.rs`:
//! scheduler order = min over runnable `(clock, id)`.

use retcon_isa::SplitMix64;
use retcon_obs::Fnv1a;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How far the selected core may run before control returns to the
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Batch: execute while the core's `(clock, id)` stays strictly below
    /// this key (the default policy's stall-boundary batching; the key is the
    /// smallest `(clock, id)` among the other runnable cores).
    Until(u64, usize),
    /// Execute exactly one instruction attempt (a stalled retry counts),
    /// then yield. Exploration policies use this: every instruction
    /// boundary is a potential choice point.
    Step,
    /// No other core is runnable: execute until a barrier or halt.
    Free,
}

/// One scheduling decision: which core runs, and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The core to execute.
    pub core: usize,
    /// How far it may run before yielding back to the schedule.
    pub bound: Bound,
}

impl Decision {
    /// Runs `core` within `bound`.
    pub fn new(core: usize, bound: Bound) -> Decision {
        Decision { core, bound }
    }
}

/// The action a core will attempt on its next instruction, as visible to a
/// schedule *before* it decides. Exploration policies use this to prune:
/// two eligible cores whose next actions are [independent]
/// (`CoreAction::conflicts_with`) need not be explored in both orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreAction {
    /// A load of the given cache block.
    Read(u64),
    /// A store to the given cache block.
    Write(u64),
    /// A transaction commit (protocol-global effects: publication,
    /// validation, victim aborts).
    Commit,
    /// A transaction begin (acquires an age/timestamp).
    Begin,
    /// Anything purely core-local (ALU, branches, register moves, work).
    Local,
}

impl CoreAction {
    /// Whether executing `self` and `other` on *different* cores can be
    /// order-sensitive. Used only for search pruning, so the relation is
    /// deliberately conservative in one direction: it may report a
    /// conflict where none exists (wasted exploration), and treats
    /// protocol-global operations (`Commit`, `Begin`) as conflicting with
    /// every transactional action.
    pub fn conflicts_with(self, other: CoreAction) -> bool {
        use CoreAction::*;
        match (self, other) {
            (Local, _) | (_, Local) => false,
            (Read(a), Read(b)) => {
                // Two reads of one block can still race through protocol
                // metadata (DATM forwarding edges), but their *order* is
                // observationally symmetric; treat as independent.
                let _ = (a, b);
                false
            }
            (Read(a), Write(b)) | (Write(a), Read(b)) | (Write(a), Write(b)) => a == b,
            // Commits/begins order transactions globally.
            _ => true,
        }
    }
}

/// Read-only view of the machine a schedule may consult when deciding.
pub trait SchedulePeek {
    /// Number of cores in the machine.
    fn num_cores(&self) -> usize;
    /// The action `core` will attempt on its next instruction.
    fn next_action(&self, core: usize) -> CoreAction;
}

/// A scheduling policy for [`Machine::run_with`](crate::Machine::run_with).
///
/// Lifecycle: `begin` once with every core's starting clock, then
/// repeatedly `next_core` → (machine runs the decided core) →
/// `core_yielded`. Cores parked at a barrier, or — after a batched
/// ([`Bound::Until`]/[`Bound::Free`]) decision — asleep in a certified
/// stall storm, leave the runnable set (`runnable = false`) and re-enter
/// through `core_released` when the machine releases the barrier or wakes
/// them. Under [`Bound::Step`] every stalled retry is re-executed, one
/// decision each. `observe_stall` is consulted on every executed stall
/// and may add jitter cycles.
pub trait Schedule {
    /// Starts a run: `clocks[i]` is core `i`'s current clock; every core is
    /// runnable.
    fn begin(&mut self, clocks: &[u64]);

    /// Picks the next core to execute, or `None` when no core is runnable
    /// (everyone halted or parked at the barrier).
    fn next_core(&mut self, peek: &dyn SchedulePeek) -> Option<Decision>;

    /// The previously-decided core stopped at clock `now`; it re-enters the
    /// runnable set unless `runnable` is false (halted, at a barrier, or
    /// parked in a stall storm).
    fn core_yielded(&mut self, core: usize, now: u64, runnable: bool);

    /// `core` was released from a barrier, or woken from a stall storm, at
    /// clock `now` and is runnable again. A wake happens while the decided
    /// core runs, at a key above that core's.
    fn core_released(&mut self, core: usize, now: u64);

    /// A stall of the configured retry latency is being charged to `core`
    /// at clock `now`; the returned extra cycles are added to the charge
    /// (conflict time). The default policy never jitters.
    ///
    /// A schedule that jitters must decide with [`Bound::Step`]. After a
    /// batched decision the machine's stall fast-forward parks a certified
    /// storm and charges its retries in closed form when it is woken,
    /// without consulting this method per retry, so nonzero jitter there
    /// would change the run (debug builds assert that it stays zero).
    fn observe_stall(&mut self, _core: usize, _now: u64) -> u64 {
        0
    }
}

/// Width of a [`MonotoneQueue`]'s wheel in one-cycle slots (a power of
/// two). Cores re-enter within a few cycles of the clock they were popped
/// at — one instruction, one L1 hit, one stall retry — so nearly every
/// push lands inside the window; stall fast-forward charges and long
/// `Work` instructions overshoot it and go to the far heap
/// (`tests/sched_traffic.rs` pins that share).
const WHEEL: usize = 256;

/// A `(clock, id)` scheduling key.
type Key = (u64, usize);

/// "No entry": compares above every real key (no core has this id).
const EMPTY: Key = (u64::MAX, usize::MAX);

/// A min-priority queue of `(clock, id)` keys for *monotone* use: a timing
/// wheel for keys in `[base, base + WHEEL)` and a plain binary heap for
/// the rest.
///
/// The wheel is `WHEEL` slots, one per clock value modulo `WHEEL`, each a
/// bitmask over core ids (`words` `u64`s per slot, all slots in one flat
/// vector). A key is one bit: slot `clock & (WHEEL - 1)`, bit `id`. Within
/// a slot the lowest set bit is the smallest id, so the `(clock, id)`
/// tie-break costs nothing; across slots, `occupied` (one bit per
/// non-empty slot) is scanned circularly from the last popped clock.
///
/// **Precondition** (checked by `debug_assert!`): every pushed clock is at
/// least `base`, the clock of the last pop. Then `base` never decreases,
/// every wheel key stays inside `[base, base + WHEEL)`, and two wheel keys
/// share a slot only if they share a clock. Keys at or beyond `base + WHEEL` go to
/// `far` and are never migrated: the minimum is `min(wheel minimum,
/// far.peek())`, both O(1) to read, so a far key is simply popped from
/// the heap when its turn comes.
#[derive(Debug)]
struct MonotoneQueue {
    /// `u64` words per slot: `ceil(cores / 64)`.
    words: usize,
    /// `WHEEL * words` id-mask words, slot-major.
    slots: Vec<u64>,
    /// Bit `s` set iff slot `s` holds at least one id.
    occupied: [u64; WHEEL / 64],
    base: u64,
    /// Cached smallest wheel key ([`EMPTY`] if the wheel is empty).
    near_min: Key,
    far: BinaryHeap<Reverse<Key>>,
    /// Cached smallest key overall: `min(near_min, far.peek())`.
    min: Key,
}

impl Default for MonotoneQueue {
    fn default() -> Self {
        MonotoneQueue {
            words: 0,
            slots: Vec::new(),
            occupied: [0; WHEEL / 64],
            base: 0,
            near_min: EMPTY,
            far: BinaryHeap::new(),
            min: EMPTY,
        }
    }
}

impl MonotoneQueue {
    /// Empties the queue for a `cores`-core run starting at clock `base`,
    /// keeping both allocations.
    fn reset(&mut self, cores: usize, base: u64) {
        self.words = cores.div_ceil(64);
        self.slots.clear();
        self.slots.resize(WHEEL * self.words, 0);
        self.occupied = [0; WHEEL / 64];
        self.base = base;
        self.near_min = EMPTY;
        self.far.clear();
        // A core has at most one key, so `far` never outgrows this.
        self.far.reserve(cores);
        self.min = EMPTY;
    }

    /// Inserts `(clock, id)`; returns whether it landed on the wheel.
    #[inline]
    fn push(&mut self, clock: u64, id: usize) -> bool {
        debug_assert!(
            clock >= self.base,
            "non-monotone push: clock {clock} below the last popped clock {}",
            self.base
        );
        let key = (clock, id);
        let near = clock - self.base < WHEEL as u64;
        if near {
            let slot = clock as usize & (WHEEL - 1);
            self.slots[slot * self.words + id / 64] |= 1 << (id % 64);
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.near_min = self.near_min.min(key);
        } else {
            self.far.push(Reverse(key));
        }
        self.min = self.min.min(key);
        near
    }

    /// Removes the minimum, which the caller has read from `min` (so the
    /// queue is non-empty), and makes its clock the new `base`.
    #[inline]
    fn pop(&mut self) {
        let (clock, id) = self.min;
        if self.min == self.near_min {
            self.near_min = self.remove_near_min(clock, id);
        } else {
            self.far.pop();
        }
        self.base = clock;
        let far_min = self.far.peek().map_or(EMPTY, |&Reverse(key)| key);
        self.min = self.near_min.min(far_min);
    }

    /// Clears the wheel's minimum `(clock, id)` and returns the next one.
    /// `id` was the lowest bit of its slot, so the slot's remaining ids are
    /// all above it; only when the slot runs dry is `occupied` consulted.
    #[inline]
    fn remove_near_min(&mut self, clock: u64, id: usize) -> Key {
        let slot = clock as usize & (WHEEL - 1);
        if self.words == 1 {
            // At most 64 cores: a slot is one word.
            let rest = self.slots[slot] & !(1 << id);
            self.slots[slot] = rest;
            if rest != 0 {
                return (clock, rest.trailing_zeros() as usize);
            }
        } else {
            let ids = &mut self.slots[slot * self.words..][..self.words];
            ids[id / 64] &= !(1 << (id % 64));
            if let Some(next) = lowest_id(&ids[id / 64..]) {
                return (clock, (id & !63) + next);
            }
        }
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        self.scan_from(clock)
    }

    /// The smallest wheel key, given that none is below `from`: the first
    /// occupied slot at or circularly after `from`'s, and its lowest id.
    fn scan_from(&self, from: u64) -> Key {
        const OCC: usize = WHEEL / 64;
        let start = from as usize & (WHEEL - 1);
        let (word, bit) = (start / 64, start % 64);
        // `word`'s bits from `bit` up, the other words whole, then
        // `word`'s bits below `bit` (the wrapped-around tail).
        for i in 0..=OCC {
            let w = (word + i) % OCC;
            let mask = match i {
                0 => !0 << bit,
                OCC => !(!0 << bit),
                _ => !0,
            };
            let bits = self.occupied[w] & mask;
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                let ahead = slot.wrapping_sub(start) & (WHEEL - 1);
                let ids = &self.slots[slot * self.words..][..self.words];
                let id = lowest_id(ids).expect("an occupied slot holds an id");
                return (from + ahead as u64, id);
            }
        }
        EMPTY
    }
}

/// Index of the lowest set bit across `words`, least significant first.
#[inline]
fn lowest_id(words: &[u64]) -> Option<usize> {
    words
        .iter()
        .position(|&w| w != 0)
        .map(|i| i * 64 + words[i].trailing_zeros() as usize)
}

/// Deterministic work counters of one [`DeterministicMin`] run: exact per
/// input, never part of a report or record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Scheduling decisions taken (`next_core` calls that returned a core).
    pub pops: u64,
    /// Keys pushed onto a timing wheel (within its 256-cycle window above
    /// the last popped clock).
    pub near_pushes: u64,
    /// Keys pushed beyond the wheel's window, onto a binary heap.
    pub far_pushes: u64,
}

/// The default policy: always run the runnable core with the smallest
/// `(clock, id)`, batching until the next key. Byte-for-byte the
/// historical `Machine::run` scheduler.
///
/// The policy is consulted about once per simulated instruction (cores
/// advance in lock-step, so a batch is rarely longer), which is why the
/// queue is an O(1) timing wheel and not a binary heap. Cores asleep in a
/// certified stall storm are not in it at all: the machine parks them
/// (`runnable = false`) and releases them when a watched block moves.
///
/// # Precondition: monotone pushes
///
/// `core_yielded` and `core_released` must report clocks at or above the
/// clock of the last decision. [`Machine::run_with`](crate::Machine::run_with)
/// guarantees it: the decided key is the global minimum, a yielding core's
/// clock has only grown from it, a woken core is charged up to the running
/// core's key, and a barrier releases at the maximum parked clock. The one
/// exception is allowed for: a release while *no* core is runnable may
/// restart below the last decision (the last runner halted above every
/// parked core). Debug builds assert the precondition;
/// a policy for arbitrary push orders must bring its own queue.
#[derive(Debug, Default)]
pub struct DeterministicMin {
    queue: MonotoneQueue,
    stats: ScheduleStats,
}

impl DeterministicMin {
    /// An empty policy; `begin` fills it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Work counters since the last `begin` (whose initial keys count as
    /// pushes).
    pub fn stats(&self) -> ScheduleStats {
        self.stats
    }

    /// Queues `core` at `clock`.
    #[inline]
    fn push(&mut self, clock: u64, core: usize) {
        let near = self.queue.push(clock, core);
        self.stats.near_pushes += u64::from(near);
        self.stats.far_pushes += u64::from(!near);
    }
}

impl Schedule for DeterministicMin {
    fn begin(&mut self, clocks: &[u64]) {
        let base = clocks.iter().copied().min().unwrap_or(0);
        self.queue.reset(clocks.len(), base);
        self.stats = ScheduleStats::default();
        for (core, &clock) in clocks.iter().enumerate() {
            self.push(clock, core);
        }
    }

    fn next_core(&mut self, _peek: &dyn SchedulePeek) -> Option<Decision> {
        if self.queue.min == EMPTY {
            return None;
        }
        let (_, core) = self.queue.min;
        self.queue.pop();
        self.stats.pops += 1;
        let bound = match self.queue.min {
            EMPTY => Bound::Free,
            (clock, id) => Bound::Until(clock, id),
        };
        Some(Decision::new(core, bound))
    }

    fn core_yielded(&mut self, core: usize, now: u64, runnable: bool) {
        if runnable {
            self.push(now, core);
        }
    }

    fn core_released(&mut self, core: usize, now: u64) {
        if now < self.queue.base {
            // The last runner halted above every parked core, so this
            // barrier releases below the last decision. Nothing is queued
            // (a barrier releases only when no core is runnable), and an
            // empty wheel may restart anywhere.
            debug_assert!(self.queue.min == EMPTY);
            self.queue.base = now;
        }
        self.push(now, core);
    }
}

/// A seeded schedule perturber: at every instruction boundary it picks
/// uniformly among the cores whose clock lies within `window` cycles of
/// the runnable minimum, and every stall charge gains `0..=max_jitter`
/// extra cycles. With `window = 0` it only reorders exact `(clock)` ties —
/// the schedules a real machine could exhibit under identical timing —
/// while jitter perturbs the clocks themselves, opening timing-shifted
/// interleavings. Fully reproducible from the seed.
#[derive(Debug, Clone)]
pub struct SeededFuzz {
    rng: SplitMix64,
    /// Per-core clock for runnable cores; `None` = halted or parked.
    runnable: Vec<Option<u64>>,
    /// Scratch list of eligible core ids (reused; no steady-state
    /// allocation).
    eligible: Vec<usize>,
    window: u64,
    max_jitter: u64,
    hash: Fnv1a,
    decisions: u64,
}

impl SeededFuzz {
    /// The default eligibility window (cycles above the runnable minimum a
    /// core may be chosen from).
    pub const DEFAULT_WINDOW: u64 = 2;
    /// The default maximum stall jitter in cycles.
    pub const DEFAULT_JITTER: u64 = 3;

    /// A fuzz schedule with the default window and jitter.
    pub fn new(seed: u64) -> Self {
        Self::with_params(seed, Self::DEFAULT_WINDOW, Self::DEFAULT_JITTER)
    }

    /// A fuzz schedule with explicit eligibility window and maximum stall
    /// jitter.
    pub fn with_params(seed: u64, window: u64, max_jitter: u64) -> Self {
        SeededFuzz {
            rng: SplitMix64::new(seed),
            runnable: Vec::new(),
            eligible: Vec::new(),
            window,
            max_jitter,
            hash: Fnv1a::new(),
            decisions: 0,
        }
    }

    /// Fingerprint of every decision (chosen core + clock + jitter) taken
    /// so far; distinct fingerprints identify distinct schedules.
    pub fn trace_hash(&self) -> u64 {
        self.hash.value()
    }

    /// Number of scheduling decisions taken.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }
}

impl Schedule for SeededFuzz {
    fn begin(&mut self, clocks: &[u64]) {
        self.runnable.clear();
        self.runnable.extend(clocks.iter().map(|&c| Some(c)));
        self.hash = Fnv1a::new();
        self.decisions = 0;
    }

    fn next_core(&mut self, _peek: &dyn SchedulePeek) -> Option<Decision> {
        let min = self.runnable.iter().filter_map(|c| *c).min()?;
        self.eligible.clear();
        for (i, clock) in self.runnable.iter().enumerate() {
            if let Some(c) = *clock {
                if c <= min.saturating_add(self.window) {
                    self.eligible.push(i);
                }
            }
        }
        let pick = self.rng.below(self.eligible.len() as u64) as usize;
        let core = self.eligible[pick];
        self.runnable[core] = None; // running; re-enters via core_yielded
        self.hash.push((core as u64) << 32 | pick as u64);
        self.decisions += 1;
        Some(Decision::new(core, Bound::Step))
    }

    fn core_yielded(&mut self, core: usize, now: u64, runnable: bool) {
        self.runnable[core] = runnable.then_some(now);
    }

    fn core_released(&mut self, core: usize, now: u64) {
        self.runnable[core] = Some(now);
    }

    fn observe_stall(&mut self, _core: usize, _now: u64) -> u64 {
        if self.max_jitter == 0 {
            return 0;
        }
        let jitter = self.rng.below(self.max_jitter + 1);
        self.hash.push(0x8000_0000_0000_0000 | jitter);
        jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoPeek;
    impl SchedulePeek for NoPeek {
        fn num_cores(&self) -> usize {
            0
        }
        fn next_action(&self, _core: usize) -> CoreAction {
            CoreAction::Local
        }
    }

    #[test]
    fn default_orders_by_clock_then_id() {
        let mut s = DeterministicMin::new();
        s.begin(&[5, 0, 5]);
        let d = s.next_core(&NoPeek).unwrap();
        assert_eq!(d.core, 1);
        assert_eq!(d.bound, Bound::Until(5, 0));
        s.core_yielded(1, 9, true);
        let d = s.next_core(&NoPeek).unwrap();
        assert_eq!(d.core, 0, "tie broken by id");
        assert_eq!(d.bound, Bound::Until(5, 2));
    }

    #[test]
    fn default_frees_last_core_and_drops_unrunnable() {
        let mut s = DeterministicMin::new();
        s.begin(&[0, 3]);
        let d = s.next_core(&NoPeek).unwrap();
        assert_eq!(d.core, 0);
        s.core_yielded(0, 10, false); // halted
        let d = s.next_core(&NoPeek).unwrap();
        assert_eq!((d.core, d.bound), (1, Bound::Free));
        s.core_yielded(1, 11, false);
        assert!(s.next_core(&NoPeek).is_none());
    }

    #[test]
    fn fuzz_is_reproducible_and_window_bounded() {
        let drive = |seed| {
            let mut s = SeededFuzz::with_params(seed, 0, 0);
            s.begin(&[0, 0, 7]);
            let mut picks = Vec::new();
            for _ in 0..2 {
                let d = s.next_core(&NoPeek).unwrap();
                assert!(d.core < 2, "core 2 is outside the window");
                assert_eq!(d.bound, Bound::Step);
                picks.push(d.core);
                s.core_yielded(d.core, 9, true);
            }
            (picks, s.trace_hash())
        };
        assert_eq!(drive(42), drive(42));
        // Some seed must pick core 1 first (ties are actually reordered).
        assert!((0..32u64).any(|seed| drive(seed).0[0] == 1));
    }

    #[test]
    fn fuzz_jitter_is_bounded() {
        let mut s = SeededFuzz::with_params(1, 2, 5);
        s.begin(&[0]);
        for _ in 0..100 {
            assert!(s.observe_stall(0, 0) <= 5);
        }
        let mut none = SeededFuzz::with_params(1, 2, 0);
        none.begin(&[0]);
        assert_eq!(none.observe_stall(0, 0), 0);
    }

    #[test]
    fn conflict_relation_is_symmetric_and_local_free() {
        use CoreAction::*;
        let actions = [Read(1), Write(1), Read(2), Write(2), Commit, Begin, Local];
        for a in actions {
            for b in actions {
                assert_eq!(a.conflicts_with(b), b.conflicts_with(a), "{a:?} {b:?}");
                assert!(!Local.conflicts_with(b));
            }
        }
        assert!(Write(1).conflicts_with(Read(1)));
        assert!(!Write(1).conflicts_with(Read(2)));
        assert!(!Read(1).conflicts_with(Read(1)));
        assert!(Commit.conflicts_with(Begin));
    }
}
