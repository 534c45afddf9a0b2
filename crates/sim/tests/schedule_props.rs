//! Optimized ≡ obvious: the timing-wheel `DeterministicMin` must take the
//! same decisions — core, `bound`, and the final `None` — as a plain
//! `BinaryHeap` of `(clock, id)` keys, over random traces that obey the
//! monotone-push precondition. CI also runs this suite with
//! `--release`, the codegen that ships.

mod common;

use common::RefMinHeap;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use retcon_sim::schedule::CoreAction;
use retcon_sim::{DeterministicMin, Schedule, SchedulePeek};

/// The wheel width inside `DeterministicMin` (private there; the deltas
/// below straddle it on purpose).
const W: u64 = 256;

/// Same-clock id ties, ring wrap-around, the near/far boundary and
/// far-only stretches.
const DELTAS: [u64; 10] = [0, 1, 2, 10, 140, W - 1, W, W + 1, 10_000, 10_000_000];

/// One word, the word boundary on both sides, multi-word, `scaling_xl`.
const CORES: [usize; 7] = [1, 2, 63, 64, 65, 128, 1024];

struct NoPeek;
impl SchedulePeek for NoPeek {
    fn num_cores(&self) -> usize {
        0
    }
    fn next_action(&self, _core: usize) -> CoreAction {
        CoreAction::Local
    }
}

/// Both policies driven in lock-step; every answer compared.
struct Pair {
    wheel: DeterministicMin,
    heap: RefMinHeap,
}

impl Pair {
    fn begin(clocks: &[u64]) -> Pair {
        let mut pair = Pair {
            wheel: DeterministicMin::new(),
            heap: RefMinHeap::default(),
        };
        pair.wheel.begin(clocks);
        pair.heap.begin(clocks);
        pair
    }

    fn next_core(&mut self, step: usize) -> Option<usize> {
        let (got, want) = (self.wheel.next_core(&NoPeek), self.heap.next_core(&NoPeek));
        assert_eq!(got, want, "decision {step}");
        got.map(|d| d.core)
    }

    fn core_yielded(&mut self, core: usize, now: u64, runnable: bool) {
        self.wheel.core_yielded(core, now, runnable);
        self.heap.core_yielded(core, now, runnable);
    }

    fn core_released(&mut self, core: usize, now: u64) {
        self.wheel.core_released(core, now);
        self.heap.core_released(core, now);
    }
}

/// Drives one random monotone trace to completion. Pops are the global
/// minimum by construction, so "the popped core re-enters at its own clock
/// plus a delta" and "parked cores release at their maximum, no lower than
/// the last popped clock" are exactly what `Machine::run_with` does — plus
/// releases while other cores are still runnable, as a storm wake does.
fn drive(cores: usize, seed: u64) {
    let mut rng = TestRng::from_seed(seed);
    // Each trace draws from its own subset of the deltas, so lock-step
    // traces (all small) and scattered ones (all large) both occur.
    let palette: Vec<u64> = DELTAS
        .iter()
        .copied()
        .filter(|_| rng.below(2) == 0)
        .collect();
    let delta = |rng: &mut TestRng| match palette.len() {
        0 => DELTAS[rng.below(DELTAS.len() as u64) as usize],
        n => palette[rng.below(n as u64) as usize],
    };

    let mut clocks: Vec<u64> = (0..cores).map(|_| delta(&mut rng)).collect();
    let mut parked = vec![false; cores];
    let mut pair = Pair::begin(&clocks);
    let budget = 3 * cores + 400;
    for step in 0.. {
        let Some(core) = pair.next_core(step) else {
            // Nothing runnable: the machine's barrier release, at the
            // parked maximum — below the last popped clock if the last runner
            // halted above every parked core.
            let Some(at) = (0..cores).filter(|&c| parked[c]).map(|c| clocks[c]).max() else {
                break; // everyone halted; the final `None` matched
            };
            for c in (0..cores).filter(|&c| parked[c]) {
                clocks[c] = at;
                pair.core_released(c, at);
            }
            parked.fill(false);
            continue;
        };
        let popped_at = clocks[core];
        clocks[core] += delta(&mut rng);
        // Past the budget every yield halts, so the trace ends.
        let fate = if step >= budget { 0 } else { rng.below(16) };
        let runnable = fate >= 2;
        parked[core] = fate == 1;
        pair.core_yielded(core, clocks[core], runnable);

        // Now and then, release a random subset of the parked cores while
        // others are runnable.
        if rng.below(32) == 0 {
            let subset: Vec<usize> = (0..cores)
                .filter(|&c| parked[c] && rng.below(2) == 0)
                .collect();
            let at = subset.iter().map(|&c| clocks[c]).max();
            for &c in &subset {
                clocks[c] = at.expect("subset is non-empty").max(popped_at);
                parked[c] = false;
                pair.core_released(c, clocks[c]);
            }
        }
    }
    let stats = pair.wheel.stats();
    assert!(
        stats.pops >= cores as u64,
        "every core is decided at least once"
    );
    assert!(
        stats.near_pushes + stats.far_pushes >= stats.pops,
        "a popped key was pushed first"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn wheel_decides_exactly_as_the_heap(seed in any::<u64>()) {
        for cores in CORES {
            drive(cores, seed ^ cores as u64);
        }
    }
}

/// The one legal non-monotone push: core 1 parks at clock 10, core 0 is
/// decided at 500 and halts without reaching the barrier, so the release
/// lands at 10 — below the last decision, with nothing queued.
#[test]
fn release_below_the_last_decision_restarts_the_window() {
    let mut pair = Pair::begin(&[0, 0]);
    assert_eq!(pair.next_core(0), Some(0));
    pair.core_yielded(0, 500, true);
    assert_eq!(pair.next_core(1), Some(1));
    pair.core_yielded(1, 10, false); // parked
    assert_eq!(pair.next_core(2), Some(0));
    pair.core_yielded(0, 1000, false); // halted
    assert_eq!(pair.next_core(3), None);
    pair.core_released(1, 10);
    assert_eq!(pair.next_core(4), Some(1));
    pair.core_yielded(1, 10 + W + 5, true);
    assert_eq!(pair.next_core(5), Some(1));
    pair.core_yielded(1, 2000, false);
    assert_eq!(pair.next_core(6), None);
}

/// Host cost of one decision (a pop and the push that follows it) under
/// each policy, on a lock-step trace like the simulator's: every core
/// re-enters 1–4 cycles after the clock it was popped at. Prints; asserts
/// nothing. `cargo test --release -p retcon-sim --test schedule_props --
/// --ignored --nocapture` regenerates the EXPERIMENTS.md rows.
#[test]
#[ignore = "timing probe; prints a table"]
fn cost_per_decision_probe() {
    fn lock_step<S: Schedule>(schedule: &mut S, cores: usize, steps: u64) -> f64 {
        let mut clocks = vec![0u64; cores];
        let mut rng = TestRng::from_seed(7);
        let mut best = f64::MAX;
        for _ in 0..7 {
            clocks.fill(0);
            schedule.begin(&clocks);
            let start = std::time::Instant::now();
            for _ in 0..steps {
                let core = schedule.next_core(&NoPeek).expect("nobody halts").core;
                clocks[core] += 1 + rng.below(4);
                schedule.core_yielded(core, clocks[core], true);
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        best * 1e9 / steps as f64
    }
    println!("{:>6} {:>14} {:>14}", "cores", "heap, ns", "wheel, ns");
    for cores in [8, 32, 128, 1024] {
        let heap = lock_step(&mut RefMinHeap::default(), cores, 2_000_000);
        let wheel = lock_step(&mut DeterministicMin::new(), cores, 2_000_000);
        println!("{cores:>6} {heap:>14.1} {wheel:>14.1}");
    }
}
