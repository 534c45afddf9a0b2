//! `RefMinHeap`: the two-`BinaryHeap` default policy as it stood before the
//! timing wheel replaced it, kept verbatim as the obvious reference that
//! `DeterministicMin` must equal decision for decision. Shared by
//! `schedule_props.rs` here and, through `#[path]`, the root
//! `tests/determinism.rs`.

use retcon_sim::{Bound, Decision, Schedule, SchedulePeek};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Default)]
pub struct RefMinHeap {
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    storming: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Schedule for RefMinHeap {
    fn begin(&mut self, clocks: &[u64]) {
        self.ready.clear();
        self.storming.clear();
        self.ready
            .extend(clocks.iter().enumerate().map(|(i, &c)| Reverse((c, i))));
    }

    fn next_core(&mut self, _peek: &dyn SchedulePeek) -> Option<Decision> {
        let from_storm = match (self.ready.peek(), self.storming.peek()) {
            (Some(&Reverse(r)), Some(&Reverse(s))) => s < r,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => return None,
        };
        let Reverse((_, core)) = if from_storm {
            self.storming.pop()?
        } else {
            self.ready.pop()?
        };
        let ready_top = self.ready.peek().map(|&Reverse(k)| k);
        let storm_top = self.storming.peek().map(|&Reverse(k)| k);
        let until = |key: Option<(u64, usize)>| match key {
            Some((clock, id)) => Bound::Until(clock, id),
            None => Bound::Free,
        };
        let bound = until(match (ready_top, storm_top) {
            (Some(r), Some(s)) => Some(r.min(s)),
            (r, s) => r.or(s),
        });
        Some(Decision {
            core,
            bound,
            storm_bound: until(ready_top),
        })
    }

    fn core_yielded(&mut self, core: usize, now: u64, runnable: bool, storming: bool) {
        if runnable {
            if storming {
                self.storming.push(Reverse((now, core)));
            } else {
                self.ready.push(Reverse((now, core)));
            }
        }
    }

    fn core_released(&mut self, core: usize, now: u64) {
        self.ready.push(Reverse((now, core)));
    }

    fn stall_jitter_free(&self) -> bool {
        true
    }
}
