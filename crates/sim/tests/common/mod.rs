//! `RefMinHeap`: the default policy as one `BinaryHeap` of `(clock, id)`
//! keys — the obvious reference that the timing-wheel `DeterministicMin`
//! must equal decision for decision. Shared by `schedule_props.rs` here
//! and, through `#[path]`, the root `tests/determinism.rs`.

use retcon_sim::{Bound, Decision, Schedule, SchedulePeek};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Default)]
pub struct RefMinHeap {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Schedule for RefMinHeap {
    fn begin(&mut self, clocks: &[u64]) {
        self.heap.clear();
        self.heap
            .extend(clocks.iter().enumerate().map(|(i, &c)| Reverse((c, i))));
    }

    fn next_core(&mut self, _peek: &dyn SchedulePeek) -> Option<Decision> {
        let Reverse((_, core)) = self.heap.pop()?;
        let bound = match self.heap.peek() {
            Some(&Reverse((clock, id))) => Bound::Until(clock, id),
            None => Bound::Free,
        };
        Some(Decision::new(core, bound))
    }

    fn core_yielded(&mut self, core: usize, now: u64, runnable: bool) {
        if runnable {
            self.heap.push(Reverse((now, core)));
        }
    }

    fn core_released(&mut self, core: usize, now: u64) {
        self.heap.push(Reverse((now, core)));
    }
}
