//! Choice traces and the trace-guided schedule.
//!
//! The bounded search drives the machine with a [`TraceSchedule`]: a
//! prescribed prefix of choices (indices into the eligible-core list at
//! each *choice point* — a scheduling decision with more than one eligible
//! core), beyond which every choice defaults to `0`, the deterministic
//! `(clock, id)` minimum. An empty prefix therefore reproduces the default
//! scheduler's interleaving exactly, and any failing schedule is fully
//! described — and replayable — by its choice list alone.

use retcon_sim::schedule::{Bound, Decision, Schedule, SchedulePeek, TraceHash};

/// A replayable schedule: the choice index taken at each choice point.
///
/// Serialized as a dot-separated index list (`"0.2.1"`; `""` is the empty
/// trace / default schedule), the format the `explore` record metadata and
/// DESIGN.md document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChoiceTrace {
    /// The choice taken at each choice point, in encounter order.
    pub choices: Vec<u32>,
}

impl ChoiceTrace {
    /// The empty trace: every choice defaults to the deterministic
    /// minimum, reproducing the default scheduler.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parses the dot-separated form produced by [`Display`](std::fmt::Display).
    ///
    /// # Errors
    ///
    /// Reports the first non-numeric segment.
    pub fn parse(text: &str) -> Result<ChoiceTrace, String> {
        if text.is_empty() {
            return Ok(ChoiceTrace::empty());
        }
        let choices = text
            .split('.')
            .map(|s| {
                s.parse::<u32>()
                    .map_err(|_| format!("bad trace segment `{s}`"))
            })
            .collect::<Result<Vec<u32>, String>>()?;
        Ok(ChoiceTrace { choices })
    }
}

impl std::fmt::Display for ChoiceTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, c) in self.choices.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// What the schedule observed at one choice point (recorded during a run,
/// consumed by the search when deciding where to branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoicePoint {
    /// The choice index actually taken.
    pub taken: u32,
    /// Number of eligible cores (always >= 2; single-candidate decisions
    /// are not choice points).
    pub eligible: u32,
    /// Bitmask over eligible indices whose next action *conflicts* with
    /// another eligible core's next action — the only alternatives worth
    /// branching on (DPOR-lite pruning: reordering cores whose immediate
    /// next actions are pairwise independent commutes, so only the
    /// default order is explored through such points).
    pub branchable: u64,
}

/// A [`Schedule`] that replays a [`ChoiceTrace`] prefix and defaults to
/// the deterministic minimum beyond it, recording every choice point it
/// passes.
#[derive(Debug)]
pub struct TraceSchedule {
    prefix: Vec<u32>,
    /// Per-core clock for runnable cores; `None` = running/halted/parked.
    runnable: Vec<Option<u64>>,
    /// Scratch: eligible core ids at the current decision, sorted by
    /// `(clock, id)` so index 0 is always the deterministic default.
    eligible: Vec<usize>,
    /// The log of choice points passed, in encounter order.
    log: Vec<ChoicePoint>,
    window: u64,
    hash: TraceHash,
    decisions: u64,
    /// Set when a prescribed choice did not fit the run (index out of
    /// range at its choice point): the replay is NOT the schedule the
    /// trace describes.
    diverged: bool,
}

impl TraceSchedule {
    /// A schedule replaying `trace` with eligibility window `window`
    /// (cycles above the runnable minimum a core may be chosen from; `0`
    /// explores only exact clock ties).
    pub fn new(trace: &ChoiceTrace, window: u64) -> Self {
        TraceSchedule {
            prefix: trace.choices.clone(),
            runnable: Vec::new(),
            eligible: Vec::new(),
            log: Vec::new(),
            window,
            hash: TraceHash::empty(),
            decisions: 0,
            diverged: false,
        }
    }

    /// The choice points passed during the run, in encounter order.
    pub fn log(&self) -> &[ChoicePoint] {
        &self.log
    }

    /// The complete trace of the run just executed (taken choices at every
    /// choice point — a superset of the prescribed prefix, and exactly the
    /// prefix needed to replay this run).
    pub fn full_trace(&self) -> ChoiceTrace {
        ChoiceTrace {
            choices: self.log.iter().map(|p| p.taken).collect(),
        }
    }

    /// Fingerprint of every decision taken; distinct fingerprints identify
    /// distinct explored interleavings.
    pub fn trace_hash(&self) -> u64 {
        self.hash.value()
    }

    /// Number of scheduling decisions taken (choice points and forced
    /// single-candidate decisions alike).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// `true` when a prescribed choice index was out of range at its
    /// choice point (or the prescribed prefix outlived the run's choice
    /// points): the executed schedule is NOT the one the trace describes.
    /// Traces produced by the search always fit; a diverged replay means
    /// the trace was corrupted or paired with the wrong scenario.
    pub fn diverged(&self) -> bool {
        self.diverged || self.log.len() < self.prefix.len()
    }
}

impl Schedule for TraceSchedule {
    fn begin(&mut self, clocks: &[u64]) {
        self.runnable.clear();
        self.runnable.extend(clocks.iter().map(|&c| Some(c)));
        self.log.clear();
        self.hash = TraceHash::empty();
        self.decisions = 0;
        self.diverged = false;
    }

    fn next_core(&mut self, peek: &dyn SchedulePeek) -> Option<Decision> {
        let min = self.runnable.iter().filter_map(|c| *c).min()?;
        self.eligible.clear();
        for (i, clock) in self.runnable.iter().enumerate() {
            if let Some(c) = *clock {
                if c <= min.saturating_add(self.window) {
                    self.eligible.push(i);
                }
            }
        }
        // Index 0 must be the deterministic `(clock, id)` minimum so the
        // all-zero trace reproduces the default scheduler.
        self.eligible
            .sort_unstable_by_key(|&i| (self.runnable[i].expect("eligible core is runnable"), i));
        let taken = if self.eligible.len() > 1 {
            let point = self.log.len();
            let taken = match self.prefix.get(point) {
                Some(&c) if (c as usize) < self.eligible.len() => c,
                Some(_) => {
                    // Out-of-range prescription: fall back to the
                    // deterministic default, but *flag* the divergence —
                    // silently running a different schedule would make a
                    // corrupted trace look irreproducible.
                    self.diverged = true;
                    0
                }
                None => 0,
            };
            let mut branchable = 0u64;
            for (j, &cj) in self.eligible.iter().enumerate() {
                let aj = peek.next_action(cj);
                let conflicts = self
                    .eligible
                    .iter()
                    .enumerate()
                    .any(|(k, &ck)| k != j && aj.conflicts_with(peek.next_action(ck)));
                if conflicts {
                    branchable |= 1u64 << j.min(63);
                }
            }
            self.log.push(ChoicePoint {
                taken,
                eligible: self.eligible.len() as u32,
                branchable,
            });
            taken
        } else {
            0
        };
        let core = self.eligible[taken as usize];
        self.runnable[core] = None;
        self.hash.push((core as u64) << 32 | taken as u64);
        self.decisions += 1;
        Some(Decision::new(core, Bound::Step))
    }

    fn core_yielded(&mut self, core: usize, now: u64, runnable: bool) {
        self.runnable[core] = runnable.then_some(now);
    }

    fn core_released(&mut self, core: usize, now: u64) {
        self.runnable[core] = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retcon_sim::schedule::CoreAction;

    #[test]
    fn trace_roundtrips_through_text() {
        for text in ["", "0", "0.2.1", "63.0.7"] {
            let t = ChoiceTrace::parse(text).unwrap();
            assert_eq!(t.to_string(), text);
        }
        assert!(ChoiceTrace::parse("1.x").is_err());
        assert_eq!(ChoiceTrace::parse("").unwrap(), ChoiceTrace::empty());
    }

    struct LocalPeek;
    impl SchedulePeek for LocalPeek {
        fn num_cores(&self) -> usize {
            3
        }
        fn next_action(&self, _core: usize) -> CoreAction {
            CoreAction::Local
        }
    }

    #[test]
    fn empty_prefix_takes_deterministic_minimum() {
        let mut s = TraceSchedule::new(&ChoiceTrace::empty(), 0);
        s.begin(&[4, 4, 2]);
        let d = s.next_core(&LocalPeek).unwrap();
        assert_eq!(d.core, 2, "unique minimum, not a choice point");
        assert!(s.log().is_empty());
        s.core_yielded(2, 4, true);
        let d = s.next_core(&LocalPeek).unwrap();
        assert_eq!(d.core, 0, "tie defaults to lowest id");
        assert_eq!(s.log().len(), 1);
        assert_eq!(s.log()[0].eligible, 3);
        assert_eq!(s.log()[0].taken, 0);
        assert_eq!(
            s.log()[0].branchable,
            0,
            "local actions are never branch-worthy"
        );
    }

    #[test]
    fn out_of_range_prescription_flags_divergence() {
        let mut s = TraceSchedule::new(&ChoiceTrace::parse("7").unwrap(), 0);
        s.begin(&[0, 0, 0]);
        let d = s.next_core(&LocalPeek).unwrap();
        assert_eq!(d.core, 0, "falls back to the deterministic default");
        assert!(s.diverged(), "the clamp must not be silent");

        // A prefix longer than the run's choice points also diverges.
        let mut s = TraceSchedule::new(&ChoiceTrace::parse("0.1.0").unwrap(), 0);
        s.begin(&[0, 0]);
        let d = s.next_core(&LocalPeek).unwrap();
        s.core_yielded(d.core, 1, false);
        let d = s.next_core(&LocalPeek).unwrap();
        s.core_yielded(d.core, 2, false);
        assert!(s.next_core(&LocalPeek).is_none());
        assert!(s.diverged(), "unconsumed prescription means a bad pairing");
    }

    #[test]
    fn prefix_overrides_choice_points_only() {
        let mut s = TraceSchedule::new(&ChoiceTrace::parse("2.1").unwrap(), 0);
        s.begin(&[0, 0, 0]);
        let d = s.next_core(&LocalPeek).unwrap();
        assert_eq!(d.core, 2, "first choice point takes prescribed index 2");
        s.core_yielded(2, 5, true);
        let d = s.next_core(&LocalPeek).unwrap();
        assert_eq!(d.core, 1, "second choice point takes prescribed index 1");
        assert_eq!(s.full_trace().to_string(), "2.1");
    }
}
