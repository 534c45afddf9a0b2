//! Deterministic sharded execution: run disjoint groups of cores on host
//! threads and merge their reports into the exact bytes a serial run
//! produces.
//!
//! # Partition rule
//!
//! Cores are split into `shards` contiguous index ranges
//! ([`shard_ranges`]), each simulated by its own [`Machine`] — private
//! memory system, private protocol instance, private scheduler. Shard `s`
//! simulates global cores `lo..hi` as its local cores `0..hi-lo`; the
//! merge concatenates per-core reports in shard order, which restores the
//! global core numbering without any renumbering step.
//!
//! # Merge contract
//!
//! The serial simulator advances the runnable core with the smallest
//! `(clock, id)` key. If the shards' block footprints are pairwise
//! disjoint, cores in different shards never interact — no directory
//! entry, conflict mask, predictor, or storm certificate is ever shared —
//! so each core's trajectory (its clock, breakdown, instruction count and
//! protocol counters) is a function of its own shard's cores alone. The
//! serial interleaving of two non-interacting shards differs from the
//! shard-local interleaving only in how instruction batches are cut, and
//! batching is observationally invariant (see `Machine::run_core`). Hence:
//!
//! * `per_core` — concatenation in shard order equals the serial vector;
//! * `cycles` — `max` over cores commutes with the partition;
//! * `protocol` / `retcon` — per-core counters summed with the same
//!   commutative, associative merges the serial reporter uses.
//!
//! # Determinism invariants re-checked at merge time
//!
//! The disjointness premise is *verified, never assumed*: every shard
//! machine records the blocks its cores actually touched
//! ([`Machine::set_track_footprint`]), and [`run_sharded`] compares the
//! footprints pairwise after the runs complete. Any overlap yields
//! [`ShardedOutcome::Overlap`] and the caller must fall back to a serial
//! run — the sharded path never returns a report whose premise it could
//! not prove. Two further conditions are the *caller's* contract (checked
//! in `retcon-workloads::run_spec_opts` because the spec lives there):
//! no [`SimConfig::schedule_seed`] (a fuzzed schedule draws from a global
//! sequence whose consumption order spans shards) and no `Barrier`
//! instruction (barrier release synchronizes globally across all cores).
//!
//! [`SimConfig::schedule_seed`]: crate::SimConfig::schedule_seed

use std::ops::Range;

use retcon_obs::{EventKind, RingTracer};

use crate::machine::{Machine, SimError};
use crate::report::SimReport;

/// Splits `num_cores` into `shards` contiguous, near-equal, non-empty
/// ranges. The first `num_cores % shards` ranges are one core larger.
///
/// # Panics
///
/// Panics if `shards` is zero or exceeds `num_cores`.
pub fn shard_ranges(num_cores: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards > 0, "need at least one shard");
    assert!(
        shards <= num_cores,
        "cannot split {num_cores} cores into {shards} non-empty shards"
    );
    let base = num_cores / shards;
    let extra = num_cores % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut lo = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push(lo..lo + len);
        lo += len;
    }
    debug_assert_eq!(lo, num_cores);
    ranges
}

/// What a sharded run produced.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // constructed once per run, never stored
pub enum ShardedOutcome {
    /// The shards' footprints were pairwise disjoint; the merged report is
    /// byte-identical to a serial run's. A traced run also carries the
    /// merged event stream: shard-local core ids renumbered to global,
    /// with one [`ShardMerge`](EventKind::ShardMerge) event per shard
    /// (`core` = shard index, `at` = that shard's cycle count, `arg` = 0
    /// for merged).
    Merged(SimReport, Option<RingTracer>),
    /// Two shards touched a common block: the independence premise fails
    /// and the caller must run serially. Carries one witness block id.
    Overlap {
        /// A block id present in at least two shard footprints.
        block: u64,
    },
}

/// Runs `shards` contiguous core ranges on host threads and merges their
/// reports (see the module docs for the partition rule and merge
/// contract).
///
/// `build` receives each shard's global core range and must return a
/// machine simulating exactly those cores (locally numbered from zero)
/// with footprint tracking left to this function — it is switched on
/// here so the disjointness check can never be forgotten.
///
/// Every shard's machine is built on the calling thread and run on a
/// scoped thread of its own while the caller waits. A thread's first
/// allocation claims an allocator arena that outlives the thread: built
/// here, the machines share the caller's heap instead of each filling an
/// arena of its own, and a shard thread that grows a table (`realloc`)
/// grows it where it was built. The caller runs no shard itself: while it
/// ran shard 0, the serial runs it made afterwards ran slower (DESIGN.md
/// § Sharding, "Thread model").
///
/// `trace_capacity` turns on event tracing: each shard machine records
/// into a private ring (the capacity split evenly across shards) and a
/// successful merge concatenates the streams in shard order. Tracing
/// never perturbs: the report is byte-identical with or without it.
///
/// # Errors
///
/// Propagates the first [`SimError`] any shard reports (by shard order).
pub fn run_sharded<const N: usize, F>(
    num_cores: usize,
    shards: usize,
    trace_capacity: Option<usize>,
    build: F,
) -> Result<ShardedOutcome, SimError>
where
    F: Fn(Range<usize>) -> Machine<N>,
{
    let ranges = shard_ranges(num_cores, shards);
    let per_shard = trace_capacity.map(|capacity| capacity.div_ceil(shards).max(1));
    let machines: Vec<Machine<N>> = ranges
        .iter()
        .map(|range| {
            let mut machine = build(range.clone());
            machine.set_track_footprint(true);
            if let Some(capacity) = per_shard {
                machine.set_tracer(RingTracer::with_capacity(capacity));
            }
            machine
        })
        .collect();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = machines
            .into_iter()
            .map(|machine| scope.spawn(move || run_shard(machine)))
            .collect();
        threads
            .into_iter()
            .map(|thread| {
                thread
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut reports = Vec::with_capacity(ranges.len());
    let mut footprints = Vec::with_capacity(ranges.len());
    let mut tracers = Vec::with_capacity(ranges.len());
    for outcome in outcomes {
        let (report, footprint, tracer) = outcome?;
        reports.push(report);
        footprints.push(footprint);
        tracers.push(tracer);
    }
    // Pairwise disjointness, verified against what the cores actually did.
    // Probe each block against a running union so the check is linear in
    // the total footprint, not quadratic in shards.
    let mut seen = retcon_mem::FxHashSet::default();
    for fp in &footprints {
        for &block in fp {
            if !seen.insert(block) {
                return Ok(ShardedOutcome::Overlap { block });
            }
        }
    }
    let merged_trace = trace_capacity.map(|capacity| {
        let mut merged = RingTracer::with_capacity(capacity.max(1) + shards);
        for (s, ((tracer, range), report)) in tracers.iter().zip(&ranges).zip(&reports).enumerate()
        {
            let tracer = tracer.as_ref().expect("tracer attached above");
            merged.extend_offset(tracer, range.start);
            merged.record(s, EventKind::ShardMerge, report.cycles, 0);
        }
        merged
    });
    Ok(ShardedOutcome::Merged(merge_reports(reports), merged_trace))
}

/// What one shard's run leaves for the merge: its report, the blocks its
/// cores touched and its event stream, if traced.
type ShardRun = (SimReport, retcon_mem::FxHashSet<u64>, Option<RingTracer>);

/// Runs one shard machine built by [`run_sharded`].
fn run_shard<const N: usize>(mut machine: Machine<N>) -> Result<ShardRun, SimError> {
    let report = machine.run()?;
    let footprint = machine
        .take_footprint()
        .expect("footprint tracking enabled by run_sharded");
    Ok((report, footprint, machine.take_tracer()))
}

/// Merges shard reports (in shard order) into the serial-equivalent
/// report: per-core vectors concatenate, the cycle count is the maximum,
/// and the protocol accumulators combine with their own commutative
/// merges.
fn merge_reports(reports: Vec<SimReport>) -> SimReport {
    let mut iter = reports.into_iter();
    let mut merged = iter.next().expect("at least one shard");
    for r in iter {
        debug_assert_eq!(merged.protocol_name, r.protocol_name);
        merged.cycles = merged.cycles.max(r.cycles);
        merged.per_core.extend(r.per_core);
        merged.protocol.merge(&r.protocol);
        merged.retcon = match (merged.retcon.take(), r.retcon) {
            (Some(mut a), Some(b)) => {
                a.merge(&b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_contiguously() {
        for (cores, shards) in [(8, 2), (10, 3), (1024, 16), (7, 7), (5, 1)] {
            let ranges = shard_ranges(cores, shards);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, cores);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(!w[0].is_empty() && !w[1].is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn more_shards_than_cores_rejected() {
        let _ = shard_ranges(2, 3);
    }
}
