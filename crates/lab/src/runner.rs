//! Job-parallel experiment execution.
//!
//! Every simulation in this workspace is a pure, deterministic function of
//! `(workload, system, cores, seed, config)` — see `tests/determinism.rs`.
//! The runner exploits that: a [`Job`] list is fanned out across N worker
//! threads pulling from a shared cursor, and each result is written into
//! the slot of its job's *index*, so the returned record vector is
//! **bit-identical to serial execution** at any worker count (the
//! root-level determinism suite pins `--jobs 1/4/8` byte-equality).
//!
//! Execution and caching live in [`crate::engine`], which the
//! `retcon-serve` daemon shares; this module owns only the job list →
//! record list fan-out.

use crate::engine::{record_for, simulate, RunKey, SimCache};
use crate::record::RunRecord;
use retcon::RetconConfig;
use retcon_obs::pool::ordered_map;
use retcon_sim::SimError;
use retcon_workloads::{System, Workload};
use std::time::Instant;

pub use crate::engine::ReportCache;

/// One simulation to run: the full experiment context — a [`RunKey`]
/// plus the display-only knob labels recorded alongside the run.
#[derive(Debug, Clone)]
pub struct Job {
    /// The simulation inputs this job's report is a pure function of.
    pub key: RunKey,
    /// Knob labels recorded alongside the run (e.g. `("ivb", "4")`).
    /// Deliberately NOT part of the simulation key — two sweep points
    /// whose configs coincide share one simulation.
    pub knobs: Vec<(String, String)>,
}

impl Job {
    /// A plain run of `workload` under `system`.
    pub fn new(workload: Workload, system: System, cores: usize, seed: u64) -> Job {
        Job {
            key: RunKey::new(workload, system, cores, seed),
            knobs: Vec::new(),
        }
    }

    /// A RETCON run with an explicit configuration and its knob labels:
    /// the protocol is a [`retcon_htm::RetconTm`] under `cfg`.
    pub fn with_cfg(
        workload: Workload,
        cores: usize,
        seed: u64,
        cfg: RetconConfig,
        knobs: Vec<(String, String)>,
    ) -> Job {
        Job {
            key: RunKey {
                cfg: Some(cfg),
                ..RunKey::new(workload, System::Retcon, cores, seed)
            },
            knobs,
        }
    }

    /// The simulation inputs this job's report is a pure function of.
    pub fn key(&self) -> RunKey {
        self.key.clone()
    }
}

fn record_from(job: &Job, report: retcon_sim::SimReport) -> RunRecord {
    let mut record = record_for(&job.key, report);
    record.knobs = job.knobs.clone();
    record
}

fn execute_cached(job: &Job, cache: &dyn SimCache) -> Result<RunRecord, SimError> {
    let key = &job.key;
    let report = match cache.lookup(key) {
        Some(report) => report,
        None => {
            // Simulate outside any cache lock: sims run for milliseconds
            // to seconds and must not serialize the worker pool.
            let t = Instant::now();
            let report = simulate(key)?;
            let micros = t.elapsed().as_micros() as u64;
            retcon_obs::phase::add(retcon_obs::phase::Phase::Simulate, micros);
            cache.insert(key, &report, micros);
            report
        }
    };
    Ok(record_from(job, report))
}

/// Executes one job. Pure: same job, same record.
///
/// `seq_cycles` is left 0 — baseline wiring is a dataset-assembly concern
/// (see [`crate::datasets`]).
///
/// # Errors
///
/// Propagates [`SimError`] (cycle-limit or validation failures — both
/// indicate workload bugs, so callers treat them as fatal).
pub fn execute(job: &Job) -> Result<RunRecord, SimError> {
    Ok(record_from(job, simulate(&job.key)?))
}

/// Runs every job, fanning out across `workers` threads (`<= 1` means
/// serial), and returns the records **in job order**.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing job; later results are
/// discarded.
pub fn run_jobs(jobs: &[Job], workers: usize) -> Result<Vec<RunRecord>, SimError> {
    run_jobs_cached(jobs, workers, &ReportCache::new())
}

/// [`run_jobs`] with an externally-owned [`SimCache`], so repeated
/// simulations are shared across job lists (and within one — duplicate
/// entries in `jobs` hit the memo too). The lab passes a [`ReportCache`];
/// the serving stack's warm path runs through a
/// [`ResultStore`](crate::engine::ResultStore).
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing job; later results are
/// discarded.
pub fn run_jobs_cached(
    jobs: &[Job],
    workers: usize,
    cache: &dyn SimCache,
) -> Result<Vec<RunRecord>, SimError> {
    ordered_map(jobs, workers, |job| execute_cached(job, cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimCache;

    fn small_jobs() -> Vec<Job> {
        vec![
            Job::new(Workload::Counter, System::Retcon, 2, 42),
            Job::new(Workload::Counter, System::Eager, 1, 42),
            Job::new(Workload::Counter, System::Datm, 2, 42),
            Job::with_cfg(
                Workload::Counter,
                2,
                42,
                RetconConfig {
                    ivb_capacity: 4,
                    ..RetconConfig::default()
                },
                vec![("ivb".to_string(), "4".to_string())],
            ),
        ]
    }

    #[test]
    fn parallel_order_matches_serial() {
        let jobs = small_jobs();
        let serial = run_jobs(&jobs, 1).unwrap();
        let parallel = run_jobs(&jobs, 4).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial[0].system, "RetCon");
        assert_eq!(serial[3].knob("ivb"), Some("4"));
    }

    #[test]
    fn execute_fills_context() {
        let record = execute(&Job::new(Workload::Counter, System::Lazy, 2, 7)).unwrap();
        assert_eq!(record.workload, "counter");
        assert_eq!(record.system, "lazy");
        assert_eq!(record.cores, 2);
        assert_eq!(record.seed, 7);
        assert_eq!(record.seq_cycles, 0);
        assert!(record.report.protocol.commits > 0);
    }

    #[test]
    fn cache_is_transparent_and_keyed_on_sim_inputs_only() {
        let cache = ReportCache::new();
        let job = Job::new(Workload::Counter, System::Retcon, 2, 42);
        let fresh = run_jobs(std::slice::from_ref(&job), 1).unwrap();
        let first = run_jobs_cached(std::slice::from_ref(&job), 1, &cache).unwrap();
        let second = run_jobs_cached(std::slice::from_ref(&job), 1, &cache).unwrap();
        assert_eq!(fresh, first);
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);

        // Same simulation inputs, different knob labels: one sim, two
        // records that differ only in their knobs.
        let mut labelled = job;
        labelled.knobs = vec![("ivb".to_string(), "16".to_string())];
        let third = run_jobs_cached(&[labelled], 1, &cache).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(third[0].report, first[0].report);
        assert_eq!(third[0].knob("ivb"), Some("16"));
    }

    #[test]
    fn result_store_serves_the_runner_byte_identically() {
        // The daemon-shaped cache drops into the same runner seam: records
        // through a ResultStore equal records through a ReportCache equal
        // uncached records.
        let jobs = small_jobs();
        let plain = run_jobs(&jobs, 1).unwrap();
        let store = crate::engine::ResultStore::new(1 << 20);
        let cold = run_jobs_cached(&jobs, 1, &store).unwrap();
        let warm = run_jobs_cached(&jobs, 4, &store).unwrap();
        assert_eq!(plain, cold);
        assert_eq!(plain, warm);
        // The explicit-default-cfg job (`ivb` knob is a *non*-default cfg)
        // missed; the three plain runs hit on the warm pass.
        assert!(store.stats().hits >= 3);
        let key = jobs[0].key();
        assert!(store.lookup(&key).is_some());
    }
}
