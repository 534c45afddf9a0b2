//! The three simulator workloads: `paper_matrix`, `contended32`,
//! `scale_xl`. Fixed work per pass, passes repeated for `--seconds`, each
//! request kind's fastest observation reported, every output checked
//! against a digest.

use crate::golden::{Golden, DEFAULT_SEED};
use crate::host;
use crate::json::J;
use crate::outcome::{e2e_metrics, RunOutcome, SimWork, Timed, SETUP_REPEATS};
use crate::sha256;
use crate::span::{self, Recorder, Span};
use crate::stats;
use retcon_htm::{AnyProtocol, RetconTm};
use retcon_lab::checks;
use retcon_lab::engine::record_for;
use retcon_lab::runner::run_jobs_cached;
use retcon_lab::{csv, Dataset, ExperimentRecord, ReportCache, RunKey, RunRecord, SimCache};
use retcon_obs::phase::{self, Phase};
use retcon_sim::{content_hash128, SimConfig, SimReport};
use retcon_workloads::{
    machine_for, machine_for_sized, run_spec_sized, System, Workload, WorkloadSpec,
};
use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

/// A pass's outputs reduced to what the checks and metrics need.
pub struct Digested {
    /// `(label, digest)` per output, in production order.
    pub digests: Vec<(String, String)>,
    /// Simulation results asked for in one pass.
    pub requests: u64,
    /// Simulated work of the pass's *distinct* simulations.
    pub work: SimWork,
}

pub trait SimWorkload: Sized {
    const NAME: &'static str;
    type Raw;

    /// Everything before the first timed operation.
    fn setup(seed: u64) -> Result<Self, String>;

    /// One pass through the layers' public entry points; one latency
    /// sample per request kind, in the same order on every pass.
    fn pass(&self, lat_us: &mut Vec<f64>) -> Result<Self::Raw, String>;

    /// The same work with a span around each layer call.
    fn traced_pass(&self, rec: &mut Recorder, op: u64) -> Result<Self::Raw, String>;

    /// Untimed reduction of a pass's outputs.
    fn digest(&self, raw: &Self::Raw) -> Digested;

    /// Untimed checks beyond digest equality: `(checked, failures)`.
    fn invariants(&self, raw: &Self::Raw) -> (u64, Vec<String>);

    /// Whether the golden digests apply at `seed`.
    fn golden_applies(seed: u64) -> bool {
        seed == DEFAULT_SEED
    }

    /// The `retcon-lab` metrics only a pass over the paper's matrix has
    /// (see [`LAB_MATRIX_METRICS`]); elsewhere nothing is evaluated and
    /// they read 0.
    fn lab_matrix_metrics(_raw: &Self::Raw, _digested: &Digested) -> [f64; 4] {
        [0.0; 4]
    }
}

/// Names of the values [`SimWorkload::lab_matrix_metrics`] returns.
pub const LAB_MATRIX_METRICS: [&str; 4] = [
    "lab.cache_hit_ratio",
    "lab.retcon_speedup_geomean",
    "lab.paper_checks_evaluated",
    "lab.paper_checks_failed",
];

fn report_digest(report: &SimReport) -> String {
    format!(
        "{:032x}",
        content_hash128(report.to_json().to_string().as_bytes())
    )
}

fn digest_reports(runs: &[(String, SimReport)]) -> Digested {
    // Sharded and serial runs of one configuration are one simulation.
    let mut seen = HashSet::new();
    let mut work = SimWork::default();
    for (label, report) in runs {
        let config = label.rsplit_once('/').map_or(label.as_str(), |(c, _)| c);
        if seen.insert(config.to_string()) {
            work.add(report);
        }
    }
    Digested {
        digests: runs
            .iter()
            .map(|(label, report)| (label.clone(), report_digest(report)))
            .collect(),
        requests: runs.len() as u64,
        work,
    }
}

// ---------------------------------------------------------------- paper_matrix

/// One pass = what `retcon-lab all --jobs 1` does, minus the file writes.
pub struct PaperMatrix;

pub struct Artefact {
    pub dataset: Dataset,
    pub record: ExperimentRecord,
    pub json: String,
    pub csv: String,
}

impl PaperMatrix {
    /// The paper's headline: geomean over the fig9 workloads at 32
    /// cores of sequential cycles ÷ RetCon cycles (simulated time).
    fn retcon_speedup_geomean(raw: &[Artefact]) -> f64 {
        let speedups: Vec<f64> = raw
            .iter()
            .filter(|a| a.dataset == Dataset::Fig9)
            .flat_map(|a| &a.record.runs)
            .filter(|r| r.system == System::Retcon.label() && r.cores == retcon_lab::CORES as u64)
            .filter_map(|r| r.speedup())
            .collect();
        stats::geomean(&speedups)
    }

    /// `(evaluated, failure messages)` of the lab's full paper-shape
    /// checks on this pass's records.
    fn paper_checks(raw: &[Artefact]) -> (u64, Vec<String>) {
        let records: BTreeMap<String, ExperimentRecord> = raw
            .iter()
            .map(|a| (a.dataset.name().to_string(), a.record.clone()))
            .collect();
        let outcomes = checks::run_checks(&checks::full_checks(), &records);
        let failures = outcomes
            .iter()
            .filter(|o| !o.passed)
            .map(|o| format!("paper check {} [{}]: {}", o.name, o.dataset, o.detail))
            .collect();
        (outcomes.len() as u64, failures)
    }
}

/// The lab's report cache behind its public `SimCache` seam, timing each
/// simulation from its failed lookup to its insert. One worker only: the
/// runner then looks up, simulates and inserts one key at a time.
#[derive(Default)]
struct TimingCache {
    reports: ReportCache,
    miss_at: Mutex<Option<Instant>>,
    sim_us: Mutex<Vec<f64>>,
}

impl TimingCache {
    /// The simulations timed since the last call, in execution order.
    fn take_sim_us(&self) -> Vec<f64> {
        std::mem::take(&mut self.sim_us.lock().expect("no panic while timing"))
    }
}

impl SimCache for TimingCache {
    fn lookup(&self, key: &RunKey) -> Option<SimReport> {
        let t = Instant::now();
        let hit = self.reports.lookup(key);
        if hit.is_none() {
            *self.miss_at.lock().expect("no panic while timing") = Some(t);
        }
        hit
    }

    fn insert(&self, key: &RunKey, report: &SimReport, cost_micros: u64) {
        self.reports.insert(key, report, cost_micros);
        let miss_at = self.miss_at.lock().expect("no panic while timing").take();
        if let Some(t) = miss_at {
            let us = t.elapsed().as_secs_f64() * 1e6;
            self.sim_us.lock().expect("no panic while timing").push(us);
        }
    }
}

/// A dataset's record from its runs in job order: what the lab's private
/// `datasets::wire_baselines` and `collect_cached` do after the runner.
fn record_from_runs(dataset: Dataset, mut runs: Vec<RunRecord>) -> ExperimentRecord {
    // Each workload's 1-core eager run is its sequential baseline.
    let baselines: BTreeMap<String, u64> = runs
        .iter()
        .filter(|r| r.system == System::Eager.label() && r.cores == 1)
        .map(|r| (r.workload.clone(), r.report.cycles))
        .collect();
    for run in &mut runs {
        if let Some(&seq) = baselines.get(&run.workload) {
            run.seq_cycles = seq;
        }
    }
    ExperimentRecord {
        name: dataset.name().to_string(),
        seed: retcon_lab::SEED,
        meta: Vec::new(),
        runs,
    }
}

impl SimWorkload for PaperMatrix {
    const NAME: &'static str = "paper_matrix";
    type Raw = Vec<Artefact>;

    fn setup(_seed: u64) -> Result<Self, String> {
        // Warm the allocator and page tables on the smallest dataset
        // that simulates at 32 cores, so the first timed pass is not the
        // slow one. (A full warm-up pass would triple set-up's cost.)
        let record = Dataset::Fig1
            .collect_cached(1, &ReportCache::new())
            .map_err(|e| e.to_string())?;
        std::hint::black_box((record.to_json_string(), csv::to_csv(&record)?));
        Ok(PaperMatrix)
    }

    /// The paper's matrix is one fixed input (the lab pins seed 42), so
    /// its golden digests hold whatever `--seed` says.
    fn golden_applies(_seed: u64) -> bool {
        true
    }

    /// Per dataset, the lab's own serial runner over the dataset's jobs
    /// (what `collect_cached(1, …)` does), with the report cache behind
    /// a [`TimingCache`] so that every simulation is a request kind of
    /// its own: with twelve dataset-sized kinds, one of them 2 s long, a
    /// run's two or three passes rarely hold an undisturbed observation
    /// of each. What a dataset costs besides its simulations (cache
    /// hits, record assembly, both renderings) is its last kind.
    fn pass(&self, lat_us: &mut Vec<f64>) -> Result<Self::Raw, String> {
        let cache = TimingCache::default();
        let mut out = Vec::with_capacity(Dataset::ALL.len());
        for dataset in Dataset::ALL {
            let t = Instant::now();
            let first_sim = lat_us.len();
            let jobs = dataset.jobs();
            let record = if jobs.is_empty() {
                dataset.collect_cached(1, &cache.reports)
            } else {
                run_jobs_cached(&jobs, 1, &cache).map(|runs| record_from_runs(dataset, runs))
            }
            .map_err(|e| format!("{}: {e}", dataset.name()))?;
            let json = record.to_json_string();
            let csv = csv::to_csv(&record)?;
            let wall_us = t.elapsed().as_secs_f64() * 1e6;
            lat_us.append(&mut cache.take_sim_us());
            let sims_us: f64 = lat_us[first_sim..].iter().sum();
            lat_us.push(wall_us - sims_us);
            out.push(Artefact {
                dataset,
                record,
                json,
                csv,
            });
        }
        Ok(out)
    }

    /// Walks `Dataset::jobs()` itself — the lab's `collect_cached` →
    /// `run_jobs_cached` → `engine::simulate` chain unrolled so each
    /// layer call gets its own span. The artefact digests must equal the
    /// untraced pass's, which proves this does the same work.
    fn traced_pass(&self, rec: &mut Recorder, op: u64) -> Result<Self::Raw, String> {
        let cache = ReportCache::new();
        let mut out = Vec::with_capacity(Dataset::ALL.len());
        for dataset in Dataset::ALL {
            let artefact = rec.span(
                &format!("lab.dataset.{}", dataset.name()),
                op,
                |rec| -> Result<Artefact, String> {
                    let jobs = dataset.jobs();
                    let record = if jobs.is_empty() {
                        rec.span("lab.static_table", op, |_| {
                            dataset.collect_cached(1, &cache)
                        })
                        .map_err(|e| e.to_string())?
                    } else {
                        let mut runs = Vec::with_capacity(jobs.len());
                        for job in &jobs {
                            let key = job.key();
                            let hit = rec.span("lab.cache_lookup", op, |_| cache.lookup(&key));
                            let report = match hit {
                                Some(report) => report,
                                None => {
                                    let t = Instant::now();
                                    let spec = rec.span("workloads.build", op, |_| {
                                        key.workload.build(key.cores, key.seed)
                                    });
                                    let mut machine = rec.span("sim.machine_new", op, |_| {
                                        let protocol: AnyProtocol = match key.cfg {
                                            Some(cfg) => RetconTm::new(key.cores, cfg).into(),
                                            None => key.system.protocol(key.cores),
                                        };
                                        machine_for(
                                            &spec,
                                            protocol,
                                            SimConfig::with_cores(key.cores),
                                        )
                                    });
                                    let report = rec
                                        .span("sim.run", op, |_| machine.run())
                                        .map_err(|e| format!("{}: {e}", dataset.name()))?;
                                    rec.span("sim.machine_drop", op, |_| drop((machine, spec)));
                                    let micros = t.elapsed().as_micros() as u64;
                                    rec.span("lab.cache_insert", op, |_| {
                                        cache.insert(&key, &report, micros);
                                    });
                                    report
                                }
                            };
                            let mut run =
                                rec.span("lab.record_for", op, |_| record_for(&key, report));
                            run.knobs.clone_from(&job.knobs);
                            runs.push(run);
                        }
                        record_from_runs(dataset, runs)
                    };
                    let json = rec.span("lab.to_json", op, |_| record.to_json_string());
                    let csv = rec.span("lab.to_csv", op, |_| csv::to_csv(&record))?;
                    Ok(Artefact {
                        dataset,
                        record,
                        json,
                        csv,
                    })
                },
            )?;
            out.push(artefact);
        }
        Ok(out)
    }

    fn digest(&self, raw: &Self::Raw) -> Digested {
        let mut digests = Vec::with_capacity(raw.len() * 2);
        let mut seen = HashSet::new();
        let mut requests = 0;
        let mut work = SimWork::default();
        for a in raw {
            let name = a.dataset.name();
            digests.push((
                format!("{name}.json"),
                sha256::hex_digest(a.json.as_bytes()),
            ));
            digests.push((format!("{name}.csv"), sha256::hex_digest(a.csv.as_bytes())));
            requests += a.record.runs.len() as u64;
            // Records are in job order; datasets overlap (fig10 ⊂ fig9),
            // so count each distinct simulation once.
            for (job, run) in a.dataset.jobs().iter().zip(&a.record.runs) {
                if seen.insert(job.key().content_hash()) {
                    work.add(&run.report);
                }
            }
        }
        Digested {
            digests,
            requests,
            work,
        }
    }

    fn invariants(&self, raw: &Self::Raw) -> (u64, Vec<String>) {
        PaperMatrix::paper_checks(raw)
    }

    fn lab_matrix_metrics(raw: &Self::Raw, digested: &Digested) -> [f64; 4] {
        let (evaluated, failures) = PaperMatrix::paper_checks(raw);
        [
            // Records delivered per distinct simulation: what the shared
            // report cache saves.
            digested.requests as f64 / digested.work.results as f64,
            PaperMatrix::retcon_speedup_geomean(raw),
            evaluated as f64,
            failures.len() as f64,
        ]
    }
}

// ---------------------------------------------------------------- contended32

/// One pass = unoptimized `python` at 32 cores under all seven systems.
pub struct Contended32 {
    spec: WorkloadSpec,
}

const CONTENDED_CORES: usize = 32;

impl SimWorkload for Contended32 {
    const NAME: &'static str = "contended32";
    type Raw = Vec<(String, SimReport)>;

    fn setup(seed: u64) -> Result<Self, String> {
        let spec = Workload::Python { optimized: false }.build(CONTENDED_CORES, seed);
        // Warm-up: one run under the protocol with the largest state.
        run_spec_sized(&spec, System::Retcon, CONTENDED_CORES, 1).map_err(|e| e.to_string())?;
        Ok(Contended32 { spec })
    }

    fn pass(&self, lat_us: &mut Vec<f64>) -> Result<Self::Raw, String> {
        System::ALL
            .into_iter()
            .map(|system| {
                let t = Instant::now();
                let report = run_spec_sized(&self.spec, system, CONTENDED_CORES, 1)
                    .map_err(|e| format!("{}: {e}", system.label()))?;
                lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                Ok((run_label("python", system, CONTENDED_CORES, false), report))
            })
            .collect()
    }

    fn traced_pass(&self, rec: &mut Recorder, op: u64) -> Result<Self::Raw, String> {
        System::ALL
            .into_iter()
            .map(|system| {
                let report = traced_run(rec, op, &self.spec, system, CONTENDED_CORES, 1)?;
                Ok((run_label("python", system, CONTENDED_CORES, false), report))
            })
            .collect()
    }

    fn digest(&self, raw: &Self::Raw) -> Digested {
        digest_reports(raw)
    }

    /// Every protocol must commit each transaction exactly once, so the
    /// commit count is the same under all seven — at any seed.
    fn invariants(&self, raw: &Self::Raw) -> (u64, Vec<String>) {
        let commits = raw[0].1.protocol.commits;
        let failures = raw
            .iter()
            .filter(|(_, r)| r.protocol.commits != commits)
            .map(|(label, r)| {
                format!(
                    "{label}: {} commits, {} has {commits}",
                    r.protocol.commits, raw[0].0
                )
            })
            .collect();
        (raw.len() as u64, failures)
    }
}

// ------------------------------------------------------------------- scale_xl

/// One pass = `scaling_xl` through every multi-word `CoreSet` size class
/// (2/4/8/16 words) serially, then twice at 1024 cores sharded.
pub struct ScaleXl {
    specs: Vec<(usize, WorkloadSpec)>,
    shards: usize,
}

/// `(cores, system, sharded?)` in pass order.
const XL_PLAN: [(usize, System, bool); 6] = [
    (128, System::Eager, false),
    (256, System::Eager, false),
    (512, System::LazyVb, false),
    (1024, System::Retcon, false),
    (1024, System::Retcon, true),
    (1024, System::LazyVb, true),
];

impl ScaleXl {
    fn spec(&self, cores: usize) -> &WorkloadSpec {
        &self
            .specs
            .iter()
            .find(|(n, _)| *n == cores)
            .expect("every planned core count is built in setup")
            .1
    }

    fn shards_for(&self, sharded: bool) -> usize {
        if sharded {
            self.shards
        } else {
            1
        }
    }
}

impl SimWorkload for ScaleXl {
    const NAME: &'static str = "scale_xl";
    type Raw = Vec<(String, SimReport)>;

    fn setup(seed: u64) -> Result<Self, String> {
        let specs: Vec<(usize, WorkloadSpec)> = [128, 256, 512, 1024]
            .into_iter()
            .map(|n| (n, Workload::ScalingXl.build(n, seed)))
            .collect();
        run_spec_sized(&specs[0].1, System::Eager, 128, 1).map_err(|e| e.to_string())?;
        Ok(ScaleXl {
            specs,
            // Two shards are two host threads: never more than the
            // load-generation cap.
            shards: host::load_threads(),
        })
    }

    fn pass(&self, lat_us: &mut Vec<f64>) -> Result<Self::Raw, String> {
        XL_PLAN
            .into_iter()
            .map(|(cores, system, sharded)| {
                let t = Instant::now();
                let report =
                    run_spec_sized(self.spec(cores), system, cores, self.shards_for(sharded))
                        .map_err(|e| format!("{}@{cores}: {e}", system.label()))?;
                lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                Ok((run_label("scaling_xl", system, cores, sharded), report))
            })
            .collect()
    }

    fn traced_pass(&self, rec: &mut Recorder, op: u64) -> Result<Self::Raw, String> {
        XL_PLAN
            .into_iter()
            .map(|(cores, system, sharded)| {
                let shards = self.shards_for(sharded);
                let report = traced_run(rec, op, self.spec(cores), system, cores, shards)?;
                Ok((run_label("scaling_xl", system, cores, sharded), report))
            })
            .collect()
    }

    fn digest(&self, raw: &Self::Raw) -> Digested {
        digest_reports(raw)
    }

    /// Sharded execution must be invisible: the 1024-core RetCon report
    /// is the same bytes serial and sharded.
    fn invariants(&self, raw: &Self::Raw) -> (u64, Vec<String>) {
        let (serial, sharded) = (&raw[3], &raw[4]);
        let failures = if serial.1 == sharded.1 {
            Vec::new()
        } else {
            vec![format!("{} differs from {}", sharded.0, serial.0)]
        };
        (1, failures)
    }
}

/// `workload/system/cores/mode`. The mode says `sharded`, not the shard
/// count, so the golden file does not depend on the host's thread count.
fn run_label(workload: &str, system: System, cores: usize, sharded: bool) -> String {
    let mode = if sharded { "sharded" } else { "serial" };
    format!("{workload}/{}/{cores}/{mode}", system.label())
}

/// One simulation with spans around machine construction, the run and
/// the teardown, at whatever `CoreSet` size class `cores` needs. Sharded
/// runs go through `run_spec_sized` whole: its shard fan-out is private.
fn traced_run(
    rec: &mut Recorder,
    op: u64,
    spec: &WorkloadSpec,
    system: System,
    cores: usize,
    shards: usize,
) -> Result<SimReport, String> {
    if shards > 1 {
        return rec
            .span("workloads.run_sharded", op, |_| {
                run_spec_sized(spec, system, cores, shards)
            })
            .map_err(|e| format!("{}@{cores}: {e}", system.label()));
    }
    fn sized<const N: usize>(
        rec: &mut Recorder,
        op: u64,
        spec: &WorkloadSpec,
        system: System,
        cores: usize,
    ) -> Result<SimReport, String> {
        let mut machine = rec.span("sim.machine_new", op, |_| {
            machine_for_sized::<N>(
                spec,
                system.protocol_sized::<N>(cores),
                SimConfig::with_cores(cores),
            )
        });
        let report = rec.span("sim.run", op, |_| machine.run());
        rec.span("sim.machine_drop", op, |_| drop(machine));
        report.map_err(|e| format!("{}@{cores}: {e}", system.label()))
    }
    match cores {
        0..=64 => sized::<1>(rec, op, spec, system, cores),
        65..=128 => sized::<2>(rec, op, spec, system, cores),
        129..=256 => sized::<4>(rec, op, spec, system, cores),
        257..=512 => sized::<8>(rec, op, spec, system, cores),
        _ => sized::<16>(rec, op, spec, system, cores),
    }
}

// -------------------------------------------------------------------- drivers

/// Checks one pass: golden digests where they apply, identity with the
/// first pass otherwise, plus the workload's own invariants.
fn check_pass<W: SimWorkload>(
    w: &W,
    seed: u64,
    raw: &W::Raw,
    first: &mut Option<Vec<(String, String)>>,
    out: &mut RunOutcome,
) -> Digested {
    let d = w.digest(raw);
    let failures = if W::golden_applies(seed) {
        Golden::for_workload(W::NAME).mismatches(&d.digests)
    } else {
        match first {
            Some(first) => first
                .iter()
                .zip(&d.digests)
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("{}: digest {} but first pass gave {}", b.0, b.1, a.1))
                .collect(),
            None => Vec::new(),
        }
    };
    out.check(d.digests.len() as u64, failures);
    let (checked, failures) = w.invariants(raw);
    out.check(checked, failures);
    if first.is_none() {
        *first = Some(d.digests.clone());
    }
    d
}

fn setup_repeated<W: SimWorkload>(seed: u64) -> Result<(W, Vec<f64>), String> {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        workload = Some(W::setup(seed)?);
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok((workload.expect("SETUP_REPEATS > 0"), samples))
}

/// The untraced run: passes repeat until `seconds` of timed work (to the
/// nearest pass, at least two).
///
/// Host interference on a shared machine only ever adds time, in bursts
/// of seconds, so the *fastest* observation is the least disturbed one
/// and is what a change to the code moves: each request kind's latency
/// is its fastest observation over the passes, and throughput is the
/// pass's work over the sum of those. The median pass and every raw
/// sample stay in the result file.
pub fn run_e2e<W: SimWorkload>(seed: u64, seconds: f64) -> Result<RunOutcome, String> {
    let mut out = RunOutcome::default();
    let (w, setup_s) = setup_repeated::<W>(seed)?;
    let mut pass_s = Vec::new();
    let mut lat_by_pass: Vec<Vec<f64>> = Vec::new();
    let mut first = None;
    let mut counts = None;
    loop {
        let mut lat_us = Vec::new();
        let t = Instant::now();
        let raw = w.pass(&mut lat_us);
        let elapsed = t.elapsed().as_secs_f64();
        match raw {
            Ok(raw) => {
                let d = check_pass(&w, seed, &raw, &mut first, &mut out);
                counts = Some((d.requests, d.work));
                pass_s.push(elapsed);
                lat_by_pass.push(lat_us);
            }
            Err(e) => out.fail_all(Golden::for_workload(W::NAME).len() as u64, e),
        }
        let spent: f64 = pass_s.iter().sum();
        // At least two passes, unless one alone overran the budget twice
        // over (`--smoke` on the six-second `paper_matrix` pass).
        let enough = (pass_s.len() >= 2 || spent >= 2.0 * seconds)
            && spent + stats::median(&pass_s) / 2.0 >= seconds;
        // A workload that cannot complete a pass must not loop forever.
        if enough || (pass_s.is_empty() && out.failed > 0) {
            break;
        }
    }
    let (requests, work) =
        counts.ok_or_else(|| format!("no pass completed: {:?}", out.failures))?;
    let kinds = lat_by_pass[0].len();
    let fastest_by_kind: Vec<f64> = (0..kinds)
        .map(|k| {
            lat_by_pass
                .iter()
                .map(|pass| pass[k])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    out.note("passes", J::Num(pass_s.len() as f64));
    out.note("pass_s", J::nums(&pass_s));
    out.note("median_pass_s", J::Num(stats::median(&pass_s)));
    out.note("requests_per_pass", J::Num(requests as f64));
    out.note("instructions_per_pass", J::Num(work.instructions as f64));
    out.note("cycles_per_pass", J::Num(work.cycles as f64));
    e2e_metrics(
        &Timed {
            setup_s,
            // The undisturbed pass: each kind's fastest time, summed.
            host_s: fastest_by_kind.iter().sum::<f64>() / 1e6,
            lat_us: fastest_by_kind,
            lat_raw_us: lat_by_pass.concat(),
            requests: requests as f64,
            work,
        },
        &mut out,
    );
    Ok(out)
}

/// What a traced run hands back besides its outcome.
pub struct Traced<R> {
    pub out: RunOutcome,
    pub spans: Vec<Span>,
    /// Wall seconds of the untraced reference pass and the traced pass.
    pub untraced_s: f64,
    pub traced_s: f64,
    /// Seconds of the untraced pass the lab's own process-global phase
    /// accumulator charged to `engine::simulate` (spec build included).
    pub lab_simulate_s: f64,
    /// Outputs and exact counts of the traced pass.
    pub raw: R,
    pub digested: Digested,
}

/// The traced run: one untraced reference pass, then one pass with the
/// span recorder on; both are checked like any other pass, so the traced
/// path is proven to produce the same bytes.
pub fn run_traced<W: SimWorkload>(seed: u64) -> Result<Traced<W::Raw>, String> {
    let mut out = RunOutcome::default();
    let w = W::setup(seed)?;
    let mut first = None;
    let before = phase::snapshot();
    let t = Instant::now();
    let raw = w.pass(&mut Vec::new())?;
    let untraced_s = t.elapsed().as_secs_f64();
    let lab_simulate_s =
        phase::delta(&before, &phase::snapshot())[Phase::Simulate as usize].micros as f64 / 1e6;
    check_pass(&w, seed, &raw, &mut first, &mut out);

    let mut rec = Recorder::new(Instant::now(), 0);
    let t = Instant::now();
    let raw = rec.span("pass", 1, |rec| w.traced_pass(rec, 1))?;
    let traced_s = t.elapsed().as_secs_f64();
    // `first` is set, so at a non-default seed this compares the traced
    // pass with the untraced one; at the default seed both meet golden.
    let digested = check_pass(&w, seed, &raw, &mut first, &mut out);
    Ok(Traced {
        out,
        spans: rec.into_spans(),
        untraced_s,
        traced_s,
        lab_simulate_s,
        raw,
        digested,
    })
}

/// `bless`: the digests of one fresh pass at the default seed.
pub fn bless<W: SimWorkload>() -> Result<String, String> {
    let w = W::setup(DEFAULT_SEED)?;
    let raw = w.pass(&mut Vec::new())?;
    let (_, failures) = w.invariants(&raw);
    if !failures.is_empty() {
        return Err(format!("refusing to bless a failing pass: {failures:?}"));
    }
    Ok(crate::golden::render(&w.digest(&raw).digests))
}

/// Share of the traced pass's wall time inside layer spans (everything
/// but the root `pass` span and the per-dataset grouping spans' own
/// time): how much of the pass the per-layer table accounts for.
pub fn attributed_share(spans: &[Span]) -> f64 {
    let own = span::self_times_ns(spans);
    let root: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let grouping: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "pass" || s.name.starts_with("lab.dataset."))
        .map(|(_, own)| *own)
        .sum();
    if root == 0 {
        return 0.0;
    }
    (root - grouping.min(root)) as f64 / root as f64
}
