//! The reusable experiment engine shared by the offline lab and the
//! `retcon-serve` daemon.
//!
//! PRs 2–6 built the hard parts of a serving stack inside the lab run
//! path: byte-stable records, a deterministic job-parallel runner, and a
//! cross-dataset report cache. This module lifts those pieces behind a
//! small, shareable surface:
//!
//! * [`RunKey`] — the simulation inputs a report is a pure function of,
//!   with a **canonical byte encoding** and a stable **content hash**
//!   (built on [`retcon_sim::canon`]). The invariant the test suite
//!   pins: keys with equal canonical bytes produce byte-identical
//!   records, and the hash is a function of nothing but those bytes.
//! * [`SimCache`] — the cache seam the runner executes through. The
//!   lab's in-memory [`ReportCache`] and the daemon's capacity-bounded
//!   [`ResultStore`] both implement it, so offline `all` and the server
//!   share one dedup implementation (a hit returns exactly what a fresh
//!   run would — simulations are deterministic, so caching cannot change
//!   output).
//! * [`simulate`] / [`record_for`] — the pure execution and
//!   record-assembly functions both consumers call.

use crate::record::RunRecord;
use retcon::RetconConfig;
use retcon_sim::canon::{content_hash128, Canon};
use retcon_sim::json::Json;
use retcon_sim::{SimConfig, SimError, SimReport};
use retcon_workloads::{run_spec_opts, RunOptions, System, Workload};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks a mutex, recovering from poison instead of propagating it.
///
/// A poisoned mutex means some thread panicked while holding the lock —
/// in this codebase every guarded structure (caches, stores, queues,
/// waiter tables) is kept consistent *before* any operation that can
/// panic, so the data under a poisoned lock is still valid. Recovering
/// with [`PoisonError::into_inner`] turns "one worker panicked" into a
/// non-event instead of cascading `expect("poisoned")` panics through
/// every thread that touches the lock afterwards — the repair-not-abort
/// rule applied to the serving stack itself.
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The simulation inputs one report is a pure function of.
///
/// This is the unit the serving stack deduplicates on: two requests whose
/// keys canonicalize to the same bytes are one simulation. Display-only
/// context (knob labels, sequential baselines) is deliberately *not* part
/// of the key — see [`crate::runner::Job`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Workload to build.
    pub workload: Workload,
    /// System to run it under.
    pub system: System,
    /// RETCON configuration override (structure-size sweeps); `None`
    /// runs `system`'s default protocol.
    pub cfg: Option<RetconConfig>,
    /// Core count.
    pub cores: usize,
    /// Workload-build seed.
    pub seed: u64,
}

impl RunKey {
    /// A plain run of `workload` under `system`.
    pub fn new(workload: Workload, system: System, cores: usize, seed: u64) -> RunKey {
        RunKey {
            workload,
            system,
            cfg: None,
            cores,
            seed,
        }
    }

    /// The machine configuration this key runs under (the default
    /// Table 1 machine at the key's core count; the lab has never varied
    /// the other knobs, but they are part of the canonical encoding so a
    /// future sweep cannot silently collide).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::with_cores(self.cores)
    }

    /// The key with an explicit-but-default RETCON config normalized
    /// away: `System::Retcon` with `cfg: Some(RetconConfig::default())`
    /// runs the exact same simulation as `cfg: None`, so both forms must
    /// canonicalize (and therefore hash) identically.
    fn normalized_cfg(&self) -> Option<&RetconConfig> {
        match &self.cfg {
            Some(cfg) if self.system == System::Retcon && *cfg == RetconConfig::default() => None,
            other => other.as_ref(),
        }
    }

    /// Writes the key's canonical byte encoding: a versioned tag, the
    /// workload and system labels, the (normalized) RETCON config, the
    /// seed, and the full machine configuration.
    pub fn canonical_encode(&self, c: &mut Canon) {
        c.tag("runkey-v1");
        c.str(self.workload.label());
        c.str(self.system.label());
        match self.normalized_cfg() {
            None => c.bool(false),
            Some(cfg) => {
                c.bool(true);
                c.tag("retconconfig-v1");
                c.usize(cfg.ivb_capacity);
                c.usize(cfg.constraint_capacity);
                c.usize(cfg.ssb_capacity);
                c.bool(cfg.unlimited_state);
                c.bool(cfg.parallel_reacquire);
                c.bool(cfg.free_commit_stores);
                c.u32(cfg.violation_backoff);
                c.u32(cfg.initial_threshold);
            }
        }
        c.u64(self.seed);
        self.sim_config().canonical_encode(c);
    }

    /// The key's canonical bytes (a fresh stream, encoded).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut c = Canon::new();
        self.canonical_encode(&mut c);
        c.finish()
    }

    /// The key's 128-bit content hash — the address of its report in a
    /// [`ResultStore`]. A pure function of [`RunKey::canonical_bytes`].
    pub fn content_hash(&self) -> u128 {
        let mut c = Canon::new();
        self.canonical_encode(&mut c);
        c.content_hash()
    }
}

/// Runs the simulation a key describes (no caching). Pure: same key,
/// same report, byte for byte.
///
/// # Errors
///
/// Propagates [`SimError`] (cycle-limit or validation failures — both
/// indicate workload bugs, so callers treat them as fatal).
pub fn simulate(key: &RunKey) -> Result<SimReport, SimError> {
    let spec = key.workload.build(key.cores, key.seed);
    // Serial: a lab record must never depend on host-thread availability.
    let opts = RunOptions {
        cfg: key.sim_config(),
        retcon: key.cfg,
        shards: 1,
        trace_capacity: None,
    };
    Ok(run_spec_opts(&spec, key.system, &opts)?.0)
}

/// Assembles the record a key + report pair serializes as. Knob labels
/// and sequential baselines are presentation concerns layered on top by
/// the lab's dataset assembly; the serving stack emits records exactly in
/// this form, which is why a served sweep is byte-identical to
/// `run_jobs` over the same keys.
pub fn record_for(key: &RunKey, report: SimReport) -> RunRecord {
    RunRecord {
        workload: key.workload.label().to_string(),
        system: key.system.label().to_string(),
        cores: key.cores as u64,
        seed: key.seed,
        knobs: Vec::new(),
        seq_cycles: 0,
        report,
    }
}

/// The cache seam the runner executes through.
///
/// Implementations must be position-independent (a `lookup` hit returns
/// exactly what [`simulate`] would — deterministic simulations make this
/// free) and thread-safe (the runner's workers and the daemon's pool
/// share one instance).
pub trait SimCache: Sync {
    /// The cached report for `key`, if present.
    fn lookup(&self, key: &RunKey) -> Option<SimReport>;
    /// Stores `report` for `key`. `cost_micros` is the wall-clock the
    /// simulation took — cost-aware stores use it to bias eviction.
    fn insert(&self, key: &RunKey, report: &SimReport, cost_micros: u64);
}

/// The lab's unbounded in-memory memo, shareable across datasets:
/// `fig10`'s job list is a strict subset of `fig9`'s at-scale runs, and
/// `ablation_ideal` repeats `fig9`'s baselines, so `retcon-lab -- all` /
/// `check` would otherwise recompute byte-identical reports.
///
/// Caching cannot change output: simulations are deterministic, so a hit
/// returns exactly what a fresh run would (two workers racing on the same
/// key both compute the same report; last insert wins, harmlessly).
#[derive(Debug, Default)]
pub struct ReportCache {
    reports: Mutex<HashMap<RunKey, SimReport>>,
}

impl ReportCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct simulations memoized.
    pub fn len(&self) -> usize {
        lock_recover(&self.reports).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SimCache for ReportCache {
    fn lookup(&self, key: &RunKey) -> Option<SimReport> {
        lock_recover(&self.reports).get(key).cloned()
    }

    fn insert(&self, key: &RunKey, report: &SimReport, _cost_micros: u64) {
        lock_recover(&self.reports).insert(key.clone(), report.clone());
    }
}

/// What a [`FaultPlan`] tells a spill write to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillFault {
    /// Write normally.
    None,
    /// Simulate an I/O failure: the write is skipped entirely.
    Fail,
    /// Write the file, but with seeded byte damage applied after the
    /// verification hash was computed — a torn/corrupted entry.
    Corrupt,
}

/// What a [`FaultPlan`] tells a response-line write to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineFault {
    /// Write normally.
    None,
    /// Hard-drop the connection before writing (mid-stream disconnect).
    Drop,
    /// Sleep this many milliseconds before writing (slow-client stall).
    Stall(u64),
}

/// A deterministic fault injector for the crash-safety test suites.
///
/// This is a **test-only seam**: production paths run with no plan
/// attached, which reduces every injection point to a skipped `Option`
/// check. Faults are *counter-indexed* — each kind carries the ordinal
/// (0-based) of the operation it strikes, counted on internal atomics —
/// so a test names exactly which spill write fails, which execution
/// panics, or which response line drops, and the run replays
/// deterministically. One-shot faults fire exactly once (the atomic
/// counter passes the ordinal a single time); `panic_on_key` is the one
/// persistent fault, driving the retry-exhaustion → quarantine path.
/// Corruption damage is seeded so a corrupted byte pattern reproduces.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Fail the Nth spill write with a simulated I/O error (no file).
    pub fail_spill_write: Option<u64>,
    /// Corrupt the Nth spill write (file lands, bytes damaged).
    pub corrupt_spill_write: Option<u64>,
    /// Panic inside the Nth worker execution (one-shot; a retry of the
    /// same key is a new execution and succeeds).
    pub panic_on_execution: Option<u64>,
    /// Panic on *every* execution of the key with this content hash
    /// (exhausts the bounded retries and quarantines the key).
    pub panic_on_key: Option<u128>,
    /// Hard-drop the connection right before the Nth response line.
    pub drop_after_line: Option<u64>,
    /// Before the Nth response line, stall for `(n, millis)` — a client
    /// that stops draining its socket.
    pub stall_line: Option<(u64, u64)>,
    /// Seed for the corruption damage pattern.
    pub seed: u64,
    spill_writes: AtomicU64,
    executions: AtomicU64,
    lines: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (injects nothing). Chain the `*_on` builders to arm
    /// specific faults — the counter atomics stay private.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arms a simulated I/O failure on the Nth spill write.
    #[must_use]
    pub fn fail_spill_write_on(mut self, n: u64) -> FaultPlan {
        self.fail_spill_write = Some(n);
        self
    }

    /// Arms seeded byte damage on the Nth spill write.
    #[must_use]
    pub fn corrupt_spill_write_on(mut self, n: u64, seed: u64) -> FaultPlan {
        self.corrupt_spill_write = Some(n);
        self.seed = seed;
        self
    }

    /// Arms a one-shot panic inside the Nth worker execution.
    #[must_use]
    pub fn panic_on_execution_n(mut self, n: u64) -> FaultPlan {
        self.panic_on_execution = Some(n);
        self
    }

    /// Arms a persistent panic on every execution of `hash`.
    #[must_use]
    pub fn panic_on_key_hash(mut self, hash: u128) -> FaultPlan {
        self.panic_on_key = Some(hash);
        self
    }

    /// Arms a hard connection drop before the Nth response line.
    #[must_use]
    pub fn drop_after_line_n(mut self, n: u64) -> FaultPlan {
        self.drop_after_line = Some(n);
        self
    }

    /// Arms a `millis`-long stall before the Nth response line.
    #[must_use]
    pub fn stall_line_n(mut self, n: u64, millis: u64) -> FaultPlan {
        self.stall_line = Some((n, millis));
        self
    }

    /// Draws the fault (if any) for the next spill write.
    pub fn on_spill_write(&self) -> SpillFault {
        let n = self.spill_writes.fetch_add(1, Ordering::AcqRel);
        if self.fail_spill_write == Some(n) {
            SpillFault::Fail
        } else if self.corrupt_spill_write == Some(n) {
            SpillFault::Corrupt
        } else {
            SpillFault::None
        }
    }

    /// Whether the next execution (of the key hashing to `hash`) should
    /// panic.
    pub fn on_execution(&self, hash: u128) -> bool {
        let n = self.executions.fetch_add(1, Ordering::AcqRel);
        self.panic_on_execution == Some(n) || self.panic_on_key == Some(hash)
    }

    /// Draws the fault (if any) for the next response line.
    pub fn on_line(&self) -> LineFault {
        let n = self.lines.fetch_add(1, Ordering::AcqRel);
        if self.drop_after_line == Some(n) {
            LineFault::Drop
        } else if let Some((at, millis)) = self.stall_line {
            if at == n {
                return LineFault::Stall(millis);
            }
            LineFault::None
        } else {
            LineFault::None
        }
    }

    /// Applies seeded damage to `bytes`: even seeds truncate at a
    /// seed-chosen point, odd seeds flip a handful of seed-chosen bytes.
    /// Always changes the content of a non-empty buffer.
    pub fn corrupt(&self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        let mut state = self.seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        if self.seed % 2 == 0 {
            let keep = (next() as usize) % bytes.len();
            bytes.truncate(keep);
        } else {
            for _ in 0..4 {
                let draw = next();
                let idx = (draw as usize) % bytes.len();
                bytes[idx] ^= ((draw >> 32) as u8) | 1;
            }
        }
    }
}

/// A snapshot of a [`ResultStore`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups served by re-reading a spilled record from disk.
    pub spill_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Reports inserted.
    pub insertions: u64,
    /// Resident entries evicted to honor the capacity bound.
    pub evictions: u64,
    /// Entries currently resident in memory.
    pub resident: u64,
    /// Estimated bytes currently resident.
    pub resident_cost: u64,
    /// Spill entries that failed verification (torn, corrupted, or
    /// mis-keyed) and were moved to the quarantine sidecar directory —
    /// never served.
    pub quarantined: u64,
    /// Spill entries verified and re-indexed by [`ResultStore::warm_start`].
    pub recovered_on_boot: u64,
    /// Spill writes that failed (I/O error or injected fault). The result
    /// stays memory-resident; it is only lost to a restart.
    pub spill_write_failures: u64,
    /// Files currently in the spill directory, including the
    /// `quarantine/` sidecar (0 without a spill directory).
    pub spill_files: u64,
    /// Total bytes of those files.
    pub spill_bytes: u64,
}

/// One resident entry: the report plus its recency stamp and cost.
#[derive(Debug)]
struct StoreEntry {
    report: SimReport,
    /// Estimated serialized size — the capacity currency.
    cost: u64,
    /// Wall-clock micros the simulation took (recompute cost).
    sim_micros: u64,
    /// Recency stamp (monotone ticks; larger = newer).
    tick: u64,
}

#[derive(Debug, Default)]
struct StoreInner {
    entries: HashMap<u128, StoreEntry>,
    /// Recency index: tick → hash. Ticks are unique (monotone counter),
    /// so the first entry is always the least recently used.
    lru: BTreeMap<u64, u128>,
    next_tick: u64,
    resident_cost: u64,
    /// Hashes with a verified spill file on disk: everything this store
    /// instance spilled successfully plus everything a
    /// [`ResultStore::warm_start`] scan recovered. Gates the disk read on
    /// a lookup miss so cold misses never touch the filesystem.
    on_disk: HashSet<u128>,
}

/// The daemon's content-addressed result store: reports keyed by
/// [`RunKey::content_hash`], capacity-bounded in estimated bytes with
/// cost-aware LRU eviction, and an optional **durable** on-disk spill so
/// results survive eviction *and* daemon crashes.
///
/// Eviction is LRU with one cost-aware refinement: among the four least
/// recently used entries, the one that was *cheapest to compute* is
/// evicted first — a hot store keeps the reports that are expensive to
/// regenerate (a 32-core `python` run costs ~500 ms; a 1-core `counter`
/// run costs ~1 ms) at a small recency penalty.
///
/// ## Crash safety (the spill contract)
///
/// With a spill directory attached, every insert **writes through** to
/// disk (not just evictions), so a SIGKILL loses nothing that finished.
/// Each spill file is a self-verifying envelope
/// `{"key":"<hash>","check":"<hash>","report":{…}}` where `check` is the
/// content hash of the report's byte-stable compact JSON. Writes go to a
/// temp file and land by atomic rename, so a torn write can never
/// shadow a good entry. Every disk read re-verifies: the filename, the
/// embedded key, and the payload hash must all agree, or the file is
/// moved to the `quarantine/` sidecar directory and **never served** —
/// a corrupt store degrades to re-simulation, not to wrong answers.
/// Verification runs only on the disk path; in-memory hits stay
/// hash-free (the `serve_warm` hot path).
///
/// [`ResultStore::warm_start`] scans the spill directory on boot,
/// verifies every entry once, quarantines failures, and indexes the
/// survivors so a restarted daemon serves prior results as hits.
#[derive(Debug)]
pub struct ResultStore {
    /// Maximum estimated resident bytes before eviction.
    capacity_bytes: u64,
    spill_dir: Option<PathBuf>,
    faults: Option<Arc<FaultPlan>>,
    inner: Mutex<StoreInner>,
    hits: AtomicU64,
    spill_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    quarantined: AtomicU64,
    recovered_on_boot: AtomicU64,
    spill_write_failures: AtomicU64,
    /// Optional spill-write latency sink (micros per landed write); the
    /// daemon attaches its metrics registry's histogram here. Purely
    /// observational — never consulted by any store decision.
    spill_write_hist: Option<Arc<retcon_obs::Log2Hist>>,
}

/// How many least-recently-used candidates the cost-aware eviction
/// considers per eviction.
const EVICT_WINDOW: usize = 4;

impl ResultStore {
    /// An empty store bounded at `capacity_bytes` of estimated resident
    /// report data, with no spill directory.
    pub fn new(capacity_bytes: u64) -> ResultStore {
        ResultStore {
            capacity_bytes,
            spill_dir: None,
            faults: None,
            inner: Mutex::default(),
            hits: AtomicU64::new(0),
            spill_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            recovered_on_boot: AtomicU64::new(0),
            spill_write_failures: AtomicU64::new(0),
            spill_write_hist: None,
        }
    }

    /// Enables durable on-disk spill: every inserted report is written
    /// through to `dir/<hash>.json` as a self-verifying envelope (see the
    /// type docs), survives eviction and process death, and is re-read —
    /// and re-admitted — on a later lookup.
    pub fn with_spill(mut self, dir: PathBuf) -> ResultStore {
        self.spill_dir = Some(dir);
        self
    }

    /// Attaches a deterministic fault injector to the spill path
    /// (test-only; see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> ResultStore {
        self.faults = Some(plan);
        self
    }

    /// Routes spill-write latencies (micros per landed write) into `hist`
    /// — the daemon points this at its metrics registry.
    pub fn with_spill_write_hist(mut self, hist: Arc<retcon_obs::Log2Hist>) -> ResultStore {
        self.spill_write_hist = Some(hist);
        self
    }

    fn spill_path(&self, hash: u128) -> Option<PathBuf> {
        self.spill_dir
            .as_ref()
            .map(|d| d.join(format!("{hash:032x}.json")))
    }

    /// The report stored under `hash`, consulting memory first and the
    /// spill directory second (a verified spill hit re-admits the
    /// report). The in-memory path never touches the filesystem or
    /// re-hashes — hot hits stay hot.
    pub fn lookup_hash(&self, hash: u128) -> Option<SimReport> {
        {
            let mut inner = lock_recover(&self.inner);
            let tick = inner.next_tick;
            if let Some(entry) = inner.entries.get_mut(&hash) {
                let old = entry.tick;
                entry.tick = tick;
                let report = entry.report.clone();
                inner.lru.remove(&old);
                inner.lru.insert(tick, hash);
                inner.next_tick += 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(report);
            }
            if !inner.on_disk.contains(&hash) {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        if let Some(report) = self.spill_read(hash) {
            self.spill_hits.fetch_add(1, Ordering::Relaxed);
            // Re-admit: recently wanted again. Spill micros are unknown
            // post-restart; admit at zero recompute cost (it can be
            // re-read from disk again if evicted). The file is already on
            // disk, so skip the write-through.
            self.admit(hash, &report, 0, false);
            return Some(report);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Reads and fully verifies the spill file for `hash`. Any failure —
    /// unreadable, unparseable, mis-keyed, or a payload whose content
    /// hash does not match its `check` field — quarantines the file and
    /// returns `None`: a record that does not verify is never served.
    fn spill_read(&self, hash: u128) -> Option<SimReport> {
        let path = self.spill_path(hash)?;
        let t = Instant::now();
        let verified = verify_spill_file(hash, &path);
        retcon_obs::phase::add(
            retcon_obs::phase::Phase::SpillRead,
            t.elapsed().as_micros() as u64,
        );
        match verified {
            Ok(report) => Some(report),
            Err(_) => {
                self.quarantine(hash, &path);
                None
            }
        }
    }

    /// Moves a failed spill file into the `quarantine/` sidecar (kept for
    /// post-mortem, never re-read) and drops it from the disk index.
    fn quarantine(&self, hash: u128, path: &Path) {
        lock_recover(&self.inner).on_disk.remove(&hash);
        if let Some(dir) = &self.spill_dir {
            let sidecar = dir.join("quarantine");
            let _ = std::fs::create_dir_all(&sidecar);
            if let Some(name) = path.file_name() {
                let _ = std::fs::rename(path, sidecar.join(name));
            }
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes the spill envelope for `hash` crash-safely: temp file, then
    /// atomic rename — a torn write never lands under the final name.
    /// On success the hash joins the disk index; on failure (real or
    /// injected) the failure is counted and the result stays
    /// memory-resident only.
    fn spill_write(&self, hash: u128, text: &str) {
        let Some(dir) = &self.spill_dir else { return };
        let fault = self
            .faults
            .as_deref()
            .map_or(SpillFault::None, FaultPlan::on_spill_write);
        if fault == SpillFault::Fail {
            self.spill_write_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let check = content_hash128(text.as_bytes());
        let mut bytes =
            format!("{{\"key\":\"{hash:032x}\",\"check\":\"{check:032x}\",\"report\":{text}}}")
                .into_bytes();
        if fault == SpillFault::Corrupt {
            if let Some(plan) = &self.faults {
                plan.corrupt(&mut bytes);
            }
        }
        let tmp = dir.join(format!(".tmp-{hash:032x}-{}", std::process::id()));
        let t = Instant::now();
        let landed = std::fs::write(&tmp, &bytes)
            .and_then(|()| std::fs::rename(&tmp, dir.join(format!("{hash:032x}.json"))));
        let micros = t.elapsed().as_micros() as u64;
        retcon_obs::phase::add(retcon_obs::phase::Phase::SpillWrite, micros);
        match landed {
            Ok(()) => {
                if let Some(hist) = &self.spill_write_hist {
                    hist.observe(micros);
                }
                lock_recover(&self.inner).on_disk.insert(hash);
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
                self.spill_write_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Stores `report` under `hash`, evicting as needed and writing
    /// through to the spill directory (durability — see the type docs).
    pub fn insert_hash(&self, hash: u128, report: &SimReport, sim_micros: u64) {
        self.admit(hash, report, sim_micros, true);
    }

    fn admit(&self, hash: u128, report: &SimReport, sim_micros: u64, write_spill: bool) {
        let text = report.to_json().to_string();
        let cost = text.len() as u64;
        {
            let mut inner = lock_recover(&self.inner);
            if inner.entries.contains_key(&hash) {
                return; // Racing insert of the same content: keep the first.
            }
            self.insertions.fetch_add(1, Ordering::Relaxed);
            let tick = inner.next_tick;
            inner.next_tick += 1;
            inner.entries.insert(
                hash,
                StoreEntry {
                    report: report.clone(),
                    cost,
                    sim_micros,
                    tick,
                },
            );
            inner.lru.insert(tick, hash);
            inner.resident_cost += cost;
            // Evict until within capacity (never the entry just inserted —
            // it is the newest, and the window only sees the oldest four
            // unless the store has shrunk to that size; guard explicitly).
            // Spill is write-through, so eviction only drops memory: the
            // victim's file (if its write succeeded) is already on disk.
            while inner.resident_cost > self.capacity_bytes && inner.entries.len() > 1 {
                let victim = {
                    let candidates: Vec<u128> = inner
                        .lru
                        .values()
                        .copied()
                        .filter(|h| *h != hash)
                        .take(EVICT_WINDOW)
                        .collect();
                    // Cheapest-to-recompute among the oldest few.
                    candidates
                        .into_iter()
                        .min_by_key(|h| inner.entries[h].sim_micros)
                        .expect("entries.len() > 1 guarantees a candidate")
                };
                let entry = inner.entries.remove(&victim).expect("victim resident");
                inner.lru.remove(&entry.tick);
                inner.resident_cost -= entry.cost;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Durable write-through, outside the lock; a failed write only
        // costs a re-simulation after the next restart.
        if write_spill {
            self.spill_write(hash, &text);
        }
    }

    /// Rebuilds the disk index from the spill directory — the daemon's
    /// warm-start boot scan. Every `<hash>.json` entry is verified once
    /// (envelope key and payload hash); survivors are indexed so later
    /// lookups serve them as (spill) hits, failures are quarantined, and
    /// stale temp files from an interrupted write are swept. Returns
    /// `(recovered, quarantined)`.
    pub fn warm_start(&self) -> (u64, u64) {
        let Some(dir) = self.spill_dir.clone() else {
            return (0, 0);
        };
        let mut recovered = 0u64;
        let mut quarantined = 0u64;
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return (0, 0);
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.starts_with(".tmp-") {
                // A write interrupted by the crash; it never landed.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            let Some(hex) = name.strip_suffix(".json") else {
                continue;
            };
            let Ok(hash) = u128::from_str_radix(hex, 16) else {
                continue;
            };
            match verify_spill_file(hash, &path) {
                Ok(_) => {
                    lock_recover(&self.inner).on_disk.insert(hash);
                    recovered += 1;
                }
                Err(_) => {
                    self.quarantine(hash, &path);
                    quarantined += 1;
                }
            }
        }
        self.recovered_on_boot
            .fetch_add(recovered, Ordering::Relaxed);
        (recovered, quarantined)
    }

    /// Spill-directory occupancy: `(files, bytes)` across the directory
    /// itself and the `quarantine/` sidecar (temp files from in-flight
    /// writes included — they are real disk usage). `(0, 0)` without a
    /// spill directory. Scans the filesystem, so callers on a hot path
    /// should not call this per-request; the daemon calls it once per
    /// `stats`/`metrics` request.
    pub fn spill_occupancy(&self) -> (u64, u64) {
        let Some(dir) = &self.spill_dir else {
            return (0, 0);
        };
        let mut files = 0u64;
        let mut bytes = 0u64;
        for dir in [dir.clone(), dir.join("quarantine")] {
            let Ok(entries) = std::fs::read_dir(dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let Ok(meta) = entry.metadata() else { continue };
                if meta.is_file() {
                    files += 1;
                    bytes += meta.len();
                }
            }
        }
        (files, bytes)
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let (spill_files, spill_bytes) = self.spill_occupancy();
        let inner = lock_recover(&self.inner);
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            spill_hits: self.spill_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: inner.entries.len() as u64,
            resident_cost: inner.resident_cost,
            quarantined: self.quarantined.load(Ordering::Relaxed),
            recovered_on_boot: self.recovered_on_boot.load(Ordering::Relaxed),
            spill_write_failures: self.spill_write_failures.load(Ordering::Relaxed),
            spill_files,
            spill_bytes,
        }
    }
}

/// Parses and verifies one spill envelope: the embedded `key` must match
/// the hash the filename claims, and the re-serialized report payload
/// must hash to the embedded `check`. Compact JSON emission is
/// byte-stable (the repo-wide record contract), so parse→re-serialize
/// reproduces the exact bytes the writer hashed; any byte of damage
/// either breaks the parse, changes the payload hash, or breaks the key
/// binding — all three verify failures.
fn verify_spill_file(hash: u128, path: &Path) -> Result<SimReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("unparseable: {e}"))?;
    let key =
        u128::from_str_radix(json.req_str("key")?, 16).map_err(|e| format!("bad key: {e}"))?;
    if key != hash {
        return Err(format!(
            "key {key:032x} does not match filename {hash:032x}"
        ));
    }
    let check =
        u128::from_str_radix(json.req_str("check")?, 16).map_err(|e| format!("bad check: {e}"))?;
    let report_json = json
        .get("report")
        .ok_or_else(|| "missing field `report`".to_string())?;
    let payload = report_json.to_string();
    if content_hash128(payload.as_bytes()) != check {
        return Err("content hash mismatch".to_string());
    }
    SimReport::from_json(report_json)
}

impl SimCache for ResultStore {
    fn lookup(&self, key: &RunKey) -> Option<SimReport> {
        self.lookup_hash(key.content_hash())
    }

    fn insert(&self, key: &RunKey, report: &SimReport, cost_micros: u64) {
        self.insert_hash(key.content_hash(), report, cost_micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(cores: usize, seed: u64) -> RunKey {
        RunKey::new(Workload::Counter, System::Retcon, cores, seed)
    }

    #[test]
    fn canonical_bytes_separate_distinct_keys() {
        let a = key(2, 42);
        assert_eq!(a.canonical_bytes(), key(2, 42).canonical_bytes());
        assert_ne!(a.canonical_bytes(), key(4, 42).canonical_bytes());
        assert_ne!(a.canonical_bytes(), key(2, 43).canonical_bytes());
        let mut eager = a.clone();
        eager.system = System::Eager;
        assert_ne!(a.canonical_bytes(), eager.canonical_bytes());
    }

    #[test]
    fn default_retcon_cfg_normalizes_to_none() {
        // `Retcon + Some(default)` runs the identical simulation to
        // `Retcon + None` (the runner maps both to the same protocol), so
        // they must share a hash — the ISSUE-pinned invariant that hash
        // equality tracks record byte-equality.
        let plain = key(2, 42);
        let mut explicit = plain.clone();
        explicit.cfg = Some(RetconConfig::default());
        assert_eq!(plain.canonical_bytes(), explicit.canonical_bytes());
        assert_eq!(plain.content_hash(), explicit.content_hash());

        // A non-default config must NOT normalize away.
        let mut sized = plain.clone();
        sized.cfg = Some(RetconConfig {
            ivb_capacity: 4,
            ..RetconConfig::default()
        });
        assert_ne!(plain.content_hash(), sized.content_hash());

        // And a default config under a *different* system is not the same
        // simulation as that system's default protocol.
        let mut eager_cfg = plain.clone();
        eager_cfg.system = System::Eager;
        eager_cfg.cfg = Some(RetconConfig::default());
        let mut eager_plain = plain.clone();
        eager_plain.system = System::Eager;
        assert_ne!(eager_cfg.content_hash(), eager_plain.content_hash());
    }

    #[test]
    fn report_cache_round_trips() {
        let cache = ReportCache::new();
        let k = key(2, 42);
        assert!(cache.lookup(&k).is_none());
        let report = simulate(&k).unwrap();
        cache.insert(&k, &report, 10);
        assert_eq!(cache.lookup(&k), Some(report));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn store_hits_and_misses_are_counted() {
        let store = ResultStore::new(1 << 20);
        let k = key(1, 42);
        assert!(store.lookup(&k).is_none());
        let report = simulate(&k).unwrap();
        store.insert(&k, &report, 10);
        assert_eq!(store.lookup(&k), Some(report));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.resident), (1, 1, 1, 1));
        assert!(s.resident_cost > 0);
    }

    #[test]
    fn store_evicts_cheapest_of_oldest_when_full() {
        let store = ResultStore::new(1); // everything over budget
        let a = key(1, 1);
        let b = key(1, 2);
        let ra = simulate(&a).unwrap();
        let rb = simulate(&b).unwrap();
        store.insert(&a, &ra, 5);
        store.insert(&b, &rb, 500);
        // Capacity 1 byte: inserting b evicts a (older AND cheaper).
        let s = store.stats();
        assert_eq!(s.resident, 1);
        assert!(s.evictions >= 1);
        assert!(store.lookup(&b).is_some());
        assert!(store.lookup(&a).is_none());
    }

    fn temp_spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("retcon-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_spills_and_reloads() {
        let dir = temp_spill_dir("reload");
        let store = ResultStore::new(1).with_spill(dir.clone());
        let a = key(1, 1);
        let b = key(1, 2);
        let ra = simulate(&a).unwrap();
        store.insert(&a, &ra, 5);
        store.insert(&b, &simulate(&b).unwrap(), 5);
        // `a` was evicted; its write-through spill file reloads it
        // byte-identically after hash verification.
        assert_eq!(store.lookup(&a), Some(ra));
        assert_eq!(store.stats().spill_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_start_recovers_spilled_results_without_resimulating() {
        let dir = temp_spill_dir("warm");
        let a = key(1, 1);
        let b = key(2, 2);
        let ra = simulate(&a).unwrap();
        let rb = simulate(&b).unwrap();
        {
            // Write-through means both land on disk immediately, long
            // before any eviction.
            let store = ResultStore::new(1 << 20).with_spill(dir.clone());
            store.insert(&a, &ra, 5);
            store.insert(&b, &rb, 5);
        }
        // "Restart": a fresh store on the same directory.
        let store = ResultStore::new(1 << 20).with_spill(dir.clone());
        assert_eq!(store.warm_start(), (2, 0));
        assert_eq!(store.lookup(&a), Some(ra));
        assert_eq!(store.lookup(&b), Some(rb));
        let s = store.stats();
        assert_eq!(s.recovered_on_boot, 2);
        assert_eq!(s.spill_hits, 2);
        assert_eq!(s.quarantined, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_spill_entries_are_quarantined_never_served() {
        let dir = temp_spill_dir("corrupt");
        let a = key(1, 1);
        let ra = simulate(&a).unwrap();
        let plan = Arc::new(FaultPlan {
            corrupt_spill_write: Some(0),
            seed: 43, // odd: byte flips
            ..FaultPlan::default()
        });
        {
            let store = ResultStore::new(1 << 20)
                .with_spill(dir.clone())
                .with_faults(plan);
            store.insert(&a, &ra, 5);
        }
        let store = ResultStore::new(1 << 20).with_spill(dir.clone());
        assert_eq!(store.warm_start(), (0, 1), "corrupt entry must quarantine");
        assert_eq!(store.lookup(&a), None, "a corrupt record must never serve");
        let s = store.stats();
        assert_eq!((s.quarantined, s.recovered_on_boot), (1, 0));
        // The file moved to the sidecar, out of the scan path.
        assert!(dir
            .join("quarantine")
            .join(format!("{:032x}.json", a.content_hash()))
            .exists());
        let fresh = ResultStore::new(1 << 20).with_spill(dir.clone());
        assert_eq!(fresh.warm_start(), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_spill_write_keeps_result_in_memory_only() {
        let dir = temp_spill_dir("failwrite");
        let a = key(1, 1);
        let ra = simulate(&a).unwrap();
        let plan = Arc::new(FaultPlan {
            fail_spill_write: Some(0),
            ..FaultPlan::default()
        });
        let store = ResultStore::new(1 << 20)
            .with_spill(dir.clone())
            .with_faults(plan);
        store.insert(&a, &ra, 5);
        // Still served from memory this process...
        assert_eq!(store.lookup(&a), Some(ra));
        assert_eq!(store.stats().spill_write_failures, 1);
        drop(store);
        // ...but a restart re-simulates it: nothing landed on disk.
        let restarted = ResultStore::new(1 << 20).with_spill(dir.clone());
        assert_eq!(restarted.warm_start(), (0, 0));
        assert_eq!(restarted.lookup(&a), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_spill_entry_is_quarantined() {
        let dir = temp_spill_dir("truncate");
        let a = key(1, 1);
        {
            let store = ResultStore::new(1 << 20).with_spill(dir.clone());
            store.insert(&a, &simulate(&a).unwrap(), 5);
        }
        let path = dir.join(format!("{:032x}.json", a.content_hash()));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let store = ResultStore::new(1 << 20).with_spill(dir.clone());
        assert_eq!(store.warm_start(), (0, 1));
        assert_eq!(store.lookup(&a), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misfiled_spill_entry_fails_key_binding() {
        // A valid envelope under the wrong filename (e.g. a stray rename)
        // must not serve under the wrong key.
        let dir = temp_spill_dir("misfile");
        let a = key(1, 1);
        let b = key(1, 2);
        {
            let store = ResultStore::new(1 << 20).with_spill(dir.clone());
            store.insert(&a, &simulate(&a).unwrap(), 5);
        }
        let a_path = dir.join(format!("{:032x}.json", a.content_hash()));
        let b_path = dir.join(format!("{:032x}.json", b.content_hash()));
        std::fs::rename(&a_path, &b_path).unwrap();
        let store = ResultStore::new(1 << 20).with_spill(dir.clone());
        assert_eq!(store.warm_start(), (0, 1));
        assert_eq!(store.lookup(&b), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_for_matches_runner_shape() {
        let k = key(2, 7);
        let record = record_for(&k, simulate(&k).unwrap());
        assert_eq!(record.workload, "counter");
        assert_eq!(record.system, "RetCon");
        assert_eq!(record.cores, 2);
        assert_eq!(record.seed, 7);
        assert!(record.knobs.is_empty());
        assert_eq!(record.seq_cycles, 0);
    }
}
