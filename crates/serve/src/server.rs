//! The daemon: connection handling, single-flight dedup, the worker
//! pool, and service lifecycle.
//!
//! ## Dedup pipeline
//!
//! Every sweep is exploded into per-run [`RunKey`]s and each key takes
//! exactly one of three paths, decided atomically against the in-flight
//! table:
//!
//! 1. **hit** — the content-addressed [`ResultStore`] already holds the
//!    report (memory or spill): the record line is sent immediately;
//! 2. **join** — another request is already executing the key: this
//!    requester is appended to the key's waiter list and the simulation
//!    runs **once** (single-flight);
//! 3. **miss** — the key is enqueued; a pool worker executes it, stores
//!    the report, and streams the record to every waiter.
//!
//! Workers serialize each finished report once and splice the payload
//! into every waiter's envelope, so fan-out cost is O(waiters), not
//! O(waiters × serialization).
//!
//! ## Determinism
//!
//! Nothing on the serving path can change simulation output: executions
//! call the same pure [`engine::simulate`] the offline runner calls, the
//! store returns exactly what a fresh run would (deterministic sims),
//! and record payloads are [`engine::record_for`] output. Arrival order
//! of record lines is scheduling-dependent; the canonical `index`
//! restores offline byte-identity (pinned by `tests/serve.rs`).
//!
//! ## Lifecycle
//!
//! `shutdown` flips the draining flag: new sweeps are rejected, workers
//! finish the queue (every accepted run still streams to its waiters),
//! the accept loop stops, and [`Server::run`] returns.

use crate::proto::{self, Request, SweepRequest};
use retcon_lab::engine::{self, lock_recover, FaultPlan, LineFault, ResultStore, RunKey};
use retcon_obs::MetricKind::{self, Counter, Gauge};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Maximum runs one sweep may explode into.
const MAX_RUNS_PER_REQUEST: usize = 4096;

/// Maximum sweeps one connection may have outstanding (backpressure:
/// further sweeps are rejected until earlier ones complete).
const MAX_PENDING_PER_CONN: usize = 8;

/// Maximum request-line length in bytes: longer lines are discarded with
/// a structured error, and the connection stays alive.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Bounded retries after a worker panic before the key is quarantined.
const PANIC_RETRIES: u32 = 2;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing cache misses.
    pub workers: usize,
    /// Result-store capacity in estimated resident bytes.
    pub capacity_bytes: u64,
    /// Durable spill directory: results are written through on insert,
    /// verified on read, and recovered by a warm-start scan at bind
    /// (optional).
    pub spill: Option<PathBuf>,
    /// Deterministic fault injector (test-only; see [`FaultPlan`]).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            capacity_bytes: 64 << 20,
            spill: None,
            faults: None,
        }
    }
}

/// One queued cache miss.
struct WorkItem {
    hash: u128,
    key: RunKey,
}

/// A requester waiting on an in-flight key.
struct Waiter {
    out: Sender<String>,
    id: u64,
    index: u64,
    pending: Arc<Pending>,
}

/// Per-sweep completion state: counts fixed at classification time plus
/// the remaining-record countdown that triggers the `done` line.
struct Pending {
    out: Sender<String>,
    id: u64,
    runs: u64,
    hits: AtomicU64,
    joined: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    /// Records not yet delivered, plus one classification guard so the
    /// `done` line cannot fire while the reader is still classifying.
    remaining: AtomicU64,
    /// The owning connection's outstanding-sweep count (backpressure).
    outstanding: Arc<AtomicUsize>,
}

impl Pending {
    /// Marks one unit delivered (a record, an error, or the
    /// classification guard) and emits `done` on the last one.
    fn deliver_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let summary = proto::DoneSummary {
                id: self.id,
                runs: self.runs,
                hits: self.hits.load(Ordering::Relaxed),
                joined: self.joined.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
                errors: self.errors.load(Ordering::Relaxed),
            };
            let _ = self.out.send(proto::done_line(&summary));
            self.outstanding.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Shared daemon state.
struct Core {
    cfg: ServerConfig,
    store: ResultStore,
    /// Single-flight table: content hash → waiters for the one execution.
    inflight: Mutex<HashMap<u128, Vec<Waiter>>>,
    queue: Mutex<VecDeque<WorkItem>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    executed: AtomicU64,
    joined_total: AtomicU64,
    sweeps: AtomicU64,
    connections: AtomicU64,
    /// Worker panics observed (every attempt counts, retries included).
    worker_panics: AtomicU64,
    /// Keys quarantined after exhausting panic retries: answered with a
    /// structured error immediately, never re-executed.
    key_quarantine: Mutex<HashSet<u128>>,
    /// Per-executed-run simulation latency, micros.
    request_latency: retcon_obs::Log2Hist,
}

impl Core {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Classifies and dispatches one sweep. Returns immediately; records
    /// stream from the store (hits) or the worker pool (joins/misses).
    fn submit_sweep(
        &self,
        req: &SweepRequest,
        keys: Vec<RunKey>,
        out: &Sender<String>,
        outstanding: &Arc<AtomicUsize>,
    ) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        let pending = Arc::new(Pending {
            out: out.clone(),
            id: req.id,
            runs: keys.len() as u64,
            hits: AtomicU64::new(0),
            joined: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            // +1: the classification guard released below.
            remaining: AtomicU64::new(keys.len() as u64 + 1),
            outstanding: Arc::clone(outstanding),
        });
        'keys: for (index, key) in keys.into_iter().enumerate() {
            let index = index as u64;
            let hash = key.content_hash();
            let report = 'hit: {
                // Fast path outside the in-flight lock: most warm-sweep
                // keys resolve here.
                if let Some(report) = self.store.lookup_hash(hash) {
                    break 'hit report;
                }
                // Quarantined keys (repeated worker panics) answer with a
                // structured error instead of wedging another worker.
                if lock_recover(&self.key_quarantine).contains(&hash) {
                    pending.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = out.send(proto::error_line(
                        Some(req.id),
                        Some(index),
                        "key quarantined after repeated worker panics",
                    ));
                    pending.deliver_one();
                    continue 'keys;
                }
                let waiter = Waiter {
                    out: out.clone(),
                    id: req.id,
                    index,
                    pending: Arc::clone(&pending),
                };
                let mut inflight = lock_recover(&self.inflight);
                if let Some(waiters) = inflight.get_mut(&hash) {
                    // Single-flight join: the execution already under way
                    // will stream to this waiter too.
                    waiters.push(waiter);
                    pending.joined.fetch_add(1, Ordering::Relaxed);
                    self.joined_total.fetch_add(1, Ordering::Relaxed);
                    continue 'keys;
                }
                // Re-check the store under the in-flight lock: a worker
                // completes by inserting into the store *before* removing
                // the in-flight entry (both ordered by this lock), so a
                // key missing from both really is idle.
                if let Some(report) = self.store.lookup_hash(hash) {
                    break 'hit report;
                }
                inflight.insert(hash, vec![waiter]);
                drop(inflight);
                pending.misses.fetch_add(1, Ordering::Relaxed);
                lock_recover(&self.queue).push_back(WorkItem { hash, key });
                self.queue_cv.notify_one();
                continue 'keys;
            };
            pending.hits.fetch_add(1, Ordering::Relaxed);
            let run_json = engine::record_for(&key, report).to_json().to_string();
            let _ = out.send(proto::record_line(req.id, index, true, &run_json));
            pending.deliver_one();
        }
        // Release the classification guard: if every key was a hit, this
        // is what emits `done`.
        pending.deliver_one();
    }

    /// Executes queued work until the queue is empty *and* the daemon is
    /// draining.
    ///
    /// Fault isolation: `simulate` runs under [`catch_unwind`], so a
    /// panicking workload cannot kill the worker thread. A panicked key
    /// is retried with linear backoff up to `PANIC_RETRIES` times (a
    /// transient fault clears; an injected one-shot panic succeeds on
    /// retry), then quarantined: its waiters are woken with a structured
    /// error — never left hanging — and later requests for the key are
    /// refused at classification time.
    fn worker_loop(&self) {
        loop {
            let item = {
                let mut queue = lock_recover(&self.queue);
                loop {
                    if let Some(item) = queue.pop_front() {
                        break Some(item);
                    }
                    if self.draining() {
                        break None;
                    }
                    queue = self
                        .queue_cv
                        .wait(queue)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let Some(WorkItem { hash, key }) = item else {
                return;
            };
            let t = Instant::now();
            let mut outcome = None;
            for attempt in 0..=PANIC_RETRIES {
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(plan) = &self.cfg.faults {
                        if plan.on_execution(hash) {
                            panic!("injected fault: worker panic");
                        }
                    }
                    engine::simulate(&key)
                }));
                match unwound {
                    Ok(result) => {
                        outcome = Some(result);
                        break;
                    }
                    Err(_) => {
                        self.worker_panics.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(5 * u64::from(attempt) + 5));
                    }
                }
            }
            self.executed.fetch_add(1, Ordering::Relaxed);
            self.request_latency.observe(t.elapsed().as_micros() as u64);
            match outcome {
                Some(Ok(report)) => {
                    // Store BEFORE removing the in-flight entry — the
                    // submit path relies on this order (see submit_sweep).
                    self.store
                        .insert_hash(hash, &report, t.elapsed().as_micros() as u64);
                    let run_json = engine::record_for(&key, report).to_json().to_string();
                    let waiters = lock_recover(&self.inflight)
                        .remove(&hash)
                        .unwrap_or_default();
                    for w in waiters {
                        let _ = w
                            .out
                            .send(proto::record_line(w.id, w.index, false, &run_json));
                        w.pending.deliver_one();
                    }
                }
                Some(Err(e)) => {
                    self.fail_key(hash, &format!("simulation failed: {e}"));
                }
                None => {
                    // Retries exhausted: quarantine so the key can never
                    // wedge another worker, and wake every waiter.
                    lock_recover(&self.key_quarantine).insert(hash);
                    self.fail_key(
                        hash,
                        &format!(
                            "worker panicked {} times; key quarantined",
                            PANIC_RETRIES + 1
                        ),
                    );
                }
            }
        }
    }

    /// Wakes every waiter of a failed key with a structured error record.
    fn fail_key(&self, hash: u128, message: &str) {
        let waiters = lock_recover(&self.inflight)
            .remove(&hash)
            .unwrap_or_default();
        for w in waiters {
            let _ = w
                .out
                .send(proto::error_line(Some(w.id), Some(w.index), message));
            w.pending.errors.fetch_add(1, Ordering::Relaxed);
            w.pending.deliver_one();
        }
    }

    /// Service counters, in emission order, each with the Prometheus
    /// type `metrics` renders it as: point-in-time values are gauges,
    /// monotone tallies counters.
    fn stats_fields(&self) -> Vec<(&'static str, MetricKind, u64)> {
        let store = self.store.stats();
        let inflight = lock_recover(&self.inflight).len() as u64;
        let queue_depth = lock_recover(&self.queue).len() as u64;
        let key_quarantined = lock_recover(&self.key_quarantine).len() as u64;
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        vec![
            ("executed", Counter, load(&self.executed)),
            ("store_hits", Counter, store.hits),
            ("spill_hits", Counter, store.spill_hits),
            ("store_misses", Counter, store.misses),
            ("insertions", Counter, store.insertions),
            ("evictions", Counter, store.evictions),
            ("resident", Gauge, store.resident),
            ("resident_bytes", Gauge, store.resident_cost),
            // Quarantines of both kinds: spill files that failed
            // verification plus keys retired after repeated panics.
            ("quarantined", Counter, store.quarantined + key_quarantined),
            ("recovered_on_boot", Counter, store.recovered_on_boot),
            ("worker_panics", Counter, load(&self.worker_panics)),
            ("spill_write_failures", Counter, store.spill_write_failures),
            ("joined", Counter, load(&self.joined_total)),
            ("inflight", Gauge, inflight),
            ("queue_depth", Gauge, queue_depth),
            ("sweeps", Counter, load(&self.sweeps)),
            ("connections", Gauge, load(&self.connections)),
            ("workers", Gauge, self.cfg.workers as u64),
            ("draining", Gauge, u64::from(self.draining())),
            // Spill-directory occupancy (quarantine sidecar included) —
            // what the disk actually holds, as opposed to the resident_*
            // memory view above.
            ("spill_files", Gauge, store.spill_files),
            ("spill_bytes", Gauge, store.spill_bytes),
        ]
    }

    /// The `metrics` reply: the latency histograms, then the
    /// [`Core::stats_fields`] scalars — the values `stats` reports, read
    /// once, so the two views cannot disagree.
    fn metrics_text(&self) -> String {
        retcon_obs::render_exposition(
            "retcon_serve",
            &[
                ("request_latency_micros", &self.request_latency),
                ("spill_write_latency_micros", self.store.spill_write_hist()),
            ],
            &self.stats_fields(),
        )
    }
}

/// Outcome of one capped line read.
enum LineRead {
    /// The peer closed the connection cleanly.
    Eof,
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// The line exceeded the cap; its bytes were discarded up to (and
    /// including) the newline, and the connection is still usable.
    TooLong,
}

/// Reads one `\n`-terminated line into `buf`, refusing to buffer more
/// than `cap` bytes: an oversized line is *consumed and discarded* to
/// the next newline instead of growing the buffer without bound — a
/// hostile client cannot balloon daemon memory, and the connection
/// survives to carry the structured error reply.
fn read_line_capped(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    let mut overflow = false;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(if overflow {
                LineRead::TooLong
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line // final line without a trailing newline
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflow && buf.len() + pos <= cap {
                    buf.extend_from_slice(&available[..pos]);
                } else {
                    overflow = true;
                }
                reader.consume(pos + 1);
                return Ok(if overflow {
                    LineRead::TooLong
                } else {
                    LineRead::Line
                });
            }
            None => {
                let n = available.len();
                if !overflow && buf.len() + n <= cap {
                    buf.extend_from_slice(available);
                } else {
                    overflow = true;
                }
                reader.consume(n);
            }
        }
    }
}

/// One connection's reader loop: parse request lines, dispatch, enforce
/// per-connection limits.
///
/// `write_half` is the socket's write side, shared with the writer
/// thread behind a line-granularity mutex; the shutdown ack is written
/// through it *synchronously* so the acknowledgement reaches the kernel
/// send buffer before the drain begins — otherwise the process could
/// exit (killing the detached writer thread) with the ack still queued.
fn connection_loop(
    core: &Arc<Core>,
    stream: TcpStream,
    out: Sender<String>,
    write_half: Arc<Mutex<TcpStream>>,
    addr: SocketAddr,
) {
    core.connections.fetch_add(1, Ordering::Relaxed);
    let outstanding = Arc::new(AtomicUsize::new(0));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        match read_line_capped(&mut reader, &mut buf, MAX_LINE_BYTES) {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong) => {
                // Hostile input answers with a structured error; the
                // connection stays alive for well-formed requests.
                let _ = out.send(proto::error_line(
                    None,
                    None,
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes and was discarded"),
                ));
                continue;
            }
            Ok(LineRead::Line) => {}
        }
        // Invalid UTF-8 survives lossy conversion and fails JSON parsing
        // below — an error reply, not a dropped connection.
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Request::parse_line(line) {
            Ok(Request::Sweep(req)) => {
                if core.draining() {
                    let _ = out.send(proto::error_line(
                        Some(req.id),
                        None,
                        "daemon is draining; sweep rejected",
                    ));
                    continue;
                }
                // Bounded before exploding: a short request line can name
                // a matrix far too large to allocate.
                let runs = req.runs();
                if runs > MAX_RUNS_PER_REQUEST {
                    let _ = out.send(proto::error_line(
                        Some(req.id),
                        None,
                        &format!("sweep explodes to {runs} runs (limit {MAX_RUNS_PER_REQUEST})"),
                    ));
                    continue;
                }
                // Backpressure: reject rather than queue unboundedly for
                // one connection.
                let was = outstanding.fetch_add(1, Ordering::AcqRel);
                if was >= MAX_PENDING_PER_CONN {
                    outstanding.fetch_sub(1, Ordering::AcqRel);
                    let _ = out.send(proto::error_line(
                        Some(req.id),
                        None,
                        &format!(
                            "connection has {was} sweeps outstanding (limit {MAX_PENDING_PER_CONN})"
                        ),
                    ));
                    continue;
                }
                core.submit_sweep(&req, req.explode(), &out, &outstanding);
            }
            Ok(Request::Stats) => {
                let fields = core.stats_fields();
                let _ = out.send(proto::stats_line(fields.iter().map(|&(k, _, v)| (k, v))));
            }
            Ok(Request::Metrics) => {
                let _ = out.send(proto::metrics_line(&core.metrics_text()));
            }
            Ok(Request::Shutdown) => {
                {
                    let mut w = lock_recover(&write_half);
                    let _ = w
                        .write_all(proto::ok_line("draining").as_bytes())
                        .and_then(|()| w.write_all(b"\n"))
                        .and_then(|()| w.flush());
                }
                core.draining.store(true, Ordering::Release);
                core.queue_cv.notify_all();
                // Unblock the accept loop so Server::run can join the
                // workers and return.
                let _ = TcpStream::connect(addr);
            }
            Err(e) => {
                let _ = out.send(proto::error_line(None, None, &e));
            }
        }
    }
    core.connections.fetch_sub(1, Ordering::Relaxed);
}

/// A bound daemon, ready to run.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    core: Arc<Core>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listen socket. The daemon does not serve until
    /// [`Server::run`].
    ///
    /// # Errors
    ///
    /// I/O errors binding the address, or creating the spill directory.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        if let Some(dir) = &cfg.spill {
            std::fs::create_dir_all(dir)?;
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let mut store = ResultStore::new(cfg.capacity_bytes);
        if let Some(dir) = &cfg.spill {
            store = store.with_spill(dir.clone());
        }
        if let Some(plan) = &cfg.faults {
            store = store.with_faults(Arc::clone(plan));
        }
        // Warm start: verify and index every result a previous daemon
        // spilled here, so a restart serves prior work as hits. Corrupt
        // entries quarantine now, before the first request.
        if cfg.spill.is_some() {
            store.warm_start();
        }
        let workers = cfg.workers.max(1);
        let core = Arc::new(Core {
            cfg: ServerConfig { workers, ..cfg },
            store,
            inflight: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            joined_total: AtomicU64::new(0),
            sweeps: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            key_quarantine: Mutex::new(HashSet::new()),
            request_latency: retcon_obs::Log2Hist::new(),
        });
        Ok(Server {
            listener,
            local_addr,
            core,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port picked).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the result store's counters (`recovered_on_boot` and
    /// `quarantined` reflect the warm-start scan done by [`Server::bind`]).
    pub fn store_stats(&self) -> retcon_lab::engine::StoreStats {
        self.core.store.stats()
    }

    /// Serves until a `shutdown` request drains the daemon: accepts
    /// connections, spawns per-connection reader/writer threads, runs
    /// the worker pool, and on drain joins the workers (completing every
    /// accepted run) before returning.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection I/O errors close that
    /// connection.
    pub fn run(self) -> std::io::Result<()> {
        let mut workers = Vec::new();
        for _ in 0..self.core.cfg.workers {
            let core = Arc::clone(&self.core);
            workers.push(std::thread::spawn(move || core.worker_loop()));
        }
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(_) => continue,
            };
            if self.core.draining() {
                break;
            }
            let write_half = match stream.try_clone() {
                Ok(s) => Arc::new(Mutex::new(s)),
                Err(_) => continue,
            };
            let (tx, rx) = std::sync::mpsc::channel::<String>();
            // Writer: drains the channel onto the write half (one lock
            // per line, shared with the synchronous shutdown-ack path);
            // exits when every sender is dropped (reader done, no
            // pending sweeps). A write failure only kills this
            // connection's writer — record sends to it become no-ops and
            // sweep accounting still completes.
            let writer_half = Arc::clone(&write_half);
            let faults = self.core.cfg.faults.clone();
            std::thread::spawn(move || {
                while let Ok(line) = rx.recv() {
                    if let Some(plan) = &faults {
                        match plan.on_line() {
                            LineFault::Drop => {
                                // Injected mid-stream disconnect.
                                let w = lock_recover(&writer_half);
                                let _ = w.shutdown(std::net::Shutdown::Both);
                                break;
                            }
                            LineFault::Stall(millis) => {
                                // Injected slow client: stall this
                                // connection only.
                                std::thread::sleep(Duration::from_millis(millis));
                            }
                            LineFault::None => {}
                        }
                    }
                    let mut w = lock_recover(&writer_half);
                    if w.write_all(line.as_bytes())
                        .and_then(|()| w.write_all(b"\n"))
                        .is_err()
                    {
                        break;
                    }
                }
                let mut w = lock_recover(&writer_half);
                let _ = w.flush();
            });
            let core = Arc::clone(&self.core);
            let addr = self.local_addr;
            std::thread::spawn(move || connection_loop(&core, stream, tx, write_half, addr));
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use retcon_workloads::{System, Workload};

    fn sweep(id: u64, systems: Vec<System>, cores: Vec<usize>) -> SweepRequest {
        SweepRequest {
            id,
            workloads: vec![Workload::Counter],
            systems,
            cores,
            seeds: vec![42],
        }
    }

    fn spawn_server(
        cfg: ServerConfig,
    ) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    }

    #[test]
    fn serves_dedups_and_drains() {
        let (addr, handle) = spawn_server(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(&addr.to_string()).expect("connect");

        // Cold sweep: everything misses.
        let cold = client
            .sweep(&sweep(1, vec![System::Eager, System::Retcon], vec![1, 2]))
            .expect("cold sweep");
        assert_eq!(cold.records.len(), 4);
        assert_eq!((cold.hits, cold.misses), (0, 4));

        // Identical sweep: everything hits, records byte-identical.
        let warm = client
            .sweep(&sweep(2, vec![System::Eager, System::Retcon], vec![1, 2]))
            .expect("warm sweep");
        assert_eq!((warm.hits, warm.misses, warm.joined), (4, 0, 0));
        assert_eq!(cold.records, warm.records);
        assert!(warm.cached.iter().all(|&c| c));

        // Stats reflect the accounting.
        let stats = client.stats().expect("stats");
        let get = |k: &str| {
            stats
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing stat {k}"))
        };
        assert_eq!(get("executed"), 4);
        assert_eq!(get("store_hits"), 4);
        assert_eq!(get("sweeps"), 2);

        // The metrics exposition is well-formed and its counters agree
        // with the sweep accounting above: 4 executions (each with a
        // latency observation) and 4 warm-sweep store hits.
        let text = client.metrics().expect("metrics");
        retcon_obs::validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("retcon_serve_executed 4\n"), "{text}");
        assert!(text.contains("retcon_serve_store_hits 4\n"), "{text}");
        assert!(
            text.contains("retcon_serve_request_latency_micros_count 4\n"),
            "{text}"
        );

        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("server run");

        // Post-drain sweeps are refused (connection or request level).
        let refused = Client::connect(&addr.to_string())
            .map_err(|_| ())
            .and_then(|mut c| {
                c.sweep(&sweep(3, vec![System::Eager], vec![1]))
                    .map_err(|_| ())
            });
        assert!(refused.is_err());
    }

    #[test]
    fn oversized_and_excess_sweeps_are_rejected() {
        let (addr, handle) = spawn_server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        let over = SweepRequest {
            seeds: (0..4097).collect(),
            ..sweep(1, vec![System::Eager], vec![1])
        };
        let err = client
            .sweep(&over)
            .expect_err("4097 runs over the 4096-run limit");
        assert!(
            err.contains("sweep explodes to 4097 runs (limit 4096)"),
            "{err}"
        );

        // A line of ~25 KB naming a 10^12-run matrix: rejected from the
        // array lengths alone, before any key is allocated, and the
        // connection keeps serving.
        let huge = SweepRequest {
            id: 2,
            workloads: vec![Workload::Counter; 1000],
            systems: vec![System::Eager; 1000],
            cores: vec![1; 1000],
            seeds: vec![42; 1000],
        };
        assert_eq!(huge.runs(), 1_000_000_000_000);
        let err = client
            .sweep(&huge)
            .expect_err("10^12 runs over the 4096-run limit");
        assert!(
            err.contains("sweep explodes to 1000000000000 runs (limit 4096)"),
            "{err}"
        );
        let stats = client.stats().expect("stats after the rejection");
        assert!(
            stats.iter().any(|(k, v)| k == "sweeps" && *v == 0),
            "{stats:?}"
        );

        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("server run");
    }

    /// Nine sweeps of one slow key pipelined on one connection: the
    /// first misses, the next seven join its execution, and the ninth
    /// finds eight outstanding and is refused. The eight accepted sweeps
    /// all complete, and the connection keeps serving.
    #[test]
    fn ninth_outstanding_sweep_on_a_connection_is_refused() {
        let (addr, handle) = spawn_server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // python at 8 cores simulates for tens of milliseconds, far
        // longer than the reader takes to classify nine buffered lines.
        let slow = |id| SweepRequest {
            workloads: vec![Workload::Python { optimized: false }],
            ..sweep(id, vec![System::Retcon], vec![8])
        };
        let mut lines = String::new();
        for id in 1..=9 {
            lines.push_str(&Request::Sweep(slow(id)).to_line());
            lines.push('\n');
        }
        writer.write_all(lines.as_bytes()).expect("send");
        writer.flush().expect("flush");

        let mut done = Vec::new();
        let mut refused = Vec::new();
        let mut records = 0;
        while done.len() < 8 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("reply");
            match proto::Response::parse_line(line.trim_end()).expect("response") {
                proto::Response::Record { cached, .. } => {
                    assert!(!cached);
                    records += 1;
                }
                proto::Response::Done(summary) => done.push(summary),
                proto::Response::Error { id, index, message } => {
                    refused.push((id, index, message));
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(
            refused,
            [(
                Some(9),
                None,
                "connection has 8 sweeps outstanding (limit 8)".to_string()
            )]
        );
        assert_eq!(records, 8);
        done.sort_by_key(|d| d.id);
        let ids: Vec<u64> = done.iter().map(|d| d.id).collect();
        assert_eq!(ids, (1..=8).collect::<Vec<u64>>());
        assert_eq!((done[0].misses, done[0].joined), (1, 0));
        for d in &done[1..] {
            assert_eq!(
                (d.runs, d.misses, d.joined, d.errors),
                (1, 0, 1, 0),
                "{d:?}"
            );
        }

        writer
            .write_all(b"{\"type\":\"stats\"}\n")
            .expect("send stats");
        let mut line = String::new();
        reader.read_line(&mut line).expect("stats reply");
        assert!(line.contains(r#""type":"stats""#), "{line}");

        let mut client = Client::connect(&addr.to_string()).expect("connect");
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("server run");
    }

    #[test]
    fn metrics_families_are_pinned() {
        let (addr, handle) = spawn_server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        client
            .sweep(&sweep(1, vec![System::Retcon], vec![1, 2]))
            .expect("sweep");
        let text = client.metrics().expect("metrics");
        let families: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        assert_eq!(
            families,
            [
                "# TYPE retcon_serve_request_latency_micros histogram",
                "# TYPE retcon_serve_spill_write_latency_micros histogram",
                "# TYPE retcon_serve_executed counter",
                "# TYPE retcon_serve_store_hits counter",
                "# TYPE retcon_serve_spill_hits counter",
                "# TYPE retcon_serve_store_misses counter",
                "# TYPE retcon_serve_insertions counter",
                "# TYPE retcon_serve_evictions counter",
                "# TYPE retcon_serve_resident gauge",
                "# TYPE retcon_serve_resident_bytes gauge",
                "# TYPE retcon_serve_quarantined counter",
                "# TYPE retcon_serve_recovered_on_boot counter",
                "# TYPE retcon_serve_worker_panics counter",
                "# TYPE retcon_serve_spill_write_failures counter",
                "# TYPE retcon_serve_joined counter",
                "# TYPE retcon_serve_inflight gauge",
                "# TYPE retcon_serve_queue_depth gauge",
                "# TYPE retcon_serve_sweeps counter",
                "# TYPE retcon_serve_connections gauge",
                "# TYPE retcon_serve_workers gauge",
                "# TYPE retcon_serve_draining gauge",
                "# TYPE retcon_serve_spill_files gauge",
                "# TYPE retcon_serve_spill_bytes gauge",
            ]
        );
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("server run");
    }
}
