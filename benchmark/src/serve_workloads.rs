//! The two daemon workloads: `serve_warm` (every request a store hit)
//! and `serve_cold` (every request a miss). An in-process
//! `retcon_serve::Server` on a thread, real loopback TCP, closed loop:
//! each connection sends its next single-key sweep only after the
//! previous reply's `done` line — sweep clients wait for their answer, so
//! closed loop is the honest model.

use crate::host;
use crate::json::J;
use crate::outcome::{e2e_metrics, RunOutcome, SimWork, Timed, SETUP_REPEATS};
use crate::span::{self, Recorder, Span};
use crate::zipf::Zipf;
use retcon_lab::runner::{run_jobs, Job};
use retcon_lab::{engine, RunKey, RunRecord};
use retcon_serve::{Client, Request, Response, Server, ServerConfig, SweepRequest};
use retcon_workloads::{SplitMix64, System, Workload};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Small simulations (about 1–10 ms each) on purpose: per-request costs
/// stay visible beside `simulate`. The simulate-dominated case is
/// `paper_matrix`.
pub const SERVE_WORKLOADS: [Workload; 4] = [
    Workload::Counter,
    Workload::Kmeans,
    Workload::Ssca2,
    Workload::Genome { resizable: false },
];
pub const SERVE_SYSTEMS: [System; 2] = [System::Eager, System::Retcon];

/// How many of each connection's first cold replies are re-simulated
/// offline after the timed part (doing all of them during it would put
/// a second simulator on the daemon's two CPUs).
const COLD_OFFLINE_CHECKS: usize = 16;

/// Untimed misses sent during `serve_cold`'s set-up.
const COLD_WARMUP_REQUESTS: u64 = 4;

/// An in-process daemon with a spill directory inside the checkout.
pub struct Daemon {
    pub addr: String,
    handle: JoinHandle<std::io::Result<()>>,
    spill: PathBuf,
}

static DAEMONS: AtomicU64 = AtomicU64::new(0);

impl Daemon {
    pub fn start() -> Result<Daemon, String> {
        let n = DAEMONS.fetch_add(1, Ordering::Relaxed);
        let spill = host::out_dir()
            .join("tmp")
            .join(format!("spill-{}-{n}", std::process::id()));
        let server = Server::bind(ServerConfig {
            workers: host::load_threads(),
            spill: Some(spill.clone()),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle,
            spill,
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Drains the daemon, waits for its thread, removes the spill files.
    pub fn stop(self) -> Result<(), String> {
        self.connect()?.shutdown()?;
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))?;
        std::fs::remove_dir_all(&self.spill).map_err(|e| format!("removing spill dir: {e}"))
    }
}

pub fn single_key_request(id: u64, key: &RunKey) -> SweepRequest {
    SweepRequest {
        id,
        workloads: vec![key.workload],
        systems: vec![key.system],
        cores: vec![key.cores],
        seeds: vec![key.seed],
    }
}

pub fn stat(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
}

/// Popularity order of `0..n`: a fixed stride walk, so neighbouring
/// ranks are different workloads and core counts. Fixed, not seeded: were
/// the hottest key a function of the seed, instructions per request — and
/// with it `sim_minstr_per_s` and `sim_ipc` — would swing by tens of
/// percent from seed to seed. The seed decides the order of requests and
/// the workload-build seeds.
fn popularity_order(n: usize) -> Vec<usize> {
    let stride = (n * 3 / 8..n).find(|s| gcd(*s, n) == 1).unwrap_or(1);
    (0..n).map(|i| (i * stride + n / 2) % n).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// What one connection measured.
#[derive(Default)]
struct ConnResult {
    lat_us: Vec<f64>,
    completed: u64,
    failures: Vec<String>,
    work: SimWork,
    /// `(key, served record)` kept for the offline re-check (cold only).
    kept: Vec<(RunKey, RunRecord)>,
    spans: Vec<Span>,
}

/// The request mix of one workload: which key connection `conn` asks for
/// as its `seq`-th request, and what a correct reply looks like.
pub trait Mix: Sync {
    fn next_key(&self, conn: u64, seq: u64, rng: &mut SplitMix64) -> RunKey;
    /// Checks a reply beyond "one record, no transport error".
    fn verify(&self, key: &RunKey, reply: &Reply) -> Result<(), String>;
}

/// One completed single-key sweep.
pub struct Reply {
    pub record: RunRecord,
    pub hits: u64,
    pub misses: u64,
}

// ------------------------------------------------------------------ serve_warm

pub struct WarmMix {
    keys: Vec<RunKey>,
    expected: Vec<RunRecord>,
    zipf: Zipf,
    rank_to_key: Vec<usize>,
}

impl WarmMix {
    /// The 64-key population: 4 workloads × {eager, RetCon} × cores
    /// {1,2,4,8} × seeds {S, S+1}, as one sweep (its canonical explosion
    /// order is the key order).
    pub fn population(seed: u64) -> SweepRequest {
        SweepRequest {
            id: 1,
            workloads: SERVE_WORKLOADS.to_vec(),
            systems: SERVE_SYSTEMS.to_vec(),
            cores: vec![1, 2, 4, 8],
            seeds: vec![seed, seed.wrapping_add(1)],
        }
    }

    /// Populates `daemon` and simulates the same keys offline.
    pub fn setup(daemon: &Daemon, seed: u64) -> Result<WarmMix, String> {
        let population = WarmMix::population(seed);
        let keys = population.explode();
        let served = daemon.connect()?.sweep(&population)?;
        let jobs: Vec<Job> = keys
            .iter()
            .map(|k| Job::new(k.workload, k.system, k.cores, k.seed))
            .collect();
        let expected = run_jobs(&jobs, 1).map_err(|e| e.to_string())?;
        if served.records != expected {
            return Err("populating sweep differs from the offline runner".to_string());
        }
        Ok(WarmMix {
            zipf: Zipf::new(keys.len(), 1.0),
            rank_to_key: popularity_order(keys.len()),
            keys,
            expected,
        })
    }

    pub fn keys(&self) -> &[RunKey] {
        &self.keys
    }
}

impl Mix for WarmMix {
    fn next_key(&self, _conn: u64, _seq: u64, rng: &mut SplitMix64) -> RunKey {
        self.keys[self.rank_to_key[self.zipf.sample(rng)]].clone()
    }

    fn verify(&self, key: &RunKey, reply: &Reply) -> Result<(), String> {
        let index = self
            .keys
            .iter()
            .position(|k| k == key)
            .expect("key drawn from the population");
        if reply.hits != 1 {
            return Err(format!("{key:?}: not a store hit"));
        }
        if reply.record != self.expected[index] {
            return Err(format!("{key:?}: served record differs from offline"));
        }
        Ok(())
    }
}

// ------------------------------------------------------------------ serve_cold

pub struct ColdMix {
    seed: u64,
    /// `(workload, cores, system)` combinations, Zipf-ranked.
    combos: Vec<(Workload, usize, System)>,
    zipf: Zipf,
}

impl ColdMix {
    pub fn new(seed: u64) -> ColdMix {
        let mut combos = Vec::new();
        for w in SERVE_WORKLOADS {
            for cores in [4, 8] {
                for s in SERVE_SYSTEMS {
                    combos.push((w, cores, s));
                }
            }
        }
        let order = popularity_order(combos.len());
        ColdMix {
            seed,
            zipf: Zipf::new(combos.len(), 1.0),
            combos: order.into_iter().map(|i| combos[i]).collect(),
        }
    }
}

impl Mix for ColdMix {
    /// A workload-build seed no earlier request used: a function of the
    /// run seed, the connection and the sequence number.
    fn next_key(&self, conn: u64, seq: u64, rng: &mut SplitMix64) -> RunKey {
        let (workload, cores, system) = self.combos[self.zipf.sample(rng)];
        let fresh = SplitMix64::new(self.seed)
            .fork((conn << 40) | seq)
            .next_u64();
        RunKey::new(workload, system, cores, fresh)
    }

    fn verify(&self, key: &RunKey, reply: &Reply) -> Result<(), String> {
        if reply.misses != 1 {
            return Err(format!("{key:?}: not a miss"));
        }
        let r = &reply.record;
        if r.workload != key.workload.label()
            || r.system != key.system.label()
            || r.cores != key.cores as u64
            || r.seed != key.seed
            || r.report.cycles == 0
        {
            return Err(format!("{key:?}: reply is for another run"));
        }
        Ok(())
    }
}

// --------------------------------------------------------------------- clients

/// How a connection talks to the daemon: the crate's own blocking
/// client (every end-to-end number), or a line-level twin that records a
/// span per step (traced runs only).
enum Conn {
    Plain(Client),
    Traced(TracedClient, Recorder),
}

/// `retcon_serve::Client::sweep` for one key, unrolled over the public
/// wire functions so each step gets a span. The write pattern (line,
/// newline, flush) copies the real client's on purpose: it decides how
/// the kernel packetizes the request.
struct TracedClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TracedClient {
    fn connect(addr: &str) -> Result<TracedClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(TracedClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn sweep_one(&mut self, rec: &mut Recorder, req: &SweepRequest) -> Result<Reply, String> {
        let op = req.id;
        rec.span("serve.send", op, |_| {
            let line = Request::Sweep(req.clone()).to_line();
            self.writer
                .write_all(line.as_bytes())
                .and_then(|()| self.writer.write_all(b"\n"))
                .and_then(|()| self.writer.flush())
                .map_err(|e| format!("send failed: {e}"))
        })?;
        let mut record = None;
        let mut first = true;
        loop {
            let mut line = String::new();
            let name = if first {
                "serve.wait_first_line"
            } else {
                "serve.read_rest"
            };
            first = false;
            let n = rec
                .span(name, op, |_| self.reader.read_line(&mut line))
                .map_err(|e| format!("recv failed: {e}"))?;
            if n == 0 {
                return Err("connection closed by daemon".to_string());
            }
            match rec.span("serve.parse", op, |_| Response::parse_line(line.trim_end()))? {
                Response::Record { id, run, .. } if id == req.id => record = Some(*run),
                Response::Done(done) if done.id == req.id => {
                    return Ok(Reply {
                        record: record.ok_or("done without a record")?,
                        hits: done.hits,
                        misses: done.misses,
                    });
                }
                other => return Err(format!("unexpected response: {other:?}")),
            }
        }
    }
}

impl Conn {
    fn sweep_one(&mut self, req: &SweepRequest) -> Result<Reply, String> {
        match self {
            Conn::Plain(client) => {
                let mut res = client.sweep(req)?;
                if res.records.len() != 1 {
                    return Err(format!("{} records for one key", res.records.len()));
                }
                Ok(Reply {
                    record: res.records.remove(0),
                    hits: res.hits,
                    misses: res.misses,
                })
            }
            Conn::Traced(client, rec) => {
                rec.span("request", req.id, |rec| client.sweep_one(rec, req))
            }
        }
    }
}

/// One connection's closed loop until `deadline`.
fn drive(
    mix: &dyn Mix,
    mut conn: Conn,
    conn_id: u64,
    seed: u64,
    deadline: Instant,
    keep: usize,
) -> ConnResult {
    let mut rng = SplitMix64::new(seed).fork(conn_id);
    let mut out = ConnResult::default();
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let key = mix.next_key(conn_id, seq, &mut rng);
        // Request ids are unique across connections, so spans of one
        // request share an id no other request has.
        let req = single_key_request((conn_id << 32) | seq, &key);
        seq += 1;
        let t = Instant::now();
        let reply = conn.sweep_one(&req);
        let lat = t.elapsed().as_secs_f64() * 1e6;
        let verify = |reply: Reply| {
            mix.verify(&key, &reply)?;
            Ok::<Reply, String>(reply)
        };
        let checked = match &mut conn {
            Conn::Plain(_) => reply.and_then(verify),
            Conn::Traced(_, rec) => rec.span("serve.verify", req.id, |_| reply.and_then(verify)),
        };
        match checked {
            Ok(reply) => {
                out.lat_us.push(lat);
                out.completed += 1;
                out.work.add(&reply.record.report);
                if out.kept.len() < keep {
                    out.kept.push((key, reply.record));
                }
            }
            Err(e) => out.failures.push(e),
        }
    }
    if let Conn::Traced(_, rec) = conn {
        out.spans = rec.into_spans();
    }
    out
}

/// What the timed part of a serve run measured, over all connections.
pub struct Load {
    pub seconds: f64,
    pub lat_us: Vec<f64>,
    pub completed: u64,
    pub failures: Vec<String>,
    pub work: SimWork,
    kept: Vec<(RunKey, RunRecord)>,
    pub spans: Vec<Span>,
}

/// Runs `load_threads()` closed-loop connections against `daemon` for
/// `seconds`.
pub fn generate_load(
    daemon: &Daemon,
    mix: &dyn Mix,
    seed: u64,
    seconds: f64,
    traced: bool,
    keep: usize,
) -> Result<Load, String> {
    let epoch = Instant::now();
    let conns: Vec<Conn> = (0..host::load_threads())
        .map(|i| {
            Ok(if traced {
                Conn::Traced(
                    TracedClient::connect(&daemon.addr)?,
                    Recorder::new(epoch, i as u32),
                )
            } else {
                Conn::Plain(daemon.connect()?)
            })
        })
        .collect::<Result<_, String>>()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| scope.spawn(move || drive(mix, conn, i as u64, seed, deadline, keep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection panicked"))
            .collect()
    });
    // Every connection finishes its in-flight request, so the measured
    // interval ends when the last one does.
    let seconds = start.elapsed().as_secs_f64();
    let mut load = Load {
        seconds,
        lat_us: Vec::new(),
        completed: 0,
        failures: Vec::new(),
        work: SimWork::default(),
        kept: Vec::new(),
        spans: Vec::new(),
    };
    let mut span_lists = Vec::new();
    for r in results {
        load.lat_us.extend(r.lat_us);
        load.completed += r.completed;
        load.failures.extend(r.failures);
        load.work.merge(&r.work);
        load.kept.extend(r.kept);
        span_lists.push(r.spans);
    }
    load.spans = span::merge(span_lists);
    Ok(load)
}

/// Which of the two daemon workloads to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Warm,
    Cold,
}

/// Everything before the first timed request: bind, and for the warm
/// workload populate the store and simulate the expected records.
fn setup(kind: ServeKind, seed: u64) -> Result<(Daemon, Box<dyn Mix>), String> {
    let daemon = Daemon::start()?;
    let mix: Box<dyn Mix> = match kind {
        ServeKind::Warm => Box::new(WarmMix::setup(&daemon, seed)?),
        ServeKind::Cold => {
            // Warm-up: the first misses pay for thread start-up and page
            // faults in the workers. Seeds far from any measured one.
            let mut client = daemon.connect()?;
            for i in 0..COLD_WARMUP_REQUESTS {
                let key = RunKey::new(Workload::Counter, System::Eager, 4, u64::MAX - i);
                client.sweep(&single_key_request(i, &key))?;
            }
            Box::new(ColdMix::new(seed))
        }
    };
    Ok((daemon, mix))
}

/// End-of-run store invariants; each is one checked operation.
fn store_invariants(
    kind: ServeKind,
    daemon: &Daemon,
    sent: u64,
    out: &mut RunOutcome,
) -> Result<(), String> {
    let stats = daemon.connect()?.stats()?;
    let get = |name| stat(&stats, name);
    let expect: Vec<(&str, u64)> = match kind {
        // Nothing but the 64 populating keys ever executed.
        ServeKind::Warm => vec![("executed", 64), ("insertions", 64), ("store_hits", sent)],
        // One execution, one insertion, one spill file per request,
        // warm-up included.
        ServeKind::Cold => ["executed", "insertions", "spill_files"]
            .map(|name| (name, sent + COLD_WARMUP_REQUESTS))
            .to_vec(),
    };
    let failures = expect
        .iter()
        .filter(|(name, want)| get(name) != *want)
        .map(|(name, want)| format!("daemon {name} = {}, expected {want}", get(name)))
        .collect();
    out.check(expect.len() as u64, failures);
    Ok(())
}

/// Re-simulates the kept cold replies offline: served == offline.
fn offline_recheck(load: &Load, out: &mut RunOutcome) {
    let failures = load
        .kept
        .iter()
        .filter_map(|(key, served)| match engine::simulate(key) {
            Ok(report) if report == served.report => None,
            Ok(_) => Some(format!("{key:?}: served report differs from offline")),
            Err(e) => Some(format!("{key:?}: offline simulation failed: {e}")),
        })
        .collect();
    out.check(load.kept.len() as u64, failures);
}

fn record_load(load: &mut Load, out: &mut RunOutcome) {
    let failures = std::mem::take(&mut load.failures);
    out.check(load.completed + failures.len() as u64, failures);
}

/// The untraced run.
pub fn run_e2e(kind: ServeKind, seed: u64, seconds: f64) -> Result<RunOutcome, String> {
    let mut out = RunOutcome::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((daemon, _)) = ready.take() {
            Daemon::stop(daemon)?;
        }
        let t = Instant::now();
        ready = Some(setup(kind, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (daemon, mix) = ready.expect("SETUP_REPEATS > 0");
    let keep = if kind == ServeKind::Cold {
        COLD_OFFLINE_CHECKS
    } else {
        0
    };
    let mut load = generate_load(&daemon, mix.as_ref(), seed, seconds, false, keep)?;
    record_load(&mut load, &mut out);
    store_invariants(kind, &daemon, load.completed, &mut out)?;
    offline_recheck(&load, &mut out);
    daemon.stop()?;
    if load.completed == 0 {
        return Err(format!("no request completed: {:?}", out.failures));
    }
    out.note("connections", J::Num(host::load_threads() as f64));
    out.note("measured_s", J::Num(load.seconds));
    out.note("requests", J::Num(load.completed as f64));
    e2e_metrics(
        &Timed {
            setup_s,
            host_s: load.seconds,
            requests: load.completed as f64,
            work: load.work,
            lat_raw_us: load.lat_us.clone(),
            lat_us: load.lat_us,
        },
        &mut out,
    );
    Ok(out)
}

/// What a traced serve run hands back.
pub struct TracedServe {
    pub out: RunOutcome,
    pub spans: Vec<Span>,
    /// Requests per second without and with the span recorder.
    pub untraced_req_per_s: f64,
    pub traced_req_per_s: f64,
    pub traced_s: f64,
    pub work: SimWork,
    pub requests: u64,
}

/// The traced run: `seconds` of load through the real client, then
/// `seconds` through the span-recording twin, on one daemon.
pub fn run_traced(kind: ServeKind, seed: u64, seconds: f64) -> Result<TracedServe, String> {
    let mut out = RunOutcome::default();
    let (daemon, mix) = setup(kind, seed)?;
    let mut plain = generate_load(&daemon, mix.as_ref(), seed, seconds, false, 0)?;
    record_load(&mut plain, &mut out);
    // Another seed for the second half, so cold requests stay misses.
    let seed2 = seed ^ 0x7472_6163_6564;
    let mix2: Box<dyn Mix> = match kind {
        ServeKind::Warm => mix,
        ServeKind::Cold => Box::new(ColdMix::new(seed2)),
    };
    let mut traced = generate_load(&daemon, mix2.as_ref(), seed2, seconds, true, 0)?;
    record_load(&mut traced, &mut out);
    store_invariants(kind, &daemon, plain.completed + traced.completed, &mut out)?;
    daemon.stop()?;
    if plain.completed == 0 || traced.completed == 0 {
        return Err(format!("no request completed: {:?}", out.failures));
    }
    Ok(TracedServe {
        out,
        untraced_req_per_s: plain.completed as f64 / plain.seconds,
        traced_req_per_s: traced.completed as f64 / traced.seconds,
        traced_s: traced.seconds,
        work: traced.work,
        requests: traced.completed,
        spans: traced.spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popularity_order_is_a_permutation_that_mixes_neighbours() {
        for n in [16, 64] {
            let order = popularity_order(n);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            // Adjacent ranks are far apart in key order.
            assert!(order.windows(2).all(|w| w[0].abs_diff(w[1]) > 1));
        }
    }

    #[test]
    fn cold_keys_are_fresh_and_follow_the_seed() {
        let mix = ColdMix::new(7);
        let draw = |seed: u64| {
            let mut rng = SplitMix64::new(seed).fork(0);
            (0..50)
                .map(|seq| mix.next_key(0, seq, &mut rng))
                .collect::<Vec<_>>()
        };
        let keys = draw(7);
        assert_eq!(keys, draw(7));
        let mut seeds: Vec<u64> = keys.iter().map(|k| k.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 50, "every request builds from a new seed");
        let other = mix.next_key(1, 0, &mut SplitMix64::new(7).fork(1));
        assert!(!seeds.contains(&other.seed));
    }
}
