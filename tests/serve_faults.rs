//! Deterministic fault-injection suite for `retcon-serve`: under every
//! [`FaultPlan`] the daemon stays up, answers subsequent requests
//! correctly, and unaffected keys' records remain byte-identical to the
//! offline runner — repair, not abort (DESIGN.md § Serving → Fault
//! model).
//!
//! Faults are injected through the counter-indexed, seeded
//! [`retcon_lab::FaultPlan`] threaded into [`ServerConfig::faults`], so
//! every scenario replays exactly: worker panics (one-shot and
//! per-key), spill-write failure, spill corruption surfacing at warm
//! start, mid-stream connection drops, and slow-client stalls.

use retcon_lab::runner::{run_jobs, Job};
use retcon_lab::{FaultPlan, RunKey};
use retcon_serve::{Client, ClientConfig, Server, ServerConfig, SweepRequest};
use retcon_workloads::{System, Workload};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SEED: u64 = retcon_lab::SEED;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "retcon-serve-faults-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn(cfg: ServerConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(&addr.to_string()).expect("connect for shutdown");
    client.shutdown().expect("shutdown ack");
    handle.join().expect("server thread").expect("server run");
}

fn stat(addr: SocketAddr, name: &str) -> u64 {
    let mut client = Client::connect(&addr.to_string()).expect("connect for stats");
    let stats = client.stats().expect("stats");
    stats
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("missing stat `{name}`"))
}

fn sweep(id: u64, systems: &[System], cores: &[usize]) -> SweepRequest {
    SweepRequest {
        id,
        workloads: vec![Workload::Counter],
        systems: systems.to_vec(),
        cores: cores.to_vec(),
        seeds: vec![SEED],
    }
}

fn offline(req: &SweepRequest) -> Vec<String> {
    let jobs: Vec<Job> = req
        .explode()
        .into_iter()
        .map(|k| Job::new(k.workload, k.system, k.cores, k.seed))
        .collect();
    run_jobs(&jobs, 2)
        .expect("offline run")
        .iter()
        .map(|r| r.to_json().to_string())
        .collect()
}

fn to_lines(records: &[retcon_lab::RunRecord]) -> Vec<String> {
    records.iter().map(|r| r.to_json().to_string()).collect()
}

/// A one-shot worker panic is retried transparently: the sweep still
/// succeeds, its records are byte-identical to offline, and the panic is
/// visible only in the `worker_panics` counter.
#[test]
fn one_shot_worker_panic_is_retried_transparently() {
    let (addr, handle) = spawn(ServerConfig {
        workers: 1,
        faults: Some(Arc::new(FaultPlan::new().panic_on_execution_n(0))),
        ..ServerConfig::default()
    });
    let req = sweep(1, &[System::Eager, System::Retcon], &[1]);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let result = client.sweep(&req).expect("sweep survives a worker panic");
    assert_eq!(to_lines(&result.records), offline(&req));
    assert_eq!(stat(addr, "worker_panics"), 1);
    assert_eq!(stat(addr, "executed"), 2);
    assert_eq!(stat(addr, "quarantined"), 0);
    shutdown(addr, handle);
}

/// A key that panics on every attempt exhausts its retries and is
/// quarantined: waiters get a structured error (not a hang), the daemon
/// keeps serving, unaffected keys stay byte-identical to offline, and a
/// repeat request for the bad key fails fast at classification time.
/// The client reads a failed sweep through to its `done` line, so the
/// same connection carries every later sweep.
#[test]
fn persistent_panic_quarantines_key_and_daemon_survives() {
    let bad = RunKey::new(Workload::Counter, System::Retcon, 1, SEED).content_hash();
    let (addr, handle) = spawn(ServerConfig {
        workers: 2,
        faults: Some(Arc::new(FaultPlan::new().panic_on_key_hash(bad))),
        ..ServerConfig::default()
    });

    let mixed = sweep(1, &[System::Eager, System::Retcon], &[1]);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let err = client.sweep(&mixed).expect_err("bad key must error");
    assert!(
        err.contains("worker panicked 3 times; key quarantined"),
        "unexpected error: {err}"
    );

    // The daemon is still up; the unaffected key serves byte-identically.
    let good = sweep(2, &[System::Eager], &[1]);
    let result = client.sweep(&good).expect("good key still serves");
    assert_eq!(to_lines(&result.records), offline(&good));

    // Quarantine is sticky and fast: no new execution, immediate error.
    let executed_before = stat(addr, "executed");
    let retry = sweep(3, &[System::Retcon], &[1]);
    let err = client.sweep(&retry).expect_err("quarantined key refused");
    assert!(err.contains("quarantined"), "unexpected error: {err}");
    assert_eq!(stat(addr, "executed"), executed_before);
    assert_eq!(stat(addr, "quarantined"), 1);
    assert_eq!(stat(addr, "worker_panics"), 3); // 1 attempt + 2 retries

    shutdown(addr, handle);
}

/// A failed spill write is survivable — the result stays memory-resident
/// and the sweep succeeds — but it is honestly lost to a restart: the
/// warm-started daemon recovers only the key that landed on disk and
/// re-executes the other.
#[test]
fn spill_write_failure_survives_and_restart_reexecutes_lost_key() {
    let dir = temp_dir("spillfail");
    let req = sweep(1, &[System::Eager, System::Retcon], &[1]);
    let (addr, handle) = spawn(ServerConfig {
        workers: 1,
        spill: Some(dir.clone()),
        faults: Some(Arc::new(FaultPlan::new().fail_spill_write_on(0))),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let cold = client.sweep(&req).expect("sweep survives spill failure");
    assert_eq!(to_lines(&cold.records), offline(&req));
    assert_eq!(stat(addr, "spill_write_failures"), 1);
    // Still memory-resident: an identical sweep is all hits.
    let warm = client.sweep(&sweep(2, &[System::Eager, System::Retcon], &[1]));
    assert_eq!(warm.expect("warm sweep").hits, 2);
    shutdown(addr, handle);

    // Restart on the same spill dir: one key recovered, one re-executed.
    let (addr, handle) = spawn(ServerConfig {
        workers: 1,
        spill: Some(dir.clone()),
        ..ServerConfig::default()
    });
    assert_eq!(stat(addr, "recovered_on_boot"), 1);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let result = client
        .sweep(&sweep(3, &[System::Eager, System::Retcon], &[1]))
        .expect("post-restart sweep");
    assert_eq!(to_lines(&result.records), offline(&req));
    assert_eq!((result.hits, result.misses), (1, 1));
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spill entry corrupted on disk is caught by the warm-start scan:
/// quarantined to the sidecar dir, never served, and its key simply
/// re-executes — records stay byte-identical to offline.
#[test]
fn corrupt_spill_entry_is_quarantined_at_warm_start() {
    let dir = temp_dir("corrupt");
    let req = sweep(1, &[System::Eager, System::Retcon], &[1]);
    let (addr, handle) = spawn(ServerConfig {
        workers: 1,
        spill: Some(dir.clone()),
        faults: Some(Arc::new(FaultPlan::new().corrupt_spill_write_on(0, 7))),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    client.sweep(&req).expect("sweep with corrupting spill");
    shutdown(addr, handle);

    let (addr, handle) = spawn(ServerConfig {
        workers: 1,
        spill: Some(dir.clone()),
        ..ServerConfig::default()
    });
    assert_eq!(stat(addr, "recovered_on_boot"), 1);
    assert_eq!(stat(addr, "quarantined"), 1);
    // The damaged entry sits in the sidecar, out of the serving path.
    let sidecar = std::fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir")
        .count();
    assert_eq!(sidecar, 1);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let result = client
        .sweep(&sweep(2, &[System::Eager, System::Retcon], &[1]))
        .expect("post-quarantine sweep");
    assert_eq!(to_lines(&result.records), offline(&req));
    assert_eq!((result.hits, result.misses), (1, 1));
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mid-stream connection drop is repaired by the resilient client:
/// reconnect + reissue succeeds, and because content-addressed keys are
/// idempotency keys the daemon executes each distinct key exactly once
/// no matter how many times the sweep is reissued.
#[test]
fn mid_stream_disconnect_reconnects_and_reissues_idempotently() {
    let (addr, handle) = spawn(ServerConfig {
        workers: 2,
        faults: Some(Arc::new(FaultPlan::new().drop_after_line_n(0))),
        ..ServerConfig::default()
    });
    let req = sweep(1, &[System::Eager, System::Retcon], &[1]);
    let cfg = ClientConfig {
        retries: 2,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(&addr.to_string(), cfg).expect("connect");
    let result = client
        .sweep(&req)
        .expect("retry repairs the dropped stream");
    assert_eq!(to_lines(&result.records), offline(&req));
    // Idempotent reissue: executions equal distinct keys, not attempts.
    assert_eq!(stat(addr, "executed"), 2);
    shutdown(addr, handle);
}

/// Without retries the same drop is a fail-fast transport error — the
/// daemon survives either way.
#[test]
fn mid_stream_disconnect_without_retries_fails_fast() {
    let (addr, handle) = spawn(ServerConfig {
        workers: 1,
        faults: Some(Arc::new(FaultPlan::new().drop_after_line_n(0))),
        ..ServerConfig::default()
    });
    let req = sweep(1, &[System::Eager], &[1]);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let err = client.sweep(&req).expect_err("dropped stream fails fast");
    assert!(
        err.contains("closed") || err.contains("failed"),
        "unexpected error: {err}"
    );
    // Daemon is fine; a fresh connection serves the key.
    let mut fresh = Client::connect(&addr.to_string()).expect("reconnect");
    let result = fresh
        .sweep(&sweep(2, &[System::Eager], &[1]))
        .expect("serve");
    assert_eq!(to_lines(&result.records), offline(&req));
    shutdown(addr, handle);
}

/// A stalled (slow-reading) client delays only its own connection's
/// writer thread: another client's sweep completes while the stall is
/// in progress.
#[test]
fn slow_client_stall_does_not_block_other_connections() {
    const STALL_MS: u64 = 1500;
    let (addr, handle) = spawn(ServerConfig {
        workers: 2,
        faults: Some(Arc::new(FaultPlan::new().stall_line_n(0, STALL_MS))),
        ..ServerConfig::default()
    });

    // Victim: its first response line draws the stall.
    let victim = std::thread::spawn(move || {
        let mut c = Client::connect(&addr.to_string()).expect("connect victim");
        c.sweep(&sweep(1, &[System::Eager], &[1]))
            .expect("stalled sweep")
    });
    // Give the victim time to reach the stalled write.
    std::thread::sleep(Duration::from_millis(300));

    let t = Instant::now();
    let mut other = Client::connect(&addr.to_string()).expect("connect other");
    let result = other
        .sweep(&sweep(2, &[System::Retcon], &[1]))
        .expect("unstalled sweep");
    let elapsed = t.elapsed();
    assert_eq!(result.records.len(), 1);
    assert!(
        elapsed < Duration::from_millis(STALL_MS),
        "second connection blocked behind the stalled one ({elapsed:?})"
    );
    victim.join().expect("victim thread");
    shutdown(addr, handle);
}

/// Hostile input — an oversized line, truncated JSON, and an unknown
/// request type — each gets a structured error reply and the connection
/// stays alive for a well-formed request afterwards.
#[test]
fn hostile_input_gets_structured_errors_and_connection_survives() {
    let (addr, handle) = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    let stream = TcpStream::connect(addr).expect("raw connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut reply = |payload: &[u8]| -> String {
        writer.write_all(payload).expect("send");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        line
    };

    // Oversized line, just past the 1 MiB cap: discarded with an error
    // naming the cap.
    let mut oversized = vec![b'x'; (1 << 20) + 1];
    oversized.push(b'\n');
    let line = reply(&oversized);
    assert!(
        line.contains(r#""type":"error""#) && line.contains("exceeds 1048576 bytes"),
        "unexpected reply: {line}"
    );
    // Truncated JSON.
    let line = reply(b"{\"type\":\"swe\n");
    assert!(
        line.contains(r#""type":"error""#),
        "unexpected reply: {line}"
    );

    // Unknown request type.
    let line = reply(b"{\"type\":\"bogus\"}\n");
    assert!(
        line.contains(r#""type":"error""#),
        "unexpected reply: {line}"
    );

    // Invalid UTF-8 is survivable too.
    let line = reply(&[0xff, 0xfe, b'{', 0xff, b'\n']);
    assert!(
        line.contains(r#""type":"error""#),
        "unexpected reply: {line}"
    );

    // The same connection still serves a well-formed request.
    let line = reply(b"{\"type\":\"stats\"}\n");
    assert!(
        line.contains(r#""type":"stats""#) && line.contains("executed"),
        "connection did not survive hostile input: {line}"
    );

    shutdown(addr, handle);
}
