//! Kill-and-restart: SIGKILL the real `retcon-serve` binary mid-sweep,
//! restart it on the same spill directory, and verify the acceptance
//! contract — a repeated sweep returns records byte-identical to the
//! offline runner, previously-completed keys count as store hits, and
//! `executed` counts only keys never finished before the crash.
//!
//! This drives the released binary through its stderr boot lines (the
//! warm-start summary then the listening line), not an in-process
//! [`Server`], so the crash is a real process death: no destructors, no
//! flushes, no drain.

use retcon_lab::engine::{self, RunKey};
use retcon_serve::{Client, SweepRequest};
use retcon_workloads::{System, Workload};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SEED: u64 = retcon_lab::SEED;

/// The fast matrix that completes before the kill.
fn completed_sweep(id: u64) -> SweepRequest {
    SweepRequest {
        id,
        workloads: vec![Workload::Counter],
        systems: vec![System::Eager, System::Retcon],
        cores: vec![1, 2],
        seeds: vec![SEED],
    }
}

/// The slow key the daemon dies holding: the transactionalized-CPython
/// model at a high core count runs long enough that a kill ~150 ms in
/// lands mid-execution.
fn inflight_sweep(id: u64) -> SweepRequest {
    SweepRequest {
        id,
        workloads: vec![Workload::Python { optimized: false }],
        systems: vec![System::Retcon],
        cores: vec![32],
        seeds: vec![SEED],
    }
}

fn offline(req: &SweepRequest) -> Vec<String> {
    req.explode()
        .iter()
        .map(|key| {
            let report = engine::simulate(key).expect("offline simulate");
            engine::record_for(key, report).to_json().to_string()
        })
        .collect()
}

struct Daemon {
    child: Child,
    addr: String,
    recovered: u64,
    quarantined: u64,
}

/// Launches the real binary and parses its boot lines.
fn launch(spill: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_retcon-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--spill",
            spill.to_str().expect("utf-8 spill path"),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn retcon-serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let warm = lines
        .next()
        .expect("warm-start line")
        .expect("read warm-start line");
    let (recovered, quarantined) = parse_warm_start(&warm);
    let listen = lines
        .next()
        .expect("listening line")
        .expect("read listening line");
    let addr = listen
        .split_once("retcon-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected boot line: {listen}"))
        .1
        .to_string();
    Daemon {
        child,
        addr,
        recovered,
        quarantined,
    }
}

/// Parses `retcon-serve warm start: recovered N, quarantined M`.
fn parse_warm_start(line: &str) -> (u64, u64) {
    let rest = line
        .split_once("retcon-serve warm start: recovered ")
        .unwrap_or_else(|| panic!("unexpected boot line: {line}"))
        .1;
    let (recovered, rest) = rest.split_once(", quarantined ").expect("warm-start shape");
    (
        recovered.parse().expect("recovered count"),
        rest.trim().parse().expect("quarantined count"),
    )
}

#[test]
fn sigkill_mid_sweep_then_restart_serves_completed_keys_as_hits() {
    let spill = std::env::temp_dir().join(format!("retcon-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);

    // Boot 1: cold dir.
    let mut daemon = launch(&spill);
    assert_eq!((daemon.recovered, daemon.quarantined), (0, 0));

    // Sweep A completes: its 4 records are on disk by the `done` line
    // (spill is write-through, inside the worker, before waiters wake).
    let done = completed_sweep(1);
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let cold = client.sweep(&done).expect("sweep before crash");
    assert_eq!(cold.misses, 4);

    // Sweep B goes out raw — we never read the reply — and ~150 ms later
    // the daemon dies mid-execution of its slow key.
    let mut raw = TcpStream::connect(&daemon.addr).expect("raw connect");
    let line = retcon_serve::Request::Sweep(inflight_sweep(2)).to_line();
    raw.write_all(line.as_bytes()).expect("send sweep B");
    raw.write_all(b"\n").expect("send newline");
    raw.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(150));
    daemon.child.kill().expect("SIGKILL daemon");
    let _ = daemon.child.wait();

    // Boot 2 on the same dir: every key that *finished* before the kill
    // is recovered (sweep A's 4 for sure; B's only if it won the race),
    // and nothing the crash tore survives verification unnoticed.
    let mut daemon = launch(&spill);
    let recovered = daemon.recovered;
    assert!(
        (4..=5).contains(&recovered),
        "expected the 4 completed keys (plus at most the in-flight one), got {recovered}"
    );
    assert_eq!(
        daemon.quarantined, 0,
        "a torn entry escaped the tmp+rename protocol"
    );

    // The repeated sweeps are byte-identical to offline, completed keys
    // are hits, and only never-finished keys execute.
    let mut client = Client::connect(&daemon.addr).expect("reconnect");
    let replay = client.sweep(&completed_sweep(3)).expect("replay sweep A");
    assert_eq!(
        replay
            .records
            .iter()
            .map(|r| r.to_json().to_string())
            .collect::<Vec<_>>(),
        offline(&completed_sweep(3))
    );
    assert_eq!(
        (replay.hits, replay.misses),
        (4, 0),
        "completed keys must come back as store hits"
    );

    let finish = client.sweep(&inflight_sweep(4)).expect("finish sweep B");
    assert_eq!(
        finish
            .records
            .iter()
            .map(|r| r.to_json().to_string())
            .collect::<Vec<_>>(),
        offline(&inflight_sweep(4))
    );
    assert_eq!(finish.hits, recovered - 4);
    assert_eq!(finish.misses, 5 - recovered);

    // `executed` counts only the keys that never finished pre-crash.
    let stats = client.stats().expect("stats");
    let get = |k: &str| {
        stats
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing stat {k}"))
    };
    assert_eq!(get("executed"), 5 - recovered);
    assert_eq!(get("recovered_on_boot"), recovered);
    assert_eq!(get("quarantined"), 0);

    client.shutdown().expect("shutdown");
    let status = daemon.child.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited with {status}");
    let _ = std::fs::remove_dir_all(&spill);

    // The distinct-key math above: 4 fast keys + 1 slow key.
    let distinct: std::collections::HashSet<u128> = completed_sweep(0)
        .explode()
        .iter()
        .chain(inflight_sweep(0).explode().iter())
        .map(RunKey::content_hash)
        .collect();
    assert_eq!(distinct.len(), 5);
}
