//! Integration suite for `retcon-serve`: the determinism contract and
//! the single-flight accounting.
//!
//! The contract under test (DESIGN.md "Serving"): a served sweep's
//! record set, ordered by canonical index, is **byte-identical** to
//! running the same matrix offline through `retcon_lab::runner::run_jobs`
//! — regardless of client interleaving, connection count, or cache
//! state. Single-flight is pinned by run-count accounting: across every
//! interleaving tested, the daemon's `executed` counter equals the
//! number of *distinct* run keys submitted, never the number of
//! requested runs.

use retcon_lab::runner::{run_jobs, Job};
use retcon_serve::{Client, Server, ServerConfig, SweepRequest};
use retcon_workloads::{System, Workload};
use std::net::SocketAddr;
use std::thread::JoinHandle;

const SEED: u64 = retcon_lab::SEED;

fn spawn_server(workers: usize) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(&addr.to_string()).expect("connect for shutdown");
    client.shutdown().expect("shutdown ack");
    handle.join().expect("server thread").expect("server run");
}

fn stat(client: &mut Client, name: &str) -> u64 {
    let stats = client.stats().expect("stats");
    stats
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("missing stat `{name}`"))
}

fn sweep(id: u64, workloads: &[Workload], systems: &[System], cores: &[usize]) -> SweepRequest {
    SweepRequest {
        id,
        workloads: workloads.to_vec(),
        systems: systems.to_vec(),
        cores: cores.to_vec(),
        seeds: vec![SEED],
    }
}

/// The offline record set for a sweep, via the job-parallel runner the
/// lab uses for every published dataset.
fn offline(req: &SweepRequest) -> Vec<retcon_lab::RunRecord> {
    let jobs: Vec<Job> = req
        .explode()
        .into_iter()
        .map(|k| Job::new(k.workload, k.system, k.cores, k.seed))
        .collect();
    run_jobs(&jobs, 4).expect("offline run")
}

fn to_lines(records: &[retcon_lab::RunRecord]) -> Vec<String> {
    records.iter().map(|r| r.to_json().to_string()).collect()
}

/// Concurrent clients on overlapping matrices: every client's record set
/// is byte-identical to its offline run, and `executed` equals the
/// distinct-key union — the single-flight invariant.
#[test]
fn concurrent_overlapping_sweeps_match_offline_and_dedup() {
    let (addr, handle) = spawn_server(4);

    // Three overlapping matrices; union is eager×{1,2,4} ∪ RetCon×{1,2,4}
    // = 6 distinct keys, while 14 runs are requested in total.
    let reqs = [
        sweep(
            1,
            &[Workload::Counter],
            &[System::Eager, System::Retcon],
            &[1, 2],
        ),
        sweep(
            2,
            &[Workload::Counter],
            &[System::Eager, System::Retcon],
            &[2, 4],
        ),
        sweep(
            3,
            &[Workload::Counter],
            &[System::Eager, System::Retcon],
            &[1, 2, 4],
        ),
    ];
    let distinct: std::collections::HashSet<u128> = reqs
        .iter()
        .flat_map(|r| r.explode())
        .map(|k| k.content_hash())
        .collect();
    assert_eq!(distinct.len(), 6);

    let results: Vec<_> = std::thread::scope(|scope| {
        reqs.iter()
            .map(|req| {
                scope.spawn(move || {
                    let mut client = Client::connect(&addr.to_string()).expect("connect");
                    client.sweep(req).expect("sweep")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for (req, result) in reqs.iter().zip(&results) {
        assert_eq!(
            to_lines(&result.records),
            to_lines(&offline(req)),
            "sweep {} served records differ from offline runner output",
            req.id
        );
    }

    let mut client = Client::connect(&addr.to_string()).expect("connect");
    assert_eq!(
        stat(&mut client, "executed"),
        distinct.len() as u64,
        "single-flight violated: executions exceed distinct keys"
    );
    let total_runs: u64 = results.iter().map(|r| r.records.len() as u64).sum();
    assert_eq!(total_runs, 14);
    let accounted: u64 = results.iter().map(|r| r.hits + r.joined + r.misses).sum();
    assert_eq!(accounted, total_runs, "every run classified exactly once");

    shutdown(addr, handle);
}

/// Staggered replay: a second sweep overlapping a completed one is
/// served from the store for at least the overlap, and its records stay
/// byte-identical to offline output.
#[test]
fn staggered_overlap_hits_the_store() {
    let (addr, handle) = spawn_server(2);
    let mut client = Client::connect(&addr.to_string()).expect("connect");

    let first = sweep(
        1,
        &[Workload::Counter],
        &[System::Eager, System::Retcon],
        &[1, 2],
    );
    let second = sweep(
        2,
        &[Workload::Counter],
        &[System::Eager, System::Retcon],
        &[1, 2, 4],
    );
    let cold = client.sweep(&first).expect("cold sweep");
    assert_eq!((cold.hits, cold.misses), (0, 4));

    let warm = client.sweep(&second).expect("warm sweep");
    // 4 of 6 runs overlap the finished first sweep — all must hit.
    assert_eq!(warm.hits, 4, "overlap not served from the store");
    assert_eq!(warm.misses, 2);
    assert_eq!(to_lines(&warm.records), to_lines(&offline(&second)));
    // Cache flags line up with the canonical order: cores 4 entries are
    // the misses.
    for (key, &cached) in second.explode().iter().zip(&warm.cached) {
        assert_eq!(cached, key.cores != 4, "cache flag wrong for {key:?}");
    }

    // Identical replay: 100% hit rate, still byte-identical.
    let replay = client
        .sweep(&sweep(
            3,
            &[Workload::Counter],
            &[System::Eager, System::Retcon],
            &[1, 2, 4],
        ))
        .expect("replay sweep");
    assert_eq!((replay.hits, replay.misses), (6, 0));
    assert!((replay.hit_rate() - 1.0).abs() < f64::EPSILON);
    assert_eq!(to_lines(&replay.records), to_lines(&warm.records));

    shutdown(addr, handle);
}

/// Machines wider than one 64-core mask word are served too, and stay
/// byte-identical to the offline runner.
#[test]
fn wide_machines_are_served_byte_identical() {
    let (addr, handle) = spawn_server(2);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let req = sweep(1, &[Workload::ScalingXl], &[System::Retcon], &[128]);
    let served = client.sweep(&req).expect("128-core sweep");
    assert_eq!(served.misses, 1);
    assert_eq!(to_lines(&served.records), to_lines(&offline(&req)));
    shutdown(addr, handle);
}

/// The same duplicate-heavy load pushed through different connection
/// interleavings always executes each distinct key once.
#[test]
fn single_flight_holds_across_interleavings() {
    let req = sweep(
        7,
        &[Workload::Counter],
        &[System::Eager, System::Lazy],
        &[1, 2],
    );
    let distinct = req.explode().len() as u64;

    // Interleaving A: N clients fire the identical sweep simultaneously.
    // Interleaving B: one connection pipelines it back-to-back.
    // Interleaving C: sequential fresh connections.
    for (label, workers, clients, sequential) in [
        ("simultaneous", 4, 4, false),
        ("pipelined", 1, 1, false),
        ("sequential", 2, 3, true),
    ] {
        let (addr, handle) = spawn_server(workers);
        if sequential {
            for _ in 0..clients {
                let mut c = Client::connect(&addr.to_string()).expect("connect");
                c.sweep(&req).expect("sweep");
            }
        } else if clients == 1 {
            let mut c = Client::connect(&addr.to_string()).expect("connect");
            for _ in 0..3 {
                c.sweep(&req).expect("sweep");
            }
        } else {
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    scope.spawn(|| {
                        let mut c = Client::connect(&addr.to_string()).expect("connect");
                        c.sweep(&req).expect("sweep");
                    });
                }
            });
        }
        let mut c = Client::connect(&addr.to_string()).expect("connect");
        assert_eq!(
            stat(&mut c, "executed"),
            distinct,
            "interleaving `{label}`: executions exceed distinct keys"
        );
        shutdown(addr, handle);
    }
}

/// Shutdown drains: the daemon acknowledges, stops accepting sweeps, and
/// `Server::run` returns.
#[test]
fn shutdown_drains_and_rejects_new_sweeps() {
    let (addr, handle) = spawn_server(2);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let req = sweep(1, &[Workload::Counter], &[System::Eager], &[1]);
    client.sweep(&req).expect("sweep before drain");

    assert_eq!(client.shutdown().expect("shutdown ack"), "draining");
    // The drained daemon rejects further sweeps on this connection...
    let err = client.sweep(&req).expect_err("sweep after drain");
    assert!(err.contains("draining"), "unexpected error: {err}");
    handle.join().expect("server thread").expect("server run");
    // ...and accepts no new connections once run() returned.
    assert!(
        Client::connect(&addr.to_string()).is_err() || {
            let mut c = Client::connect(&addr.to_string()).expect("connect");
            c.sweep(&req).is_err()
        }
    );
}
