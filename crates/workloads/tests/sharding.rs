//! Sharded execution must be byte-identical to serial replay.
//!
//! `run_spec_sized` with `shards > 1` partitions the cores into contiguous
//! ranges, runs each on its own machine, verifies the block footprints are
//! pairwise disjoint, and merges. These tests pin the whole contract at
//! the serialization boundary: the merged report's JSON must be *equal as
//! bytes* to the serial run's, at every size class the shards cross.

use retcon_workloads::{run, run_spec, run_spec_sized, System, Workload};

/// Serial vs sharded, compared on the serialized report.
fn assert_shard_identity(cores: usize, shards: usize, system: System) {
    let spec = Workload::ScalingXl.build(cores, 42);
    let serial = run_spec_sized(&spec, system, cores, 1).expect("serial run completes");
    let sharded = run_spec_sized(&spec, system, cores, shards).expect("sharded run completes");
    let a = serial.to_json().to_string();
    let b = sharded.to_json().to_string();
    assert_eq!(a, b, "{system:?} @ {cores} cores / {shards} shards");
}

#[test]
fn sharded_256_cores_matches_serial_bytes() {
    // The ISSUE's headline gate: 256 cores (4-word CoreSet class), at
    // least two shards, byte-identical records.
    assert_shard_identity(256, 2, System::Retcon);
}

#[test]
fn sharded_256_cores_four_shards_eager() {
    assert_shard_identity(256, 4, System::Eager);
}

#[test]
fn sharded_96_cores_uneven_split() {
    // 96 cores over 4 shards = 24 each (3 whole groups): exercises the
    // 2-word class and a shard size that is not a power of two.
    assert_shard_identity(96, 4, System::LazyVb);
}

#[test]
fn xl_1024_cores_runs_to_completion_sharded() {
    // The widest size class, sharded; the merge must agree with serial.
    let cores = 1024;
    let spec = Workload::ScalingXl.build(cores, 7);
    let serial = run_spec_sized(&spec, System::Retcon, cores, 1).expect("serial 1024-core run");
    let sharded = run_spec_sized(&spec, System::Retcon, cores, 4).expect("sharded 1024-core run");
    assert_eq!(serial.per_core.len(), cores);
    assert_eq!(
        serial.to_json().to_string(),
        sharded.to_json().to_string(),
        "1024-core sharded run must replay serial bytes"
    );
    // Every transaction of every group commits.
    assert_eq!(serial.protocol.commits, 1024 * 64);
}

#[test]
fn overlapping_footprints_fall_back_to_serial() {
    // `counter` (sans barrier it would still share one block) overlaps by
    // construction; the sharded entry must detect it or refuse up front
    // (counter has a barrier, so it is refused) and still return the
    // serial answer. Use a barrier-free overlap: every core of
    // scaling_xl's first group plus a manual shard cut through the group.
    // 8 cores / 2 shards cuts group 0 in half -> both shards touch block
    // 0 -> fallback. The report must equal the serial one.
    let spec = Workload::ScalingXl.build(8, 3);
    let serial = run_spec_sized(&spec, System::Eager, 8, 1).expect("serial");
    let sharded = run_spec_sized(&spec, System::Eager, 8, 2).expect("fallback");
    assert_eq!(
        serial.to_json().to_string(),
        sharded.to_json().to_string(),
        "overlap fallback must replay serial bytes"
    );
}

#[test]
fn barrier_workloads_are_refused_and_run_serially() {
    // `counter` ends in a barrier: the sharded entry must take the serial
    // path and agree with run_spec.
    let spec = Workload::Counter.build(4, 0);
    let direct = run_spec(&spec, System::Retcon, 4).expect("direct");
    let via_sized = run_spec_sized(&spec, System::Retcon, 4, 2).expect("sized");
    assert_eq!(
        direct.to_json().to_string(),
        via_sized.to_json().to_string()
    );
}

#[test]
fn unsupported_core_count_is_a_clear_error() {
    let spec = Workload::ScalingXl.build(4, 0);
    for err in [
        run_spec_sized(&spec, System::Eager, 1025, 1).unwrap_err(),
        run_spec(&spec, System::Eager, 1025).unwrap_err(),
    ] {
        let msg = err.to_string();
        assert!(
            msg.contains("1025") && msg.contains("1024"),
            "error must name the request and the ceiling: {msg}"
        );
    }
    // Up to the ceiling `run`/`run_spec` take the same size-class
    // dispatch as `run_spec_sized` (they used to stop at 64 cores).
    let spec = Workload::ScalingXl.build(128, 0);
    let sized = run_spec_sized(&spec, System::Eager, 128, 1).expect("sized");
    let plain = run_spec(&spec, System::Eager, 128).expect("run_spec at 128 cores");
    let built = run(Workload::ScalingXl, System::Eager, 128, 0).expect("run at 128 cores");
    assert_eq!(sized.to_json().to_string(), plain.to_json().to_string());
    assert_eq!(sized.to_json().to_string(), built.to_json().to_string());
}
