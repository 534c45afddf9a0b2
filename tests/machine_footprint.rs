//! The machine's heap footprint, pinned: a machine pays for the cache sets
//! its run touches, not for the 4 352 sets per core the Table 1 hierarchy
//! has — neither in lines nor, for an array that touches a handful of
//! sets, in the index over them. Ceilings sit between these numbers and
//! the always-allocated per-set index of before (EXPERIMENTS.md, "Machine
//! footprint"), so a per-set cost creeping back fails here first. One
//! run's peak live heap is pinned the same way, so a per-transaction table
//! that grows with the address space instead of the footprint fails here
//! too, and so does a row index that costs more than one offset per set.
//!
//! Bytes are what the program requested from the allocator (counted by the
//! vendored `alloc-counter`), not resident pages: exact and host-independent.

use retcon_sim::{Machine, SimConfig};
use retcon_workloads::{machine_for_sized, System, Workload, WorkloadSpec};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

const MIB: u64 = 1 << 20;

/// Builds the RetCon machine `spec` runs on and counts the bytes that
/// requested from the allocator, cumulatively: an upper bound on what the
/// machine holds.
fn retcon_machine<const N: usize>(spec: &WorkloadSpec) -> (Machine<N>, u64) {
    let cores = spec.num_cores();
    let before = alloc_counter::bytes_allocated();
    let machine = machine_for_sized::<N>(
        spec,
        System::Retcon.protocol_sized::<N>(cores),
        SimConfig::with_cores(cores),
    );
    (machine, alloc_counter::bytes_allocated() - before)
}

fn scaling_xl_machine_bytes<const N: usize>(cores: usize) -> u64 {
    retcon_machine::<N>(&Workload::ScalingXl.build(cores, 42)).1
}

/// One test function (not several): the counters are process-global, so a
/// second `#[test]` on a parallel harness thread would land its
/// allocations inside these windows.
#[test]
fn machine_footprint_stays_within_budget() {
    // Peak live heap first: `peak_live_bytes` is a high-water mark over the
    // whole process, so nothing bigger may have been built before. 34.3 MiB
    // when each core's undo log, write buffer and value log indexed words
    // through a dense array grown to the highest word it ever logged;
    // 3 697 503 bytes when every array allocated its per-set row index up
    // front. Here every array of the run outgrows its short list, so the
    // ceiling is that peak plus 1 %.
    let vacation = Workload::Vacation {
        optimized: false,
        resizable: false,
    }
    .build(32, 42);
    let mut machine = machine_for_sized::<1>(
        &vacation,
        System::LazyVb.protocol_sized::<1>(32),
        SimConfig::with_cores(32),
    );
    machine.run().expect("vacation@32 completes under lazy-vb");
    drop(machine);
    let peak = alloc_counter::peak_live_bytes();
    println!("vacation@32 lazy-vb run: peak live heap {peak} bytes");
    let ceiling = 3_697_503 * 101 / 100;
    assert!(
        peak <= ceiling,
        "a vacation@32 lazy-vb run peaked at {peak} live heap bytes (> {ceiling})"
    );

    // The EXPERIMENTS.md table (`--nocapture` shows it). 1024 cores, the
    // 16-word CoreSet class: 105.5 MiB with eager sets, 20.6 MiB with a
    // per-set row index allocated up front.
    let by_cores = [
        (8, scaling_xl_machine_bytes::<1>(8)),
        (32, scaling_xl_machine_bytes::<1>(32)),
        (128, scaling_xl_machine_bytes::<2>(128)),
        (1024, scaling_xl_machine_bytes::<16>(1024)),
    ];
    for (cores, bytes) in by_cores {
        println!("scaling_xl machine, {cores} cores: {bytes} bytes");
    }
    let (_, bytes) = by_cores[3];
    assert!(
        bytes <= 8 * MIB,
        "a 1024-core scaling_xl machine allocated {bytes} bytes (> 8 MiB)"
    );

    // 32 cores: 3.59 MiB with eager sets, 0.93 MiB with a per-set row
    // index allocated up front.
    let python = Workload::Python { optimized: false }.build(32, 42);
    let (mut machine, bytes) = retcon_machine::<1>(&python);
    println!("python machine, 32 cores: {bytes} bytes");
    assert!(
        bytes <= 3 * MIB / 4,
        "a 32-core python machine allocated {bytes} bytes (> 0.75 MiB)"
    );

    // One run: ~72 k allocations when every touched set was its own Vec.
    let before = alloc_counter::allocations();
    machine.run().expect("python@32 completes under RetCon");
    let allocations = alloc_counter::allocations() - before;
    println!("python@32 RetCon run: {allocations} allocations");
    assert!(
        allocations < 50_000,
        "one python@32 RetCon run made {allocations} allocations (>= 50 000)"
    );
}
