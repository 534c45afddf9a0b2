//! The machine's heap footprint, pinned: a machine pays for the cache sets
//! its run touches, not for the 4 352 sets per core the Table 1 hierarchy
//! has — neither in lines nor, for an array that touches a handful of
//! sets, in the index over them. Ceilings sit between these numbers and
//! the always-allocated per-set index of before (EXPERIMENTS.md, "Machine
//! footprint"), so a per-set cost creeping back fails here first. Three
//! runs' peak live heaps are pinned to 1 % over their measured values, so
//! a per-transaction or per-core table that grows with the address space
//! instead of the footprint fails here too, and so does a row index that
//! costs more than one offset per set, a cache line wider than one word or
//! a machine that copies its programs.
//!
//! Bytes are what the program requested from the allocator (counted by the
//! vendored `alloc-counter`), not resident pages: exact and host-independent.

use retcon_sim::{Machine, SimConfig};
use retcon_workloads::{machine_for_sized, System, Workload, WorkloadSpec};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

const MIB: u64 = 1 << 20;

/// Peak live heap of one vacation@32 lazy-vb run, measured.
const VACATION_PEAK: u64 = 1_844_171;
/// Peak live heap of one vacation_opt-sz@32 RetCon run, measured.
const VACATION_SZ_PEAK: u64 = 2_035_250;
/// Peak live heap of one python@32 RetCon run, measured.
const PYTHON_PEAK: u64 = 2_665_864;

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

/// Runs `f` and returns its result and the highest the live heap rose
/// above where it stood when `f` began.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = alloc_counter::live_bytes();
    alloc_counter::reset_peak_live_bytes();
    let out = f();
    (out, alloc_counter::peak_live_bytes() - base)
}

/// One test function (not several): the counters are process-global, so a
/// second `#[test]` on a parallel harness thread would land its
/// allocations inside these windows.
#[test]
fn machine_footprint_stays_within_budget() {
    // Peak live heap of building and running the machine: 34.3 MiB when
    // each core's undo log, write buffer and value log indexed words
    // through a dense array grown to the highest word it ever logged;
    // 3 480 391 bytes when a tag array's line was 24 bytes (3 699 094 with
    // the workload's build and the harness counted in); 1 907 015 bytes
    // when the machine held its own copy of the programs. Here every array
    // of the run outgrows its short list, so the ceiling is this peak
    // plus 1 %.
    let vacation = Workload::Vacation {
        optimized: false,
        resizable: false,
    }
    .build(32, 42);
    let ((), peak) = peak_heap(|| {
        let mut machine = machine_for_sized::<1>(
            &vacation,
            System::LazyVb.protocol_sized::<1>(32),
            SimConfig::with_cores(32),
        );
        machine.run().expect("vacation@32 completes under lazy-vb");
    });
    println!("vacation@32 lazy-vb run: peak live heap {peak} bytes");
    let ceiling = VACATION_PEAK * 101 / 100;
    assert!(
        peak <= ceiling,
        "a vacation@32 lazy-vb run peaked at {peak} live heap bytes (> {ceiling})"
    );

    // The EXPERIMENTS.md table (`--nocapture` shows it). 1024 cores, the
    // 16-word CoreSet class: 105.5 MiB with eager sets, 20.6 MiB with a
    // per-set row index allocated up front, 3 637 248 bytes when the
    // machine copied its programs out of the spec.
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
        bytes <= 13 * MIB / 4,
        "a 1024-core scaling_xl machine allocated {bytes} bytes (> 3.25 MiB)"
    );

    // 32 cores: 3.59 MiB with eager sets, 0.93 MiB with a per-set row
    // index allocated up front. A run: ~72 k allocations when every
    // touched set was its own Vec; a peak live heap of 6 373 120 bytes
    // when a tag array's line was 24 bytes, 3 226 880 bytes when each
    // core's predictor was a dense table and the machine copied its
    // programs. The ceiling is the peak plus 1 %, as for vacation.
    // vacation_opt-sz trains each RetCon core's predictor on blocks far
    // up the address space: 6.6 MiB of RSS when that predictor was a
    // dense table reaching the highest block it saw (4 364 772 bytes of
    // peak live heap). The ceiling is the peak plus 1 %.
    let vacation_sz = Workload::Vacation {
        optimized: true,
        resizable: true,
    }
    .build(32, 42);
    let ((), peak) = peak_heap(|| {
        let (mut machine, _) = retcon_machine::<1>(&vacation_sz);
        machine
            .run()
            .expect("vacation_opt-sz@32 completes under RetCon");
    });
    println!("vacation_opt-sz@32 RetCon run: peak live heap {peak} bytes");
    let ceiling = VACATION_SZ_PEAK * 101 / 100;
    assert!(
        peak <= ceiling,
        "a vacation_opt-sz@32 RetCon run peaked at {peak} live heap bytes (> {ceiling})"
    );

    let python = Workload::Python { optimized: false }.build(32, 42);
    let ((bytes, allocations), peak) = peak_heap(|| {
        let (mut machine, bytes) = retcon_machine::<1>(&python);
        let before = alloc_counter::allocations();
        machine.run().expect("python@32 completes under RetCon");
        (bytes, alloc_counter::allocations() - before)
    });
    println!("python machine, 32 cores: {bytes} bytes");
    assert!(
        bytes <= 3 * MIB / 4,
        "a 32-core python machine allocated {bytes} bytes (> 0.75 MiB)"
    );
    println!("python@32 RetCon run: {allocations} allocations, peak live heap {peak} bytes");
    assert!(
        allocations < 50_000,
        "one python@32 RetCon run made {allocations} allocations (>= 50 000)"
    );
    let ceiling = PYTHON_PEAK * 101 / 100;
    assert!(
        peak <= ceiling,
        "a python@32 RetCon run peaked at {peak} live heap bytes (> {ceiling})"
    );
}
