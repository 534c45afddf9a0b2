//! The ISSUE-3 zero-allocation guarantee, enforced: once caches, maps and
//! speculative structures are warm, the steady-state access loop — probe,
//! conflict check, coherence transition, speculative mark, commit-time
//! clear — performs no heap allocation at all.
//!
//! The test binary swaps in a counting global allocator and asserts that
//! the heap-event counter (allocs + reallocs + frees) does not move across
//! tens of thousands of hot-path iterations.
//!
//! The workspace-level `tests/no_alloc_machine.rs` extends this proof from
//! the bare memory system to whole `Machine::run` executions under every
//! protocol.

use retcon_isa::Addr;
use retcon_mem::{AccessKind, CoreId, MemConfig, MemorySystem};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

const C0: CoreId = CoreId(0);
const C1: CoreId = CoreId(1);

/// Asserts that at least one of `attempts` runs of `hot_loop` completes
/// with zero heap events.
///
/// The counters are process-global, so the test-harness thread can land a
/// stray allocation inside a measurement window (observed: ~2 events every
/// few runs on the single-CPU container). The hot loop itself is
/// deterministic — if *it* allocated, every attempt would observe events —
/// so demanding one clean window keeps the guarantee sharp while shrugging
/// off harness noise.
fn assert_some_window_is_allocation_free(mut hot_loop: impl FnMut(), what: &str) {
    const ATTEMPTS: usize = 5;
    let mut observed = Vec::new();
    for _ in 0..ATTEMPTS {
        let before = alloc_counter::heap_events();
        hot_loop();
        let events = alloc_counter::heap_events() - before;
        if events == 0 {
            return;
        }
        observed.push(events);
    }
    panic!("{what}: every one of {ATTEMPTS} windows saw heap events: {observed:?}");
}

/// One transaction's worth of warm traffic: speculative reads and writes
/// over a small block set, conflict probes from a remote core, then the
/// commit-time clear.
fn hot_iteration(ms: &mut MemorySystem) {
    for i in 0..4u64 {
        let addr = Addr(i * 8);
        assert!(ms.conflict_mask_of(C0, addr, AccessKind::Read).is_empty());
        let plan = ms.plan(C0, addr, AccessKind::Read);
        ms.access_planned(&plan, true);
    }
    for i in 0..4u64 {
        let addr = Addr(i * 8);
        assert!(ms.conflict_mask_of(C0, addr, AccessKind::Write).is_empty());
        let plan = ms.plan(C0, addr, AccessKind::Write);
        ms.access_planned(&plan, true);
        ms.write_word(addr, i + 1);
    }
    // Remote probes against live speculative state (conflicting and not):
    // the conflict set stays inline, allocation-free.
    for i in 0..4u64 {
        let addr = Addr(i * 8);
        assert!(ms.has_conflicts(C1, addr, AccessKind::Read));
        assert!(ms.spec_bits(C0, addr.block()).written);
        let set = ms.conflict_set(C1, addr, AccessKind::Read);
        assert_eq!(set.len(), 1);
    }
    assert!(!ms.has_conflicts(C1, Addr(64), AccessKind::Write));
    // Commit: clear all speculative bits.
    assert_eq!(ms.clear_spec(C0), 4);
}

/// One test function (not two): with process-global counters, a second
/// `#[test]` on a parallel harness thread would land its setup allocations
/// inside this one's measurement windows.
#[test]
fn warm_hot_paths_do_not_allocate() {
    // --- Speculative transaction loop ---
    let mut ms: MemorySystem = MemorySystem::new(MemConfig::default(), 4);
    // Warm-up: fault in pages, grow the spec/mask/directory tables, and let
    // every structure reach its steady-state capacity.
    for _ in 0..16 {
        hot_iteration(&mut ms);
    }
    assert_some_window_is_allocation_free(
        || {
            for _ in 0..10_000 {
                hot_iteration(&mut ms);
            }
        },
        "speculative transaction loop",
    );

    // --- Pure cache-hit loop of a non-speculative workload phase ---
    let mut ms: MemorySystem = MemorySystem::new(MemConfig::default(), 2);
    for i in 0..8u64 {
        ms.access(C0, Addr(i), AccessKind::Read, false);
        ms.write_word(Addr(i), i);
    }
    assert_some_window_is_allocation_free(
        || {
            for round in 0..10_000u64 {
                let addr = Addr(round % 8);
                let plan = ms.plan(C0, addr, AccessKind::Read);
                ms.access_planned(&plan, false);
                let _ = ms.read_word(addr);
                let plan = ms.plan(C0, addr, AccessKind::Write);
                ms.access_planned(&plan, false);
                ms.write_word(addr, round | 1);
            }
        },
        "uncontended cache-hit loop",
    );
}
