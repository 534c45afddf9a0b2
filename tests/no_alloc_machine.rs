//! The zero-allocation guarantee, extended from the memory-system access
//! loop (`crates/mem/tests/no_alloc.rs`) to whole `Machine::run`
//! executions: once every structure has reached its steady-state capacity,
//! running *more transactions* through the full simulator — interpreter,
//! protocol, engine, coherence, scheduler — allocates nothing extra.
//!
//! Methodology: direct window measurement cannot work here (`Machine::new`
//! and the final report legitimately allocate), so the test compares the
//! total heap events of an N-iteration run against a 2N-iteration run of
//! the *same* workload shape. Construction, warm-up growth and reporting
//! are identical on both sides (same addresses, same structure
//! capacities), so any difference is steady-state allocation — and the
//! assertion is that there is none.
//!
//! Coverage: every protocol on a conflict-free per-core counter, and the
//! contended shared counter for *every* protocol — eager (scratch victim
//! buffer), lazy (committer-wins mask walk), lazy-vb (epoch-stamped value
//! log), both RETCON configurations (scratch repair buffers, inline
//! register updates, epoch-stamped footprints), and DATM (reusable
//! cascading-abort worklists + bitmask visited set, the last conflict path
//! that used to allocate).

use retcon_isa::{Addr, BinOp, CmpOp, Operand, Program, ProgramBuilder, Reg, WORDS_PER_BLOCK};
use retcon_sim::{Machine, SimConfig};
use retcon_workloads::System;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// `iters` transactional double-increments of the counter at `addr`.
fn counter_program(addr: u64, iters: u64) -> Program {
    let mut b = ProgramBuilder::new();
    let body = b.block();
    let done = b.block();
    b.imm(Reg(0), iters);
    b.imm(Reg(1), addr);
    b.jump(body);
    b.select(body);
    b.tx_begin();
    b.load(Reg(2), Reg(1), 0);
    b.add_imm(Reg(2), 1);
    b.store(Operand::Reg(Reg(2)), Reg(1), 0);
    b.load(Reg(2), Reg(1), 0);
    b.add_imm(Reg(2), 1);
    b.store(Operand::Reg(Reg(2)), Reg(1), 0);
    b.tx_commit();
    b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
    b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
    b.select(done);
    b.halt();
    b.build().unwrap()
}

/// Heap events of one complete build-and-run: `shared` puts every core on
/// one counter (maximum contention), otherwise each core increments its
/// own block-private counter.
fn heap_events_of_run(system: System, cores: usize, iters: u64, shared: bool) -> u64 {
    let before = alloc_counter::heap_events();
    let programs: Vec<_> = (0..cores)
        .map(|c| {
            let addr = if shared {
                0
            } else {
                c as u64 * WORDS_PER_BLOCK
            };
            counter_program(addr, iters)
        })
        .collect();
    let mut m = Machine::new(
        SimConfig::with_cores(cores),
        system.protocol(cores),
        programs,
    );
    let report = m.run().expect("run completes");
    let expected = if shared {
        2 * iters * cores as u64
    } else {
        2 * iters
    };
    assert_eq!(report.protocol.commits, iters * cores as u64);
    if shared {
        assert_eq!(m.mem().read_word(Addr(0)), expected);
    } else {
        for c in 0..cores {
            assert_eq!(
                m.mem().read_word(Addr(c as u64 * WORDS_PER_BLOCK)),
                expected
            );
        }
    }
    alloc_counter::heap_events() - before
}

/// Asserts that doubling the transaction count adds zero heap events, i.e.
/// the steady state allocates nothing. The counters are process-global, so
/// harness noise can land inside a window; like the mem-level test, one
/// clean pair out of a few attempts keeps the guarantee sharp.
fn assert_steady_state_allocation_free(system: System, cores: usize, shared: bool, what: &str) {
    const ATTEMPTS: usize = 5;
    let mut observed = Vec::new();
    for _ in 0..ATTEMPTS {
        let short = heap_events_of_run(system, cores, 100, shared);
        let long = heap_events_of_run(system, cores, 200, shared);
        if long == short {
            return;
        }
        observed.push(long as i64 - short as i64);
    }
    panic!(
        "{what} under {}: doubling iterations changed heap events in every \
         one of {ATTEMPTS} attempts: {observed:?}",
        system.label()
    );
}

/// One test function (not several): with process-global counters, a second
/// `#[test]` on a parallel harness thread would land its allocations
/// inside this one's measurement windows.
#[test]
fn machine_run_steady_state_does_not_allocate() {
    // Conflict-free per-core counters: every protocol must be
    // allocation-free once warm.
    for system in System::ALL {
        assert_steady_state_allocation_free(system, 4, false, "private counter");
    }
    // The contended shared counter: conflict resolution, stall storms,
    // aborts, cascades, steals and symbolic repair are all
    // allocation-free once warm — DATM included, whose cascading aborts
    // fire constantly at max contention.
    for system in [
        System::Eager,
        System::Lazy,
        System::LazyVb,
        System::Retcon,
        System::RetconIdeal,
        System::Datm,
    ] {
        assert_steady_state_allocation_free(system, 4, true, "shared counter");
    }
}
