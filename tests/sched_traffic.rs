//! Scheduler work counters (the scheduler layer of ROADMAP's measurement
//! spine): how often the default policy is consulted per retired
//! instruction, and how many of its pushes miss the timing wheel's window
//! and fall to the far heap. Both are exact per input — a pure function of
//! the simulated run — so a change that moves either one changed the
//! batching contract or the wheel, not the host.
//!
//! `cargo test --test sched_traffic -- --nocapture` prints the table that
//! EXPERIMENTS.md "Scheduler traffic" quotes.

use retcon_sim::{DeterministicMin, SimConfig};
use retcon_workloads::{machine_for_sized, System, Workload};

struct Row {
    instructions: u64,
    pops: u64,
    pushes: u64,
    far_pushes: u64,
}

fn traffic<const N: usize>(workload: Workload, system: System, cores: usize) -> Row {
    let spec = workload.build(cores, 42);
    let mut machine = machine_for_sized::<N>(
        &spec,
        system.protocol_sized(cores),
        SimConfig::with_cores(cores),
    );
    let mut schedule = DeterministicMin::new();
    let report = machine.run_with(&mut schedule).expect("run completes");
    let stats = schedule.stats();
    Row {
        instructions: report.total_instructions(),
        pops: stats.pops,
        pushes: stats.near_pushes + stats.far_pushes,
        far_pushes: stats.far_pushes,
    }
}

impl Row {
    fn pops_per_instruction(&self) -> f64 {
        self.pops as f64 / self.instructions as f64
    }

    fn far_share(&self) -> f64 {
        self.far_pushes as f64 / self.pushes as f64
    }

    fn print_header() {
        println!(
            "{:<24} {:>12} {:>12} {:>10} {:>12} {:>10}",
            "run", "instructions", "pops", "pops/instr", "pushes", "far share"
        );
    }

    fn print(&self, label: &str) {
        println!(
            "{label:<24} {:>12} {:>12} {:>10.4} {:>12} {:>10.4}",
            self.instructions,
            self.pops,
            self.pops_per_instruction(),
            self.pushes,
            self.far_share()
        );
    }
}

#[test]
fn pops_per_instruction_and_far_share_are_pinned() {
    let python = Workload::Python { optimized: false };
    // (label, measured row, pinned pops per instruction). A storm parks
    // until a watched block moves, so its retries cost no pops; before
    // parking they were polled at 2.0736 / 1.5317 / 1.0051.
    let rows = [
        (
            "python@32 eager",
            traffic::<1>(python, System::Eager, 32),
            1.0022,
        ),
        (
            "python@32 RetCon",
            traffic::<1>(python, System::Retcon, 32),
            0.7747,
        ),
        (
            "scaling_xl@1024 RetCon",
            traffic::<16>(Workload::ScalingXl, System::Retcon, 1024),
            1.0026,
        ),
    ];
    Row::print_header();
    for (label, row, pinned) in &rows {
        row.print(label);
        let (per_instr, far_share) = (row.pops_per_instruction(), row.far_share());
        // Parked storms no longer re-queue a retry or two cycles ahead, so
        // the near pushes they made are gone: python@32 eager's far share
        // rose 0.183 -> 0.281 while its far pushes fell ~256 k -> ~190 k.
        assert!(
            far_share <= 0.30,
            "{label}: {far_share:.3} of pushes miss the wheel — the far heap is carrying the run"
        );
        assert!(
            (per_instr / pinned - 1.0).abs() <= 0.01,
            "{label}: {per_instr:.4} pops per instruction, pinned at {pinned}"
        );
    }
}

/// The same table over every Figure 9 workload at 32 cores, for
/// EXPERIMENTS.md; pins nothing. Run it in a release build:
/// `cargo test --release --test sched_traffic -- --ignored --nocapture`.
#[test]
#[ignore = "prints a table; asserts nothing"]
fn traffic_table_over_the_paper_workloads() {
    Row::print_header();
    for workload in Workload::fig9() {
        for system in [System::Eager, System::Retcon] {
            let label = format!("{}@32 {}", workload.label(), system.label());
            traffic::<1>(workload, system, 32).print(&label);
        }
    }
}
