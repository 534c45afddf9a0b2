//! End-to-end assertions of the paper's headline quantitative claims, at a
//! reduced scale (8 cores) so they run quickly in CI. The full 32-core
//! numbers are regenerated by `retcon-lab -- run <dataset>`.

use retcon_workloads::{run, sequential_baseline, System, Workload};

const CORES: usize = 8;
const SEED: u64 = 42;

fn speedup(w: Workload, s: System) -> f64 {
    speedup_at(w, s, CORES)
}

fn speedup_at(w: Workload, s: System, cores: usize) -> f64 {
    let seq = sequential_baseline(w, SEED).expect("seq");
    run(w, s, cores, SEED).expect("runs").speedup_over(seq)
}

/// §5.2: "RETCON transforms python_opt from a workload that has no scaling
/// ... to one that has near-linear scaling."
#[test]
fn retcon_transforms_python_opt() {
    let w = Workload::Python { optimized: true };
    let eager = speedup(w, System::Eager);
    let lazy_vb = speedup(w, System::LazyVb);
    let retcon = speedup(w, System::Retcon);
    assert!(eager < 3.0, "eager python_opt should not scale: {eager:.1}");
    assert!(
        lazy_vb < 4.0,
        "lazy-vb python_opt should not scale: {lazy_vb:.1}"
    );
    assert!(
        retcon > 0.6 * CORES as f64,
        "RETCON python_opt should be near-linear: {retcon:.1} on {CORES} cores"
    );
}

/// §5.2: RETCON makes the -sz variants "insensitive to whether the
/// hashtable is fixed-size or resizable".
#[test]
fn retcon_makes_sz_variants_insensitive() {
    let pairs = [
        (
            Workload::Genome { resizable: false },
            Workload::Genome { resizable: true },
        ),
        (
            Workload::Intruder {
                optimized: true,
                resizable: false,
            },
            Workload::Intruder {
                optimized: true,
                resizable: true,
            },
        ),
        (
            Workload::Vacation {
                optimized: true,
                resizable: false,
            },
            Workload::Vacation {
                optimized: true,
                resizable: true,
            },
        ),
    ];
    for (fixed, sz) in pairs {
        // Under eager, resizable is much worse than fixed.
        let eager_fixed = speedup(fixed, System::Eager);
        let eager_sz = speedup(sz, System::Eager);
        assert!(
            eager_sz < 0.8 * eager_fixed,
            "{}: eager should punish the size field ({eager_sz:.1} vs {eager_fixed:.1})",
            sz.label()
        );
        // Under RETCON, the two are close.
        let retcon_fixed = speedup(fixed, System::Retcon);
        let retcon_sz = speedup(sz, System::Retcon);
        assert!(
            retcon_sz > 0.75 * retcon_fixed,
            "{}: RETCON should be insensitive ({retcon_sz:.1} vs {retcon_fixed:.1})",
            sz.label()
        );
    }
}

/// §5.2: RETCON gives "a speedup of at least 40% on several workloads"
/// over lazy-vb.
#[test]
fn retcon_speedup_over_lazy_vb_on_auxiliary_workloads() {
    for w in [
        Workload::Genome { resizable: true },
        Workload::Intruder {
            optimized: true,
            resizable: true,
        },
        Workload::Vacation {
            optimized: true,
            resizable: true,
        },
        Workload::Python { optimized: true },
    ] {
        let lazy_vb = speedup(w, System::LazyVb);
        let retcon = speedup(w, System::Retcon);
        assert!(
            retcon > 1.4 * lazy_vb,
            "{}: expected ≥40% over lazy-vb, got {retcon:.1} vs {lazy_vb:.1}",
            w.label()
        );
    }
}

/// §5.4: "there are three workloads with significant conflicts that RETCON
/// does not greatly affect: the unmodified variants of intruder, yada, and
/// python."
#[test]
fn retcon_does_not_rescue_address_feeding_workloads() {
    for w in [
        Workload::Intruder {
            optimized: false,
            resizable: false,
        },
        Workload::Yada,
        Workload::Python { optimized: false },
    ] {
        let eager = speedup(w, System::Eager);
        let retcon = speedup(w, System::Retcon);
        assert!(
            retcon < 2.0 * eager.max(1.0),
            "{}: RETCON should not rescue ({retcon:.1} vs eager {eager:.1})",
            w.label()
        );
    }
}

/// §3: the software restructurings rescue intruder and vacation.
#[test]
fn software_restructurings_rescue_intruder_and_vacation() {
    let intruder = speedup(
        Workload::Intruder {
            optimized: false,
            resizable: false,
        },
        System::Eager,
    );
    let intruder_opt = speedup(
        Workload::Intruder {
            optimized: true,
            resizable: false,
        },
        System::Eager,
    );
    assert!(intruder_opt > 2.0 * intruder);

    // Vacation's rebalance serialization (one tx in 16) only caps scaling
    // once the core count clears the Amdahl knee — compare at full scale.
    let vacation = speedup_at(
        Workload::Vacation {
            optimized: false,
            resizable: false,
        },
        System::Eager,
        32,
    );
    let vacation_opt = speedup_at(
        Workload::Vacation {
            optimized: true,
            resizable: false,
        },
        System::Eager,
        32,
    );
    assert!(
        vacation_opt > 1.3 * vacation,
        "{vacation_opt:.1} vs {vacation:.1}"
    );
}

/// §5.1: lazy-vb's only significant wins over the baseline are vacation and
/// vacation_opt-sz — and on vacation it does win.
#[test]
fn lazy_vb_helps_vacation_base() {
    let w = Workload::Vacation {
        optimized: false,
        resizable: false,
    };
    let eager = speedup_at(w, System::Eager, 32);
    let lazy_vb = speedup_at(w, System::LazyVb, 32);
    assert!(
        lazy_vb > 1.3 * eager,
        "lazy-vb should avoid vacation's blind-write conflicts: {lazy_vb:.1} vs {eager:.1}"
    );
}

/// Table 3's structural claims: small buffers suffice and commit overhead
/// is a few percent of transaction lifetime.
#[test]
fn table3_structures_stay_small() {
    for w in [
        Workload::Genome { resizable: true },
        Workload::Python { optimized: true },
    ] {
        let report = run(w, System::Retcon, CORES, SEED).expect("runs");
        let rs = report.retcon.expect("stats");
        assert!(rs.max.blocks_tracked <= 16, "{}", w.label());
        assert!(rs.max.private_stores <= 32, "{}", w.label());
        assert!(rs.max.constraint_addrs <= 16 + 8, "{}", w.label());
        assert!(
            rs.commit_stall_percent() < 15.0,
            "{}: commit stall {:.1}%",
            w.label(),
            rs.commit_stall_percent()
        );
    }
}
