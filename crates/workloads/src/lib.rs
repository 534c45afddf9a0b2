//! Workload models for the RETCON evaluation (Table 2 of the paper).
//!
//! The paper evaluates on the STAMP suite plus a transactionalized CPython.
//! We cannot run the original C programs on our IR, so each benchmark is
//! re-implemented as a *transaction-level kernel* that reproduces the
//! sharing structure the paper documents — because that structure, not the
//! instruction mix, is what drives every result:
//!
//! | workload | documented conflict source reproduced here |
//! |---|---|
//! | `counter` | the Figure 2 micro-schedule: two increments per transaction on one shared counter |
//! | `genome`(-sz) | hashtable inserts; `-sz` adds the shared **size-field increment** on every insert |
//! | `intruder` | two hot shared queues whose head/tail **feed addresses**, plus tree-rebalance conflicts |
//! | `intruder_opt`(-sz) | thread-private queues + hashtable map; `-sz` re-adds the size field |
//! | `kmeans` | cluster-centre updates using untrackable (multiply) computation |
//! | `labyrinth` | long transactions with variable path length → load imbalance (barrier time) |
//! | `ssca2` | tiny transactions with scattered writes → coherence-miss bound |
//! | `vacation`(_opt, -sz) | read-mostly reservations; base adds rebalance conflicts; `-sz` the size field |
//! | `yada` | pointer-chasing cavities whose **loaded values feed addresses** — unrepairable |
//! | `python`(_opt) | **reference-count** updates on hot shared objects; base adds an address-feeding shared free-list pointer |
//!
//! Each builder returns a [`WorkloadSpec`]: one program per core, per-core
//! input tapes (pre-randomized keys — deterministic under any
//! interleaving), and initial memory contents. [`run_spec_opts`] is the
//! one run path — size-class dispatch, sharding, tracing — and [`run`]
//! and friends are its fixed-option shorthands;
//! [`sequential_baseline`] runs the whole workload on one core for the
//! speedup denominators of Figures 1, 3 and 9.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod counter;
pub mod explore;
mod genome;
pub mod hashtable;
mod intruder;
mod kmeans;
mod labyrinth;
mod python;
mod rng;
mod scaling_xl;
mod spec;
mod ssca2;
mod vacation;
mod yada;

pub use counter::total_transactions as counter_total_transactions;
pub use hashtable::HashTable;
pub use rng::SplitMix64;
pub use scaling_xl::{
    expected_group_total as scaling_xl_group_total, GROUP_CORES as SCALING_XL_GROUP_CORES,
};
pub use spec::{Alloc, WorkloadSpec};

use retcon::RetconConfig;
use retcon_isa::Instr;
use retcon_obs::{EventKind, RingTracer};
use retcon_sim::{
    run_sharded, AnyProtocol, ConflictPolicy, DatmLite, EagerTm, LazyTm, LazyVbTm, Machine,
    RetconTm, ShardedOutcome, SimConfig, SimError, SimReport,
};
use std::ops::Range;

/// The widest supported machine: 16 `CoreSet` words of 64 cores each.
pub const MAX_SIM_CORES: usize = 1024;

/// The hardware configurations compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// The §2 baseline: eager HTM, timestamp contention management.
    Eager,
    /// Figure 2(c): eager HTM that aborts the requester on conflict.
    EagerAbort,
    /// Figure 2(e): lazy conflict detection, committer wins.
    Lazy,
    /// §5.1 `lazy-vb`: value-based commit validation, no repair.
    LazyVb,
    /// Full RETCON with the Table 1 structure sizes.
    Retcon,
    /// §5.3 idealized RETCON: unlimited state, parallel reacquire, free
    /// commit stores.
    RetconIdeal,
    /// Figure 2(b): dependence-aware TM (forwarding + cycle aborts).
    Datm,
}

impl System {
    /// All systems of the Figure 9 / Figure 10 comparison: the paper's
    /// three (eager, lazy-vb, RETCON) plus DATM, which the ROADMAP adds to
    /// the scalability/breakdown comparisons.
    pub const FIG9: [System; 4] = [System::Eager, System::LazyVb, System::Retcon, System::Datm];

    /// Every hardware configuration, in a stable display order.
    pub const ALL: [System; 7] = [
        System::Eager,
        System::EagerAbort,
        System::Lazy,
        System::LazyVb,
        System::Retcon,
        System::RetconIdeal,
        System::Datm,
    ];

    /// Looks a system up by its [`System::label`], case-insensitively.
    pub fn parse(name: &str) -> Option<System> {
        System::ALL
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(name))
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            System::Eager => "eager",
            System::EagerAbort => "eager-abort",
            System::Lazy => "lazy",
            System::LazyVb => "lazy-vb",
            System::Retcon => "RetCon",
            System::RetconIdeal => "RetCon-ideal",
            System::Datm => "datm",
        }
    }

    /// Instantiates the protocol for `num_cores` cores.
    ///
    /// Returns the monomorphized [`AnyProtocol`] — the simulator dispatches
    /// it by `match`, with no boxing or virtual calls on the hot path.
    pub fn protocol(self, num_cores: usize) -> AnyProtocol {
        self.protocol_sized::<1>(num_cores)
    }

    /// [`System::protocol`] at an explicit `CoreSet` size class: `N` words
    /// of 64 cores each. `N = 1` is the paper machine and the default
    /// everywhere; wider classes carry the >64-core scaling runs.
    pub fn protocol_sized<const N: usize>(self, num_cores: usize) -> AnyProtocol<N> {
        match self {
            System::Eager => EagerTm::new(num_cores, ConflictPolicy::OldestWins).into(),
            System::EagerAbort => EagerTm::new(num_cores, ConflictPolicy::RequesterLoses).into(),
            System::Lazy => LazyTm::new(num_cores).into(),
            System::LazyVb => LazyVbTm::new(num_cores).into(),
            System::Retcon => RetconTm::new(num_cores, RetconConfig::default()).into(),
            System::RetconIdeal => RetconTm::new(num_cores, RetconConfig::idealized()).into(),
            System::Datm => DatmLite::new(num_cores).into(),
        }
    }
}

/// The workloads of Table 2 (and their software-restructured variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Figure 2 micro-benchmark: two increments of one shared counter per
    /// transaction.
    Counter,
    /// STAMP genome model: segment inserts into a shared hashtable.
    /// `resizable` adds the size-field increment of the `-sz` variants.
    Genome {
        /// Track the table's size field (the `-sz` variant)?
        resizable: bool,
    },
    /// STAMP intruder model (shared queues + map + rebalances).
    Intruder {
        /// Apply the thread-private-queue/hashtable restructuring (`_opt`)?
        optimized: bool,
        /// Track the map's size field (`-sz`)?
        resizable: bool,
    },
    /// STAMP kmeans model (cluster-centre accumulation).
    Kmeans,
    /// STAMP labyrinth model (long, imbalanced path-routing transactions).
    Labyrinth,
    /// STAMP ssca2 model (tiny transactions, scattered graph updates).
    Ssca2,
    /// STAMP vacation model (read-mostly reservations).
    Vacation {
        /// Replace the rebalancing tree with a hashtable (`_opt`)?
        optimized: bool,
        /// Track the table's size field (`-sz`)?
        resizable: bool,
    },
    /// STAMP yada model (pointer-chasing cavity refinement).
    Yada,
    /// Transactionalized CPython model (refcounts on hot shared objects).
    Python {
        /// Make the interpreter globals thread-private (`_opt`)?
        optimized: bool,
    },
    /// Past-the-paper scaling stressor: groups of contiguous cores, each
    /// hammering a group-private counter block (barrier-free, so eligible
    /// for sharded execution). Deliberately *not* part of
    /// [`Workload::all`]: the paper-matrix record sets are pinned
    /// byte-for-byte and must not grow a fifteenth workload.
    ScalingXl,
}

impl Workload {
    /// Display name matching Table 2.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Counter => "counter",
            Workload::Genome { resizable: false } => "genome",
            Workload::Genome { resizable: true } => "genome-sz",
            Workload::Intruder {
                optimized: false, ..
            } => "intruder",
            Workload::Intruder {
                optimized: true,
                resizable: false,
            } => "intruder_opt",
            Workload::Intruder {
                optimized: true,
                resizable: true,
            } => "intruder_opt-sz",
            Workload::Kmeans => "kmeans",
            Workload::Labyrinth => "labyrinth",
            Workload::Ssca2 => "ssca2",
            Workload::Vacation {
                optimized: false, ..
            } => "vacation",
            Workload::Vacation {
                optimized: true,
                resizable: false,
            } => "vacation_opt",
            Workload::Vacation {
                optimized: true,
                resizable: true,
            } => "vacation_opt-sz",
            Workload::Yada => "yada",
            Workload::Python { optimized: false } => "python",
            Workload::Python { optimized: true } => "python_opt",
            Workload::ScalingXl => "scaling_xl",
        }
    }

    /// The eight pre-restructuring workloads of Figure 1.
    pub fn fig1() -> Vec<Workload> {
        vec![
            Workload::Genome { resizable: false },
            Workload::Intruder {
                optimized: false,
                resizable: false,
            },
            Workload::Kmeans,
            Workload::Labyrinth,
            Workload::Ssca2,
            Workload::Vacation {
                optimized: false,
                resizable: false,
            },
            Workload::Yada,
            Workload::Python { optimized: false },
        ]
    }

    /// The fourteen workload variants of Figures 3, 4, 9 and 10.
    pub fn fig9() -> Vec<Workload> {
        vec![
            Workload::Genome { resizable: false },
            Workload::Genome { resizable: true },
            Workload::Intruder {
                optimized: false,
                resizable: false,
            },
            Workload::Intruder {
                optimized: true,
                resizable: false,
            },
            Workload::Intruder {
                optimized: true,
                resizable: true,
            },
            Workload::Kmeans,
            Workload::Labyrinth,
            Workload::Ssca2,
            Workload::Vacation {
                optimized: false,
                resizable: false,
            },
            Workload::Vacation {
                optimized: true,
                resizable: false,
            },
            Workload::Vacation {
                optimized: true,
                resizable: true,
            },
            Workload::Yada,
            Workload::Python { optimized: false },
            Workload::Python { optimized: true },
        ]
    }

    /// Every workload variant: `counter` plus the fourteen of
    /// [`Workload::fig9`].
    pub fn all() -> Vec<Workload> {
        let mut all = vec![Workload::Counter];
        all.extend(Workload::fig9());
        all
    }

    /// Looks a workload up by its [`Workload::label`]. Parses everything
    /// in [`Workload::all`] plus the out-of-matrix [`Workload::ScalingXl`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::all()
            .into_iter()
            .chain([Workload::ScalingXl])
            .find(|w| w.label() == name)
    }

    /// Builds the workload for `num_cores` cores, dividing the (fixed)
    /// total work among them. The same `seed` yields the same inputs at any
    /// core count, so speedups compare identical work.
    pub fn build(self, num_cores: usize, seed: u64) -> WorkloadSpec {
        match self {
            Workload::Counter => counter::build(num_cores, seed),
            Workload::Genome { resizable } => genome::build(num_cores, seed, resizable),
            Workload::Intruder {
                optimized,
                resizable,
            } => intruder::build(num_cores, seed, optimized, resizable),
            Workload::Kmeans => kmeans::build(num_cores, seed),
            Workload::Labyrinth => labyrinth::build(num_cores, seed),
            Workload::Ssca2 => ssca2::build(num_cores, seed),
            Workload::Vacation {
                optimized,
                resizable,
            } => vacation::build(num_cores, seed, optimized, resizable),
            Workload::Yada => yada::build(num_cores, seed),
            Workload::Python { optimized } => python::build(num_cores, seed, optimized),
            Workload::ScalingXl => scaling_xl::build(num_cores, seed),
        }
    }
}

/// Everything that varies between two runs of the same spec under the
/// same [`System`] — the parameters of [`run_spec_opts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Machine configuration; `cfg.num_cores` selects the `CoreSet` size
    /// class and [`SimConfig::schedule_seed`] a fuzzed schedule.
    pub cfg: SimConfig,
    /// RETCON structure-size override (the lab's sweeps): `Some` runs
    /// [`RetconTm`] under this configuration instead of the system's
    /// default protocol.
    pub retcon: Option<RetconConfig>,
    /// Host threads to split the cores across; `1` runs serially.
    pub shards: usize,
    /// `Some(capacity)` records transaction events into a ring of that
    /// many entries (see [`retcon_obs::ring::DEFAULT_CAPACITY`]).
    pub trace_capacity: Option<usize>,
}

impl RunOptions {
    /// The default Table 1 machine at `num_cores`: the system's own
    /// protocol, serial, untraced.
    pub fn new(num_cores: usize) -> RunOptions {
        RunOptions {
            cfg: SimConfig::with_cores(num_cores),
            retcon: None,
            shards: 1,
            trace_capacity: None,
        }
    }
}

/// Runs an already-built [`WorkloadSpec`] under `system` — the one run
/// path every other entry point delegates to.
///
/// * `opts.cfg.num_cores <= 64` uses the single-word paper machine; wider
///   counts dispatch to the 2/4/8/16-word `CoreSet` size classes, up to
///   [`MAX_SIM_CORES`].
/// * `opts.shards > 1` requests sharded execution: contiguous core ranges
///   run on host threads and merge iff their block footprints prove
///   disjoint (see [`retcon_sim::shard`]). A run that is ineligible (a
///   barrier, a fuzzed schedule, more shards than cores) or whose shards
///   overlap falls back to the serial run — the report is byte-identical
///   either way.
/// * `opts.trace_capacity` attaches event tracing and returns the stream.
///   The report is byte-identical to the untraced run (pinned by the
///   trace-determinism suite). A sharded run merges the per-shard streams
///   back to global core numbering with one `ShardMerge` event per shard;
///   an overlap fallback is recorded as a single `ShardMerge` event with
///   `arg` = 1 at the head of the serial stream.
///
/// # Errors
///
/// [`SimError::UnsupportedCores`] past [`MAX_SIM_CORES`]; otherwise
/// propagates [`SimError`] from the simulator (cycle-limit or program
/// validation failures — both indicate workload bugs).
pub fn run_spec_opts(
    spec: &WorkloadSpec,
    system: System,
    opts: &RunOptions,
) -> Result<(SimReport, Option<RingTracer>), SimError> {
    match opts.cfg.num_cores {
        0..=64 => run_class::<1>(spec, system, opts),
        65..=128 => run_class::<2>(spec, system, opts),
        129..=256 => run_class::<4>(spec, system, opts),
        257..=512 => run_class::<8>(spec, system, opts),
        513..=MAX_SIM_CORES => run_class::<16>(spec, system, opts),
        requested => Err(SimError::UnsupportedCores {
            requested,
            max: MAX_SIM_CORES,
        }),
    }
}

fn run_class<const N: usize>(
    spec: &WorkloadSpec,
    system: System,
    opts: &RunOptions,
) -> Result<(SimReport, Option<RingTracer>), SimError> {
    let num_cores = opts.cfg.num_cores;
    assert_eq!(
        spec.num_cores(),
        num_cores,
        "spec was built for a different core count"
    );
    // The machine for a contiguous range of the spec's cores, locally
    // numbered from zero: the whole spec serially, one shard otherwise.
    let build = |range: Range<usize>| {
        let cfg = SimConfig {
            num_cores: range.len(),
            ..opts.cfg
        };
        let protocol: AnyProtocol<N> = match opts.retcon {
            Some(retcon) => RetconTm::new(cfg.num_cores, retcon).into(),
            None => system.protocol_sized(cfg.num_cores),
        };
        build_machine(spec, range, protocol, cfg)
    };
    // Sharding cannot reproduce a barrier release (a global
    // synchronization across all cores) or a fuzzed schedule (one global
    // draw sequence whose consumption order spans all cores).
    let shardable = (2..=num_cores).contains(&opts.shards)
        && opts.cfg.schedule_seed.is_none()
        && !spec_has_barrier(spec);
    let mut overlapped = false;
    if shardable {
        match run_sharded::<N, _>(num_cores, opts.shards, opts.trace_capacity, &build)? {
            ShardedOutcome::Merged(report, tracer) => return Ok((report, tracer)),
            // Overlapping footprints: the independence premise failed, so
            // the shard results are unusable. Rerun serially; the answer
            // is still exact, only the parallelism is lost.
            ShardedOutcome::Overlap { .. } => overlapped = true,
        }
    }
    let mut machine = build(0..num_cores);
    if let Some(capacity) = opts.trace_capacity {
        let mut tracer = RingTracer::with_capacity(capacity);
        // The stream's head says which execution strategy actually ran.
        if overlapped {
            tracer.record(0, EventKind::ShardMerge, 0, 1);
        }
        machine.set_tracer(tracer);
    }
    let report = machine.run()?;
    Ok((report, machine.take_tracer()))
}

/// `true` if any program contains a `Barrier`.
fn spec_has_barrier(spec: &WorkloadSpec) -> bool {
    spec.programs.iter().any(|p| {
        p.blocks
            .iter()
            .any(|b| b.instrs.iter().any(|i| matches!(i, Instr::Barrier)))
    })
}

fn build_machine<const N: usize>(
    spec: &WorkloadSpec,
    range: Range<usize>,
    protocol: impl Into<AnyProtocol<N>>,
    cfg: SimConfig,
) -> Machine<N> {
    let mut machine = Machine::new(cfg, protocol, spec.programs[range.clone()].to_vec());
    for (i, tape) in spec.tapes[range].iter().enumerate() {
        machine.set_tape(i, tape.clone());
    }
    for &(addr, value) in &spec.init {
        machine.init_word(addr, value);
    }
    machine
}

/// Runs `workload` on `num_cores` cores under `system`.
///
/// # Errors
///
/// As [`run_spec_opts`].
pub fn run(
    workload: Workload,
    system: System,
    num_cores: usize,
    seed: u64,
) -> Result<SimReport, SimError> {
    run_spec(&workload.build(num_cores, seed), system, num_cores)
}

/// [`run_spec_opts`] with the default options: serial, untraced.
///
/// # Errors
///
/// As [`run_spec_opts`].
pub fn run_spec(
    spec: &WorkloadSpec,
    system: System,
    num_cores: usize,
) -> Result<SimReport, SimError> {
    run_spec_sized(spec, system, num_cores, 1)
}

/// [`run_spec_opts`] across `shards` host threads, untraced.
///
/// # Errors
///
/// As [`run_spec_opts`].
pub fn run_spec_sized(
    spec: &WorkloadSpec,
    system: System,
    num_cores: usize,
    shards: usize,
) -> Result<SimReport, SimError> {
    let opts = RunOptions {
        shards,
        ..RunOptions::new(num_cores)
    };
    Ok(run_spec_opts(spec, system, &opts)?.0)
}

/// [`run_spec_opts`] across `shards` host threads with event tracing into
/// a ring of `capacity` entries.
///
/// # Errors
///
/// As [`run_spec_opts`].
pub fn run_spec_traced_sized(
    spec: &WorkloadSpec,
    system: System,
    num_cores: usize,
    shards: usize,
    capacity: usize,
) -> Result<(SimReport, RingTracer), SimError> {
    let opts = RunOptions {
        shards,
        trace_capacity: Some(capacity),
        ..RunOptions::new(num_cores)
    };
    let (report, tracer) = run_spec_opts(spec, system, &opts)?;
    Ok((report, tracer.expect("trace_capacity set above")))
}

/// Builds the single-word (≤ 64 cores) machine a spec runs on — programs,
/// tapes, initial memory — without running it: exploration drives the
/// returned machine through [`Machine::run_with`] with its own schedules.
/// Accepts any built-in protocol by value, an [`AnyProtocol`], or a boxed
/// custom [`Protocol`](retcon_sim::Protocol).
pub fn machine_for(
    spec: &WorkloadSpec,
    protocol: impl Into<AnyProtocol>,
    cfg: SimConfig,
) -> Machine {
    machine_for_sized::<1>(spec, protocol, cfg)
}

/// [`machine_for`] at an explicit `CoreSet` size class.
pub fn machine_for_sized<const N: usize>(
    spec: &WorkloadSpec,
    protocol: impl Into<AnyProtocol<N>>,
    cfg: SimConfig,
) -> Machine<N> {
    build_machine(spec, 0..spec.num_cores(), protocol, cfg)
}

/// Sequential-baseline cycle count: the whole workload on one core (the
/// denominator of every "speedup over seq" figure).
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn sequential_baseline(workload: Workload, seed: u64) -> Result<u64, SimError> {
    Ok(run(workload, System::Eager, 1, seed)?.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Workload::fig9().iter().map(|w| w.label()).collect();
        labels.push(Workload::Counter.label());
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn fig1_is_subset_of_table2() {
        assert_eq!(Workload::fig1().len(), 8);
        assert_eq!(Workload::fig9().len(), 14);
    }

    #[test]
    fn system_protocols_instantiate() {
        for s in [
            System::Eager,
            System::EagerAbort,
            System::Lazy,
            System::LazyVb,
            System::Retcon,
            System::RetconIdeal,
            System::Datm,
        ] {
            let p = s.protocol(2);
            assert!(!p.name().is_empty());
            assert!(!s.label().is_empty());
        }
    }
}
