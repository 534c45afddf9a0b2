//! The twelve figure/table datasets of the paper's evaluation, as job
//! lists plus assembly into [`ExperimentRecord`]s.
//!
//! Each [`Dataset`] knows the `System × Workload × cores` sub-matrix that
//! regenerates one artifact of §5. `table1` and `table2` carry no simulations — they are static
//! inventories emitted as metadata records, so `retcon-lab -- all` writes
//! machine-readable output for *every* artifact.
//!
//! Conventions:
//!
//! * runs are at [`crate::CORES`] with [`crate::SEED`] unless the dataset
//!   sweeps cores;
//! * datasets that report speedups include a 1-core eager run per workload,
//!   and assembly wires its cycle count into every same-workload record's
//!   `seq_cycles` (the 1-core eager run *is* the sequential baseline —
//!   `retcon_workloads::sequential_baseline` does exactly this);
//! * job order is canonical; together with the runner's index-addressed
//!   collection this makes record files byte-reproducible at any
//!   `--jobs` count.

use crate::record::ExperimentRecord;
use crate::runner::{run_jobs_cached, Job, ReportCache};
use crate::{CORES, SEED};
use retcon::RetconConfig;
use retcon_sim::{SimConfig, SimError};
use retcon_workloads::{System, Workload};
use std::collections::HashMap;

/// One regenerable artifact of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Table 1 — simulated machine configuration (static).
    Table1,
    /// Table 2 — workload inventory and static footprints (static).
    Table2,
    /// Figure 1 — eager-baseline scalability at 32 cores.
    Fig1,
    /// Figure 2 — the two-increment counter schedule under five designs.
    Fig2,
    /// Figure 3 — scalability before/after software restructurings.
    Fig3,
    /// Figure 4 — runtime breakdown on the eager baseline.
    Fig4,
    /// Figure 9 — eager vs lazy-vb vs RETCON vs DATM scalability.
    Fig9,
    /// Figure 10 — runtime breakdown normalized to eager.
    Fig10,
    /// Table 3 — RETCON structure utilization and pre-commit overhead.
    Table3,
    /// §5.3 — default RETCON vs the idealized variant.
    AblationIdeal,
    /// Structure-size and predictor-threshold sweeps.
    AblationSizes,
    /// Core-count scaling sweep (1–32) for selected workloads.
    Scaling,
    /// Past-the-paper core scaling (64–1024) on the group-local counter
    /// workload. Deliberately excluded from [`Dataset::ALL`]: the `all`
    /// record set is pinned byte-for-byte against committed manifests,
    /// and this dataset exists to exercise the wider `CoreSet` size
    /// classes beyond it. Run it explicitly: `retcon-lab run scaling_xl`.
    ScalingXl,
}

/// The initial-value-buffer capacities `ablation_sizes` sweeps.
pub const IVB_SWEEP: [usize; 5] = [1, 2, 4, 16, 64];
/// The symbolic-store-buffer capacities `ablation_sizes` sweeps.
pub const SSB_SWEEP: [usize; 4] = [2, 8, 32, 128];
/// The constraint-buffer capacities `ablation_sizes` sweeps.
pub const CB_SWEEP: [usize; 4] = [1, 4, 16, 64];
/// The predictor violation-backoff values `ablation_sizes` sweeps (yada).
pub const BACKOFF_SWEEP: [u32; 4] = [0, 10, 100, 1000];
/// The core counts the `scaling` sweep visits.
pub const SCALING_CORES: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// The core counts the `scaling_xl` sweep visits — one per `CoreSet`
/// size class (1/2/4/8/16 words).
pub const XL_SCALING_CORES: [usize; 5] = [64, 128, 256, 512, 1024];

/// The workloads `ablation_sizes` sweeps structure sizes on.
pub fn ablation_workloads() -> [Workload; 3] {
    [
        Workload::Genome { resizable: true },
        Workload::Python { optimized: true },
        Workload::Vacation {
            optimized: true,
            resizable: true,
        },
    ]
}

/// The workloads the `scaling` sweep covers.
pub fn scaling_workloads() -> [Workload; 3] {
    [
        Workload::Counter,
        Workload::Genome { resizable: true },
        Workload::Python { optimized: true },
    ]
}

impl Dataset {
    /// Every dataset, in regeneration order.
    pub const ALL: [Dataset; 12] = [
        Dataset::Table1,
        Dataset::Table2,
        Dataset::Fig1,
        Dataset::Fig2,
        Dataset::Fig3,
        Dataset::Fig4,
        Dataset::Fig9,
        Dataset::Fig10,
        Dataset::Table3,
        Dataset::AblationIdeal,
        Dataset::AblationSizes,
        Dataset::Scaling,
    ];

    /// The dataset's file/CLI name (matches the historical bin name).
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Table1 => "table1",
            Dataset::Table2 => "table2",
            Dataset::Fig1 => "fig1",
            Dataset::Fig2 => "fig2",
            Dataset::Fig3 => "fig3",
            Dataset::Fig4 => "fig4",
            Dataset::Fig9 => "fig9",
            Dataset::Fig10 => "fig10",
            Dataset::Table3 => "table3",
            Dataset::AblationIdeal => "ablation_ideal",
            Dataset::AblationSizes => "ablation_sizes",
            Dataset::Scaling => "scaling",
            Dataset::ScalingXl => "scaling_xl",
        }
    }

    /// Looks a dataset up by [`Dataset::name`]. Covers every member of
    /// [`Dataset::ALL`] plus the run-explicitly extras ([`Dataset::ScalingXl`]).
    pub fn parse(name: &str) -> Option<Dataset> {
        Dataset::ALL
            .into_iter()
            .chain([Dataset::ScalingXl])
            .find(|d| d.name() == name)
    }

    /// One-line description (the paper artifact).
    pub fn title(self) -> &'static str {
        match self {
            Dataset::Table1 => "Table 1 — simulated machine configuration",
            Dataset::Table2 => "Table 2 — workload inventory",
            Dataset::Fig1 => "Figure 1 — scalability of the aggressive eager HTM, 32 cores",
            Dataset::Fig2 => "Figure 2 — two-increment counter schedule under five designs",
            Dataset::Fig3 => "Figure 3 — scalability before/after software restructurings",
            Dataset::Fig4 => "Figure 4 — runtime breakdown on the baseline",
            Dataset::Fig9 => "Figure 9 — eager vs lazy-vb vs RetCon vs DATM scalability",
            Dataset::Fig10 => "Figure 10 — runtime breakdown normalized to eager",
            Dataset::Table3 => "Table 3 — RETCON structure utilization and pre-commit overhead",
            Dataset::AblationIdeal => "§5.3 — default RETCON vs the idealized variant",
            Dataset::AblationSizes => "structure-size and predictor-threshold sweeps",
            Dataset::Scaling => "core-count sweep (1–32) for selected workloads",
            Dataset::ScalingXl => "past-the-paper core sweep (64–1024), not part of `all`",
        }
    }

    /// The canonical job list regenerating this dataset (empty for the
    /// static tables).
    pub fn jobs(self) -> Vec<Job> {
        let base = |w: Workload| Job::new(w, System::Eager, 1, SEED);
        let at_scale = |w: Workload, s: System| Job::new(w, s, CORES, SEED);
        let mut jobs = Vec::new();
        match self {
            Dataset::Table1 | Dataset::Table2 => {}
            Dataset::Fig1 => {
                for w in Workload::fig1() {
                    jobs.push(base(w));
                    jobs.push(at_scale(w, System::Eager));
                }
            }
            Dataset::Fig2 => {
                for s in [
                    System::Retcon,
                    System::Datm,
                    System::EagerAbort,
                    System::Eager,
                    System::Lazy,
                ] {
                    jobs.push(Job::new(Workload::Counter, s, 2, SEED));
                }
            }
            Dataset::Fig3 => {
                for w in Workload::fig9() {
                    jobs.push(base(w));
                    jobs.push(at_scale(w, System::Eager));
                }
            }
            Dataset::Fig4 => {
                for w in Workload::fig9() {
                    jobs.push(at_scale(w, System::Eager));
                }
            }
            Dataset::Fig9 => {
                for w in Workload::fig9() {
                    jobs.push(base(w));
                    for s in System::FIG9 {
                        jobs.push(at_scale(w, s));
                    }
                }
            }
            Dataset::Fig10 => {
                for w in Workload::fig9() {
                    for s in System::FIG9 {
                        jobs.push(at_scale(w, s));
                    }
                }
            }
            Dataset::Table3 => {
                for w in Workload::all() {
                    jobs.push(at_scale(w, System::Retcon));
                }
            }
            Dataset::AblationIdeal => {
                for w in Workload::fig9() {
                    jobs.push(base(w));
                    jobs.push(at_scale(w, System::Retcon));
                    jobs.push(at_scale(w, System::RetconIdeal));
                }
            }
            Dataset::AblationSizes => {
                for w in ablation_workloads() {
                    jobs.push(base(w));
                    for cap in IVB_SWEEP {
                        jobs.push(sweep_job(w, "ivb", cap, |cfg, v| cfg.ivb_capacity = v));
                    }
                    for cap in SSB_SWEEP {
                        jobs.push(sweep_job(w, "ssb", cap, |cfg, v| cfg.ssb_capacity = v));
                    }
                    for cap in CB_SWEEP {
                        jobs.push(sweep_job(w, "cb", cap, |cfg, v| {
                            cfg.constraint_capacity = v;
                        }));
                    }
                }
                jobs.push(base(Workload::Yada));
                for backoff in BACKOFF_SWEEP {
                    let cfg = RetconConfig {
                        violation_backoff: backoff,
                        ..RetconConfig::default()
                    };
                    jobs.push(Job::with_cfg(
                        Workload::Yada,
                        CORES,
                        SEED,
                        cfg,
                        vec![("backoff".to_string(), backoff.to_string())],
                    ));
                }
            }
            Dataset::Scaling => {
                for w in scaling_workloads() {
                    for n in SCALING_CORES {
                        jobs.push(Job::new(w, System::Eager, n, SEED));
                        jobs.push(Job::new(w, System::Retcon, n, SEED));
                    }
                }
            }
            Dataset::ScalingXl => {
                // No 1-core sequential baseline: the workload's total work
                // grows with the core count, so a fixed-work speedup curve
                // is meaningless — the record reports raw cycles.
                for n in XL_SCALING_CORES {
                    for s in [System::Eager, System::LazyVb, System::Retcon] {
                        jobs.push(Job::new(Workload::ScalingXl, s, n, SEED));
                    }
                }
            }
        }
        jobs
    }

    /// Regenerates the dataset: runs its jobs on `workers` threads, wires
    /// sequential baselines, and assembles the record.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] (in job order).
    pub fn collect(self, workers: usize) -> Result<ExperimentRecord, SimError> {
        self.collect_cached(workers, &ReportCache::new())
    }

    /// [`Dataset::collect`] with a shared [`ReportCache`], so overlapping
    /// datasets reuse simulations (`fig10` is a strict subset of `fig9`'s
    /// at-scale matrix; `ablation_ideal` repeats its baselines). The
    /// record is identical either way — simulations are deterministic.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] (in job order).
    pub fn collect_cached(
        self,
        workers: usize,
        cache: &ReportCache,
    ) -> Result<ExperimentRecord, SimError> {
        match self {
            Dataset::Table1 => Ok(table1_record()),
            Dataset::Table2 => Ok(table2_record()),
            _ => {
                let jobs = self.jobs();
                let mut runs = run_jobs_cached(&jobs, workers, cache)?;
                wire_baselines(&mut runs);
                Ok(ExperimentRecord {
                    name: self.name().to_string(),
                    seed: SEED,
                    meta: Vec::new(),
                    runs,
                })
            }
        }
    }
}

fn sweep_job(
    w: Workload,
    knob: &str,
    cap: usize,
    apply: impl FnOnce(&mut RetconConfig, usize),
) -> Job {
    let mut cfg = RetconConfig::default();
    apply(&mut cfg, cap);
    Job::with_cfg(
        w,
        CORES,
        SEED,
        cfg,
        vec![(knob.to_string(), cap.to_string())],
    )
}

/// Fills `seq_cycles` of every record from its workload's 1-core eager
/// run, where the record set contains one.
pub(crate) fn wire_baselines(runs: &mut [crate::record::RunRecord]) {
    let baselines: HashMap<String, u64> = runs
        .iter()
        .filter(|r| r.system == System::Eager.label() && r.cores == 1)
        .map(|r| (r.workload.clone(), r.report.cycles))
        .collect();
    for run in runs {
        if let Some(&seq) = baselines.get(&run.workload) {
            run.seq_cycles = seq;
        }
    }
}

/// Table 1 as a metadata record: every knob of the simulated machine.
fn table1_record() -> ExperimentRecord {
    let cfg = SimConfig::default();
    let rc = RetconConfig::default();
    let lat = cfg.mem.latency;
    let meta: Vec<(String, String)> = [
        ("cores", cfg.num_cores.to_string()),
        (
            "l1_kb",
            (cfg.mem.l1.capacity_blocks() * 64 / 1024).to_string(),
        ),
        ("l1_ways", cfg.mem.l1.ways.to_string()),
        ("l1_sets", cfg.mem.l1.sets.to_string()),
        (
            "l2_mb",
            (cfg.mem.l2.capacity_blocks() * 64 / 1024 / 1024).to_string(),
        ),
        ("l2_ways", cfg.mem.l2.ways.to_string()),
        ("l2_hit_cycles", lat.l2_hit.to_string()),
        ("dram_cycles", lat.dram.to_string()),
        ("hop_cycles", lat.hop.to_string()),
        ("ivb_entries", rc.ivb_capacity.to_string()),
        ("constraint_entries", rc.constraint_capacity.to_string()),
        ("ssb_entries", rc.ssb_capacity.to_string()),
        ("predictor_threshold", rc.initial_threshold.to_string()),
        ("violation_backoff", rc.violation_backoff.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    ExperimentRecord {
        name: "table1".to_string(),
        seed: SEED,
        meta,
        runs: Vec::new(),
    }
}

/// The Table 2 model descriptions, in display order.
pub fn table2_descriptions() -> &'static [(&'static str, &'static str)] {
    &[
        (
            "counter",
            "Figure 2 micro: two increments of one shared counter per tx",
        ),
        ("genome", "hashtable segment inserts, fixed-size table"),
        (
            "genome-sz",
            "variant with resizable table (shared size-field increment per insert)",
        ),
        (
            "intruder",
            "shared in/out queues feed addresses + tree-rebalance hot words",
        ),
        ("intruder_opt", "thread-private queues, fixed hashtable map"),
        (
            "intruder_opt-sz",
            "optimized variant with resizable (size-tracked) map",
        ),
        (
            "kmeans",
            "cluster-centre accumulation with untrackable (multiply) updates",
        ),
        (
            "labyrinth",
            "pre-tx grid copy; long variable-length routing transactions",
        ),
        (
            "ssca2",
            "tiny transactions, scattered graph updates (coherence-bound)",
        ),
        (
            "vacation",
            "read-mostly reservations + tree-rebalance hot words",
        ),
        ("vacation_opt", "hashtable tables, no rebalancing"),
        (
            "vacation_opt-sz",
            "optimized variant with size-tracked orders table",
        ),
        (
            "yada",
            "pointer-chasing cavity refinement (loaded values feed addresses)",
        ),
        (
            "python",
            "GIL elision: hot refcounts + shared address-feeding free list",
        ),
        (
            "python_opt",
            "interpreter globals made thread-private; refcounts remain",
        ),
    ]
}

/// Table 2 as a metadata record: model descriptions plus the static
/// footprint (programs, total instructions, tape words) of each
/// 32-core build.
fn table2_record() -> ExperimentRecord {
    let mut meta: Vec<(String, String)> = table2_descriptions()
        .iter()
        .map(|(name, desc)| (format!("desc:{name}"), desc.to_string()))
        .collect();
    for w in Workload::all() {
        let spec = w.build(CORES, SEED);
        let instr: usize = spec.programs.iter().map(|p| p.len()).sum();
        let tape: usize = spec.tapes.iter().map(|t| t.len()).sum();
        meta.push((
            format!("footprint:{}", w.label()),
            format!(
                "programs={};instr={};tape={}",
                spec.programs.len(),
                instr,
                tape
            ),
        ));
    }
    ExperimentRecord {
        name: "table2".to_string(),
        seed: SEED,
        meta,
        runs: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for d in Dataset::ALL {
            assert_eq!(Dataset::parse(d.name()), Some(d));
            assert!(!d.title().is_empty());
        }
        assert_eq!(Dataset::parse("nope"), None);
    }

    #[test]
    fn static_tables_have_metadata() {
        let t1 = Dataset::Table1.collect(1).unwrap();
        assert!(t1.runs.is_empty());
        assert_eq!(t1.meta_value("ivb_entries"), Some("16"));
        assert_eq!(t1.meta_value("ssb_entries"), Some("32"));

        let t2 = Dataset::Table2.collect(1).unwrap();
        assert_eq!(
            t2.meta
                .iter()
                .filter(|(k, _)| k.starts_with("desc:"))
                .count(),
            15
        );
        assert_eq!(
            t2.meta
                .iter()
                .filter(|(k, _)| k.starts_with("footprint:"))
                .count(),
            15
        );
    }

    #[test]
    fn job_lists_are_canonical() {
        // fig9: per workload a baseline plus the four compared systems.
        assert_eq!(Dataset::Fig9.jobs().len(), 14 * 5);
        // fig10 reuses the comparison without baselines.
        assert_eq!(Dataset::Fig10.jobs().len(), 14 * 4);
        // fig2 runs the counter under five designs at two cores.
        let fig2 = Dataset::Fig2.jobs();
        assert_eq!(fig2.len(), 5);
        assert!(fig2.iter().all(|j| j.key.cores == 2));
        // scaling: three workloads, six core counts, two systems.
        assert_eq!(Dataset::Scaling.jobs().len(), 3 * 6 * 2);
        // ablation_sizes: 3 workloads × (1 + 5 + 4 + 4) + yada (1 + 4).
        assert_eq!(Dataset::AblationSizes.jobs().len(), 3 * 14 + 5);
        // Static tables run nothing.
        assert!(Dataset::Table1.jobs().is_empty());
        assert!(Dataset::Table2.jobs().is_empty());
    }

    #[test]
    fn baselines_wire_into_same_workload_runs() {
        // Miniature dataset: counter baseline + 2-core runs.
        let jobs = vec![
            Job::new(Workload::Counter, System::Eager, 1, SEED),
            Job::new(Workload::Counter, System::Retcon, 2, SEED),
        ];
        let mut runs = crate::runner::run_jobs(&jobs, 1).unwrap();
        wire_baselines(&mut runs);
        let seq = runs[0].report.cycles;
        assert!(seq > 0);
        assert_eq!(runs[0].seq_cycles, seq);
        assert_eq!(runs[1].seq_cycles, seq);
        assert!(runs[1].speedup().is_some());
    }
}
