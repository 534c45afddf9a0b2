//! Human-readable rendering of experiment records.
//!
//! One function per dataset, reproducing the table each figure/table
//! harness has always printed: `retcon-lab -- run <dataset>` builds an
//! [`ExperimentRecord`] and renders it through here, so stdout output and
//! machine-readable output come from the same data.
//!
//! What the paper claims about a figure is not restated here: a dataset
//! read by rows of [`full_checks`] prints those rows' outcomes on the
//! record (Figure 9 as its verdict column, every other dataset below its
//! table).

use crate::checks::{evaluate, full_checks, Check, CheckOutcome};
use crate::datasets::{
    ablation_workloads, scaling_workloads, table2_descriptions, Dataset, BACKOFF_SWEEP, CB_SWEEP,
    FIG2_CORES, IVB_SWEEP, SCALING_CORES, SSB_SWEEP, XL_SCALING_CORES,
};
use crate::record::{ExperimentRecord, RunRecord};
use retcon_workloads::{System, Workload};
use std::fmt::Write as _;

/// Formats a speedup cell (the historical 8.1 width).
fn fmt_speedup(x: f64) -> String {
    format!("{x:>8.1}")
}

fn header(out: &mut String, title: &str, note: &str) {
    let _ = writeln!(
        out,
        "=================================================================="
    );
    let _ = writeln!(out, "{title}");
    if !note.is_empty() {
        let _ = writeln!(out, "{note}");
    }
    let _ = writeln!(
        out,
        "=================================================================="
    );
}

/// The four breakdown buckets of `run`, normalized to `reference_total`.
fn breakdown_row(run: &RunRecord, reference_total: u64) -> (f64, f64, f64, f64) {
    let b = run.report.breakdown();
    let r = reference_total as f64;
    (
        b.busy as f64 / r,
        b.conflict as f64 / r,
        b.barrier as f64 / r,
        b.other as f64 / r,
    )
}

/// Renders `record` as the dataset's historical stdout table, followed by
/// the outcomes of the paper claims that read it.
pub fn render(dataset: Dataset, record: &ExperimentRecord) -> String {
    let mut out = match dataset {
        Dataset::Table1 => render_table1(record),
        Dataset::Table2 => render_table2(record),
        Dataset::Fig1 => render_fig1(record),
        Dataset::Fig2 => render_fig2(record),
        Dataset::Fig3 => render_fig3(record),
        Dataset::Fig4 => render_fig4(record),
        Dataset::Fig9 => render_fig9(record),
        Dataset::Fig10 => render_fig10(record),
        Dataset::Table3 => render_table3(record),
        Dataset::AblationIdeal => render_ablation_ideal(record),
        Dataset::AblationSizes => render_ablation_sizes(record),
        Dataset::Scaling => render_scaling(record),
        Dataset::ScalingXl => render_scaling_xl(record),
    };
    // Figure 9 prints its rows' outcomes as its verdict column.
    let claims = match dataset {
        Dataset::Fig9 => Vec::new(),
        _ => claims(dataset, record),
    };
    if !claims.is_empty() {
        let _ = writeln!(out, "\nPaper claims (`retcon-lab check` rows):");
        for (_, o) in &claims {
            let status = if o.passed { "PASS" } else { "FAIL" };
            let _ = writeln!(out, "{status}  {}: {}", o.name, o.detail);
        }
    }
    out
}

/// The full table's rows that read `dataset`, each with its outcome on
/// `record`.
fn claims(dataset: Dataset, record: &ExperimentRecord) -> Vec<(Check, CheckOutcome)> {
    full_checks()
        .into_iter()
        .filter(|c| c.dataset == dataset)
        .map(|c| {
            let outcome = evaluate(&c, record);
            (c, outcome)
        })
        .collect()
}

fn meta_or(record: &ExperimentRecord, key: &str) -> String {
    record.meta_value(key).unwrap_or("?").to_string()
}

fn render_table1(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(&mut out, "Table 1: simulated machine configuration", "");
    let m = |k: &str| meta_or(r, k);
    let _ = writeln!(
        out,
        "Processor             {} in-order cores, 1 IPC",
        m("cores")
    );
    let _ = writeln!(
        out,
        "L1 cache              {} KB, {}-way set associative, 64B blocks ({} sets)",
        m("l1_kb"),
        m("l1_ways"),
        m("l1_sets")
    );
    let _ = writeln!(
        out,
        "L2 cache              Private, {} MB, {}-way, 64B blocks, {}-cycle hit latency",
        m("l2_mb"),
        m("l2_ways"),
        m("l2_hit_cycles")
    );
    let _ = writeln!(
        out,
        "Memory                {} cycles DRAM lookup latency",
        m("dram_cycles")
    );
    let _ = writeln!(
        out,
        "Permissions-only      unbounded overflow map (capacity aborts impossible)"
    );
    let _ = writeln!(
        out,
        "Coherence             directory-based, {}-cycle hop latency",
        m("hop_cycles")
    );
    let _ = writeln!(
        out,
        "RETCON structures     {}-entry initial value buffer, {}-entry constraint buffer, {}-entry symbolic store buffer",
        m("ivb_entries"),
        m("constraint_entries"),
        m("ssb_entries")
    );
    let _ = writeln!(
        out,
        "Predictor             track after {} conflict(s); back off {} conflicts on violation",
        m("predictor_threshold"),
        m("violation_backoff")
    );
    out
}

fn render_table2(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(&mut out, "Table 2: workloads (model inventory)", "");
    let _ = writeln!(out, "{:<18} model", "workload");
    for (name, _) in table2_descriptions() {
        let _ = writeln!(out, "{name:<18} {}", meta_or(r, &format!("desc:{name}")));
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Per-workload static footprint (one 32-core build, seed {}):",
        r.seed
    );
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>12} {:>12}",
        "workload", "programs", "instr total", "tape words"
    );
    for w in Workload::all() {
        let cell = meta_or(r, &format!("footprint:{}", w.label()));
        let field = |key: &str| -> String {
            cell.split(';')
                .find_map(|p| p.strip_prefix(&format!("{key}=")))
                .unwrap_or("?")
                .to_string()
        };
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>12} {:>12}",
            w.label(),
            field("programs"),
            field("instr"),
            field("tape")
        );
    }
    out
}

fn render_fig1(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Figure 1: speedup over sequential, eager HTM baseline, 32 cores",
        "(zero-cycle rollback, oldest-wins contention management)",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>9} {:>9}",
        "workload", "seq cyc", "par cyc", "speedup", "aborts/commit"
    );
    for w in Workload::fig1() {
        let Some(run) = r.find(w.label(), System::Eager.label()) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>9.1} {:>9.3}",
            w.label(),
            run.seq_cycles,
            run.report.cycles,
            run.speedup().unwrap_or(0.0),
            run.report.abort_ratio(),
        );
    }
    let _ = writeln!(
        out,
        "\n({} cores; deterministic seed; see EXPERIMENTS.md for paper-vs-measured)",
        crate::CORES
    );
    out
}

/// The Figure 2 display order: paper sub-figure label and system label.
fn fig2_rows() -> [(&'static str, System); 5] {
    [
        ("(a) RetCon", System::Retcon),
        ("(b) DATM", System::Datm),
        ("(c) Eager", System::EagerAbort),
        ("(d) EagerStall", System::Eager),
        ("(e) Lazy", System::Lazy),
    ]
}

fn render_fig2(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Figure 2: RETCON vs DATM vs Eager vs Eager-Stall vs Lazy",
        "counter micro-benchmark, 2 cores, two increments per transaction",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>9} {:>9} {:>9} {:>11}",
        "system", "cycles", "commits", "aborts", "stalls", "final-count"
    );
    for (label, system) in fig2_rows() {
        let Some(run) = r.find_at("counter", system.label(), FIG2_CORES as u64) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>9} {:>9} {:>9} {:>11}",
            label,
            run.report.cycles,
            run.report.protocol.commits,
            run.report.protocol.aborts(),
            run.report.protocol.stalls,
            run.report.protocol.commits * 2,
        );
    }
    out
}

fn render_fig3(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Figure 3: baseline (eager) scalability before/after software restructurings",
        "",
    );
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>14}",
        "workload", "speedup", "abort/commit"
    );
    for w in Workload::fig9() {
        let Some(run) = r.find(w.label(), System::Eager.label()) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{:<18} {:>9.1} {:>14.3}",
            w.label(),
            run.speedup().unwrap_or(0.0),
            run.report.abort_ratio()
        );
    }
    out
}

fn render_fig4(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Figure 4: time breakdown on the eager baseline (fractions of total)",
        "",
    );
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>9} {:>9} {:>8}",
        "workload", "busy", "conflict", "barrier", "other"
    );
    for w in Workload::fig9() {
        let Some(run) = r.find(w.label(), System::Eager.label()) else {
            continue;
        };
        let total = run.report.breakdown().total();
        let (busy, conflict, barrier, other) = breakdown_row(run, total);
        let _ = writeln!(
            out,
            "{:<18} {:>8.3} {:>9.3} {:>9.3} {:>8.3}",
            w.label(),
            busy,
            conflict,
            barrier,
            other
        );
    }
    out
}

/// A Figure 9 row's verdict: the outcomes of the full-table rows that
/// name workload `w` in any cell.
fn fig9_verdict(claims: &[(Check, CheckOutcome)], w: Workload) -> String {
    let named: Vec<&CheckOutcome> = claims
        .iter()
        .filter(|(c, _)| c.expect.cells().iter().any(|cell| cell.0 == w))
        .map(|(_, o)| o)
        .collect();
    let failed: Vec<&str> = named.iter().filter(|o| !o.passed).map(|o| o.name).collect();
    match (named.len(), failed.len()) {
        (0, _) => "no claim".to_string(),
        (n, 0) => format!("OK ({n}/{n} rows)"),
        (n, k) => format!("MISMATCH ({k}/{n} rows fail): {}", failed.join("; ")),
    }
}

fn render_fig9(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Figure 9: speedup over sequential — eager vs lazy-vb vs RetCon vs DATM (32 cores)",
        "",
    );
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>8} {:>8} {:>8}   paper claims",
        "workload", "eager", "lazy-vb", "RetCon", "datm"
    );
    let claims = claims(Dataset::Fig9, r);
    for w in Workload::fig9() {
        let speedup = |s: System| fmt_speedup(r.speedup_of(w.label(), s.label()).unwrap_or(0.0));
        let _ = writeln!(
            out,
            "{:<18}{}{}{}{}   {}",
            w.label(),
            speedup(System::Eager),
            speedup(System::LazyVb),
            speedup(System::Retcon),
            speedup(System::Datm),
            fig9_verdict(&claims, w)
        );
    }
    out
}

fn render_fig10(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Figure 10: time breakdown normalized to eager (busy/conflict/barrier/other)",
        "",
    );
    let _ = writeln!(
        out,
        "{:<18} {:<9} {:>7} {:>9} {:>9} {:>7} {:>7}",
        "workload", "system", "busy", "conflict", "barrier", "other", "total"
    );
    for w in Workload::fig9() {
        let Some(eager_run) = r.find(w.label(), System::Eager.label()) else {
            continue;
        };
        let eager_total = eager_run.report.breakdown().total();
        for s in System::FIG9 {
            let Some(run) = r.find(w.label(), s.label()) else {
                continue;
            };
            let (busy, conflict, barrier, other) = breakdown_row(run, eager_total);
            let _ = writeln!(
                out,
                "{:<18} {:<9} {:>7.3} {:>9.3} {:>9.3} {:>7.3} {:>7.3}",
                w.label(),
                s.label(),
                busy,
                conflict,
                barrier,
                other,
                busy + conflict + barrier + other,
            );
        }
        let _ = writeln!(out);
    }
    out
}

fn render_table3(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Table 3: RETCON structure utilization and pre-commit overhead (32 cores)",
        "avg (max) per committed transaction",
    );
    let _ = writeln!(
        out,
        "{:<18} {:>11} {:>11} {:>10} {:>11} {:>11} {:>8} {:>7}",
        "workload",
        "blocks lost",
        "blk tracked",
        "sym regs",
        "priv stores",
        "constr addr",
        "commit",
        "stall%"
    );
    for w in Workload::all() {
        let Some(run) = r.find(w.label(), System::Retcon.label()) else {
            continue;
        };
        let Some(rs) = &run.report.retcon else {
            continue;
        };
        let _ = writeln!(
            out,
            "{:<18} {:>5.1} ({:>3}) {:>5.1} ({:>3}) {:>4.1} ({:>3}) {:>5.1} ({:>3}) {:>5.1} ({:>3}) {:>8.1} {:>6.2}",
            w.label(),
            rs.avg_blocks_lost(),
            rs.max.blocks_lost,
            rs.avg_blocks_tracked(),
            rs.max.blocks_tracked,
            rs.avg_symbolic_registers(),
            rs.max.symbolic_registers,
            rs.avg_private_stores(),
            rs.max.private_stores,
            rs.avg_constraint_addrs(),
            rs.max.constraint_addrs,
            rs.avg_commit_cycles(),
            rs.commit_stall_percent(),
        );
    }
    let _ = writeln!(
        out,
        "\n(violations are counted separately; a violation aborts and trains the predictor down)"
    );
    out
}

fn render_ablation_ideal(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "§5.3 ablation: default RETCON vs idealized (unlimited state, parallel reacquire, free stores)",
        "",
    );
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>9} {:>8}",
        "workload", "RetCon", "ideal", "delta%"
    );
    let mut worst: f64 = 0.0;
    for w in Workload::fig9() {
        let (Some(default), Some(ideal)) = (
            r.speedup_of(w.label(), System::Retcon.label()),
            r.speedup_of(w.label(), System::RetconIdeal.label()),
        ) else {
            continue;
        };
        let delta = 100.0 * (ideal - default) / default;
        worst = worst.max(delta.abs());
        let _ = writeln!(
            out,
            "{:<18} {:>9.1} {:>9.1} {:>+8.1}",
            w.label(),
            default,
            ideal,
            delta
        );
    }
    let _ = writeln!(
        out,
        "\nLargest |delta|: {worst:.1}% (paper: \"did not significantly impact results\")"
    );
    out
}

fn sweep_section<T: std::fmt::Display + Copy>(
    out: &mut String,
    r: &ExperimentRecord,
    title: &str,
    knob: &str,
    first_header: &str,
    caps: &[T],
    workloads: &[Workload],
) {
    header(out, title, "");
    let mut head = format!("{:<18}", "workload");
    for (i, cap) in caps.iter().enumerate() {
        if i == 0 {
            let _ = write!(head, " {first_header:>6}");
        } else {
            let _ = write!(head, " {cap:>6}");
        }
    }
    let _ = writeln!(out, "{head}");
    for w in workloads {
        let mut row = format!("{:<18}", w.label());
        for cap in caps {
            let speedup = r
                .runs
                .iter()
                .find(|run| run.workload == w.label() && run.knob(knob) == Some(&cap.to_string()))
                .and_then(RunRecord::speedup)
                .unwrap_or(0.0);
            let _ = write!(row, " {speedup:>6.1}");
        }
        let _ = writeln!(out, "{row}");
    }
}

fn render_ablation_sizes(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    let workloads = ablation_workloads();
    sweep_section(
        &mut out,
        r,
        "Ablation: initial-value-buffer capacity sweep",
        "ivb",
        "ivb=1",
        &IVB_SWEEP,
        &workloads,
    );
    sweep_section(
        &mut out,
        r,
        "Ablation: symbolic-store-buffer capacity sweep",
        "ssb",
        "ssb=2",
        &SSB_SWEEP,
        &workloads,
    );
    sweep_section(
        &mut out,
        r,
        "Ablation: constraint-buffer capacity sweep",
        "cb",
        "cb=1",
        &CB_SWEEP,
        &workloads,
    );
    header(
        &mut out,
        "Ablation: predictor violation-backoff sweep (yada)",
        "",
    );
    let _ = writeln!(out, "{:>12} {:>9}", "backoff", "speedup");
    for backoff in BACKOFF_SWEEP {
        let speedup = r
            .runs
            .iter()
            .find(|run| run.workload == "yada" && run.knob("backoff") == Some(&backoff.to_string()))
            .and_then(RunRecord::speedup)
            .unwrap_or(0.0);
        let _ = writeln!(out, "{backoff:>12} {speedup:>9.1}");
    }
    let _ = writeln!(out, "\n(paper setting: 16/16/32 entries, backoff 100)");
    out
}

fn render_scaling(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Scaling sweep: speedup vs cores (eager | RetCon)",
        "",
    );
    for w in scaling_workloads() {
        let _ = writeln!(out, "\n{}:", w.label());
        let _ = writeln!(out, "{:>7} {:>9} {:>9}", "cores", "eager", "RetCon");
        for n in SCALING_CORES {
            let at = |s: System| {
                r.find_at(w.label(), s.label(), n as u64)
                    .and_then(RunRecord::speedup)
                    .unwrap_or(0.0)
            };
            let _ = writeln!(
                out,
                "{n:>7} {:>9.1} {:>9.1}",
                at(System::Eager),
                at(System::Retcon)
            );
        }
    }
    out
}

fn render_scaling_xl(r: &ExperimentRecord) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Scaling XL: group-local counters, 64-1024 cores (cycles)",
        "Work grows with the core count (64 tx/core), so flat cycles = ideal.",
    );
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>12} {:>12}",
        "cores", "eager", "lazy-vb", "RetCon"
    );
    for n in XL_SCALING_CORES {
        let at = |s: System| {
            r.find_at(Workload::ScalingXl.label(), s.label(), n as u64)
                .map(|run| run.report.cycles)
                .unwrap_or(0)
        };
        let _ = writeln!(
            out,
            "{n:>7} {:>12} {:>12} {:>12}",
            at(System::Eager),
            at(System::LazyVb),
            at(System::Retcon)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_jobs;
    use crate::SEED;

    #[test]
    fn static_tables_render() {
        let t1 = Dataset::Table1.collect(1).unwrap();
        let text = render(Dataset::Table1, &t1);
        assert!(text.contains("16-entry initial value buffer"));
        let t2 = Dataset::Table2.collect(1).unwrap();
        let text = render(Dataset::Table2, &t2);
        assert!(text.contains("counter"));
        assert!(text.contains("tape words"));
    }

    #[test]
    fn renderings_state_no_claim_beside_the_check_table() {
        // `ALL` is the regeneration set; `scaling_xl` renders on demand.
        for dataset in Dataset::ALL.into_iter().chain([Dataset::ScalingXl]) {
            let record = ExperimentRecord {
                name: dataset.name().to_string(),
                seed: SEED,
                meta: vec![],
                runs: vec![],
            };
            let text = render(dataset, &record);
            assert!(
                !text.lines().any(|l| l.starts_with("Expected")),
                "{dataset:?}:\n{text}"
            );
        }
    }

    #[test]
    fn fig2_renders_all_five_designs() {
        let record = ExperimentRecord {
            name: "fig2".to_string(),
            seed: SEED,
            meta: vec![],
            runs: run_jobs(&Dataset::Fig2.jobs(), 2).unwrap(),
        };
        let text = render(Dataset::Fig2, &record);
        for label in [
            "(a) RetCon",
            "(b) DATM",
            "(c) Eager",
            "(d) EagerStall",
            "(e) Lazy",
        ] {
            assert!(text.contains(label), "missing {label}:\n{text}");
        }
        assert!(text.contains("final-count"));
        // The abort claim is the check table's row, evaluated on the record.
        assert!(
            text.contains("PASS  fig2: RetCon runs the counter essentially abort-free"),
            "{text}"
        );
    }
}
