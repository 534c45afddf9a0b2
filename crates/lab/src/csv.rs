//! CSV emission for experiment records.
//!
//! The CSV form is a **flat projection** for spreadsheets and plotting
//! scripts: one row per run, per-core detail aggregated into the four
//! breakdown buckets. It is output only: the lossless form, and the one
//! `check --from` reads back, is the JSON of [`crate::record`].
//!
//! Layout:
//!
//! ```text
//! # experiment=fig9
//! # seed=42
//! # meta <key>=<value>          (one line per metadata entry)
//! workload,system,protocol,cores,seed,knobs,...   (header)
//! genome,eager,eager,32,42,,123,...               (one row per run)
//! ```
//!
//! Knobs are packed `key=value;key=value`. Cells never need quoting: every
//! label in this workspace is comma-free, and the emitter rejects rather
//! than quietly corrupts if that ever changes.

use crate::record::ExperimentRecord;
use retcon::TxSnapshot;
use retcon_htm::ProtocolStats;
use retcon_sim::TimeBreakdown;

/// The fixed column set, in emission order.
pub fn columns() -> &'static [&'static str] {
    static COLUMNS: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    COLUMNS.get_or_init(|| {
        let mut cols = vec![
            "workload",
            "system",
            "protocol",
            "cores",
            "seed",
            "knobs",
            "seq_cycles",
            "cycles",
        ];
        cols.extend(TimeBreakdown::FIELDS);
        cols.push("instructions");
        cols.extend(ProtocolStats::FIELDS);
        cols.push("retcon");
        cols.extend(["transactions", "tx_cycles", "violations"]);
        for f in TxSnapshot::FIELDS {
            cols.push(&*Box::leak(format!("sum_{f}").into_boxed_str()));
        }
        for f in TxSnapshot::FIELDS {
            cols.push(&*Box::leak(format!("max_{f}").into_boxed_str()));
        }
        cols
    })
}

fn check_cell(kind: &str, value: &str) -> Result<(), String> {
    if value.contains(',') || value.contains('\n') || value.contains('\r') {
        Err(format!("{kind} `{value}` contains a CSV delimiter"))
    } else {
        Ok(())
    }
}

fn knobs_cell(knobs: &[(String, String)]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(knobs.len());
    for (k, v) in knobs {
        check_cell("knob key", k)?;
        check_cell("knob value", v)?;
        if k.contains('=') || k.contains(';') || v.contains('=') || v.contains(';') {
            return Err(format!("knob `{k}={v}` contains a knob delimiter"));
        }
        parts.push(format!("{k}={v}"));
    }
    Ok(parts.join(";"))
}

/// Emits the experiment as CSV (see the module docs for the layout).
///
/// # Errors
///
/// Rejects labels or metadata containing CSV delimiters instead of
/// emitting a corrupt file.
pub fn to_csv(exp: &ExperimentRecord) -> Result<String, String> {
    let mut out = String::new();
    check_cell("experiment name", &exp.name)?;
    out.push_str(&format!("# experiment={}\n", exp.name));
    out.push_str(&format!("# seed={}\n", exp.seed));
    for (k, v) in &exp.meta {
        // A line break ('\r' included) would end the `# meta` line early.
        if k.contains('=') || k.contains('\n') || k.contains('\r') {
            return Err(format!("meta key `{k}` contains a delimiter"));
        }
        if v.contains('\n') || v.contains('\r') {
            return Err(format!("meta `{k}` value contains a line break"));
        }
        out.push_str(&format!("# meta {k}={v}\n"));
    }
    out.push_str(&columns().join(","));
    out.push('\n');
    for run in &exp.runs {
        check_cell("workload", &run.workload)?;
        check_cell("system", &run.system)?;
        check_cell("protocol", &run.report.protocol_name)?;
        let breakdown = run.report.breakdown();
        let mut cells: Vec<String> = vec![
            run.workload.clone(),
            run.system.clone(),
            run.report.protocol_name.clone(),
            run.cores.to_string(),
            run.seed.to_string(),
            knobs_cell(&run.knobs)?,
            run.seq_cycles.to_string(),
            run.report.cycles.to_string(),
        ];
        cells.extend(breakdown.as_array().iter().map(u64::to_string));
        cells.push(run.report.total_instructions().to_string());
        cells.extend(run.report.protocol.as_array().iter().map(u64::to_string));
        match &run.report.retcon {
            None => {
                cells.push("0".to_string());
                cells.extend((0..15).map(|_| String::new()));
            }
            Some(rs) => {
                cells.push("1".to_string());
                cells.push(rs.transactions.to_string());
                cells.push(rs.tx_cycles.to_string());
                cells.push(rs.violations.to_string());
                cells.extend(rs.sum.as_array().iter().map(u64::to_string));
                cells.extend(rs.max.as_array().iter().map(u64::to_string));
            }
        }
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RunRecord;
    use retcon::RetconStats;
    use retcon_sim::{CoreReport, SimReport};

    fn sample() -> ExperimentRecord {
        let mut report = SimReport {
            protocol_name: "RetCon".to_string(),
            cycles: 500,
            ..Default::default()
        };
        report.per_core.push(CoreReport {
            breakdown: TimeBreakdown {
                busy: 100,
                conflict: 200,
                barrier: 0,
                other: 50,
            },
            instructions: 90,
            finished_at: 400,
        });
        report.per_core.push(CoreReport {
            breakdown: TimeBreakdown {
                busy: 150,
                conflict: 0,
                barrier: 0,
                other: 0,
            },
            instructions: 10,
            finished_at: 500,
        });
        report.protocol = ProtocolStats::from_array([5, 1, 0, 0, 0, 2]);
        let mut rs = RetconStats::new();
        rs.record_commit(TxSnapshot::from_array([1, 2, 3, 4, 5, 6]), 60);
        report.retcon = Some(rs);
        ExperimentRecord {
            name: "sample".to_string(),
            seed: 42,
            meta: vec![("k".to_string(), "v with = sign".to_string())],
            runs: vec![
                RunRecord {
                    workload: "counter".to_string(),
                    system: "RetCon".to_string(),
                    cores: 2,
                    seed: 42,
                    knobs: vec![("ivb".to_string(), "4".to_string())],
                    seq_cycles: 900,
                    report,
                },
                RunRecord {
                    workload: "counter".to_string(),
                    system: "eager".to_string(),
                    cores: 1,
                    seed: 42,
                    knobs: vec![],
                    seq_cycles: 0,
                    report: SimReport {
                        protocol_name: "eager".to_string(),
                        cycles: 900,
                        ..Default::default()
                    },
                },
            ],
        }
    }

    #[test]
    fn csv_projection_is_stable() {
        // Per-core detail collapses into the run's aggregates; the
        // knobs, metadata and RETCON statistics are carried verbatim.
        let expected = concat!(
            "# experiment=sample\n",
            "# seed=42\n",
            "# meta k=v with = sign\n",
            "workload,system,protocol,cores,seed,knobs,seq_cycles,cycles,",
            "busy,conflict,barrier,other,instructions,",
            "commits,aborts_conflict,aborts_validation,aborts_overflow,aborts_cycle,stalls,",
            "retcon,transactions,tx_cycles,violations,",
            "sum_blocks_lost,sum_blocks_tracked,sum_symbolic_registers,",
            "sum_private_stores,sum_constraint_addrs,sum_commit_cycles,",
            "max_blocks_lost,max_blocks_tracked,max_symbolic_registers,",
            "max_private_stores,max_constraint_addrs,max_commit_cycles\n",
            "counter,RetCon,RetCon,2,42,ivb=4,900,500,250,200,0,50,100,5,1,0,0,0,2,",
            "1,1,60,0,1,2,3,4,5,6,1,2,3,4,5,6\n",
            "counter,eager,eager,1,42,,0,900,0,0,0,0,0,0,0,0,0,0,0,",
            "0,,,,,,,,,,,,,,,\n",
        );
        assert_eq!(to_csv(&sample()).unwrap(), expected);
    }

    #[test]
    fn csv_rejects_delimiter_labels() {
        let mut exp = sample();
        exp.runs[0].workload = "a,b".to_string();
        assert!(to_csv(&exp).is_err());
    }

    #[test]
    fn csv_rejects_line_breaks_in_meta() {
        let mut exp = sample();
        exp.meta = vec![("k".to_string(), "v\r".to_string())];
        assert!(to_csv(&exp).is_err());
        exp.meta = vec![("k\r".to_string(), "v".to_string())];
        assert!(to_csv(&exp).is_err());
        exp.meta = vec![("k".to_string(), "v\nx".to_string())];
        assert!(to_csv(&exp).is_err());
    }
}
