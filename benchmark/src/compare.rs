//! `compare A.json B.json`: per `(workload, metric)` both values, the
//! relative difference, the bound from `BENCHMARK.json` and a verdict.
//! This is the tool every A/B in this repository is judged with.

use crate::contract::{Contract, MetricDecl};
use crate::json::J;
use crate::stats;

/// Per-layer metrics that are counts or ratios of simulated quantities:
/// they repeat exactly, so any difference is a behaviour change.
const EXACT_PREFIXES: [&str; 7] = [
    "sim.events.",
    "sim.instr_per_req",
    "sim.cycles_per_req",
    "lab.cache_hit_ratio",
    "lab.retcon_speedup_geomean",
    "lab.paper_checks_",
    "serve.join_executed",
];

/// Exact only where the request mix is fixed: under fixed duration the
/// serve workloads deliver a host-dependent number of requests.
fn is_exact(workload: &str, metric: &str) -> bool {
    let fixed_mix = !workload.starts_with("serve_");
    EXACT_PREFIXES.iter().any(|p| metric.starts_with(p))
        && (fixed_mix || !metric.starts_with("sim.") || metric.starts_with("sim.events."))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The difference exceeds the bound, but so does a side's own
    /// run-internal spread: the run cannot tell.
    Unresolved,
    /// No bound applies (per-layer host time): reported, not judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (b - a) / a.abs();
    if decl.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(decl: &MetricDecl, exact: bool, a: f64, b: f64, spread: f64) -> Verdict {
    if exact {
        return if a == b { Verdict::Ok } else { Verdict::Worse };
    }
    match decl.bound {
        None => Verdict::Info,
        Some(bound) if worsening(decl, a, b) <= bound => Verdict::Ok,
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(_) => Verdict::Worse,
    }
}

/// A run's own spread: the relative interquartile range of its raw pass
/// times (fixed-work workloads; `None` for fixed-duration ones, whose
/// single interval has no internal repeats).
fn own_spread(workload: &J) -> f64 {
    workload
        .get("detail")
        .and_then(|d| d.get("pass_s"))
        .and_then(J::as_arr)
        .map(|v| v.iter().filter_map(J::as_f64).collect::<Vec<_>>())
        .and_then(|v| stats::relative_iqr(&v))
        .unwrap_or(0.0)
}

fn failed_share(workload: &J) -> f64 {
    let num = |k| workload.get(k).and_then(J::as_f64).unwrap_or(0.0);
    num("failed") / num("attempted").max(1.0)
}

fn load(path: &str) -> Result<J, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    J::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(false)` if anything is worse.
pub fn compare_files(a_path: &str, b_path: &str, contract: &Contract) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (side, file) in [("A", &a), ("B", &b)] {
        let p = file.get("provenance");
        let field = |k| p.and_then(|p| p.get(k)).and_then(J::as_str).unwrap_or("?");
        println!(
            "{side}: commit {} · {} · {}",
            field("git_commit"),
            field("rustc"),
            field("cpu_model")
        );
    }
    println!(
        "{:<13} {:<38} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut all_ok = true;
    let none = J::Null;
    let b_workloads = b.get("workloads").unwrap_or(&none);
    for (name, wa) in a.get("workloads").unwrap_or(&none).fields() {
        let Some(wb) = b_workloads.get(name) else {
            println!("{name:<13} missing from B");
            all_ok = false;
            continue;
        };
        let spread = own_spread(wa).max(own_spread(wb));
        let metrics_b = wb.get("metrics").unwrap_or(&none);
        for (metric, va) in wa.get("metrics").unwrap_or(&none).fields() {
            let value = |v: &J| v.get("value").and_then(J::as_f64);
            let (Some(x), Some(y)) = (value(va), metrics_b.get(metric).and_then(value)) else {
                println!("{name:<13} {metric:<38} missing from B");
                all_ok = false;
                continue;
            };
            let Some(decl) = contract.find(metric) else {
                continue;
            };
            let v = verdict(decl, is_exact(name, metric), x, y, spread);
            all_ok &= v != Verdict::Worse;
            println!(
                "{name:<13} {metric:<38} {x:>14.4} {y:>14.4} {:>+8.1}% {:>6}  {}",
                // `+ 0.0` turns a negative zero into a positive one.
                (worsening(decl, x, y) * 1000.0).round() / 10.0 + 0.0,
                decl.bound.map_or("-".to_string(), |b| format!("{b}")),
                v.label()
            );
        }
        if failed_share(wb) > failed_share(wa) {
            println!(
                "{name:<13} failed share rose from {} to {}",
                failed_share(wa),
                failed_share(wb)
            );
            all_ok = false;
        }
    }
    println!(
        "{}",
        if all_ok {
            "no regression"
        } else {
            "REGRESSION"
        }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher: bool, bound: Option<f64>) -> MetricDecl {
        MetricDecl {
            name: "m".to_string(),
            unit: "u".to_string(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = decl(false, Some(0.1));
        let higher = decl(true, Some(0.1));
        assert!((worsening(&lower, 100.0, 108.0) - 0.08).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 108.0) + 0.08).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 80.0) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let lower = decl(false, Some(0.1));
        // Within the bound, and better, are both ok.
        assert_eq!(verdict(&lower, false, 100.0, 109.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(&lower, false, 100.0, 50.0, 0.5), Verdict::Ok);
        // Beyond the bound with quiet sides: worse.
        assert_eq!(verdict(&lower, false, 100.0, 120.0, 0.02), Verdict::Worse);
        // Beyond the bound, but a side's own spread is wider than it.
        assert_eq!(
            verdict(&lower, false, 100.0, 120.0, 0.15),
            Verdict::Unresolved
        );
        // Exact metrics must be equal, in either direction.
        assert_eq!(verdict(&lower, true, 7.0, 7.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(&lower, true, 7.0, 6.0, 0.9), Verdict::Worse);
        // Per-layer host times carry no bound.
        assert_eq!(
            verdict(&decl(false, None), false, 1.0, 9.0, 0.0),
            Verdict::Info
        );
    }

    #[test]
    fn exactness_depends_on_the_workload() {
        assert!(is_exact("contended32", "sim.instr_per_req"));
        assert!(!is_exact("serve_cold", "sim.instr_per_req"));
        assert!(is_exact("serve_cold", "sim.events.stall"));
        assert!(is_exact("serve_warm", "serve.join_executed"));
        assert!(!is_exact("paper_matrix", "sim.machine_new_us"));
    }
}
