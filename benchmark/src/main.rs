//! `retcon-benchmark` — the repository's measurement instrument.
//!
//! ```text
//! retcon-benchmark --workload W --seed S --seconds N --trace 0|1   one run (the driver's form)
//! retcon-benchmark all     [--seed S] [--seconds N] [--smoke] [--out FILE]
//! retcon-benchmark trace   [--seed S] [--seconds N] [--smoke] [--out FILE]
//! retcon-benchmark compare A.json B.json
//! retcon-benchmark bless
//! ```
//!
//! See `benchmark/README.md` for what every workload and metric means.

mod compare;
mod contract;
mod golden;
mod host;
mod json;
mod outcome;
mod probes;
mod serve_workloads;
mod sha256;
mod sim_workloads;
mod span;
mod stats;
mod zipf;

use contract::Contract;
use json::J;
use outcome::RunOutcome;
use serve_workloads::ServeKind;
use sim_workloads::{Contended32, PaperMatrix, ScaleXl, SimWorkload};
use std::process::{Command, ExitCode};

/// `--smoke`: every workload, all checks on, two seconds each.
const SMOKE_SECONDS: f64 = 2.0;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!("usage: retcon-benchmark [run] --workload W [--seed S] [--seconds N] [--trace 0|1]");
    eprintln!("       retcon-benchmark all|trace [--seed S] [--seconds N] [--smoke] [--out FILE]");
    eprintln!("       retcon-benchmark compare A.json B.json");
    eprintln!("       retcon-benchmark bless");
    eprintln!("workloads: {}", Contract::load().workloads.join(", "));
    ExitCode::FAILURE
}

fn parse_options(args: &[String], contract: &Contract) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: golden::DEFAULT_SEED,
        seconds: contract.run_seconds,
        trace: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--smoke" {
            opts.seconds = SMOKE_SECONDS;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                if !contract.workloads.contains(value) {
                    return Err(format!("unknown workload `{value}`"));
                }
                opts.workload = Some(value.clone());
            }
            "--seed" => opts.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (0.1..=600.0).contains(s))
                    .ok_or("--seconds needs a number in 0.1..=600")?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => opts.out = Some(value.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    Ok(opts)
}

// ------------------------------------------------------------- traced runs

/// Spans whose self-time share of the traced interval is a per-layer
/// metric (`span.share.<name>`); `workloads.build` is published as
/// `workloads.build_share`.
const SHARE_SPANS: [&str; 15] = [
    "lab.cache_lookup",
    "lab.cache_insert",
    "lab.record_for",
    "lab.static_table",
    "lab.to_json",
    "lab.to_csv",
    "sim.machine_new",
    "sim.run",
    "sim.machine_drop",
    "workloads.run_sharded",
    "serve.send",
    "serve.wait_first_line",
    "serve.read_rest",
    "serve.parse",
    "serve.verify",
];

/// Datasets whose time inside a pass is a per-layer metric
/// (`lab.dataset_s.<name>`): the seven that simulate anything new.
const DATASET_SPANS: [&str; 7] = [
    "fig1",
    "fig2",
    "fig3",
    "fig9",
    "ablation_ideal",
    "ablation_sizes",
    "scaling",
];

/// The part of a traced run every workload shares.
struct TraceSummary {
    spans: Vec<span::Span>,
    /// Host seconds the spans cover (a pass, or the traced load interval
    /// summed over connections).
    traced_s: f64,
    overhead_ratio: f64,
    requests: f64,
    work: outcome::SimWork,
}

/// Per-layer metrics every traced run derives from its spans (a layer
/// the workload never calls reads 0: no calls, no time), and the spans
/// themselves as a Chrome trace file.
fn finish_trace(workload: &str, t: &TraceSummary, out: &mut RunOutcome) -> Result<(), String> {
    let totals = span::totals_by_name(&t.spans);
    let wall_ns = t.traced_s * 1e9;
    let share = |name: &str| totals.get(name).map_or(0.0, |n| n.self_ns as f64 / wall_ns);
    for name in SHARE_SPANS {
        out.metric(&format!("span.share.{name}"), share(name));
    }
    out.metric("workloads.build_share", share("workloads.build"));
    out.metric(
        "lab.serialize_share",
        share("lab.to_json") + share("lab.to_csv"),
    );
    for name in DATASET_SPANS {
        let total = totals.get(&format!("lab.dataset.{name}"));
        out.metric(
            &format!("lab.dataset_s.{name}"),
            total.map_or(0.0, |n| n.total_ns as f64 / 1e9),
        );
    }
    out.metric("trace.overhead_ratio", t.overhead_ratio);
    out.metric(
        "trace.attributed_share",
        sim_workloads::attributed_share(&t.spans),
    );
    out.metric("sim.instr_per_req", t.work.instructions as f64 / t.requests);
    out.metric("sim.cycles_per_req", t.work.cycles as f64 / t.requests);
    out.note("spans", J::Num(t.spans.len() as f64));
    let dir = host::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace.{workload}.json"));
    std::fs::write(&path, span::to_chrome_json(&t.spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.note("trace_file", J::Str(path.display().to_string()));
    Ok(())
}

fn traced_sim<W: SimWorkload>(seed: u64) -> Result<RunOutcome, String> {
    let mut t = sim_workloads::run_traced::<W>(seed)?;
    let mut out = std::mem::take(&mut t.out);
    out.metric("lab.simulate_share", t.lab_simulate_s / t.untraced_s);
    lab_matrix_metrics(&mut out, W::lab_matrix_metrics(&t.raw, &t.digested));
    finish_trace(
        W::NAME,
        &TraceSummary {
            traced_s: t.traced_s,
            overhead_ratio: t.traced_s / t.untraced_s,
            requests: t.digested.requests as f64,
            work: t.digested.work,
            spans: t.spans,
        },
        &mut out,
    )?;
    Ok(out)
}

fn lab_matrix_metrics(out: &mut RunOutcome, values: [f64; 4]) {
    for (name, value) in sim_workloads::LAB_MATRIX_METRICS.into_iter().zip(values) {
        out.metric(name, value);
    }
}

fn run_traced(workload: &str, seed: u64, seconds: f64) -> Result<RunOutcome, String> {
    let mut out = match workload {
        "paper_matrix" => traced_sim::<PaperMatrix>(seed)?,
        "contended32" => traced_sim::<Contended32>(seed)?,
        "scale_xl" => traced_sim::<ScaleXl>(seed)?,
        _ => {
            let kind = serve_kind(workload);
            // A third of the run each for the untraced and traced halves
            // leaves the rest of the budget to the probes.
            let mut t = serve_workloads::run_traced(kind, seed, seconds / 3.0)?;
            let mut out = std::mem::take(&mut t.out);
            out.metric("lab.simulate_share", 0.0);
            lab_matrix_metrics(&mut out, [0.0; 4]);
            finish_trace(
                workload,
                &TraceSummary {
                    // Connections run side by side: their spans cover
                    // `connections × interval` of host time.
                    traced_s: t.traced_s * host::load_threads() as f64,
                    overhead_ratio: t.untraced_req_per_s / t.traced_req_per_s,
                    requests: t.requests as f64,
                    work: t.work,
                    spans: t.spans,
                },
                &mut out,
            )?;
            out
        }
    };
    out.metrics.extend(probes::run_all()?);
    Ok(out)
}

fn serve_kind(workload: &str) -> ServeKind {
    if workload == "serve_warm" {
        ServeKind::Warm
    } else {
        ServeKind::Cold
    }
}

fn run_e2e(workload: &str, seed: u64, seconds: f64) -> Result<RunOutcome, String> {
    match workload {
        "paper_matrix" => sim_workloads::run_e2e::<PaperMatrix>(seed, seconds),
        "contended32" => sim_workloads::run_e2e::<Contended32>(seed, seconds),
        "scale_xl" => sim_workloads::run_e2e::<ScaleXl>(seed, seconds),
        _ => serve_workloads::run_e2e(serve_kind(workload), seed, seconds),
    }
}

// ---------------------------------------------------------------- one run

/// Prefix of the line that carries a run's raw samples to `all`/`trace`.
const DETAIL_PREFIX: &str = "#detail ";

fn run_one(opts: &Options, contract: &Contract) -> Result<(), String> {
    let workload = opts.workload.as_deref().ok_or("--workload is required")?;
    let mut out = if opts.trace {
        run_traced(workload, opts.seed, opts.seconds)?
    } else {
        run_e2e(workload, opts.seed, opts.seconds)?
    };
    // Every declared metric, exactly once, with its declared unit.
    let mut metrics = Vec::new();
    for decl in contract.declared(opts.trace) {
        let value = out
            .metrics
            .iter()
            .find(|(name, _)| *name == decl.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric `{}` was not measured", decl.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not a number", decl.name));
        }
        println!(
            "{workload:<13} {:<40} {value:>16.4} {}",
            decl.name, decl.unit
        );
        metrics.push((
            decl.name.clone(),
            J::obj(vec![("value", J::Num(value)), ("unit", J::str(&decl.unit))]),
        ));
    }
    if let Some((name, _)) = out
        .metrics
        .iter()
        .find(|(name, _)| contract.find(name).is_none())
    {
        return Err(format!("metric `{name}` is not declared in BENCHMARK.json"));
    }
    for failure in &out.failures {
        println!("{workload:<13} FAILED: {failure}");
    }
    println!(
        "{workload:<13} ops_attempted {} ops_failed {}",
        out.attempted, out.failed
    );
    out.note("seed", J::Num(opts.seed as f64));
    out.note("seconds", J::Num(opts.seconds));
    out.note(
        "failures",
        J::Arr(out.failures.iter().map(|f| J::str(f)).collect()),
    );
    println!("{DETAIL_PREFIX}{}", J::Obj(out.detail).to_line());
    let result = J::obj(vec![
        ("correct", J::Bool(out.failed == 0)),
        ("attempted", J::Num(out.attempted as f64)),
        ("failed", J::Num(out.failed as f64)),
        ("metrics", J::Obj(metrics)),
    ]);
    println!("{}", result.to_line());
    Ok(())
}

// ------------------------------------------------------------ all / trace

/// Re-executes this binary once per workload — one child process each,
/// so peak RSS and allocator state are per workload — and gathers the
/// children's result lines and raw samples into one result file.
fn run_all(opts: &Options, contract: &Contract, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in &contract.workloads {
        let child = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawning the {workload} run: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        for line in lines.iter().filter(|l| !l.starts_with(DETAIL_PREFIX)) {
            println!("{line}");
        }
        if !child.status.success() {
            eprint!("{}", String::from_utf8_lossy(&child.stderr));
            return Err(format!("the {workload} run exited with {}", child.status));
        }
        let result = J::parse(lines.last().ok_or("the run printed nothing")?)?;
        let detail = lines
            .iter()
            .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
            .map_or(Ok(J::Null), J::parse)?;
        all_correct &= result.get("correct").and_then(J::as_bool) == Some(true);
        let mut fields = result.fields().to_vec();
        fields.push(("detail".to_string(), detail));
        workloads.push((workload.clone(), J::Obj(fields)));
    }
    let file = J::obj(vec![
        ("provenance", host::provenance()),
        ("seed", J::Num(opts.seed as f64)),
        ("seconds", J::Num(opts.seconds)),
        ("traced", J::Bool(trace)),
        ("workloads", J::Obj(workloads)),
    ]);
    let default = if trace {
        "trace-result.json"
    } else {
        "result.json"
    };
    let path = opts
        .out
        .as_ref()
        .map_or_else(|| host::out_dir().join(default), std::path::PathBuf::from);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.to_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn bless() -> Result<(), String> {
    let dir = host::bench_dir().join("golden");
    for (file, text) in [
        (
            "paper_matrix.sha256",
            sim_workloads::bless::<PaperMatrix>()?,
        ),
        (
            "contended32.hash128",
            sim_workloads::bless::<Contended32>()?,
        ),
        ("scale_xl.hash128", sim_workloads::bless::<ScaleXl>()?),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("blessed {}", path.display());
    }
    println!("rebuild before the next run: the golden files are compiled in");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let contract = Contract::load();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "all" | "trace" | "compare" | "bless")) => (c, &args[1..]),
        Some(_) => ("run", &args[..]),
        None => return usage(),
    };
    let result = match command {
        "compare" => match rest {
            [a, b] => compare::compare_files(a, b, &contract),
            _ => return usage(),
        },
        "bless" => bless().map(|()| true),
        _ => match parse_options(rest, &contract) {
            Err(e) => {
                eprintln!("{e}");
                return usage();
            }
            Ok(opts) => match command {
                "run" => run_one(&opts, &contract).map(|()| true),
                "all" => run_all(&opts, &contract, false),
                _ => run_all(&opts, &contract, true),
            },
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("retcon-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
