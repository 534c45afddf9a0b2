//! Command-line plumbing of the `retcon-lab` binary.

use crate::checks;
use crate::csv;
use crate::datasets::Dataset;
use crate::record::ExperimentRecord;
use crate::render;
use crate::runner::ReportCache;
use retcon_obs::phase::{self, PhaseTotal};
use retcon_sim::SimError;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Output selection for a single-dataset invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Output {
    /// The historical stdout table.
    Table,
    /// The lossless JSON record.
    Json,
    /// The flat CSV projection.
    Csv,
}

/// Options shared by `all`, `run` and `explore`.
#[derive(Debug)]
struct BinOptions {
    jobs: usize,
    output: Output,
    out_dir: Option<PathBuf>,
    /// Surface phase-profiling timings (simulate / serialize)
    /// in record `meta` and a stdout summary. Off by default because the
    /// timings are wall-clock — records must stay byte-deterministic
    /// unless the caller opts into this.
    profile: bool,
}

fn parse_bin_options(args: &[String]) -> Result<BinOptions, String> {
    let mut opts = BinOptions {
        jobs: 1,
        output: Output::Table,
        out_dir: None,
        profile: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" | "-j" => {
                let v = args
                    .get(i + 1)
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|n| (1..=256).contains(n))
                    .ok_or("--jobs needs a worker count in 1..=256")?;
                opts.jobs = v;
                i += 2;
            }
            "--json" => {
                opts.output = Output::Json;
                i += 1;
            }
            "--csv" => {
                opts.output = Output::Csv;
                i += 1;
            }
            "--out" | "-o" => {
                let v = args.get(i + 1).ok_or("--out needs a directory")?;
                opts.out_dir = Some(PathBuf::from(v));
                i += 2;
            }
            "--profile" => {
                opts.profile = true;
                i += 1;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn write_record(dir: &Path, record: &ExperimentRecord) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let t = Instant::now();
    let json_text = record.to_json_string();
    let csv_text = csv::to_csv(record)?;
    phase::add(phase::Phase::Serialize, t.elapsed().as_micros() as u64);
    let json_path = dir.join(format!("{}.json", record.name));
    std::fs::write(&json_path, json_text)
        .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    let csv_path = dir.join(format!("{}.csv", record.name));
    std::fs::write(&csv_path, csv_text)
        .map_err(|e| format!("writing {}: {e}", csv_path.display()))?;
    Ok(())
}

/// The `meta` rows a phase-profile delta contributes to a record:
/// `profile_<phase>_micros` / `_spans` for every phase that saw work.
fn profile_meta(delta: &[PhaseTotal]) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for t in delta {
        if t.spans == 0 {
            continue;
        }
        let name = t.phase.name();
        rows.push((format!("profile_{name}_micros"), t.micros.to_string()));
        rows.push((format!("profile_{name}_spans"), t.spans.to_string()));
    }
    rows
}

fn emit(dataset: Dataset, record: &ExperimentRecord, output: Output) -> Result<(), String> {
    match output {
        Output::Table => print!("{}", render::render(dataset, record)),
        Output::Json => print!("{}", record.to_json_string()),
        Output::Csv => print!("{}", csv::to_csv(record)?),
    }
    Ok(())
}

fn run_error(e: SimError) -> ExitCode {
    eprintln!("simulation failed: {e}");
    ExitCode::FAILURE
}

fn usage() -> ExitCode {
    eprintln!("usage: retcon-lab <command> [options]");
    eprintln!();
    eprintln!("commands:");
    eprintln!(
        "  all   [--jobs N] [--out DIR] [--profile]   regenerate every dataset (default out: results/)"
    );
    eprintln!("  run   <dataset> [--jobs N] [--json | --csv] [--out DIR] [--profile]");
    eprintln!("  check [--quick] [--jobs N] [--in DIR]");
    eprintln!("  explore [--quick] [--jobs N] [--json | --csv] [--out DIR]   schedule exploration");
    eprintln!("  list");
    eprintln!();
    eprintln!(
        "datasets: {}",
        Dataset::ALL
            .iter()
            .map(|d| d.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    eprintln!("extras (run explicitly, not part of `all`): scaling_xl");
    eprintln!();
    eprintln!("single traced runs: retcon-run --trace; timing: benchmark/ (see its README)");
    ExitCode::FAILURE
}

fn cmd_all(args: &[String]) -> ExitCode {
    let mut opts = match parse_bin_options(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if opts.output != Output::Table {
        // `all` always writes the JSON+CSV pair per dataset; accepting a
        // stdout-format flag here and ignoring it would mislead.
        eprintln!("`all` writes both formats to --out; --json/--csv apply to `run`");
        return usage();
    }
    let dir = opts
        .out_dir
        .take()
        .unwrap_or_else(|| PathBuf::from("results"));
    let started = Instant::now();
    // One cache across all datasets: fig10 is a strict subset of fig9's
    // at-scale matrix and ablation_ideal repeats its baselines, so the
    // shared memo avoids recomputing ~70 deterministic 32-core runs.
    let cache = ReportCache::new();
    for dataset in Dataset::ALL {
        let t = Instant::now();
        let before = phase::snapshot();
        let mut record = match dataset.collect_cached(opts.jobs, &cache) {
            Ok(record) => record,
            Err(e) => return run_error(e),
        };
        if opts.profile {
            let delta = phase::delta(&before, &phase::snapshot());
            record.meta.extend(profile_meta(&delta));
        }
        if let Err(e) = write_record(&dir, &record) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!(
            "{:<16} {:>4} runs  {:>8.2}s  -> {}.{{json,csv}}",
            dataset.name(),
            record.runs.len(),
            t.elapsed().as_secs_f64(),
            dir.join(dataset.name()).display()
        );
    }
    println!(
        "regenerated {} datasets in {:.2}s (jobs={})",
        Dataset::ALL.len(),
        started.elapsed().as_secs_f64(),
        opts.jobs
    );
    if opts.profile {
        println!();
        println!("phase profile (whole invocation):");
        for t in phase::snapshot() {
            println!(
                "  {:<12} {:>10.3}ms over {:>5} spans",
                t.phase.name(),
                t.micros as f64 / 1000.0,
                t.spans
            );
        }
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let Some(dataset) = Dataset::parse(name) else {
        eprintln!("unknown dataset `{name}`");
        return usage();
    };
    let opts = match parse_bin_options(&args[1..]) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let before = phase::snapshot();
    let mut record = match dataset.collect(opts.jobs) {
        Ok(record) => record,
        Err(e) => return run_error(e),
    };
    if opts.profile {
        let delta = phase::delta(&before, &phase::snapshot());
        record.meta.extend(profile_meta(&delta));
    }
    if let Some(dir) = &opts.out_dir {
        if let Err(e) = write_record(dir, &record) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = emit(dataset, &record, opts.output) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if opts.profile {
        eprintln!();
        eprintln!("phase profile (whole invocation):");
        for t in phase::snapshot() {
            eprintln!(
                "  {:<12} {:>10.3}ms over {:>5} spans",
                t.phase.name(),
                t.micros as f64 / 1000.0,
                t.spans
            );
        }
    }
    ExitCode::SUCCESS
}

fn load_or_collect(
    dataset: Dataset,
    in_dir: Option<&Path>,
    jobs: usize,
    cache: &ReportCache,
) -> Result<ExperimentRecord, String> {
    if let Some(dir) = in_dir {
        let path = dir.join(format!("{}.json", dataset.name()));
        if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            return ExperimentRecord::from_json_str(&text)
                .map_err(|e| format!("{}: {e}", path.display()));
        }
    }
    dataset
        .collect_cached(jobs, cache)
        .map_err(|e| format!("{}: {e}", dataset.name()))
}

fn cmd_check(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut jobs = 1usize;
    let mut in_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--jobs" | "-j" => {
                let Some(v) = args
                    .get(i + 1)
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|n| (1..=256).contains(n))
                else {
                    return usage();
                };
                jobs = v;
                i += 2;
            }
            "--in" => {
                let Some(v) = args.get(i + 1) else {
                    return usage();
                };
                in_dir = Some(PathBuf::from(v));
                i += 2;
            }
            _ => return usage(),
        }
    }

    let (checks, records) = if quick {
        let records = match checks::quick_records(jobs) {
            Ok(records) => records,
            Err(e) => return run_error(e),
        };
        (checks::quick_checks(), records)
    } else {
        let checks = checks::full_checks();
        let mut records = BTreeMap::new();
        let cache = ReportCache::new();
        for dataset in checks::datasets(&checks) {
            match load_or_collect(dataset, in_dir.as_deref(), jobs, &cache) {
                Ok(record) => {
                    records.insert(dataset.name().to_string(), record);
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        (checks, records)
    };

    let outcomes = checks::run_checks(&checks, &records);
    let mut failed = 0;
    for o in &outcomes {
        let status = if o.passed { "PASS" } else { "FAIL" };
        if !o.passed {
            failed += 1;
        }
        println!("{status}  [{:<14}] {}", o.dataset, o.name);
        println!("      {}", o.detail);
    }
    println!();
    if failed == 0 {
        println!(
            "all {} paper-shape checks passed ({})",
            outcomes.len(),
            if quick { "quick subset" } else { "full table" }
        );
        ExitCode::SUCCESS
    } else {
        println!("{failed}/{} paper-shape checks FAILED", outcomes.len());
        ExitCode::FAILURE
    }
}

/// `explore`: run the schedule-exploration campaign suite and emit the
/// record. Any violation fails the exit code.
fn cmd_explore(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut rest = Vec::new();
    for a in args {
        if a == "--quick" {
            quick = true;
        } else {
            rest.push(a.clone());
        }
    }
    let opts = match parse_bin_options(&rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let run = crate::explore::run(quick, opts.jobs);
    if let Some(dir) = &opts.out_dir {
        if let Err(e) = write_record(dir, &run.record) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    match opts.output {
        Output::Table => print!("{}", run.summary),
        Output::Json => print!("{}", run.record.to_json_string()),
        Output::Csv => match csv::to_csv(&run.record) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    }
    if run.all_passed {
        ExitCode::SUCCESS
    } else {
        eprintln!("explore: a campaign found a violation (see violations above)");
        ExitCode::FAILURE
    }
}

fn cmd_list() -> ExitCode {
    println!("{:<16} runs  artifact", "dataset");
    // `all` regenerates exactly Dataset::ALL; the chained extras are
    // run-explicitly datasets whose records are not part of that set.
    for dataset in Dataset::ALL.into_iter().chain([Dataset::ScalingXl]) {
        println!(
            "{:<16} {:>4}  {}",
            dataset.name(),
            dataset.jobs().len(),
            dataset.title()
        );
    }
    ExitCode::SUCCESS
}

/// The `retcon-lab` binary entry point.
pub fn lab_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("all") => cmd_all(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("list") => cmd_list(),
        Some("--help" | "-h" | "help") => {
            let _ = usage();
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
