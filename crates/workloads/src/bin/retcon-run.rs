//! Command-line workload runner.
//!
//! ```text
//! cargo run --release -p retcon-workloads --bin retcon-run -- \
//!     --workload genome-sz --system RetCon --cores 16 --seed 42
//! ```
//!
//! Runs one workload under one hardware configuration and prints the
//! simulator's report: cycles, speedup over the sequential baseline,
//! commit/abort/stall counts, the time breakdown, and — under RETCON — the
//! Table 3 structure-utilization statistics.
//!
//! `--json` instead emits the run as a machine-readable record in exactly
//! the `retcon-lab` `RunRecord` JSON shape (workload/system/cores/seed
//! context plus the full [`retcon_sim::SimReport`] serialization), so ad-hoc
//! runs can be concatenated with harness-generated result sets.

use std::process::ExitCode;

use retcon_sim::json::Json;
use retcon_sim::SimConfig;
use retcon_workloads::{
    run_spec_opts, sequential_baseline, RunOptions, System, Workload, MAX_SIM_CORES,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: retcon-run --workload <name> [--system <name>] [--cores <n>] [--seed <n>] \
         [--shards <n>] [--schedule-seed <n>] [--trace <path>] [--json]"
    );
    eprintln!();
    let mut names: Vec<&str> = Workload::all().iter().map(|w| w.label()).collect();
    names.push(Workload::ScalingXl.label());
    eprintln!("workloads: {}", names.join(", "));
    eprintln!("systems:   eager, eager-abort, lazy, lazy-vb, RetCon, RetCon-ideal, datm");
    eprintln!();
    eprintln!("--schedule-seed fuzzes the instruction interleaving (seeded, reproducible);");
    eprintln!("omitting it keeps the deterministic smallest-(clock, core) schedule");
    eprintln!();
    eprintln!("--cores up to 1024 (CoreSet size classes: 64/128/256/512/1024)");
    eprintln!("--shards N runs disjoint core ranges on host threads; the report is");
    eprintln!("byte-identical to the serial run (ignored under --schedule-seed)");
    eprintln!();
    eprintln!("--trace PATH records transaction events (begin/conflict/stall/repair/");
    eprintln!("abort/commit, storm fast-forwards, shard merges) and writes them as");
    eprintln!("Chrome trace-event JSON, loadable in chrome://tracing or Perfetto.");
    eprintln!("Tracing never changes the report; the event count, stream hash and");
    eprintln!("per-kind counts are printed to stderr");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut system = System::Retcon;
    let mut cores = 32usize;
    let mut seed = 42u64;
    let mut shards = 1usize;
    let mut schedule_seed = None;
    let mut trace: Option<String> = None;
    let mut json = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Option<&String> { args.get(i + 1) };
        match args[i].as_str() {
            "--workload" | "-w" => match value(i).and_then(|v| Workload::parse(v)) {
                Some(w) => workload = Some(w),
                None => return usage(),
            },
            "--system" | "-s" => match value(i).and_then(|v| System::parse(v)) {
                Some(s) => system = s,
                None => return usage(),
            },
            "--cores" | "-c" => match value(i).and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cores = n,
                _ => return usage(),
            },
            "--seed" => match value(i).and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => return usage(),
            },
            "--shards" => match value(i).and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => return usage(),
            },
            "--schedule-seed" => match value(i).and_then(|v| v.parse().ok()) {
                Some(n) => schedule_seed = Some(n),
                None => return usage(),
            },
            "--trace" => match value(i) {
                Some(path) => trace = Some(path.clone()),
                None => return usage(),
            },
            "--json" => {
                json = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => {
                let _ = usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage();
    };

    let seq = match sequential_baseline(workload, seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sequential baseline failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cores > MAX_SIM_CORES {
        eprintln!("--cores {cores} exceeds the widest CoreSet size class ({MAX_SIM_CORES} cores)");
        return ExitCode::FAILURE;
    }
    let spec = workload.build(cores, seed);
    let mut cfg = SimConfig::with_cores(cores);
    cfg.schedule_seed = schedule_seed;
    let opts = RunOptions {
        cfg,
        retcon: None,
        shards,
        trace_capacity: trace.as_ref().map(|_| retcon_obs::ring::DEFAULT_CAPACITY),
    };
    let (report, tracer) = match run_spec_opts(&spec, system, &opts) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(path), Some(tracer)) = (&trace, &tracer) {
        if let Err(e) = std::fs::write(path, retcon_obs::chrome::to_chrome_json(tracer)) {
            eprintln!("trace write failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "trace: {} events ({} dropped, stream hash {:016x}) -> {path}",
            tracer.len(),
            tracer.dropped(),
            tracer.stream_hash()
        );
        for kind in retcon_obs::EventKind::ALL {
            let n = tracer.count(kind);
            if n > 0 {
                eprintln!("  {:<12} {n}", kind.name());
            }
        }
    }

    if json {
        // The `retcon-lab` RunRecord shape; a fuzzed schedule is recorded
        // as a knob so the run stays replayable from its record alone.
        let knobs = match schedule_seed {
            Some(s) => vec![Json::Arr(vec![
                Json::str("schedule-seed"),
                Json::str(&s.to_string()),
            ])],
            None => Vec::new(),
        };
        let record = Json::obj(vec![
            ("workload", Json::str(workload.label())),
            ("system", Json::str(system.label())),
            ("cores", Json::UInt(cores as u64)),
            ("seed", Json::UInt(seed)),
            // Execution-strategy envelope, deliberately *not* a knob: a
            // sharded run's report is byte-identical to serial, so the
            // record's content hash must not depend on it.
            ("shards", Json::UInt(shards as u64)),
            ("knobs", Json::Arr(knobs)),
            ("seq_cycles", Json::UInt(seq)),
            ("report", report.to_json()),
        ]);
        print!("{}", record.to_pretty_string());
        return ExitCode::SUCCESS;
    }

    println!("workload   {}", workload.label());
    println!("system     {}", system.label());
    println!("cores      {cores}");
    println!("seed       {seed}");
    if shards > 1 {
        println!("shards     {shards}");
    }
    if let Some(s) = schedule_seed {
        println!("schedule   fuzzed (seed {s})");
    }
    println!();
    println!("cycles     {} (sequential: {seq})", report.cycles);
    println!("speedup    {:.2}x", report.speedup_over(seq));
    println!(
        "txs        {} commits, {} aborts ({} conflict / {} validation / {} overflow / {} cycle), {} stalls",
        report.protocol.commits,
        report.protocol.aborts(),
        report.protocol.aborts_conflict,
        report.protocol.aborts_validation,
        report.protocol.aborts_overflow,
        report.protocol.aborts_cycle,
        report.protocol.stalls,
    );
    let b = report.breakdown();
    let (busy, conflict, barrier, other) = b.fractions();
    println!(
        "breakdown  busy {:.1}% | conflict {:.1}% | barrier {:.1}% | other {:.1}%",
        100.0 * busy,
        100.0 * conflict,
        100.0 * barrier,
        100.0 * other
    );
    if let Some(rs) = &report.retcon {
        println!();
        println!("RETCON structures (avg / max per committed tx):");
        println!(
            "  blocks lost        {:.1} / {}",
            rs.avg_blocks_lost(),
            rs.max.blocks_lost
        );
        println!(
            "  blocks tracked     {:.1} / {}",
            rs.avg_blocks_tracked(),
            rs.max.blocks_tracked
        );
        println!(
            "  symbolic registers {:.1} / {}",
            rs.avg_symbolic_registers(),
            rs.max.symbolic_registers
        );
        println!(
            "  private stores     {:.1} / {}",
            rs.avg_private_stores(),
            rs.max.private_stores
        );
        println!(
            "  constraint addrs   {:.1} / {}",
            rs.avg_constraint_addrs(),
            rs.max.constraint_addrs
        );
        println!(
            "  commit cycles      {:.1} / {} ({:.2}% of tx lifetime); {} violations",
            rs.avg_commit_cycles(),
            rs.max.commit_cycles,
            rs.commit_stall_percent(),
            rs.violations
        );
    }
    ExitCode::SUCCESS
}
