//! `retcon-serve` — daemon entry point.
//!
//! ```text
//! retcon-serve [--addr HOST:PORT] [--workers N] [--capacity-mb MB]
//!              [--spill DIR]
//! ```
//!
//! Lifecycle lines go to stderr. When `--spill` names a directory with
//! prior results, the boot warm-start scan is reported (`recovered N,
//! quarantined M`) before the listening line. Prints `retcon-serve
//! listening on ADDR` once the socket is bound (port 0 resolves to the
//! ephemeral port picked), then serves until a `shutdown` request drains
//! it. The request limits and the worker-panic retry bound are fixed
//! (DESIGN.md § Serving → Fault model).

use retcon_serve::{Server, ServerConfig};
use std::process::ExitCode;

fn usage() -> String {
    "usage: retcon-serve [--addr HOST:PORT] [--workers N] [--capacity-mb MB] [--spill DIR]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value\n{}", usage()))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--capacity-mb" => {
                let mb: u64 = value("--capacity-mb")?
                    .parse()
                    .map_err(|e| format!("--capacity-mb: {e}"))?;
                cfg.capacity_bytes = mb << 20;
            }
            "--spill" => cfg.spill = Some(value("--spill")?.into()),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let spilled = cfg.spill.is_some();
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("retcon-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if spilled {
        let stats = server.store_stats();
        eprintln!(
            "retcon-serve warm start: recovered {}, quarantined {}",
            stats.recovered_on_boot, stats.quarantined
        );
    }
    eprintln!("retcon-serve listening on {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("retcon-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
