//! What the host is, for result provenance, and what the process used.

use crate::json::J;
use std::path::PathBuf;
use std::process::Command;

/// The benchmark package's directory in the checkout this binary was
/// built from (`cargo run` always builds in the checkout it runs in).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch and output directory, inside the checkout and git-ignored.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Host threads usable for load generation: never more than two, so a
/// result from a larger machine stays comparable with the 2-vCPU
/// container the bounds were set on.
pub fn load_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Enough about the host and build for a stranger to judge a number.
pub fn provenance() -> J {
    let unknown = || "unknown".to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(unknown);
    J::obj(vec![
        (
            // The driver's checkout is not a git repository; say so
            // rather than fail.
            "git_commit",
            J::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            J::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        ("nproc", J::Num(nproc() as f64)),
        ("load_threads", J::Num(load_threads() as f64)),
        ("cpu_model", J::Str(cpu)),
    ])
}
