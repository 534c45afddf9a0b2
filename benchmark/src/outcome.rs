//! What one run of one workload reports, and how the seven end-to-end
//! metrics are derived from its raw measurements.

use crate::host;
use crate::json::J;
use crate::stats;
use retcon_sim::SimReport;

/// Set-up is done this many times per run and the median reported, so a
/// slow `bind` or page-fault burst (and the first, cold-allocator
/// repetition) does not read as a regression.
pub const SETUP_REPEATS: usize = 5;

/// Raw latency samples kept in the result file.
const MAX_RAW_LATENCIES: usize = 2_000;

/// Failure messages kept verbatim (the count is always exact).
const MAX_FAILURE_MESSAGES: usize = 8;

#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Checked operations: outputs compared with a digest, requests
    /// verified against the offline record, end-of-run invariants.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(name, value)`; units live in `BENCHMARK.json`.
    pub metrics: Vec<(String, f64)>,
    /// Raw samples and settings, for the result file.
    pub detail: Vec<(String, J)>,
}

impl RunOutcome {
    /// Records `count` checked operations, of which `failures` failed.
    pub fn check(&mut self, count: u64, failures: Vec<String>) {
        self.attempted += count;
        self.failed += failures.len() as u64;
        for message in failures {
            if self.failures.len() < MAX_FAILURE_MESSAGES {
                self.failures.push(message);
            }
        }
    }

    /// Records `count` operations that all failed for one reason.
    pub fn fail_all(&mut self, count: u64, message: String) {
        self.attempted += count;
        self.failed += count;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(message);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn note(&mut self, key: &str, value: J) {
        self.detail.push((key.to_string(), value));
    }
}

/// Simulated work of a set of results, summed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SimWork {
    pub results: u64,
    /// Instructions retired (`SimReport::total_instructions`).
    pub instructions: u64,
    pub cycles: u64,
    /// Σ over results of instructions ÷ cycles.
    ipc_sum: f64,
}

impl SimWork {
    pub fn add(&mut self, report: &SimReport) {
        let instructions = report.total_instructions();
        self.results += 1;
        self.instructions += instructions;
        self.cycles += report.cycles;
        self.ipc_sum += instructions as f64 / report.cycles.max(1) as f64;
    }

    pub fn merge(&mut self, other: &SimWork) {
        self.results += other.results;
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.ipc_sum += other.ipc_sum;
    }

    /// Mean over the results of each one's instructions per cycle. The
    /// mean of ratios, not the ratio of sums: a few long single-core runs
    /// would otherwise own the number.
    pub fn mean_ipc(&self) -> f64 {
        self.ipc_sum / self.results.max(1) as f64
    }
}

/// The raw measurements every workload reduces to.
#[derive(Debug, Default)]
pub struct Timed {
    /// One sample per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// The latency sample the percentiles are taken over, microseconds:
    /// every request (fixed-duration workloads), or each request kind's
    /// fastest observation (fixed-work workloads).
    pub lat_us: Vec<f64>,
    /// Every request's latency, in arrival order.
    pub lat_raw_us: Vec<f64>,
    /// Host seconds that delivered `requests` and `work`: each request
    /// kind's fastest observation, summed (fixed-work workloads); the
    /// whole measured interval (fixed-duration ones).
    pub host_s: f64,
    pub requests: f64,
    /// Simulated work of the results delivered in `host_s`.
    pub work: SimWork,
}

/// The seven end-to-end metrics, defined identically on every workload.
pub fn e2e_metrics(t: &Timed, out: &mut RunOutcome) {
    let lat = stats::sorted(&t.lat_us);
    out.metric("setup_s", stats::median(&t.setup_s));
    out.metric(
        "sim_minstr_per_s",
        t.work.instructions as f64 / 1e6 / t.host_s,
    );
    out.metric("req_per_s", t.requests / t.host_s);
    out.metric("lat_p50_us", stats::percentile_sorted(&lat, 0.50));
    out.metric("lat_p95_us", stats::percentile_sorted(&lat, 0.95));
    out.metric("sim_ipc", t.work.mean_ipc());
    out.metric("peak_rss_mb", host::peak_rss_mb());
    out.note("setup_s_samples", J::nums(&t.setup_s));
    out.note("lat_samples", J::Num(lat.len() as f64));
    // Raw latencies in arrival order, thinned evenly to a bounded count
    // so a fast daemon does not produce a megabyte line.
    let step = t.lat_raw_us.len().div_ceil(MAX_RAW_LATENCIES).max(1);
    let raw: Vec<f64> = t.lat_raw_us.iter().step_by(step).copied().collect();
    out.note("lat_us_raw", J::nums(&raw));
    out.note(
        "lat_samples_beyond_p95",
        J::Num(stats::samples_beyond(lat.len(), 0.95) as f64),
    );
    // Deeper tails are diagnostics, printed only when the sample
    // supports them (at least ten samples beyond).
    for p in stats::supported_tails(lat.len()) {
        if p > 0.95 {
            out.note(
                &format!("lat_p{}_us", p * 100.0),
                J::Num(stats::percentile_sorted(&lat, p)),
            );
        }
    }
}
