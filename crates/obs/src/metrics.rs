//! Integer-only metrics: log2 histograms and Prometheus text exposition.
//!
//! A [`Log2Hist`] is atomics — recording on a hot path is one
//! `fetch_add` — and everything renders as integers, matching the
//! repo-wide "no floats in machine-readable output" rule. Counters and
//! gauges have no type of their own: [`render_exposition`] renders the
//! values a caller already keeps (the daemon's `stats` fields) beside
//! its histograms as one exposition document; [`validate_exposition`]
//! checks a document well-formed (used by the CI smoke job and the
//! test suite, so the daemon's output is verified by the same code
//! that defines the format).

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram buckets: powers of two up to `2^(BUCKETS-1)`, plus an
/// implicit `+Inf`. 40 doublings cover one microsecond to ~12 days —
/// every latency this repo measures.
const BUCKETS: usize = 40;

/// A log2-bucketed histogram of non-negative integers.
///
/// `observe(v)` lands `v` in the first bucket whose upper bound
/// `2^i >= v` (zero lands with one). One atomic add per observation;
/// cumulative `le` counts are computed at render time, so the hot path
/// touches exactly one bucket.
#[derive(Debug)]
pub struct Log2Hist {
    buckets: [AtomicU64; BUCKETS],
    /// Observations above the largest finite bucket.
    overflow: AtomicU64,
    sum: AtomicU64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Log2Hist {
        Log2Hist::default()
    }

    /// Records one value.
    pub fn observe(&self, v: u64) {
        let idx = if v <= 1 {
            0
        } else {
            64 - (v - 1).leading_zeros() as usize
        };
        if idx < BUCKETS {
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum::<u64>()
            + self.overflow.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Renders the histogram family (buckets, sum, count) for `name`.
    /// Empty trailing buckets are elided; the `+Inf` bucket always
    /// appears.
    fn render_into(&self, out: &mut String, name: &str) {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let last_used = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().take(last_used).enumerate() {
            cumulative += c;
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                1u64 << i
            ));
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
            self.count(),
            self.sum(),
            self.count()
        ));
    }
}

/// The Prometheus type of a scalar sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotone tally.
    Counter,
    /// A point-in-time value that can go up and down.
    Gauge,
}

/// Renders one Prometheus text exposition document: each histogram in
/// `histograms` order, then each scalar in `scalars` order, every name
/// rendered as `<prefix>_<name>`. The caller passes the numbers it
/// already holds, so nothing is copied into a second set of metrics.
pub fn render_exposition(
    prefix: &str,
    histograms: &[(&str, &Log2Hist)],
    scalars: &[(&str, MetricKind, u64)],
) -> String {
    let mut out = String::new();
    for (name, hist) in histograms {
        hist.render_into(&mut out, &format!("{prefix}_{name}"));
    }
    for (name, kind, value) in scalars {
        let kind = match kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        };
        out.push_str(&format!(
            "# TYPE {prefix}_{name} {kind}\n{prefix}_{name} {value}\n"
        ));
    }
    out
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Checks a Prometheus text exposition document for well-formedness:
/// every line is a `# TYPE`/`# HELP` comment or `name[{labels}] <int>`
/// sample; names are legal; every sample's base name was declared by a
/// preceding `# TYPE`; histogram bucket counts are cumulative and end
/// at `+Inf`.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut declared: Vec<(String, String)> = Vec::new(); // (name, type)
    let mut last_bucket: Option<(String, u64)> = None;
    for (lineno, line) in text.lines().enumerate() {
        let fail = |msg: &str| Err(format!("line {}: {msg}: `{line}`", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("TYPE"), Some(name), Some(kind)) => {
                    if !valid_metric_name(name) {
                        return fail("bad metric name");
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return fail("unknown metric type");
                    }
                    declared.push((name.to_string(), kind.to_string()));
                }
                (Some("HELP"), Some(name), _) => {
                    if !valid_metric_name(name) {
                        return fail("bad metric name");
                    }
                }
                _ => return fail("bad comment"),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return fail("no value"),
        };
        if value_part.parse::<u64>().is_err() {
            return fail("non-integer value");
        }
        let value: u64 = value_part.parse().unwrap_or(0);
        let (name, labels) = match name_part.split_once('{') {
            Some((n, rest)) => match rest.strip_suffix('}') {
                Some(l) => (n, Some(l)),
                None => return fail("unterminated labels"),
            },
            None => (name_part, None),
        };
        if !valid_metric_name(name) {
            return fail("bad metric name");
        }
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| declared.iter().any(|(n, k)| n == *b && k == "histogram"))
            .unwrap_or(name);
        if !declared.iter().any(|(n, _)| n == base) {
            return fail("sample without a preceding # TYPE");
        }
        if name.ends_with("_bucket") && labels.is_some_and(|l| l.starts_with("le=")) {
            let le = labels.unwrap().trim_start_matches("le=").trim_matches('"');
            if let Some((prev_base, prev)) = &last_bucket {
                if prev_base == base && value < *prev {
                    return fail("non-cumulative histogram buckets");
                }
            }
            if le == "+Inf" {
                last_bucket = None;
            } else {
                last_bucket = Some((base.to_string(), value));
            }
        } else if let Some((prev_base, _)) = &last_bucket {
            if prev_base == base {
                return fail("histogram buckets did not end at +Inf");
            }
            last_bucket = None;
        }
    }
    if last_bucket.is_some() {
        return Err("histogram buckets did not end at +Inf".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_in_order() {
        let text = render_exposition(
            "retcon_test",
            &[],
            &[
                ("executed", MetricKind::Counter, 6),
                ("queue_depth", MetricKind::Gauge, 3),
            ],
        );
        assert_eq!(
            text,
            "# TYPE retcon_test_executed counter\nretcon_test_executed 6\n\
             # TYPE retcon_test_queue_depth gauge\nretcon_test_queue_depth 3\n"
        );
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn log2_hist_buckets_are_cumulative() {
        let h = Log2Hist::new();
        for v in [0, 1, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 110);
        let mut out = String::new();
        h.render_into(&mut out, "lat");
        assert!(out.contains("lat_bucket{le=\"1\"} 2\n"), "{out}");
        assert!(out.contains("lat_bucket{le=\"2\"} 3\n"), "{out}");
        assert!(out.contains("lat_bucket{le=\"4\"} 5\n"), "{out}");
        assert!(out.contains("lat_bucket{le=\"128\"} 6\n"), "{out}");
        assert!(out.contains("lat_bucket{le=\"+Inf\"} 6\n"), "{out}");
        assert!(out.contains("lat_sum 110\n"), "{out}");
        assert!(out.contains("lat_count 6\n"), "{out}");
        let mut doc = String::from("");
        Log2Hist::render_into(&h, &mut doc, "lat");
        validate_exposition(&doc).unwrap();
    }

    #[test]
    fn hist_overflow_still_counts() {
        let h = Log2Hist::new();
        h.observe(u64::MAX);
        assert_eq!(h.count(), 1);
        let mut out = String::new();
        h.render_into(&mut out, "x");
        assert!(out.contains("x_bucket{le=\"+Inf\"} 1\n"), "{out}");
        validate_exposition(&out).unwrap();
    }

    #[test]
    fn exposition_renders_histograms_before_scalars() {
        let h = Log2Hist::new();
        h.observe(7);
        let text = render_exposition(
            "svc",
            &[("latency_micros", &h)],
            &[("executed", MetricKind::Counter, 1)],
        );
        assert!(
            text.starts_with("# TYPE svc_latency_micros histogram\n"),
            "{text}"
        );
        assert!(
            text.ends_with("# TYPE svc_executed counter\nsvc_executed 1\n"),
            "{text}"
        );
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for (doc, why) in [
            ("metric_without_type 1\n", "undeclared"),
            ("# TYPE m counter\nm 1.5\n", "float value"),
            ("# TYPE m counter\nm\n", "no value"),
            ("# TYPE 9bad counter\n", "bad name"),
            ("# TYPE m wat\n", "bad type"),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n",
                "non-cumulative",
            ),
            ("# TYPE h histogram\nh_bucket{le=\"1\"} 1\n", "no +Inf"),
        ] {
            assert!(validate_exposition(doc).is_err(), "{why}: {doc}");
        }
    }
}
