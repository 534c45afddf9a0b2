//! The harness's own in-memory span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer's public functions; nothing inside the program is touched.
//! Each span has a name (`<layer>.<call>`), start, end, the span that
//! caused it, and the id of the pass or request it belongs to. Spans stay
//! in memory until the run ends and are then written as Chrome
//! trace-event JSON. End-to-end metrics are never measured with a
//! recorder attached.

use crate::json::J;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Pass or request id shared by all spans of one operation.
    pub op: u64,
    /// Recording thread (Chrome `tid`).
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span stack. Threads record into their own recorder and
/// are merged afterwards, so recording never takes a lock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// `epoch` is shared by all recorders of a run so their timestamps
    /// line up in the trace viewer.
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the recorder it is handed become this span's children.
    pub fn span<T>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
            tid: self.tid,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// A span's self time: its duration minus the part its children cover.
/// Children of one parent never overlap here (each recorder is one
/// thread's stack), so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotal> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<String, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            J::obj(vec![
                ("name", J::str(&s.name)),
                ("ph", J::str("X")),
                ("ts", J::Num(s.start_ns as f64 / 1e3)),
                ("dur", J::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", J::Num(1.0)),
                ("tid", J::Num(f64::from(s.tid))),
                ("args", J::obj(vec![("op", J::Num(s.op as f64))])),
            ])
        })
        .collect();
    J::obj(vec![("traceEvents", J::Arr(events))]).to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // pass [0,100) ⊃ a [10,40) ⊃ a1 [15,25); pass ⊃ b [50,90)
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["a"].total_ns, 30);
        assert_eq!(totals["a"].self_ns, 20);
        assert_eq!(totals["pass"].count, 1);
    }

    #[test]
    fn recorder_nests_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, 3);
        r.span("outer", 7, |r| {
            r.span("inner", 7, |_| ());
        });
        let a = r.into_spans();
        assert_eq!(a[0].parent, None);
        assert_eq!(a[1].parent, Some(0));
        assert!(a[1].start_ns >= a[0].start_ns && a[1].end_ns <= a[0].end_ns);
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].parent, Some(2));
        let parsed = J::parse(&to_chrome_json(&merged)).unwrap();
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            4
        );
    }
}
