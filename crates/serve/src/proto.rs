//! The wire format: line-delimited JSON over a plain TCP socket.
//!
//! Requests and responses are single-line compact JSON documents
//! terminated by `\n`, using the same hand-rolled [`Json`] the records
//! are built from (the build environment has no HTTP or serde crates, by
//! design — see DESIGN.md "Offline dependency shims").
//!
//! ## Requests (client → server)
//!
//! ```text
//! {"type":"sweep","id":1,"workloads":["counter"],"systems":["eager","RetCon"],"cores":[1,2],"seeds":[42]}
//! {"type":"stats"}
//! {"type":"metrics"}
//! {"type":"shutdown"}
//! ```
//!
//! A sweep names a `workloads × systems × cores × seeds` matrix. The
//! server explodes it into per-run [`RunKey`]s in **canonical order**
//! (workload-major, then system, then cores, then seed — the nesting
//! order of the request arrays) and addresses each by content hash.
//!
//! ## Responses (server → client)
//!
//! ```text
//! {"type":"record","id":1,"index":0,"cached":true,"run":{...}}
//! {"type":"done","id":1,"runs":4,"hits":2,"joined":1,"misses":1,"errors":0}
//! {"type":"stats","executed":12,...}
//! {"type":"metrics","text":"# TYPE retcon_serve_executed counter\n..."}
//! {"type":"ok","message":"draining"}
//! {"type":"error","id":1,"message":"..."}
//! ```
//!
//! The `metrics` reply carries the daemon's whole metrics registry as a
//! Prometheus text exposition document, JSON-escaped into one line.
//!
//! Record lines stream back **as runs finish**, so their arrival order
//! depends on scheduling; the `index` field is the run's position in the
//! canonical explosion, and re-ordering by index recovers a record set
//! byte-identical to the offline runner's output.

use retcon_lab::RunKey;
use retcon_lab::RunRecord;
use retcon_sim::json::Json;
use retcon_workloads::{System, Workload, MAX_SIM_CORES};

/// A sweep request: the cross-product matrix plus a client-chosen id
/// that multiplexes concurrent sweeps on one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// Client-chosen request id, echoed on every response line.
    pub id: u64,
    /// Workloads, by Table 2 label.
    pub workloads: Vec<Workload>,
    /// Systems, by figure label.
    pub systems: Vec<System>,
    /// Core counts.
    pub cores: Vec<usize>,
    /// Workload-build seeds.
    pub seeds: Vec<u64>,
}

impl SweepRequest {
    /// The per-run keys of this sweep, in canonical order (the nesting
    /// order of the request arrays: workload-major, then system, then
    /// cores, then seed).
    pub fn explode(&self) -> Vec<RunKey> {
        let mut keys =
            Vec::with_capacity(self.workloads.len() * self.systems.len() * self.cores.len());
        for &w in &self.workloads {
            for &s in &self.systems {
                for &c in &self.cores {
                    for &seed in &self.seeds {
                        keys.push(RunKey::new(w, s, c, seed));
                    }
                }
            }
        }
        keys
    }

    /// The request as a compact JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", Json::str("sweep")),
            ("id", Json::UInt(self.id)),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| Json::str(w.label()))
                        .collect(),
                ),
            ),
            (
                "systems",
                Json::Arr(self.systems.iter().map(|s| Json::str(s.label())).collect()),
            ),
            (
                "cores",
                Json::Arr(self.cores.iter().map(|&c| Json::UInt(c as u64)).collect()),
            ),
            (
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| Json::UInt(s)).collect()),
            ),
        ])
    }

    fn from_json(json: &Json) -> Result<SweepRequest, String> {
        let mut workloads = Vec::new();
        for v in json.req_arr("workloads")? {
            let label = v.as_str().ok_or("workloads: non-string entry")?;
            workloads
                .push(Workload::parse(label).ok_or_else(|| format!("unknown workload `{label}`"))?);
        }
        let mut systems = Vec::new();
        for v in json.req_arr("systems")? {
            let label = v.as_str().ok_or("systems: non-string entry")?;
            systems.push(System::parse(label).ok_or_else(|| format!("unknown system `{label}`"))?);
        }
        let mut cores = Vec::new();
        for v in json.req_arr("cores")? {
            let n = v.as_u64().ok_or("cores: non-integer entry")?;
            if !(1..=MAX_SIM_CORES as u64).contains(&n) {
                return Err(format!("cores value {n} outside 1..={MAX_SIM_CORES}"));
            }
            cores.push(n as usize);
        }
        let mut seeds = Vec::new();
        for v in json.req_arr("seeds")? {
            seeds.push(v.as_u64().ok_or("seeds: non-integer entry")?);
        }
        if workloads.is_empty() || systems.is_empty() || cores.is_empty() || seeds.is_empty() {
            return Err("sweep matrix has an empty dimension".to_string());
        }
        Ok(SweepRequest {
            id: json.req_u64("id")?,
            workloads,
            systems,
            cores,
            seeds,
        })
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run (or serve from cache) a sweep matrix.
    Sweep(SweepRequest),
    /// Report service counters.
    Stats,
    /// Report the metrics registry as Prometheus text exposition.
    Metrics,
    /// Drain in-flight work and stop the daemon.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Describes malformed JSON, unknown types, and invalid sweep
    /// matrices (unknown labels, out-of-range cores, empty dimensions).
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let json = Json::parse(line).map_err(|e| e.to_string())?;
        match json.req_str("type")? {
            "sweep" => Ok(Request::Sweep(SweepRequest::from_json(&json)?)),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type `{other}`")),
        }
    }

    /// The request as one compact line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Sweep(sweep) => sweep.to_json().to_string(),
            Request::Stats => Json::obj(vec![("type", Json::str("stats"))]).to_string(),
            Request::Metrics => Json::obj(vec![("type", Json::str("metrics"))]).to_string(),
            Request::Shutdown => Json::obj(vec![("type", Json::str("shutdown"))]).to_string(),
        }
    }
}

/// The `done` summary closing a sweep's response stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneSummary {
    /// The sweep's request id.
    pub id: u64,
    /// Total runs in the sweep.
    pub runs: u64,
    /// Runs served from the result store (memory or spill).
    pub hits: u64,
    /// Runs joined onto an execution already in flight (single-flight).
    pub joined: u64,
    /// Runs this sweep caused to execute.
    pub misses: u64,
    /// Runs that failed with a simulation error.
    pub errors: u64,
}

/// A parsed response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One finished run of a sweep.
    Record {
        /// The sweep's request id.
        id: u64,
        /// Position in the sweep's canonical explosion.
        index: u64,
        /// Whether the run was served from the result store.
        cached: bool,
        /// The run record — byte-identical to offline runner output.
        /// Boxed: a record dwarfs every other variant.
        run: Box<RunRecord>,
    },
    /// Sweep complete; dedup accounting.
    Done(DoneSummary),
    /// Service counters, in emission order.
    Stats(Vec<(String, u64)>),
    /// The metrics registry as Prometheus text exposition.
    Metrics(String),
    /// Acknowledgement (e.g. shutdown accepted).
    Ok(String),
    /// A failed request or run. `id`/`index` are present when the error
    /// belongs to a specific sweep run.
    Error {
        /// The sweep's request id, if the error belongs to one.
        id: Option<u64>,
        /// The run's canonical index, if the error belongs to one.
        index: Option<u64>,
        /// Human-readable cause.
        message: String,
    },
}

/// Formats a record line around an already-serialized compact run
/// payload. The server serializes each finished run **once** and splices
/// it into every waiting client's envelope.
pub fn record_line(id: u64, index: u64, cached: bool, run_json: &str) -> String {
    format!("{{\"type\":\"record\",\"id\":{id},\"index\":{index},\"cached\":{cached},\"run\":{run_json}}}")
}

/// Formats a `done` summary line.
pub fn done_line(s: &DoneSummary) -> String {
    format!(
        "{{\"type\":\"done\",\"id\":{},\"runs\":{},\"hits\":{},\"joined\":{},\"misses\":{},\"errors\":{}}}",
        s.id, s.runs, s.hits, s.joined, s.misses, s.errors
    )
}

/// Formats a stats line from ordered counters.
pub fn stats_line(fields: &[(String, u64)]) -> String {
    let mut json = vec![("type".to_string(), Json::str("stats"))];
    json.extend(fields.iter().map(|(k, v)| (k.clone(), Json::UInt(*v))));
    Json::Obj(json).to_string()
}

/// Formats a metrics line: the exposition document JSON-escaped into a
/// single `text` field.
pub fn metrics_line(text: &str) -> String {
    Json::obj(vec![
        ("type", Json::str("metrics")),
        ("text", Json::str(text)),
    ])
    .to_string()
}

/// Formats an acknowledgement line.
pub fn ok_line(message: &str) -> String {
    Json::obj(vec![
        ("type", Json::str("ok")),
        ("message", Json::str(message)),
    ])
    .to_string()
}

/// Formats an error line.
pub fn error_line(id: Option<u64>, index: Option<u64>, message: &str) -> String {
    let mut fields = vec![("type", Json::str("error"))];
    if let Some(id) = id {
        fields.push(("id", Json::UInt(id)));
    }
    if let Some(index) = index {
        fields.push(("index", Json::UInt(index)));
    }
    fields.push(("message", Json::str(message)));
    Json::obj(fields).to_string()
}

impl Response {
    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// Describes malformed JSON and unknown response types.
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let json = Json::parse(line).map_err(|e| e.to_string())?;
        match json.req_str("type")? {
            "record" => Ok(Response::Record {
                id: json.req_u64("id")?,
                index: json.req_u64("index")?,
                cached: matches!(json.get("cached"), Some(Json::Bool(true))),
                run: Box::new(RunRecord::from_json(
                    json.get("run")
                        .ok_or_else(|| "missing field `run`".to_string())?,
                )?),
            }),
            "done" => Ok(Response::Done(DoneSummary {
                id: json.req_u64("id")?,
                runs: json.req_u64("runs")?,
                hits: json.req_u64("hits")?,
                joined: json.req_u64("joined")?,
                misses: json.req_u64("misses")?,
                errors: json.req_u64("errors")?,
            })),
            "stats" => {
                let Json::Obj(fields) = &json else {
                    return Err("stats: not an object".to_string());
                };
                let mut out = Vec::new();
                for (k, v) in fields {
                    if k == "type" {
                        continue;
                    }
                    out.push((
                        k.clone(),
                        v.as_u64()
                            .ok_or_else(|| format!("stats field `{k}`: non-integer"))?,
                    ));
                }
                Ok(Response::Stats(out))
            }
            "metrics" => Ok(Response::Metrics(json.req_str("text")?.to_string())),
            "ok" => Ok(Response::Ok(json.req_str("message")?.to_string())),
            "error" => Ok(Response::Error {
                id: json.get("id").and_then(Json::as_u64),
                index: json.get("index").and_then(Json::as_u64),
                message: json.req_str("message")?.to_string(),
            }),
            other => Err(format!("unknown response type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> SweepRequest {
        SweepRequest {
            id: 7,
            workloads: vec![Workload::Counter, Workload::Genome { resizable: true }],
            systems: vec![System::Eager, System::Retcon],
            cores: vec![1, 2],
            seeds: vec![42],
        }
    }

    #[test]
    fn sweep_round_trips_and_explodes_canonically() {
        let req = sweep();
        let line = Request::Sweep(req.clone()).to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Request::parse_line(&line), Ok(Request::Sweep(req.clone())));

        let keys = req.explode();
        assert_eq!(keys.len(), 8);
        // Workload-major, then system, then cores.
        assert_eq!(keys[0].workload, Workload::Counter);
        assert_eq!((keys[0].system, keys[0].cores), (System::Eager, 1));
        assert_eq!((keys[1].system, keys[1].cores), (System::Eager, 2));
        assert_eq!((keys[2].system, keys[2].cores), (System::Retcon, 1));
        assert_eq!(keys[4].workload, Workload::Genome { resizable: true });
    }

    #[test]
    fn invalid_sweeps_are_rejected() {
        let bad = r#"{"type":"sweep","id":1,"workloads":["nope"],"systems":["eager"],"cores":[1],"seeds":[1]}"#;
        assert!(Request::parse_line(bad)
            .unwrap_err()
            .contains("unknown workload"));
        let zero = r#"{"type":"sweep","id":1,"workloads":["counter"],"systems":["eager"],"cores":[0],"seeds":[1]}"#;
        assert!(Request::parse_line(zero).unwrap_err().contains("1..=1024"));
        let wide = r#"{"type":"sweep","id":1,"workloads":["counter"],"systems":["eager"],"cores":[1025],"seeds":[1]}"#;
        assert!(Request::parse_line(wide)
            .unwrap_err()
            .contains("1025 outside 1..=1024"));
        // Past the 64 cores of a one-word mask, up to the widest class.
        for cores in [65, 128, 1024] {
            let line = format!(
                r#"{{"type":"sweep","id":1,"workloads":["counter"],"systems":["eager"],"cores":[{cores}],"seeds":[1]}}"#
            );
            assert!(Request::parse_line(&line).is_ok(), "{cores} cores refused");
        }
        let empty = r#"{"type":"sweep","id":1,"workloads":["counter"],"systems":[],"cores":[1],"seeds":[1]}"#;
        assert!(Request::parse_line(empty)
            .unwrap_err()
            .contains("empty dimension"));
    }

    #[test]
    fn control_lines_round_trip() {
        assert_eq!(
            Request::parse_line(&Request::Stats.to_line()),
            Ok(Request::Stats)
        );
        assert_eq!(
            Request::parse_line(&Request::Shutdown.to_line()),
            Ok(Request::Shutdown)
        );
        assert_eq!(
            Request::parse_line(&Request::Metrics.to_line()),
            Ok(Request::Metrics)
        );
        // The exposition document embeds newlines and quotes; the line
        // must stay single-line and round-trip them exactly.
        let doc =
            "# TYPE retcon_serve_executed counter\nretcon_serve_executed 5\nh_bucket{le=\"1\"} 2\n";
        let line = metrics_line(doc);
        assert!(!line.contains('\n'));
        assert_eq!(
            Response::parse_line(&line),
            Ok(Response::Metrics(doc.to_string()))
        );
        let done = DoneSummary {
            id: 3,
            runs: 4,
            hits: 1,
            joined: 1,
            misses: 2,
            errors: 0,
        };
        assert_eq!(
            Response::parse_line(&done_line(&done)),
            Ok(Response::Done(done))
        );
        assert_eq!(
            Response::parse_line(&ok_line("draining")),
            Ok(Response::Ok("draining".to_string()))
        );
        let fields = vec![("executed".to_string(), 5), ("queue_depth".to_string(), 0)];
        assert_eq!(
            Response::parse_line(&stats_line(&fields)),
            Ok(Response::Stats(fields))
        );
        assert_eq!(
            Response::parse_line(&error_line(Some(1), None, "busy")),
            Ok(Response::Error {
                id: Some(1),
                index: None,
                message: "busy".to_string()
            })
        );
    }

    #[test]
    fn record_lines_parse_back() {
        let key = RunKey::new(Workload::Counter, System::Eager, 1, 42);
        let run = retcon_lab::engine::record_for(&key, retcon_lab::engine::simulate(&key).unwrap());
        let line = record_line(9, 3, true, &run.to_json().to_string());
        match Response::parse_line(&line).unwrap() {
            Response::Record {
                id,
                index,
                cached,
                run: parsed,
            } => {
                assert_eq!((id, index, cached), (9, 3, true));
                assert_eq!(*parsed, run);
            }
            other => panic!("expected record, got {other:?}"),
        }
    }
}
