//! A blocking client for the daemon's line protocol.
//!
//! Used by `examples/serve_client.rs`, the root `tests/serve.rs` suite,
//! and the CI smoke job. One [`Client`] owns one connection; a sweep
//! call blocks until its `done` line, collecting streamed records back
//! into **canonical index order** so the returned record vector is
//! byte-identical to the offline runner's output for the same matrix.
//!
//! ## Resilience
//!
//! [`ClientConfig`] adds connect/read timeouts and transport-level
//! retries with exponential backoff and seeded jitter. A failed sweep
//! **reconnects and reissues the whole request** — provably safe because
//! content-addressed run keys are natural idempotency keys: every
//! re-requested key either hits the store (the first attempt's execution
//! finished and was kept) or joins the still-in-flight execution, so the
//! daemon's `executed` count is unchanged by any number of retries.
//! Server-side *rejections* (error replies, failed runs) are never
//! retried — only transport faults are.

use crate::proto::{DoneSummary, Request, Response, SweepRequest};
use retcon_lab::RunRecord;
use retcon_workloads::SplitMix64;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connection and retry policy for a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Timeout for establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
    /// Per-read socket timeout (`None` blocks indefinitely — sweeps wait
    /// on real simulations, so the default is no read deadline).
    pub read_timeout: Option<Duration>,
    /// Transport-failure retries per sweep (0 = fail fast).
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt, plus
    /// seeded jitter in `[0, base)`.
    pub backoff: Duration,
    /// Jitter seed — deterministic, so a fleet of clients configured
    /// with distinct seeds desynchronizes instead of thundering back in
    /// lockstep, and a test replays exactly.
    pub retry_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: None,
            retries: 0,
            backoff: Duration::from_millis(50),
            retry_seed: 0x5eed,
        }
    }
}

/// How one sweep attempt failed: transport faults are retryable (the
/// request never completed), rejections are authoritative answers.
enum SweepError {
    Transport(String),
    Rejected(String),
}

/// A completed sweep: records in canonical order plus dedup accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Run records, ordered by canonical sweep index (workload-major,
    /// then system, then cores, then seed).
    pub records: Vec<RunRecord>,
    /// Per-record cache flags, index-aligned with `records`.
    pub cached: Vec<bool>,
    /// Runs served from the result store.
    pub hits: u64,
    /// Runs joined onto executions already in flight.
    pub joined: u64,
    /// Runs this sweep caused to execute.
    pub misses: u64,
}

impl SweepResult {
    /// Fraction of runs served without a new execution (store hits plus
    /// single-flight joins), in `0.0..=1.0`.
    pub fn hit_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        (self.hits + self.joined) as f64 / self.records.len() as f64
    }
}

/// A blocking connection to a `retcon-serve` daemon.
#[derive(Debug)]
pub struct Client {
    addr: String,
    cfg: ClientConfig,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon at `addr` (`host:port`) with the default
    /// [`ClientConfig`] (10 s connect timeout, no retries).
    ///
    /// # Errors
    ///
    /// Connection I/O errors.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit timeout/retry policy.
    ///
    /// # Errors
    ///
    /// Address-resolution or connection I/O errors (after the connect
    /// timeout, if one is set).
    pub fn connect_with(addr: &str, cfg: ClientConfig) -> std::io::Result<Client> {
        let stream = Client::dial(addr, &cfg)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            addr: addr.to_string(),
            cfg,
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn dial(addr: &str, cfg: &ClientConfig) -> std::io::Result<TcpStream> {
        let stream = match cfg.connect_timeout {
            Some(timeout) => {
                let mut last = None;
                let mut connected = None;
                for sock in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sock, timeout) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match connected {
                    Some(s) => s,
                    None => {
                        return Err(last.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to no sockets",
                            )
                        }))
                    }
                }
            }
            None => TcpStream::connect(addr)?,
        };
        stream.set_read_timeout(cfg.read_timeout)?;
        Ok(stream)
    }

    /// Tears down the socket and dials the daemon again with the same
    /// policy.
    fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = Client::dial(&self.addr, &self.cfg)?;
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        Ok(())
    }

    /// Backoff before retry `attempt` (1-based): exponential in the base
    /// with seeded jitter, salted by the sweep id so concurrent sweeps
    /// from one config desynchronize too.
    fn backoff_delay(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.cfg.backoff.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(16));
        let jitter = if base == 0 {
            0
        } else {
            SplitMix64::new(self.cfg.retry_seed ^ salt ^ u64::from(attempt)).next_u64() % base
        };
        Duration::from_millis(exp + jitter)
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        let line = req.to_line();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn recv(&mut self) -> Result<Response, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("recv failed: {e}"))?;
        if n == 0 {
            return Err("connection closed by daemon".to_string());
        }
        Response::parse_line(line.trim_end())
    }

    /// Runs one sweep and blocks until its `done` line, retrying
    /// transport failures per the [`ClientConfig`]: reconnect, back off
    /// (exponential + seeded jitter), and reissue the whole sweep.
    /// Reissue is idempotent — see the module docs. Rejections and
    /// per-run errors are returned immediately, never retried.
    ///
    /// # Errors
    ///
    /// I/O failures (after retries are exhausted), protocol violations, a
    /// request-level rejection, any per-run error, or a record set that
    /// does not cover every index.
    pub fn sweep(&mut self, req: &SweepRequest) -> Result<SweepResult, String> {
        let mut last = match self.sweep_once(req) {
            Ok(result) => return Ok(result),
            Err(SweepError::Rejected(message)) => return Err(message),
            Err(SweepError::Transport(message)) => message,
        };
        for attempt in 1..=self.cfg.retries {
            std::thread::sleep(self.backoff_delay(attempt, req.id));
            if let Err(e) = self.reconnect() {
                last = format!("reconnect failed: {e}");
                continue;
            }
            match self.sweep_once(req) {
                Ok(result) => return Ok(result),
                Err(SweepError::Rejected(message)) => return Err(message),
                Err(SweepError::Transport(message)) => last = message,
            }
        }
        Err(format!(
            "sweep {} failed after {} attempts: {last}",
            req.id,
            u64::from(self.cfg.retries) + 1
        ))
    }

    /// One attempt: send, then collect records until `done`.
    fn sweep_once(&mut self, req: &SweepRequest) -> Result<SweepResult, SweepError> {
        self.send(&Request::Sweep(req.clone()))
            .map_err(SweepError::Transport)?;
        // Slots grow as records arrive: a sweep the daemon rejects for
        // its size never costs its size here.
        let runs = req.runs();
        let mut slots: Vec<Option<(RunRecord, bool)>> = Vec::new();
        let summary: DoneSummary = loop {
            match self.recv().map_err(SweepError::Transport)? {
                Response::Record {
                    id,
                    index,
                    cached,
                    run,
                } => {
                    if id != req.id {
                        return Err(SweepError::Transport(format!(
                            "record for unexpected sweep id {id}"
                        )));
                    }
                    let index = index as usize;
                    if index >= runs {
                        return Err(SweepError::Transport(format!(
                            "record index {index} out of range"
                        )));
                    }
                    if index >= slots.len() {
                        slots.resize_with(index + 1, || None);
                    }
                    if slots[index].replace((*run, cached)).is_some() {
                        return Err(SweepError::Transport(format!(
                            "duplicate record for index {index}"
                        )));
                    }
                }
                Response::Done(summary) if summary.id == req.id => break summary,
                Response::Done(summary) => {
                    return Err(SweepError::Transport(format!(
                        "done for unexpected sweep id {}",
                        summary.id
                    )));
                }
                Response::Error { id, index, message } => {
                    return Err(SweepError::Rejected(match (id, index) {
                        (Some(id), Some(index)) => {
                            format!("sweep {id} run {index} failed: {message}")
                        }
                        (Some(id), None) => format!("sweep {id} rejected: {message}"),
                        _ => format!("request failed: {message}"),
                    }));
                }
                other => {
                    return Err(SweepError::Transport(format!(
                        "unexpected response: {other:?}"
                    )))
                }
            }
        };
        if summary.errors > 0 {
            return Err(SweepError::Rejected(format!(
                "{} runs failed",
                summary.errors
            )));
        }
        slots.resize_with(runs, || None);
        let mut records = Vec::with_capacity(runs);
        let mut cached = Vec::with_capacity(runs);
        for (index, slot) in slots.into_iter().enumerate() {
            let (run, was_cached) =
                slot.ok_or_else(|| SweepError::Transport(format!("missing record {index}")))?;
            records.push(run);
            cached.push(was_cached);
        }
        Ok(SweepResult {
            records,
            cached,
            hits: summary.hits,
            joined: summary.joined,
            misses: summary.misses,
        })
    }

    /// Fetches service counters.
    ///
    /// # Errors
    ///
    /// I/O failures or protocol violations.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, String> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Response::Stats(fields) => Ok(fields),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }

    /// Fetches the daemon's metrics as a Prometheus text exposition
    /// document.
    ///
    /// # Errors
    ///
    /// I/O failures or protocol violations.
    pub fn metrics(&mut self) -> Result<String, String> {
        self.send(&Request::Metrics)?;
        match self.recv()? {
            Response::Metrics(text) => Ok(text),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }

    /// Asks the daemon to drain and stop; returns its acknowledgement.
    ///
    /// # Errors
    ///
    /// I/O failures or protocol violations.
    pub fn shutdown(&mut self) -> Result<String, String> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::Ok(message) => Ok(message),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }
}
