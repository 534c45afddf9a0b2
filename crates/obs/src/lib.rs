//! `retcon-obs`: the repo's observability layer — transaction event
//! tracing, daemon metrics, phase profiling, and a minimal leveled
//! logger — built under one hard invariant: **observation never changes
//! simulation output**.
//!
//! The crate is a leaf (no dependencies, not even on the simulator) so
//! every other crate can thread it through without cycles. Its pieces:
//!
//! * [`event`] — the fixed-width [`TraceEvent`] schema.
//! * [`ring`] — [`RingTracer`], the tracer: one preallocated ring buffer
//!   of events, drop-oldest on overflow, with a deterministic stream hash
//!   for pinning event streams in tests.
//! * [`chrome`] — export to Chrome trace-event JSON (cores as threads),
//!   loadable in `chrome://tracing` and Perfetto.
//! * [`metrics`] — integer-only counters, gauges, and log2 histograms
//!   with Prometheus text exposition.
//! * [`logger`] — a leveled stderr logger ([`info!`]/[`warn!`] and
//!   friends) with hand-rolled UTC timestamps.
//! * [`phase`] — process-global phase accumulators (simulate vs
//!   serialize vs spill I/O) for the lab runner's profiling spans.
//!
//! ## The never-perturbs contract
//!
//! Tracing is attached *beside* the simulation, never inside its state:
//! a tracer records what happened at times the simulator already
//! computed, and nothing downstream reads it back. The disabled path is
//! an untaken `Option` branch (no allocation — pinned by the repo's
//! `no_alloc_machine` tests); the enabled path writes into memory
//! preallocated before the run starts. Either way the record bytes a
//! run produces are identical.

pub mod chrome;
pub mod event;
pub mod logger;
pub mod metrics;
pub mod phase;
pub mod ring;

pub use event::{EventKind, TraceEvent};
pub use metrics::{validate_exposition, Counter, Gauge, Log2Hist, Registry};
pub use ring::RingTracer;
