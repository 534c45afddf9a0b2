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
//! * [`fnv`] — [`Fnv1a`], the one sequence fingerprint: the tracer's
//!   stream hash and the schedules' decision fingerprints.
//! * [`chrome`] — export to Chrome trace-event JSON (cores as threads),
//!   loadable in `chrome://tracing` and Perfetto.
//! * [`metrics`] — integer-only log2 histograms and
//!   [`render_exposition`], which renders them beside caller-held
//!   counter and gauge values as Prometheus text exposition.
//! * [`logger`] — a leveled stderr logger ([`info!`]/[`warn!`] and
//!   friends) with hand-rolled UTC timestamps.
//! * [`phase`] — process-global phase accumulators (simulate vs
//!   serialize) for the lab runner's profiling spans.
//! * [`pool`] — the ordered worker pool the lab runner and the
//!   exploration campaigns fan their work across (a leaf, so both reach
//!   it without a new dependency).
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
pub mod fnv;
pub mod logger;
pub mod metrics;
pub mod phase;
pub mod pool;
pub mod ring;

pub use event::{EventKind, TraceEvent};
pub use fnv::Fnv1a;
pub use metrics::{render_exposition, validate_exposition, Log2Hist, MetricKind};
pub use ring::RingTracer;
