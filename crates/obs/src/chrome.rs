//! Export a traced event stream as Chrome trace-event JSON.
//!
//! The output is the `{"traceEvents": [...]}` envelope with one
//! *instant* event per [`TraceEvent`], mapping simulated cycles to the
//! `ts` microsecond field, cores to threads (`tid`), and the one
//! payload word to `args.v` — directly loadable in `chrome://tracing`
//! and Perfetto. Everything is integers and fixed strings, so the
//! emission is byte-stable for a given stream.

use crate::event::TraceEvent;
use crate::ring::RingTracer;

/// Renders one event as a Chrome instant event (scope `t`, thread).
fn push_event(out: &mut String, e: &TraceEvent) {
    let name = e.event_kind().map_or("unknown", |k| k.name());
    out.push_str(&format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{{\"v\":{}}}}}",
        e.at, e.core, e.arg
    ));
}

/// The full trace document for `tracer`'s held events.
///
/// Includes `otherData` with the drop count so a truncated stream is
/// visible in the viewer, not silent.
pub fn to_chrome_json(tracer: &RingTracer) -> String {
    let mut out = String::with_capacity(tracer.len() * 96 + 128);
    out.push_str("{\"traceEvents\":[\n");
    for (i, e) in tracer.events().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        push_event(&mut out, e);
    }
    out.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}}}}}\n",
        tracer.dropped()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn emits_instant_events_with_cores_as_threads() {
        let mut r = RingTracer::with_capacity(8);
        r.record(3, EventKind::TxBegin, 100, 0);
        r.record(3, EventKind::Commit, 150, 12);
        let json = to_chrome_json(&r);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.contains(
            "{\"name\":\"tx_begin\",\"ph\":\"i\",\"ts\":100,\"pid\":0,\"tid\":3,\"s\":\"t\",\"args\":{\"v\":0}}"
        ));
        assert!(json.contains(
            "{\"name\":\"commit\",\"ph\":\"i\",\"ts\":150,\"pid\":0,\"tid\":3,\"s\":\"t\",\"args\":{\"v\":12}}"
        ));
        assert!(json.contains("\"dropped_events\":0"));
    }

    #[test]
    fn empty_stream_is_still_valid_json_shape() {
        let r = RingTracer::with_capacity(1);
        let json = to_chrome_json(&r);
        assert!(json.contains("\"traceEvents\":[\n\n]"));
    }
}
