//! S004 bad example: key material handed to trace emissions. Traces
//! export as JSONL and render in narrations, so this is a secrecy leak
//! even though no format macro is involved.

use krb_trace::{EventKind, Tracer, Value, ValueRef};

pub fn record_issue(trace: &Tracer, now: u64, session_key: &DesKey) {
    trace.emit(
        EventKind::TicketIssued,
        now,
        vec![("session", Value::bytes(session_key.bytes().to_vec()))],
    );
}

pub fn record_scope(trace: &Tracer, now: u64, tgs_key: &DesKey) {
    let _span = trace.begin_span("issue", now, vec![("k", Value::bytes(tgs_key.bytes().to_vec()))]);
}

pub fn record_hop(trace: &Tracer, now: u64, host: &str, session_key: &DesKey) {
    // The borrowed-field entry point is a trace sink like `emit`.
    trace.emit_ref(
        EventKind::WireHop,
        now,
        [("host", ValueRef::Str(host)), ("key", ValueRef::U64(session_key.to_u64()))],
    );
}
