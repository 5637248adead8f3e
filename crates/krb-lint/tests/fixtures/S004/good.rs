//! S004 good example: keys reach the trace only as redacted
//! fingerprints (`kerberos::fingerprint`, an 8-hex-char digest prefix),
//! and scopes are principal names, not secrets.

use krb_trace::{EventKind, Tracer, Value, ValueRef};

pub fn record_issue(trace: &Tracer, now: u64, client: &str, session_key: &DesKey) {
    trace.emit(
        EventKind::TicketIssued,
        now,
        vec![
            ("client", Value::str(client)),
            ("key_fpr", Value::str(fingerprint(session_key))),
        ],
    );
    trace.counter("kdc.issued", client, 1);
}

pub fn record_hop(trace: &Tracer, now: u64, host: &str, session_key: &DesKey) {
    let key_fpr = fingerprint(session_key);
    trace.emit_ref(
        EventKind::WireHop,
        now,
        [("host", ValueRef::Str(host)), ("key_fpr", ValueRef::Str(&key_fpr))],
    );
}
