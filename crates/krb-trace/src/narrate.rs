//! Attack-narrative rendering: a trace becomes the paper's step-notation
//! transcript, with the adversary's taps and injections interleaved.
//!
//! The renderer itself is protocol-agnostic; a [`Lens`] supplies the
//! domain knowledge — mapping host names to the paper's actor letters
//! (`c`, `tgs`, `s`) and decoding wire payloads into message notation
//! (`{A_c}K_{c,tgs}, T_{c,tgs}, s, n`).  The kerberos crate provides a
//! `PaperLens`; [`RawLens`] works on any trace.

use crate::event::{Event, EventKind, Value};
use std::fmt::Write as _;

/// Domain knowledge injected into the narrator.
pub trait Lens {
    /// Short actor name for a host (e.g. `ws-pat.athena.mit.edu` -> `c(pat)`).
    fn actor(&self, host: &str) -> String;
    /// Paper-notation description of a wire payload.
    fn message(&self, payload: &[u8]) -> String;
}

/// Protocol-agnostic fallback lens: hosts by name, payloads by length.
#[derive(Clone, Copy, Debug, Default)]
pub struct RawLens;

impl Lens for RawLens {
    fn actor(&self, host: &str) -> String {
        host.to_string()
    }
    fn message(&self, payload: &[u8]) -> String {
        format!("<{} bytes>", payload.len())
    }
}

/// Renders events as a transcript, one line per event, timestamped
/// relative to the first event.
pub fn narrate(events: &[Event], lens: &dyn Lens) -> String {
    let t0 = events.first().map(|e| e.at_us).unwrap_or(0);
    let mut out = String::new();
    for ev in events {
        let t = fmt_rel(ev.at_us.saturating_sub(t0));
        match ev.kind {
            EventKind::WireHop => {
                let src = lens.actor(ev.str_field("src_host").unwrap_or("?"));
                let dst = lens.actor(ev.str_field("dst_host").unwrap_or("?"));
                let msg = match ev.bytes_field("payload") {
                    Some(b) => lens.message(b),
                    None => "<no payload>".to_string(),
                };
                let mut line = match ev.str_field("origin").unwrap_or("send") {
                    "inject" => format!("[{t:>14}] ** adversary injects {src} -> {dst}: {msg}"),
                    "tap.drop" => {
                        format!("[{t:>14}] ** adversary tap drops {src} -> {dst}: {msg}")
                    }
                    "stale" => format!("[{t:>14}] {src} -> {dst} (late): {msg}"),
                    _ => format!("[{t:>14}] {src} -> {dst}: {msg}"),
                };
                if let Some(f) = ev.str_field("fault") {
                    let _ = write!(line, "  [fault: {f}]");
                }
                if let Some(p) = ev.u64_field("parent") {
                    let _ = write!(line, "  [from #{p}]");
                }
                out.push_str(&line);
                out.push('\n');
            }
            EventKind::SpanBegin => {
                let name = ev.str_field("name").unwrap_or("?");
                let _ = writeln!(
                    out,
                    "[{t:>14}] >> {name}{}",
                    extras(ev, &["name", "parent"])
                );
            }
            EventKind::SpanEnd => {
                let name = ev.str_field("name").unwrap_or("?");
                let dur = ev.u64_field("dur_us").unwrap_or(0);
                let _ = writeln!(out, "[{t:>14}] << {name} ({})", fmt_rel(dur));
            }
            EventKind::Note => {
                let _ = writeln!(out, "[{t:>14}]  · {}", ev.str_field("text").unwrap_or(""));
            }
            EventKind::GatewayShed => {
                let src = lens.actor(ev.str_field("src").unwrap_or("?"));
                let policy = ev.str_field("policy").unwrap_or("?");
                let occ = ev.u64_field("occupancy").unwrap_or(0);
                let _ = writeln!(
                    out,
                    "[{t:>14}] !! gateway sheds {src} (policy {policy}, queue at {occ})"
                );
            }
            EventKind::GatewayThrottle => {
                let src = lens.actor(ev.str_field("src").unwrap_or("?"));
                let reason = ev.str_field("reason").unwrap_or("?");
                let _ = writeln!(out, "[{t:>14}] !! gateway throttles {src} ({reason})");
            }
            EventKind::IdsAlert => {
                let detector = ev.str_field("detector").unwrap_or("?");
                let subject = ev.str_field("subject").unwrap_or("?");
                let detail = ev.str_field("detail").unwrap_or("");
                let mut line =
                    format!("[{t:>14}] !! IDS [{detector}] {subject}: {detail}");
                if let Some(e) = ev.u64_field("evidence") {
                    let _ = write!(line, "  [evidence #{e}]");
                }
                out.push_str(&line);
                out.push('\n');
            }
            other => {
                let _ = writeln!(out, "[{t:>14}]  · {}{}", other.label(), extras(ev, &[]));
            }
        }
    }
    out
}

/// `" (k=v, k=v)"` for every field not in `skip`; empty if none.
fn extras(ev: &Event, skip: &[&str]) -> String {
    let mut parts = Vec::new();
    for (name, v) in &ev.fields {
        if skip.contains(name) {
            continue;
        }
        match v {
            Value::U64(n) => parts.push(format!("{name}={n}")),
            Value::Bool(b) => parts.push(format!("{name}={b}")),
            Value::Str(s) => parts.push(format!("{name}={s}")),
            Value::Bytes(b) => parts.push(format!("{name}=<{} bytes>", b.len())),
        }
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!(" ({})", parts.join(", "))
    }
}

/// `+S.UUUUUUs` relative sim-time.
fn fmt_rel(us: u64) -> String {
    format!("+{}.{:06}s", us / 1_000_000, us % 1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ValueRef;
    use crate::tracer::Tracer;
    use std::sync::Arc;

    #[test]
    fn transcript_marks_adversary_lines() {
        let t = Tracer::new();
        t.emit(
            EventKind::WireHop,
            1_000_000,
            vec![
                ("src_host", Value::str("ws-pat")),
                ("dst_host", Value::str("kdc")),
                ("origin", Value::str("send")),
                ("payload", Value::bytes(Arc::new(vec![1, 2, 3]))),
            ],
        );
        t.emit(
            EventKind::WireHop,
            2_000_000,
            vec![
                ("src_host", Value::str("ws-pat")),
                ("dst_host", Value::str("files")),
                ("origin", Value::str("inject")),
                ("payload", Value::bytes(Arc::new(vec![4]))),
            ],
        );
        t.note(2_000_001, "adversary replays captured AP-REQ");
        let text = narrate(&t.events(), &RawLens);
        assert!(text.contains("ws-pat -> kdc: <3 bytes>"));
        assert!(text.contains("** adversary injects ws-pat -> files: <1 bytes>"));
        assert!(text.contains("· adversary replays captured AP-REQ"));
        assert!(text.starts_with("[    +0.000000s]"));
        assert!(text.contains("[    +1.000000s]"));
    }

    #[test]
    fn spans_and_misc_events_render() {
        let t = Tracer::new();
        let id = t.begin_span("as-exchange", 0, [("client", ValueRef::Str("pat"))]);
        t.emit(
            EventKind::TicketIssued,
            500,
            vec![("client", Value::str("pat")), ("service", Value::str("krbtgt"))],
        );
        t.end_span(id, 1_000, "pat");
        let text = narrate(&t.events(), &RawLens);
        assert!(text.contains(">> as-exchange (client=pat)"));
        assert!(text.contains("· kdc.ticket_issued (client=pat, service=krbtgt)"));
        assert!(text.contains("<< as-exchange (+0.001000s)"));
    }

    #[test]
    fn gateway_events_render_as_admission_lines() {
        let t = Tracer::new();
        t.emit(
            EventKind::GatewayShed,
            100,
            vec![
                ("src", Value::str("10.0.0.9")),
                ("policy", Value::str("shed-newest")),
                ("occupancy", Value::U64(32)),
            ],
        );
        t.emit(
            EventKind::GatewayThrottle,
            200,
            vec![("src", Value::str("10.0.0.9")), ("reason", Value::str("penalty"))],
        );
        let text = narrate(&t.events(), &RawLens);
        assert!(text.contains("!! gateway sheds 10.0.0.9 (policy shed-newest, queue at 32)"));
        assert!(text.contains("!! gateway throttles 10.0.0.9 (penalty)"));
    }

    #[test]
    fn ids_alerts_render_as_detector_lines() {
        let t = Tracer::new();
        t.emit(
            EventKind::IdsAlert,
            300,
            vec![
                ("detector", Value::str("replay")),
                ("sid", Value::U64(2001)),
                ("subject", Value::str("10.0.0.11:1024")),
                ("detail", Value::str("identical ap-req re-sent 60s later")),
                ("evidence", Value::U64(42)),
            ],
        );
        let text = narrate(&t.events(), &RawLens);
        assert!(text
            .contains("!! IDS [replay] 10.0.0.11:1024: identical ap-req re-sent 60s later"));
        assert!(text.contains("[evidence #42]"));
    }
}
