//! Typed protocol events and their field values.

use std::sync::Arc;

/// A field value attached to an [`Event`].
///
/// The variants mirror what JSONL can carry with a stable rendering:
/// numbers, booleans, strings, and raw wire bytes (hex-encoded on
/// export).  Bytes are `Arc`-shared, so building an event around a
/// datagram payload, or cloning it to subscribers, is a refcount bump;
/// the tracer's ring copies the bytes into its own record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    U64(u64),
    Bool(bool),
    Str(String),
    Bytes(Arc<Vec<u8>>),
}

impl Value {
    /// String value from anything displayable.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Shared-byte value; the caller's `Arc` is bumped, never copied.
    pub fn bytes(b: Arc<Vec<u8>>) -> Value {
        Value::Bytes(b)
    }
}

/// A field value borrowed from the caller: what
/// [`crate::Tracer::emit_ref`] records without building owned strings.
/// Bytes stay behind their `Arc`, so the owned [`Value`] a subscriber
/// receives shares them.
#[derive(Clone, Copy, Debug)]
pub enum ValueRef<'a> {
    U64(u64),
    Bool(bool),
    Str(&'a str),
    Bytes(&'a Arc<Vec<u8>>),
}

impl ValueRef<'_> {
    /// The owned value: copies a string, bumps a payload's refcount.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::U64(v) => Value::U64(v),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Bytes(b) => Value::Bytes(Arc::clone(b)),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::U64(v) => ValueRef::U64(*v),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bytes(b) => ValueRef::Bytes(b),
        }
    }
}

/// The closed set of event types the protocol stack emits.
///
/// C-like so matching is total and `label()` gives the stable JSONL
/// `kind` string; adding a variant is an API change that golden tests
/// will surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// One datagram leg on the wire (request or reply, any origin).
    WireHop,
    /// A span opened (`name`, `parent` fields).
    SpanBegin,
    /// A span closed (`name`, `dur_us` fields).
    SpanEnd,
    /// A client retry/backoff attempt after a transient failure.
    Retry,
    /// KDC issued a ticket (AS or TGS exchange).
    TicketIssued,
    /// Client decrypted a KDC reply and recovered a session key.
    TicketDecrypted,
    /// Application server accepted an authenticator.
    AuthAccepted,
    /// Application server rejected a request (`reason` field).
    AuthRejected,
    /// Replay cache recognised a previously-seen authenticator.
    ReplayBlocked,
    /// Replay cache failed closed (post-restart TRY-LATER window).
    FailClosed,
    /// Verifier issued a handheld-authenticator challenge.
    ChallengeIssued,
    /// KDC rejected preauthentication.
    PreauthFailed,
    /// KDC rate limiter refused a client.
    RateLimited,
    /// Datagram arrived at a crashed host.
    HostDown,
    /// A host restarted (volatile state reset).
    HostRestart,
    /// Gateway shed a request: admission queue full, the load-shedding
    /// policy refused or evicted it (`policy`, `src`, `occupancy`
    /// fields).
    GatewayShed,
    /// Gateway throttled a request before it reached the queue: token
    /// bucket empty or principal in a penalty window (`reason`, `src`
    /// fields).
    GatewayThrottle,
    /// Intrusion-detection alert: a krb-ids detector fired (`detector`,
    /// `sid`, `subject`, `detail`, `evidence` fields).
    IdsAlert,
    /// Free-form annotation (adversary actions, scenario markers).
    Note,
}

impl EventKind {
    /// Every kind, indexed by its discriminant (the byte the trace ring
    /// stores and decodes through this table): a new variant goes at
    /// the end of the enum and of this list.
    pub const ALL: [EventKind; 19] = [
        EventKind::WireHop,
        EventKind::SpanBegin,
        EventKind::SpanEnd,
        EventKind::Retry,
        EventKind::TicketIssued,
        EventKind::TicketDecrypted,
        EventKind::AuthAccepted,
        EventKind::AuthRejected,
        EventKind::ReplayBlocked,
        EventKind::FailClosed,
        EventKind::ChallengeIssued,
        EventKind::PreauthFailed,
        EventKind::RateLimited,
        EventKind::HostDown,
        EventKind::HostRestart,
        EventKind::GatewayShed,
        EventKind::GatewayThrottle,
        EventKind::IdsAlert,
        EventKind::Note,
    ];

    /// Stable dotted label used as the JSONL `kind` field.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::WireHop => "wire.hop",
            EventKind::SpanBegin => "span.begin",
            EventKind::SpanEnd => "span.end",
            EventKind::Retry => "client.retry",
            EventKind::TicketIssued => "kdc.ticket_issued",
            EventKind::TicketDecrypted => "client.ticket_decrypted",
            EventKind::AuthAccepted => "ap.accepted",
            EventKind::AuthRejected => "ap.rejected",
            EventKind::ReplayBlocked => "replay.blocked",
            EventKind::FailClosed => "replay.fail_closed",
            EventKind::ChallengeIssued => "auth.challenge",
            EventKind::PreauthFailed => "kdc.preauth_failed",
            EventKind::RateLimited => "kdc.rate_limited",
            EventKind::HostDown => "net.host_down",
            EventKind::HostRestart => "net.host_restart",
            EventKind::GatewayShed => "gateway.shed",
            EventKind::GatewayThrottle => "gateway.throttle",
            EventKind::IdsAlert => "ids.alert",
            EventKind::Note => "note",
        }
    }
}

/// One recorded event: a sequence number (total order), the sim-time it
/// happened at, the span it belongs to (0 = root), its kind, and typed
/// fields in emission order (which is also JSONL field order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    pub seq: u64,
    pub at_us: u64,
    pub span: u64,
    pub kind: EventKind,
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    pub fn u64_field(&self, name: &str) -> Option<u64> {
        match self.field(name) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn bool_field(&self, name: &str) -> Option<bool> {
        match self.field(name) {
            Some(Value::Bool(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name) {
            Some(Value::Str(v)) => Some(v.as_str()),
            _ => None,
        }
    }

    pub fn bytes_field(&self, name: &str) -> Option<&Arc<Vec<u8>>> {
        match self.field(name) {
            Some(Value::Bytes(v)) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_accessors_are_typed() {
        let e = Event {
            seq: 0,
            at_us: 7,
            span: 0,
            kind: EventKind::Note,
            fields: vec![
                ("n", Value::U64(3)),
                ("b", Value::Bool(true)),
                ("s", Value::str("hi")),
                ("p", Value::bytes(Arc::new(vec![1, 2]))),
            ],
        };
        assert_eq!(e.u64_field("n"), Some(3));
        assert_eq!(e.bool_field("b"), Some(true));
        assert_eq!(e.str_field("s"), Some("hi"));
        assert_eq!(e.bytes_field("p").map(|b| b.len()), Some(2));
        assert_eq!(e.u64_field("s"), None);
        assert_eq!(e.str_field("missing"), None);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = EventKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EventKind::ALL.len());
    }

    #[test]
    fn all_is_indexed_by_discriminant() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k:?}");
        }
    }
}
