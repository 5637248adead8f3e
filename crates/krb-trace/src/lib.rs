//! Deterministic observability for the Kerberos reproduction.
//!
//! Every claim in Bellovin & Merritt is a claim about *what crossed the
//! wire and why the verifier accepted it*.  This crate records exactly
//! that: a [`Tracer`] handle is threaded through simnet and the protocol
//! crates, emitting typed [`Event`]s (wire hops, ticket issuance,
//! authenticator verdicts, retries, faults, replay-cache hits) grouped
//! under sim-time [`tracer::SpanId`] spans, plus a metrics registry of
//! counters / gauges / sim-time histograms keyed by `(name, scope)`.
//!
//! Determinism contract: the crate never reads wall-clock time, never
//! consumes randomness, and stores everything in `BTreeMap`s — two runs
//! of the same seeded scenario produce byte-identical [`jsonl`] exports.
//! Secrecy contract: events carry redacted key fingerprints only; the
//! krb-lint rule S004 forbids secret-typed values in emission arguments.
//!
//! Sinks: an in-memory ring of encoded event records (capacity-bounded
//! in events, eviction counted), a stable-field-order JSONL exporter for
//! golden tests, and a [`narrate`] renderer turning a trace into the
//! paper's step-notation transcript
//! (`c -> tgs: {A_c}K_{c,tgs}, T_{c,tgs} ...`) with the adversary's taps
//! and injections interleaved.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod event;
pub mod jsonl;
pub mod metrics;
pub mod narrate;
mod ring;
pub mod tracer;

pub use event::{Event, EventKind, Value};
pub use jsonl::to_jsonl;
pub use metrics::{render_metrics_table, MetricsSnapshot};
pub use narrate::{narrate, Lens, RawLens};
pub use tracer::{SpanId, Subscription, Tracer};
