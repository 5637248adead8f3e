//! # krb-gateway
//!
//! An overload-hardened front-end for the KDC cluster: a simnet host
//! that multiplexes many client flows onto the KDCs and survives abuse.
//! The paper's password-guessing discussion (reproduced as E2) shows
//! the KDC will happily serve an unbounded stream of AS requests to an
//! attacker harvesting guessable keys; the admission path built here is
//! the server-side defense the paper's "limit the rate of requests from
//! a single source" enhancement gestures at, grown into a full front
//! tier.
//!
//! Layers, outermost first:
//!
//! - [`bucket`] — deterministic token buckets (global and per-source),
//!   integer-µs math only so refill is exact and byte-identical across
//!   runs.
//! - [`penalty`] — per-principal preauth-storm throttling with
//!   exponential penalty windows: consecutive preauthentication
//!   failures against one principal buy the principal's callers an
//!   exponentially growing timeout.
//! - [`queue`] — a bounded admission queue with an explicit
//!   load-shedding policy (shed-newest vs. shed-oldest) and modeled
//!   queueing delay.
//! - [`gateway`] — the [`simnet::Service`] tying them together: parse
//!   (through a protocol-supplied [`gateway::Frontend`]), throttle,
//!   queue, forward to an upstream KDC, classify the reply, and answer
//!   refused clients with a *typed* server-busy reply so their backoff
//!   engages instead of timing out.
//!
//! The crate depends only on `simnet` and `krb-trace`; the Kerberos
//! protocol knowledge (message parsing, the busy reply's wire format)
//! is injected by the `kerberos` crate through the [`gateway::Frontend`]
//! trait, keeping the admission machinery reusable and the dependency
//! graph acyclic.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod bucket;
pub mod gateway;
pub mod penalty;
pub mod queue;

pub use bucket::TokenBucket;
pub use gateway::{Frontend, Gateway, GatewayConfig, GatewayStats, ReplyClass, RequestClass};
pub use penalty::{PenaltyBox, PenaltyConfig};
pub use queue::{Admission, AdmissionQueue, ShedPolicy};
