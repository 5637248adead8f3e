//! # simnet
//!
//! A deterministic simulated network for the Kerberos-limitations
//! reproduction. It substitutes for MIT's campus network while granting
//! the adversary exactly the powers the paper's threat model assumes:
//!
//! - **Passive wiretap** — every datagram is recorded in
//!   [`net::Network::traffic_log`].
//! - **Active wiretap** — an in-path [`adversary::Tap`] may rewrite or
//!   drop any datagram.
//! - **Forgery & replay** — [`net::Network::inject`] puts arbitrary
//!   datagrams (any source address) on the wire.
//! - **Clock games** — per-host [`clock::Clock`]s with offset and drift,
//!   synced through spoofable ([`time::TimeService`]) or authenticated
//!   ([`time::AuthTimeService`]) time protocols.
//! - **Blind spoofing** — [`stream`] reproduces the 4.2BSD
//!   predictable-ISN stream layer of Morris '85.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]

//! - **Environment faults** — a seeded [`fault::FaultPlan`] injects
//!   loss, duplication, reordering, delay, corruption, partitions, and
//!   host crash/restart events, deterministically and distinctly from
//!   the adversary.

pub mod adversary;
pub mod clock;
pub mod fault;
pub mod host;
pub mod net;
pub mod stream;
pub mod time;

pub use adversary::{RecordingTap, ScriptedTap, Tap, Verdict};
pub use clock::{Clock, SimDuration, SimTime};
pub use fault::{FaultKind, FaultPlan, FaultStats, LinkFaults};
pub use host::{Host, HostId, Service, ServiceCtx};
pub use krb_trace::Tracer;
pub use net::{Addr, Datagram, Endpoint, NetError, Network, TrafficRecord};
