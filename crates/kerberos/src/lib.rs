//! # kerberos
//!
//! Kerberos V4 and V5-Draft-3, as analyzed by Bellovin & Merritt
//! (USENIX Winter 1991), with every recommended change implemented as a
//! switchable [`config::ProtocolConfig`] option.
//!
//! Layering, bottom-up:
//!
//! - [`encoding`] — the ambiguous legacy codec vs. the typed (DER-lite)
//!   codec.
//! - [`enclayer`] — V4 PCBC / V5 CBC+confounder / hardened
//!   CBC+IV+MAC encryption layers.
//! - [`principal`], [`flags`], [`ticket`], [`authenticator`],
//!   [`messages`] — the protocol data structures.
//! - [`database`], [`kdc`] — the authentication and ticket-granting
//!   services.
//! - [`client`], [`ccache`] — the client workflows and the credential
//!   cache storage model.
//! - [`appserver`], [`services`], [`session`], [`replay_cache`] —
//!   application servers, KRB_SAFE/KRB_PRIV sessions, and replay
//!   defense.
//! - [`crossrealm`] — inter-realm paths, routing, and trust policy.
//! - [`gateway`] — the Kerberos front-end for the `krb-gateway`
//!   admission tier (overload hardening of the KDC cluster).
//! - [`traceview`] — paper-notation rendering of traces and the
//!   key-fingerprint redaction helper (krb-trace integration).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod appserver;
pub mod authenticator;
pub mod ccache;
pub mod client;
pub mod config;
pub mod crossrealm;
pub mod database;
pub mod enclayer;
pub mod encoding;
pub mod error;
pub mod flags;
pub mod gateway;
pub mod kdc;
pub mod messages;
pub mod principal;
pub mod replay_cache;
pub mod retry;
pub mod services;
pub mod session;
pub mod testbed;
pub mod ticket;
pub mod traceview;

pub use authenticator::Authenticator;
pub use client::{
    get_service_ticket, get_service_ticket_at, login, login_at, Credential, LoginInput, TgsParams,
};
pub use config::{AppProtection, AuthStyle, Freshness, PreauthMode, ProtocolConfig, RetryPolicy};
pub use database::{bulk_password, shard_for, shard_for_parts, KdcDatabase, ShardedDatabase};
pub use error::KrbError;
pub use gateway::{KrbFrontend, KrbGateway};
pub use kdc::{Kdc, KDC_PORT};
pub use principal::Principal;
pub use ticket::Ticket;
pub use traceview::{describe_wire, fingerprint, PaperLens};
