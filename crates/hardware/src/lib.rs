//! # hardware
//!
//! The special-purpose cryptographic hardware the paper argues some
//! deployments need (section "Kerberos Hardware Design Criteria"):
//!
//! - [`unit::EncryptionUnit`] — a host crypto unit that performs every
//!   Kerberos operation *without ever exposing a key to the host*: keys
//!   live in sealed slots referenced by handles, tagged by purpose, and
//!   no API returns key material. "The encryption box itself must
//!   understand the Kerberos protocols; nothing less will guarantee the
//!   security of the stored keys."
//! - [`keystore`] — a networked, Kerberos-authenticated repository for
//!   sealed key blobs, so server hosts need no long-term local key
//!   storage ("only one master key need be stored within the box").
//! - [`randsvc`] — the secure network random-number service the paper
//!   proposes for generating new instance keys.
//! - [`token::HandheldAuthenticator`] — the login token computing
//!   `{R}K_c`.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod keystore;
pub mod randsvc;
pub mod token;
pub mod unit;

pub use token::HandheldAuthenticator;
pub use unit::{EncryptionUnit, HwError, KeyHandle};
