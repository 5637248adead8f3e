//! # krb-crypto
//!
//! The cryptographic substrate for the reproduction of Bellovin &
//! Merritt, *Limitations of the Kerberos Authentication System* (USENIX
//! Winter 1991). Everything here is implemented from scratch because the
//! paper's attacks live in the details:
//!
//! - [`des`] — FIPS 46-3 DES, validated against the NBS known-answer
//!   vectors.
//! - [`modes`] — ECB/CBC/PCBC, including CBC's prefix property and
//!   PCBC's block-swap tolerance, which two of the paper's attacks
//!   exploit.
//! - [`crc32`] — CRC-32 plus a forgery routine exploiting linearity (the
//!   Draft-3 cut-and-paste attacks).
//! - [`md4`] — RFC 1186 MD4, the era's "collision-proof" checksum.
//! - [`checksum`] — the Draft-3 checksum menu with the collision-proof /
//!   keyed classification the paper says the spec omitted.
//! - [`s2k`] — password-to-key derivation (the dictionary-attack
//!   surface).
//! - [`bignum`], [`dh`], [`dlog`] — exponential key exchange and the
//!   discrete-log attackers for the LaMacchia-Odlyzko trade-off.
//! - [`rng`] — deterministic randomness, including the "bad workstation
//!   RNG" failure mode.
//! - [`key`] — purpose-tagged keys, per the paper's hardware design
//!   criteria.
//! - [`ct`] — constant-time comparison ([`ct_eq`]) and the
//!   [`SecretBytes`] redaction wrapper; the sanctioned fixes for
//!   krb-lint rules C001 and S001.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod bignum;
pub mod checksum;
pub mod crc32;
pub mod ct;
pub mod des;
pub mod dh;
pub mod dlog;
pub mod error;
pub mod key;
pub mod md4;
pub mod modes;
pub mod rng;
pub mod s2k;

pub use ct::{ct_eq, SecretBytes};
pub use des::DesKey;
pub use error::CryptoError;
pub use key::{KeyPurpose, TaggedKey};
pub use rng::{BadLcg, Drbg, RandomSource};
