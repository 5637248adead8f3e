//! # krb-lint
//!
//! A hermetic, dependency-free static analysis pass over the whole
//! workspace, enforcing the invariants Bellovin & Merritt's attacks
//! exploit when they are broken, where clippy cannot see them:
//!
//! - **S — secrecy**: key-bearing types must not be formattable; key
//!   material must not flow into log strings (S001/S002/S003) or trace
//!   emissions (S004).
//! - **C — constant time**: key and MAC bytes are compared with
//!   `krb_crypto::ct_eq`, never `==` (C001).
//!
//! Determinism (no wall clock, OS sockets or `RandomState` maps) lives in
//! the root `clippy.toml`, panic hygiene in each protocol crate root's
//! `clippy::unwrap_used`/`panic`/… attributes, and hermeticity in
//! `verify.sh`'s `cargo metadata` check, and allocation counts in the
//! root `tests/alloc_budget.rs`. Their old rule IDs are retired, not
//! reused.
//!
//! The linter is flow-aware: a brace-matching syntax layer
//! ([`syntax`]) recovers per-function skeletons from the token stream,
//! a workspace call graph ([`callgraph`]) resolves intra-tree calls,
//! and a taint engine ([`taint`]) follows secrets through renames and
//! up to 3 call hops. On top of these sit S005 (cross-function
//! secret-to-sink taint), P003 (truncating length casts on codec
//! paths) and E001 (metric-name drift vs DESIGN.md) — see [`flow`].
//!
//! The scanner is a hand-rolled line/column-tracking lexer
//! ([`lexer`]), so the crate has no dependencies. Suppressions live in
//! `lint-baseline.toml` ([`baseline`]) and every entry must carry a
//! justification; stale entries fail the run.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod diag;
pub mod engine;
pub mod flow;
pub mod lexer;
pub mod rules;
pub mod syntax;
pub mod taint;

pub use diag::{Finding, Rule, ALL_RULES};
pub use engine::{analyze_source, crate_of, find_root, run, Report};
pub use flow::{analyze_workspace, FileInput, FlowStats};
