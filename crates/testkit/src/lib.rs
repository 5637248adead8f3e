//! # testkit
//!
//! Hermetic, in-tree test infrastructure for the kerberos-limits
//! workspace — the replacement for the `rand`, `proptest`, and
//! `parking_lot` crates-io dependencies, so `cargo build --release
//! && cargo test -q` succeeds with the network disabled and produces
//! bit-for-bit identical results across runs.
//!
//! Two pieces:
//!
//! - [`rng`] — [`TestRng`](rng::TestRng), a deterministic splittable
//!   PRNG built on `krb-crypto`'s SplitMix64 `Drbg`. Root seed from
//!   `TESTKIT_SEED`; printed on every property failure for replay.
//! - [`prop`] — a property-testing mini-framework: strategies for
//!   integers, vectors, options, strings and unions, the [`prop!`]
//!   macro, configurable case counts, and greedy shrinking.
//!
//! `attacks` and `krb-fuzz` draw their randomness from [`TestRng`] at
//! run time, so testkit reads no clock: the wall-clock bench harness
//! lives in the `bench` crate.
//!
//! ## Replaying a failure
//!
//! A failing property prints its root seed and a replay line:
//!
//! ```text
//! property 'proptests::cbc_roundtrip' failed at case 17/64 (root seed 123, 2 shrink steps)
//! minimal counterexample: (...)
//! replay: TESTKIT_SEED=123 cargo test -q cbc_roundtrip
//! ```
//!
//! Setting `TESTKIT_SEED` regenerates the identical case sequence;
//! `TESTKIT_CASES` scales how many cases every property runs.

pub mod prop;
pub mod rng;

pub use rng::{seed_from_env, TestRng, DEFAULT_SEED, SEED_ENV};

/// One-stop imports for test files:
/// `use testkit::prelude::*;`
pub mod prelude {
    pub use crate::prop::{
        any, boxed, collection, option, string, Arbitrary, BoxedStrategy, Just, Strategy,
    };
    pub use crate::rng::TestRng;
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof};
}
