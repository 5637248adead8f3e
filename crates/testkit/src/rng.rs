//! The testkit's deterministic, splittable PRNG.
//!
//! Built on `krb-crypto`'s SplitMix64 [`Drbg`] so test randomness and
//! protocol randomness share one audited generator. Every run is
//! reproducible: the root seed comes from the `TESTKIT_SEED` environment
//! variable (decimal or `0x`-hex) and is printed whenever a property
//! fails, so any failure can be replayed exactly.

use krb_crypto::rng::{Drbg, RandomSource};

/// Environment variable holding the root seed for a test run.
pub const SEED_ENV: &str = "TESTKIT_SEED";

/// Default root seed when `TESTKIT_SEED` is unset. Arbitrary but fixed:
/// runs are bit-for-bit reproducible out of the box.
pub const DEFAULT_SEED: u64 = 0x1991_B311_0519_0B1E;

/// Reads the root seed from `TESTKIT_SEED`, falling back to
/// [`DEFAULT_SEED`]. Accepts decimal (`12345`) or hex (`0xBEEF`).
pub fn seed_from_env() -> u64 {
    match std::env::var(SEED_ENV) {
        Err(_) => DEFAULT_SEED,
        Ok(s) => parse_seed(&s)
            .unwrap_or_else(|| panic!("{SEED_ENV}={s:?} is not a u64 (decimal or 0x-hex)")),
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// A deterministic, splittable PRNG for tests, workload generation, and
/// attack campaigns.
///
/// Wraps [`Drbg`] and implements [`RandomSource`], so a `TestRng` can be
/// handed to any protocol API that takes the simulated hardware RNG.
/// [`TestRng::split`] derives an independent child stream, so concurrent
/// or nested consumers never perturb each other's draws.
#[derive(Clone, Debug)]
pub struct TestRng {
    inner: Drbg,
}

impl TestRng {
    /// A generator from an explicit seed.
    pub fn new(seed: u64) -> Self {
        TestRng { inner: Drbg::new(seed) }
    }

    /// Derives the deterministic sub-generator for one property-test
    /// case: a pure function of (root seed, test name, case index).
    pub fn for_case(root_seed: u64, name: &str, case: u64) -> Self {
        // FNV-1a over the name, mixed with seed and case index through
        // one SplitMix64 step each so nearby cases decorrelate.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut d = Drbg::new(root_seed ^ h);
        let a = d.next_u64();
        let mut d2 = Drbg::new(a.wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        TestRng { inner: Drbg::new(d2.next_u64()) }
    }

    /// Splits off an independent child generator. The parent advances by
    /// one draw; the child's stream shares no state with the parent's
    /// subsequent output.
    pub fn split(&mut self) -> Self {
        let s = self.inner.next_u64();
        // Decorrelate: a plain Drbg::new(s) child would replay draws the
        // parent is about to make.
        TestRng { inner: Drbg::new(s ^ 0x6a09_e667_f3bc_c908) }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Next raw 128-bit draw (two 64-bit draws, high word first).
    pub fn next_u128(&mut self) -> u128 {
        (u128::from(self.inner.next_u64()) << 64) | u128::from(self.inner.next_u64())
    }

    /// Uniform value in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.inner.next_below(bound)
    }

    /// Uniform value in `[0, bound)` for 128-bit bounds.
    pub fn below_u128(&mut self, bound: u128) -> u128 {
        assert!(bound > 0);
        let zone = u128::MAX - u128::MAX % bound;
        loop {
            let v = self.next_u128();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform `usize` index in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 uniform bits into the mantissa.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Fills a buffer with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }
}

impl RandomSource for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_across_instances() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = TestRng::new(1);
        let mut child = parent.split();
        let child_draws: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        let parent_draws: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        assert_ne!(child_draws, parent_draws);
        // And the split itself is deterministic.
        let mut parent2 = TestRng::new(1);
        let mut child2 = parent2.split();
        assert_eq!(child_draws, (0..8).map(|_| child2.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn for_case_is_pure() {
        let mut a = TestRng::for_case(3, "mod::test_x", 5);
        let mut b = TestRng::for_case(3, "mod::test_x", 5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case(3, "mod::test_x", 6);
        let mut d = TestRng::for_case(3, "mod::test_y", 5);
        let x = TestRng::for_case(3, "mod::test_x", 5).next_u64();
        assert_ne!(c.next_u64(), x);
        assert_ne!(d.next_u64(), x);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = TestRng::new(9);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_u128_in_range() {
        let mut r = TestRng::new(11);
        for bound in [1u128, 2, 1 << 70, u128::MAX] {
            for _ in 0..20 {
                assert!(r.below_u128(bound) < bound);
            }
        }
    }

    #[test]
    fn parse_seed_forms() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xff"), Some(255));
        assert_eq!(parse_seed("0XFF"), Some(255));
        assert_eq!(parse_seed("nope"), None);
    }
}
