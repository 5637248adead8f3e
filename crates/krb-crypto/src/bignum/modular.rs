//! Modular arithmetic: exponentiation, inverses, primality.

use super::BigUint;
use crate::error::CryptoError;
use crate::rng::RandomSource;

/// Computes `base^exp mod modulus`. Odd moduli above 1 run the in-place
/// Montgomery kernel; the rest take [`mod_exp_reference`].
pub fn mod_exp(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> Result<BigUint, CryptoError> {
    if modulus.is_even() || modulus.bit_len() < 2 {
        return mod_exp_reference(base, exp, modulus);
    }
    super::montgomery::mod_exp_odd(base, exp, modulus)
}

/// The division-based reference: left-to-right square-and-multiply with
/// a Knuth-division reduction after every product. Even moduli take it,
/// and the tests and the `modexp_impl_768bit` bench hold the kernel to it.
pub fn mod_exp_reference(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> Result<BigUint, CryptoError> {
    if modulus.is_zero() {
        return Err(CryptoError::DivideByZero);
    }
    if modulus == &BigUint::one() {
        return Ok(BigUint::zero());
    }
    let mut result = BigUint::one();
    let base = base.rem(modulus)?;
    let bits = exp.bit_len();
    for i in (0..bits).rev() {
        result = result.mul(&result).rem(modulus)?;
        if exp.bit(i) {
            result = result.mul(&base).rem(modulus)?;
        }
    }
    Ok(result)
}

/// Computes the modular inverse of `a` mod `m` via the extended Euclidean
/// algorithm. Returns `None` if `gcd(a, m) != 1`.
pub fn mod_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    if m.is_zero() || m == &BigUint::one() {
        return None;
    }
    // Track (old_r, r) and signed coefficients for a as (sign, magnitude).
    let mut old_r = a.rem(m).ok()?;
    let mut r = m.clone();
    let mut old_s = (false, BigUint::one()); // Coefficient of a for old_r.
    let mut s = (false, BigUint::zero());

    while !r.is_zero() {
        let (q, rem) = old_r.divrem(&r).ok()?;
        // new_s = old_s - q * s, with sign tracking.
        let qs = q.mul(&s.1);
        let new_s = signed_sub(old_s.clone(), (s.0, qs));
        old_r = std::mem::replace(&mut r, rem);
        old_s = std::mem::replace(&mut s, new_s);
    }

    if old_r != BigUint::one() {
        return None;
    }
    // Normalize the coefficient into [0, m).
    let (neg, mag) = old_s;
    let mag = mag.rem(m).ok()?;
    if neg && !mag.is_zero() {
        Some(m.sub(&mag))
    } else {
        Some(mag)
    }
}

/// Subtracts signed magnitudes: `a - b` where each is `(negative, |x|)`.
fn signed_sub(a: (bool, BigUint), b: (bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b where both non-negative.
        (false, false) => match a.1.checked_sub(&b.1) {
            Some(d) => (false, d),
            None => (true, b.1.sub(&a.1)),
        },
        // a - (-b) = a + b.
        (false, true) => (false, a.1.add(&b.1)),
        // -a - b = -(a + b).
        (true, false) => (true, a.1.add(&b.1)),
        // -a - (-b) = b - a.
        (true, true) => match b.1.checked_sub(&a.1) {
            Some(d) => (false, d),
            None => (true, a.1.sub(&b.1)),
        },
    }
}

/// Miller-Rabin primality test with `rounds` random bases (plus base 2,
/// always). Deterministically correct for the small primes used in
/// tests; probabilistic for large candidates.
pub fn miller_rabin(n: &BigUint, rounds: usize, rng: &mut dyn RandomSource) -> bool {
    let two = BigUint::from_u64(2);
    if n < &two {
        return false;
    }
    if n == &two || n == &BigUint::from_u64(3) {
        return true;
    }
    if n.is_even() {
        return false;
    }

    // Quick trial division by small primes.
    for p in [3u64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
        let pb = BigUint::from_u64(p);
        if n == &pb {
            return true;
        }
        if n.rem(&pb).map(|r| r.is_zero()).unwrap_or(false) {
            return false;
        }
    }

    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr_bits(1);
        s += 1;
    }

    let witness = |a: &BigUint| -> bool {
        // Returns true if `a` proves n composite.
        let mut x = match mod_exp(a, &d, n) {
            Ok(x) => x,
            Err(_) => return true,
        };
        if x == BigUint::one() || x == n_minus_1 {
            return false;
        }
        for _ in 0..s - 1 {
            x = match x.mul(&x).rem(n) {
                Ok(v) => v,
                Err(_) => return true, // n zero cannot happen; treat as composite
            };
            if x == n_minus_1 {
                return false;
            }
        }
        true
    };

    if witness(&two) {
        return false;
    }
    for _ in 0..rounds {
        // Random base in [2, n-2].
        let a = random_below(&n_minus_1, rng);
        let a = if a < two { two.clone() } else { a };
        if witness(&a) {
            return false;
        }
    }
    true
}

/// Returns a uniform random value in `[0, bound)`.
pub fn random_below(bound: &BigUint, rng: &mut dyn RandomSource) -> BigUint {
    assert!(!bound.is_zero());
    let bits = bound.bit_len();
    let bytes = bits.div_ceil(8);
    loop {
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        // Mask the top byte to the bit length.
        let excess = bytes * 8 - bits;
        if excess > 0 {
            buf[0] &= 0xff >> excess;
        }
        let candidate = BigUint::from_bytes_be(&buf);
        if &candidate < bound {
            return candidate;
        }
    }
}

/// Returns a random value with exactly `bits` significant bits.
pub fn random_bits(bits: usize, rng: &mut dyn RandomSource) -> BigUint {
    assert!(bits > 0);
    let bytes = bits.div_ceil(8);
    let mut buf = vec![0u8; bytes];
    rng.fill_bytes(&mut buf);
    let excess = bytes * 8 - bits;
    buf[0] &= 0xff >> excess;
    buf[0] |= 0x80 >> excess; // Force the top bit.
    BigUint::from_bytes_be(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Drbg;

    fn n(hex: &str) -> BigUint {
        BigUint::from_hex(hex).unwrap()
    }

    #[test]
    fn mod_exp_small() {
        let r = mod_exp(&BigUint::from_u64(4), &BigUint::from_u64(13), &BigUint::from_u64(497)).unwrap();
        assert_eq!(r.to_u64(), Some(445));
        // Fermat: 2^(p-1) = 1 mod p for p = 1000003.
        let p = BigUint::from_u64(1_000_003);
        let r = mod_exp(&BigUint::from_u64(2), &p.sub(&BigUint::one()), &p).unwrap();
        assert_eq!(r, BigUint::one());
    }

    #[test]
    fn mod_exp_edges() {
        let m = BigUint::from_u64(7);
        assert_eq!(mod_exp(&BigUint::from_u64(3), &BigUint::zero(), &m).unwrap(), BigUint::one());
        assert_eq!(mod_exp(&BigUint::zero(), &BigUint::from_u64(5), &m).unwrap(), BigUint::zero());
        assert_eq!(mod_exp(&BigUint::from_u64(3), &BigUint::one(), &BigUint::one()).unwrap(), BigUint::zero());
        assert!(mod_exp(&BigUint::one(), &BigUint::one(), &BigUint::zero()).is_err());
    }

    #[test]
    fn mod_exp_multi_limb() {
        // 2^128 mod (2^89-1): 2^89 = 1, so 2^128 = 2^39.
        let m = BigUint::from_hex("1ffffffffffffffffffffff").unwrap(); // 2^89-1
        let r = mod_exp(&BigUint::from_u64(2), &BigUint::from_u64(128), &m).unwrap();
        assert_eq!(r, BigUint::from_u64(1 << 39));
    }

    #[test]
    fn inverse_basics() {
        let m = BigUint::from_u64(97);
        for a in 1u64..97 {
            let inv = mod_inverse(&BigUint::from_u64(a), &m).unwrap();
            let prod = BigUint::from_u64(a).mul(&inv).rem(&m).unwrap();
            assert_eq!(prod, BigUint::one(), "a={a}");
        }
    }

    #[test]
    fn inverse_nonexistent() {
        assert!(mod_inverse(&BigUint::from_u64(6), &BigUint::from_u64(9)).is_none());
        assert!(mod_inverse(&BigUint::zero(), &BigUint::from_u64(9)).is_none());
    }

    #[test]
    fn inverse_large() {
        let m = n("ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd1");
        let a = n("123456789abcdef0fedcba9876543210deadbeef");
        if let Some(inv) = mod_inverse(&a, &m) {
            assert_eq!(a.mul(&inv).rem(&m).unwrap(), BigUint::one());
        }
    }

    #[test]
    fn miller_rabin_knowns() {
        let mut rng = Drbg::new(1);
        for p in [2u64, 3, 5, 7, 61, 97, 65537, 1_000_003, 2_147_483_647] {
            assert!(miller_rabin(&BigUint::from_u64(p), 16, &mut rng), "{p} is prime");
        }
        for c in [0u64, 1, 4, 9, 91, 561, 41041, 825_265, 1_000_001] {
            assert!(!miller_rabin(&BigUint::from_u64(c), 16, &mut rng), "{c} is composite");
        }
    }

    #[test]
    fn miller_rabin_mersenne() {
        let mut rng = Drbg::new(2);
        // 2^89-1 is prime; 2^83-1 is not.
        assert!(miller_rabin(&n("1ffffffffffffffffffffff"), 8, &mut rng));
        assert!(!miller_rabin(&n("7ffffffffffffffffffff"), 8, &mut rng));
    }

    #[test]
    fn random_below_bounds() {
        let mut rng = Drbg::new(3);
        let bound = n("ffffffffffffffffffffffffffffffff");
        for _ in 0..50 {
            assert!(random_below(&bound, &mut rng) < bound);
        }
        let one = BigUint::one();
        assert!(random_below(&one, &mut rng).is_zero());
    }

    #[test]
    fn random_bits_exact() {
        let mut rng = Drbg::new(4);
        for bits in [1usize, 7, 8, 9, 63, 64, 65, 127] {
            let v = random_bits(bits, &mut rng);
            assert_eq!(v.bit_len(), bits, "bits={bits}");
        }
    }
}
