//! The in-place Montgomery kernel that [`super::mod_exp`] runs for every
//! odd modulus above 1.
//!
//! CIOS Montgomery multiplication (Koç, Acar & Kaliski 1996) over `u64`
//! words packed from the `u32` limbs, driven by a 4-bit fixed window.
//! Each call takes one scratch buffer sized from the modulus (modulus
//! words, window table, accumulator, the constant 1 and the CIOS row), so
//! the exponent loop allocates nothing, whatever the exponent's length.
//! m′ and R² mod m are rebuilt on every call (R² takes ≈2 µs at 768 bits,
//! about 3% of one modexp): nothing is cached between calls.

use super::BigUint;
use crate::error::CryptoError;
use std::cmp::Ordering;

/// Exponent bits consumed per table lookup.
const WINDOW: usize = 4;

/// Computes `base^exp mod m` for an odd `m > 1`.
pub(super) fn mod_exp_odd(base: &BigUint, exp: &BigUint, m: &BigUint) -> Result<BigUint, CryptoError> {
    let n = m.limbs.len().div_ceil(2);
    // R = 2^(64n).
    let r2 = BigUint::one().shl_bits(128 * n).rem(m)?;
    let base = base.rem(m)?;

    let mut scratch = vec![0u64; ((1 << WINDOW) + 4) * n + 2];
    let (modulus, rest) = scratch.split_at_mut(n);
    let (table, rest) = rest.split_at_mut(n << WINDOW);
    let (acc, rest) = rest.split_at_mut(n);
    let (one, t) = rest.split_at_mut(n);
    load(modulus, m);
    let m_inv = neg_inverse(modulus[0]);
    one[0] = 1;

    // table[d] = base^d · R mod m: table[0] = REDC(R²), table[1] =
    // base·R² / R, and each further entry one product more.
    load(acc, &r2);
    mont_mul(t, acc, one, modulus, m_inv);
    table[..n].copy_from_slice(&t[..n]);
    load(&mut table[n..2 * n], &base);
    mont_mul(t, &table[n..2 * n], acc, modulus, m_inv);
    table[n..2 * n].copy_from_slice(&t[..n]);
    for d in 2..1 << WINDOW {
        mont_mul(t, &table[(d - 1) * n..d * n], &table[n..2 * n], modulus, m_inv);
        table[d * n..(d + 1) * n].copy_from_slice(&t[..n]);
    }

    // Left to right, one window at a time; the top window seeds the
    // accumulator (exp = 0 leaves it at 1·R).
    let windows = exp.bit_len().div_ceil(WINDOW);
    let digit = |w: usize| (exp.limbs[w * WINDOW / 32] >> (w * WINDOW % 32)) as usize % (1 << WINDOW);
    let top = windows.checked_sub(1).map_or(0, digit);
    acc.copy_from_slice(&table[top * n..(top + 1) * n]);
    for w in (0..windows.saturating_sub(1)).rev() {
        for _ in 0..WINDOW {
            mont_mul(t, acc, acc, modulus, m_inv);
            acc.copy_from_slice(&t[..n]);
        }
        let d = digit(w);
        if d != 0 {
            mont_mul(t, acc, &table[d * n..(d + 1) * n], modulus, m_inv);
            acc.copy_from_slice(&t[..n]);
        }
    }

    // Out of Montgomery form: acc · 1 · R⁻¹.
    mont_mul(t, acc, one, modulus, m_inv);
    let mut limbs = Vec::with_capacity(2 * n);
    for &w in &t[..n] {
        limbs.extend([w as u32, (w >> 32) as u32]);
    }
    let mut out = BigUint { limbs };
    out.normalize();
    Ok(out)
}

/// Packs `x`'s `u32` limbs into `dst`'s `u64` words, zero-filling the
/// rest; `x` has at most `2 · dst.len()` limbs.
fn load(dst: &mut [u64], x: &BigUint) {
    dst.fill(0);
    for (w, pair) in dst.iter_mut().zip(x.limbs.chunks(2)) {
        *w = u64::from(pair[0]) | pair.get(1).map_or(0, |&hi| u64::from(hi) << 32);
    }
}

/// −m⁻¹ mod 2^64 for odd `m0`, by Newton's iteration: `m0` is its own
/// inverse to 3 bits, and each step doubles the correct bits.
fn neg_inverse(m0: u64) -> u64 {
    let mut inv = m0;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
    }
    inv.wrapping_neg()
}

/// `t + a·b + carry` as (low word, high word); cannot overflow.
fn mac(t: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let s = u128::from(t) + u128::from(a) * u128::from(b) + u128::from(carry);
    (s as u64, (s >> 64) as u64)
}

/// The CIOS Montgomery product: leaves `a·b·R⁻¹ mod m` in `t[..n]` for
/// `a, b < m`, where `n = m.len()` and `t` has `n + 2` words.
fn mont_mul(t: &mut [u64], a: &[u64], b: &[u64], m: &[u64], m_inv: u64) {
    let n = m.len();
    let (t, a, b) = (&mut t[..n + 2], &a[..n], &b[..n]);
    t.fill(0);
    for &bi in b {
        // t += a·b_i.
        let mut carry = 0;
        for (tj, &aj) in t.iter_mut().zip(a) {
            (*tj, carry) = mac(*tj, aj, bi, carry);
        }
        let (lo, over) = t[n].overflowing_add(carry);
        (t[n], t[n + 1]) = (lo, u64::from(over));
        // t = (t + u·m) / 2^64, with u chosen to clear the low word.
        let u = t[0].wrapping_mul(m_inv);
        let (_, mut carry) = mac(t[0], u, m[0], 0);
        for j in 1..n {
            (t[j - 1], carry) = mac(t[j], u, m[j], carry);
        }
        let (lo, over) = t[n].overflowing_add(carry);
        t[n - 1] = lo;
        t[n] = t[n + 1] + u64::from(over);
    }
    // t < 2m: at most one subtraction lands it in [0, m).
    if t[n] != 0 || t[..n].iter().rev().cmp(m.iter().rev()) != Ordering::Less {
        let mut borrow = false;
        for (tj, &mj) in t[..n].iter_mut().zip(m) {
            let (d, b1) = tj.overflowing_sub(mj);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *tj = d;
            borrow = b1 | b2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::{mod_exp, mod_exp_reference};
    use crate::dh::DhGroup;

    fn n(hex: &str) -> BigUint {
        BigUint::from_hex(hex).unwrap()
    }

    #[test]
    fn matches_division_path_small() {
        let m = BigUint::from_u64(1_000_003);
        for (b, e) in [(2u64, 10u64), (3, 0), (0, 5), (999_999, 999_999), (7, 1)] {
            let (b, e) = (BigUint::from_u64(b), BigUint::from_u64(e));
            assert_eq!(mod_exp_odd(&b, &e, &m).unwrap(), mod_exp_reference(&b, &e, &m).unwrap(), "b={b} e={e}");
        }
    }

    #[test]
    fn matches_division_path_oakley() {
        let p = DhGroup::oakley768().p;
        let base = n("123456789abcdef0fedcba9876543210");
        let exp = n("deadbeefcafef00d1234");
        assert_eq!(mod_exp_odd(&base, &exp, &p).unwrap(), mod_exp_reference(&base, &exp, &p).unwrap());
    }

    /// m′ exists only for odd moduli, so `mod_exp` keeps the even modulus
    /// 100 and the modulus 1 off the kernel; both still compute.
    #[test]
    fn rejects_even_modulus() {
        let (three, four) = (BigUint::from_u64(3), BigUint::from_u64(4));
        assert_eq!(mod_exp(&three, &four, &BigUint::from_u64(100)).unwrap().to_u64(), Some(81));
        assert_eq!(mod_exp(&three, &four, &BigUint::one()).unwrap(), BigUint::zero());
    }

    #[test]
    fn dh_agreement_via_montgomery() {
        let g = DhGroup::small192();
        let a = n("aabbccddeeff00112233");
        let b = n("99887766554433221100");
        let ga = mod_exp_odd(&g.g, &a, &g.p).unwrap();
        let gb = mod_exp_odd(&g.g, &b, &g.p).unwrap();
        assert_eq!(mod_exp_odd(&gb, &a, &g.p).unwrap(), mod_exp_odd(&ga, &b, &g.p).unwrap());
    }
}
