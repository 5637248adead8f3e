//! Discrete-logarithm attackers: baby-step/giant-step and Pollard rho.
//!
//! These implement the adversary side of the LaMacchia-Odlyzko point the
//! paper cites: "exchanging small numbers is quite insecure". Experiment
//! E4 runs these against exponential-key-exchange transcripts with small
//! exponents/moduli and records the time-to-break curve.

use crate::bignum::{mod_exp, mod_inverse, BigUint};
use crate::error::CryptoError;
use crate::rng::RandomSource;
#[expect(clippy::disallowed_types, reason = "for `bsgs`'s probe-only baby-step table")]
use std::collections::HashMap;

/// Solves `g^x = h (mod p)` for `x < bound` by baby-step/giant-step.
/// Memory O(sqrt(bound)), time O(sqrt(bound)) group operations.
#[expect(
    clippy::disallowed_types,
    reason = "the BSGS baby-step table is probe-only (never iterated) on the E4 time-to-break hot path; its order cannot reach any output"
)]
pub fn bsgs(g: &BigUint, h: &BigUint, p: &BigUint, bound: u64) -> Result<u64, CryptoError> {
    if bound == 0 {
        return Err(CryptoError::DlogNotFound);
    }
    let m = (bound as f64).sqrt().ceil() as u64;

    // Baby steps: table of g^j for j in [0, m).
    let mut table: HashMap<Vec<u8>, u64> = HashMap::with_capacity(m as usize);
    let mut cur = BigUint::one();
    for j in 0..m {
        table.entry(cur.to_bytes_be()).or_insert(j);
        cur = cur.mul(g).rem(p)?;
    }

    // Giant steps: multiply h by g^{-m} repeatedly.
    let g_inv = mod_inverse(g, p).ok_or(CryptoError::DlogNotFound)?;
    let g_inv_m = mod_exp(&g_inv, &BigUint::from_u64(m), p)?;
    let target = h.rem(p)?;
    let mut y = target.clone();
    let mut i = 0u64;
    while i * m <= bound {
        if let Some(&j) = table.get(&y.to_bytes_be()) {
            let x = i * m + j;
            if mod_exp(g, &BigUint::from_u64(x), p)? == target {
                return Ok(x);
            }
        }
        y = y.mul(&g_inv_m).rem(p)?;
        i += 1;
    }
    Err(CryptoError::DlogNotFound)
}

/// Solves `g^x = h (mod p)` where `g` has known prime order `q`, by
/// Pollard's rho with Floyd cycle detection. Expected time
/// O(sqrt(q)) group operations, O(1) memory.
pub fn pollard_rho(
    g: &BigUint,
    h: &BigUint,
    p: &BigUint,
    q: &BigUint,
    rng: &mut dyn RandomSource,
) -> Result<BigUint, CryptoError> {
    let h = h.rem(p)?;
    if h == BigUint::one() {
        return Ok(BigUint::zero());
    }

    // Walk state: (x, a, b) with x = g^a * h^b.
    #[derive(Clone)]
    struct State {
        x: BigUint,
        a: BigUint,
        b: BigUint,
    }

    let step = |s: &State,
                g: &BigUint,
                h: &BigUint,
                p: &BigUint,
                q: &BigUint|
     -> Result<State, CryptoError> {
        // Partition by the low limb of x into three classes.
        let class = s.x.to_bytes_be().last().copied().unwrap_or(0) % 3;
        Ok(match class {
            0 => State {
                x: s.x.mul(h).rem(p)?,
                a: s.a.clone(),
                b: s.b.add(&BigUint::one()).rem(q)?,
            },
            1 => State {
                x: s.x.mul(&s.x).rem(p)?,
                a: s.a.mul(&BigUint::from_u64(2)).rem(q)?,
                b: s.b.mul(&BigUint::from_u64(2)).rem(q)?,
            },
            _ => State {
                x: s.x.mul(g).rem(p)?,
                a: s.a.add(&BigUint::one()).rem(q)?,
                b: s.b.clone(),
            },
        })
    };

    // Multiple restarts with random starting points guard against
    // degenerate cycles.
    for _ in 0..32 {
        let a0 = crate::bignum::random_below(q, rng);
        let b0 = crate::bignum::random_below(q, rng);
        let x0 = mod_exp(g, &a0, p)?.mul(&mod_exp(&h, &b0, p)?).rem(p)?;
        let mut tortoise = State { x: x0.clone(), a: a0.clone(), b: b0.clone() };
        let mut hare = tortoise.clone();

        // Bounded walk: ~8 sqrt(q) steps before a restart.
        let max_steps = 8 * (1u64 << (q.bit_len() / 2 + 1));
        for _ in 0..max_steps {
            tortoise = step(&tortoise, g, &h, p, q)?;
            hare = step(&step(&hare, g, &h, p, q)?, g, &h, p, q)?;
            if tortoise.x == hare.x {
                // g^(a1 - a2) = h^(b2 - b1); solve for x = log_g h.
                let da = sub_mod(&tortoise.a, &hare.a, q)?;
                let db = sub_mod(&hare.b, &tortoise.b, q)?;
                if db.is_zero() {
                    break; // Useless collision; restart.
                }
                let db_inv = match mod_inverse(&db, q) {
                    Some(i) => i,
                    None => break,
                };
                let x = da.mul(&db_inv).rem(q)?;
                if mod_exp(g, &x, p)? == h {
                    return Ok(x);
                }
                break;
            }
        }
    }
    Err(CryptoError::DlogNotFound)
}

/// Computes `(a - b) mod q`.
fn sub_mod(a: &BigUint, b: &BigUint, q: &BigUint) -> Result<BigUint, CryptoError> {
    let a = a.rem(q)?;
    let b = b.rem(q)?;
    match a.checked_sub(&b) {
        Some(d) => Ok(d),
        None => q.sub(&b).add(&a).rem(q),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dh::DhGroup;
    use crate::rng::Drbg;

    #[test]
    fn bsgs_small() {
        // 2^x = 1024 mod p: x = 10.
        let p = BigUint::from_u64(1_000_003);
        let g = BigUint::from_u64(2);
        let h = mod_exp(&g, &BigUint::from_u64(10), &p).unwrap();
        assert_eq!(bsgs(&g, &h, &p, 1 << 16).unwrap(), 10);
    }

    #[test]
    fn bsgs_recovers_dh_private_key() {
        let mut rng = Drbg::new(20);
        let group = DhGroup::toy64();
        let kp = group.keypair(20, &mut rng).unwrap();
        let x = bsgs(&group.g, &kp.public, &group.p, 1 << 20).unwrap();
        assert_eq!(BigUint::from_u64(x), kp.private);
    }

    #[test]
    fn bsgs_not_found() {
        let p = BigUint::from_u64(1_000_003);
        let g = BigUint::from_u64(2);
        let h = mod_exp(&g, &BigUint::from_u64(1 << 30), &p).unwrap();
        // Bound far below the actual exponent (and the exponent is not
        // congruent to anything small).
        assert!(bsgs(&g, &h, &p, 1 << 8).is_err());
    }

    #[test]
    fn bsgs_edge_exponents() {
        let p = BigUint::from_u64(1_000_003);
        let g = BigUint::from_u64(5);
        for x in [0u64, 1, 2, 255, 256] {
            let h = mod_exp(&g, &BigUint::from_u64(x), &p).unwrap();
            assert_eq!(bsgs(&g, &h, &p, 300).unwrap(), x, "x={x}");
        }
    }

    #[test]
    fn rho_recovers_exponent() {
        let mut rng = Drbg::new(21);
        let group = DhGroup::toy_safe();
        let q = group.order.clone().unwrap();
        let secret = crate::bignum::random_below(&q, &mut rng);
        let h = mod_exp(&group.g, &secret, &group.p).unwrap();
        let x = pollard_rho(&group.g, &h, &group.p, &q, &mut rng).unwrap();
        assert_eq!(x, secret.rem(&q).unwrap());
    }

    #[test]
    fn rho_identity() {
        let mut rng = Drbg::new(22);
        let group = DhGroup::toy_safe();
        let q = group.order.clone().unwrap();
        let x = pollard_rho(&group.g, &BigUint::one(), &group.p, &q, &mut rng).unwrap();
        assert!(x.is_zero());
    }

    #[test]
    fn sub_mod_wraps() {
        let q = BigUint::from_u64(7);
        let sm = |a: u64, b: u64| {
            sub_mod(&BigUint::from_u64(a), &BigUint::from_u64(b), &q).unwrap().to_u64()
        };
        assert_eq!(sm(3, 5), Some(5));
        assert_eq!(sm(5, 3), Some(2));
    }
}
