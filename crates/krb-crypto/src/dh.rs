//! Exponential key exchange (Diffie-Hellman 1976).
//!
//! "We propose the use of exponential key exchange to provide an
//! additional layer of encryption ... Such a use of exponential key
//! exchange would prevent a passive wiretapper from accumulating the
//! network equivalent of /etc/passwd." The paper also flags the cost:
//! "LaMacchia and Odlyzko have demonstrated that exchanging small numbers
//! is quite insecure, while using large ones is expensive in computation
//! time." Experiment E4 measures both sides of that trade.

use crate::bignum::{mod_exp, random_bits, BigUint};
use crate::des::DesKey;
use crate::error::CryptoError;
use crate::md4::md4;
use crate::rng::RandomSource;

/// A Diffie-Hellman group: modulus `p`, generator `g`, and (when known)
/// the prime order `q` of the subgroup generated by `g`.
#[derive(Clone, Debug)]
pub struct DhGroup {
    /// A human-readable name for tables and logs.
    pub name: &'static str,
    /// The prime modulus.
    pub p: BigUint,
    /// The generator.
    pub g: BigUint,
    /// The order of `g`, when known (used by Pollard rho).
    pub order: Option<BigUint>,
}

/// One party's DH key pair.
#[derive(Clone, Debug)]
pub struct DhKeyPair {
    /// The secret exponent.
    pub private: BigUint,
    /// `g^private mod p`.
    pub public: BigUint,
}

impl DhGroup {
    /// A 64-bit toy group: trivially breakable, for the "small numbers
    /// are quite insecure" side of E4. p = 2^64 - 59 (prime), g = 2.
    pub fn toy64() -> Self {
        DhGroup {
            name: "toy-64",
            p: BigUint::from_u64(18_446_744_073_709_551_557),
            g: BigUint::from_u64(2),
            order: None,
        }
    }

    /// A 192-bit prime field (p = 2^192 - 237, the largest 192-bit
    /// prime); the size class LaMacchia & Odlyzko showed was marginal
    /// even in 1990.
    #[expect(
        clippy::unwrap_used,
        reason = "compile-time group constant, exercised by tests; a fallback would silently weaken the group"
    )]
    pub fn small192() -> Self {
        DhGroup {
            name: "small-192",
            p: BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffff13").unwrap(),
            g: BigUint::from_u64(5),
            order: None,
        }
    }

    /// Oakley Group 1 (RFC 2409), 768-bit MODP.
    #[expect(
        clippy::expect_used,
        reason = "compile-time group constant, exercised by tests; a fallback would silently weaken the group"
    )]
    pub fn oakley768() -> Self {
        DhGroup {
            name: "oakley-768",
            p: BigUint::from_hex(
                "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
                 020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
                 4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF",
            )
            .expect("constant parses"),
            g: BigUint::from_u64(2),
            order: None,
        }
    }

    /// Oakley Group 2 (RFC 2409), 1024-bit MODP.
    #[expect(
        clippy::expect_used,
        reason = "compile-time group constant, exercised by tests; a fallback would silently weaken the group"
    )]
    pub fn oakley1024() -> Self {
        DhGroup {
            name: "oakley-1024",
            p: BigUint::from_hex(
                "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
                 020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
                 4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
                 EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
            )
            .expect("constant parses"),
            g: BigUint::from_u64(2),
            order: None,
        }
    }

    /// A small safe-prime group (p = 2q+1 with q prime) with known
    /// subgroup order, for the Pollard-rho discrete-log tests. Found by
    /// a deterministic search so the constants are correct by
    /// construction.
    #[expect(
        clippy::expect_used,
        reason = "compile-time group constant, exercised by tests; a fallback would silently weaken the group"
    )]
    pub fn toy_safe() -> Self {
        let mut g = Self::generate_safe(21, &mut crate::rng::Drbg::new(0x5afe)).expect("search terminates");
        g.name = "toy-safe";
        g
    }

    /// Deterministically searches for a safe-prime group with a
    /// `bits`-bit subgroup order q (p = 2q+1). The generator is a
    /// square, so it generates exactly the order-q subgroup.
    pub fn generate_safe(bits: usize, rng: &mut dyn RandomSource) -> Result<Self, CryptoError> {
        loop {
            let mut q = random_bits(bits, rng);
            if q.is_even() {
                q = q.add(&BigUint::one());
            }
            if !crate::bignum::miller_rabin(&q, 24, rng) {
                continue;
            }
            let p = q.mul(&BigUint::from_u64(2)).add(&BigUint::one());
            if !crate::bignum::miller_rabin(&p, 24, rng) {
                continue;
            }
            // g = 4 = 2^2 is a quadratic residue, so its order divides
            // q; q is prime and g != 1, hence ord(g) = q.
            let g = BigUint::from_u64(4);
            if mod_exp(&g, &q, &p)? != BigUint::one() {
                continue;
            }
            return Ok(DhGroup { name: "generated-safe", p, g, order: Some(q) });
        }
    }

    /// Generates a fresh key pair with a `exp_bits`-bit secret exponent.
    /// Small exponents are the efficiency temptation the paper warns
    /// about; E4 shows how cheaply they fall to BSGS.
    pub fn keypair(&self, exp_bits: usize, rng: &mut dyn RandomSource) -> Result<DhKeyPair, CryptoError> {
        let private = random_bits(exp_bits, rng);
        let public = mod_exp(&self.g, &private, &self.p)?;
        Ok(DhKeyPair { private, public })
    }

    /// Parses a peer's public value from its big-endian wire bytes. A
    /// value outside [2, p−2] is rejected: 0, 1 and p−1 (or anything
    /// congruent to them) pin the shared secret to 0, 1 or ±1, a constant
    /// an active attacker can derive and so strip the DH layer with.
    pub fn peer_public(&self, bytes: &[u8]) -> Result<BigUint, CryptoError> {
        let y = BigUint::from_bytes_be(bytes);
        if y.bit_len() < 2 || y >= self.p.sub(&BigUint::one()) {
            return Err(CryptoError::BadDhPublic);
        }
        Ok(y)
    }

    /// Computes the shared secret from the peer's public value.
    pub fn shared_secret(&self, their_public: &BigUint, my_private: &BigUint) -> Result<BigUint, CryptoError> {
        mod_exp(their_public, my_private, &self.p)
    }

    /// Derives a DES key from a shared secret (MD4 of the big-endian
    /// bytes, first 8 bytes, parity-adjusted).
    pub fn derive_key(secret: &BigUint) -> DesKey {
        let digest = md4(&secret.to_bytes_be());
        let mut k = [0u8; 8];
        k.copy_from_slice(&digest[..8]);
        let key = DesKey::from_bytes(k).with_odd_parity();
        if key.is_weak() || key.is_semi_weak() {
            key.xored(0xf0).with_odd_parity()
        } else {
            key
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::miller_rabin;
    use crate::rng::Drbg;

    #[test]
    fn exchange_agrees() {
        let mut rng = Drbg::new(11);
        for group in [DhGroup::toy64(), DhGroup::small192(), DhGroup::toy_safe()] {
            let alice = group.keypair(48, &mut rng).unwrap();
            let bob = group.keypair(48, &mut rng).unwrap();
            let s1 = group.shared_secret(&bob.public, &alice.private).unwrap();
            let s2 = group.shared_secret(&alice.public, &bob.private).unwrap();
            assert_eq!(s1, s2, "group {}", group.name);
            assert_eq!(DhGroup::derive_key(&s1), DhGroup::derive_key(&s2));
        }
    }

    #[test]
    fn oakley768_exchange() {
        let mut rng = Drbg::new(12);
        let group = DhGroup::oakley768();
        let alice = group.keypair(160, &mut rng).unwrap();
        let bob = group.keypair(160, &mut rng).unwrap();
        let s1 = group.shared_secret(&bob.public, &alice.private).unwrap();
        let s2 = group.shared_secret(&alice.public, &bob.private).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn group_primes_are_prime() {
        let mut rng = Drbg::new(13);
        assert!(miller_rabin(&DhGroup::toy64().p, 8, &mut rng));
        assert!(miller_rabin(&DhGroup::small192().p, 8, &mut rng));
        let ts = DhGroup::toy_safe();
        assert!(miller_rabin(&ts.p, 8, &mut rng));
        assert!(miller_rabin(ts.order.as_ref().unwrap(), 8, &mut rng));
    }

    #[test]
    fn toy_safe_generator_order() {
        let ts = DhGroup::toy_safe();
        let q = ts.order.clone().unwrap();
        // g^q = 1 and g != 1 implies ord(g) divides q; q prime and g != 1
        // implies ord(g) = q.
        let gq = mod_exp(&ts.g, &q, &ts.p).unwrap();
        assert_eq!(gq, BigUint::one());
        assert_ne!(ts.g, BigUint::one());
    }

    #[test]
    fn peer_public_accepts_only_2_to_p_minus_2() {
        let group = DhGroup::oakley768();
        let one = BigUint::one();
        let p_minus = |k: u64| group.p.sub(&BigUint::from_u64(k)).to_bytes_be();
        for bad in [vec![], vec![0], vec![1], p_minus(1), group.p.to_bytes_be(), one.shl_bits(800).to_bytes_be()] {
            assert_eq!(group.peer_public(&bad), Err(CryptoError::BadDhPublic), "{bad:02x?}");
        }
        for good in [vec![2], vec![0, 0, 2], p_minus(2)] {
            assert_eq!(group.peer_public(&good), Ok(BigUint::from_bytes_be(&good)));
        }
        let honest = group.keypair(160, &mut Drbg::new(15)).unwrap().public;
        assert_eq!(group.peer_public(&honest.to_bytes_be()), Ok(honest));
    }

    #[test]
    fn derived_keys_are_sound() {
        let mut rng = Drbg::new(14);
        let group = DhGroup::toy64();
        for _ in 0..20 {
            let kp = group.keypair(40, &mut rng).unwrap();
            let k = DhGroup::derive_key(&kp.public);
            assert!(k.has_odd_parity());
            assert!(!k.is_weak());
        }
    }
}
