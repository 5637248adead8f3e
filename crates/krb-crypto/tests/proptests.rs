//! Property-based tests over the crypto substrate's core invariants.
//!
//! Runs on `testkit::prop` — deterministic and hermetic. Replay any
//! failure with the printed `TESTKIT_SEED`.

use krb_crypto::bignum::{mod_exp, mod_exp_reference, mod_inverse, BigUint};
use krb_crypto::crc32::{crc32, forge_suffix};
use krb_crypto::des::DesKey;
use krb_crypto::md4::md4;
use krb_crypto::modes;
use krb_crypto::s2k::{string_to_key_v4, string_to_key_v5, Deriver};
use testkit::prelude::*;

fn arb_key() -> impl Strategy<Value = DesKey> {
    any::<u64>().prop_map(|v| DesKey::from_u64(v).with_odd_parity())
}

/// Up to ten blocks: past two of the mode drivers' four-block groups.
fn arb_blocks() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(any::<u8>(), 0..80).prop_map(|v| {
        let mut v = v;
        v.resize(v.len().div_ceil(8) * 8, 0);
        v
    })
}

testkit::prop! {
    fn des_block_roundtrip(k in any::<u64>(), pt in any::<u64>()) {
        let key = DesKey::from_u64(k);
        prop_assert_eq!(key.decrypt_block(key.encrypt_block(pt)), pt);
    }

    fn des_complementation(k in any::<u64>(), pt in any::<u64>()) {
        let key = DesKey::from_u64(k);
        let comp = DesKey::from_u64(!k);
        prop_assert_eq!(comp.encrypt_block(!pt), !key.encrypt_block(pt));
    }

    fn ecb_roundtrip(key in arb_key(), data in arb_blocks()) {
        let ct = modes::ecb_encrypt(&key, &data).unwrap();
        prop_assert_eq!(modes::ecb_decrypt(&key, &ct).unwrap(), data);
    }

    fn cbc_roundtrip(key in arb_key(), iv in any::<u64>(), data in arb_blocks()) {
        let ct = modes::cbc_encrypt(&key, iv, &data).unwrap();
        prop_assert_eq!(modes::cbc_decrypt(&key, iv, &ct).unwrap(), data);
    }

    fn pcbc_roundtrip(key in arb_key(), iv in any::<u64>(), data in arb_blocks()) {
        let ct = modes::pcbc_encrypt(&key, iv, &data).unwrap();
        prop_assert_eq!(modes::pcbc_decrypt(&key, iv, &ct).unwrap(), data);
    }

    /// CBC prefix property: any block-aligned ciphertext prefix decrypts
    /// to the corresponding plaintext prefix.
    fn cbc_prefix_property(key in arb_key(), iv in any::<u64>(), data in arb_blocks(), cut in 0usize..4) {
        let ct = modes::cbc_encrypt(&key, iv, &data).unwrap();
        let cut = (cut * 8).min(ct.len());
        let pt = modes::cbc_decrypt(&key, iv, &ct[..cut]).unwrap();
        prop_assert_eq!(&pt[..], &data[..cut]);
    }

    /// PCBC swap tolerance: swapping two interior ciphertext blocks
    /// leaves every block after the swapped pair intact.
    fn pcbc_swap_suffix_intact(key in arb_key(), iv in any::<u64>(), data in arb_blocks(), at in 0usize..3) {
        let mut data = data;
        data.resize(data.len().max(40), 7); // at least 5 blocks
        let mut ct = modes::pcbc_encrypt(&key, iv, &data).unwrap();
        let a = at * 8;
        let b = a + 8;
        let (x, y) = (ct[a..a + 8].to_vec(), ct[b..b + 8].to_vec());
        ct[a..a + 8].copy_from_slice(&y);
        ct[b..b + 8].copy_from_slice(&x);
        let pt = modes::pcbc_decrypt(&key, iv, &ct).unwrap();
        prop_assert_eq!(&pt[b + 8..], &data[b + 8..]);
        prop_assert_eq!(&pt[..a], &data[..a]);
    }

    fn crc_forge_any_target(msg in collection::vec(any::<u8>(), 0..64), target in any::<u32>()) {
        let patch = forge_suffix(&msg, target);
        let mut forged = msg.clone();
        forged.extend_from_slice(&patch);
        prop_assert_eq!(crc32(&forged), target);
    }

    /// CRC-32 is affine: crc(a) ^ crc(b) ^ crc(c) == crc(a^b^c) for
    /// equal-length inputs.
    fn crc_linearity(
        a in collection::vec(any::<u8>(), 16),
        b in collection::vec(any::<u8>(), 16),
        c in collection::vec(any::<u8>(), 16),
    ) {
        let x: Vec<u8> = a.iter().zip(&b).zip(&c).map(|((p, q), r)| p ^ q ^ r).collect();
        prop_assert_eq!(crc32(&x), crc32(&a) ^ crc32(&b) ^ crc32(&c));
    }

    fn md4_injective_in_practice(a in collection::vec(any::<u8>(), 0..64), b in collection::vec(any::<u8>(), 0..64)) {
        if a != b {
            prop_assert_ne!(md4(&a), md4(&b));
        }
    }

    fn bignum_add_sub(a in any::<u64>(), b in any::<u64>()) {
        let (x, y) = (BigUint::from_u64(a), BigUint::from_u64(b));
        prop_assert_eq!(x.add(&y).sub(&y), x);
    }

    fn bignum_mul_commutes(a in any::<u128>(), b in any::<u128>()) {
        let x = BigUint::from_hex(&format!("{a:x}")).unwrap();
        let y = BigUint::from_hex(&format!("{b:x}")).unwrap();
        prop_assert_eq!(x.mul(&y), y.mul(&x));
    }

    fn bignum_distributes(a in any::<u128>(), b in any::<u128>(), c in any::<u128>()) {
        let x = BigUint::from_hex(&format!("{a:x}")).unwrap();
        let y = BigUint::from_hex(&format!("{b:x}")).unwrap();
        let z = BigUint::from_hex(&format!("{c:x}")).unwrap();
        prop_assert_eq!(x.mul(&y.add(&z)), x.mul(&y).add(&x.mul(&z)));
    }

    fn bignum_divrem_reconstructs(a in any::<u128>(), b in 1u128..) {
        let x = BigUint::from_hex(&format!("{a:x}")).unwrap();
        let y = BigUint::from_hex(&format!("{b:x}")).unwrap();
        let (q, r) = x.divrem(&y).unwrap();
        prop_assert_eq!(q.mul(&y).add(&r), x);
        prop_assert!(r < y);
    }

    fn bignum_divrem_wide(limbs_a in collection::vec(any::<u32>(), 1..12), limbs_b in collection::vec(any::<u32>(), 1..8)) {
        let x = BigUint::from_bytes_be(&limbs_a.iter().flat_map(|l| l.to_be_bytes()).collect::<Vec<_>>());
        let y = BigUint::from_bytes_be(&limbs_b.iter().flat_map(|l| l.to_be_bytes()).collect::<Vec<_>>());
        if !y.is_zero() {
            let (q, r) = x.divrem(&y).unwrap();
            prop_assert_eq!(q.mul(&y).add(&r), x.clone());
            prop_assert!(r < y);
        }
    }

    fn bignum_shift_inverse(a in any::<u128>(), s in 0usize..96) {
        let x = BigUint::from_hex(&format!("{a:x}")).unwrap();
        prop_assert_eq!(x.shl_bits(s).shr_bits(s), x);
    }

    fn bignum_hex_roundtrip(limbs in collection::vec(any::<u32>(), 0..10)) {
        let x = BigUint::from_bytes_be(&limbs.iter().flat_map(|l| l.to_be_bytes()).collect::<Vec<_>>());
        prop_assert_eq!(BigUint::from_hex(&x.to_hex()).unwrap(), x);
    }

    /// Homomorphism: g^(a+b) = g^a * g^b (mod p).
    fn mod_exp_homomorphism(a in any::<u32>(), b in any::<u32>()) {
        let p = BigUint::from_u64(1_000_003);
        let g = BigUint::from_u64(2);
        let ga = mod_exp(&g, &BigUint::from_u64(a.into()), &p).unwrap();
        let gb = mod_exp(&g, &BigUint::from_u64(b.into()), &p).unwrap();
        let gab = mod_exp(&g, &BigUint::from_u64(u64::from(a) + u64::from(b)), &p).unwrap();
        prop_assert_eq!(ga.mul(&gb).rem(&p).unwrap(), gab);
    }

    fn mod_inverse_correct(a in 1u64..1_000_003) {
        let p = BigUint::from_u64(1_000_003); // prime
        let x = BigUint::from_u64(a);
        let inv = mod_inverse(&x, &p).unwrap();
        prop_assert_eq!(x.mul(&inv).rem(&p).unwrap(), BigUint::one());
    }

    fn s2k_always_sound(pw in string::printable(0..=40)) {
        let k = string_to_key_v4(&pw);
        prop_assert!(k.has_odd_parity());
        prop_assert!(!k.is_weak());
        prop_assert!(!k.is_semi_weak());
    }

    /// s2k is sound on non-ASCII passwords too (the old regex strategy
    /// covered arbitrary printable unicode).
    fn s2k_sound_on_unicode(pw in string::of("a-z°±é漢字🦀", 0..=24)) {
        let k = string_to_key_v4(&pw);
        prop_assert!(k.has_odd_parity());
        prop_assert!(!k.is_weak());
    }

    /// The 3-lane derive (the cracker's group) and the 8-lane derive
    /// equal one-lane derives of each pair, over passwords and salts of
    /// 0–40 bytes: lanes of different block counts share a group.
    fn s2k_lanes_match_one_lane_derives(
        pws in collection::vec(string::printable(0..=40), 8),
        salts in collection::vec(string::printable(0..=40), 8),
    ) {
        let pairs: [(&str, &str); 8] =
            std::array::from_fn(|i| (pws[i].as_str(), salts[i].as_str()));
        let one = pairs.map(|(pw, salt)| string_to_key_v5(pw, salt));
        let mut d = Deriver::new();
        prop_assert_eq!(d.derive_lanes(pairs), one);
        prop_assert_eq!(d.derive_lanes([pairs[0], pairs[1], pairs[2]]), [one[0], one[1], one[2]]);
    }

    /// The same on non-ASCII input, whose byte length is not its
    /// character count.
    fn s2k_lanes_match_on_unicode(
        pws in collection::vec(string::of("a-z°±é漢字🦀", 0..=24), 3),
        salt in string::of("A-Z.°漢", 0..=12),
    ) {
        let pairs: [(&str, &str); 3] = std::array::from_fn(|i| (pws[i].as_str(), salt.as_str()));
        let one = pairs.map(|(pw, salt)| string_to_key_v5(pw, salt));
        prop_assert_eq!(Deriver::new().derive_lanes(pairs), one);
    }

    /// The Montgomery kernel agrees with the division-based reference on
    /// odd moduli of 64 to 1024 bits (top bit set), for bases 0, 1, m−1,
    /// ≥ m and arbitrary, and exponents 0, 1 and up to 1024 bits.
    fn mod_exp_matches_reference(
        bits in 64usize..=1024,
        m_bytes in collection::vec(any::<u8>(), 128),
        base_kind in 0u8..5,
        base_bytes in collection::vec(any::<u8>(), 0..=136),
        exp_kind in 0u8..4,
        exp_bytes in collection::vec(any::<u8>(), 1..=128),
    ) {
        let m = odd_modulus(bits, &m_bytes);
        let arbitrary = BigUint::from_bytes_be(&base_bytes);
        let base = match base_kind {
            0 => BigUint::zero(),
            1 => BigUint::one(),
            2 => m.sub(&BigUint::one()),
            3 => m.add(&arbitrary),
            _ => arbitrary,
        };
        let exp = match exp_kind {
            0 => BigUint::zero(),
            1 => BigUint::one(),
            _ => BigUint::from_bytes_be(&exp_bytes),
        };
        prop_assert_eq!(mod_exp(&base, &exp, &m).unwrap(), mod_exp_reference(&base, &exp, &m).unwrap());
    }
}

/// An odd modulus of exactly `bits` bits drawn from `bytes`.
fn odd_modulus(bits: usize, bytes: &[u8]) -> BigUint {
    let mut be = bytes[..bits.div_ceil(8)].to_vec();
    let excess = be.len() * 8 - bits;
    be[0] = (be[0] & (0xff >> excess)) | (0x80 >> excess);
    if let Some(low) = be.last_mut() {
        *low |= 1;
    }
    BigUint::from_bytes_be(&be)
}
