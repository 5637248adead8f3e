//! Statistical sanity checks on the DES implementation: bijectivity and
//! avalanche. These catch gross implementation errors (dropped rounds,
//! table transpositions) that individual known-answer vectors might
//! miss, without relying on memorized constants.

use krb_crypto::des::DesKey;
use krb_crypto::rng::{Drbg, RandomSource};

#[test]
fn encryption_is_injective_on_samples() {
    let mut rng = Drbg::new(1);
    let key = rng.gen_des_key();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..2000 {
        let pt = rng.next_u64();
        let ct = key.encrypt_block(pt);
        assert!(seen.insert(ct) || key.decrypt_block(ct) == pt);
    }
    // 2000 distinct random plaintexts -> 2000 distinct ciphertexts
    // (collisions would break decryption, checked above anyway).
    assert!(seen.len() >= 1990);
}

#[test]
fn plaintext_avalanche_is_near_half() {
    let mut rng = Drbg::new(2);
    let key = rng.gen_des_key();
    let mut total = 0u64;
    let mut count = 0u64;
    for _ in 0..200 {
        let pt = rng.next_u64();
        let ct = key.encrypt_block(pt);
        let bit = 1u64 << rng.next_below(64);
        let ct2 = key.encrypt_block(pt ^ bit);
        total += u64::from((ct ^ ct2).count_ones());
        count += 1;
    }
    let avg = total as f64 / count as f64;
    // One flipped input bit should flip ~32 output bits on average.
    assert!((24.0..40.0).contains(&avg), "plaintext avalanche avg {avg}");
}

#[test]
fn key_avalanche_is_near_half() {
    let mut rng = Drbg::new(3);
    let mut total = 0u64;
    let mut count = 0u64;
    for _ in 0..200 {
        let k = rng.next_u64();
        let pt = rng.next_u64();
        let key = DesKey::from_u64(k);
        // Flip a non-parity key bit (bit positions 1..8 within each
        // byte carry key material).
        let byte = rng.next_below(8);
        let bit_in_byte = 1 + rng.next_below(7);
        let flipped = DesKey::from_u64(k ^ (1u64 << (byte * 8 + bit_in_byte)));
        let d = key.encrypt_block(pt) ^ flipped.encrypt_block(pt);
        total += u64::from(d.count_ones());
        count += 1;
    }
    let avg = total as f64 / count as f64;
    assert!((24.0..40.0).contains(&avg), "key avalanche avg {avg}");
}

#[test]
fn parity_bits_do_not_affect_encryption() {
    // Bit 0 of each key byte is parity only: flipping it must not
    // change the cipher function.
    let mut rng = Drbg::new(4);
    for _ in 0..50 {
        let k = rng.next_u64();
        let pt = rng.next_u64();
        let a = DesKey::from_u64(k).encrypt_block(pt);
        let b = DesKey::from_u64(k ^ 0x0101_0101_0101_0101).encrypt_block(pt);
        assert_eq!(a, b);
    }
}

#[test]
fn ciphertext_bits_are_unbiased() {
    // Over many random (key, plaintext) pairs, each ciphertext bit
    // should be ~50% ones.
    let mut rng = Drbg::new(5);
    let mut ones = [0u32; 64];
    let n = 2000;
    for _ in 0..n {
        let key = DesKey::from_u64(rng.next_u64());
        let ct = key.encrypt_block(rng.next_u64());
        for (i, o) in ones.iter_mut().enumerate() {
            *o += ((ct >> i) & 1) as u32;
        }
    }
    for (i, &o) in ones.iter().enumerate() {
        let frac = f64::from(o) / n as f64;
        assert!((0.40..0.60).contains(&frac), "bit {i} biased: {frac}");
    }
}
