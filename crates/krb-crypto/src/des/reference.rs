//! The reference DES kernel: a direct bit-at-a-time transcription of the
//! FIPS 46-3 tables.
//!
//! This was the original production kernel; its round walk is retained
//! verbatim as the equivalence oracle for the fused-table
//! [`fast`](super::fast) kernel and as the readable specification of
//! the algorithm. It builds its own round keys by walking PC-1 and PC-2
//! one bit at a time, so the differential proptests in
//! `tests/des_kat.rs` (`fast == reference` over random keys and blocks)
//! hold the fast kernel *and* its fused key schedule to an independent
//! oracle.

use super::tables::{PC1, PC2, SHIFTS};
use super::{DesKey, E, FP, IP, P, SBOXES};

/// Applies a FIPS-style permutation table to `v`, treating `v` as a
/// `width`-bit value whose bit 1 is the MSB.
pub(crate) fn permute(v: u64, width: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    for &src in table {
        out = (out << 1) | ((v >> (width - u32::from(src))) & 1);
    }
    out
}

/// The Feistel function f(R, K): expand, key-mix, substitute, permute.
fn feistel(r: u32, round_key: u64) -> u32 {
    // Expansion: 32 -> 48 bits.
    let expanded = permute(u64::from(r), 32, &E);
    let mixed = expanded ^ round_key;

    // Eight S-box lookups, 6 bits in, 4 bits out.
    let mut s_out: u32 = 0;
    for (i, sbox) in SBOXES.iter().enumerate() {
        let six = ((mixed >> (42 - 6 * i)) & 0x3f) as usize;
        // Row is the outer two bits, column the inner four.
        let row = ((six & 0x20) >> 4) | (six & 1);
        let col = (six >> 1) & 0xf;
        s_out = (s_out << 4) | u32::from(sbox[row * 16 + col]);
    }

    permute(u64::from(s_out), 32, &P) as u32
}

/// Runs the sixteen Feistel rounds over `block` with round keys taken in
/// the order produced by `keys`.
fn rounds(block: u64, keys: impl Iterator<Item = u64>) -> u64 {
    let ip = permute(block, 64, &IP);
    let mut l = (ip >> 32) as u32;
    let mut r = ip as u32;
    for rk in keys {
        let next_r = l ^ feistel(r, rk);
        l = r;
        r = next_r;
    }
    // Note the final swap: the output is R16 || L16.
    let preout = (u64::from(r) << 32) | u64::from(l);
    permute(preout, 64, &FP)
}

/// Expands `key` into the sixteen 48-bit round keys, right-aligned in
/// `u64`s, in encryption order: PC-1, the rotations, and PC-2, each
/// walked bit by bit.
pub fn round_keys(key: &DesKey) -> [u64; 16] {
    let rotl28 = |v: u64, n: u8| ((v << n) | (v >> (28 - n))) & 0x0fff_ffff;
    let cd = permute(key.to_u64(), 64, &PC1);
    let mut c = cd >> 28;
    let mut d = cd & 0x0fff_ffff;
    let mut round_keys = [0u64; 16];
    for (rk, &shift) in round_keys.iter_mut().zip(SHIFTS.iter()) {
        c = rotl28(c, shift);
        d = rotl28(d, shift);
        *rk = permute((c << 28) | d, 56, &PC2);
    }
    round_keys
}

/// Encrypts a single 64-bit block under round keys from [`round_keys`].
pub fn encrypt_block(round_keys: &[u64; 16], block: u64) -> u64 {
    rounds(block, round_keys.iter().copied())
}

/// Decrypts a single 64-bit block under round keys from [`round_keys`].
pub fn decrypt_block(round_keys: &[u64; 16], block: u64) -> u64 {
    rounds(block, round_keys.iter().rev().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::DesKey;

    #[test]
    fn permute_identity() {
        let table: Vec<u8> = (1..=64).collect();
        assert_eq!(permute(0x0123456789ABCDEF, 64, &table), 0x0123456789ABCDEF);
    }

    #[test]
    fn permute_reverse() {
        let table: Vec<u8> = (1..=64).rev().collect();
        assert_eq!(permute(1, 64, &table), 1u64 << 63);
        assert_eq!(permute(1u64 << 63, 64, &table), 1);
    }

    #[test]
    fn ip_fp_are_inverses() {
        for v in [0u64, u64::MAX, 0x0123456789ABCDEF, 0xFEDCBA9876543210] {
            assert_eq!(permute(permute(v, 64, &IP), 64, &FP), v);
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let ks = round_keys(&DesKey::from_u64(0x0E329232EA6D0D73));
        for pt in [0u64, 1, u64::MAX, 0x8787878787878787] {
            assert_eq!(decrypt_block(&ks, encrypt_block(&ks, pt)), pt);
        }
    }

    /// Known pair for key 0x0E329232EA6D0D73 ("8787878787878787" ->
    /// "0000000000000000"), widely used in teaching material.
    #[test]
    fn teaching_vector() {
        let ks = round_keys(&DesKey::from_u64(0x0E329232EA6D0D73));
        assert_eq!(encrypt_block(&ks, 0x8787878787878787), 0);
    }
}
