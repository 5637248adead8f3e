//! DES key schedule: PC-1, the sixteen rotations, and PC-2.
//!
//! Both permuted choices are applied via `const`-built lookup tables
//! (one per input byte for PC-1, one per 7-bit chunk for PC-2) instead
//! of per-bit walks: expanding a key costs 8 + 16×8 table lookups. The
//! tables are derived at compile time from the FIPS `PC1`/`PC2` tables,
//! so there is a single source of truth.
//!
//! The PC-2 table is fused with the fast kernel's key split (see
//! `fast::split_round_key`): the split is a bit permutation, so it
//! distributes over the OR of table entries, and each entry already
//! holds its chunk's bits at their split positions. A round key is then
//! eight lookups, stored only in the split form the round function
//! consumes. The classic 48-bit round keys live in
//! [`reference`](super::reference), built by a per-bit walk.

use super::fast::split_round_key;
use super::tables::{PC1, PC2, SHIFTS};
use super::DesKey;

/// An expanded DES key: the sixteen round keys, each pre-split into the
/// two packed halves the fast kernel's round function consumes.
#[derive(Clone)]
pub struct KeySchedule {
    sp_keys: [(u32, u32); 16],
}

/// PC-1 contribution of each key byte: `PC1_T[byte_idx][byte]` is the
/// 56-bit C‖D value with exactly that byte's selected bits placed.
static PC1_T: [[u64; 256]; 8] = build_pc1();

/// PC-2 contribution of each 7-bit C‖D chunk, already split: the high
/// word is the chunk's share of `ka`, the low word its share of `kb`.
static PC2_T: [[u64; 128]; 8] = build_pc2();

const fn build_pc1() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut byte_idx = 0;
    while byte_idx < 8 {
        let mut v = 0;
        while v < 256 {
            let mut acc = 0u64;
            let mut j = 0;
            while j < 56 {
                let src = PC1[j] as usize; // 1..=64, MSB-first
                if (src - 1) / 8 == byte_idx {
                    let bit = ((v as u64) >> (7 - (src - 1) % 8)) & 1;
                    acc |= bit << (55 - j);
                }
                j += 1;
            }
            t[byte_idx][v] = acc;
            v += 1;
        }
        byte_idx += 1;
    }
    t
}

const fn build_pc2() -> [[u64; 128]; 8] {
    let mut t = [[0u64; 128]; 8];
    let mut chunk = 0;
    while chunk < 8 {
        let mut v = 0;
        while v < 128 {
            let mut acc = 0u64;
            let mut j = 0;
            while j < 48 {
                let src = PC2[j] as usize; // 1..=56 into C‖D, MSB-first
                if (src - 1) / 7 == chunk {
                    let bit = ((v as u64) >> (6 - (src - 1) % 7)) & 1;
                    acc |= bit << (47 - j);
                }
                j += 1;
            }
            let (ka, kb) = split_round_key(acc);
            t[chunk][v] = ((ka as u64) << 32) | kb as u64;
            v += 1;
        }
        chunk += 1;
    }
    t
}

impl KeySchedule {
    /// Expands `key` into sixteen round keys.
    pub fn new(key: &DesKey) -> Self {
        // PC-1: 64 -> 56 bits, split into C (high 28) and D (low 28).
        let mut cd: u64 = 0;
        for (i, &b) in key.0.iter().enumerate() {
            cd |= PC1_T[i][usize::from(b)];
        }
        let mut c = (cd >> 28) & 0x0fff_ffff;
        let mut d = cd & 0x0fff_ffff;

        let mut sp_keys = [(0u32, 0u32); 16];
        for (round, &shift) in SHIFTS.iter().enumerate() {
            c = rotl28(c, shift);
            d = rotl28(d, shift);
            let merged = (c << 28) | d;
            // PC-2 and the split: 56 -> 2×24 bits, one lookup per chunk.
            let mut rk: u64 = 0;
            let mut m = 0;
            while m < 8 {
                rk |= PC2_T[m][((merged >> (49 - 7 * m)) & 0x7f) as usize];
                m += 1;
            }
            sp_keys[round] = ((rk >> 32) as u32, rk as u32);
        }
        KeySchedule { sp_keys }
    }

    /// Returns the split round keys in encryption order.
    pub(crate) fn sp_keys(&self) -> &[(u32, u32); 16] {
        &self.sp_keys
    }
}

/// Rotates a 28-bit value left by `n` bits.
fn rotl28(v: u64, n: u8) -> u64 {
    debug_assert!(n == 1 || n == 2);
    ((v << n) | (v >> (28 - n))) & 0x0fff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::reference;

    /// The reference schedule's round keys, split as the fast kernel
    /// stores them.
    fn split_reference(key: &DesKey) -> [(u32, u32); 16] {
        reference::round_keys(key).map(split_round_key)
    }

    #[test]
    fn rotl28_wraps() {
        assert_eq!(rotl28(0x0800_0000, 1), 1);
        assert_eq!(rotl28(0x0C00_0000, 2), 3);
        assert_eq!(rotl28(1, 1), 2);
    }

    /// First round key from the classic worked example
    /// (key 0x133457799BBCDFF1): K1 = 000110 110000 001011 101111
    /// 111111 000111 000001 110010.
    #[test]
    fn worked_example_round_one() {
        let key = DesKey::from_u64(0x133457799BBCDFF1);
        let k1 = 0b000110_110000_001011_101111_111111_000111_000001_110010;
        assert_eq!(reference::round_keys(&key)[0], k1);
        assert_eq!(KeySchedule::new(&key).sp_keys()[0], split_round_key(k1));
    }

    /// Last round key from the same example: K16 = 110010 110011 110110
    /// 001011 000011 100001 011111 110101.
    #[test]
    fn worked_example_round_sixteen() {
        let key = DesKey::from_u64(0x133457799BBCDFF1);
        let k16 = 0b110010_110011_110110_001011_000011_100001_011111_110101;
        assert_eq!(reference::round_keys(&key)[15], k16);
        assert_eq!(KeySchedule::new(&key).sp_keys()[15], split_round_key(k16));
    }

    #[test]
    fn weak_key_has_identical_round_keys() {
        let key = DesKey::from_u64(0x0101010101010101);
        let rks = reference::round_keys(&key);
        assert!(rks.iter().all(|&rk| rk == rks[0]));
        let ks = KeySchedule::new(&key);
        assert!(ks.sp_keys().iter().all(|&sk| sk == ks.sp_keys()[0]));
    }

    /// The fused PC-1/PC-2 tables must agree with the reference's
    /// per-bit walk of the FIPS tables for every round, not just the
    /// pinned examples (`tests/des_kat.rs` extends this to random keys
    /// through the kernels).
    #[test]
    fn lookup_tables_match_bitwise_walk() {
        for k in [0x133457799BBCDFF1u64, 0, u64::MAX, 0xA55A_96E1_D00D_FEED] {
            let key = DesKey::from_u64(k);
            assert_eq!(KeySchedule::new(&key).sp_keys(), &split_reference(&key), "key {k:016X}");
        }
    }
}
