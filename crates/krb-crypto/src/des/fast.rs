//! The production DES kernel: fused SP-tables and swap-network IP/FP.
//!
//! The [`reference`](super::reference) module walks the FIPS tables one
//! bit at a time; this module precomputes the same algebra so the round
//! function is pure shifts, XORs, and eight table lookups:
//!
//! - Each S-box is merged with the P permutation into a 64-entry `u32`
//!   table `SP[i]`: `SP[i][six] = P(S_i(six) << (28 - 4*i))`. The eight
//!   lookups are OR-combined, eliminating the per-bit `P` walk.
//! - The E expansion is never materialised. Rotating `R` right by one
//!   makes the eight overlapping 6-bit groups plain bit fields: even
//!   groups of `x = R >>> 1` sit at shifts 26/18/10/2, odd groups at the
//!   same shifts of `x <<< 4`. Round keys are pre-split to match (see
//!   [`split_round_key`]), so key mixing is two XORs.
//! - IP and FP are five delta-swaps each (constant-shift swap networks)
//!   instead of a 64-entry table walk. FP runs the same involutions in
//!   reverse order, so `fp(ip(x)) == x` by construction.
//!
//! - One round loop serves `N` lanes: [`encrypt_blocks`] and
//!   [`decrypt_blocks`] step `N` independent blocks, each under its own
//!   schedule, through every round together, so their table-load
//!   latencies overlap. [`encrypt_block`] and [`decrypt_block`] are its
//!   one-lane instance.
//!
//! All tables are `const`-built from the FIPS tables in
//! [`tables`](super::tables) — a single source of truth — and the
//! differential proptests in `tests/des_kat.rs` pin this kernel
//! bit-exactly to the reference implementation.

use super::tables::{P, SBOXES};
use super::KeySchedule;

/// S-box `i` fused with the P permutation, indexed by the 6-bit group.
static SP: [[u32; 64]; 8] = build_sp();

const fn sp_entry(i: usize, six: usize) -> u32 {
    // Row is the outer two bits, column the inner four (FIPS 46-3).
    let row = ((six & 0x20) >> 4) | (six & 1);
    let col = (six >> 1) & 0xf;
    let s = SBOXES[i][row * 16 + col] as u32;
    // Place the 4-bit output at S-box i's nibble, then apply P.
    let pre = s << (28 - 4 * i);
    let mut out = 0u32;
    let mut j = 0;
    while j < 32 {
        out = (out << 1) | ((pre >> (32 - P[j] as u32)) & 1);
        j += 1;
    }
    out
}

const fn build_sp() -> [[u32; 64]; 8] {
    let mut sp = [[0u32; 64]; 8];
    let mut i = 0;
    while i < 8 {
        let mut six = 0;
        while six < 64 {
            sp[i][six] = sp_entry(i, six);
            six += 1;
        }
        i += 1;
    }
    sp
}

/// Splits a 48-bit round key into the two packed halves the round
/// function consumes: `ka` carries groups 0/2/4/6 at shifts 26/18/10/2,
/// `kb` carries groups 1/3/5/7 at the same shifts.
pub(crate) const fn split_round_key(rk: u64) -> (u32, u32) {
    const fn g(rk: u64, i: u32) -> u32 {
        ((rk >> (42 - 6 * i)) & 0x3f) as u32
    }
    let ka = (g(rk, 0) << 26) | (g(rk, 2) << 18) | (g(rk, 4) << 10) | (g(rk, 6) << 2);
    let kb = (g(rk, 1) << 26) | (g(rk, 3) << 18) | (g(rk, 5) << 10) | (g(rk, 7) << 2);
    (ka, kb)
}

/// f(R, K) with pre-split keys: 2 rotations, 2 XORs, 8 fused lookups.
#[inline(always)]
fn feistel(r: u32, (ka, kb): (u32, u32)) -> u32 {
    let x = r.rotate_right(1);
    let t = x ^ ka;
    let u = x.rotate_left(4) ^ kb;
    SP[0][(t >> 26) as usize]
        | SP[2][((t >> 18) & 0x3f) as usize]
        | SP[4][((t >> 10) & 0x3f) as usize]
        | SP[6][((t >> 2) & 0x3f) as usize]
        | SP[1][(u >> 26) as usize]
        | SP[3][((u >> 18) & 0x3f) as usize]
        | SP[5][((u >> 10) & 0x3f) as usize]
        | SP[7][((u >> 2) & 0x3f) as usize]
}

/// The initial permutation as five delta-swaps (verified against the
/// table-driven reference by `tests/des_kat.rs`).
#[inline(always)]
pub(crate) fn initial_permutation(block: u64) -> (u32, u32) {
    let mut l = (block >> 32) as u32;
    let mut r = block as u32;
    let mut t;
    t = ((l >> 4) ^ r) & 0x0f0f_0f0f;
    r ^= t;
    l ^= t << 4;
    t = ((l >> 16) ^ r) & 0x0000_ffff;
    r ^= t;
    l ^= t << 16;
    t = ((r >> 2) ^ l) & 0x3333_3333;
    l ^= t;
    r ^= t << 2;
    t = ((r >> 8) ^ l) & 0x00ff_00ff;
    l ^= t;
    r ^= t << 8;
    t = ((l >> 1) ^ r) & 0x5555_5555;
    r ^= t;
    l ^= t << 1;
    (l, r)
}

/// The final permutation: the same involutions in reverse order.
#[inline(always)]
pub(crate) fn final_permutation(mut l: u32, mut r: u32) -> u64 {
    let mut t;
    t = ((l >> 1) ^ r) & 0x5555_5555;
    r ^= t;
    l ^= t << 1;
    t = ((r >> 8) ^ l) & 0x00ff_00ff;
    l ^= t;
    r ^= t << 8;
    t = ((r >> 2) ^ l) & 0x3333_3333;
    l ^= t;
    r ^= t << 2;
    t = ((l >> 16) ^ r) & 0x0000_ffff;
    r ^= t;
    l ^= t << 16;
    t = ((l >> 4) ^ r) & 0x0f0f_0f0f;
    r ^= t;
    l ^= t << 4;
    (u64::from(l) << 32) | u64::from(r)
}

/// Runs the sixteen rounds over `N` independent blocks, each under its
/// own schedule, stepping every lane through a round before the next
/// round starts. A round waits on its predecessor's table loads, so one
/// block is latency-bound; `N` independent chains overlap those waits.
/// Decryption walks the round keys backwards.
#[inline(always)]
fn crypt_lanes<const N: usize, const DECRYPT: bool>(
    ks: [&KeySchedule; N],
    blocks: [u64; N],
) -> [u64; N] {
    let mut lr = blocks.map(initial_permutation);
    for round in 0..16 {
        let k = if DECRYPT { 15 - round } else { round };
        for (lane, (l, r)) in lr.iter_mut().enumerate() {
            let next_r = *l ^ feistel(*r, ks[lane].sp_keys()[k]);
            *l = *r;
            *r = next_r;
        }
    }
    // The final swap: the preoutput is R16 || L16.
    lr.map(|(l, r)| final_permutation(r, l))
}

/// Encrypts `N` blocks, lane `i` under `ks[i]`, in lockstep.
pub fn encrypt_blocks<const N: usize>(ks: [&KeySchedule; N], blocks: [u64; N]) -> [u64; N] {
    crypt_lanes::<N, false>(ks, blocks)
}

/// Decrypts `N` blocks, lane `i` under `ks[i]`, in lockstep.
pub fn decrypt_blocks<const N: usize>(ks: [&KeySchedule; N], blocks: [u64; N]) -> [u64; N] {
    crypt_lanes::<N, true>(ks, blocks)
}

/// Encrypts a single 64-bit block: the one-lane [`encrypt_blocks`].
pub fn encrypt_block(ks: &KeySchedule, block: u64) -> u64 {
    let [out] = encrypt_blocks([ks], [block]);
    out
}

/// Decrypts a single 64-bit block: the one-lane [`decrypt_blocks`].
pub fn decrypt_block(ks: &KeySchedule, block: u64) -> u64 {
    let [out] = decrypt_blocks([ks], [block]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::DesKey;

    #[test]
    fn matches_reference_on_worked_example() {
        let ks = DesKey::from_u64(0x133457799BBCDFF1).schedule();
        assert_eq!(encrypt_block(&ks, 0x0123456789ABCDEF), 0x85E813540F0AB405);
        assert_eq!(decrypt_block(&ks, 0x85E813540F0AB405), 0x0123456789ABCDEF);
    }

    #[test]
    fn ip_matches_table_walk() {
        for v in [0u64, u64::MAX, 0x0123456789ABCDEF, 0xFEDCBA9876543210, 1, 1 << 63] {
            let (l, r) = initial_permutation(v);
            let want = super::super::reference::permute(v, 64, &super::super::tables::IP);
            assert_eq!((u64::from(l) << 32) | u64::from(r), want, "IP({v:016X})");
        }
    }

    #[test]
    fn fp_inverts_ip() {
        for v in [0u64, u64::MAX, 0x0123456789ABCDEF, 0xA5A5A5A55A5A5A5A] {
            let (l, r) = initial_permutation(v);
            assert_eq!(final_permutation(l, r), v);
        }
    }

    #[test]
    fn split_round_key_repacks_all_48_bits() {
        let rk = 0x0000_FEDC_BA98_7654u64 & 0xFFFF_FFFF_FFFF;
        let (ka, kb) = split_round_key(rk);
        // Every key bit appears exactly once across the two halves.
        let count = (u64::from(ka) & 0xFCFC_FCFC).count_ones() + (u64::from(kb) & 0xFCFC_FCFC).count_ones();
        assert_eq!(count, rk.count_ones());
    }
}
