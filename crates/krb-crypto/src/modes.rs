//! DES modes of operation: ECB, CBC (FIPS 81), and the nonstandard PCBC
//! mode used by Kerberos V4.
//!
//! The mode-level structure here is load-bearing for the paper's attacks:
//!
//! - CBC has the *prefix property* — a prefix of a ciphertext is a valid
//!   encryption of the corresponding plaintext prefix (used by the
//!   inter-session chosen-plaintext attack on `KRB_PRIV`).
//! - PCBC has the *block-swap property* — exchanging two ciphertext
//!   blocks garbles only the corresponding plaintext blocks, leaving all
//!   later blocks intact (message-stream modification).
//!
//! Each mode has an `_in_place` core that transforms a caller-provided
//! buffer under a precomputed [`KeySchedule`] — the zero-allocation hot
//! path — plus a thin allocating wrapper with the historical
//! `(key, data) -> Vec<u8>` signature that expands the key's schedule
//! for that one call.
//!
//! Decryption runs [`LANES`] blocks at a time through the lane kernel
//! ([`crate::des::decrypt_blocks`]): in CBC and PCBC alike `D(C_i)`
//! needs only `C_i`, so the block-cipher calls of one message are
//! independent and only the cheap XOR unchaining is ordered. The chain
//! carries from one group into the next. Encryption cannot do this in
//! the chained modes — `C_i` feeds the next block's input — so CBC and
//! PCBC encrypt one block at a time; ECB shares the lane driver both
//! ways.

use crate::des::{decrypt_blocks, encrypt_block, encrypt_blocks, DesKey, KeySchedule};
use crate::error::CryptoError;

/// Blocks one lane-kernel call processes. A message's 1–3-block
/// remainder takes the kernel's smaller lane instances.
const LANES: usize = 4;

/// Converts an 8-byte chunk to a big-endian u64.
pub(crate) fn load_block(chunk: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(chunk);
    u64::from_be_bytes(b)
}

/// Writes a u64 as 8 big-endian bytes into `out`.
pub(crate) fn store_block(v: u64, out: &mut [u8]) {
    out.copy_from_slice(&v.to_be_bytes());
}

/// Zero-pads `data` up to a multiple of the DES block size. Kerberos V4
/// framed the true length inside the plaintext, so zero padding is what
/// the historical protocol used.
pub fn pad_zero(data: &[u8]) -> Vec<u8> {
    let mut v = data.to_vec();
    let rem = v.len() % 8;
    if rem != 0 {
        v.resize(v.len() + (8 - rem), 0);
    }
    v
}

/// Requires `data` to be a whole number of blocks.
fn check_blocks(data: &[u8]) -> Result<(), CryptoError> {
    if !data.len().is_multiple_of(8) {
        return Err(CryptoError::BadLength {
            what: "block-mode input",
            len: data.len(),
        });
    }
    Ok(())
}

/// Runs every block of `data` through the block cipher, [`LANES`] at a
/// time, and stores `finish(out, in)` for each block in order: `out` is
/// the cipher's output for the block's input `in`. `finish` carries a
/// mode's chain from block to block, across group boundaries too.
fn crypt_grouped<const DECRYPT: bool>(
    ks: &KeySchedule,
    data: &mut [u8],
    mut finish: impl FnMut(u64, u64) -> u64,
) -> Result<(), CryptoError> {
    check_blocks(data)?;
    let mut groups = data.chunks_exact_mut(8 * LANES);
    for group in &mut groups {
        crypt_group::<LANES, DECRYPT>(ks, group, &mut finish);
    }
    let rest = groups.into_remainder();
    match rest.len() / 8 {
        3 => crypt_group::<3, DECRYPT>(ks, rest, &mut finish),
        2 => crypt_group::<2, DECRYPT>(ks, rest, &mut finish),
        1 => crypt_group::<1, DECRYPT>(ks, rest, &mut finish),
        _ => {}
    }
    Ok(())
}

/// One kernel call over the `N` blocks of `group`.
#[inline(always)]
fn crypt_group<const N: usize, const DECRYPT: bool>(
    ks: &KeySchedule,
    group: &mut [u8],
    finish: &mut impl FnMut(u64, u64) -> u64,
) {
    let mut input = [0u64; N];
    for (v, chunk) in input.iter_mut().zip(group.chunks_exact(8)) {
        *v = load_block(chunk);
    }
    let out = if DECRYPT { decrypt_blocks([ks; N], input) } else { encrypt_blocks([ks; N], input) };
    for ((chunk, o), i) in group.chunks_exact_mut(8).zip(out).zip(input) {
        store_block(finish(o, i), chunk);
    }
}

/// Encrypts `data` in ECB mode in place. `data` must be a multiple of 8
/// bytes.
pub fn ecb_encrypt_in_place(ks: &KeySchedule, data: &mut [u8]) -> Result<(), CryptoError> {
    crypt_grouped::<false>(ks, data, |c, _| c)
}

/// Decrypts `data` in ECB mode in place.
pub fn ecb_decrypt_in_place(ks: &KeySchedule, data: &mut [u8]) -> Result<(), CryptoError> {
    crypt_grouped::<true>(ks, data, |p, _| p)
}

/// Encrypts `data` in CBC mode in place with the given IV.
pub fn cbc_encrypt_in_place(ks: &KeySchedule, iv: u64, data: &mut [u8]) -> Result<(), CryptoError> {
    check_blocks(data)?;
    let mut prev = iv;
    for chunk in data.chunks_exact_mut(8) {
        prev = encrypt_block(ks, load_block(chunk) ^ prev);
        store_block(prev, chunk);
    }
    Ok(())
}

/// Decrypts `data` in CBC mode in place with the given IV:
/// `P_i = D(C_i) ^ C_{i-1}`, with `C_0` the IV.
pub fn cbc_decrypt_in_place(ks: &KeySchedule, iv: u64, data: &mut [u8]) -> Result<(), CryptoError> {
    let mut prev = iv;
    crypt_grouped::<true>(ks, data, |d, c| {
        let p = d ^ prev;
        prev = c;
        p
    })
}

/// Encrypts `data` in place in Kerberos V4's PCBC (propagating CBC) mode:
/// `C_i = E(P_i ^ P_{i-1} ^ C_{i-1})` with `P_0 ^ C_0` seeded by the IV.
pub fn pcbc_encrypt_in_place(ks: &KeySchedule, iv: u64, data: &mut [u8]) -> Result<(), CryptoError> {
    check_blocks(data)?;
    let mut chain = iv;
    for chunk in data.chunks_exact_mut(8) {
        let p = load_block(chunk);
        let c = encrypt_block(ks, p ^ chain);
        store_block(c, chunk);
        chain = p ^ c;
    }
    Ok(())
}

/// Decrypts PCBC mode in place: `P_i = D(C_i) ^ P_{i-1} ^ C_{i-1}`.
pub fn pcbc_decrypt_in_place(ks: &KeySchedule, iv: u64, data: &mut [u8]) -> Result<(), CryptoError> {
    let mut chain = iv;
    crypt_grouped::<true>(ks, data, |d, c| {
        let p = d ^ chain;
        chain = p ^ c;
        p
    })
}

/// Encrypts in ECB mode. `data` must be a multiple of 8 bytes.
pub fn ecb_encrypt(key: &DesKey, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let mut out = data.to_vec();
    ecb_encrypt_in_place(&key.schedule(), &mut out)?;
    Ok(out)
}

/// Decrypts in ECB mode. `data` must be a multiple of 8 bytes.
pub fn ecb_decrypt(key: &DesKey, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let mut out = data.to_vec();
    ecb_decrypt_in_place(&key.schedule(), &mut out)?;
    Ok(out)
}

/// Encrypts in CBC mode with the given IV.
pub fn cbc_encrypt(key: &DesKey, iv: u64, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let mut out = data.to_vec();
    cbc_encrypt_in_place(&key.schedule(), iv, &mut out)?;
    Ok(out)
}

/// Decrypts in CBC mode with the given IV.
pub fn cbc_decrypt(key: &DesKey, iv: u64, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let mut out = data.to_vec();
    cbc_decrypt_in_place(&key.schedule(), iv, &mut out)?;
    Ok(out)
}

/// Encrypts in PCBC mode with the given IV.
pub fn pcbc_encrypt(key: &DesKey, iv: u64, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let mut out = data.to_vec();
    pcbc_encrypt_in_place(&key.schedule(), iv, &mut out)?;
    Ok(out)
}

/// Decrypts PCBC mode.
pub fn pcbc_decrypt(key: &DesKey, iv: u64, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let mut out = data.to_vec();
    pcbc_decrypt_in_place(&key.schedule(), iv, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> DesKey {
        DesKey::from_u64(0x0123456789ABCDEF).with_odd_parity()
    }

    #[test]
    fn ecb_roundtrip() {
        let data = b"8 bytes!8 bytes!";
        let ct = ecb_encrypt(&key(), data).unwrap();
        assert_eq!(ecb_decrypt(&key(), &ct).unwrap(), data);
    }

    #[test]
    fn ecb_leaks_equal_blocks() {
        // The motivation for chaining modes: identical plaintext blocks
        // yield identical ciphertext blocks under ECB.
        let ct = ecb_encrypt(&key(), b"samesamesamesame").unwrap();
        assert_eq!(&ct[0..8], &ct[8..16]);
    }

    #[test]
    fn cbc_roundtrip() {
        let data = pad_zero(b"The Kerberos authentication system");
        let ct = cbc_encrypt(&key(), 42, &data).unwrap();
        assert_eq!(cbc_decrypt(&key(), 42, &ct).unwrap(), data);
    }

    #[test]
    fn cbc_hides_equal_blocks() {
        let ct = cbc_encrypt(&key(), 7, b"samesamesamesame").unwrap();
        assert_ne!(&ct[0..8], &ct[8..16]);
    }

    #[test]
    fn cbc_iv_matters() {
        let data = pad_zero(b"identical plaintext");
        let a = cbc_encrypt(&key(), 1, &data).unwrap();
        let b = cbc_encrypt(&key(), 2, &data).unwrap();
        assert_ne!(a, b);
    }

    /// The CBC prefix property the chosen-plaintext attack relies on:
    /// truncating a ciphertext to k blocks yields a valid encryption of
    /// the first k plaintext blocks.
    #[test]
    fn cbc_prefix_property() {
        let data = pad_zero(b"AUTHENTICATOR...CHECKSUM+++remainder of the message");
        let ct = cbc_encrypt(&key(), 99, &data).unwrap();
        let prefix_ct = &ct[..16];
        let prefix_pt = cbc_decrypt(&key(), 99, prefix_ct).unwrap();
        assert_eq!(prefix_pt, &data[..16]);
    }

    #[test]
    fn pcbc_roundtrip() {
        let data = pad_zero(b"propagating cipher block chaining");
        let ct = pcbc_encrypt(&key(), 3, &data).unwrap();
        assert_eq!(pcbc_decrypt(&key(), 3, &ct).unwrap(), data);
    }

    /// PCBC's fatal propagation property (paper, "The Encryption
    /// Layer"): swapping ciphertext blocks i and i+1 garbles only those
    /// two plaintext blocks; every later block decrypts correctly.
    #[test]
    fn pcbc_block_swap_leaves_suffix_intact() {
        let data = pad_zero(b"0000000011111111222222223333333344444444");
        let mut ct = pcbc_encrypt(&key(), 5, &data).unwrap();
        let (a, b) = (load_block(&ct[8..16]), load_block(&ct[16..24]));
        store_block(b, &mut ct[8..16]);
        store_block(a, &mut ct[16..24]);
        let pt = pcbc_decrypt(&key(), 5, &ct).unwrap();
        // Blocks 1 and 2 are garbled...
        assert_ne!(&pt[8..24], &data[8..24]);
        // ...but block 0 and every block after the swap are intact.
        assert_eq!(&pt[..8], &data[..8]);
        assert_eq!(&pt[24..], &data[24..]);
    }

    /// CBC does NOT have the swap-tolerance property: garbling propagates
    /// only one block, so the block after the swap is also damaged — but
    /// crucially, in CBC an attacker splicing blocks garbles a bounded,
    /// predictable region, which is why a MAC is still required.
    #[test]
    fn cbc_block_swap_garbles_bounded_region() {
        let data = pad_zero(b"0000000011111111222222223333333344444444");
        let mut ct = cbc_encrypt(&key(), 5, &data).unwrap();
        let (a, b) = (load_block(&ct[8..16]), load_block(&ct[16..24]));
        store_block(b, &mut ct[8..16]);
        store_block(a, &mut ct[16..24]);
        let pt = cbc_decrypt(&key(), 5, &ct).unwrap();
        assert_eq!(&pt[..8], &data[..8]);
        assert_eq!(&pt[32..], &data[32..]);
    }

    #[test]
    fn rejects_partial_blocks() {
        assert!(ecb_encrypt(&key(), b"short").is_err());
        assert!(cbc_encrypt(&key(), 0, b"123456789").is_err());
        assert!(pcbc_decrypt(&key(), 0, &[0u8; 7]).is_err());
        let ks = key().schedule();
        assert!(cbc_encrypt_in_place(&ks, 0, &mut [0u8; 9]).is_err());
    }

    #[test]
    fn in_place_matches_allocating() {
        let ks = key().schedule();
        let data = pad_zero(b"the in-place drivers and the wrappers must agree");
        let mut buf = data.clone();
        cbc_encrypt_in_place(&ks, 11, &mut buf).unwrap();
        assert_eq!(buf, cbc_encrypt(&key(), 11, &data).unwrap());
        let mut buf = data.clone();
        pcbc_encrypt_in_place(&ks, 11, &mut buf).unwrap();
        assert_eq!(buf, pcbc_encrypt(&key(), 11, &data).unwrap());
        let mut buf = data.clone();
        ecb_encrypt_in_place(&ks, &mut buf).unwrap();
        assert_eq!(buf, ecb_encrypt(&key(), &data).unwrap());
    }

    #[test]
    fn pad_zero_behaviour() {
        assert_eq!(pad_zero(b"").len(), 0);
        assert_eq!(pad_zero(b"1").len(), 8);
        assert_eq!(pad_zero(b"12345678").len(), 8);
        assert_eq!(pad_zero(b"123456789").len(), 16);
    }
}
