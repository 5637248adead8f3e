//! The encryption layer, separated from the protocol per the paper's
//! recommendation (d): "Mechanisms such as random initial vectors (in
//! place of confounders), block chaining and message authentication codes
//! should be left to a separate encryption layer, whose
//! information-hiding requirements are clearly explicated."
//!
//! Three layers model the three eras:
//!
//! - [`EncLayer::V4Pcbc`] — Kerberos V4: PCBC mode, IV = the key itself
//!   (fixed and effectively public), integrity "by garbling" only.
//!   Vulnerable to block-swap message-stream modification (A8).
//! - [`EncLayer::V5Cbc`] — V5 Draft CBC with a fixed zero IV and an
//!   optional random confounder, no MAC. Retains CBC's prefix property,
//!   the lever for the inter-session chosen-plaintext attack (A7).
//! - [`EncLayer::HardenedCbc`] — the paper's recommendation: CBC with a
//!   caller-managed per-message IV, an explicit length, and a
//!   collision-proof keyed MAC over IV and plaintext.

use crate::encoding::len_u32;
use crate::error::KrbError;
use krb_crypto::checksum::{self, ChecksumType};
use krb_crypto::des::{DesKey, ScheduledKey};
use krb_crypto::modes;
use krb_crypto::rng::RandomSource;

/// The first body block of a sealed message, decrypted on its own (see
/// [`EncLayer::open_head`]).
#[derive(Clone, Copy, Debug)]
pub struct SealedHead {
    block: [u8; 8],
    /// The body bytes within `block`: past a length word, and never
    /// beyond the body's end.
    body: (usize, usize),
    /// Length of the plaintext [`EncLayer::open_into`] would return.
    pub len: usize,
}

impl SealedHead {
    /// The plaintext bytes the block holds: a prefix of what
    /// [`EncLayer::open_into`] returns.
    pub fn bytes(&self) -> &[u8] {
        self.block.get(self.body.0..self.body.1).unwrap_or(&[])
    }
}

/// Bytes a V5 plaintext of `total` bytes starts with before its body:
/// the confounder block, when there is one.
fn confounder_skip(confounder: bool, total: usize) -> Result<usize, KrbError> {
    let skip = if confounder { 8 } else { 0 };
    if total < skip {
        return Err(KrbError::Decode("V5 sealed part too short"));
    }
    Ok(skip)
}

/// Splits a hardened ciphertext into its CBC body and trailing MAC.
fn split_mac(ciphertext: &[u8]) -> Result<(&[u8], &[u8]), KrbError> {
    if ciphertext.len() < 16 {
        return Err(KrbError::Decode("hardened sealed part too short"));
    }
    Ok(ciphertext.split_at(ciphertext.len() - 16))
}

/// Ciphertext block `i` (bytes `8i..8i+8`), if the message has one.
fn block_at(ciphertext: &[u8], i: usize) -> Option<[u8; 8]> {
    ciphertext.get(8 * i..8 * i + 8).map(crate::encoding::be_array::<8>)
}

/// A sealing/opening discipline for encrypted message parts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EncLayer {
    /// V4: PCBC, IV = key, leading length word.
    V4Pcbc,
    /// V5 draft: CBC, zero IV, optional confounder, data-first layout,
    /// no integrity.
    V5Cbc {
        /// Whether to prepend a random confounder block.
        confounder: bool,
    },
    /// Hardened: CBC with explicit IV, length framing, MD4+DES MAC.
    HardenedCbc,
}

impl EncLayer {
    /// Checks the length word leading a V4 or hardened plaintext of
    /// `total` bytes (word included) and returns the body length it
    /// frames.
    fn framed_len(self, word: Option<&[u8]>, total: usize) -> Result<usize, KrbError> {
        let (short, range) = match self {
            EncLayer::HardenedCbc => ("hardened sealed part too short", "hardened length out of range"),
            _ => ("V4 sealed part too short", "V4 length field out of range"),
        };
        let Some(word) = word else { return Err(KrbError::Decode(short)) };
        let len = u32::from_be_bytes(crate::encoding::be_array::<4>(word)) as usize;
        if 4 + len > total {
            return Err(KrbError::Decode(range));
        }
        Ok(len)
    }

    /// Whether tampering with a sealed message is detected by
    /// [`EncLayer::open`].
    pub fn provides_integrity(self) -> bool {
        matches!(self, EncLayer::HardenedCbc)
    }

    /// Whether a block-aligned ciphertext prefix decrypts to a plaintext
    /// prefix (the chosen-plaintext splice lever).
    pub fn has_prefix_property(self) -> bool {
        matches!(self, EncLayer::V5Cbc { .. })
    }

    /// Seals `plaintext` under `key`. `iv` is honored only by the
    /// hardened layer; V4 uses the key as IV and V5 uses zero — both
    /// historical choices the paper criticizes.
    ///
    /// Expands `key`'s schedule for this call; callers that already
    /// hold a [`ScheduledKey`] should call [`EncLayer::seal_with`].
    pub fn seal(
        self,
        key: &DesKey,
        iv: u64,
        plaintext: &[u8],
        rng: &mut dyn RandomSource,
    ) -> Result<Vec<u8>, KrbError> {
        self.seal_with(&ScheduledKey::new(*key), iv, plaintext, rng)
    }

    /// Seals `plaintext` with a precomputed schedule: one buffer is
    /// framed, padded, and encrypted in place. Byte-identical to
    /// [`EncLayer::seal`].
    pub fn seal_with(
        self,
        key: &ScheduledKey,
        iv: u64,
        plaintext: &[u8],
        rng: &mut dyn RandomSource,
    ) -> Result<Vec<u8>, KrbError> {
        match self {
            EncLayer::V4Pcbc => {
                let mut buf = Vec::with_capacity(plaintext.len() + 12);
                buf.extend_from_slice(&len_u32(plaintext.len()).to_be_bytes());
                buf.extend_from_slice(plaintext);
                buf.resize(buf.len().next_multiple_of(8), 0);
                modes::pcbc_encrypt_in_place(key.schedule(), key.key().to_u64(), &mut buf)?;
                Ok(buf)
            }
            EncLayer::V5Cbc { confounder } => {
                let mut buf = Vec::with_capacity(plaintext.len() + 16);
                if confounder {
                    buf.extend_from_slice(&rng.next_u64().to_be_bytes());
                }
                buf.extend_from_slice(plaintext);
                buf.resize(buf.len().next_multiple_of(8), 0);
                modes::cbc_encrypt_in_place(key.schedule(), 0, &mut buf)?;
                Ok(buf)
            }
            EncLayer::HardenedCbc => {
                // MAC over IV and plaintext, with a key variant, so
                // splices, truncations, and cross-IV replays all fail.
                // The buffer is laid out as IV ‖ padded plaintext so the
                // MAC input needs no second copy; the IV prefix is
                // dropped after the in-place encryption.
                let mut buf = Vec::with_capacity(plaintext.len() + 24);
                buf.extend_from_slice(&iv.to_be_bytes());
                buf.extend_from_slice(&len_u32(plaintext.len()).to_be_bytes());
                buf.extend_from_slice(plaintext);
                buf.resize(buf.len().next_multiple_of(8), 0);
                let mac = checksum::compute(ChecksumType::Md4Des, Some(key.key()), &buf)?;
                modes::cbc_encrypt_in_place(key.schedule(), iv, &mut buf[8..])?;
                buf.drain(..8);
                buf.extend_from_slice(&mac.value);
                Ok(buf)
            }
        }
    }

    /// Opens a sealed message. For the layers without integrity this
    /// returns whatever the bytes decrypt to — garbage in, garbage out,
    /// exactly as in 1991. Expands `key`'s schedule for this call, as
    /// [`EncLayer::seal`] does.
    pub fn open(self, key: &DesKey, iv: u64, ciphertext: &[u8]) -> Result<Vec<u8>, KrbError> {
        self.open_with(&ScheduledKey::new(*key), iv, ciphertext)
    }

    /// Opens a sealed message with a precomputed schedule: the
    /// ciphertext is copied once and decrypted in place.
    pub fn open_with(
        self,
        key: &ScheduledKey,
        iv: u64,
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, KrbError> {
        let mut buf = Vec::with_capacity(ciphertext.len());
        self.open_into(key, iv, ciphertext, &mut buf)?;
        Ok(buf)
    }

    /// Opens a sealed message into a caller-owned scratch buffer, which
    /// is cleared first and holds exactly the plaintext on success.
    /// Batch processors keep one buffer warm across thousands of opens
    /// instead of allocating per message; the plaintext bytes are
    /// identical to [`EncLayer::open_with`].
    pub fn open_into(
        self,
        key: &ScheduledKey,
        iv: u64,
        ciphertext: &[u8],
        buf: &mut Vec<u8>,
    ) -> Result<(), KrbError> {
        buf.clear();
        match self {
            EncLayer::V4Pcbc => {
                buf.extend_from_slice(ciphertext);
                modes::pcbc_decrypt_in_place(key.schedule(), key.key().to_u64(), buf)?;
                let len = self.framed_len(buf.get(..4), buf.len())?;
                buf.truncate(4 + len);
                buf.drain(..4);
                Ok(())
            }
            EncLayer::V5Cbc { confounder } => {
                buf.extend_from_slice(ciphertext);
                modes::cbc_decrypt_in_place(key.schedule(), 0, buf)?;
                let skip = confounder_skip(confounder, buf.len())?;
                // No integrity, no framing: the caller parses from the
                // front and tolerates trailing padding.
                buf.drain(..skip);
                Ok(())
            }
            EncLayer::HardenedCbc => {
                let (ct, mac_bytes) = split_mac(ciphertext)?;
                // Decrypt into an IV-prefixed buffer so the MAC input is
                // already contiguous.
                buf.extend_from_slice(&iv.to_be_bytes());
                buf.extend_from_slice(ct);
                modes::cbc_decrypt_in_place(key.schedule(), iv, &mut buf[8..])?;
                // Recompute and compare in place rather than building a
                // `Checksum` around a copied MAC: the comparison is the
                // same constant-time one `checksum::verify` uses, minus
                // the per-open `to_vec`.
                let recomputed = checksum::compute(ChecksumType::Md4Des, Some(key.key()), buf)
                    .map_err(|_| KrbError::IntegrityFailure)?;
                if !recomputed.value.ct_eq(mac_bytes) {
                    return Err(KrbError::IntegrityFailure);
                }
                let len = self.framed_len(buf.get(8..12), buf.len() - 8)?;
                buf.truncate(12 + len);
                buf.drain(..12);
                Ok(())
            }
        }
    }

    /// Decrypts only the first ciphertext block that holds message body
    /// and applies each check of [`EncLayer::open_into`] whose bytes that
    /// block holds: the V4 and hardened length words, the V5 confounder
    /// skip (the body's first block chains on the confounder's
    /// ciphertext). An error means `open_into` fails on the same input;
    /// the hardened MAC, which needs every block, is left to it. A
    /// password guess costs one block here instead of the whole message.
    pub fn open_head(
        self,
        key: &ScheduledKey,
        iv: u64,
        ciphertext: &[u8],
    ) -> Result<SealedHead, KrbError> {
        let decrypt = |mut block: [u8; 8], chain: u64| -> Result<[u8; 8], KrbError> {
            modes::cbc_decrypt_in_place(key.schedule(), chain, &mut block)?;
            Ok(block)
        };
        match self {
            EncLayer::V4Pcbc | EncLayer::HardenedCbc => {
                // PCBC's first block decrypts as CBC's does, chained on
                // the IV (V4's is the key itself).
                let (ct, chain) = match self {
                    EncLayer::V4Pcbc => (ciphertext, key.key().to_u64()),
                    _ => (split_mac(ciphertext)?.0, iv),
                };
                let block = block_at(ct, 0).map(|b| decrypt(b, chain)).transpose()?;
                let len = self.framed_len(block.as_ref().map(|b| &b[..4]), ct.len())?;
                Ok(SealedHead { block: block.unwrap_or_default(), body: (4, 4 + len.min(4)), len })
            }
            EncLayer::V5Cbc { confounder } => {
                let skip = confounder_skip(confounder, ciphertext.len())?;
                let chain = block_at(ciphertext, 0).filter(|_| skip > 0).map_or(0, u64::from_be_bytes);
                let block = block_at(ciphertext, skip / 8).map(|b| decrypt(b, chain)).transpose()?;
                Ok(SealedHead {
                    block: block.unwrap_or_default(),
                    body: (0, if block.is_some() { 8 } else { 0 }),
                    len: ciphertext.len() - skip,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krb_crypto::rng::Drbg;

    fn key() -> DesKey {
        DesKey::from_u64(0x0123456789ABCDEF).with_odd_parity()
    }

    #[test]
    fn all_layers_roundtrip() {
        let mut rng = Drbg::new(1);
        for layer in [
            EncLayer::V4Pcbc,
            EncLayer::V5Cbc { confounder: false },
            EncLayer::V5Cbc { confounder: true },
            EncLayer::HardenedCbc,
        ] {
            for msg in [&b""[..], b"x", b"a ticket-sized message of some length........"] {
                let ct = layer.seal(&key(), 42, msg, &mut rng).unwrap();
                let pt = layer.open(&key(), 42, &ct).unwrap();
                // V5Cbc returns trailing padding; compare prefixes.
                assert!(pt.starts_with(msg), "layer {layer:?}");
            }
        }
    }

    #[test]
    fn v4_strips_padding_exactly() {
        let mut rng = Drbg::new(2);
        let msg = b"odd-length payload!";
        let ct = EncLayer::V4Pcbc.seal(&key(), 0, msg, &mut rng).unwrap();
        assert_eq!(EncLayer::V4Pcbc.open(&key(), 0, &ct).unwrap(), msg);
    }

    #[test]
    fn hardened_detects_any_bit_flip() {
        let mut rng = Drbg::new(3);
        let msg = b"KRB_PRIV: transfer $100 to account 7";
        let ct = EncLayer::HardenedCbc.seal(&key(), 7, msg, &mut rng).unwrap();
        for i in 0..ct.len() {
            let mut t = ct.clone();
            t[i] ^= 0x01;
            assert!(EncLayer::HardenedCbc.open(&key(), 7, &t).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn hardened_binds_iv() {
        // Replaying a sealed message under a different session IV fails:
        // the cross-stream replay defense.
        let mut rng = Drbg::new(4);
        let ct = EncLayer::HardenedCbc.seal(&key(), 1, b"message", &mut rng).unwrap();
        assert!(EncLayer::HardenedCbc.open(&key(), 1, &ct).is_ok());
        assert!(EncLayer::HardenedCbc.open(&key(), 2, &ct).is_err());
    }

    #[test]
    fn v5_prefix_splice_succeeds() {
        // The A7 lever in miniature: a block-aligned prefix of a sealed
        // V5 message opens cleanly as a shorter message.
        let mut rng = Drbg::new(5);
        let layer = EncLayer::V5Cbc { confounder: false };
        let msg = b"AUTHENTICATORCHKSUMremainder-the-attacker-wants-dropped";
        let ct = layer.seal(&key(), 0, msg, &mut rng).unwrap();
        let prefix_ct = &ct[..24];
        let pt = layer.open(&key(), 0, prefix_ct).unwrap();
        assert_eq!(&pt[..], &msg[..24]);
        assert!(layer.has_prefix_property());
    }

    #[test]
    fn v4_leading_length_disrupts_prefix_splice() {
        // The paper notes V4's leading length field breaks the simple
        // prefix attack: a truncated ciphertext decrypts to a length
        // that no longer fits (PCBC also garbles, but the length check
        // alone suffices here).
        let mut rng = Drbg::new(6);
        let msg = b"AUTHENTICATORCHKSUMremainder-the-attacker-wants-dropped";
        let ct = EncLayer::V4Pcbc.seal(&key(), 0, msg, &mut rng).unwrap();
        let prefix_ct = &ct[..24];
        assert!(EncLayer::V4Pcbc.open(&key(), 0, prefix_ct).is_err());
    }

    #[test]
    fn v4_block_swap_undetected() {
        // A8: PCBC "integrity" misses a block swap in the middle of a
        // long message — open() succeeds and returns modified data.
        let mut rng = Drbg::new(7);
        let msg = vec![b'M'; 64];
        let mut ct = EncLayer::V4Pcbc.seal(&key(), 0, &msg, &mut rng).unwrap();
        // Swap blocks 3 and 4 (well past the length word, well before
        // the end).
        let (a, b) = (24usize, 32usize);
        let tmp: Vec<u8> = ct[a..a + 8].to_vec();
        let tmp2: Vec<u8> = ct[b..b + 8].to_vec();
        ct[a..a + 8].copy_from_slice(&tmp2);
        ct[b..b + 8].copy_from_slice(&tmp);
        let opened = EncLayer::V4Pcbc.open(&key(), 0, &ct).unwrap();
        assert_ne!(opened, msg, "modification went through undetected");
    }

    #[test]
    fn confounder_randomizes_equal_messages() {
        let mut rng = Drbg::new(8);
        let layer = EncLayer::V5Cbc { confounder: true };
        let a = layer.seal(&key(), 0, b"same", &mut rng).unwrap();
        let b = layer.seal(&key(), 0, b"same", &mut rng).unwrap();
        assert_ne!(a, b);
        // Without the confounder (and with the fixed IV), equal
        // plaintexts leak equality — the reason confounders existed.
        let bare = EncLayer::V5Cbc { confounder: false };
        let c = bare.seal(&key(), 0, b"same", &mut rng).unwrap();
        let d = bare.seal(&key(), 0, b"same", &mut rng).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn open_wrong_key_fails_or_garbles() {
        let mut rng = Drbg::new(9);
        let other = DesKey::from_u64(0x1111111111111111).with_odd_parity();
        let msg = b"sensitive";
        let ct = EncLayer::HardenedCbc.seal(&key(), 3, msg, &mut rng).unwrap();
        assert!(EncLayer::HardenedCbc.open(&other, 3, &ct).is_err());
    }

    #[test]
    fn scheduled_and_cached_paths_agree() {
        let sk = ScheduledKey::new(key());
        for layer in [
            EncLayer::V4Pcbc,
            EncLayer::V5Cbc { confounder: false },
            EncLayer::V5Cbc { confounder: true },
            EncLayer::HardenedCbc,
        ] {
            let msg = b"the scheduled path must be byte-identical";
            let mut rng1 = Drbg::new(77);
            let mut rng2 = Drbg::new(77);
            let a = layer.seal(&key(), 9, msg, &mut rng1).unwrap();
            let b = layer.seal_with(&sk, 9, msg, &mut rng2).unwrap();
            assert_eq!(a, b, "layer {layer:?}");
            let pa = layer.open(&key(), 9, &a).unwrap();
            let pb = layer.open_with(&sk, 9, &b).unwrap();
            assert_eq!(pa, pb, "layer {layer:?}");
            assert!(pa.starts_with(msg));
        }
    }

    #[test]
    fn open_into_reuses_buffer_and_agrees() {
        let sk = ScheduledKey::new(key());
        let mut scratch = Vec::new();
        for layer in [
            EncLayer::V4Pcbc,
            EncLayer::V5Cbc { confounder: false },
            EncLayer::V5Cbc { confounder: true },
            EncLayer::HardenedCbc,
        ] {
            let mut rng = Drbg::new(88);
            for msg in [&b""[..], b"short", b"a longer message spanning several DES blocks...."] {
                let ct = layer.seal_with(&sk, 5, msg, &mut rng).unwrap();
                let owned = layer.open_with(&sk, 5, &ct).unwrap();
                // The same scratch buffer serves every open.
                layer.open_into(&sk, 5, &ct, &mut scratch).unwrap();
                assert_eq!(scratch, owned, "layer {layer:?}");
            }
            // Errors still surface through the scratch path.
            assert!(layer.open_into(&sk, 5, &[0u8; 3], &mut scratch).is_err());
        }
    }

    #[test]
    fn integrity_classification() {
        assert!(!EncLayer::V4Pcbc.provides_integrity());
        assert!(!EncLayer::V5Cbc { confounder: true }.provides_integrity());
        assert!(EncLayer::HardenedCbc.provides_integrity());
    }
}
