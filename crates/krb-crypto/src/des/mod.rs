//! A from-scratch implementation of the Data Encryption Standard
//! (FIPS 46-3).
//!
//! Kerberos V4 and V5 Draft 3 are built entirely on DES; the attacks in
//! Bellovin & Merritt exploit *mode-level* structure (CBC prefix splicing,
//! PCBC block-swap tolerance), so the block cipher itself must be
//! bit-exact. This implementation is validated against the classic NBS
//! known-answer vectors.
//!
//! This is a *protocol-research* implementation: table lookups are not
//! constant-time and no attempt is made to resist side channels, which are
//! outside the paper's threat model.
//!
//! Two kernels coexist: [`fast`] (fused SP-tables, swap-network IP/FP,
//! one round loop over `N` lanes — the default, re-exported here) and
//! [`reference`] (the original bit-at-a-time table walk over its own
//! bit-by-bit key schedule, kept as the equivalence oracle). They are
//! proven bit-identical by differential proptests in `tests/des_kat.rs`.

mod fast;
mod keysched;
pub mod reference;
mod tables;

pub use fast::{decrypt_block, decrypt_blocks, encrypt_block, encrypt_blocks};
pub use keysched::KeySchedule;

/// A DES key: 8 bytes, of which 56 bits are effective (bit 0 of each byte
/// is an odd-parity bit).
// The manual PartialEq is constant-time byte equality — the same
// relation the derived Hash hashes over, so Hash/Eq stay consistent.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Copy, Hash)]
pub struct DesKey(pub [u8; 8]);

impl core::fmt::Debug for DesKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material in debug output.
        write!(f, "DesKey(****************)")
    }
}

impl PartialEq for DesKey {
    fn eq(&self, other: &Self) -> bool {
        crate::ct::ct_eq(&self.0, &other.0)
    }
}

impl Eq for DesKey {}

impl DesKey {
    /// Constant-time equality; `==` on `DesKey` routes here too.
    pub fn ct_eq(&self, other: &DesKey) -> bool {
        crate::ct::ct_eq(&self.0, &other.0)
    }
}

impl DesKey {
    /// Builds a key from raw bytes without adjusting parity.
    pub fn from_bytes(bytes: [u8; 8]) -> Self {
        DesKey(bytes)
    }

    /// Builds a key from a u64 (big-endian byte order, as in the FIPS
    /// test vectors).
    pub fn from_u64(v: u64) -> Self {
        DesKey(v.to_be_bytes())
    }

    /// Returns the key as a big-endian u64.
    pub fn to_u64(self) -> u64 {
        u64::from_be_bytes(self.0)
    }

    /// Forces odd parity on every byte, as FIPS 46 requires.
    pub fn with_odd_parity(mut self) -> Self {
        for b in &mut self.0 {
            let ones = (*b >> 1).count_ones();
            *b = (*b & 0xfe) | u8::from(ones % 2 == 0);
        }
        self
    }

    /// Reports whether every byte has odd parity.
    pub fn has_odd_parity(&self) -> bool {
        self.0.iter().all(|b| b.count_ones() % 2 == 1)
    }

    /// Reports whether this is one of the four weak keys, for which
    /// encryption is its own inverse.
    pub fn is_weak(&self) -> bool {
        const WEAK: [u64; 4] = [
            0x0101010101010101,
            0xfefefefefefefefe,
            0xe0e0e0e0f1f1f1f1,
            0x1f1f1f1f0e0e0e0e,
        ];
        WEAK.contains(&self.to_u64())
    }

    /// Reports whether this is one of the twelve semi-weak keys, which
    /// pair up so that E_k1(E_k2(x)) = x.
    pub fn is_semi_weak(&self) -> bool {
        const SEMI: [u64; 12] = [
            0x01fe01fe01fe01fe,
            0xfe01fe01fe01fe01,
            0x1fe01fe00ef10ef1,
            0xe01fe01ff10ef10e,
            0x01e001e001f101f1,
            0xe001e001f101f101,
            0x1ffe1ffe0efe0efe,
            0xfe1ffe1ffe0efe0e,
            0x011f011f010e010e,
            0x1f011f010e010e01,
            0xe0fee0fef1fef1fe,
            0xfee0fee0fef1fef1,
        ];
        SEMI.contains(&self.to_u64())
    }

    /// Expands the key into the sixteen round keys.
    pub fn schedule(&self) -> KeySchedule {
        KeySchedule::new(self)
    }

    /// XORs a mask into the key, preserving nothing about parity. Used by
    /// protocol variants that derive related keys (e.g. key-usage
    /// separation in the hardened encryption layer).
    pub fn xored(self, mask: u64) -> Self {
        DesKey::from_u64(self.to_u64() ^ mask)
    }

    /// Encrypts one 8-byte block in ECB mode, expanding the schedule
    /// for this call. Callers encrypting many blocks under one key
    /// should hold a [`ScheduledKey`] instead.
    pub fn encrypt_block(&self, block: u64) -> u64 {
        encrypt_block(&self.schedule(), block)
    }

    /// Decrypts one 8-byte block in ECB mode, expanding the schedule
    /// for this call.
    pub fn decrypt_block(&self, block: u64) -> u64 {
        decrypt_block(&self.schedule(), block)
    }
}

/// A DES key bundled with its expanded schedule — the handle hot paths
/// hold so the schedule is computed exactly once per key.
#[derive(Clone)]
pub struct ScheduledKey {
    key: DesKey,
    sched: KeySchedule,
}

impl ScheduledKey {
    /// Expands `key` once.
    pub fn new(key: DesKey) -> Self {
        ScheduledKey { sched: KeySchedule::new(&key), key }
    }

    /// The raw key.
    pub fn key(&self) -> &DesKey {
        &self.key
    }

    /// The expanded schedule.
    pub fn schedule(&self) -> &KeySchedule {
        &self.sched
    }

    /// Encrypts one block without rescheduling.
    pub fn encrypt_block(&self, block: u64) -> u64 {
        encrypt_block(&self.sched, block)
    }

    /// Decrypts one block without rescheduling.
    pub fn decrypt_block(&self, block: u64) -> u64 {
        decrypt_block(&self.sched, block)
    }
}

impl From<DesKey> for ScheduledKey {
    fn from(key: DesKey) -> Self {
        ScheduledKey::new(key)
    }
}

impl core::fmt::Debug for ScheduledKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ScheduledKey(****************)")
    }
}

pub(crate) use tables::{E, FP, IP, P, SBOXES};

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic worked example from the FIPS validation literature.
    #[test]
    fn fips_worked_example() {
        let key = DesKey::from_u64(0x133457799BBCDFF1);
        let ks = key.schedule();
        let ct = encrypt_block(&ks, 0x0123456789ABCDEF);
        assert_eq!(ct, 0x85E813540F0AB405);
        assert_eq!(decrypt_block(&ks, ct), 0x0123456789ABCDEF);
    }

    /// NBS variable-plaintext known-answer test, first entry.
    #[test]
    fn nbs_variable_plaintext() {
        let key = DesKey::from_u64(0x0101010101010101);
        let ks = key.schedule();
        assert_eq!(encrypt_block(&ks, 0x8000000000000000), 0x95F8A5E5DD31D900);
        assert_eq!(encrypt_block(&ks, 0x4000000000000000), 0xDD7F121CA5015619);
        assert_eq!(encrypt_block(&ks, 0x2000000000000000), 0x2E8653104F3834EA);
        assert_eq!(encrypt_block(&ks, 0x0000000000000001), 0x166B40B44ABA4BD6);
    }

    /// NBS variable-key known-answer test, first entries.
    #[test]
    fn nbs_variable_key() {
        let pt = 0u64;
        let cases: [(u64, u64); 3] = [
            (0x8001010101010101, 0x95A8D72813DAA94D),
            (0x4001010101010101, 0x0EEC1487DD8C26D5),
            (0x2001010101010101, 0x7AD16FFB79C45926),
        ];
        for (k, ct) in cases {
            let ks = DesKey::from_u64(k).schedule();
            assert_eq!(encrypt_block(&ks, pt), ct, "key {k:016X}");
        }
    }

    /// A sample of the Schneier/NBS round-trip vectors.
    #[test]
    fn nbs_sample_pairs() {
        let cases: [(u64, u64, u64); 4] = [
            (0x7CA110454A1A6E57, 0x01A1D6D039776742, 0x690F5B0D9A26939B),
            (0x0131D9619DC1376E, 0x5CD54CA83DEF57DA, 0x7A389D10354BD271),
            (0x07A1133E4A0B2686, 0x0248D43806F67172, 0x868EBB51CAB4599A),
            (0x3849674C2602319E, 0x51454B582DDF440A, 0x7178876E01F19B2A),
        ];
        for (k, pt, ct) in cases {
            let ks = DesKey::from_u64(k).schedule();
            assert_eq!(encrypt_block(&ks, pt), ct, "key {k:016X}");
            assert_eq!(decrypt_block(&ks, ct), pt, "key {k:016X}");
        }
    }

    #[test]
    fn weak_keys_are_self_inverse() {
        for k in [
            0x0101010101010101u64,
            0xfefefefefefefefe,
            0xe0e0e0e0f1f1f1f1,
            0x1f1f1f1f0e0e0e0e,
        ] {
            let key = DesKey::from_u64(k);
            assert!(key.is_weak());
            let ks = key.schedule();
            let pt = 0x0123456789ABCDEF;
            assert_eq!(encrypt_block(&ks, encrypt_block(&ks, pt)), pt);
        }
    }

    #[test]
    fn parity_adjustment() {
        let key = DesKey::from_bytes([0, 1, 2, 3, 4, 5, 6, 7]).with_odd_parity();
        assert!(key.has_odd_parity());
        // Parity only touches bit 0 of each byte.
        for (orig, adj) in [0u8, 1, 2, 3, 4, 5, 6, 7].iter().zip(key.0.iter()) {
            assert_eq!(orig & 0xfe, adj & 0xfe);
        }
    }

    #[test]
    fn semi_weak_pairs_invert_each_other() {
        let k1 = DesKey::from_u64(0x01fe01fe01fe01fe);
        let k2 = DesKey::from_u64(0xfe01fe01fe01fe01);
        assert!(k1.is_semi_weak() && k2.is_semi_weak());
        let pt = 0xDEADBEEFCAFEF00D;
        assert_eq!(k2.decrypt_block(k1.decrypt_block(k2.encrypt_block(k1.encrypt_block(pt)))), pt);
        // The defining property: encryption under one is decryption under
        // the other.
        assert_eq!(k2.encrypt_block(k1.encrypt_block(pt)), pt);
    }

    #[test]
    fn complementation_property() {
        // DES satisfies E_{~k}(~p) = ~E_k(p).
        let k = DesKey::from_u64(0x133457799BBCDFF1);
        let kc = DesKey::from_u64(!k.to_u64());
        let pt = 0x0123456789ABCDEF;
        assert_eq!(kc.encrypt_block(!pt), !k.encrypt_block(pt));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let key = DesKey::from_u64(0x133457799BBCDFF1);
        let s = format!("{key:?}");
        assert!(!s.contains("1334"));
    }
}
