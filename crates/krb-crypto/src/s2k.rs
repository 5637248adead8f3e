//! String-to-key: deriving a DES key from a typed password.
//!
//! "The client key Kc is derived from a non-invertible transform of the
//! user's typed password. Thus, all privileges depend ultimately on this
//! one key." The transform is *publicly known*, which is exactly what
//! makes the recorded-AS-reply dictionary attack work: a guess at the
//! password can be confirmed offline by deriving the candidate key and
//! trying it against the recorded reply.

use crate::des::{encrypt_blocks, DesKey, KeySchedule};
use crate::modes;

/// Reverses the bits within a byte (the V4 fan-fold flips alternate
/// chunks).
fn reverse_bits(b: u8) -> u8 {
    b.reverse_bits()
}

/// Fan-folds arbitrary-length input into 8 bytes, bit-reversing alternate
/// chunks as the historical V4 algorithm did.
fn fanfold(input: &[u8]) -> [u8; 8] {
    let mut acc = [0u8; 8];
    for (chunk_idx, chunk) in input.chunks(8).enumerate() {
        if chunk_idx % 2 == 0 {
            for (i, &b) in chunk.iter().enumerate() {
                acc[i] ^= b;
            }
        } else {
            // Odd chunks are reversed end-to-end and bit-reversed.
            for (i, &b) in chunk.iter().rev().enumerate() {
                acc[i] ^= reverse_bits(b);
            }
        }
    }
    acc
}

/// Derives a DES key from a password, V4 style (no salt).
///
/// Shape of the historical algorithm: fan-fold the password into a
/// candidate key, then use that key to CBC-MAC the password itself; the
/// final block, parity-adjusted, is the key. Weak keys are perturbed.
pub fn string_to_key_v4(password: &str) -> DesKey {
    string_to_key_v5(password, "")
}

/// Derives a DES key from a password and a salt (V5 added salting with
/// the principal name to stop cross-realm precomputation).
pub fn string_to_key_v5(password: &str, salt: &str) -> DesKey {
    // A fresh deriver reserves its work buffer once, at its final size.
    Deriver::new().derive(password, salt)
}

/// Reusable derivation state: holds the single work buffer across calls
/// so bulk provisioning (millions of principals) and dictionary loops
/// pay one allocation total, not one per derivation. Output is
/// byte-identical to [`string_to_key_v5`].
#[derive(Clone, Debug, Default)]
pub struct Deriver {
    buf: Vec<u8>,
}

impl Deriver {
    /// A fresh deriver with no retained capacity.
    pub fn new() -> Self {
        Deriver::default()
    }

    /// Derives the salted V5 key for `(password, salt)`, reusing the
    /// internal buffer.
    pub fn derive(&mut self, password: &str, salt: &str) -> DesKey {
        let [key] = self.derive_lanes([(password, salt)]);
        key
    }

    /// Derives the salted V5 keys of `N` `(password, salt)` pairs at
    /// once, lane `i`'s key equal to [`Deriver::derive`] of `pairs[i]`:
    /// the one derivation core, of which `derive` is the one-lane
    /// instance. The work buffer becomes every lane's password‖salt,
    /// zero-padded to whole blocks, one lane after another.
    ///
    /// Per lane: fan-fold the unpadded input (an empty one folds as a
    /// single zero byte) into the candidate key and expand its schedule.
    /// Then every lane's CBC-MAC (IV = the candidate) steps through its
    /// blocks in one lockstep DES round loop, so a dictionary loop waits
    /// on one DES latency chain per `N` guesses; a lane with fewer blocks
    /// holds its MAC while the others finish.
    pub fn derive_lanes<const N: usize>(&mut self, pairs: [(&str, &str); N]) -> [DesKey; N] {
        let buf = &mut self.buf;
        let padded =
            pairs.map(|(password, salt)| (password.len() + salt.len()).max(1).next_multiple_of(8));
        buf.clear();
        buf.reserve(padded.iter().sum());
        let mut starts = [0; N];
        let mut candidates = [DesKey([0; 8]); N];
        for (lane, (password, salt)) in pairs.into_iter().enumerate() {
            let start = buf.len();
            buf.extend_from_slice(password.as_bytes());
            buf.extend_from_slice(salt.as_bytes());
            if buf.len() == start {
                buf.push(0);
            }
            candidates[lane] = DesKey::from_bytes(fanfold(&buf[start..])).with_odd_parity();
            buf.resize(start + padded[lane], 0);
            starts[lane] = start;
        }

        let schedules = candidates.map(|candidate| KeySchedule::new(&candidate));
        let mut macs = candidates.map(DesKey::to_u64);
        let longest = padded.iter().max().copied().unwrap_or(0);
        for at in (0..longest).step_by(8) {
            let blocks = std::array::from_fn(|lane| {
                if at < padded[lane] {
                    modes::load_block(&buf[starts[lane] + at..][..8]) ^ macs[lane]
                } else {
                    macs[lane]
                }
            });
            let out = encrypt_blocks(schedules.each_ref(), blocks);
            for (lane, mac) in macs.iter_mut().enumerate() {
                if at < padded[lane] {
                    *mac = out[lane];
                }
            }
        }

        macs.map(|mac| {
            let key = DesKey::from_u64(mac).with_odd_parity();
            // Perturb weak and semi-weak keys, as the historical library did.
            if key.is_weak() || key.is_semi_weak() {
                key.xored(0xf0).with_odd_parity()
            } else {
                key
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(string_to_key_v4("hunter2"), string_to_key_v4("hunter2"));
        assert_eq!(
            string_to_key_v5("hunter2", "ATHENA.MIT.EDUpat"),
            string_to_key_v5("hunter2", "ATHENA.MIT.EDUpat")
        );
    }

    #[test]
    fn different_passwords_different_keys() {
        assert_ne!(string_to_key_v4("hunter2"), string_to_key_v4("hunter3"));
        assert_ne!(string_to_key_v4(""), string_to_key_v4(" "));
    }

    #[test]
    fn salt_separates_realms() {
        let k1 = string_to_key_v5("hunter2", "REALM.Apat");
        let k2 = string_to_key_v5("hunter2", "REALM.Bpat");
        assert_ne!(k1, k2);
        // V4, unsalted, gives the same key everywhere — the
        // precomputation weakness V5 fixed.
        assert_eq!(string_to_key_v4("hunter2"), string_to_key_v4("hunter2"));
    }

    #[test]
    fn output_has_parity_and_strength() {
        for pw in ["", "a", "hunter2", "correct horse battery staple", "密码"] {
            let k = string_to_key_v4(pw);
            assert!(k.has_odd_parity(), "password {pw:?}");
            assert!(!k.is_weak() && !k.is_semi_weak(), "password {pw:?}");
        }
    }

    #[test]
    fn deriver_matches_one_shot_path() {
        let mut d = Deriver::new();
        for (pw, salt) in [
            ("", ""),
            ("hunter2", "ATHENA.MIT.EDUpat"),
            ("correct horse battery staple", "Rlong"),
            ("密码", "REALM.Bpat"),
        ] {
            assert_eq!(d.derive(pw, salt), string_to_key_v5(pw, salt), "({pw:?}, {salt:?})");
            // A second call with retained capacity must agree too.
            assert_eq!(d.derive(pw, salt), string_to_key_v5(pw, salt));
        }
    }

    /// Keys the derivation produced before it ran in lanes. Covers
    /// empty‖empty (one zero byte), a whole number of chunks (16 bytes),
    /// a final partial chunk at an even index (17 = 8+8+1: the odd
    /// chunk before it reverses by its full 8 bytes), a 24-byte
    /// guess‖salt, non-ASCII input and a 1,000-byte password.
    #[test]
    fn keys_match_pinned_vectors() {
        let long = "x".repeat(1000);
        for (pw, salt, want) in [
            ("", "", 0x984c4cc157b96d52u64),
            ("password", "ATHENA.M", 0xf720573bc22902c1),
            ("password1", "ATHENA.M", 0x9e314c1052d51a62),
            ("wombat7", "ATHENA.MIT.EDUsam", 0xcd62df4f9829b9ae),
            ("密码", "REALM.Bpat", 0x5d3bdfae9bd5ecdf),
            ("hunter2", "", 0xf2b65d9119b075f1),
            (&long, "ATHENA.MIT.EDUpat", 0x85f4a7b9513b1013),
            ("correct horse battery staple", "ATHENA.MIT.EDUpat", 0x5707232a45207c5e),
        ] {
            assert_eq!(string_to_key_v5(pw, salt).to_u64(), want, "({pw:.40?}, {salt:?})");
        }
    }

    /// A lane group of different lengths (so lanes finish their CBC-MACs
    /// at different blocks) derives what each lane derives alone.
    #[test]
    fn lanes_match_one_lane_derives() {
        let long = "x".repeat(1000);
        let pairs = [
            ("", ""),
            ("password1", "ATHENA.M"),
            (long.as_str(), "ATHENA.MIT.EDUpat"),
            ("密码", "REALM.Bpat"),
            ("wombat7", "ATHENA.MIT.EDUsam"),
        ];
        let mut d = Deriver::new();
        let one: Vec<DesKey> = pairs.iter().map(|&(pw, salt)| string_to_key_v5(pw, salt)).collect();
        assert_eq!(d.derive_lanes(pairs), one.as_slice());
        let [a, b, c] = d.derive_lanes([pairs[2], pairs[0], pairs[1]]);
        assert_eq!([a, b, c], [one[2], one[0], one[1]]);
    }

    #[test]
    fn long_passwords_fold() {
        let long = "x".repeat(1000);
        let k = string_to_key_v4(&long);
        assert!(k.has_odd_parity());
    }
}
