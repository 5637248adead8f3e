//! String-to-key: deriving a DES key from a typed password.
//!
//! "The client key Kc is derived from a non-invertible transform of the
//! user's typed password. Thus, all privileges depend ultimately on this
//! one key." The transform is *publicly known*, which is exactly what
//! makes the recorded-AS-reply dictionary attack work: a guess at the
//! password can be confirmed offline by deriving the candidate key and
//! trying it against the recorded reply.

use crate::des::{DesKey, KeySchedule};
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
    string_to_key_salted(password, "")
}

/// Derives a DES key from a password and a salt (V5 added salting with
/// the principal name to stop cross-realm precomputation).
pub fn string_to_key_v5(password: &str, salt: &str) -> DesKey {
    string_to_key_salted(password, salt)
}

fn string_to_key_salted(password: &str, salt: &str) -> DesKey {
    // One buffer serves as password‖salt and, zero-padded in place, as
    // the CBC-MAC input: this is the dictionary-attack inner loop, so it
    // must not allocate per trial beyond this single Vec.
    let mut input = Vec::with_capacity((password.len() + salt.len() + 8) & !7);
    derive_into(&mut input, password, salt)
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
        self.buf.clear();
        derive_into(&mut self.buf, password, salt)
    }
}

/// The shared core of the salted derivation: `input` arrives empty (but
/// possibly with retained capacity) and is used as the password‖salt
/// scratch buffer.
fn derive_into(input: &mut Vec<u8>, password: &str, salt: &str) -> DesKey {
    input.extend_from_slice(password.as_bytes());
    input.extend_from_slice(salt.as_bytes());
    if input.is_empty() {
        input.push(0);
    }

    let candidate = DesKey::from_bytes(fanfold(input)).with_odd_parity();

    // CBC-MAC the padded password under the candidate key, IV = candidate,
    // expanding the candidate's schedule exactly once.
    let rem = input.len() % 8;
    if rem != 0 {
        input.resize(input.len() + (8 - rem), 0);
    }
    let ks = KeySchedule::new(&candidate);
    if modes::cbc_encrypt_in_place(&ks, candidate.to_u64(), input).is_err() {
        // Unreachable: `input` was resized to a block multiple above. The
        // fanfold candidate is still a deterministic derived key.
        return candidate;
    }
    let last = &input[input.len() - 8..];
    let mut key = DesKey::from_u64(modes::load_block(last)).with_odd_parity();

    // Perturb weak and semi-weak keys, as the historical library did.
    if key.is_weak() || key.is_semi_weak() {
        key = key.xored(0xf0).with_odd_parity();
    }
    key
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

    #[test]
    fn long_passwords_fold() {
        let long = "x".repeat(1000);
        let k = string_to_key_v4(&long);
        assert!(k.has_odd_parity());
    }
}
