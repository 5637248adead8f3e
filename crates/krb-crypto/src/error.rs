//! Error type for the crypto substrate.

use std::fmt;

/// Errors produced by the cryptographic primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// Input whose length is not acceptable (e.g. partial DES blocks).
    BadLength {
        /// What was being processed.
        what: &'static str,
        /// The offending length.
        len: usize,
    },
    /// A hex string could not be parsed.
    BadHex,
    /// A checksum did not verify.
    ChecksumMismatch,
    /// A keyed checksum was requested without a key, or vice versa.
    KeyMismatch,
    /// A discrete logarithm was not found within the search bound.
    DlogNotFound,
    /// Division by zero in bignum arithmetic.
    DivideByZero,
    /// A key failed a policy check (weak key, bad parity).
    BadKey(&'static str),
    /// A peer's Diffie-Hellman public value lies outside [2, p−2].
    BadDhPublic,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::BadLength { what, len } => {
                write!(f, "bad length {len} for {what}")
            }
            CryptoError::BadHex => write!(f, "invalid hex string"),
            CryptoError::ChecksumMismatch => write!(f, "checksum mismatch"),
            CryptoError::KeyMismatch => write!(f, "keyed/unkeyed checksum misuse"),
            CryptoError::DlogNotFound => write!(f, "discrete log not found within bound"),
            CryptoError::DivideByZero => write!(f, "bignum division by zero"),
            CryptoError::BadKey(why) => write!(f, "bad key: {why}"),
            CryptoError::BadDhPublic => write!(f, "DH public value outside [2, p-2]"),
        }
    }
}

impl std::error::Error for CryptoError {}
