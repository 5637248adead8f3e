//! Arbitrary-precision unsigned integers, from scratch.
//!
//! The paper proposes layering "exponential key exchange" (Diffie-Hellman
//! 1976) under the login dialog, and cites LaMacchia & Odlyzko's result
//! that small moduli are insecure while large ones are computationally
//! expensive. Reproducing that trade-off (experiment E4) requires real
//! modular exponentiation and real discrete-log attacks, hence a real
//! bignum.
//!
//! Representation: little-endian `u32` limbs, normalized (no trailing
//! zero limbs; zero is the empty vector).

mod modular;
mod montgomery;
mod muldiv;

pub use modular::{miller_rabin, mod_exp, mod_exp_reference, mod_inverse, random_below, random_bits};

use crate::error::CryptoError;
use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs, most significant limb last and nonzero.
    pub(crate) limbs: Vec<u32>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint::from_u64(1)
    }

    /// Builds from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut n = BigUint { limbs: vec![v as u32, (v >> 32) as u32] };
        n.normalize();
        n
    }

    /// Returns the value as a `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u64::from(self.limbs[0])),
            2 => Some(u64::from(self.limbs[0]) | (u64::from(self.limbs[1]) << 32)),
            _ => None,
        }
    }

    /// Parses a big-endian hex string (whitespace tolerated).
    pub fn from_hex(s: &str) -> Result<Self, CryptoError> {
        let clean: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        if clean.is_empty() {
            return Err(CryptoError::BadHex);
        }
        let mut limbs = Vec::with_capacity(clean.len() / 8 + 1);
        let bytes = clean.as_bytes();
        let mut i = bytes.len();
        while i > 0 {
            let start = i.saturating_sub(8);
            let chunk = std::str::from_utf8(&bytes[start..i]).map_err(|_| CryptoError::BadHex)?;
            limbs.push(u32::from_str_radix(chunk, 16).map_err(|_| CryptoError::BadHex)?);
            i = start;
        }
        let mut n = BigUint { limbs };
        n.normalize();
        Ok(n)
    }

    /// Formats as big-endian lowercase hex (no leading zeros; zero is
    /// `"0"`).
    pub fn to_hex(&self) -> String {
        if self.limbs.is_empty() {
            return "0".into();
        }
        let mut s = format!("{:x}", self.limbs.last().copied().unwrap_or(0));
        for limb in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:08x}"));
        }
        s
    }

    /// Builds from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 4 + 1);
        let mut i = bytes.len();
        while i > 0 {
            let start = i.saturating_sub(4);
            let mut limb = 0u32;
            for &b in &bytes[start..i] {
                limb = (limb << 8) | u32::from(b);
            }
            limbs.push(limb);
            i = start;
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes (minimal length; zero is empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // Strip leading zeros.
        let first = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first);
        out
    }

    /// Drops trailing zero limbs.
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Tests bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        self.limbs.get(limb).is_some_and(|l| (l >> (i % 32)) & 1 == 1)
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut out = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u64;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = u64::from(*self.limbs.get(i).unwrap_or(&0));
            let b = u64::from(*other.limbs.get(i).unwrap_or(&0));
            let sum = a + b + carry;
            out.push(sum as u32);
            carry = sum >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Subtraction; returns `None` if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self.cmp_big(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let a = i64::from(self.limbs[i]);
            let b = i64::from(*other.limbs.get(i).unwrap_or(&0));
            let mut diff = a - b - borrow;
            if diff < 0 {
                diff += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(diff as u32);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// Subtraction. Underflow is a violated arithmetic precondition;
    /// rather than panic (or silently return a wrong magnitude), it
    /// saturates to zero, which every modular caller then reduces to a
    /// harmless failed probe.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other).unwrap_or_else(BigUint::zero)
    }

    /// Total ordering.
    pub fn cmp_big(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl std::fmt::Display for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        for v in [0u64, 1, 0xffff_ffff, 0x1_0000_0000, u64::MAX] {
            let n = BigUint::from_u64(v);
            assert_eq!(n.to_u64(), Some(v));
            assert_eq!(BigUint::from_hex(&n.to_hex()).unwrap(), n);
            assert_eq!(BigUint::from_bytes_be(&n.to_bytes_be()), n);
        }
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(BigUint::from_hex("ff").unwrap().to_u64(), Some(255));
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert_eq!(BigUint::from_hex("00000001").unwrap(), BigUint::one());
        assert!(BigUint::from_hex("xyz").is_err());
        assert!(BigUint::from_hex("").is_err());
        // Whitespace tolerated (for the Oakley constants).
        assert_eq!(BigUint::from_hex("de ad\nbe ef").unwrap().to_u64(), Some(0xdeadbeef));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_hex("ffffffffffffffffffffffff").unwrap();
        let b = BigUint::from_u64(0xdeadbeef);
        let sum = a.add(&b);
        assert_eq!(sum.sub(&b), a);
        assert_eq!(sum.sub(&a), b);
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let sum = a.add(&BigUint::one());
        assert_eq!(sum.to_hex(), "10000000000000000");
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(6);
        let c = BigUint::from_hex("100000000000000000").unwrap();
        assert!(a < b && b < c && a < c);
        assert_eq!(a.cmp_big(&BigUint::from_u64(5)), Ordering::Equal);
    }

    #[test]
    fn bit_len_and_bit() {
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert_eq!(BigUint::from_u64(0x8000_0000_0000_0000).bit_len(), 64);
        let n = BigUint::from_u64(0b1010);
        assert!(!n.bit(0) && n.bit(1) && !n.bit(2) && n.bit(3) && !n.bit(4));
    }

    #[test]
    fn bytes_be() {
        let n = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05]);
        assert_eq!(n.to_u64(), Some(0x0102030405));
        assert_eq!(n.to_bytes_be(), vec![0x01, 0x02, 0x03, 0x04, 0x05]);
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
    }

    #[test]
    fn is_even() {
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
        assert!(BigUint::from_u64(0x1_0000_0000).is_even());
    }
}
