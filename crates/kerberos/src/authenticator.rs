//! Authenticators: `{A_c}K_{c,s}`.
//!
//! "To guard against replay attacks, all tickets presented are
//! accompanied by an authenticator ... a brief string encrypted in the
//! session key and containing a timestamp." The optional fields carry
//! the paper's recommended extensions: a checksum binding the
//! authenticator to its enclosing request and ticket, a subkey
//! contribution for true-session-key negotiation, and an initial
//! sequence number.

use crate::encoding::{Codec, Decoder, Encoder, MsgType};
use crate::enclayer::EncLayer;
use crate::error::KrbError;
use crate::principal::Principal;
use crate::ticket::{put_principal, take_principal};
use krb_crypto::checksum::{Checksum, ChecksumType};
use krb_crypto::des::{DesKey, ScheduledKey};
use krb_crypto::rng::RandomSource;

/// The plaintext contents of an authenticator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Authenticator {
    /// The client principal.
    pub client: Principal,
    /// The client's claimed network address.
    pub addr: u32,
    /// The client's local clock (µs).
    pub timestamp: u64,
    /// Optional checksum over the enclosing request body (Draft 3:
    /// "protected by a checksum sealed in the encrypted authenticator").
    pub cksum: Option<Checksum>,
    /// Optional service name binding (the fix for A10: tie the
    /// authenticator to the intended service).
    pub service_binding: Option<Principal>,
    /// Optional client subkey contribution for session-key negotiation.
    pub subkey: Option<u64>,
    /// Optional initial sequence number.
    pub seq_init: Option<u64>,
}

impl Authenticator {
    /// A minimal V4-style authenticator.
    pub fn basic(client: Principal, addr: u32, timestamp: u64) -> Self {
        Authenticator {
            client,
            addr,
            timestamp,
            cksum: None,
            service_binding: None,
            subkey: None,
            seq_init: None,
        }
    }

    /// Serializes the plaintext fields.
    pub fn encode(&self, codec: Codec) -> Vec<u8> {
        let mut e = Encoder::new();
        put_principal(&mut e, &self.client);
        e.put_u32(self.addr).put_u64(self.timestamp);
        match &self.cksum {
            Some(c) => {
                e.put_u8(1).put_u8(checksum_tag(c.ctype)).put_bytes(&c.value);
            }
            None => {
                e.put_u8(0);
            }
        }
        match &self.service_binding {
            Some(p) => {
                e.put_u8(1);
                put_principal(&mut e, p);
            }
            None => {
                e.put_u8(0);
            }
        }
        e.put_opt_u64(self.subkey);
        e.put_opt_u64(self.seq_init);
        codec.wrap(MsgType::Authenticator, e.finish())
    }

    /// Parses the plaintext fields.
    pub fn decode(codec: Codec, data: &[u8]) -> Result<Authenticator, KrbError> {
        let body = codec.open(MsgType::Authenticator, data)?;
        let mut d = Decoder::new(body);
        let client = take_principal(d.field("client"))?;
        let addr = d.field("addr").take_u32()?;
        let timestamp = d.field("timestamp").take_u64()?;
        let cksum = match d.field("cksum").take_u8()? {
            0 => None,
            1 => {
                let ctype = checksum_from_tag(d.take_u8()?)?;
                Some(Checksum { ctype, value: d.take_bytes()?.into() })
            }
            _ => return Err(d.fail("bad cksum option")),
        };
        let service_binding = match d.field("service-binding").take_u8()? {
            0 => None,
            1 => Some(take_principal(&mut d)?),
            _ => return Err(d.fail("bad binding option")),
        };
        let subkey = d.field("subkey").take_opt_u64()?;
        let seq_init = d.field("seq-init").take_opt_u64()?;
        Ok(Authenticator { client, addr, timestamp, cksum, service_binding, subkey, seq_init })
    }

    /// Encrypts under the session key.
    pub fn seal(
        &self,
        codec: Codec,
        layer: EncLayer,
        session_key: &DesKey,
        rng: &mut dyn RandomSource,
    ) -> Result<Vec<u8>, KrbError> {
        layer.seal(session_key, 0, &self.encode(codec), rng)
    }

    /// [`Authenticator::seal`] with a precomputed schedule.
    pub fn seal_with(
        &self,
        codec: Codec,
        layer: EncLayer,
        session_key: &ScheduledKey,
        rng: &mut dyn RandomSource,
    ) -> Result<Vec<u8>, KrbError> {
        layer.seal_with(session_key, 0, &self.encode(codec), rng)
    }

    /// Decrypts and parses.
    pub fn unseal(
        codec: Codec,
        layer: EncLayer,
        session_key: &DesKey,
        data: &[u8],
    ) -> Result<Authenticator, KrbError> {
        let pt = layer.open(session_key, 0, data)?;
        Authenticator::decode(codec, &pt)
    }

    /// Decrypts and parses with a precomputed schedule (the KDC's batch
    /// path expands the TGS-session key once per request, not once per
    /// sealed part).
    pub fn unseal_with(
        codec: Codec,
        layer: EncLayer,
        session_key: &ScheduledKey,
        data: &[u8],
    ) -> Result<Authenticator, KrbError> {
        let pt = layer.open_with(session_key, 0, data)?;
        Authenticator::decode(codec, &pt)
    }
}

/// Wire tag for a checksum type.
pub(crate) fn checksum_tag(c: ChecksumType) -> u8 {
    match c {
        ChecksumType::Crc32 => 1,
        ChecksumType::Crc32Des => 2,
        ChecksumType::Md4 => 3,
        ChecksumType::Md4Des => 4,
    }
}

/// Parses a checksum-type tag.
pub(crate) fn checksum_from_tag(t: u8) -> Result<ChecksumType, KrbError> {
    Ok(match t {
        1 => ChecksumType::Crc32,
        2 => ChecksumType::Crc32Des,
        3 => ChecksumType::Md4,
        4 => ChecksumType::Md4Des,
        _ => return Err(KrbError::Decode("unknown checksum type")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use krb_crypto::rng::Drbg;

    fn sample() -> Authenticator {
        Authenticator::basic(Principal::user("pat", "ATHENA"), 0x0a000001, 123_456_789)
    }

    #[test]
    fn roundtrip_minimal() {
        for codec in [Codec::Legacy, Codec::Typed, Codec::Wire] {
            let a = sample();
            assert_eq!(Authenticator::decode(codec, &a.encode(codec)).unwrap(), a);
        }
    }

    #[test]
    fn roundtrip_full() {
        let a = Authenticator {
            cksum: Some(Checksum { ctype: ChecksumType::Crc32, value: vec![1, 2, 3, 4].into() }),
            service_binding: Some(Principal::service("hesiod", "db1", "ATHENA")),
            subkey: Some(0xdeadbeef),
            seq_init: Some(42),
            ..sample()
        };
        for codec in [Codec::Legacy, Codec::Typed, Codec::Wire] {
            assert_eq!(Authenticator::decode(codec, &a.encode(codec)).unwrap(), a);
        }
    }

    #[test]
    fn seal_roundtrip() {
        let mut rng = Drbg::new(4);
        let k = DesKey::from_u64(0x5555555555555555).with_odd_parity();
        let a = sample();
        let sealed = a.seal(Codec::Typed, EncLayer::V5Cbc { confounder: true }, &k, &mut rng).unwrap();
        assert_eq!(
            Authenticator::unseal(Codec::Typed, EncLayer::V5Cbc { confounder: true }, &k, &sealed).unwrap(),
            a
        );
    }

    /// The A11 type-confusion probe: under the legacy codec a sealed
    /// ticket can be *decoded* as an authenticator (fields misalign but
    /// parsing succeeds or fails only by accident); under the typed
    /// codec it is rejected deterministically.
    #[test]
    fn typed_codec_blocks_cross_decoding() {
        let t = crate::ticket::Ticket {
            flags: crate::flags::TicketFlags::empty(),
            client: Principal::user("pat", "ATHENA"),
            service: Principal::service("rlogin", "myhost", "ATHENA"),
            addr: Some(1),
            auth_time: 0,
            start_time: 0,
            end_time: 10,
            session_key: DesKey::from_u64(7),
            transited: vec![],
        };
        let bytes = t.encode(Codec::Typed);
        assert!(matches!(
            Authenticator::decode(Codec::Typed, &bytes),
            Err(KrbError::WrongType { .. })
        ));
    }

    #[test]
    fn checksum_tags_roundtrip() {
        for c in [ChecksumType::Crc32, ChecksumType::Crc32Des, ChecksumType::Md4, ChecksumType::Md4Des] {
            assert_eq!(checksum_from_tag(checksum_tag(c)).unwrap(), c);
        }
        assert!(checksum_from_tag(99).is_err());
    }
}
