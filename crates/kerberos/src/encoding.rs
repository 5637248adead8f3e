//! Wire encodings: the ambiguous legacy format and the typed (DER-lite)
//! format.
//!
//! "The most simple analysis of the security of the Kerberos protocols
//! should check that there is no possibility of ambiguity between
//! messages sent in different contexts. That is, a ticket should never
//! be interpretable as an authenticator, or vice versa. ... This
//! repetitive and often intricate analysis would be unnecessary if
//! standard encodings (such as ASN.1) were used. These encodings should
//! include the overall message type."
//!
//! [`Codec::Legacy`] concatenates length-framed fields with no type tag
//! and no overall length — V4's situation, where cross-context
//! interpretation (attack A11) and truncation are possible.
//! [`Codec::Typed`] wraps each message in `[magic][type][len]`, the two
//! properties the paper actually needs from ASN.1: the message type
//! inside the (possibly encrypted) data, and an explicit length.
//! [`Codec::Wire`] is the wire-realistic upgrade: a *versioned* envelope
//! `[magic][version][msg-type][len]` whose message-type tags follow the
//! RFC 4120 numbering (AS-REQ 0x0a … KRB-ERROR 0x1e) with picky-krb's
//! field tags for tickets, authenticators, and enc-parts, plus an
//! extensible tagged pa-data list. It is the format `krb-fuzz` attacks.

use crate::error::KrbError;

/// Converts an in-memory length to its 4-byte wire form, saturating at
/// `u32::MAX` instead of truncating (P003). A saturated length can
/// never frame correctly — every decoder rejects `body.len() < len` —
/// so oversized input fails closed rather than silently mis-framing;
/// for all representable lengths the bytes are identical to the old
/// `as u32` cast.
pub fn len_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Wire-format constants for [`Codec::Wire`]. The message-type numbers
/// mirror RFC 4120 (and picky-krb's constants table); the field tags for
/// sealed sub-structures use the RFC's application-tag numbers. The full
/// tag table is documented in DESIGN.md.
pub mod wire {
    /// Envelope magic ('K').
    pub const MAGIC: u8 = 0x4b;
    /// Protocol version (RFC 4120 pvno 5).
    pub const VERSION: u8 = 0x05;
    /// Envelope header length: magic, version, msg-type, len u32.
    pub const HEADER_LEN: usize = 7;

    /// Ticket field tag.
    pub const TICKET: u8 = 0x01;
    /// Authenticator field tag.
    pub const AUTHENTICATOR: u8 = 0x02;
    /// AS-REQ message type.
    pub const AS_REQ: u8 = 0x0a;
    /// AS-REP message type.
    pub const AS_REP: u8 = 0x0b;
    /// TGS-REQ message type.
    pub const TGS_REQ: u8 = 0x0c;
    /// TGS-REP message type.
    pub const TGS_REP: u8 = 0x0d;
    /// AP-REQ message type.
    pub const AP_REQ: u8 = 0x0e;
    /// AP-REP message type.
    pub const AP_REP: u8 = 0x0f;
    /// KRB-SAFE message type.
    pub const KRB_SAFE: u8 = 0x14;
    /// KRB-PRIV message type.
    pub const KRB_PRIV: u8 = 0x15;
    /// EncASRepPart field tag.
    pub const ENC_AS_REP_PART: u8 = 0x19;
    /// EncTGSRepPart field tag.
    pub const ENC_TGS_REP_PART: u8 = 0x1a;
    /// EncAPRepPart field tag.
    pub const ENC_AP_REP_PART: u8 = 0x1b;
    /// EncKrbPrivPart field tag.
    pub const ENC_PRIV_PART: u8 = 0x1c;
    /// KRB-ERROR message type.
    pub const KRB_ERROR: u8 = 0x1e;
}

/// Copies an exactly-`N`-byte slice into an array. Every caller passes a
/// slice whose length it just checked (or produced via `take(N)`).
pub(crate) fn be_array<const N: usize>(s: &[u8]) -> [u8; N] {
    let mut b = [0u8; N];
    b.copy_from_slice(s);
    b
}

/// Message type tags, placed inside the typed envelope (and therefore
/// inside the encryption when the message is sealed).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[repr(u8)]
pub enum MsgType {
    /// A ticket (the sealed part).
    Ticket = 1,
    /// An authenticator.
    Authenticator = 2,
    /// Initial authentication request.
    AsReq = 3,
    /// Initial authentication reply.
    AsRep = 4,
    /// The encrypted part of an AS reply.
    EncAsRepPart = 5,
    /// Ticket-granting request.
    TgsReq = 6,
    /// Ticket-granting reply.
    TgsRep = 7,
    /// The encrypted part of a TGS reply.
    EncTgsRepPart = 8,
    /// Application request (ticket + authenticator).
    ApReq = 9,
    /// Application reply (mutual authentication).
    ApRep = 10,
    /// The encrypted part of an AP reply.
    EncApRepPart = 11,
    /// Error reply.
    KrbErr = 12,
    /// Integrity-protected application message.
    KrbSafe = 13,
    /// Encrypted application message.
    KrbPriv = 14,
    /// The encrypted part of a KRB_PRIV message.
    EncPrivPart = 15,
}

impl MsgType {
    /// Parses a tag byte.
    pub fn from_u8(v: u8) -> Option<MsgType> {
        use MsgType::*;
        Some(match v {
            1 => Ticket,
            2 => Authenticator,
            3 => AsReq,
            4 => AsRep,
            5 => EncAsRepPart,
            6 => TgsReq,
            7 => TgsRep,
            8 => EncTgsRepPart,
            9 => ApReq,
            10 => ApRep,
            11 => EncApRepPart,
            12 => KrbErr,
            13 => KrbSafe,
            14 => KrbPriv,
            15 => EncPrivPart,
            _ => return None,
        })
    }

    /// The RFC 4120-style tag this type carries under [`Codec::Wire`].
    pub fn wire_tag(self) -> u8 {
        match self {
            MsgType::Ticket => wire::TICKET,
            MsgType::Authenticator => wire::AUTHENTICATOR,
            MsgType::AsReq => wire::AS_REQ,
            MsgType::AsRep => wire::AS_REP,
            MsgType::EncAsRepPart => wire::ENC_AS_REP_PART,
            MsgType::TgsReq => wire::TGS_REQ,
            MsgType::TgsRep => wire::TGS_REP,
            MsgType::EncTgsRepPart => wire::ENC_TGS_REP_PART,
            MsgType::ApReq => wire::AP_REQ,
            MsgType::ApRep => wire::AP_REP,
            MsgType::EncApRepPart => wire::ENC_AP_REP_PART,
            MsgType::KrbErr => wire::KRB_ERROR,
            MsgType::KrbSafe => wire::KRB_SAFE,
            MsgType::KrbPriv => wire::KRB_PRIV,
            MsgType::EncPrivPart => wire::ENC_PRIV_PART,
        }
    }

    /// Parses an RFC 4120-style wire tag.
    pub fn from_wire_tag(v: u8) -> Option<MsgType> {
        Some(match v {
            wire::TICKET => MsgType::Ticket,
            wire::AUTHENTICATOR => MsgType::Authenticator,
            wire::AS_REQ => MsgType::AsReq,
            wire::AS_REP => MsgType::AsRep,
            wire::ENC_AS_REP_PART => MsgType::EncAsRepPart,
            wire::TGS_REQ => MsgType::TgsReq,
            wire::TGS_REP => MsgType::TgsRep,
            wire::ENC_TGS_REP_PART => MsgType::EncTgsRepPart,
            wire::AP_REQ => MsgType::ApReq,
            wire::AP_REP => MsgType::ApRep,
            wire::ENC_AP_REP_PART => MsgType::EncApRepPart,
            wire::KRB_ERROR => MsgType::KrbErr,
            wire::KRB_SAFE => MsgType::KrbSafe,
            wire::KRB_PRIV => MsgType::KrbPriv,
            wire::ENC_PRIV_PART => MsgType::EncPrivPart,
            _ => return None,
        })
    }
}

/// Which wire encoding the deployment uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Codec {
    /// Field concatenation; no type tag, no overall length. Ambiguous
    /// across contexts.
    Legacy,
    /// `[0x4B][type][len u32][fields]`. Unambiguous and
    /// truncation-evident.
    Typed,
    /// `[0x4B][version][msg-type][len u32][fields]`: versioned, RFC
    /// 4120-numbered tags, extensible pa-data. Unknown pa-data types are
    /// carried opaquely instead of rejected.
    Wire,
}

const TYPED_MAGIC: u8 = 0x4b; // 'K'

impl Codec {
    /// Wraps an encoded field body in the codec's envelope.
    pub fn wrap(self, mtype: MsgType, body: Vec<u8>) -> Vec<u8> {
        match self {
            Codec::Legacy => body,
            Codec::Typed => {
                let mut v = Vec::with_capacity(body.len() + 6);
                v.push(TYPED_MAGIC);
                v.push(mtype as u8);
                v.extend_from_slice(&len_u32(body.len()).to_be_bytes());
                v.extend_from_slice(&body);
                v
            }
            Codec::Wire => {
                let mut v = Vec::with_capacity(body.len() + wire::HEADER_LEN);
                v.push(wire::MAGIC);
                v.push(wire::VERSION);
                v.push(mtype.wire_tag());
                v.extend_from_slice(&len_u32(body.len()).to_be_bytes());
                v.extend_from_slice(&body);
                v
            }
        }
    }

    /// Whether decoders under this codec carry unknown pa-data types
    /// opaquely (the extensibility the wire format adds) instead of
    /// rejecting them.
    pub fn pa_extensible(self) -> bool {
        self == Codec::Wire
    }

    /// Opens an envelope, checking the type tag and length when typed or
    /// wire. Under the legacy codec any byte string "is" any message
    /// type — that is the vulnerability. Failures name the envelope
    /// field and byte offset that broke, so a reject off a hostile wire
    /// is diagnosable.
    pub fn open(self, mtype: MsgType, data: &[u8]) -> Result<&[u8], KrbError> {
        let start = match self {
            Codec::Legacy => 0,
            Codec::Typed => 6,
            Codec::Wire => wire::HEADER_LEN,
        };
        // The whole message is in view, so every check runs and the
        // length field, when the codec has one, bounds the body.
        let body = &data[start.min(data.len())..];
        Ok(match self.check_envelope(mtype, data, data.len())? {
            Some(len) => &body[..len.min(body.len())],
            None => body,
        })
    }

    /// Checks the envelope of a message `total` bytes long of which
    /// `head` is a prefix, in [`Codec::open`]'s order, skipping each check
    /// whose bytes lie beyond `head`. Returns the body length once the
    /// header's length field is in view (`None` under the legacy codec,
    /// which has none). `open` runs it on the whole message, so a prefix
    /// that fails here fails `open` with the same error.
    pub fn check_envelope(
        self,
        mtype: MsgType,
        head: &[u8],
        total: usize,
    ) -> Result<Option<usize>, KrbError> {
        let at = |i: usize| head.get(i).copied();
        let len_at =
            |i: usize| head.get(i..i + 4).map(|b| u32::from_be_bytes(be_array::<4>(b)) as usize);
        match self {
            Codec::Legacy => Ok(None),
            Codec::Typed => {
                if total < 6 {
                    return Err(KrbError::Envelope {
                        codec: "typed",
                        field: "header",
                        offset: total,
                        found: None,
                    });
                }
                if let Some(b) = at(0).filter(|&b| b != TYPED_MAGIC) {
                    return Err(KrbError::Envelope {
                        codec: "typed",
                        field: "magic",
                        offset: 0,
                        found: Some(b),
                    });
                }
                if let Some(b) = at(1).filter(|&b| b != mtype as u8) {
                    return Err(KrbError::WrongType { expected: mtype as u8, found: b });
                }
                let Some(len) = len_at(2) else { return Ok(None) };
                // Truncation is fatal; trailing bytes beyond `len` are
                // tolerated because decrypted envelopes carry cipher
                // padding.
                if total - 6 < len {
                    return Err(KrbError::Envelope {
                        codec: "typed",
                        field: "length",
                        offset: 2,
                        found: None,
                    });
                }
                Ok(Some(len))
            }
            Codec::Wire => {
                if total < wire::HEADER_LEN {
                    return Err(KrbError::Envelope {
                        codec: "wire",
                        field: "header",
                        offset: total,
                        found: None,
                    });
                }
                if let Some(b) = at(0).filter(|&b| b != wire::MAGIC) {
                    return Err(KrbError::Envelope {
                        codec: "wire",
                        field: "magic",
                        offset: 0,
                        found: Some(b),
                    });
                }
                if let Some(b) = at(1).filter(|&b| b != wire::VERSION) {
                    return Err(KrbError::Envelope {
                        codec: "wire",
                        field: "version",
                        offset: 1,
                        found: Some(b),
                    });
                }
                let expected = mtype.wire_tag();
                if let Some(b) = at(2).filter(|&b| b != expected) {
                    // A known-but-different tag is a cross-context read
                    // (the confusion the tag exists to stop); an unknown
                    // tag is garbage.
                    return Err(match MsgType::from_wire_tag(b) {
                        Some(_) => KrbError::WrongType { expected, found: b },
                        None => KrbError::Envelope {
                            codec: "wire",
                            field: "msg-type",
                            offset: 2,
                            found: Some(b),
                        },
                    });
                }
                let Some(len) = len_at(3) else { return Ok(None) };
                // Same padding tolerance as the typed codec: sealed
                // envelopes come back with cipher padding appended.
                if total - wire::HEADER_LEN < len {
                    return Err(KrbError::Envelope {
                        codec: "wire",
                        field: "length",
                        offset: 3,
                        found: None,
                    });
                }
                Ok(Some(len))
            }
        }
    }
}

/// Field-level serializer.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Appends a u8.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian u64.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-framed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(len_u32(v.len()));
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-framed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Appends an optional byte string (presence byte + framing).
    pub fn put_opt_bytes(&mut self, v: Option<&[u8]>) -> &mut Self {
        match v {
            Some(b) => {
                self.put_u8(1);
                self.put_bytes(b)
            }
            None => self.put_u8(0),
        }
    }

    /// Appends an optional u64.
    pub fn put_opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x)
            }
            None => self.put_u8(0),
        }
    }

    /// Consumes the encoder.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Field-level parser. Failures carry the byte offset where decoding
/// stopped and, when the caller labels its reads with
/// [`Decoder::field`], the name of the field being decoded.
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
    field: &'static str,
}

impl<'a> Decoder<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0, field: "" }
    }

    /// Labels subsequent reads as decoding `name`, so failures report
    /// which message field broke rather than a bare offset.
    pub fn field(&mut self, name: &'static str) -> &mut Self {
        self.field = name;
        self
    }

    /// Current byte offset into the body.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// A [`KrbError::DecodeAt`] for the current field and offset.
    pub fn fail(&self, what: &'static str) -> KrbError {
        KrbError::DecodeAt { what, field: self.field, offset: self.pos }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], KrbError> {
        if self.pos + n > self.data.len() {
            return Err(self.fail("truncated field"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a u8.
    pub fn take_u8(&mut self) -> Result<u8, KrbError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian u32.
    pub fn take_u32(&mut self) -> Result<u32, KrbError> {
        Ok(u32::from_be_bytes(be_array::<4>(self.take(4)?)))
    }

    /// Reads a big-endian u64.
    pub fn take_u64(&mut self) -> Result<u64, KrbError> {
        Ok(u64::from_be_bytes(be_array::<8>(self.take(8)?)))
    }

    /// Reads a length-framed byte string.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, KrbError> {
        let len = self.take_u32()? as usize;
        if len > self.data.len() {
            return Err(self.fail("field length exceeds message"));
        }
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-framed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, KrbError> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes).map_err(|_| self.fail("invalid utf-8"))
    }

    /// Reads an optional byte string.
    pub fn take_opt_bytes(&mut self) -> Result<Option<Vec<u8>>, KrbError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_bytes()?)),
            _ => Err(self.fail("bad option byte")),
        }
    }

    /// Reads an optional u64.
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, KrbError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_u64()?)),
            _ => Err(self.fail("bad option byte")),
        }
    }

    /// Bytes remaining unread.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless the whole input was consumed. The legacy decoder
    /// deliberately does NOT call this for application payloads — sloppy
    /// trailing-junk tolerance is part of what the chosen-plaintext
    /// splice (A7) exploits.
    pub fn finish(self) -> Result<(), KrbError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.fail("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7).put_u32(0xdead_beef).put_u64(42).put_str("pat").put_bytes(b"xyz");
        e.put_opt_bytes(None).put_opt_bytes(Some(b"k")).put_opt_u64(Some(9)).put_opt_u64(None);
        let bytes = e.finish();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.take_u64().unwrap(), 42);
        assert_eq!(d.take_str().unwrap(), "pat");
        assert_eq!(d.take_bytes().unwrap(), b"xyz");
        assert_eq!(d.take_opt_bytes().unwrap(), None);
        assert_eq!(d.take_opt_bytes().unwrap(), Some(b"k".to_vec()));
        assert_eq!(d.take_opt_u64().unwrap(), Some(9));
        assert_eq!(d.take_opt_u64().unwrap(), None);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_detected_at_field_level() {
        let mut e = Encoder::new();
        e.put_str("a long string field");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes[..bytes.len() - 3]);
        assert!(d.take_str().is_err());
    }

    #[test]
    fn absurd_length_rejected() {
        let mut d = Decoder::new(&[0xff, 0xff, 0xff, 0xff, 1, 2]);
        assert!(d.take_bytes().is_err());
    }

    #[test]
    fn typed_envelope_roundtrip() {
        let body = b"ticket fields".to_vec();
        let wire = Codec::Typed.wrap(MsgType::Ticket, body.clone());
        assert_eq!(Codec::Typed.open(MsgType::Ticket, &wire).unwrap(), &body[..]);
    }

    #[test]
    fn typed_envelope_rejects_cross_type() {
        // The anti-confusion property: a Ticket cannot be unwrapped as an
        // Authenticator.
        let wire = Codec::Typed.wrap(MsgType::Ticket, b"fields".to_vec());
        assert!(matches!(
            Codec::Typed.open(MsgType::Authenticator, &wire),
            Err(KrbError::WrongType { .. })
        ));
    }

    #[test]
    fn typed_envelope_rejects_truncation() {
        let wire = Codec::Typed.wrap(MsgType::KrbPriv, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(Codec::Typed.open(MsgType::KrbPriv, &wire[..wire.len() - 2]).is_err());
    }

    #[test]
    fn legacy_accepts_anything_as_anything() {
        // The vulnerability, stated as a test: the same bytes unwrap as
        // both a Ticket and an Authenticator.
        let bytes = b"whatever".to_vec();
        assert!(Codec::Legacy.open(MsgType::Ticket, &bytes).is_ok());
        assert!(Codec::Legacy.open(MsgType::Authenticator, &bytes).is_ok());
    }

    #[test]
    fn msgtype_tags_roundtrip() {
        for t in 1u8..=15 {
            let m = MsgType::from_u8(t).unwrap();
            assert_eq!(m as u8, t);
        }
        assert!(MsgType::from_u8(0).is_none());
        assert!(MsgType::from_u8(16).is_none());
    }

    fn all_msg_types() -> [MsgType; 15] {
        use MsgType::*;
        [
            Ticket,
            Authenticator,
            AsReq,
            AsRep,
            EncAsRepPart,
            TgsReq,
            TgsRep,
            EncTgsRepPart,
            ApReq,
            ApRep,
            EncApRepPart,
            KrbErr,
            KrbSafe,
            KrbPriv,
            EncPrivPart,
        ]
    }

    #[test]
    fn wire_tags_follow_rfc4120_numbering() {
        assert_eq!(MsgType::AsReq.wire_tag(), 0x0a);
        assert_eq!(MsgType::AsRep.wire_tag(), 0x0b);
        assert_eq!(MsgType::TgsReq.wire_tag(), 0x0c);
        assert_eq!(MsgType::TgsRep.wire_tag(), 0x0d);
        assert_eq!(MsgType::ApReq.wire_tag(), 0x0e);
        assert_eq!(MsgType::ApRep.wire_tag(), 0x0f);
        assert_eq!(MsgType::KrbSafe.wire_tag(), 0x14);
        assert_eq!(MsgType::KrbPriv.wire_tag(), 0x15);
        assert_eq!(MsgType::KrbErr.wire_tag(), 0x1e);
        for m in all_msg_types() {
            assert_eq!(MsgType::from_wire_tag(m.wire_tag()), Some(m), "{m:?}");
        }
        assert!(MsgType::from_wire_tag(0x00).is_none());
        assert!(MsgType::from_wire_tag(0xff).is_none());
    }

    #[test]
    fn wire_envelope_roundtrip_all_types() {
        for m in all_msg_types() {
            let body = vec![m.wire_tag(); 9];
            let framed = Codec::Wire.wrap(m, body.clone());
            assert_eq!(framed[0], wire::MAGIC);
            assert_eq!(framed[1], wire::VERSION);
            assert_eq!(framed[2], m.wire_tag());
            assert_eq!(Codec::Wire.open(m, &framed).unwrap(), &body[..]);
        }
    }

    #[test]
    fn wire_envelope_rejects_cross_type() {
        let framed = Codec::Wire.wrap(MsgType::Ticket, b"fields".to_vec());
        assert_eq!(
            Codec::Wire.open(MsgType::Authenticator, &framed),
            Err(KrbError::WrongType {
                expected: wire::AUTHENTICATOR,
                found: wire::TICKET
            })
        );
    }

    #[test]
    fn wire_envelope_diagnoses_each_field() {
        let good = Codec::Wire.wrap(MsgType::AsReq, vec![1, 2, 3, 4]);

        let mut bad_magic = good.clone();
        bad_magic[0] = 0x00;
        assert_eq!(
            Codec::Wire.open(MsgType::AsReq, &bad_magic),
            Err(KrbError::Envelope { codec: "wire", field: "magic", offset: 0, found: Some(0) })
        );

        let mut bad_version = good.clone();
        bad_version[1] = 0x04;
        assert_eq!(
            Codec::Wire.open(MsgType::AsReq, &bad_version),
            Err(KrbError::Envelope {
                codec: "wire",
                field: "version",
                offset: 1,
                found: Some(4)
            })
        );

        // An unknown msg-type byte is garbage, not a cross-context read.
        let mut unknown_tag = good.clone();
        unknown_tag[2] = 0x7f;
        assert_eq!(
            Codec::Wire.open(MsgType::AsReq, &unknown_tag),
            Err(KrbError::Envelope {
                codec: "wire",
                field: "msg-type",
                offset: 2,
                found: Some(0x7f)
            })
        );

        // Length lies: header claims more than is present.
        let mut overlong = good.clone();
        overlong[6] = 0xff;
        assert_eq!(
            Codec::Wire.open(MsgType::AsReq, &overlong),
            Err(KrbError::Envelope { codec: "wire", field: "length", offset: 3, found: None })
        );

        // Too short for even a header.
        assert_eq!(
            Codec::Wire.open(MsgType::AsReq, &good[..5]),
            Err(KrbError::Envelope { codec: "wire", field: "header", offset: 5, found: None })
        );
    }

    #[test]
    fn wire_envelope_tolerates_cipher_padding() {
        let body = b"padded body".to_vec();
        let mut framed = Codec::Wire.wrap(MsgType::KrbPriv, body.clone());
        framed.extend_from_slice(&[0u8; 7]); // cipher padding
        assert_eq!(Codec::Wire.open(MsgType::KrbPriv, &framed).unwrap(), &body[..]);
    }

    #[test]
    fn decoder_failures_carry_field_and_offset() {
        let mut e = Encoder::new();
        e.put_u32(5); // claims 5 bytes but only 2 follow
        e.put_u8(1).put_u8(2);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        d.field("client-name");
        let err = d.take_bytes().unwrap_err();
        assert_eq!(
            err,
            KrbError::DecodeAt { what: "truncated field", field: "client-name", offset: 4 }
        );
        assert_eq!(
            err.to_string(),
            "malformed message: truncated field in field 'client-name' at byte 4"
        );
    }

    #[test]
    fn only_wire_is_pa_extensible() {
        assert!(!Codec::Legacy.pa_extensible());
        assert!(!Codec::Typed.pa_extensible());
        assert!(Codec::Wire.pa_extensible());
    }
}
