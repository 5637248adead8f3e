//! The protocol messages: AS, TGS, and AP exchanges plus the error
//! reply.
//!
//! Every message carries a one-byte *cleartext* kind for dispatch (V4
//! had this too); the security-relevant typing — the message type inside
//! the encrypted data — is provided only by [`Codec::Typed`].

use crate::authenticator::{checksum_from_tag, checksum_tag};
use crate::encoding::{len_u32, Codec, Decoder, Encoder, MsgType};
use crate::error::KrbError;
use crate::flags::KdcOptions;
use crate::principal::Principal;
use crate::ticket::{put_principal, take_principal};
use krb_crypto::checksum::Checksum;
use krb_crypto::des::DesKey;

/// Cleartext message kind (dispatch only; no security relied on it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum WireKind {
    /// Initial authentication request.
    AsReq = 1,
    /// Initial authentication reply.
    AsRep = 2,
    /// Ticket-granting request.
    TgsReq = 3,
    /// Ticket-granting reply.
    TgsRep = 4,
    /// Application request.
    ApReq = 5,
    /// Application (mutual-auth) reply.
    ApRep = 6,
    /// Error.
    Err = 7,
    /// Integrity-protected message.
    Safe = 8,
    /// Encrypted message.
    Priv = 9,
    /// The client's answer to an application challenge.
    ChallengeResp = 10,
    /// Plain (unprotected) application data after authentication — the
    /// common 1990 deployment style that makes hijacking (A14) trivial.
    AppData = 11,
}

impl WireKind {
    /// Parses a kind byte.
    pub fn from_u8(v: u8) -> Option<WireKind> {
        use WireKind::*;
        Some(match v {
            1 => AsReq,
            2 => AsRep,
            3 => TgsReq,
            4 => TgsRep,
            5 => ApReq,
            6 => ApRep,
            7 => Err,
            8 => Safe,
            9 => Priv,
            10 => ChallengeResp,
            11 => AppData,
            _ => return None,
        })
    }
}

/// Prefixes a body with its wire kind.
pub fn frame(kind: WireKind, body: Vec<u8>) -> Vec<u8> {
    let mut v = Vec::with_capacity(body.len() + 1);
    v.push(kind as u8);
    v.extend_from_slice(&body);
    v
}

/// Splits a framed message into kind and body.
pub fn deframe(data: &[u8]) -> Result<(WireKind, &[u8]), KrbError> {
    let (&k, body) = data.split_first().ok_or(KrbError::Decode("empty message"))?;
    Ok((WireKind::from_u8(k).ok_or(KrbError::Decode("unknown wire kind"))?, body))
}

/// Preauthentication / extension data carried in an AS request — the
/// `padata` extension point Draft 3 added.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PaData {
    /// `{client local time}K_c`: proves knowledge of the password key
    /// before the KDC releases anything encrypted in it. Tag 1.
    EncTimestamp(Vec<u8>),
    /// The client's exponential-key-exchange public value. Tag 2.
    DhPublic(Vec<u8>),
    /// A pa-data type this implementation does not know, carried
    /// opaquely (tag, value). Only [`Codec::Wire`] decodes these —
    /// under the older codecs an unknown tag is a reject. Tags 1 and 2
    /// always decode to their known variants, so round-tripping an
    /// `Unknown` requires a tag ≥ 3.
    Unknown(u8, Vec<u8>),
}

impl PaData {
    /// The tag byte this entry carries on the wire.
    pub fn tag(&self) -> u8 {
        match self {
            PaData::EncTimestamp(_) => 1,
            PaData::DhPublic(_) => 2,
            PaData::Unknown(t, _) => *t,
        }
    }

    fn encode_into(&self, e: &mut Encoder) {
        match self {
            PaData::EncTimestamp(b) | PaData::DhPublic(b) | PaData::Unknown(_, b) => {
                e.put_u8(self.tag()).put_bytes(b);
            }
        }
    }

    fn decode_from(d: &mut Decoder<'_>, extensible: bool) -> Result<PaData, KrbError> {
        Ok(match d.take_u8()? {
            1 => PaData::EncTimestamp(d.take_bytes()?),
            2 => PaData::DhPublic(d.take_bytes()?),
            t if extensible => PaData::Unknown(t, d.take_bytes()?),
            _ => return Err(d.fail("unknown padata type")),
        })
    }
}

/// KRB_AS_REQ: the login request. Sent in the clear (when preauth is
/// off, *anyone* can send one for *any* user — attack A5).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsReq {
    /// Who is logging in.
    pub client: Principal,
    /// The requested service (normally the realm's TGS).
    pub service: Principal,
    /// Client nonce (Draft 3: challenge/response authentication of the
    /// KDC to the client, replacing dependence on workstation time).
    pub nonce: u64,
    /// Requested ticket lifetime, µs.
    pub lifetime_us: u64,
    /// Claimed client address.
    pub addr: u32,
    /// Requested options (e.g. FORWARDABLE, RENEWABLE).
    pub options: KdcOptions,
    /// Preauthentication / extension data.
    pub padata: Vec<PaData>,
}

impl AsReq {
    /// Serializes (framed).
    pub fn encode(&self, codec: Codec) -> Vec<u8> {
        let mut e = Encoder::new();
        put_principal(&mut e, &self.client);
        put_principal(&mut e, &self.service);
        e.put_u64(self.nonce).put_u64(self.lifetime_us).put_u32(self.addr);
        e.put_u32(u32::from(self.options.0));
        e.put_u32(len_u32(self.padata.len()));
        for p in &self.padata {
            p.encode_into(&mut e);
        }
        frame(WireKind::AsReq, codec.wrap(MsgType::AsReq, e.finish()))
    }

    /// Parses a framed AS request.
    pub fn decode(codec: Codec, data: &[u8]) -> Result<AsReq, KrbError> {
        let (kind, body) = deframe(data)?;
        if kind != WireKind::AsReq {
            return Err(KrbError::Decode("not an AS request"));
        }
        let body = codec.open(MsgType::AsReq, body)?;
        let mut d = Decoder::new(body);
        let client = take_principal(d.field("client"))?;
        let service = take_principal(d.field("service"))?;
        let nonce = d.field("nonce").take_u64()?;
        let lifetime_us = d.field("lifetime").take_u64()?;
        let addr = d.field("addr").take_u32()?;
        let options = KdcOptions(d.field("options").take_u32()? as u16);
        let n = d.field("padata").take_u32()? as usize;
        if n > 16 {
            return Err(d.fail("too many padata"));
        }
        let mut padata = Vec::with_capacity(n);
        for _ in 0..n {
            padata.push(PaData::decode_from(&mut d, codec.pa_extensible())?);
        }
        Ok(AsReq { client, service, nonce, lifetime_us, addr, options, padata })
    }
}

/// The encrypted part shared by AS and TGS replies.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EncKdcRepPart {
    /// The new session key.
    pub session_key: DesKey,
    /// Echo of the request nonce (KDC-to-client authentication).
    pub nonce: u64,
    /// The sealed ticket (encrypted in the service key — nested inside
    /// this encrypted part, as in V4).
    pub ticket: Vec<u8>,
    /// Ticket end time, µs.
    pub end_time: u64,
    /// The KDC's clock at issue time, µs.
    pub server_time: u64,
    /// Recommendation (c): a collision-proof checksum of the sealed
    /// ticket, so substitution of a different ticket is detectable.
    pub ticket_cksum: Option<Checksum>,
}

impl EncKdcRepPart {
    /// Serializes (for sealing). `mtype` distinguishes AS from TGS parts
    /// under the typed codec.
    pub fn encode(&self, codec: Codec, mtype: MsgType) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(self.session_key.to_u64());
        e.put_u64(self.nonce);
        e.put_bytes(&self.ticket);
        e.put_u64(self.end_time).put_u64(self.server_time);
        match &self.ticket_cksum {
            Some(c) => {
                e.put_u8(1).put_u8(checksum_tag(c.ctype)).put_bytes(&c.value);
            }
            None => {
                e.put_u8(0);
            }
        }
        codec.wrap(mtype, e.finish())
    }

    /// Parses a decrypted reply part.
    pub fn decode(codec: Codec, mtype: MsgType, data: &[u8]) -> Result<EncKdcRepPart, KrbError> {
        let body = codec.open(mtype, data)?;
        let mut d = Decoder::new(body);
        let session_key = DesKey::from_u64(d.field("session-key").take_u64()?);
        let nonce = d.field("nonce").take_u64()?;
        let ticket = d.field("ticket").take_bytes()?;
        let end_time = d.field("end-time").take_u64()?;
        let server_time = d.field("server-time").take_u64()?;
        let ticket_cksum = match d.field("ticket-cksum").take_u8()? {
            0 => None,
            1 => {
                let ctype = checksum_from_tag(d.take_u8()?)?;
                Some(Checksum { ctype, value: d.take_bytes()?.into() })
            }
            _ => return Err(d.fail("bad cksum option")),
        };
        Ok(EncKdcRepPart { session_key, nonce, ticket, end_time, server_time, ticket_cksum })
    }
}

/// KRB_AS_REP.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsRep {
    /// Handheld-authenticator challenge `R`, in the clear; when present
    /// the encrypted part is sealed under `{R}K_c` instead of `K_c`.
    pub challenge_r: Option<u64>,
    /// The KDC's exponential-key-exchange public value, when the DH
    /// layer is active.
    pub dh_public: Option<Vec<u8>>,
    /// The sealed [`EncKdcRepPart`].
    pub enc_part: Vec<u8>,
}

impl AsRep {
    /// Serializes (framed).
    pub fn encode(&self, codec: Codec) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_opt_u64(self.challenge_r);
        e.put_opt_bytes(self.dh_public.as_deref());
        e.put_bytes(&self.enc_part);
        frame(WireKind::AsRep, codec.wrap(MsgType::AsRep, e.finish()))
    }

    /// Parses a framed AS reply.
    pub fn decode(codec: Codec, data: &[u8]) -> Result<AsRep, KrbError> {
        let (kind, body) = deframe(data)?;
        if kind != WireKind::AsRep {
            return Err(KrbError::Decode("not an AS reply"));
        }
        let body = codec.open(MsgType::AsRep, body)?;
        let mut d = Decoder::new(body);
        Ok(AsRep {
            challenge_r: d.field("challenge-r").take_opt_u64()?,
            dh_public: d.field("dh-public").take_opt_bytes()?,
            enc_part: d.field("enc-part").take_bytes()?,
        })
    }
}

/// KRB_TGS_REQ. The additional-tickets and authorization-data fields are
/// *outside* any encryption (the Draft 3 change attack A9 leans on),
/// protected only by the checksum sealed in the authenticator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TgsReq {
    /// The sealed ticket-granting ticket.
    pub tgt: Vec<u8>,
    /// The sealed authenticator (under the TGS session key), whose
    /// checksum covers [`TgsReq::checksum_body`].
    pub authenticator: Vec<u8>,
    /// The requested service.
    pub service: Principal,
    /// Request options.
    pub options: KdcOptions,
    /// Client nonce.
    pub nonce: u64,
    /// Requested lifetime, µs.
    pub lifetime_us: u64,
    /// Additional ticket (for ENC-TKT-IN-SKEY / REUSE-SKEY), sealed but
    /// NOT re-encrypted for transit.
    pub additional_ticket: Option<Vec<u8>>,
    /// Free-form authorization data — the attacker's CRC-patching
    /// scratch space in A9.
    pub authz_data: Vec<u8>,
    /// Address to bind a FORWARDED ticket to (the destination host).
    pub forward_addr: Option<u64>,
}

impl TgsReq {
    /// The bytes the authenticator's checksum must cover: everything in
    /// the request outside the encrypted authenticator itself.
    pub fn checksum_body(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        put_principal(&mut e, &self.service);
        e.put_u32(u32::from(self.options.0));
        e.put_u64(self.nonce).put_u64(self.lifetime_us);
        e.put_opt_bytes(self.additional_ticket.as_deref());
        e.put_opt_u64(self.forward_addr);
        e.put_bytes(&self.authz_data);
        e.finish()
    }

    /// Serializes (framed).
    pub fn encode(&self, codec: Codec) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_bytes(&self.tgt);
        e.put_bytes(&self.authenticator);
        put_principal(&mut e, &self.service);
        e.put_u32(u32::from(self.options.0));
        e.put_u64(self.nonce).put_u64(self.lifetime_us);
        e.put_opt_bytes(self.additional_ticket.as_deref());
        e.put_opt_u64(self.forward_addr);
        e.put_bytes(&self.authz_data);
        frame(WireKind::TgsReq, codec.wrap(MsgType::TgsReq, e.finish()))
    }

    /// Parses a framed TGS request.
    pub fn decode(codec: Codec, data: &[u8]) -> Result<TgsReq, KrbError> {
        let (kind, body) = deframe(data)?;
        if kind != WireKind::TgsReq {
            return Err(KrbError::Decode("not a TGS request"));
        }
        let body = codec.open(MsgType::TgsReq, body)?;
        let mut d = Decoder::new(body);
        let tgt = d.field("tgt").take_bytes()?;
        let authenticator = d.field("authenticator").take_bytes()?;
        let service = take_principal(d.field("service"))?;
        let options = KdcOptions(d.field("options").take_u32()? as u16);
        let nonce = d.field("nonce").take_u64()?;
        let lifetime_us = d.field("lifetime").take_u64()?;
        let additional_ticket = d.field("additional-ticket").take_opt_bytes()?;
        let forward_addr = d.field("forward-addr").take_opt_u64()?;
        let authz_data = d.field("authz-data").take_bytes()?;
        Ok(TgsReq {
            tgt,
            authenticator,
            service,
            options,
            nonce,
            lifetime_us,
            additional_ticket,
            forward_addr,
            authz_data,
        })
    }
}

/// KRB_TGS_REP (same wire shape as an AS reply, different tags).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TgsRep {
    /// The sealed [`EncKdcRepPart`] (under the TGS session key).
    pub enc_part: Vec<u8>,
}

impl TgsRep {
    /// Serializes (framed).
    pub fn encode(&self, codec: Codec) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_bytes(&self.enc_part);
        frame(WireKind::TgsRep, codec.wrap(MsgType::TgsRep, e.finish()))
    }

    /// Parses a framed TGS reply.
    pub fn decode(codec: Codec, data: &[u8]) -> Result<TgsRep, KrbError> {
        let (kind, body) = deframe(data)?;
        if kind != WireKind::TgsRep {
            return Err(KrbError::Decode("not a TGS reply"));
        }
        let body = codec.open(MsgType::TgsRep, body)?;
        let mut d = Decoder::new(body);
        Ok(TgsRep { enc_part: d.field("enc-part").take_bytes()? })
    }
}

/// KRB_AP_REQ: ticket + authenticator presented to an application
/// server.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ApReq {
    /// The sealed service ticket.
    pub ticket: Vec<u8>,
    /// The sealed authenticator (under the ticket's session key).
    /// Empty when the challenge/response option is in use — the client
    /// proves key possession interactively instead.
    pub authenticator: Vec<u8>,
    /// Whether the client wants mutual authentication.
    pub mutual: bool,
}

impl ApReq {
    /// Serializes (framed).
    pub fn encode(&self, codec: Codec) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_bytes(&self.ticket);
        e.put_bytes(&self.authenticator);
        e.put_u8(u8::from(self.mutual));
        frame(WireKind::ApReq, codec.wrap(MsgType::ApReq, e.finish()))
    }

    /// Parses a framed AP request.
    pub fn decode(codec: Codec, data: &[u8]) -> Result<ApReq, KrbError> {
        let (kind, body) = deframe(data)?;
        if kind != WireKind::ApReq {
            return Err(KrbError::Decode("not an AP request"));
        }
        let body = codec.open(MsgType::ApReq, body)?;
        let mut d = Decoder::new(body);
        Ok(ApReq {
            ticket: d.field("ticket").take_bytes()?,
            authenticator: d.field("authenticator").take_bytes()?,
            mutual: d.field("mutual").take_u8()? != 0,
        })
    }
}

/// The encrypted part of KRB_AP_REP.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EncApRepPart {
    /// `timestamp + 1` (V4 mutual auth) or the nonce echo.
    pub ts_echo: u64,
    /// Server's subkey contribution for session-key negotiation.
    pub subkey: Option<u64>,
    /// Server's initial sequence number.
    pub seq_init: Option<u64>,
}

impl EncApRepPart {
    /// Serializes (for sealing).
    pub fn encode(&self, codec: Codec) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(self.ts_echo);
        e.put_opt_u64(self.subkey);
        e.put_opt_u64(self.seq_init);
        codec.wrap(MsgType::EncApRepPart, e.finish())
    }

    /// Parses a decrypted AP reply part.
    pub fn decode(codec: Codec, data: &[u8]) -> Result<EncApRepPart, KrbError> {
        let body = codec.open(MsgType::EncApRepPart, data)?;
        let mut d = Decoder::new(body);
        Ok(EncApRepPart {
            ts_echo: d.field("ts-echo").take_u64()?,
            subkey: d.field("subkey").take_opt_u64()?,
            seq_init: d.field("seq-init").take_opt_u64()?,
        })
    }
}

/// KRB_AP_REP.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ApRep {
    /// The sealed [`EncApRepPart`].
    pub enc_part: Vec<u8>,
}

impl ApRep {
    /// Serializes (framed).
    pub fn encode(&self, codec: Codec) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_bytes(&self.enc_part);
        frame(WireKind::ApRep, codec.wrap(MsgType::ApRep, e.finish()))
    }

    /// Parses a framed AP reply.
    pub fn decode(codec: Codec, data: &[u8]) -> Result<ApRep, KrbError> {
        let (kind, body) = deframe(data)?;
        if kind != WireKind::ApRep {
            return Err(KrbError::Decode("not an AP reply"));
        }
        let body = codec.open(MsgType::ApRep, body)?;
        let mut d = Decoder::new(body);
        Ok(ApRep { enc_part: d.field("enc-part").take_bytes()? })
    }
}

/// Error codes in KRB_ERROR.
pub mod err_code {
    /// Generic failure.
    pub const GENERIC: u32 = 1;
    /// Unknown principal.
    pub const UNKNOWN_PRINCIPAL: u32 = 2;
    /// Preauthentication required.
    pub const PREAUTH_REQUIRED: u32 = 3;
    /// Preauthentication failed.
    pub const PREAUTH_FAILED: u32 = 4;
    /// Clock skew too great.
    pub const SKEW: u32 = 5;
    /// Replay detected.
    pub const REPLAY: u32 = 6;
    /// The server demands challenge/response (method data carries the
    /// challenge).
    pub const CHALLENGE_REQUIRED: u32 = 7;
    /// Policy refused the request.
    pub const POLICY: u32 = 8;
    /// Integrity check failed.
    pub const INTEGRITY: u32 = 9;
    /// Rate limit exceeded.
    pub const RATE_LIMITED: u32 = 10;
    /// Transient server condition (e.g. the fail-closed startup window
    /// after a restart): the client should retry with fresh material.
    pub const TRY_LATER: u32 = 11;
    /// The admission tier (gateway) refused the request under load:
    /// rate limit, full queue, or penalty window. The client should
    /// back off and retry; the refusal says nothing about its
    /// credentials or the KDC's state.
    pub const SERVER_BUSY: u32 = 12;
}

/// KRB_ERROR.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KrbErrorMsg {
    /// Error code (see [`err_code`]).
    pub code: u32,
    /// Human-readable text.
    pub text: String,
    /// Method data: the challenge nonce for CHALLENGE_REQUIRED (the
    /// `e-data` field of Draft 3's KRB_AP_ERR_METHOD).
    pub challenge: Option<u64>,
}

impl KrbErrorMsg {
    /// Serializes (framed).
    pub fn encode(&self, codec: Codec) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(self.code).put_str(&self.text);
        e.put_opt_u64(self.challenge);
        frame(WireKind::Err, codec.wrap(MsgType::KrbErr, e.finish()))
    }

    /// Parses a framed error.
    pub fn decode(codec: Codec, data: &[u8]) -> Result<KrbErrorMsg, KrbError> {
        let (kind, body) = deframe(data)?;
        if kind != WireKind::Err {
            return Err(KrbError::Decode("not an error message"));
        }
        let body = codec.open(MsgType::KrbErr, body)?;
        let mut d = Decoder::new(body);
        Ok(KrbErrorMsg {
            code: d.field("code").take_u32()?,
            text: d.field("text").take_str()?,
            challenge: d.field("challenge").take_opt_u64()?,
        })
    }
}

/// A server's refusal of a request: the KRB-ERROR code and text it
/// answers with. Exchange handlers return it through `?`; each server's
/// `Service::handle` is the one place that encodes it.
pub(crate) struct Refusal {
    pub(crate) code: u32,
    pub(crate) text: String,
}

impl Refusal {
    pub(crate) fn new(code: u32, text: impl Into<String>) -> Refusal {
        Refusal { code, text: text.into() }
    }

    /// The refusal of a datagram whose kind the server does not serve.
    pub(crate) fn unexpected_kind() -> Refusal {
        Refusal::new(err_code::GENERIC, "unexpected message kind")
    }

    pub(crate) fn encode(self, codec: Codec) -> Vec<u8> {
        KrbErrorMsg { code: self.code, text: self.text, challenge: None }.encode(codec)
    }
}

/// A failure no check classified refuses as GENERIC, with its own text.
impl From<KrbError> for Refusal {
    fn from(e: KrbError) -> Refusal {
        Refusal::new(err_code::GENERIC, e.to_string())
    }
}

impl From<krb_crypto::CryptoError> for Refusal {
    fn from(e: krb_crypto::CryptoError) -> Refusal {
        Refusal::new(err_code::GENERIC, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krb_crypto::checksum::ChecksumType;

    fn codecs() -> [Codec; 3] {
        [Codec::Legacy, Codec::Typed, Codec::Wire]
    }

    #[test]
    fn as_req_roundtrip() {
        for codec in codecs() {
            let m = AsReq {
                client: Principal::user("pat", "ATHENA"),
                service: Principal::tgs("ATHENA"),
                nonce: 0xabcdef,
                lifetime_us: 8 * 3600 * 1_000_000,
                addr: 0x0a000001,
                options: KdcOptions::empty().with(KdcOptions::FORWARDABLE),
                padata: vec![PaData::EncTimestamp(vec![1, 2, 3]), PaData::DhPublic(vec![9; 96])],
            };
            assert_eq!(AsReq::decode(codec, &m.encode(codec)).unwrap(), m);
        }
    }

    #[test]
    fn as_rep_roundtrip() {
        for codec in codecs() {
            let m = AsRep {
                challenge_r: Some(77),
                dh_public: Some(vec![4; 96]),
                enc_part: vec![0xaa; 40],
            };
            assert_eq!(AsRep::decode(codec, &m.encode(codec)).unwrap(), m);
        }
    }

    #[test]
    fn enc_kdc_rep_part_roundtrip() {
        for codec in codecs() {
            let p = EncKdcRepPart {
                session_key: DesKey::from_u64(0x1234),
                nonce: 9,
                ticket: vec![1, 2, 3],
                end_time: 100,
                server_time: 50,
                ticket_cksum: Some(Checksum { ctype: ChecksumType::Md4, value: vec![0; 16].into() }),
            };
            let enc = p.encode(codec, MsgType::EncAsRepPart);
            assert_eq!(EncKdcRepPart::decode(codec, MsgType::EncAsRepPart, &enc).unwrap(), p);
        }
    }

    #[test]
    fn tgs_req_roundtrip_and_checksum_body() {
        for codec in codecs() {
            let m = TgsReq {
                tgt: vec![1; 16],
                authenticator: vec![2; 24],
                service: Principal::service("nfs", "fs1", "ATHENA"),
                options: KdcOptions::empty().with(KdcOptions::ENC_TKT_IN_SKEY),
                nonce: 5,
                lifetime_us: 1_000_000,
                additional_ticket: Some(vec![3; 16]),
                forward_addr: Some(0x0a000002),
                authz_data: b"authz".to_vec(),
            };
            assert_eq!(TgsReq::decode(codec, &m.encode(codec)).unwrap(), m);
            // The checksum body must change when protected fields change.
            let mut m2 = m.clone();
            m2.options = KdcOptions::empty();
            assert_ne!(m.checksum_body(), m2.checksum_body());
            let mut m3 = m.clone();
            m3.additional_ticket = None;
            assert_ne!(m.checksum_body(), m3.checksum_body());
        }
    }

    #[test]
    fn ap_req_rep_roundtrip() {
        for codec in codecs() {
            let q = ApReq { ticket: vec![7; 8], authenticator: vec![8; 8], mutual: true };
            assert_eq!(ApReq::decode(codec, &q.encode(codec)).unwrap(), q);
            let p = EncApRepPart { ts_echo: 1001, subkey: Some(3), seq_init: None };
            assert_eq!(EncApRepPart::decode(codec, &p.encode(codec)).unwrap(), p);
            let r = ApRep { enc_part: p.encode(codec) };
            assert_eq!(ApRep::decode(codec, &r.encode(codec)).unwrap(), r);
        }
    }

    #[test]
    fn error_roundtrip() {
        for codec in codecs() {
            let e = KrbErrorMsg {
                code: err_code::CHALLENGE_REQUIRED,
                text: "challenge required".into(),
                challenge: Some(0xfeed),
            };
            assert_eq!(KrbErrorMsg::decode(codec, &e.encode(codec)).unwrap(), e);
        }
    }

    #[test]
    fn deframe_rejects_garbage() {
        assert!(deframe(&[]).is_err());
        assert!(deframe(&[200, 1, 2]).is_err());
    }

    #[test]
    fn kind_mismatch_rejected() {
        let m = AsReq {
            client: Principal::user("a", "R"),
            service: Principal::tgs("R"),
            nonce: 0,
            lifetime_us: 0,
            addr: 0,
            options: KdcOptions::empty(),
            padata: vec![],
        };
        let bytes = m.encode(Codec::Typed);
        assert!(TgsReq::decode(Codec::Typed, &bytes).is_err());
    }

    #[test]
    fn unknown_padata_carried_opaquely_under_wire() {
        let m = AsReq {
            client: Principal::user("pat", "ATHENA"),
            service: Principal::tgs("ATHENA"),
            nonce: 1,
            lifetime_us: 2,
            addr: 3,
            options: KdcOptions::empty(),
            padata: vec![PaData::EncTimestamp(vec![1, 2]), PaData::Unknown(0x2a, vec![9, 9, 9])],
        };
        let decoded = AsReq::decode(Codec::Wire, &m.encode(Codec::Wire)).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.padata[1].tag(), 0x2a);
    }

    #[test]
    fn unknown_padata_rejected_under_older_codecs() {
        for codec in [Codec::Legacy, Codec::Typed] {
            let m = AsReq {
                client: Principal::user("pat", "ATHENA"),
                service: Principal::tgs("ATHENA"),
                nonce: 1,
                lifetime_us: 2,
                addr: 3,
                options: KdcOptions::empty(),
                padata: vec![PaData::Unknown(0x2a, vec![9])],
            };
            let err = AsReq::decode(codec, &m.encode(codec)).unwrap_err();
            assert!(
                matches!(err, KrbError::DecodeAt { what: "unknown padata type", .. }),
                "{codec:?}: {err:?}"
            );
        }
    }

    #[test]
    fn truncated_padata_names_the_field() {
        let m = AsReq {
            client: Principal::user("pat", "ATHENA"),
            service: Principal::tgs("ATHENA"),
            nonce: 1,
            lifetime_us: 2,
            addr: 3,
            options: KdcOptions::empty(),
            padata: vec![PaData::DhPublic(vec![7; 32])],
        };
        // Chop into the pa-data value; Legacy has no envelope length so
        // the cut reaches the field decoder.
        let bytes = m.encode(Codec::Legacy);
        let err = AsReq::decode(Codec::Legacy, &bytes[..bytes.len() - 8]).unwrap_err();
        assert!(
            matches!(err, KrbError::DecodeAt { what: "truncated field", field: "padata", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn wirekind_tags_roundtrip() {
        for t in 1u8..=11 {
            assert_eq!(WireKind::from_u8(t).unwrap() as u8, t);
        }
        assert!(WireKind::from_u8(0).is_none());
        assert!(WireKind::from_u8(12).is_none());
    }
}
