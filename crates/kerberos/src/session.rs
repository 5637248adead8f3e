//! Authenticated sessions: KRB_SAFE and KRB_PRIV message processing.
//!
//! The encrypted part of a Draft-3 KRB_PRIV message "has the form
//! X = (DATA, timestamp+direction, hostaddress, PAD)" — data first, which
//! is what gives the chosen-plaintext splice (A7) its purchase. The
//! hardened discipline instead uses the separated encryption layer with
//! per-message chained IVs and sequence numbers (appendix
//! recommendations).

use crate::config::{Freshness, ProtocolConfig};
use crate::enclayer::EncLayer;
use crate::encoding::{be_array, len_u32};
use crate::error::KrbError;
use crate::messages::{frame, WireKind};
use crate::principal::Principal;
use krb_crypto::checksum::{self, Checksum};
use krb_crypto::des::{DesKey, ScheduledKey};
use krb_crypto::rng::RandomSource;
use std::collections::BTreeSet;

/// Direction of a session message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Client to server.
    ClientToServer = 0,
    /// Server to client.
    ServerToClient = 1,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::ClientToServer => Direction::ServerToClient,
            Direction::ServerToClient => Direction::ClientToServer,
        }
    }
}

/// The plaintext of a KRB_PRIV encrypted part (Draft-3 layout).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PrivPart {
    /// Application data.
    pub data: Vec<u8>,
    /// Timestamp (µs) or sequence number, per the freshness mechanism.
    pub ts_or_seq: u64,
    /// Message direction.
    pub direction: Direction,
    /// Sender address.
    pub addr: u32,
}

/// Encodes the Draft-3 data-first layout:
/// `[DATA][ts u64][dir u8][addr u32][pad][len u32]`, padded so the total
/// is block-aligned with the length word in the final four bytes.
pub fn encode_priv_draft3(part: &PrivPart) -> Vec<u8> {
    let mut v = part.data.clone();
    v.extend_from_slice(&part.ts_or_seq.to_be_bytes());
    v.push(part.direction as u8);
    v.extend_from_slice(&part.addr.to_be_bytes());
    while !(v.len() + 4).is_multiple_of(8) {
        v.push(0);
    }
    v.extend_from_slice(&len_u32(part.data.len()).to_be_bytes());
    v
}

/// Decodes the Draft-3 layout.
pub fn decode_priv_draft3(pt: &[u8]) -> Result<PrivPart, KrbError> {
    if pt.len() < 4 + 13 {
        return Err(KrbError::Decode("priv part too short"));
    }
    let len = u32::from_be_bytes(be_array::<4>(&pt[pt.len() - 4..])) as usize;
    if len + 13 + 4 > pt.len() {
        return Err(KrbError::Decode("priv length out of range"));
    }
    let data = pt[..len].to_vec();
    let mut off = len;
    let ts_or_seq = u64::from_be_bytes(be_array::<8>(&pt[off..off + 8]));
    off += 8;
    let direction = match pt[off] {
        0 => Direction::ClientToServer,
        1 => Direction::ServerToClient,
        _ => return Err(KrbError::Decode("bad direction")),
    };
    off += 1;
    let addr = u32::from_be_bytes(be_array::<4>(&pt[off..off + 4]));
    Ok(PrivPart { data, ts_or_seq, direction, addr })
}

/// Encodes the hardened layout (length-framed fields; the layer adds its
/// own framing and MAC).
pub fn encode_priv_hardened(part: &PrivPart) -> Vec<u8> {
    let mut v = len_u32(part.data.len()).to_be_bytes().to_vec();
    v.extend_from_slice(&part.data);
    v.extend_from_slice(&part.ts_or_seq.to_be_bytes());
    v.push(part.direction as u8);
    v.extend_from_slice(&part.addr.to_be_bytes());
    v
}

/// Decodes the hardened layout.
pub fn decode_priv_hardened(pt: &[u8]) -> Result<PrivPart, KrbError> {
    if pt.len() < 4 {
        return Err(KrbError::Decode("priv part too short"));
    }
    let len = u32::from_be_bytes(be_array::<4>(&pt[..4])) as usize;
    if 4 + len + 13 > pt.len() {
        return Err(KrbError::Decode("priv length out of range"));
    }
    let data = pt[4..4 + len].to_vec();
    let mut off = 4 + len;
    let ts_or_seq = u64::from_be_bytes(be_array::<8>(&pt[off..off + 8]));
    off += 8;
    let direction = match pt[off] {
        0 => Direction::ClientToServer,
        1 => Direction::ServerToClient,
        _ => return Err(KrbError::Decode("bad direction")),
    };
    off += 1;
    let addr = u32::from_be_bytes(be_array::<4>(&pt[off..off + 4]));
    Ok(PrivPart { data, ts_or_seq, direction, addr })
}

/// A parsed KRB_SAFE body: the cleartext part plus its checksum trailer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SafeFrame {
    /// The cleartext part (hardened length-framed layout).
    pub part: PrivPart,
    /// Raw checksum-type tag byte from the trailer.
    pub cksum_tag: u8,
    /// Checksum value from the trailer.
    pub cksum: Vec<u8>,
}

impl SafeFrame {
    /// Byte length of the part prefix the checksum covers.
    pub fn covered_len(&self) -> usize {
        4 + self.part.data.len() + 8 + 1 + 4
    }

    /// Re-encodes the body (part followed by `[tag][len u32][cksum]`
    /// trailer) — the exact inverse of [`parse_safe_body`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = encode_priv_hardened(&self.part);
        out.push(self.cksum_tag);
        out.extend_from_slice(&len_u32(self.cksum.len()).to_be_bytes());
        out.extend_from_slice(&self.cksum);
        out
    }
}

/// Total parser for a KRB_SAFE body (everything after the wire frame
/// header): `[hardened priv part][tag u8][len u32][cksum]`. Returns a
/// typed error on every malformed input — never panics, never indexes
/// past the slice.
pub fn parse_safe_body(body: &[u8]) -> Result<SafeFrame, KrbError> {
    let part = decode_priv_hardened(body)?;
    let mut off = 4 + part.data.len() + 8 + 1 + 4;
    let tag = *body.get(off).ok_or(KrbError::Decode("safe trailer missing"))?;
    off += 1;
    let clen = u32::from_be_bytes(be_array::<4>(
        body.get(off..off + 4).ok_or(KrbError::Decode("safe trailer truncated"))?,
    )) as usize;
    off += 4;
    let cksum =
        body.get(off..off + clen).ok_or(KrbError::Decode("safe checksum truncated"))?.to_vec();
    if off + clen != body.len() {
        return Err(KrbError::Decode("safe trailing bytes"));
    }
    Ok(SafeFrame { part, cksum_tag: tag, cksum })
}

/// One endpoint's view of an authenticated session.
pub struct Session {
    /// Peer identity (for application logic).
    pub peer: Principal,
    /// The working key: the multi-session key, or the negotiated true
    /// session key when subkeys are in use.
    pub key: DesKey,
    /// Which freshness mechanism is active.
    pub freshness: Freshness,
    /// Clock-skew limit, µs (timestamp mode).
    pub skew_us: u64,
    /// Which direction this endpoint sends in.
    pub send_dir: Direction,
    layer: EncLayer,
    /// The working key with its schedule expanded once at session
    /// establishment — every seal/open on this session reuses it.
    skey: ScheduledKey,
    /// Timestamp mode: recently-seen values (grows with traffic — E7
    /// measures this).
    recent: BTreeSet<u64>,
    /// Sequence mode: next sequence number to send.
    send_seq: u64,
    /// Sequence mode: next expected receive sequence number.
    recv_seq: u64,
    /// Messages rejected (for attack evidence).
    pub rejected: u64,
}

impl Session {
    /// Creates a session endpoint.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        peer: Principal,
        key: DesKey,
        config: &ProtocolConfig,
        send_dir: Direction,
        send_seq: u64,
        recv_seq: u64,
    ) -> Self {
        Session {
            peer,
            key,
            freshness: config.freshness,
            skew_us: config.clock_skew_us,
            send_dir,
            layer: config.priv_layer,
            skey: ScheduledKey::new(key),
            recent: BTreeSet::new(),
            send_seq,
            recv_seq,
            rejected: 0,
        }
    }

    /// Negotiates the true session key from the multi-session key and
    /// both subkey contributions (appendix: "an exclusive-or of the
    /// multisession key ... a randomly-generated field in the
    /// authenticator, and a similar field in the reply message").
    pub fn negotiate_key(multi: &DesKey, client_subkey: u64, server_subkey: u64) -> DesKey {
        DesKey::from_u64(multi.to_u64() ^ client_subkey ^ server_subkey).with_odd_parity()
    }

    /// Seals application data as a KRB_PRIV wire message. `now_us` is
    /// the sender's local clock (ignored in sequence mode).
    pub fn send_priv(
        &mut self,
        data: &[u8],
        now_us: u64,
        my_addr: u32,
        rng: &mut dyn RandomSource,
    ) -> Result<Vec<u8>, KrbError> {
        let ts_or_seq = self.next_stamp(now_us);
        let iv = match self.freshness {
            Freshness::Timestamp => 0,
            Freshness::SequenceNumbers => ts_or_seq,
        };
        let part = PrivPart { data: data.to_vec(), ts_or_seq, direction: self.send_dir, addr: my_addr };
        let pt = match self.layer {
            EncLayer::HardenedCbc => encode_priv_hardened(&part),
            _ => encode_priv_draft3(&part),
        };
        let sealed = self.layer.seal_with(&self.skey, iv, &pt, rng)?;
        Ok(frame(WireKind::Priv, sealed))
    }

    /// Opens a received KRB_PRIV wire message and applies the freshness
    /// and direction checks.
    pub fn recv_priv(&mut self, wire: &[u8], now_us: u64) -> Result<Vec<u8>, KrbError> {
        let (kind, sealed) = crate::messages::deframe(wire)?;
        if kind != WireKind::Priv {
            return Err(KrbError::Decode("not a KRB_PRIV message"));
        }
        let iv = match self.freshness {
            Freshness::Timestamp => 0,
            Freshness::SequenceNumbers => self.recv_seq,
        };
        let pt = self.layer.open_with(&self.skey, iv, sealed).inspect_err(|_| {
            self.rejected += 1;
        })?;
        let part = match self.layer {
            EncLayer::HardenedCbc => decode_priv_hardened(&pt),
            _ => decode_priv_draft3(&pt),
        }
        .inspect_err(|_| {
            self.rejected += 1;
        })?;

        self.check_fresh(&part, now_us)?;
        Ok(part.data)
    }

    /// Seals application data as a KRB_SAFE wire message (integrity
    /// only; data travels in the clear).
    pub fn send_safe(
        &mut self,
        data: &[u8],
        now_us: u64,
        my_addr: u32,
        config: &ProtocolConfig,
    ) -> Result<Vec<u8>, KrbError> {
        let ts_or_seq = self.next_stamp(now_us);
        let part = PrivPart { data: data.to_vec(), ts_or_seq, direction: self.send_dir, addr: my_addr };
        let body = encode_priv_hardened(&part);
        let key_opt = config.checksum.is_keyed().then_some(&self.key);
        let cksum = checksum::compute(config.checksum, key_opt, &body)?;
        let mut out = body;
        out.push(crate::authenticator::checksum_tag(config.checksum));
        out.extend_from_slice(&len_u32(cksum.value.len()).to_be_bytes());
        out.extend_from_slice(&cksum.value);
        Ok(frame(WireKind::Safe, out))
    }

    /// Opens a KRB_SAFE wire message.
    pub fn recv_safe(&mut self, wire: &[u8], now_us: u64, config: &ProtocolConfig) -> Result<Vec<u8>, KrbError> {
        let (kind, body) = crate::messages::deframe(wire)?;
        if kind != WireKind::Safe {
            return Err(KrbError::Decode("not a KRB_SAFE message"));
        }
        let frame = parse_safe_body(body).inspect_err(|_| {
            self.rejected += 1;
        })?;
        let part = frame.part.clone();
        let ctype = crate::authenticator::checksum_from_tag(frame.cksum_tag)?;
        if ctype != config.checksum {
            self.rejected += 1;
            return Err(KrbError::BadChecksum);
        }
        let key_opt = ctype.is_keyed().then_some(&self.key);
        let claimed = Checksum { ctype, value: frame.cksum.clone().into() };
        if checksum::verify(&claimed, key_opt, &body[..frame.covered_len()]).is_err() {
            self.rejected += 1;
            return Err(KrbError::BadChecksum);
        }

        self.check_fresh(&part, now_us)?;
        Ok(part.data)
    }

    /// Timestamp-cache size (state cost, E7).
    pub fn timestamp_cache_entries(&self) -> usize {
        self.recent.len()
    }

    /// The freshness stamp of the next KRB_PRIV or KRB_SAFE message:
    /// the sender's clock, or the next send sequence number (consumed).
    fn next_stamp(&mut self, now_us: u64) -> u64 {
        match self.freshness {
            Freshness::Timestamp => now_us,
            Freshness::SequenceNumbers => {
                let s = self.send_seq;
                self.send_seq = self.send_seq.wrapping_add(1);
                s
            }
        }
    }

    /// The direction and freshness checks every received KRB_PRIV and
    /// KRB_SAFE message must pass: it travels the peer's way, and its
    /// timestamp is within the skew and unseen, or its sequence number
    /// is the next one expected.
    fn check_fresh(&mut self, part: &PrivPart, now_us: u64) -> Result<(), KrbError> {
        if part.direction != self.send_dir.flip() {
            self.rejected += 1;
            return Err(KrbError::Decode("wrong direction"));
        }
        match self.freshness {
            Freshness::Timestamp => {
                if part.ts_or_seq.abs_diff(now_us) > self.skew_us {
                    self.rejected += 1;
                    return Err(KrbError::SkewExceeded {
                        diff_us: part.ts_or_seq.abs_diff(now_us),
                        limit_us: self.skew_us,
                    });
                }
                if !self.recent.insert(part.ts_or_seq) {
                    self.rejected += 1;
                    return Err(KrbError::Replay);
                }
            }
            Freshness::SequenceNumbers => {
                if part.ts_or_seq != self.recv_seq {
                    self.rejected += 1;
                    return Err(KrbError::Replay);
                }
                self.recv_seq = self.recv_seq.wrapping_add(1);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use krb_crypto::rng::Drbg;

    fn pair(config: &ProtocolConfig) -> (Session, Session) {
        let key = DesKey::from_u64(0x2468ACE013579BDF).with_odd_parity();
        let client = Session::new(
            Principal::service("svc", "host", "R"),
            key,
            config,
            Direction::ClientToServer,
            100,
            500,
        );
        let server =
            Session::new(Principal::user("pat", "R"), key, config, Direction::ServerToClient, 500, 100);
        (client, server)
    }

    #[test]
    fn priv_roundtrip_all_configs() {
        let mut rng = Drbg::new(1);
        for config in ProtocolConfig::presets() {
            let (mut c, mut s) = pair(&config);
            let wire = c.send_priv(b"ls /mail", 1_000_000, 7, &mut rng).unwrap();
            let got = s.recv_priv(&wire, 1_000_100).unwrap();
            assert_eq!(got, b"ls /mail", "config {}", config.name);
            // And the reply direction.
            let wire = s.send_priv(b"inbox: 3 messages", 1_000_200, 9, &mut rng).unwrap();
            assert_eq!(c.recv_priv(&wire, 1_000_300).unwrap(), b"inbox: 3 messages");
        }
    }

    #[test]
    fn safe_roundtrip_all_configs() {
        for config in ProtocolConfig::presets() {
            let (mut c, mut s) = pair(&config);
            let wire = c.send_safe(b"balance?", 5_000, 7, &config).unwrap();
            assert_eq!(s.recv_safe(&wire, 5_100, &config).unwrap(), b"balance?");
        }
    }

    #[test]
    fn safe_without_trailer_is_rejected_not_a_panic() {
        // A valid part with the checksum trailer sliced off used to
        // index past the body (`body[off]`); the total parser rejects.
        let config = ProtocolConfig::hardened();
        let (_c, mut s) = pair(&config);
        let part = PrivPart {
            data: b"naked".to_vec(),
            ts_or_seq: 100,
            direction: Direction::ClientToServer,
            addr: 7,
        };
        let wire = frame(WireKind::Safe, encode_priv_hardened(&part));
        assert!(s.recv_safe(&wire, 5_000, &config).is_err());
        assert!(parse_safe_body(&encode_priv_hardened(&part)).is_err());
    }

    #[test]
    fn safe_body_parser_roundtrips() {
        let config = ProtocolConfig::hardened();
        let (mut c, _s) = pair(&config);
        let wire = c.send_safe(b"pay alice 10", 5_000, 7, &config).unwrap();
        let (_, body) = crate::messages::deframe(&wire).unwrap();
        let parsed = parse_safe_body(body).unwrap();
        assert_eq!(parsed.part.data, b"pay alice 10");
        assert_eq!(parsed.encode(), body);
    }

    #[test]
    fn safe_detects_tampering_with_strong_checksum() {
        let config = ProtocolConfig::hardened();
        let (mut c, mut s) = pair(&config);
        let mut wire = c.send_safe(b"pay alice 10", 5_000, 7, &config).unwrap();
        // Flip a data byte ("alice" -> "alicf").
        let idx = wire.windows(5).position(|w| w == b"alice").unwrap() + 4;
        wire[idx] ^= 1;
        assert!(s.recv_safe(&wire, 5_100, &config).is_err());
    }

    #[test]
    fn priv_replay_rejected_within_session() {
        let mut rng = Drbg::new(2);
        for config in ProtocolConfig::presets() {
            let (mut c, mut s) = pair(&config);
            let wire = c.send_priv(b"cmd", 1_000, 7, &mut rng).unwrap();
            s.recv_priv(&wire, 1_100).unwrap();
            assert!(s.recv_priv(&wire, 1_200).is_err(), "config {}", config.name);
        }
    }

    #[test]
    fn cross_stream_replay_succeeds_with_shared_key_timestamps() {
        // A13: two sessions share the multi-session key (no subkey
        // negotiation) and use timestamps. A message from session 1
        // replays into session 2: each session's cache is private.
        let mut rng = Drbg::new(3);
        let config = ProtocolConfig::v5_draft3();
        let (mut c1, _s1) = pair(&config);
        let (_c2, mut s2) = pair(&config);
        let wire = c1.send_priv(b"delete archive", 1_000, 7, &mut rng).unwrap();
        // Replayed into the *other* session: accepted.
        assert_eq!(s2.recv_priv(&wire, 1_100).unwrap(), b"delete archive");
    }

    #[test]
    fn cross_stream_replay_fails_with_sequence_numbers() {
        let mut rng = Drbg::new(4);
        let config = ProtocolConfig::hardened();
        let key = DesKey::from_u64(0x2468ACE013579BDF).with_odd_parity();
        // Two sessions with distinct random initial sequence numbers, as
        // negotiated per-session.
        let mut c1 =
            Session::new(Principal::user("x", "R"), key, &config, Direction::ClientToServer, 1000, 1);
        let mut s2 =
            Session::new(Principal::user("x", "R"), key, &config, Direction::ServerToClient, 1, 7777);
        let wire = c1.send_priv(b"delete archive", 1_000, 7, &mut rng).unwrap();
        assert!(s2.recv_priv(&wire, 1_100).is_err());
    }

    #[test]
    fn stale_timestamp_rejected() {
        let mut rng = Drbg::new(5);
        let config = ProtocolConfig::v4();
        let (mut c, mut s) = pair(&config);
        let wire = c.send_priv(b"old", 1_000_000, 7, &mut rng).unwrap();
        // Received 10 minutes later: outside the 5-minute skew.
        assert!(matches!(
            s.recv_priv(&wire, 1_000_000 + 600_000_000),
            Err(KrbError::SkewExceeded { .. })
        ));
    }

    #[test]
    fn sequence_gap_detected() {
        let mut rng = Drbg::new(6);
        let config = ProtocolConfig::hardened();
        let (mut c, mut s) = pair(&config);
        let w1 = c.send_priv(b"one", 0, 7, &mut rng).unwrap();
        let w2 = c.send_priv(b"two", 0, 7, &mut rng).unwrap();
        // Drop w1; w2 arrives with an unexpected sequence number —
        // deletion is *detected*, which timestamps cannot do.
        drop(w1);
        assert!(s.recv_priv(&w2, 100).is_err());
    }

    #[test]
    fn negotiated_key_mixes_all_contributions() {
        let multi = DesKey::from_u64(0xAAAA).with_odd_parity();
        // Note: DES parity occupies bit 0 of each byte, so contributions
        // must differ above the parity bits to yield distinct keys (real
        // subkeys are random u64s, where this is overwhelmingly likely).
        let k1 = Session::negotiate_key(&multi, 0x0200, 0x0400);
        let k2 = Session::negotiate_key(&multi, 0x0200, 0x0800);
        let k3 = Session::negotiate_key(&multi, 0x1000, 0x0400);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        // Compatibility: zero subkeys give back (reparitied) multi key.
        assert_eq!(Session::negotiate_key(&multi, 0, 0), multi.with_odd_parity());
    }

    #[test]
    fn draft3_layout_roundtrip() {
        for dlen in [0usize, 1, 7, 8, 9, 100] {
            let part = PrivPart {
                data: vec![0x5a; dlen],
                ts_or_seq: 123_456,
                direction: Direction::ServerToClient,
                addr: 0x0a000001,
            };
            let enc = encode_priv_draft3(&part);
            assert_eq!(enc.len() % 8, 0, "dlen {dlen}");
            assert_eq!(decode_priv_draft3(&enc).unwrap(), part);
        }
    }

    #[test]
    fn timestamp_cache_grows_sequence_does_not() {
        let mut rng = Drbg::new(7);
        let ts_cfg = ProtocolConfig::v5_draft3();
        let seq_cfg = ProtocolConfig::hardened();
        let (mut c1, mut s1) = pair(&ts_cfg);
        let (mut c2, mut s2) = pair(&seq_cfg);
        for i in 0..100u64 {
            let w = c1.send_priv(b"m", 1_000 + i, 7, &mut rng).unwrap();
            s1.recv_priv(&w, 1_000 + i).unwrap();
            let w = c2.send_priv(b"m", 1_000 + i, 7, &mut rng).unwrap();
            s2.recv_priv(&w, 1_000 + i).unwrap();
        }
        assert_eq!(s1.timestamp_cache_entries(), 100);
        assert_eq!(s2.timestamp_cache_entries(), 0);
    }
}
