//! A2 — the Morris '85 blind spoof, carried by a stolen live
//! authenticator.
//!
//! "He demonstrated that it was possible, under certain circumstances,
//! to spoof one half of a preauthenticated TCP connection without ever
//! seeing any responses from the targeted host. In a Kerberos
//! environment, his attack would still work if accompanied by a stolen
//! live authenticator, but not if a challenge/response protocol was
//! used."
//!
//! The victim service here is an rsh-like stream daemon: a 4.2BSD-style
//! predictable-ISN handshake, then a Kerberos AP request as the first
//! data, then plaintext commands. The attacker forges the victim's
//! source address end-to-end and **never reads a single reply**.

use crate::env::AttackEnv;
use crate::Outcome;
use kerberos::authenticator::Authenticator;
use kerberos::messages::{ApReq, KrbErrorMsg};
use kerberos::ticket::Ticket;
use kerberos::{AuthStyle, ProtocolConfig};
use krb_crypto::des::DesKey;
use krb_crypto::rng::{Drbg, RandomSource};
use simnet::stream::{IsnGenerator, Segment};
use simnet::{Endpoint, Service, ServiceCtx};
use std::collections::BTreeMap;

/// The port the kerberized stream daemon listens on.
const KSHD_PORT: u16 = 544;

/// Per-connection state of the stream daemon.
enum ConnState {
    SynReceived { server_isn: u32, client_isn: u32 },
    Established { server_isn: u32, next_seq: u32, authed: Option<kerberos::Principal> },
}

/// An rsh-like kerberized stream service with 4.2BSD ISNs.
pub struct KerbStreamDaemon {
    config: ProtocolConfig,
    principal: kerberos::Principal,
    service_key: DesKey,
    isn: IsnGenerator,
    conns: BTreeMap<Endpoint, ConnState>,
    rng: Drbg,
    /// Commands executed, with the authenticated principal and the
    /// (claimed) source.
    pub executed: Vec<(kerberos::Principal, Endpoint, String)>,
}

impl KerbStreamDaemon {
    fn new(config: ProtocolConfig, principal: kerberos::Principal, service_key: DesKey, seed: u64) -> Self {
        KerbStreamDaemon {
            config,
            principal,
            service_key,
            isn: IsnGenerator::new(5000),
            conns: BTreeMap::new(),
            rng: Drbg::new(seed),
            executed: Vec::new(),
        }
    }

    /// Verifies an AP request per the deployment's auth style. Returns
    /// the authenticated principal, or a challenge the (blind) peer
    /// would have to answer.
    fn verify_ap(&mut self, bytes: &[u8], from: Endpoint, now_us: u64) -> Result<kerberos::Principal, Vec<u8>> {
        let fail = |msg: &str| {
            Err(KrbErrorMsg { code: 1, text: msg.into(), challenge: None }.encode(self.config.codec))
        };
        let Ok(ap) = ApReq::decode(self.config.codec, bytes) else {
            return fail("bad AP request");
        };
        let Ok(ticket) =
            Ticket::unseal(self.config.codec, self.config.ticket_layer, &self.service_key, &ap.ticket)
        else {
            return fail("bad ticket");
        };
        if ticket.service != self.principal || !ticket.valid_at(now_us, self.config.clock_skew_us) {
            return fail("ticket invalid");
        }
        if let (true, Some(a)) = (self.config.address_in_ticket, ticket.addr) {
            if a != from.addr.0 {
                return fail("address mismatch");
            }
        }
        match self.config.auth_style {
            AuthStyle::ChallengeResponse => {
                // The blind spoofer never sees this challenge — and
                // could not answer it anyway.
                let nonce = self.rng.next_u64();
                Err(KrbErrorMsg {
                    code: kerberos::messages::err_code::CHALLENGE_REQUIRED,
                    text: "answer the challenge".into(),
                    challenge: Some(nonce),
                }
                .encode(self.config.codec))
            }
            AuthStyle::Timestamp => {
                let Ok(auth) = Authenticator::unseal(
                    self.config.codec,
                    self.config.ticket_layer,
                    &ticket.session_key,
                    &ap.authenticator,
                ) else {
                    return fail("bad authenticator");
                };
                if auth.timestamp.abs_diff(now_us) > self.config.clock_skew_us {
                    return fail("stale authenticator");
                }
                Ok(ticket.client)
            }
        }
    }
}

impl Service for KerbStreamDaemon {
    fn handle(&mut self, ctx: &mut ServiceCtx, req: &[u8], from: Endpoint) -> Option<Vec<u8>> {
        let seg = Segment::decode(req)?;
        match seg {
            Segment::Syn { isn } => {
                let server_isn = self.isn.next(ctx.local_time);
                self.conns.insert(from, ConnState::SynReceived { server_isn, client_isn: isn });
                Some(Segment::SynAck { isn: server_isn, ack: isn.wrapping_add(1) }.encode())
            }
            Segment::Ack { seq, ack } => match self.conns.get(&from) {
                Some(&ConnState::SynReceived { server_isn, client_isn })
                    if ack == server_isn.wrapping_add(1) && seq == client_isn.wrapping_add(1) =>
                {
                    self.conns.insert(
                        from,
                        ConnState::Established { server_isn, next_seq: seq, authed: None },
                    );
                    None
                }
                _ => Some(Segment::Rst.encode()),
            },
            Segment::Data { seq, ack, payload } => {
                let Some(ConnState::Established { server_isn, next_seq, authed }) = self.conns.get_mut(&from)
                else {
                    return Some(Segment::Rst.encode());
                };
                if seq != *next_seq || ack != server_isn.wrapping_add(1) {
                    return Some(Segment::Rst.encode());
                }
                *next_seq = next_seq.wrapping_add(payload.len() as u32);
                match authed.clone() {
                    None => {
                        // First data must be the AP request.
                        match self.verify_ap(&payload, from, ctx.local_time.0) {
                            Ok(p) => {
                                if let Some(ConnState::Established { authed, .. }) =
                                    self.conns.get_mut(&from)
                                {
                                    *authed = Some(p);
                                }
                                Some(Segment::Data { seq: 0, ack: 0, payload: b"AUTH-OK".to_vec() }.encode())
                            }
                            Err(err_bytes) => {
                                Some(Segment::Data { seq: 0, ack: 0, payload: err_bytes }.encode())
                            }
                        }
                    }
                    Some(principal) => {
                        self.executed.push((
                            principal,
                            from,
                            String::from_utf8_lossy(&payload).into_owned(),
                        ));
                        Some(Segment::Data { seq: 0, ack: 0, payload: b"DONE".to_vec() }.encode())
                    }
                }
            }
            _ => None,
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);

    // Bind the stream daemon on the files host (same service
    // principal and key).
    let files_host = env.realm.service_hosts["files"];
    let daemon = KerbStreamDaemon::new(
        config.clone(),
        env.realm.service("files"),
        env.realm.service_keys["files"],
        seed ^ 0xdae0,
    );
    env.net.host_mut(files_host).bind(KSHD_PORT, Box::new(daemon));
    let daemon_ep = Endpoint::new(env.realm.service_ep("files").addr, KSHD_PORT);
    let victim_ep = env.realm.user_ep("pat");

    // The victim runs one legitimate session: handshake, AP request,
    // a command. The wiretap observes the server's ISN and the AP
    // request bytes.
    let tgt = match env.login("pat") {
        Ok(t) => t,
        Err(e) => return Outcome::safe(format!("victim login failed: {e}")),
    };
    let st = match env.ticket("pat", &tgt, "files") {
        Ok(t) => t,
        Err(e) => return Outcome::safe(format!("victim ticket failed: {e}")),
    };
    let client_isn = 777u32;
    let synack = match env
        .net
        .rpc(victim_ep, daemon_ep, Segment::Syn { isn: client_isn }.encode())
    {
        Ok(r) => r,
        Err(e) => return Outcome::safe(format!("victim SYN failed: {e}")),
    };
    let Some(Segment::SynAck { isn: observed_isn, .. }) = Segment::decode(&synack) else {
        return Outcome::safe("no SYN-ACK");
    };
    let observed_at = env.net.now();
    let _ = env.net.send_oneway(
        victim_ep,
        daemon_ep,
        Segment::Ack { seq: client_isn + 1, ack: observed_isn + 1 }.encode(),
    );
    // Victim's AP request as first data.
    let now = kerberos::client::client_local_time_us(&env.net, victim_ep).unwrap_or(0);
    let auth = Authenticator::basic(env.user("pat"), victim_ep.addr.0, now);
    let sealed_auth = auth
        .seal(config.codec, config.ticket_layer, &st.session_key, &mut env.rng)
        .expect("seal authenticator");
    let ap = ApReq { ticket: st.sealed_ticket.clone(), authenticator: sealed_auth, mutual: false };
    let ap_bytes = ap.encode(config.codec);
    let _ = env.net.send_oneway(
        victim_ep,
        daemon_ep,
        Segment::Data { seq: client_isn + 1, ack: observed_isn + 1, payload: ap_bytes.clone() }.encode(),
    );

    // === The blind spoof ===
    // The attacker reconstructs the ISN discipline from the single
    // observed ISN, forges the victim's address on a new port, and
    // never reads a reply (send_oneway throughout).
    let predictor = {
        // observed_isn = base + 128*t + 64*n, with n = 1 at the
        // observation; recover base.
        let t = (observed_at.0 / 1_000_000) as u32;
        let base = observed_isn.wrapping_sub(t.wrapping_mul(128)).wrapping_sub(64);
        IsnGenerator::new(base)
    };
    // A few tries bracket any second-boundary slip, exactly as
    // Morris's attacker would retry; each try is a complete blind
    // handshake from a fresh spoofed port.
    for (attempt, slip) in [0i64, 128, -128].into_iter().enumerate() {
        let spoofed_ep = Endpoint::new(victim_ep.addr, 9999 + attempt as u16);
        let my_isn = 31337u32.wrapping_add(attempt as u32);
        let _ = env
            .net
            .send_oneway(spoofed_ep, daemon_ep, Segment::Syn { isn: my_isn }.encode());
        // This SYN was the daemon's (2 + attempt)-th connection.
        let predicted = predictor
            .predict(env.net.now(), 2 + attempt as u32)
            .wrapping_add(slip as u32);
        let _ = env.net.send_oneway(
            spoofed_ep,
            daemon_ep,
            Segment::Ack { seq: my_isn + 1, ack: predicted.wrapping_add(1) }.encode(),
        );
        // Replay the stolen authenticator as the first data, blind.
        let mut seq = my_isn + 1;
        let _ = env.net.send_oneway(
            spoofed_ep,
            daemon_ep,
            Segment::Data { seq, ack: predicted.wrapping_add(1), payload: ap_bytes.clone() }.encode(),
        );
        seq = seq.wrapping_add(ap_bytes.len() as u32);
        // And the command.
        let cmd = b"rm -rf /archive".to_vec();
        let _ = env.net.send_oneway(
            spoofed_ep,
            daemon_ep,
            Segment::Data { seq, ack: predicted.wrapping_add(1), payload: cmd }.encode(),
        );
    }

    // Forensics: did the daemon execute the attacker's command as
    // pat, from the spoofed connection?
    let executed = {
        let svc = env
            .net
            .host_mut(files_host)
            .service_mut(KSHD_PORT)
            .and_then(|s| s.as_any_mut())
            .and_then(|a| a.downcast_mut::<KerbStreamDaemon>())
            .map(|d| d.executed.clone())
            .unwrap_or_default();
        svc
    };
    let hit = executed
        .iter()
        .find(|(p, from, cmd)| p.name == "pat" && from.addr == victim_ep.addr && from.port >= 9999 && cmd.contains("rm -rf"));
    match hit {
        Some((_, _, cmd)) => Outcome::breach(format!(
            "blind-spoofed connection ran {cmd:?} as pat without seeing one reply"
        )),
        None => Outcome::safe("blind spoof did not achieve command execution"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_configs_fall_to_blind_spoof() {
        let r = run(&ProtocolConfig::v4(), 1);
        assert!(r.succeeded, "{}", r.evidence);
        assert!(run(&ProtocolConfig::v5_draft3(), 1).succeeded);
    }

    #[test]
    fn challenge_response_blocks_it() {
        assert!(!run(&ProtocolConfig::hardened(), 1).succeeded);
    }

    #[test]
    fn challenge_response_alone_blocks_it_even_on_v4() {
        let mut config = ProtocolConfig::v4();
        config.auth_style = AuthStyle::ChallengeResponse;
        assert!(!run(&config, 2).succeeded);
    }

}
