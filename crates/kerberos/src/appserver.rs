//! Application servers: AP-exchange verification, session establishment,
//! and command dispatch — plus the client-side connection flow.

use crate::authenticator::Authenticator;
use crate::client::{client_local_time_us, Credential};
use crate::config::{AppProtection, AuthStyle, ProtocolConfig, RetryPolicy};
use crate::error::KrbError;
use crate::flags::TicketFlags;
use crate::messages::{
    deframe, err_code, frame, ApRep, ApReq, EncApRepPart, KrbErrorMsg, Refusal, WireKind,
};
use crate::principal::Principal;
use crate::replay_cache::{CacheVerdict, DurableCache, ReplayCache};
use crate::retry::{self, reply_transient};
use crate::session::{Direction, Session};
use crate::ticket::Ticket;
use krb_crypto::des::{DesKey, ScheduledKey};
use krb_crypto::rng::{Drbg, RandomSource};
use krb_trace::{EventKind, Tracer, Value, ValueRef};
use simnet::{Endpoint, NetError, Network, Service, ServiceCtx, SimDuration};
use std::collections::BTreeMap;

/// Application behavior behind the authentication layer.
pub trait AppLogic {
    /// Handles one authenticated command from `client`; returns the
    /// reply payload.
    fn on_command(&mut self, client: &Principal, cmd: &[u8]) -> Vec<u8>;

    /// Downcast support for test and attack forensics.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// A kerberized application server bound to one port.
pub struct AppServer {
    /// Deployment configuration.
    pub config: ProtocolConfig,
    /// This service's principal.
    pub principal: Principal,
    service_key: ScheduledKey,
    rng: Drbg,
    /// The authenticator replay cache, persisted if so configured.
    replay_cache: DurableCache,
    /// Challenge/response state: peer -> (nonce, ticket).
    pending: BTreeMap<Endpoint, (u64, Ticket)>,
    /// Established sessions by peer endpoint.
    pub sessions: BTreeMap<Endpoint, Session>,
    /// Plain-mode authorization: endpoint -> authenticated principal.
    authorized: BTreeMap<Endpoint, Principal>,
    /// Application behavior.
    pub logic: Box<dyn AppLogic>,
    /// Accepted AP exchanges per client: one entry per client that
    /// ever authenticated, so spoofed and malformed datagrams add
    /// nothing. Rejections go to the trace only (`ap.rejected`).
    accepted: BTreeMap<Principal, usize>,
    /// Restarts observed (crash windows ridden out).
    pub restarts: u32,
    /// The network's tracer, refreshed from the service context on
    /// every dispatch (see [`crate::kdc::Kdc`] for the pattern).
    trace: Tracer,
    /// Network true time at dispatch, µs — the timestamp events carry.
    trace_now_us: u64,
}

impl AppServer {
    /// Builds a server for `principal` holding `service_key`.
    pub fn new(
        config: ProtocolConfig,
        principal: Principal,
        service_key: DesKey,
        logic: Box<dyn AppLogic>,
        rng_seed: u64,
    ) -> Self {
        let replay_cache = DurableCache::new(config.clock_skew_us, config.persist_replay_cache);
        AppServer {
            config,
            principal,
            service_key: ScheduledKey::new(service_key),
            rng: Drbg::new(rng_seed),
            replay_cache,
            pending: BTreeMap::new(),
            sessions: BTreeMap::new(),
            authorized: BTreeMap::new(),
            logic,
            accepted: BTreeMap::new(),
            restarts: 0,
            trace: Tracer::new(),
            trace_now_us: 0,
        }
    }

    /// Count of accepted authentications for a given client name (attack
    /// evidence helper).
    pub fn accepted_count(&self, client: &Principal) -> usize {
        self.accepted.get(client).copied().unwrap_or(0)
    }

    /// Counts one accepted AP exchange for `client`; only a client's
    /// first acceptance copies its name.
    fn count_accept(&mut self, client: &Principal) {
        match self.accepted.get_mut(client) {
            Some(n) => *n += 1,
            None => {
                self.accepted.insert(client.clone(), 1);
            }
        }
    }

    /// The replay cache, for state-cost measurements.
    pub fn replay_cache(&self) -> &ReplayCache {
        &self.replay_cache.live
    }

    /// Traces a refusal of a datagram from `from` and encodes it.
    fn reject(&mut self, from: Endpoint, refusal: Refusal) -> Vec<u8> {
        // Replay-cache verdicts get their own event kinds; everything
        // else is a generic rejection with its reason.
        let kind = match refusal.code {
            err_code::REPLAY => EventKind::ReplayBlocked,
            err_code::TRY_LATER => EventKind::FailClosed,
            _ => EventKind::AuthRejected,
        };
        self.trace.emit(
            kind,
            self.trace_now_us,
            vec![
                ("site", Value::str("ap")),
                ("service", Value::str(&self.principal.name)),
                ("reason", Value::str(&refusal.text)),
                ("src", Value::str(from.addr.to_string())),
            ],
        );
        self.trace.counter("ap.rejected", &self.principal.name, 1);
        refusal.encode(self.config.codec)
    }

    /// Validates the ticket itself (not the authenticator); a failure is
    /// the reason for a POLICY refusal.
    fn check_ticket(&self, ticket: &Ticket, from: Endpoint, now_us: u64) -> Result<(), &'static str> {
        if ticket.service != self.principal {
            return Err("ticket is for a different service");
        }
        if !ticket.valid_at(now_us, self.config.clock_skew_us) {
            return Err("ticket expired");
        }
        if self.config.forbid_duplicate_skey_auth && ticket.flags.has(TicketFlags::DUPLICATE_SKEY) {
            return Err("DUPLICATE-SKEY tickets not accepted for authentication");
        }
        if self.config.address_in_ticket {
            if let Some(a) = ticket.addr {
                if a != from.addr.0 {
                    return Err("ticket address mismatch");
                }
            }
        }
        Ok(())
    }

    /// Establishes the session and builds the AP reply, sealed under
    /// `session_key`, the ticket's session key already expanded.
    fn establish(
        &mut self,
        from: Endpoint,
        ticket: &Ticket,
        session_key: &ScheduledKey,
        ts_echo: u64,
        client_subkey: Option<u64>,
        client_seq: Option<u64>,
    ) -> Result<Vec<u8>, Refusal> {
        let server_subkey = self.config.subkey_negotiation.then(|| self.rng.next_u64());
        let server_seq = self.rng.next_u64() >> 16;

        let key = Session::negotiate_key(
            &ticket.session_key,
            client_subkey.unwrap_or(0),
            server_subkey.unwrap_or(0),
        );
        let session = Session::new(
            ticket.client.clone(),
            if self.config.subkey_negotiation { key } else { ticket.session_key },
            &self.config,
            Direction::ServerToClient,
            server_seq,
            client_seq.unwrap_or(0),
        );
        self.sessions.insert(from, session);
        self.authorized.insert(from, ticket.client.clone());
        let (client_name, src) = (ticket.client.to_string(), from.addr.to_string());
        self.trace.emit_ref(
            EventKind::AuthAccepted,
            self.trace_now_us,
            [
                ("service", ValueRef::Str(&self.principal.name)),
                ("client", ValueRef::Str(&client_name)),
                ("src", ValueRef::Str(&src)),
            ],
        );
        self.trace.counter("ap.accepted", &ticket.client.name, 1);
        self.count_accept(&ticket.client);

        let part = EncApRepPart { ts_echo, subkey: server_subkey, seq_init: Some(server_seq) };
        let sealed =
            self.config.ticket_layer.seal_with(session_key, 0, &part.encode(self.config.codec), &mut self.rng)?;
        Ok(ApRep { enc_part: sealed }.encode(self.config.codec))
    }

    /// Handles KRB_AP_REQ.
    fn ap_exchange(&mut self, body: &[u8], from: Endpoint, now_us: u64) -> Result<Vec<u8>, Refusal> {
        let req = ApReq::decode(self.config.codec, body)?;
        let ticket =
            Ticket::unseal_with(self.config.codec, self.config.ticket_layer, &self.service_key, &req.ticket)?;
        self.check_ticket(&ticket, from, now_us).map_err(|why| Refusal::new(err_code::POLICY, why))?;

        match self.config.auth_style {
            AuthStyle::ChallengeResponse => {
                // No authenticator consulted: issue a challenge instead.
                // "As is done today, the client would present a ticket,
                // though without an authenticator."
                let nonce = self.rng.next_u64();
                self.trace.emit(
                    EventKind::ChallengeIssued,
                    self.trace_now_us,
                    vec![
                        ("service", Value::str(&self.principal.name)),
                        ("client", Value::str(ticket.client.to_string())),
                    ],
                );
                self.pending.insert(from, (nonce, ticket));
                Ok(KrbErrorMsg {
                    code: err_code::CHALLENGE_REQUIRED,
                    text: "respond to challenge".into(),
                    challenge: Some(nonce),
                }
                .encode(self.config.codec))
            }
            AuthStyle::Timestamp => {
                let session_key = ScheduledKey::new(ticket.session_key);
                let auth = Authenticator::unseal_with(
                    self.config.codec,
                    self.config.ticket_layer,
                    &session_key,
                    &req.authenticator,
                )?;
                if auth.client != ticket.client {
                    return Err(Refusal::new(err_code::GENERIC, "authenticator/ticket client mismatch"));
                }
                if auth.timestamp.abs_diff(now_us) > self.config.clock_skew_us {
                    return Err(Refusal::new(err_code::SKEW, "authenticator outside skew window"));
                }
                if self.config.address_in_ticket && auth.addr != from.addr.0 {
                    return Err(Refusal::new(err_code::GENERIC, "authenticator address mismatch"));
                }
                if self.config.service_binding && auth.service_binding.as_ref() != Some(&self.principal) {
                    return Err(Refusal::new(err_code::POLICY, "authenticator not bound to this service"));
                }
                if self.config.replay_cache {
                    match self.replay_cache.live.check(&req.authenticator, auth.timestamp, now_us) {
                        CacheVerdict::Replayed => {
                            return Err(Refusal::new(err_code::REPLAY, "authenticator replayed"))
                        }
                        // Inside the post-restart window the cache cannot
                        // prove this authenticator was never presented;
                        // refuse and let the client retry with a fresh
                        // one.
                        CacheVerdict::FailClosed => {
                            return Err(Refusal::new(
                                err_code::TRY_LATER,
                                "server recently restarted; retry with a fresh authenticator",
                            ))
                        }
                        // This was the last validation: record the
                        // accepted authenticator.
                        CacheVerdict::Fresh => self.replay_cache.commit(&req.authenticator, now_us),
                    }
                }
                let echo = auth.timestamp.wrapping_add(1);
                self.establish(from, &ticket, &session_key, echo, auth.subkey, auth.seq_init)
            }
        }
    }

    /// Handles the client's challenge response.
    fn challenge_exchange(&mut self, body: &[u8], from: Endpoint) -> Result<Vec<u8>, Refusal> {
        let (nonce, ticket) = self
            .pending
            .remove(&from)
            .ok_or_else(|| Refusal::new(err_code::GENERIC, "no challenge outstanding"))?;
        let session_key = ScheduledKey::new(ticket.session_key);
        let pt = self.config.ticket_layer.open_with(&session_key, 0, body)?;
        let part = EncApRepPart::decode(self.config.codec, &pt)?;
        // The response must be a function of the challenge: nonce + 1.
        if part.ts_echo != nonce.wrapping_add(1) {
            return Err(Refusal::new(err_code::GENERIC, "wrong challenge response"));
        }
        self.establish(from, &ticket, &session_key, nonce.wrapping_add(2), part.subkey, part.seq_init)
    }

    /// Handles a KRB_PRIV command in an established session.
    fn priv_exchange(&mut self, wire: &[u8], from: Endpoint, now_us: u64, my_addr: u32) -> Result<Vec<u8>, Refusal> {
        let session = self.sessions.get_mut(&from).ok_or_else(no_session)?;
        let data =
            session.recv_priv(wire, now_us).map_err(|e| Refusal::new(err_code::INTEGRITY, e.to_string()))?;
        let reply = self.logic.on_command(&session.peer, &data);
        Ok(session.send_priv(&reply, now_us, my_addr, &mut self.rng)?)
    }

    /// Handles a KRB_SAFE command (integrity-protected, plaintext data).
    fn safe_exchange(&mut self, wire: &[u8], from: Endpoint, now_us: u64, my_addr: u32) -> Result<Vec<u8>, Refusal> {
        let session = self.sessions.get_mut(&from).ok_or_else(no_session)?;
        let data = session
            .recv_safe(wire, now_us, &self.config)
            .map_err(|e| Refusal::new(err_code::INTEGRITY, e.to_string()))?;
        let reply = self.logic.on_command(&session.peer, &data);
        Ok(session.send_safe(&reply, now_us, my_addr, &self.config)?)
    }

    /// Handles plain post-auth application data (the Plain deployment
    /// style): trusted purely by source endpoint.
    fn plain_exchange(&mut self, body: &[u8], from: Endpoint) -> Result<Vec<u8>, Refusal> {
        if self.config.app_protection != AppProtection::Plain {
            return Err(Refusal::new(err_code::POLICY, "plain data not accepted"));
        }
        let client = self
            .authorized
            .get(&from)
            .ok_or_else(|| Refusal::new(err_code::GENERIC, "endpoint not authenticated"))?;
        let reply = self.logic.on_command(client, body);
        Ok(frame(WireKind::AppData, reply))
    }
}

/// The refusal of a session command from a peer with no session.
fn no_session() -> Refusal {
    Refusal::new(err_code::GENERIC, "no session")
}

impl Service for AppServer {
    fn handle(&mut self, ctx: &mut ServiceCtx, req: &[u8], from: Endpoint) -> Option<Vec<u8>> {
        self.trace = ctx.tracer.clone();
        self.trace_now_us = ctx.true_time.0;
        let now_us = ctx.local_time.0;
        let my_addr = ctx.host_addr.0;
        let (kind, body) = deframe(req).ok()?;
        let reply = match kind {
            WireKind::ApReq => self.ap_exchange(req, from, now_us),
            WireKind::ChallengeResp => self.challenge_exchange(body, from),
            WireKind::Priv => self.priv_exchange(req, from, now_us, my_addr),
            WireKind::Safe => self.safe_exchange(req, from, now_us, my_addr),
            WireKind::AppData => self.plain_exchange(body, from),
            _ => Err(Refusal::unexpected_kind()),
        };
        Some(reply.unwrap_or_else(|refusal| self.reject(from, refusal)))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    /// A crash window ended: sessions, pending challenges, and plain-mode
    /// authorizations are volatile and gone. The replay cache restores
    /// from its last snapshot (fail-closing the gap) when persistence is
    /// configured; otherwise it reboots empty — the exact weakness the
    /// A1 replay-across-restart scenario exploits.
    fn on_restart(&mut self, ctx: &mut ServiceCtx) {
        self.trace = ctx.tracer.clone();
        self.trace_now_us = ctx.true_time.0;
        self.sessions.clear();
        self.pending.clear();
        self.authorized.clear();
        self.restarts += 1;
        self.replay_cache.reboot(ctx.local_time.0);
    }
}

/// A client's live connection to an application server.
pub struct AppConnection {
    /// The session state.
    pub session: Session,
    /// Client endpoint.
    pub client_ep: Endpoint,
    /// Server endpoint.
    pub server_ep: Endpoint,
    /// Whether plain (unprotected) commands are in use.
    pub plain: bool,
    /// Retry policy for command datagrams (request-leg drops only).
    pub retry: RetryPolicy,
}

/// Connects to an application server: runs the AP exchange (timestamp or
/// challenge/response per config), verifies mutual authentication, and
/// returns the established connection.
pub fn connect_app(
    net: &mut Network,
    config: &ProtocolConfig,
    client_ep: Endpoint,
    server_ep: Endpoint,
    cred: &Credential,
    rng: &mut dyn RandomSource,
) -> Result<AppConnection, KrbError> {
    // Session identity (subkey half, sequence base) is drawn once: every
    // retry attempt negotiates the SAME session, only the authenticator
    // timestamp is re-stamped so the server's replay cache never sees a
    // repeat.
    let client_subkey = config.subkey_negotiation.then(|| rng.next_u64());
    let client_seq = rng.next_u64() >> 16;
    let timeout = Some(SimDuration(config.retry.timeout_us));
    let session_key = ScheduledKey::new(cred.session_key);

    // Maps a server KRB_ERROR to an attempt verdict; TRY_LATER is the
    // server's own fail-closed retry request and is transient even on a
    // perfect wire.
    let server_err = |net: &Network, code: u32, text: &str| -> retry::AttemptErr {
        if code == err_code::TRY_LATER {
            retry::AttemptErr::Transient(KrbError::FailClosed)
        } else {
            reply_transient(net, KrbError::Remote(format!("server error {code}: {text}")))
        }
    };

    let trace = net.tracer();
    let (client_name, service_name) = (cred.client.to_string(), cred.service.to_string());
    let span = trace.begin_span(
        "ap-exchange",
        net.now().0,
        [("client", ValueRef::Str(&client_name)), ("service", ValueRef::Str(&service_name))],
    );
    let result = retry::run(net, &config.retry, client_seq, |net, _attempt| {
        let now = client_local_time_us(net, client_ep)?;
        let (reply, expected_echo) = match config.auth_style {
            AuthStyle::Timestamp => {
                let auth = Authenticator {
                    client: cred.client.clone(),
                    addr: client_ep.addr.0,
                    timestamp: now,
                    cksum: None,
                    service_binding: config.service_binding.then(|| cred.service.clone()),
                    subkey: client_subkey,
                    seq_init: Some(client_seq),
                };
                let sealed_auth =
                    auth.seal_with(config.codec, config.ticket_layer, &session_key, rng)?;
                let req = ApReq {
                    ticket: cred.sealed_ticket.clone(),
                    authenticator: sealed_auth,
                    mutual: true,
                };
                let reply =
                    net.rpc_with_timeout(client_ep, server_ep, req.encode(config.codec), timeout)?;
                (reply, now.wrapping_add(1))
            }
            AuthStyle::ChallengeResponse => {
                let req = ApReq {
                    ticket: cred.sealed_ticket.clone(),
                    authenticator: Vec::new(),
                    mutual: true,
                };
                let reply =
                    net.rpc_with_timeout(client_ep, server_ep, req.encode(config.codec), timeout)?;
                let (kind, _) = deframe(&reply).map_err(|e| reply_transient(net, e))?;
                if kind != WireKind::Err {
                    return Err(reply_transient(
                        net,
                        KrbError::Remote("expected a challenge".into()),
                    ));
                }
                let err = KrbErrorMsg::decode(config.codec, &reply)
                    .map_err(|e| reply_transient(net, e))?;
                if err.code != err_code::CHALLENGE_REQUIRED {
                    return Err(server_err(net, err.code, &err.text));
                }
                let nonce = err
                    .challenge
                    .ok_or_else(|| reply_transient(net, KrbError::Decode("challenge missing")))?;
                let part = EncApRepPart {
                    ts_echo: nonce.wrapping_add(1),
                    subkey: client_subkey,
                    seq_init: Some(client_seq),
                };
                let sealed =
                    config
                        .ticket_layer
                        .seal_with(&session_key, 0, &part.encode(config.codec), rng)?;
                let reply = net.rpc_with_timeout(
                    client_ep,
                    server_ep,
                    frame(WireKind::ChallengeResp, sealed),
                    timeout,
                )?;
                (reply, nonce.wrapping_add(2))
            }
        };

        // Parse the AP reply (mutual authentication). Failures here are
        // reply-processing: genuine evidence on a perfect wire, possibly
        // the network's fault under an active fault plan.
        if let Ok((WireKind::Err, _)) = deframe(&reply) {
            let e = KrbErrorMsg::decode(config.codec, &reply).map_err(|e| reply_transient(net, e))?;
            return Err(server_err(net, e.code, &e.text));
        }
        let rep = ApRep::decode(config.codec, &reply).map_err(|e| reply_transient(net, e))?;
        let pt = config
            .ticket_layer
            .open_with(&session_key, 0, &rep.enc_part)
            .map_err(|e| reply_transient(net, e))?;
        let part = EncApRepPart::decode(config.codec, &pt).map_err(|e| reply_transient(net, e))?;
        if part.ts_echo != expected_echo {
            return Err(reply_transient(
                net,
                KrbError::Remote("mutual authentication failed".into()),
            ));
        }

        let key = Session::negotiate_key(
            &cred.session_key,
            client_subkey.unwrap_or(0),
            part.subkey.unwrap_or(0),
        );
        let session = Session::new(
            cred.service.clone(),
            if config.subkey_negotiation { key } else { cred.session_key },
            config,
            Direction::ClientToServer,
            client_seq,
            part.seq_init.unwrap_or(0),
        );
        Ok(AppConnection {
            session,
            client_ep,
            server_ep,
            plain: config.app_protection == AppProtection::Plain,
            retry: config.retry,
        })
    });
    trace.end_span(span, net.now().0, &cred.client.name);
    result
}

/// Sends `wire` and resends the *identical bytes* when the request leg
/// was provably dropped: [`NetError::Dropped`] means the server never
/// saw the datagram, so a resend cannot double-execute a command or
/// desync strict sequence numbers. Every other failure — including the
/// ambiguous [`NetError::ReplyLost`], where the server DID execute —
/// surfaces to the application, which alone knows whether its command
/// is idempotent.
fn rpc_resend_on_drop(
    net: &mut Network,
    policy: &RetryPolicy,
    client_ep: Endpoint,
    server_ep: Endpoint,
    wire: Vec<u8>,
) -> Result<Vec<u8>, KrbError> {
    let budget = if net.faults_enabled() { policy.attempts.max(1) } else { 1 };
    let jitter = client_ep.addr.0 as u64;
    let mut sent = 0;
    loop {
        sent += 1;
        match net.rpc(client_ep, server_ep, wire.clone()) {
            Ok(reply) => return Ok(reply),
            Err(NetError::Dropped) if sent < budget => {
                net.advance(SimDuration(policy.delay_us(sent, jitter)));
                net.pump();
            }
            Err(e) => return Err(e.into()),
        }
    }
}

impl AppConnection {
    /// Sends one command as KRB_SAFE (integrity only, data in the
    /// clear) and returns the server's reply payload.
    pub fn request_safe(
        &mut self,
        net: &mut Network,
        config: &ProtocolConfig,
        data: &[u8],
    ) -> Result<Vec<u8>, KrbError> {
        let now = client_local_time_us(net, self.client_ep)?;
        let wire = self.session.send_safe(data, now, self.client_ep.addr.0, config)?;
        let reply = rpc_resend_on_drop(net, &self.retry, self.client_ep, self.server_ep, wire)?;
        if let Ok((WireKind::Err, _)) = deframe(&reply) {
            return Err(KrbError::Remote("server rejected the safe command".into()));
        }
        let now = client_local_time_us(net, self.client_ep)?;
        self.session.recv_safe(&reply, now, config)
    }

    /// Sends one command and returns the server's reply payload.
    pub fn request(
        &mut self,
        net: &mut Network,
        data: &[u8],
        rng: &mut dyn RandomSource,
    ) -> Result<Vec<u8>, KrbError> {
        let now = client_local_time_us(net, self.client_ep)?;
        if self.plain {
            let wire = frame(WireKind::AppData, data.to_vec());
            let reply = rpc_resend_on_drop(net, &self.retry, self.client_ep, self.server_ep, wire)?;
            let (kind, body) = deframe(&reply)?;
            if kind != WireKind::AppData {
                return Err(KrbError::Remote("server refused plain data".into()));
            }
            return Ok(body.to_vec());
        }
        let wire = self.session.send_priv(data, now, self.client_ep.addr.0, rng)?;
        let reply = rpc_resend_on_drop(net, &self.retry, self.client_ep, self.server_ep, wire)?;
        if let Ok((WireKind::Err, _)) = deframe(&reply) {
            // Fall back to a decode of the error for the message.
            return Err(KrbError::Remote("server rejected the command".into()));
        }
        let now = client_local_time_us(net, self.client_ep)?;
        self.session.recv_priv(&reply, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// AppLogic that echoes with a prefix.
    pub struct Echo;
    impl AppLogic for Echo {
        fn on_command(&mut self, client: &Principal, cmd: &[u8]) -> Vec<u8> {
            let mut v = format!("[{}] ", client.name).into_bytes();
            v.extend_from_slice(cmd);
            v
        }
    }

    #[test]
    fn auth_event_helpers() {
        let config = ProtocolConfig::v4();
        let key = DesKey::from_u64(1).with_odd_parity();
        let mut srv = AppServer::new(config, Principal::service("echo", "h", "R"), key, Box::new(Echo), 7);
        srv.count_accept(&Principal::user("pat", "R"));
        assert_eq!(srv.accepted_count(&Principal::user("pat", "R")), 1);
        assert_eq!(srv.accepted_count(&Principal::user("sam", "R")), 0);
    }

    /// Every per-peer and per-client collection the server keeps.
    fn state_sizes(srv: &AppServer) -> [usize; 5] {
        [
            srv.pending.len(),
            srv.sessions.len(),
            srv.authorized.len(),
            srv.accepted.len(),
            srv.replay_cache().live_entries(),
        ]
    }

    #[test]
    fn spoofed_rejections_leave_no_state() {
        // A service must not grow state on an unauthenticated sender's
        // say-so: a flood of well-framed garbage from distinct forged
        // sources is rejected, traced and counted, and the server keeps
        // nothing of it.
        for config in [ProtocolConfig::v4(), ProtocolConfig::v5_draft3(), ProtocolConfig::hardened()] {
            let key = DesKey::from_u64(1).with_odd_parity();
            let principal = Principal::service("echo", "h", "R");
            let mut srv = AppServer::new(config, principal, key, Box::new(Echo), 7);
            let mut ctx =
                ServiceCtx::detached(simnet::SimTime(1_000_000), "h", simnet::Addr::new(10, 0, 0, 9), true);
            let before = state_sizes(&srv);
            let kinds =
                [WireKind::ApReq, WireKind::ChallengeResp, WireKind::Priv, WireKind::Safe, WireKind::AsReq];
            for i in 0..1_000u32 {
                let from = Endpoint::new(simnet::Addr(0x0b00_0000 + i), 1024);
                let kind = kinds[i as usize % kinds.len()];
                let datagram = frame(kind, vec![0x5a; 8 + i as usize % 64]);
                let reply = srv.handle(&mut ctx, &datagram, from).expect("a KRB-ERROR reply");
                assert_eq!(deframe(&reply).map(|(k, _)| k).ok(), Some(WireKind::Err), "datagram {i}");
            }
            assert_eq!(state_sizes(&srv), before);
            assert_eq!(ctx.tracer.snapshot()["ap.rejected{echo}"], 1_000);
        }
    }
}
