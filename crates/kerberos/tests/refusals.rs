//! The refusal surface of the KDC and the application server, pinned.
//!
//! Each case sends one crafted datagram across a fresh `standard_campus`
//! to the KDC or to the `echo` server, decodes the reply as a KRB-ERROR
//! and records one row: `(deployment, exchange, case, code, text,
//! events)`. `events` names the trace events the server emitted while it
//! handled the datagram (`ap.rejected`, `replay.blocked`,
//! `replay.fail_closed`, ...; wire hops and spans left out), joined by
//! `+`. The test holds the realm's keys, so it forges whatever ticket,
//! authenticator or preauthentication blob a case needs instead of
//! steering a client into that state.
//!
//! Deployments: the three presets, and `v5-draft3+checks`, which is V5
//! Draft 3 with plain preauthentication, the persisted replay cache,
//! service binding and the cname check switched on. No preset runs those
//! checks on the paths they guard: `hardened` preauthenticates through
//! the handheld challenge, answers AP requests by challenge/response and
//! refuses ENC-TKT-IN-SKEY before the cname check is reached.
//!
//! Refusal sites no datagram reaches are left out: failures to seal a
//! ticket, a KDC reply part, the DH outer layer, an AP reply or a
//! KRB_PRIV/KRB_SAFE reply, to draw the KDC's DH keypair or to compute
//! its shared secret (the crypto layer does not fail on the inputs these
//! paths build); the app server's second session lookup after the
//! application ran; and the KDC's REPLAY verdict under handheld login (a
//! blob opens only under the challenge it answers, and an accepted
//! answer consumes that challenge).
//!
//! On a mismatch the test prints the measured table as Rust source:
//! after an intended change, paste it over [`EXPECTED`].

use kerberos::appserver::connect_app;
use kerberos::authenticator::Authenticator;
use kerberos::client::Credential;
use kerberos::flags::{KdcOptions, TicketFlags};
use kerberos::kdc::hha_key;
use kerberos::messages::{frame, ApReq, AsReq, EncApRepPart, KrbErrorMsg, PaData, TgsReq, WireKind};
use kerberos::testbed::{standard_campus, DeployedRealm};
use kerberos::{AppProtection, AuthStyle, PreauthMode, Principal, ProtocolConfig, Ticket};
use krb_crypto::checksum::{self, ChecksumType};
use krb_crypto::des::DesKey;
use krb_crypto::rng::{Drbg, RandomSource};
use krb_crypto::s2k;
use krb_trace::{EventKind, Subscription};
use simnet::{Addr, Endpoint, Network, Service, ServiceCtx, SimDuration};

/// `(deployment, exchange, case, KRB-ERROR code, text, events)`.
type Row = (&'static str, &'static str, &'static str, u32, &'static str, &'static str);

/// One measured [`Row`].
type Measured = (&'static str, &'static str, &'static str, u32, String, String);

const SEED: u64 = 24;
const HOUR_US: u64 = 3_600_000_000;
/// An address no host owns: a forged source with no server-side state.
const STRANGER: Addr = Addr::new(10, 0, 9, 9);

/// The deployment under probe: a seeded campus, the realm's keys and the
/// rows recorded so far.
struct Probe {
    name: &'static str,
    config: ProtocolConfig,
    net: Network,
    realm: DeployedRealm,
    rng: Drbg,
    events: Subscription,
    rows: Vec<Measured>,
    pat: Principal,
    pat_ep: Endpoint,
    tgs_key: DesKey,
    /// The session key every forged ticket carries.
    session_key: DesKey,
}

impl Probe {
    fn new(name: &'static str, config: ProtocolConfig) -> Probe {
        let mut net = Network::new();
        net.advance(SimDuration::from_secs(1_000_000));
        let realm = standard_campus(&mut net, &config, SEED);
        let tgs = Principal::tgs(&realm.name);
        let tgs_key = realm.with_kdc(&mut net, |k| k.db.lookup(&tgs).map(|e| e.key)).expect("TGS key");
        let events = net.tracer().subscribe();
        Probe {
            name,
            config,
            pat: realm.user("pat"),
            pat_ep: realm.user_ep("pat"),
            net,
            realm,
            rng: Drbg::new(SEED),
            events,
            rows: Vec::new(),
            tgs_key,
            session_key: DesKey::from_u64(0x5e55_10a1_0c0d_e0ff).with_odd_parity(),
        }
    }

    fn now(&self) -> u64 {
        self.net.now().0
    }

    fn skew(&self) -> u64 {
        self.config.clock_skew_us
    }

    /// Sends `datagram` and returns the reply with the labels of the
    /// events emitted meanwhile.
    fn send(&mut self, from: Endpoint, to: Endpoint, datagram: Vec<u8>) -> (Vec<u8>, String) {
        self.events.drain();
        let reply = self.net.rpc(from, to, datagram).expect("a reply");
        let labels: Vec<&str> = self
            .events
            .drain()
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::WireHop | EventKind::SpanBegin | EventKind::SpanEnd))
            .map(|e| e.kind.label())
            .collect();
        (reply, labels.join("+"))
    }

    /// Sends `datagram` and records the reply as one row.
    fn refusal(
        &mut self,
        exchange: &'static str,
        case: &'static str,
        from: Endpoint,
        to: Endpoint,
        datagram: Vec<u8>,
    ) -> KrbErrorMsg {
        let (reply, events) = self.send(from, to, datagram);
        let msg = KrbErrorMsg::decode(self.config.codec, &reply).unwrap_or_else(|e| KrbErrorMsg {
            code: 0,
            text: format!("not a KRB-ERROR: {e}"),
            challenge: None,
        });
        self.rows.push((self.name, exchange, case, msg.code, msg.text.clone(), events));
        msg
    }

    /// Sends `datagram` unrecorded and returns the challenge its
    /// KRB-ERROR carries.
    fn challenge(&mut self, from: Endpoint, to: Endpoint, datagram: Vec<u8>) -> u64 {
        let (reply, _) = self.send(from, to, datagram);
        KrbErrorMsg::decode(self.config.codec, &reply).ok().and_then(|m| m.challenge).expect("a challenge")
    }

    /// A ticket for pat to `service`, valid for eight hours from now and
    /// bound to pat's address where the deployment binds addresses.
    fn ticket(&self, service: Principal) -> Ticket {
        let now = self.now();
        Ticket {
            flags: TicketFlags::empty().with(TicketFlags::INITIAL),
            client: self.pat.clone(),
            service,
            addr: self.config.address_in_ticket.then_some(self.pat_ep.addr.0),
            auth_time: now,
            start_time: now,
            end_time: now + 8 * HOUR_US,
            session_key: self.session_key,
            transited: vec![],
        }
    }

    fn seal_ticket(&mut self, ticket: &Ticket, key: &DesKey) -> Vec<u8> {
        ticket.seal(self.config.codec, self.config.ticket_layer, key, &mut self.rng).expect("seal")
    }

    /// A sealed TGT for pat, edited before sealing.
    fn tgt(&mut self, edit: impl FnOnce(&mut Ticket)) -> Vec<u8> {
        let mut t = self.ticket(Principal::tgs(&self.realm.name));
        edit(&mut t);
        let key = self.tgs_key;
        self.seal_ticket(&t, &key)
    }

    /// A sealed echo ticket for pat, edited before sealing.
    fn echo_ticket(&mut self, edit: impl FnOnce(&mut Ticket)) -> Vec<u8> {
        let mut t = self.ticket(self.realm.service("echo"));
        edit(&mut t);
        let key = self.realm.service_keys["echo"];
        self.seal_ticket(&t, &key)
    }

    /// pat's authenticator, stamped now from pat's address.
    fn authenticator(&self) -> Authenticator {
        Authenticator {
            client: self.pat.clone(),
            addr: self.pat_ep.addr.0,
            timestamp: self.now(),
            cksum: None,
            service_binding: None,
            subkey: None,
            seq_init: Some(1),
        }
    }

    fn seal_authenticator(&mut self, auth: &Authenticator) -> Vec<u8> {
        let key = self.session_key;
        auth.seal(self.config.codec, self.config.ticket_layer, &key, &mut self.rng).expect("seal")
    }

    /// An AS request naming `client` and `service`.
    fn as_req(&self, client: Principal, service: Principal, padata: Vec<PaData>) -> Vec<u8> {
        AsReq {
            client,
            service,
            nonce: 7,
            lifetime_us: self.config.ticket_lifetime_us,
            addr: self.pat_ep.addr.0,
            options: KdcOptions::empty().with(KdcOptions::FORWARDABLE).with(KdcOptions::RENEWABLE),
            padata,
        }
        .encode(self.config.codec)
    }

    /// pat's login request.
    fn login(&self, padata: Vec<PaData>) -> Vec<u8> {
        self.as_req(self.pat.clone(), Principal::tgs(&self.realm.name), padata)
    }

    /// pat's password key.
    fn kc(&self) -> DesKey {
        s2k::string_to_key_v5(&self.realm.passwords["pat"], &self.pat.salt())
    }

    /// `{stamp}key`: a preauthentication blob.
    fn blob(&mut self, key: &DesKey, stamp: u64) -> PaData {
        PaData::EncTimestamp(self.config.ticket_layer.seal(key, 0, &stamp.to_be_bytes(), &mut self.rng).expect("seal"))
    }

    /// A TGS request from pat presenting `tgt`. Its authenticator
    /// checksums the request and is edited before sealing.
    fn tgs_req(
        &mut self,
        tgt: Vec<u8>,
        service: Principal,
        options: KdcOptions,
        additional_ticket: Option<Vec<u8>>,
        edit: impl FnOnce(&mut Authenticator),
    ) -> TgsReq {
        let mut req = TgsReq {
            tgt,
            authenticator: Vec::new(),
            service,
            options,
            nonce: self.rng.next_u64(),
            lifetime_us: self.config.ticket_lifetime_us,
            additional_ticket,
            forward_addr: None,
            authz_data: Vec::new(),
        };
        let mut auth = self.authenticator();
        auth.cksum = Some(self.request_checksum(&req.checksum_body()));
        edit(&mut auth);
        req.authenticator = self.seal_authenticator(&auth);
        req
    }

    /// The deployment's request checksum over `body`.
    fn request_checksum(&self, body: &[u8]) -> checksum::Checksum {
        let key = self.config.checksum.is_keyed().then_some(&self.session_key);
        checksum::compute(self.config.checksum, key, body).expect("checksum")
    }

    /// An AP request presenting `ticket`, with pat's authenticator
    /// edited before sealing.
    fn ap_req(&mut self, ticket: Vec<u8>, edit: impl FnOnce(&mut Authenticator)) -> ApReq {
        let mut auth = self.authenticator();
        auth.service_binding = self.config.service_binding.then(|| self.realm.service("echo"));
        edit(&mut auth);
        ApReq { ticket, authenticator: self.seal_authenticator(&auth), mutual: true }
    }

    /// Ends a crash window of the KDC two minutes from now.
    fn restart_kdc(&mut self) {
        let mut ctx = self.reboot_ctx();
        self.realm.with_kdc(&mut self.net, |k| k.on_restart(&mut ctx));
    }

    /// Ends a crash window of the echo server two minutes from now.
    fn restart_echo(&mut self) {
        let mut ctx = self.reboot_ctx();
        self.realm.with_app_server(&mut self.net, "echo", |s| s.on_restart(&mut ctx));
    }

    fn reboot_ctx(&mut self) -> ServiceCtx {
        self.net.advance(SimDuration::from_secs(120));
        let mut ctx = ServiceCtx::detached(self.net.now(), "rebooted", STRANGER, true);
        ctx.tracer = self.net.tracer();
        ctx
    }
}

/// The AS exchange and the KDC's dispatch.
fn kdc_cases(p: &mut Probe) {
    let (kdc, pat) = (p.realm.kdc_ep, p.pat_ep);
    let realm = p.realm.name.clone();
    let stranger = Endpoint::new(STRANGER, 1024);
    p.refusal("kdc", "unexpected-kind", pat, kdc, frame(WireKind::ApReq, vec![0x5a; 16]));
    p.refusal("as", "undecodable", pat, kdc, frame(WireKind::AsReq, vec![0x5a; 16]));
    let req = p.as_req(Principal::user("nobody", &realm), Principal::tgs(&realm), vec![]);
    p.refusal("as", "unknown-client", pat, kdc, req);
    let req = p.as_req(p.pat.clone(), Principal::service("nosuch", "host", &realm), vec![]);
    p.refusal("as", "unknown-service", pat, kdc, req);

    let garbage = || vec![PaData::EncTimestamp(vec![0x5a; 24])];
    if p.config.hha_login {
        let r = p.refusal("as", "challenge", pat, kdc, p.login(vec![])).challenge.expect("R");
        let kprime = hha_key(&p.kc(), r);
        let blob = p.blob(&kprime, p.now());
        p.refusal("as", "no-challenge-outstanding", stranger, kdc, p.login(vec![blob]));
        p.refusal("as", "bad-blob", pat, kdc, p.login(garbage()));
        let stale = p.blob(&kprime, p.now() - 2 * p.skew());
        p.refusal("as", "stale-blob", pat, kdc, p.login(vec![stale]));
        if p.config.dh_login {
            // A valid answer consumes the challenge before the DH check.
            let blob = p.blob(&kprime, p.now());
            p.refusal("as", "dh-missing", pat, kdc, p.login(vec![blob]));
            let r = p.challenge(pat, kdc, p.login(vec![]));
            let blob = p.blob(&hha_key(&p.kc(), r), p.now());
            p.refusal("as", "dh-invalid", pat, kdc, p.login(vec![PaData::DhPublic(vec![1]), blob]));
        }
        p.restart_kdc();
        let r = p.challenge(pat, kdc, p.login(vec![]));
        let blob = p.blob(&hha_key(&p.kc(), r), p.now() - 60_000_000);
        p.refusal("as", "fail-closed", pat, kdc, p.login(vec![blob]));
    } else if p.config.preauth == PreauthMode::EncTimestamp {
        let kc = p.kc();
        p.refusal("as", "preauth-required", pat, kdc, p.login(vec![]));
        p.refusal("as", "bad-blob", pat, kdc, p.login(garbage()));
        let stale = p.blob(&kc, p.now() - 2 * p.skew());
        p.refusal("as", "stale-blob", pat, kdc, p.login(vec![stale]));
        let blob = p.blob(&kc, p.now());
        let accepted = p.login(vec![blob]);
        p.send(pat, kdc, accepted.clone());
        p.refusal("as", "replayed-blob", pat, kdc, accepted);
        p.restart_kdc();
        let blob = p.blob(&kc, p.now() - 60_000_000);
        p.refusal("as", "fail-closed", pat, kdc, p.login(vec![blob]));
    }

    if let Some(limit) = p.config.kdc_rate_limit {
        let flood = Endpoint::new(Addr::new(10, 0, 9, 10), 1024);
        let req = p.as_req(Principal::user("nobody", &realm), Principal::tgs(&realm), vec![]);
        for _ in 0..limit {
            p.send(flood, kdc, req.clone());
        }
        p.refusal("as", "rate-limited", flood, kdc, req);
    }
}

/// The TGS exchange, renewal included.
fn tgs_cases(p: &mut Probe) {
    let (kdc, pat) = (p.realm.kdc_ep, p.pat_ep);
    let codec = p.config.codec;
    let realm = p.realm.name.clone();
    let (tgs, echo) = (Principal::tgs(&realm), p.realm.service("echo"));
    let none = KdcOptions::empty();
    let good = p.tgt(|_| {});
    let refuse = |p: &mut Probe, case: &'static str, req: TgsReq| {
        p.refusal("tgs", case, pat, kdc, req.encode(codec));
    };

    p.refusal("tgs", "undecodable", pat, kdc, frame(WireKind::TgsReq, vec![0x5a; 16]));
    let req = p.tgs_req(vec![0x5a; 48], echo.clone(), none, None, |_| {});
    refuse(p, "tgt-unsealable", req);
    let (now, skew) = (p.now(), p.skew());
    let expired = p.tgt(|t| {
        t.start_time = now - 9 * HOUR_US;
        t.end_time = now - HOUR_US;
    });
    let req = p.tgs_req(expired, echo.clone(), none, None, |_| {});
    refuse(p, "tgt-expired", req);
    let mut req = p.tgs_req(good.clone(), echo.clone(), none, None, |_| {});
    req.authenticator = vec![0x5a; 48];
    refuse(p, "authenticator-unsealable", req);
    let sam = p.realm.user("sam");
    let req = p.tgs_req(good.clone(), echo.clone(), none, None, |a| a.client = sam);
    refuse(p, "authenticator-client-mismatch", req);
    let req = p.tgs_req(good.clone(), echo.clone(), none, None, |a| a.timestamp = now - 2 * skew);
    refuse(p, "authenticator-skew", req);
    if p.config.address_in_ticket {
        let elsewhere = p.tgt(|t| t.addr = Some(STRANGER.0));
        let req = p.tgs_req(elsewhere, echo.clone(), none, None, |_| {});
        refuse(p, "tgt-address", req);
    }
    let req = p.tgs_req(good.clone(), echo.clone(), none, None, |a| a.cksum = None);
    refuse(p, "checksum-missing", req);
    let md4 = checksum::compute(ChecksumType::Md4, None, b"request").expect("checksum");
    let req = p.tgs_req(good.clone(), echo.clone(), none, None, |a| a.cksum = Some(md4));
    refuse(p, "checksum-type", req);
    let other = p.request_checksum(b"another request");
    let req = p.tgs_req(good.clone(), echo.clone(), none, None, |a| a.cksum = Some(other));
    refuse(p, "checksum-mismatch", req);

    let renew = KdcOptions::empty().with(KdcOptions::RENEW);
    let req = p.tgs_req(good.clone(), tgs.clone(), renew, None, |_| {});
    refuse(p, "renew-not-renewable", req);
    let renewable = p.tgt(|t| t.flags = t.flags.with(TicketFlags::RENEWABLE));
    let req = p.tgs_req(renewable, echo.clone(), renew, None, |_| {});
    refuse(p, "renew-other-service", req);

    let req = p.tgs_req(good.clone(), Principal::cross_realm_tgs("ELSEWHERE.EDU", &realm), none, None, |_| {});
    refuse(p, "no-inter-realm-key", req);
    let req = p.tgs_req(good.clone(), Principal::service("nosuch", "host", &realm), none, None, |_| {});
    refuse(p, "unknown-service", req);

    let skey = KdcOptions::empty().with(KdcOptions::ENC_TKT_IN_SKEY);
    if p.config.allow_enc_tkt_in_skey {
        let req = p.tgs_req(good.clone(), echo.clone(), skey, None, |_| {});
        refuse(p, "enc-tkt-in-skey-no-ticket", req);
        let req = p.tgs_req(good.clone(), echo.clone(), skey, Some(vec![0x5a; 48]), |_| {});
        refuse(p, "enc-tkt-in-skey-unsealable", req);
        if p.config.enforce_cname_match {
            let req = p.tgs_req(good.clone(), echo.clone(), skey, Some(good.clone()), |_| {});
            refuse(p, "enc-tkt-in-skey-cname", req);
        }
    } else {
        let req = p.tgs_req(good.clone(), echo.clone(), skey, Some(good.clone()), |_| {});
        refuse(p, "enc-tkt-in-skey-disallowed", req);
    }
    let reuse = KdcOptions::empty().with(KdcOptions::REUSE_SKEY);
    if p.config.allow_reuse_skey {
        let req = p.tgs_req(good.clone(), echo.clone(), reuse, None, |_| {});
        refuse(p, "reuse-skey-no-ticket", req);
        let req = p.tgs_req(good.clone(), echo.clone(), reuse, Some(vec![0x5a; 48]), |_| {});
        refuse(p, "reuse-skey-unsealable", req);
    } else {
        let req = p.tgs_req(good.clone(), echo.clone(), reuse, Some(good.clone()), |_| {});
        refuse(p, "reuse-skey-disallowed", req);
    }
    let forwarded = KdcOptions::empty().with(KdcOptions::FORWARDED);
    let req = p.tgs_req(good, echo, forwarded, None, |_| {});
    refuse(p, "forward-not-forwardable", req);
}

/// The echo server: AP requests, challenge responses, session commands
/// and plain data.
fn app_cases(p: &mut Probe) {
    let (server, pat) = (p.realm.service_ep("echo"), p.pat_ep);
    let stranger = Endpoint::new(STRANGER, 1024);
    let codec = p.config.codec;
    let refuse = |p: &mut Probe, case: &'static str, req: ApReq| {
        p.refusal("ap", case, pat, server, req.encode(codec));
    };

    p.refusal("app", "unexpected-kind", pat, server, frame(WireKind::AsReq, vec![0x5a; 16]));
    p.refusal("ap", "undecodable", pat, server, frame(WireKind::ApReq, vec![0x5a; 16]));
    let req = p.ap_req(vec![0x5a; 48], |_| {});
    refuse(p, "ticket-unsealable", req);
    let (now, skew) = (p.now(), p.skew());
    let files = p.realm.service("files");
    let ticket = p.echo_ticket(|t| t.service = files);
    let req = p.ap_req(ticket, |_| {});
    refuse(p, "ticket-for-other-service", req);
    let ticket = p.echo_ticket(|t| {
        t.start_time = now - 9 * HOUR_US;
        t.end_time = now - HOUR_US;
    });
    let req = p.ap_req(ticket, |_| {});
    refuse(p, "ticket-expired", req);
    if p.config.forbid_duplicate_skey_auth {
        let ticket = p.echo_ticket(|t| t.flags = t.flags.with(TicketFlags::DUPLICATE_SKEY));
        let req = p.ap_req(ticket, |_| {});
        refuse(p, "ticket-duplicate-skey", req);
    }
    if p.config.address_in_ticket {
        let ticket = p.echo_ticket(|t| t.addr = Some(STRANGER.0));
        let req = p.ap_req(ticket, |_| {});
        refuse(p, "ticket-address", req);
    }

    let ticket = p.echo_ticket(|_| {});
    match p.config.auth_style {
        AuthStyle::Timestamp => {
            let mut req = p.ap_req(ticket.clone(), |_| {});
            req.authenticator = vec![0x5a; 48];
            refuse(p, "authenticator-unsealable", req);
            let sam = p.realm.user("sam");
            let req = p.ap_req(ticket.clone(), |a| a.client = sam);
            refuse(p, "authenticator-client-mismatch", req);
            let req = p.ap_req(ticket.clone(), |a| a.timestamp = now - 2 * skew);
            refuse(p, "authenticator-skew", req);
            if p.config.address_in_ticket {
                let req = p.ap_req(ticket.clone(), |a| a.addr = STRANGER.0);
                refuse(p, "authenticator-address", req);
            }
            if p.config.service_binding {
                let req = p.ap_req(ticket.clone(), |a| a.service_binding = None);
                refuse(p, "authenticator-unbound", req);
            }
        }
        AuthStyle::ChallengeResponse => {
            let req = p.ap_req(ticket.clone(), |_| {});
            refuse(p, "challenge", req);
        }
    }

    let garbage = || vec![0x5a; 24];
    p.refusal("challenge", "none-outstanding", stranger, server, frame(WireKind::ChallengeResp, garbage()));
    if p.config.auth_style == AuthStyle::ChallengeResponse {
        let probe = p.ap_req(ticket.clone(), |_| {}).encode(codec);
        p.challenge(pat, server, probe.clone());
        p.refusal("challenge", "unopenable", pat, server, frame(WireKind::ChallengeResp, garbage()));
        p.challenge(pat, server, probe.clone());
        let key = p.session_key;
        let sealed = p.config.ticket_layer.seal(&key, 0, &garbage(), &mut p.rng).expect("seal");
        p.refusal("challenge", "undecodable", pat, server, frame(WireKind::ChallengeResp, sealed));
        let nonce = p.challenge(pat, server, probe);
        let part = EncApRepPart { ts_echo: nonce.wrapping_add(7), subkey: None, seq_init: Some(1) };
        let sealed = p.config.ticket_layer.seal(&key, 0, &part.encode(codec), &mut p.rng).expect("seal");
        p.refusal("challenge", "wrong-response", pat, server, frame(WireKind::ChallengeResp, sealed));
    }

    p.refusal("priv", "no-session", stranger, server, frame(WireKind::Priv, garbage()));
    p.refusal("safe", "no-session", stranger, server, frame(WireKind::Safe, garbage()));
    if p.config.app_protection == AppProtection::Plain {
        p.refusal("app-data", "unauthenticated", stranger, server, frame(WireKind::AppData, b"ls".to_vec()));
    } else {
        p.refusal("app-data", "plain-refused", pat, server, frame(WireKind::AppData, b"ls".to_vec()));
    }

    // An established session at pat's workstation.
    let cred = Credential {
        client: p.pat.clone(),
        service: p.realm.service("echo"),
        sealed_ticket: ticket.clone(),
        session_key: p.session_key,
        end_time: now + 8 * HOUR_US,
    };
    let config = p.config.clone();
    connect_app(&mut p.net, &config, pat, server, &cred, &mut p.rng).expect("AP exchange");
    p.refusal("priv", "garbled", pat, server, frame(WireKind::Priv, garbage()));
    p.refusal("safe", "garbled", pat, server, frame(WireKind::Safe, garbage()));

    if p.config.replay_cache && p.config.auth_style == AuthStyle::Timestamp {
        let accepted = p.ap_req(ticket.clone(), |_| {});
        p.send(pat, server, accepted.encode(codec));
        refuse(p, "authenticator-replayed", accepted);
        if p.config.persist_replay_cache {
            p.restart_echo();
            let stamp = p.now() - 60_000_000;
            let req = p.ap_req(ticket, |a| a.timestamp = stamp);
            refuse(p, "fail-closed", req);
        }
    }
}

/// Every refusal, per deployment, in the order the cases run.
const EXPECTED: &[Row] = &[
    ("v4", "kdc", "unexpected-kind", 1, "unexpected message kind", ""),
    ("v4", "as", "undecodable", 1, "malformed message: field length exceeds message in field 'client' at byte 4", ""),
    ("v4", "as", "unknown-client", 2, "no such client", ""),
    ("v4", "as", "unknown-service", 2, "no such service", ""),
    ("v4", "tgs", "undecodable", 1, "malformed message: field length exceeds message in field 'tgt' at byte 4", ""),
    ("v4", "tgs", "tgt-unsealable", 1, "malformed message: TGT unseal failed", ""),
    ("v4", "tgs", "tgt-expired", 1, "TGT expired", ""),
    ("v4", "tgs", "authenticator-unsealable", 1, "malformed message: V4 length field out of range", ""),
    ("v4", "tgs", "authenticator-client-mismatch", 1, "authenticator/ticket client mismatch", ""),
    ("v4", "tgs", "authenticator-skew", 5, "authenticator too old", ""),
    ("v4", "tgs", "tgt-address", 1, "address mismatch", ""),
    ("v4", "tgs", "checksum-missing", 9, "missing request checksum", ""),
    ("v4", "tgs", "checksum-type", 9, "wrong checksum type", ""),
    ("v4", "tgs", "checksum-mismatch", 9, "request checksum mismatch", ""),
    ("v4", "tgs", "renew-not-renewable", 8, "ticket is not renewable", ""),
    ("v4", "tgs", "renew-other-service", 8, "renewal must name the original service", ""),
    ("v4", "tgs", "no-inter-realm-key", 8, "no inter-realm key for ELSEWHERE.EDU", ""),
    ("v4", "tgs", "unknown-service", 2, "no such service", ""),
    ("v4", "tgs", "enc-tkt-in-skey-disallowed", 8, "ENC-TKT-IN-SKEY not allowed", ""),
    ("v4", "tgs", "reuse-skey-disallowed", 8, "REUSE-SKEY not allowed", ""),
    ("v4", "tgs", "forward-not-forwardable", 8, "ticket is not forwardable", ""),
    ("v4", "app", "unexpected-kind", 1, "unexpected message kind", "ap.rejected"),
    ("v4", "ap", "undecodable", 1, "malformed message: field length exceeds message in field 'ticket' at byte 4", "ap.rejected"),
    ("v4", "ap", "ticket-unsealable", 1, "malformed message: V4 length field out of range", "ap.rejected"),
    ("v4", "ap", "ticket-for-other-service", 8, "ticket is for a different service", "ap.rejected"),
    ("v4", "ap", "ticket-expired", 8, "ticket expired", "ap.rejected"),
    ("v4", "ap", "ticket-address", 8, "ticket address mismatch", "ap.rejected"),
    ("v4", "ap", "authenticator-unsealable", 1, "malformed message: V4 length field out of range", "ap.rejected"),
    ("v4", "ap", "authenticator-client-mismatch", 1, "authenticator/ticket client mismatch", "ap.rejected"),
    ("v4", "ap", "authenticator-skew", 5, "authenticator outside skew window", "ap.rejected"),
    ("v4", "ap", "authenticator-address", 1, "authenticator address mismatch", "ap.rejected"),
    ("v4", "challenge", "none-outstanding", 1, "no challenge outstanding", "ap.rejected"),
    ("v4", "priv", "no-session", 1, "no session", "ap.rejected"),
    ("v4", "safe", "no-session", 1, "no session", "ap.rejected"),
    ("v4", "app-data", "unauthenticated", 1, "endpoint not authenticated", "ap.rejected"),
    ("v4", "priv", "garbled", 9, "malformed message: V4 length field out of range", "ap.rejected"),
    ("v4", "safe", "garbled", 9, "malformed message: priv length out of range", "ap.rejected"),
    ("v5-draft3", "kdc", "unexpected-kind", 1, "unexpected message kind", ""),
    ("v5-draft3", "as", "undecodable", 1, "bad typed envelope: magic at byte 0 (found 0x5a)", ""),
    ("v5-draft3", "as", "unknown-client", 2, "no such client", ""),
    ("v5-draft3", "as", "unknown-service", 2, "no such service", ""),
    ("v5-draft3", "tgs", "undecodable", 1, "bad typed envelope: magic at byte 0 (found 0x5a)", ""),
    ("v5-draft3", "tgs", "tgt-unsealable", 1, "malformed message: TGT unseal failed", ""),
    ("v5-draft3", "tgs", "tgt-expired", 1, "TGT expired", ""),
    ("v5-draft3", "tgs", "authenticator-unsealable", 1, "bad typed envelope: magic at byte 0 (found 0x0b)", ""),
    ("v5-draft3", "tgs", "authenticator-client-mismatch", 1, "authenticator/ticket client mismatch", ""),
    ("v5-draft3", "tgs", "authenticator-skew", 5, "authenticator too old", ""),
    ("v5-draft3", "tgs", "tgt-address", 1, "address mismatch", ""),
    ("v5-draft3", "tgs", "checksum-missing", 9, "missing request checksum", ""),
    ("v5-draft3", "tgs", "checksum-type", 9, "wrong checksum type", ""),
    ("v5-draft3", "tgs", "checksum-mismatch", 9, "request checksum mismatch", ""),
    ("v5-draft3", "tgs", "renew-not-renewable", 8, "ticket is not renewable", ""),
    ("v5-draft3", "tgs", "renew-other-service", 8, "renewal must name the original service", ""),
    ("v5-draft3", "tgs", "no-inter-realm-key", 8, "no inter-realm key for ELSEWHERE.EDU", ""),
    ("v5-draft3", "tgs", "unknown-service", 2, "no such service", ""),
    ("v5-draft3", "tgs", "enc-tkt-in-skey-no-ticket", 1, "ENC-TKT-IN-SKEY requires additional ticket", ""),
    ("v5-draft3", "tgs", "enc-tkt-in-skey-unsealable", 1, "malformed message: TGT unseal failed", ""),
    ("v5-draft3", "tgs", "reuse-skey-no-ticket", 1, "REUSE-SKEY requires additional ticket", ""),
    ("v5-draft3", "tgs", "reuse-skey-unsealable", 1, "malformed message: additional ticket unseal failed", ""),
    ("v5-draft3", "tgs", "forward-not-forwardable", 8, "ticket is not forwardable", ""),
    ("v5-draft3", "app", "unexpected-kind", 1, "unexpected message kind", "ap.rejected"),
    ("v5-draft3", "ap", "undecodable", 1, "bad typed envelope: magic at byte 0 (found 0x5a)", "ap.rejected"),
    ("v5-draft3", "ap", "ticket-unsealable", 1, "bad typed envelope: magic at byte 0 (found 0x0b)", "ap.rejected"),
    ("v5-draft3", "ap", "ticket-for-other-service", 8, "ticket is for a different service", "ap.rejected"),
    ("v5-draft3", "ap", "ticket-expired", 8, "ticket expired", "ap.rejected"),
    ("v5-draft3", "ap", "ticket-address", 8, "ticket address mismatch", "ap.rejected"),
    ("v5-draft3", "ap", "authenticator-unsealable", 1, "bad typed envelope: magic at byte 0 (found 0x0b)", "ap.rejected"),
    ("v5-draft3", "ap", "authenticator-client-mismatch", 1, "authenticator/ticket client mismatch", "ap.rejected"),
    ("v5-draft3", "ap", "authenticator-skew", 5, "authenticator outside skew window", "ap.rejected"),
    ("v5-draft3", "ap", "authenticator-address", 1, "authenticator address mismatch", "ap.rejected"),
    ("v5-draft3", "challenge", "none-outstanding", 1, "no challenge outstanding", "ap.rejected"),
    ("v5-draft3", "priv", "no-session", 1, "no session", "ap.rejected"),
    ("v5-draft3", "safe", "no-session", 1, "no session", "ap.rejected"),
    ("v5-draft3", "app-data", "plain-refused", 8, "plain data not accepted", "ap.rejected"),
    ("v5-draft3", "priv", "garbled", 9, "malformed message: priv part too short", "ap.rejected"),
    ("v5-draft3", "safe", "garbled", 9, "malformed message: priv length out of range", "ap.rejected"),
    ("hardened", "kdc", "unexpected-kind", 1, "unexpected message kind", ""),
    ("hardened", "as", "undecodable", 1, "bad typed envelope: magic at byte 0 (found 0x5a)", ""),
    ("hardened", "as", "unknown-client", 2, "no such client", ""),
    ("hardened", "as", "unknown-service", 2, "no such service", ""),
    ("hardened", "as", "challenge", 3, "respond to login challenge", "auth.challenge"),
    ("hardened", "as", "no-challenge-outstanding", 4, "no challenge outstanding", ""),
    ("hardened", "as", "bad-blob", 4, "preauthentication failed", "kdc.preauth_failed"),
    ("hardened", "as", "stale-blob", 4, "preauthentication failed", "kdc.preauth_failed"),
    ("hardened", "as", "dh-missing", 3, "DH public value required", ""),
    ("hardened", "as", "dh-invalid", 1, "DH public value outside [2, p-2]", ""),
    ("hardened", "as", "fail-closed", 11, "server fail-closed (post-restart window); retry later", "replay.fail_closed"),
    ("hardened", "as", "rate-limited", 10, "request rate exceeded", "kdc.rate_limited"),
    ("hardened", "tgs", "undecodable", 1, "bad typed envelope: magic at byte 0 (found 0x5a)", ""),
    ("hardened", "tgs", "tgt-unsealable", 1, "malformed message: TGT unseal failed", ""),
    ("hardened", "tgs", "tgt-expired", 1, "TGT expired", ""),
    ("hardened", "tgs", "authenticator-unsealable", 1, "encryption-layer integrity failure", ""),
    ("hardened", "tgs", "authenticator-client-mismatch", 1, "authenticator/ticket client mismatch", ""),
    ("hardened", "tgs", "authenticator-skew", 5, "authenticator too old", ""),
    ("hardened", "tgs", "checksum-missing", 9, "missing request checksum", ""),
    ("hardened", "tgs", "checksum-type", 9, "wrong checksum type", ""),
    ("hardened", "tgs", "checksum-mismatch", 9, "request checksum mismatch", ""),
    ("hardened", "tgs", "renew-not-renewable", 8, "ticket is not renewable", ""),
    ("hardened", "tgs", "renew-other-service", 8, "renewal must name the original service", ""),
    ("hardened", "tgs", "no-inter-realm-key", 8, "no inter-realm key for ELSEWHERE.EDU", ""),
    ("hardened", "tgs", "unknown-service", 2, "no such service", ""),
    ("hardened", "tgs", "enc-tkt-in-skey-disallowed", 8, "ENC-TKT-IN-SKEY not allowed", ""),
    ("hardened", "tgs", "reuse-skey-disallowed", 8, "REUSE-SKEY not allowed", ""),
    ("hardened", "tgs", "forward-not-forwardable", 8, "ticket is not forwardable", ""),
    ("hardened", "app", "unexpected-kind", 1, "unexpected message kind", "ap.rejected"),
    ("hardened", "ap", "undecodable", 1, "bad typed envelope: magic at byte 0 (found 0x5a)", "ap.rejected"),
    ("hardened", "ap", "ticket-unsealable", 1, "encryption-layer integrity failure", "ap.rejected"),
    ("hardened", "ap", "ticket-for-other-service", 8, "ticket is for a different service", "ap.rejected"),
    ("hardened", "ap", "ticket-expired", 8, "ticket expired", "ap.rejected"),
    ("hardened", "ap", "ticket-duplicate-skey", 8, "DUPLICATE-SKEY tickets not accepted for authentication", "ap.rejected"),
    ("hardened", "ap", "challenge", 7, "respond to challenge", "auth.challenge"),
    ("hardened", "challenge", "none-outstanding", 1, "no challenge outstanding", "ap.rejected"),
    ("hardened", "challenge", "unopenable", 1, "encryption-layer integrity failure", "ap.rejected"),
    ("hardened", "challenge", "undecodable", 1, "bad typed envelope: magic at byte 0 (found 0x5a)", "ap.rejected"),
    ("hardened", "challenge", "wrong-response", 1, "wrong challenge response", "ap.rejected"),
    ("hardened", "priv", "no-session", 1, "no session", "ap.rejected"),
    ("hardened", "safe", "no-session", 1, "no session", "ap.rejected"),
    ("hardened", "app-data", "plain-refused", 8, "plain data not accepted", "ap.rejected"),
    ("hardened", "priv", "garbled", 9, "encryption-layer integrity failure", "ap.rejected"),
    ("hardened", "safe", "garbled", 9, "malformed message: priv length out of range", "ap.rejected"),
    ("v5-draft3+checks", "kdc", "unexpected-kind", 1, "unexpected message kind", ""),
    ("v5-draft3+checks", "as", "undecodable", 1, "bad typed envelope: magic at byte 0 (found 0x5a)", ""),
    ("v5-draft3+checks", "as", "unknown-client", 2, "no such client", ""),
    ("v5-draft3+checks", "as", "unknown-service", 2, "no such service", ""),
    ("v5-draft3+checks", "as", "preauth-required", 3, "preauthentication required", ""),
    ("v5-draft3+checks", "as", "bad-blob", 4, "preauthentication failed", "kdc.preauth_failed"),
    ("v5-draft3+checks", "as", "stale-blob", 4, "preauthentication failed", "kdc.preauth_failed"),
    ("v5-draft3+checks", "as", "replayed-blob", 6, "replay detected", "replay.blocked"),
    ("v5-draft3+checks", "as", "fail-closed", 11, "server fail-closed (post-restart window); retry later", "replay.fail_closed"),
    ("v5-draft3+checks", "tgs", "undecodable", 1, "bad typed envelope: magic at byte 0 (found 0x5a)", ""),
    ("v5-draft3+checks", "tgs", "tgt-unsealable", 1, "malformed message: TGT unseal failed", ""),
    ("v5-draft3+checks", "tgs", "tgt-expired", 1, "TGT expired", ""),
    ("v5-draft3+checks", "tgs", "authenticator-unsealable", 1, "bad typed envelope: magic at byte 0 (found 0x0b)", ""),
    ("v5-draft3+checks", "tgs", "authenticator-client-mismatch", 1, "authenticator/ticket client mismatch", ""),
    ("v5-draft3+checks", "tgs", "authenticator-skew", 5, "authenticator too old", ""),
    ("v5-draft3+checks", "tgs", "tgt-address", 1, "address mismatch", ""),
    ("v5-draft3+checks", "tgs", "checksum-missing", 9, "missing request checksum", ""),
    ("v5-draft3+checks", "tgs", "checksum-type", 9, "wrong checksum type", ""),
    ("v5-draft3+checks", "tgs", "checksum-mismatch", 9, "request checksum mismatch", ""),
    ("v5-draft3+checks", "tgs", "renew-not-renewable", 8, "ticket is not renewable", ""),
    ("v5-draft3+checks", "tgs", "renew-other-service", 8, "renewal must name the original service", ""),
    ("v5-draft3+checks", "tgs", "no-inter-realm-key", 8, "no inter-realm key for ELSEWHERE.EDU", ""),
    ("v5-draft3+checks", "tgs", "unknown-service", 2, "no such service", ""),
    ("v5-draft3+checks", "tgs", "enc-tkt-in-skey-no-ticket", 1, "ENC-TKT-IN-SKEY requires additional ticket", ""),
    ("v5-draft3+checks", "tgs", "enc-tkt-in-skey-unsealable", 1, "malformed message: TGT unseal failed", ""),
    ("v5-draft3+checks", "tgs", "enc-tkt-in-skey-cname", 8, "additional-ticket cname mismatch", ""),
    ("v5-draft3+checks", "tgs", "reuse-skey-no-ticket", 1, "REUSE-SKEY requires additional ticket", ""),
    ("v5-draft3+checks", "tgs", "reuse-skey-unsealable", 1, "malformed message: additional ticket unseal failed", ""),
    ("v5-draft3+checks", "tgs", "forward-not-forwardable", 8, "ticket is not forwardable", ""),
    ("v5-draft3+checks", "app", "unexpected-kind", 1, "unexpected message kind", "ap.rejected"),
    ("v5-draft3+checks", "ap", "undecodable", 1, "bad typed envelope: magic at byte 0 (found 0x5a)", "ap.rejected"),
    ("v5-draft3+checks", "ap", "ticket-unsealable", 1, "bad typed envelope: magic at byte 0 (found 0x0b)", "ap.rejected"),
    ("v5-draft3+checks", "ap", "ticket-for-other-service", 8, "ticket is for a different service", "ap.rejected"),
    ("v5-draft3+checks", "ap", "ticket-expired", 8, "ticket expired", "ap.rejected"),
    ("v5-draft3+checks", "ap", "ticket-address", 8, "ticket address mismatch", "ap.rejected"),
    ("v5-draft3+checks", "ap", "authenticator-unsealable", 1, "bad typed envelope: magic at byte 0 (found 0x0b)", "ap.rejected"),
    ("v5-draft3+checks", "ap", "authenticator-client-mismatch", 1, "authenticator/ticket client mismatch", "ap.rejected"),
    ("v5-draft3+checks", "ap", "authenticator-skew", 5, "authenticator outside skew window", "ap.rejected"),
    ("v5-draft3+checks", "ap", "authenticator-address", 1, "authenticator address mismatch", "ap.rejected"),
    ("v5-draft3+checks", "ap", "authenticator-unbound", 8, "authenticator not bound to this service", "ap.rejected"),
    ("v5-draft3+checks", "challenge", "none-outstanding", 1, "no challenge outstanding", "ap.rejected"),
    ("v5-draft3+checks", "priv", "no-session", 1, "no session", "ap.rejected"),
    ("v5-draft3+checks", "safe", "no-session", 1, "no session", "ap.rejected"),
    ("v5-draft3+checks", "app-data", "plain-refused", 8, "plain data not accepted", "ap.rejected"),
    ("v5-draft3+checks", "priv", "garbled", 9, "malformed message: priv part too short", "ap.rejected"),
    ("v5-draft3+checks", "safe", "garbled", 9, "malformed message: priv length out of range", "ap.rejected"),
    ("v5-draft3+checks", "ap", "authenticator-replayed", 6, "authenticator replayed", "replay.blocked"),
    ("v5-draft3+checks", "ap", "fail-closed", 11, "server recently restarted; retry with a fresh authenticator", "replay.fail_closed"),
];

#[test]
fn refusal_surface() {
    let mut checks = ProtocolConfig::v5_draft3();
    checks.preauth = PreauthMode::EncTimestamp;
    checks.replay_cache = true;
    checks.persist_replay_cache = true;
    checks.service_binding = true;
    checks.enforce_cname_match = true;
    let deployments = [
        ("v4", ProtocolConfig::v4()),
        ("v5-draft3", ProtocolConfig::v5_draft3()),
        ("hardened", ProtocolConfig::hardened()),
        ("v5-draft3+checks", checks),
    ];
    let mut measured: Vec<Measured> = Vec::new();
    for (name, config) in deployments {
        let mut p = Probe::new(name, config);
        kdc_cases(&mut p);
        tgs_cases(&mut p);
        app_cases(&mut p);
        measured.append(&mut p.rows);
    }
    let same = measured.len() == EXPECTED.len()
        && measured.iter().zip(EXPECTED).all(|(m, e)| {
            (m.0, m.1, m.2, m.3, m.4.as_str(), m.5.as_str()) == (e.0, e.1, e.2, e.3, e.4, e.5)
        });
    if !same {
        let mut src = String::from("const EXPECTED: &[Row] = &[\n");
        for (deployment, exchange, case, code, text, events) in &measured {
            src += &format!("    ({deployment:?}, {exchange:?}, {case:?}, {code}, {text:?}, {events:?}),\n");
        }
        src += "];\n";
        panic!("the refusal surface drifted; the measured table is:\n\n{src}");
    }
}
