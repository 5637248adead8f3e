//! Negative-path coverage of the KDC and application servers: every
//! tampered, mismatched, or stale artifact must be rejected with a
//! protocol error, never accepted and never a panic.

use kerberos::appserver::connect_app;
use kerberos::authenticator::Authenticator;
use kerberos::client::{get_service_ticket, login, Credential, LoginInput, TgsParams};
use kerberos::messages::{deframe, err_code, ApReq, AsRep, AsReq, KrbErrorMsg, PaData, TgsReq, WireKind};
use kerberos::testbed::standard_campus;
use kerberos::{KrbError, Principal, ProtocolConfig};
use krb_crypto::checksum;
use krb_crypto::rng::Drbg;
use simnet::{Datagram, Endpoint, Network, SimDuration};

struct Env {
    net: Network,
    realm: kerberos::testbed::DeployedRealm,
    rng: Drbg,
    config: ProtocolConfig,
}

fn env(config: ProtocolConfig, seed: u64) -> Env {
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000));
    let realm = standard_campus(&mut net, &config, seed);
    Env { net, realm, rng: Drbg::new(seed ^ 0x9e9), config }
}

impl Env {
    fn tgt(&mut self, user: &str, pw: &str) -> Credential {
        login(
            &mut self.net,
            &self.config,
            self.realm.user_ep(user),
            self.realm.kdc_ep,
            &self.realm.user(user),
            LoginInput::Password(pw),
            &mut self.rng,
        )
        .expect("login")
    }

    fn ticket(&mut self, tgt: &Credential, service: &str) -> Result<Credential, KrbError> {
        get_service_ticket(
            &mut self.net,
            &self.config,
            self.realm.user_ep("pat"),
            self.realm.kdc_ep,
            tgt,
            &self.realm.service(service),
            TgsParams::default(),
            &mut self.rng,
        )
    }
}

#[test]
fn tampered_tgt_rejected() {
    let mut e = env(ProtocolConfig::v5_draft3(), 1);
    let mut tgt = e.tgt("pat", "correct-horse-battery");
    // Flip a byte in the sealed TGT.
    let mid = tgt.sealed_ticket.len() / 2;
    tgt.sealed_ticket[mid] ^= 0x40;
    let err = e.ticket(&tgt, "echo").unwrap_err();
    assert!(matches!(err, KrbError::Remote(_)), "{err}");
}

#[test]
fn wrong_session_key_authenticator_rejected() {
    let mut e = env(ProtocolConfig::v5_draft3(), 2);
    let mut tgt = e.tgt("pat", "correct-horse-battery");
    // Corrupt the client's copy of the session key: the authenticator
    // it seals will not decrypt under the ticket's true key.
    tgt.session_key = krb_crypto::des::DesKey::from_u64(0x1234_5678_9abc_def0).with_odd_parity();
    assert!(e.ticket(&tgt, "echo").is_err());
}

#[test]
fn checksum_required_on_tgs_requests() {
    // Hand-build a TGS request with NO checksum in the authenticator:
    // the KDC must refuse it outright.
    let config = ProtocolConfig::v5_draft3();
    let mut e = env(config.clone(), 3);
    let tgt = e.tgt("pat", "correct-horse-battery");
    let auth = Authenticator::basic(e.realm.user("pat"), e.realm.user_ep("pat").addr.0, e.net.now().0);
    let sealed_auth = auth
        .seal(config.codec, config.ticket_layer, &tgt.session_key, &mut e.rng)
        .unwrap();
    let req = TgsReq {
        tgt: tgt.sealed_ticket.clone(),
        authenticator: sealed_auth,
        service: e.realm.service("echo"),
        options: kerberos::flags::KdcOptions::empty(),
        nonce: 1,
        lifetime_us: 1_000_000,
        additional_ticket: None,
        forward_addr: None,
        authz_data: vec![],
    };
    let reply = e
        .net
        .rpc(e.realm.user_ep("pat"), e.realm.kdc_ep, req.encode(config.codec))
        .unwrap();
    assert_eq!(deframe(&reply).unwrap().0, WireKind::Err);
}

#[test]
fn wrong_checksum_type_rejected() {
    // A downgrade probe: seal an MD4 checksum where the deployment
    // demands CRC-32 (and vice versa) — type must match policy exactly.
    let config = ProtocolConfig::v5_draft3(); // demands Crc32
    let mut e = env(config.clone(), 4);
    let tgt = e.tgt("pat", "correct-horse-battery");
    let mut req = TgsReq {
        tgt: tgt.sealed_ticket.clone(),
        authenticator: vec![],
        service: e.realm.service("echo"),
        options: kerberos::flags::KdcOptions::empty(),
        nonce: 2,
        lifetime_us: 1_000_000,
        additional_ticket: None,
        forward_addr: None,
        authz_data: vec![],
    };
    let cksum = checksum::compute(
        krb_crypto::checksum::ChecksumType::Md4, // wrong type, correct value
        None,
        &req.checksum_body(),
    )
    .unwrap();
    let auth = Authenticator {
        client: e.realm.user("pat"),
        addr: e.realm.user_ep("pat").addr.0,
        timestamp: e.net.now().0,
        cksum: Some(cksum),
        service_binding: None,
        subkey: None,
        seq_init: None,
    };
    req.authenticator =
        auth.seal(config.codec, config.ticket_layer, &tgt.session_key, &mut e.rng).unwrap();
    let reply = e
        .net
        .rpc(e.realm.user_ep("pat"), e.realm.kdc_ep, req.encode(config.codec))
        .unwrap();
    assert_eq!(deframe(&reply).unwrap().0, WireKind::Err);
}

#[test]
fn stale_tgs_authenticator_rejected() {
    let config = ProtocolConfig::v5_draft3();
    let mut e = env(config.clone(), 5);
    let tgt = e.tgt("pat", "correct-horse-battery");
    // Build a correct request, then deliver it ten minutes later via
    // replay (the client-side helper would refresh the timestamp, so
    // capture-and-delay instead).
    let _ = e.ticket(&tgt, "echo").unwrap();
    let captured: Vec<Datagram> = e
        .net
        .traffic_log()
        .iter()
        .filter(|r| r.is_request && r.dgram.dst == e.realm.kdc_ep && r.dgram.payload.first() == Some(&(WireKind::TgsReq as u8)))
        .map(|r| r.dgram.clone())
        .collect();
    e.net.advance(SimDuration::from_mins(10));
    let reply = e.net.inject(captured.last().unwrap().clone()).unwrap().unwrap();
    assert_eq!(deframe(&reply).unwrap().0, WireKind::Err);
}

#[test]
fn cross_user_ticket_substitution_fails() {
    // zach presents pat's wiretapped TGT with zach's own authenticator:
    // the authenticator cannot be sealed with the right session key.
    let config = ProtocolConfig::v5_draft3();
    let mut e = env(config.clone(), 6);
    let pat_tgt = e.tgt("pat", "correct-horse-battery");
    let zach_tgt = e.tgt("zach", "attacker-owned");
    let frankenstein = Credential {
        client: e.realm.user("zach"),
        service: pat_tgt.service.clone(),
        sealed_ticket: pat_tgt.sealed_ticket.clone(), // pat's ticket
        session_key: zach_tgt.session_key,            // zach's key
        end_time: pat_tgt.end_time,
    };
    assert!(e.ticket(&frankenstein, "echo").is_err());
}

#[test]
fn ap_request_with_garbage_ticket_rejected() {
    let config = ProtocolConfig::hardened();
    let mut e = env(config.clone(), 7);
    let files_ep = e.realm.service_ep("files");
    let req = ApReq { ticket: vec![0xab; 64], authenticator: vec![], mutual: true };
    let reply = e
        .net
        .inject(Datagram {
            src: Endpoint::new(e.realm.user_ep("zach").addr, 7777),
            dst: files_ep,
            payload: req.encode(config.codec).into(),
        })
        .unwrap()
        .unwrap();
    assert_eq!(deframe(&reply).unwrap().0, WireKind::Err);
}

#[test]
fn unknown_service_in_tgs_request() {
    let mut e = env(ProtocolConfig::v5_draft3(), 8);
    let tgt = e.tgt("pat", "correct-horse-battery");
    let ghost = Principal::service("ghost", "nowhere", &e.realm.name);
    let err = get_service_ticket(
        &mut e.net,
        &e.config.clone(),
        e.realm.user_ep("pat"),
        e.realm.kdc_ep,
        &tgt,
        &ghost,
        TgsParams::default(),
        &mut e.rng,
    )
    .unwrap_err();
    assert!(err.to_string().contains("no such service"), "{err}");
}

#[test]
fn preauth_replay_rejected() {
    // Capture a preauth blob and submit it twice: the KDC's preauth
    // replay cache must catch the second.
    let mut config = ProtocolConfig::v4();
    config.preauth = kerberos::PreauthMode::EncTimestamp;
    let mut e = env(config.clone(), 9);
    let _ = e.tgt("pat", "correct-horse-battery");
    let as_req = e
        .net
        .traffic_log()
        .iter()
        .find(|r| r.is_request && r.dgram.payload.first() == Some(&(WireKind::AsReq as u8)))
        .map(|r| r.dgram.clone())
        .expect("AS request on the wire");
    let reply = e.net.inject(as_req).unwrap().unwrap();
    assert_eq!(deframe(&reply).unwrap().0, WireKind::Err, "replayed preauth must fail");
}

#[test]
fn expired_service_ticket_rejected_by_server() {
    let config = ProtocolConfig::v5_draft3();
    let mut e = env(config.clone(), 10);
    let tgt = e.tgt("pat", "correct-horse-battery");
    let st = e.ticket(&tgt, "echo").unwrap();
    // Jump past the ticket end time plus skew.
    e.net.advance(SimDuration::from_secs(9 * 3600));
    let result = connect_app(
        &mut e.net,
        &config,
        e.realm.user_ep("pat"),
        e.realm.service_ep("echo"),
        &st,
        &mut e.rng,
    );
    match result {
        Err(err) => assert!(matches!(err, KrbError::Remote(_)), "{err}"),
        Ok(_) => panic!("expired ticket accepted"),
    }
}

#[test]
fn challenge_response_wrong_answer_rejected() {
    let config = ProtocolConfig::hardened();
    let mut e = env(config.clone(), 11);
    let tgt = e.tgt("pat", "correct-horse-battery");
    let st = e.ticket(&tgt, "echo").unwrap();
    // Send the ApReq, receive the challenge, answer with garbage.
    let req = ApReq { ticket: st.sealed_ticket.clone(), authenticator: vec![], mutual: true };
    let reply = e
        .net
        .rpc(e.realm.user_ep("pat"), e.realm.service_ep("echo"), req.encode(config.codec))
        .unwrap();
    let err = kerberos::messages::KrbErrorMsg::decode(config.codec, &reply).unwrap();
    assert!(err.challenge.is_some());
    // Garbage response.
    let bogus = config
        .ticket_layer
        .seal(&st.session_key, 0, b"not a valid part", &mut e.rng)
        .unwrap();
    let reply = e
        .net
        .rpc(
            e.realm.user_ep("pat"),
            e.realm.service_ep("echo"),
            kerberos::messages::frame(WireKind::ChallengeResp, bogus),
        )
        .unwrap();
    assert_eq!(deframe(&reply).unwrap().0, WireKind::Err);
}

#[test]
fn servers_reject_commands_without_sessions() {
    let config = ProtocolConfig::v5_draft3();
    let mut e = env(config.clone(), 12);
    // A KRB_PRIV message to a server that has never seen this endpoint.
    let reply = e
        .net
        .inject(Datagram {
            src: Endpoint::new(e.realm.user_ep("zach").addr, 2222),
            dst: e.realm.service_ep("files"),
            payload: kerberos::messages::frame(WireKind::Priv, vec![0u8; 32]).into(),
        })
        .unwrap()
        .unwrap();
    assert_eq!(deframe(&reply).unwrap().0, WireKind::Err);
}

/// The appendix's last attack: "the attacker substitutes a different
/// ticket ... in key distribution replies from Kerberos. The encrypted
/// part of such a message does not contain any checksum to validate that
/// the message was not tampered with in transit. While this appears to
/// be more a denial-of-service attack than a penetration, it would be
/// useful for the client to know this immediately." Recommendation (c)
/// — a collision-proof checksum of the sealed ticket inside the reply —
/// gives the client that immediate knowledge.
#[test]
fn in_reply_ticket_corruption_detected_only_with_ticket_checksum() {
    use simnet::{ScriptedTap, Verdict};

    let run = |with_cksum: bool| -> (Result<Credential, KrbError>, bool) {
        let mut config = ProtocolConfig::v5_draft3();
        config.ticket_cksum_in_rep = with_cksum;
        let mut e = env(config.clone(), 13);
        let tgt = e.tgt("pat", "correct-horse-battery");

        // The in-path attacker flips a byte deep inside the TGS reply's
        // encrypted part — in the region carrying the nested sealed
        // ticket. CBC garbles two blocks there; the framing and session
        // key survive, so without a checksum the client cannot tell.
        e.net.set_tap(Box::new(ScriptedTap::new(|d: &mut Datagram, _| {
            if d.payload.first() == Some(&(WireKind::TgsRep as u8)) && d.payload.len() > 120 {
                let idx = d.payload.len() - 60; // inside the nested ticket
                d.payload[idx] ^= 0x10;
            }
            Verdict::Deliver
        })));
        let got = e.ticket(&tgt, "echo");
        let _ = e.net.take_tap();

        // If the client accepted the corrupted credential, does it find
        // out only when the server rejects it?
        let late_failure = match &got {
            Ok(st) => connect_app(
                &mut e.net,
                &config,
                e.realm.user_ep("pat"),
                e.realm.service_ep("echo"),
                st,
                &mut e.rng,
            )
            .is_err(),
            Err(_) => false,
        };
        (got, late_failure)
    };

    // Draft 3 as written: the client accepts the reply and discovers the
    // damage only at the server — the delayed denial of service.
    let (got, late_failure) = run(false);
    assert!(got.is_ok(), "draft3 client cannot detect the substitution");
    assert!(late_failure, "the corrupted ticket fails only at use time");

    // With recommendation (c): the client rejects the reply on the spot.
    let (got, _) = run(true);
    assert!(matches!(got, Err(KrbError::BadChecksum)), "got {got:?}");
}

/// Recommendation (h) hides `{...}K_c` only while the DH key is secret.
/// A client value of 0 or 1, p−1, or one at or past p pins the shared
/// secret to a constant anyone can derive, so the KDC must answer such an
/// AS-REQ with a KRB-ERROR, never an AS-REP sealed under that key.
#[test]
fn kdc_rejects_degenerate_dh_public_values() {
    use krb_crypto::bignum::BigUint;
    let mut config = ProtocolConfig::v5_draft3();
    config.dh_login = true;
    let mut e = env(config.clone(), 14);
    let p = krb_crypto::dh::DhGroup::oakley768().p;
    let one = BigUint::one();
    let mut send = |dh_public: Vec<u8>| {
        let req = AsReq {
            client: e.realm.user("pat"),
            service: Principal::tgs(&e.realm.name),
            nonce: 14,
            lifetime_us: config.ticket_lifetime_us,
            addr: e.realm.user_ep("pat").addr.0,
            options: kerberos::flags::KdcOptions::empty(),
            padata: vec![PaData::DhPublic(dh_public)],
        };
        e.net.rpc(e.realm.user_ep("pat"), e.realm.kdc_ep, req.encode(config.codec)).unwrap()
    };
    let degenerate = [
        Vec::new(),
        vec![1],
        p.sub(&one).to_bytes_be(),
        p.to_bytes_be(),
        one.shl_bits(800).to_bytes_be(),
    ];
    for value in degenerate {
        let reply = send(value.clone());
        let err = KrbErrorMsg::decode(config.codec, &reply)
            .unwrap_or_else(|_| panic!("an AS-REP for DH public value {value:02x?}"));
        assert_eq!(err.code, err_code::GENERIC, "{value:02x?}");
    }
    // The extremes of the legal range still get an AS-REP.
    for value in [vec![2], p.sub(&BigUint::from_u64(2)).to_bytes_be()] {
        assert_eq!(deframe(&send(value)).unwrap().0, WireKind::AsRep);
    }
}

/// The client applies the same check to the KDC's value: an in-path
/// attacker who rewrites the AS-REP's DH public value to 1 gets the login
/// refused as a DH failure, before any unsealing under the constant key.
#[test]
fn client_rejects_degenerate_dh_public_value() {
    use simnet::{ScriptedTap, Verdict};

    let mut config = ProtocolConfig::v5_draft3();
    config.dh_login = true;
    let mut e = env(config.clone(), 15);
    let codec = config.codec;
    e.net.set_tap(Box::new(ScriptedTap::new(move |d: &mut Datagram, _| {
        if let Ok(mut rep) = AsRep::decode(codec, &d.payload) {
            rep.dh_public = Some(vec![1]);
            d.payload = rep.encode(codec).into();
        }
        Verdict::Deliver
    })));
    let got = login(
        &mut e.net,
        &e.config,
        e.realm.user_ep("pat"),
        e.realm.kdc_ep,
        &e.realm.user("pat"),
        LoginInput::Password("correct-horse-battery"),
        &mut e.rng,
    );
    let want = KrbError::from(krb_crypto::CryptoError::BadDhPublic);
    assert_eq!(got.map(|_| ()), Err(want));
}
