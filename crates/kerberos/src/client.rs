//! Client-side protocol workflows: login (AS exchange) and ticket
//! acquisition (TGS exchange).

use crate::authenticator::Authenticator;
use crate::config::{PreauthMode, ProtocolConfig};
use crate::encoding::MsgType;
use crate::error::KrbError;
use crate::flags::KdcOptions;
use crate::kdc::hha_key;
use crate::messages::{
    deframe, err_code, AsRep, AsReq, EncKdcRepPart, KrbErrorMsg, PaData, TgsRep, TgsReq, WireKind,
};
use crate::principal::Principal;
use crate::retry::{self, reply_transient, AttemptErr};
use krb_crypto::checksum;
use krb_crypto::des::{DesKey, ScheduledKey};
use krb_crypto::dh::DhGroup;
use krb_crypto::rng::RandomSource;
use krb_crypto::s2k;
use krb_trace::{EventKind, ValueRef};
use simnet::{Endpoint, Network, SimDuration};

/// How the user authenticates at login.
pub enum LoginInput<'a> {
    /// A typed password: the workstation sees it (the A6 exposure).
    Password(&'a str),
    /// A handheld authenticator: a function computing `{R}K_c` from the
    /// challenge. The password never enters the workstation.
    Handheld(&'a dyn Fn(u64) -> DesKey),
}

/// A credential: a sealed ticket plus its session key.
#[derive(Clone, Debug)]
pub struct Credential {
    /// The client principal.
    pub client: Principal,
    /// The service the ticket is for.
    pub service: Principal,
    /// The sealed ticket, opaque to the client.
    pub sealed_ticket: Vec<u8>,
    /// The session key shared with the service.
    pub session_key: DesKey,
    /// Expiry (KDC clock), µs.
    pub end_time: u64,
}

/// Parses a KDC reply that may be an error message.
fn check_error(config: &ProtocolConfig, reply: &[u8]) -> Result<(), KrbError> {
    if let Ok((WireKind::Err, _)) = deframe(reply) {
        let e = KrbErrorMsg::decode(config.codec, reply)?;
        if e.code == err_code::TRY_LATER {
            // The server is in its fail-closed startup window: an
            // always-retryable condition, not a verdict.
            return Err(KrbError::FailClosed);
        }
        if e.code == err_code::SERVER_BUSY {
            // The admission tier shed this request: back off and retry
            // without burning failover budget.
            return Err(KrbError::ServerBusy);
        }
        return Err(KrbError::Remote(format!("KDC error {}: {}", e.code, e.text)));
    }
    Ok(())
}

/// Performs the AS exchange ("login") from `client_ep` against the KDC at
/// `kdc_ep`. Returns the ticket-granting credential.
#[allow(clippy::too_many_arguments)]
pub fn login(
    net: &mut Network,
    config: &ProtocolConfig,
    client_ep: Endpoint,
    kdc_ep: Endpoint,
    client: &Principal,
    input: LoginInput<'_>,
    rng: &mut dyn RandomSource,
) -> Result<Credential, KrbError> {
    login_at(net, config, client_ep, &[kdc_ep], client, input, rng)
}

/// [`login`] with replica failover: walks `kdcs` round-robin across
/// retry attempts (mirroring a real client's krb.conf list of master +
/// slave KDCs), with per-attempt timeouts and exponential backoff from
/// `config.retry`. The nonce is FIXED across attempts — it is what
/// matches a (possibly duplicated or reordered) reply to this exchange —
/// while timestamps, preauth blobs, and DH/HHA material are re-stamped
/// fresh per attempt so a server that already committed an earlier
/// attempt's blob to its replay cache cannot mistake the retry for a
/// replay.
#[allow(clippy::too_many_arguments)]
pub fn login_at(
    net: &mut Network,
    config: &ProtocolConfig,
    client_ep: Endpoint,
    kdcs: &[Endpoint],
    client: &Principal,
    input: LoginInput<'_>,
    rng: &mut dyn RandomSource,
) -> Result<Credential, KrbError> {
    assert!(!kdcs.is_empty(), "need at least one KDC endpoint");
    let kc: Option<DesKey> = match &input {
        LoginInput::Password(pw) => Some(s2k::string_to_key_v5(pw, &client.salt())),
        LoginInput::Handheld(_) => None,
    };

    let nonce = rng.next_u64();

    // Exponential key exchange under the login dialog. The keypair is
    // drawn once: like the nonce, it identifies this logical exchange.
    let dh = if config.dh_login {
        let group = DhGroup::oakley768();
        let keypair = group.keypair(160, rng)?;
        Some((group, keypair))
    } else {
        None
    };

    let timeout = Some(SimDuration(config.retry.timeout_us));
    // Each replica deserves the full per-server budget: a client with N
    // KDCs in its configuration makes N times the attempts, walking the
    // list round-robin.
    let mut policy = config.retry;
    policy.attempts = policy.attempts.saturating_mul(kdcs.len() as u32);
    let trace = net.tracer();
    let client_name = client.to_string();
    let span =
        trace.begin_span("as-exchange", net.now().0, [("client", ValueRef::Str(&client_name))]);
    let result = retry::run(net, &policy, nonce, |net, attempt| {
        let kdc_ep = kdcs[attempt as usize % kdcs.len()];
        let mut padata = Vec::new();
        if let Some((_, kp)) = &dh {
            padata.push(PaData::DhPublic(kp.public.to_bytes_be()));
        }

        // Handheld-authenticator deployments run a two-round exchange:
        // the first request draws a challenge R; the retry proves
        // possession of {R}K_c via a sealed timestamp (which doubles as
        // preauthentication).
        let mut hha_response_key: Option<DesKey> = None;
        if config.hha_login {
            let probe = AsReq {
                client: client.clone(),
                service: Principal::tgs(&client.realm),
                nonce,
                lifetime_us: config.ticket_lifetime_us,
                addr: client_ep.addr.0,
                options: KdcOptions::empty()
                    .with(KdcOptions::FORWARDABLE)
                    .with(KdcOptions::RENEWABLE),
                padata: padata.clone(),
            };
            let reply = net.rpc_with_timeout(client_ep, kdc_ep, probe.encode(config.codec), timeout)?;
            let err = KrbErrorMsg::decode(config.codec, &reply)
                .map_err(|_| reply_transient(net, KrbError::Remote("expected a login challenge".into())))?;
            if err.code == err_code::SERVER_BUSY {
                // The admission tier shed the probe: back off and retry
                // the whole challenge round.
                return Err(AttemptErr::Busy);
            }
            let r = err
                .challenge
                .ok_or_else(|| reply_transient(net, KrbError::Remote("KDC sent no challenge".into())))?;
            let kprime = match (&input, &kc) {
                (LoginInput::Handheld(device), _) => device(r),
                (LoginInput::Password(_), Some(kc)) => hha_key(kc, r),
                _ => return Err(AttemptErr::Fatal(KrbError::Remote("no way to answer challenge".into()))),
            };
            let now = client_local_time_us(net, client_ep)?;
            let blob = config.ticket_layer.seal(&kprime, 0, &now.to_be_bytes(), rng)?;
            padata.push(PaData::EncTimestamp(blob));
            hha_response_key = Some(kprime);
        } else if config.preauth == PreauthMode::EncTimestamp {
            // Plain preauthentication: {local time}K_c, stamped fresh
            // per attempt.
            if let Some(kc) = &kc {
                let now = client_local_time_us(net, client_ep)?;
                let blob = config.ticket_layer.seal(kc, 0, &now.to_be_bytes(), rng)?;
                padata.push(PaData::EncTimestamp(blob));
            }
        }

        // Athena-style default: request forwardable + renewable TGTs.
        let req = AsReq {
            client: client.clone(),
            service: Principal::tgs(&client.realm),
            nonce,
            lifetime_us: config.ticket_lifetime_us,
            addr: client_ep.addr.0,
            options: KdcOptions::empty().with(KdcOptions::FORWARDABLE).with(KdcOptions::RENEWABLE),
            padata,
        };
        let reply = net.rpc_with_timeout(client_ep, kdc_ep, req.encode(config.codec), timeout)?;
        check_error(config, &reply).map_err(|e| reply_transient(net, e))?;
        let rep = AsRep::decode(config.codec, &reply).map_err(|e| reply_transient(net, e))?;

        // Peel the DH layer if present.
        let inner = if let (Some((group, kp)), Some(server_pub)) = (&dh, &rep.dh_public) {
            let secret = group
                .peer_public(server_pub)
                .and_then(|their| group.shared_secret(&their, &kp.private))
                .map_err(|e| reply_transient(net, KrbError::from(e)))?;
            let dh_key = DhGroup::derive_key(&secret);
            config
                .ticket_layer
                .open(&dh_key, 0, &rep.enc_part)
                .map_err(|e| reply_transient(net, e))?
        } else if config.dh_login {
            return Err(reply_transient(net, KrbError::Remote("KDC did not complete key exchange".into())));
        } else {
            rep.enc_part.clone()
        };

        // Choose the unsealing key: {R}K_c (already computed during the
        // challenge round) or K_c.
        let unseal_key = match (&hha_response_key, &kc) {
            (Some(k), _) => *k,
            (None, Some(kc)) => *kc,
            (None, None) => {
                return Err(AttemptErr::Fatal(KrbError::Remote(
                    "handheld login needs a challenge from the KDC".into(),
                )))
            }
        };

        let part_bytes = config
            .ticket_layer
            .open(&unseal_key, 0, &inner)
            .map_err(|e| reply_transient(net, e))?;
        let part = EncKdcRepPart::decode(config.codec, MsgType::EncAsRepPart, &part_bytes)
            .map_err(|e| reply_transient(net, e))?;
        // Nonce echo: the KDC proved knowledge of K_c *now* — server-to-
        // client authentication without trusting the workstation clock.
        // Under faults this is also what rejects a stale reply from a
        // different exchange that a duplication or reordering surfaced.
        if part.nonce != nonce {
            return Err(reply_transient(net, KrbError::Remote("AS reply nonce mismatch".into())));
        }

        let tr = net.tracer();
        let key_fpr = crate::traceview::fingerprint(&part.session_key);
        tr.emit_ref(
            EventKind::TicketDecrypted,
            net.now().0,
            [
                ("exchange", ValueRef::Str("as")),
                ("client", ValueRef::Str(&client_name)),
                ("key_fpr", ValueRef::Str(&key_fpr)),
            ],
        );
        tr.counter("client.tickets", &client.name, 1);
        Ok(Credential {
            client: client.clone(),
            service: Principal::tgs(&client.realm),
            sealed_ticket: part.ticket,
            session_key: part.session_key,
            end_time: part.end_time,
        })
    });
    trace.end_span(span, net.now().0, &client.name);
    result
}

/// Reads the local clock of the host owning `ep`.
pub fn client_local_time_us(net: &Network, ep: Endpoint) -> Result<u64, KrbError> {
    let hid = net
        .host_by_addr(ep.addr)
        .ok_or_else(|| KrbError::Net(format!("no host for {}", ep.addr)))?;
    Ok(net.host_time(hid).0)
}

/// Parameters for a TGS request beyond the defaults.
#[derive(Clone, Debug, Default)]
pub struct TgsParams {
    /// Request options.
    pub options: KdcOptions,
    /// Additional ticket for ENC-TKT-IN-SKEY / REUSE-SKEY.
    pub additional_ticket: Option<Vec<u8>>,
    /// Authorization data.
    pub authz_data: Vec<u8>,
    /// Destination address for a FORWARDED ticket.
    pub forward_addr: Option<u64>,
}

/// Obtains a service ticket via the TGS, using a ticket-granting
/// credential.
#[allow(clippy::too_many_arguments)]
pub fn get_service_ticket(
    net: &mut Network,
    config: &ProtocolConfig,
    client_ep: Endpoint,
    kdc_ep: Endpoint,
    tgt: &Credential,
    service: &Principal,
    params: TgsParams,
    rng: &mut dyn RandomSource,
) -> Result<Credential, KrbError> {
    get_service_ticket_at(net, config, client_ep, &[kdc_ep], tgt, service, params, rng)
}

/// [`get_service_ticket`] with replica failover: walks `kdcs`
/// round-robin across retry attempts. The request nonce is fixed (it
/// matches replies to this exchange); the authenticator is re-stamped
/// and re-sealed fresh per attempt.
#[allow(clippy::too_many_arguments)]
pub fn get_service_ticket_at(
    net: &mut Network,
    config: &ProtocolConfig,
    client_ep: Endpoint,
    kdcs: &[Endpoint],
    tgt: &Credential,
    service: &Principal,
    params: TgsParams,
    rng: &mut dyn RandomSource,
) -> Result<Credential, KrbError> {
    assert!(!kdcs.is_empty(), "need at least one KDC endpoint");
    let nonce = rng.next_u64();
    let timeout = Some(SimDuration(config.retry.timeout_us));
    // Full per-server budget times the replica count, as in `login_at`.
    let mut policy = config.retry;
    policy.attempts = policy.attempts.saturating_mul(kdcs.len() as u32);
    let tgt_key = ScheduledKey::new(tgt.session_key);

    let trace = net.tracer();
    let (client_name, service_name) = (tgt.client.to_string(), service.to_string());
    let span = trace.begin_span(
        "tgs-exchange",
        net.now().0,
        [("client", ValueRef::Str(&client_name)), ("service", ValueRef::Str(&service_name))],
    );
    let result = retry::run(net, &policy, nonce, |net, attempt| {
        let kdc_ep = kdcs[attempt as usize % kdcs.len()];
        let now = client_local_time_us(net, client_ep)?;

        // Build the request body first so the authenticator can seal a
        // checksum over it.
        let mut req = TgsReq {
            tgt: tgt.sealed_ticket.clone(),
            authenticator: Vec::new(),
            service: service.clone(),
            options: params.options,
            nonce,
            lifetime_us: config.ticket_lifetime_us,
            additional_ticket: params.additional_ticket.clone(),
            forward_addr: params.forward_addr,
            authz_data: params.authz_data.clone(),
        };
        let key_opt = config.checksum.is_keyed().then_some(&tgt.session_key);
        let cksum = checksum::compute(config.checksum, key_opt, &req.checksum_body())?;

        let auth = Authenticator {
            client: tgt.client.clone(),
            addr: client_ep.addr.0,
            timestamp: now,
            cksum: Some(cksum),
            service_binding: config.service_binding.then(|| service.clone()),
            subkey: None,
            seq_init: None,
        };
        req.authenticator = auth.seal_with(config.codec, config.ticket_layer, &tgt_key, rng)?;

        let reply = net.rpc_with_timeout(client_ep, kdc_ep, req.encode(config.codec), timeout)?;
        check_error(config, &reply).map_err(|e| reply_transient(net, e))?;
        let rep = TgsRep::decode(config.codec, &reply).map_err(|e| reply_transient(net, e))?;
        let part_bytes = config
            .ticket_layer
            .open_with(&tgt_key, 0, &rep.enc_part)
            .map_err(|e| reply_transient(net, e))?;
        let part = EncKdcRepPart::decode(config.codec, MsgType::EncTgsRepPart, &part_bytes)
            .map_err(|e| reply_transient(net, e))?;
        if part.nonce != nonce {
            return Err(reply_transient(net, KrbError::Remote("TGS reply nonce mismatch".into())));
        }
        // Recommendation (c): verify the collision-proof checksum binding
        // the sealed ticket to this reply, if the deployment provides it.
        if let Some(c) = &part.ticket_cksum {
            let key_opt = c.ctype.is_keyed().then_some(&tgt.session_key);
            checksum::verify(c, key_opt, &part.ticket)
                .map_err(|_| reply_transient(net, KrbError::BadChecksum))?;
        }

        let tr = net.tracer();
        let key_fpr = crate::traceview::fingerprint(&part.session_key);
        tr.emit_ref(
            EventKind::TicketDecrypted,
            net.now().0,
            [
                ("exchange", ValueRef::Str("tgs")),
                ("client", ValueRef::Str(&client_name)),
                ("service", ValueRef::Str(&service_name)),
                ("key_fpr", ValueRef::Str(&key_fpr)),
            ],
        );
        tr.counter("client.tickets", &tgt.client.name, 1);
        Ok(Credential {
            client: tgt.client.clone(),
            service: service.clone(),
            sealed_ticket: part.ticket,
            session_key: part.session_key,
            end_time: part.end_time,
        })
    });
    trace.end_span(span, net.now().0, &tgt.client.name);
    result
}

/// Renews a renewable ticket-granting credential, extending its
/// validity window (same session key, new end time).
pub fn renew_tgt(
    net: &mut Network,
    config: &ProtocolConfig,
    client_ep: Endpoint,
    kdc_ep: Endpoint,
    tgt: &Credential,
    rng: &mut dyn RandomSource,
) -> Result<Credential, KrbError> {
    get_service_ticket(
        net,
        config,
        client_ep,
        kdc_ep,
        tgt,
        &tgt.service,
        TgsParams { options: KdcOptions::empty().with(KdcOptions::RENEW), ..Default::default() },
        rng,
    )
}

/// Obtains a FORWARDED ticket-granting credential bound to
/// `dest_addr`, for transfer to another host. The paper recommends
/// *deleting* this feature; it exists here so its problems (no origin
/// recorded, cascading trust) are demonstrable.
#[allow(clippy::too_many_arguments)]
pub fn forward_tgt(
    net: &mut Network,
    config: &ProtocolConfig,
    client_ep: Endpoint,
    kdc_ep: Endpoint,
    tgt: &Credential,
    dest_addr: u32,
    rng: &mut dyn RandomSource,
) -> Result<Credential, KrbError> {
    get_service_ticket(
        net,
        config,
        client_ep,
        kdc_ep,
        tgt,
        &tgt.service,
        TgsParams {
            options: KdcOptions::empty().with(KdcOptions::FORWARDED).with(KdcOptions::FORWARDABLE),
            forward_addr: Some(u64::from(dest_addr)),
            ..Default::default()
        },
        rng,
    )
}
