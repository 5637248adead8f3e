//! The Key Distribution Center: AS and TGS exchanges.
//!
//! One [`Kdc`] serves one realm, bound to port [`KDC_PORT`] of its host.
//! Every protocol decision the paper critiques is driven by the
//! [`ProtocolConfig`]: preauthentication, the DH login layer,
//! handheld-authenticator login, checksum type, the ENC-TKT-IN-SKEY and
//! REUSE-SKEY options (with or without the cname check Draft 3 omitted),
//! rate limiting, and address binding.

use crate::authenticator::Authenticator;
use crate::config::{PreauthMode, ProtocolConfig};
use crate::database::KdcDatabase;
use crate::encoding::MsgType;
use crate::error::KrbError;
use crate::flags::{KdcOptions, TicketFlags};
use crate::messages::{
    err_code, AsRep, AsReq, EncKdcRepPart, KrbErrorMsg, PaData, Refusal, TgsRep, TgsReq, WireKind,
};
use crate::principal::Principal;
use crate::replay_cache::{CacheVerdict, DurableCache};
use crate::ticket::Ticket;
use krb_crypto::checksum;
use krb_crypto::des::{DesKey, ScheduledKey};
use krb_crypto::dh::DhGroup;
use krb_crypto::rng::{Drbg, RandomSource};
use krb_trace::{EventKind, Tracer, Value, ValueRef};
use simnet::{Endpoint, Service, ServiceCtx};
use std::collections::BTreeMap;

/// The conventional KDC port.
pub const KDC_PORT: u16 = 88;

/// Bound on the per-client bookkeeping maps (`req_counts`,
/// `pending_hha`): a million-principal soak must not grow KDC memory
/// linearly with the number of distinct sources ever seen.
pub const RATE_MAP_BOUND: usize = 1024;

/// Makes room in a bounded per-client map before inserting a new key:
/// first drops every entry whose window expired (its timestamp is more
/// than `window_us` old), then — if the map is still full — the entries
/// with the oldest timestamps, smallest map key first. Both passes are
/// pure functions of the map contents and `now_us`, so eviction is
/// deterministic across runs. Returns how many entries were evicted.
fn evict_for_insert<K: Ord + Clone, V>(
    map: &mut BTreeMap<K, V>,
    bound: usize,
    now_us: u64,
    window_us: u64,
    stamp: impl Fn(&V) -> u64,
) -> u64 {
    if map.len() < bound {
        return 0;
    }
    let mut evicted = 0u64;
    let expired: Vec<K> = map
        .iter()
        .filter(|(_, v)| now_us.saturating_sub(stamp(v)) > window_us)
        .map(|(k, _)| k.clone())
        .collect();
    for k in &expired {
        map.remove(k);
        evicted += 1;
    }
    while map.len() >= bound {
        // BTreeMap iteration is key-ordered, so min_by_key's first-wins
        // tie break picks the same victim on every run.
        let Some(victim) = map.iter().min_by_key(|(_, v)| stamp(v)).map(|(k, _)| k.clone()) else {
            break;
        };
        map.remove(&victim);
        evicted += 1;
    }
    evicted
}

/// Derives the handheld-authenticator response key `{R}K_c`.
pub fn hha_key(kc: &DesKey, r: u64) -> DesKey {
    hha_key_with(&ScheduledKey::new(*kc), r)
}

/// [`hha_key`] under an already-expanded `K_c`.
pub fn hha_key_with(kc: &ScheduledKey, r: u64) -> DesKey {
    DesKey::from_u64(kc.encrypt_block(r)).with_odd_parity()
}

/// The KDC service.
pub struct Kdc {
    /// Deployment configuration.
    pub config: ProtocolConfig,
    /// The realm database.
    pub db: KdcDatabase,
    tgs_key: ScheduledKey,
    rng: Drbg,
    /// Per-source AS-request counters for rate limiting: addr ->
    /// (window start µs, count). Bounded at [`RATE_MAP_BOUND`] entries
    /// with deterministic eviction of expired windows.
    req_counts: BTreeMap<u32, (u64, u32)>,
    /// Replay cache for preauthentication blobs, persisted if so configured.
    preauth_cache: DurableCache,
    /// Outstanding handheld-authenticator challenges:
    /// (client, source addr) -> (R, issued at µs). Bounded like
    /// `req_counts`, evicting the stalest challenges first.
    pending_hha: BTreeMap<(Principal, u32), (u64, u64)>,
    /// Reusable plaintext scratch for preauth-blob opens: the batch
    /// path opens thousands of blobs without allocating per request.
    scratch: Vec<u8>,
    /// Restarts observed (crash windows ridden out).
    pub restarts: u32,
    /// The network's tracer, refreshed from the service context on
    /// every dispatch so internal handlers can emit without threading
    /// the context through each of them.
    trace: Tracer,
    /// Network true time at dispatch, µs — the timestamp events carry
    /// (protocol checks keep using the host's *local* clock).
    trace_now_us: u64,
}

impl Kdc {
    /// Builds a KDC over `db`. A database without the realm's TGS
    /// principal gets one provisioned with a key derived from
    /// `rng_seed` — protocol code must not panic (`clippy::expect_used`).
    pub fn new(config: ProtocolConfig, mut db: KdcDatabase, rng_seed: u64) -> Self {
        let tgs = Principal::tgs(db.realm());
        let tgs_raw = match db.lookup(&tgs) {
            Ok(e) => e.key,
            Err(_) => {
                let k = DesKey::from_u64(rng_seed ^ 0x6b72_6254_4753_6b79).with_odd_parity();
                db.add_tgs(k);
                k
            }
        };
        let tgs_key = ScheduledKey::new(tgs_raw);
        let preauth_cache = DurableCache::new(config.clock_skew_us, config.persist_replay_cache);
        Kdc {
            config,
            db,
            tgs_key,
            rng: Drbg::new(rng_seed),
            req_counts: BTreeMap::new(),
            preauth_cache,
            pending_hha: BTreeMap::new(),
            scratch: Vec::new(),
            restarts: 0,
            trace: Tracer::new(),
            trace_now_us: 0,
        }
    }

    /// The realm this KDC serves.
    pub fn realm(&self) -> &str {
        self.db.realm()
    }

    /// Applies the per-source AS rate limit, if configured.
    fn rate_limited(&mut self, src_addr: u32, now_us: u64) -> bool {
        let Some(limit) = self.config.kdc_rate_limit else { return false };
        let window = self.config.clock_skew_us.max(1);
        if !self.req_counts.contains_key(&src_addr) {
            let evicted =
                evict_for_insert(&mut self.req_counts, RATE_MAP_BOUND, now_us, window, |v| v.0);
            if evicted > 0 {
                self.trace.counter("kdc.rate_evictions", "req_counts", evicted);
            }
        }
        let entry = self.req_counts.entry(src_addr).or_insert((now_us, 0));
        if now_us.saturating_sub(entry.0) > window {
            *entry = (now_us, 0);
        }
        entry.1 += 1;
        entry.1 > limit
    }

    /// Extracts the encrypted-timestamp preauthentication blob.
    fn preauth_blob(req: &AsReq) -> Option<Vec<u8>> {
        req.padata.iter().find_map(|p| match p {
            PaData::EncTimestamp(b) => Some(b.clone()),
            _ => None,
        })
    }

    /// Verifies a `{timestamp}key` preauthentication blob. Checks the
    /// replay cache WITHOUT recording: the blob is committed only when
    /// the whole request succeeds, so a request that fails later cannot
    /// poison a legitimate retry. Takes the already-expanded key
    /// schedule and opens into the KDC's reusable scratch buffer, so a
    /// batch of requests pays no per-blob allocation.
    fn check_preauth_blob(
        &mut self,
        blob: &[u8],
        key: &ScheduledKey,
        now_us: u64,
    ) -> Result<(), KrbError> {
        let layer = self.config.ticket_layer;
        let mut scratch = std::mem::take(&mut self.scratch);
        let opened = layer.open_into(key, 0, blob, &mut scratch);
        let ts = if opened.is_ok() && scratch.len() >= 8 {
            Some(u64::from_be_bytes(crate::encoding::be_array::<8>(&scratch[..8])))
        } else {
            None
        };
        self.scratch = scratch;
        let Some(ts) = ts else { return Err(KrbError::PreauthFailed) };
        if ts.abs_diff(now_us) > self.config.clock_skew_us {
            return Err(KrbError::PreauthFailed);
        }
        match self.preauth_cache.live.check(blob, ts, now_us) {
            CacheVerdict::Replayed => Err(KrbError::Replay),
            CacheVerdict::FailClosed => Err(KrbError::FailClosed),
            CacheVerdict::Fresh => Ok(()),
        }
    }

    /// Handles KRB_AS_REQ.
    fn as_exchange(&mut self, body: &[u8], from: Endpoint, now_us: u64) -> Result<Vec<u8>, Refusal> {
        let req = AsReq::decode(self.config.codec, body)?;
        if self.rate_limited(from.addr.0, now_us) {
            self.trace.emit(
                EventKind::RateLimited,
                self.trace_now_us,
                vec![
                    ("client", Value::str(&req.client.name)),
                    ("src", Value::str(from.addr.to_string())),
                ],
            );
            self.trace.counter("kdc.rate_limited", &req.client.name, 1);
            return Err(Refusal::new(err_code::RATE_LIMITED, "request rate exceeded"));
        }
        let client_key = self
            .db
            .lookup(&req.client)
            .map_err(|_| Refusal::new(err_code::UNKNOWN_PRINCIPAL, "no such client"))?
            .key;
        if !self.db.contains(&req.service) {
            return Err(Refusal::new(err_code::UNKNOWN_PRINCIPAL, "no such service"));
        }

        // A preauth blob that passes `check` is remembered here and
        // committed to the replay cache only once the whole exchange
        // succeeds.
        let mut commit_blob: Option<Vec<u8>> = None;

        // Handheld-authenticator login is a two-round exchange: the KDC
        // issues a challenge R, and the client proves possession of
        // {R}K_c by sealing a preauthentication timestamp with it. The
        // sealed timestamp doubles as preauthentication, so ticket
        // harvesting (A5) fails here too.
        //
        // Whichever path runs, the key that will seal the reply part is
        // schedule-expanded exactly once here and reused for the
        // preauth open — the batch path's per-request amortization.
        let (challenge_r, reply_sched): (Option<u64>, ScheduledKey) = if self.config.hha_login {
            match Self::preauth_blob(&req) {
                None => {
                    // Challenge issuance is idempotent per (client,
                    // addr): a retransmitted or duplicated probe gets
                    // the SAME outstanding R, so a late duplicate on a
                    // lossy wire cannot invalidate the challenge the
                    // client is busy answering.
                    let key = (req.client.clone(), from.addr.0);
                    let r = match self.pending_hha.get(&key) {
                        Some((r, _)) => *r,
                        None => {
                            let evicted = evict_for_insert(
                                &mut self.pending_hha,
                                RATE_MAP_BOUND,
                                now_us,
                                self.config.clock_skew_us.max(1),
                                |v| v.1,
                            );
                            if evicted > 0 {
                                self.trace.counter("kdc.rate_evictions", "pending_hha", evicted);
                            }
                            let r = self.rng.next_u64();
                            self.pending_hha.insert(key, (r, now_us));
                            r
                        }
                    };
                    self.trace.emit(
                        EventKind::ChallengeIssued,
                        self.trace_now_us,
                        vec![("client", Value::str(&req.client.name))],
                    );
                    self.trace.counter("kdc.challenges", &req.client.name, 1);
                    return Ok(KrbErrorMsg {
                        code: err_code::PREAUTH_REQUIRED,
                        text: "respond to login challenge".into(),
                        challenge: Some(r),
                    }
                    .encode(self.config.codec));
                }
                Some(blob) => {
                    let key = (req.client.clone(), from.addr.0);
                    let Some((r, _)) = self.pending_hha.get(&key).copied() else {
                        return Err(Refusal::new(err_code::PREAUTH_FAILED, "no challenge outstanding"));
                    };
                    let kprime = ScheduledKey::new(hha_key(&client_key, r));
                    // On failure the challenge stays outstanding: a
                    // stale duplicate of an EARLIER response must not
                    // consume the R the honest client is about to
                    // answer. Guessing against a standing R is
                    // rate-limited like everything else.
                    self.check_preauth_blob(&blob, &kprime, now_us)
                        .map_err(|e| self.preauth_refusal(&req.client, e))?;
                    self.pending_hha.remove(&key);
                    commit_blob = Some(blob);
                    (Some(r), kprime)
                }
            }
        } else {
            let client_sched = ScheduledKey::new(client_key);
            // Plain preauthentication (recommendation g).
            if self.config.preauth == PreauthMode::EncTimestamp {
                let blob = Self::preauth_blob(&req).ok_or_else(|| {
                    Refusal::new(err_code::PREAUTH_REQUIRED, "preauthentication required")
                })?;
                self.check_preauth_blob(&blob, &client_sched, now_us)
                    .map_err(|e| self.preauth_refusal(&req.client, e))?;
                commit_blob = Some(blob);
            }
            (None, client_sched)
        };

        // Issue the ticket-granting ticket, honoring requested
        // attribute options.
        let mut flags = TicketFlags::empty().with(TicketFlags::INITIAL);
        if req.options.has(KdcOptions::FORWARDABLE) {
            flags = flags.with(TicketFlags::FORWARDABLE);
        }
        if req.options.has(KdcOptions::RENEWABLE) {
            flags = flags.with(TicketFlags::RENEWABLE);
        }
        let session_key = self.rng.gen_des_key();
        let end_time = now_us + req.lifetime_us.min(self.config.ticket_lifetime_us);
        let ticket = Ticket {
            flags,
            client: req.client.clone(),
            service: req.service.clone(),
            addr: self.config.address_in_ticket.then_some(req.addr),
            auth_time: now_us,
            start_time: now_us,
            end_time,
            session_key,
            transited: vec![],
        };
        // The reply part is sealed under the schedule expanded above:
        // K_c, or {R}K_c for handheld authenticators.
        let inner = self.seal_reply(&ticket, None, &reply_sched, MsgType::EncAsRepPart, req.nonce, now_us)?;

        // Optional exponential-key-exchange outer layer (recommendation
        // h): a passive wiretapper no longer records anything decryptable
        // by a password guess.
        let (dh_public, enc_part) = if self.config.dh_login {
            let client_pub = req.padata.iter().find_map(|p| match p {
                PaData::DhPublic(b) => Some(b),
                _ => None,
            });
            let Some(client_pub) = client_pub else {
                return Err(Refusal::new(err_code::PREAUTH_REQUIRED, "DH public value required"));
            };
            // Check the client's value before spending a modexp on ours.
            let group = DhGroup::oakley768();
            let their = group.peer_public(client_pub)?;
            let kp = group.keypair(160, &mut self.rng)?;
            let secret = group.shared_secret(&their, &kp.private)?;
            let dh_key = DhGroup::derive_key(&secret);
            let outer = self.config.ticket_layer.seal(&dh_key, 0, &inner, &mut self.rng)?;
            (Some(kp.public.to_bytes_be()), outer)
        } else {
            (None, inner)
        };

        // Every check passed: only now does the preauth blob enter the
        // replay cache (and, on its schedule, the on-disk snapshot).
        if let Some(blob) = &commit_blob {
            self.preauth_cache.commit(blob, now_us);
        }
        self.trace_issue("as", &req.client, &req.service, &session_key, end_time);
        Ok(AsRep { challenge_r, dh_public, enc_part }.encode(self.config.codec))
    }

    /// The tail the AS exchange, the TGS exchange and renewal share:
    /// seals `ticket` (under the realm's TGS key when `ticket_key` is
    /// `None`), adds the ticket checksum of recommendation (c) if the
    /// deployment includes one, and seals the reply part, of type `mtype`
    /// and echoing `nonce`, under `reply_key`.
    fn seal_reply(
        &mut self,
        ticket: &Ticket,
        ticket_key: Option<&DesKey>,
        reply_key: &ScheduledKey,
        mtype: MsgType,
        nonce: u64,
        now_us: u64,
    ) -> Result<Vec<u8>, Refusal> {
        let (codec, layer) = (self.config.codec, self.config.ticket_layer);
        let sealed_ticket = match ticket_key {
            None => ticket.seal_with(codec, layer, &self.tgs_key, &mut self.rng)?,
            Some(key) => ticket.seal(codec, layer, key, &mut self.rng)?,
        };
        // An AS reply keys the checksum with the new session key; a TGS
        // reply with the TGT's session key, the one sealing the reply.
        let cksum_key = match mtype {
            MsgType::EncAsRepPart => &ticket.session_key,
            _ => reply_key.key(),
        };
        let ticket_cksum = self
            .config
            .ticket_cksum_in_rep
            .then(|| {
                let key = self.config.checksum.is_keyed().then_some(cksum_key);
                // Key presence matches is_keyed, so compute cannot fail; on
                // the unreachable error the reply omits the checksum rather
                // than panicking the KDC.
                checksum::compute(self.config.checksum, key, &sealed_ticket).ok()
            })
            .flatten();
        let part = EncKdcRepPart {
            session_key: ticket.session_key,
            nonce,
            ticket: sealed_ticket,
            end_time: ticket.end_time,
            server_time: now_us,
            ticket_cksum,
        };
        Ok(layer.seal_with(reply_key, 0, &part.encode(codec, mtype), &mut self.rng)?)
    }

    /// Records a ticket issuance in the trace: which exchange, for whom,
    /// for what service, expiring when — and the session key only as a
    /// redacted fingerprint (S004).
    fn trace_issue(
        &self,
        exchange: &'static str,
        client: &Principal,
        service: &Principal,
        session_key: &DesKey,
        end_time: u64,
    ) {
        let (client_name, service_name) = (client.to_string(), service.to_string());
        let key_fpr = crate::traceview::fingerprint(session_key);
        self.trace.emit_ref(
            EventKind::TicketIssued,
            self.trace_now_us,
            [
                ("exchange", ValueRef::Str(exchange)),
                ("client", ValueRef::Str(&client_name)),
                ("service", ValueRef::Str(&service_name)),
                ("key_fpr", ValueRef::Str(&key_fpr)),
                ("end_time_us", ValueRef::U64(end_time)),
            ],
        );
        self.trace.counter("kdc.issued", &client.name, 1);
    }

    /// Classifies a preauthentication failure as the right refusal and
    /// records the verdict in the trace (replay hits, fail-closed
    /// windows, and plain failures are distinct events).
    fn preauth_refusal(&self, client: &Principal, e: KrbError) -> Refusal {
        let (code, kind) = match e {
            KrbError::Replay => (err_code::REPLAY, EventKind::ReplayBlocked),
            KrbError::FailClosed => (err_code::TRY_LATER, EventKind::FailClosed),
            _ => (err_code::PREAUTH_FAILED, EventKind::PreauthFailed),
        };
        self.trace.emit(
            kind,
            self.trace_now_us,
            vec![
                ("site", Value::str("kdc.preauth")),
                ("client", Value::str(&client.name)),
                ("error", Value::str(e.to_string())),
            ],
        );
        self.trace.counter("kdc.preauth_rejects", &client.name, 1);
        Refusal::new(code, e.to_string())
    }

    /// Attempts to unseal a presented TGT under the realm TGS key or any
    /// cross-realm key.
    fn unseal_tgt(&self, sealed: &[u8]) -> Result<Ticket, KrbError> {
        if let Ok(t) = Ticket::unseal_with(self.config.codec, self.config.ticket_layer, &self.tgs_key, sealed)
        {
            return Ok(t);
        }
        // Cross-realm: a remote TGS sealed this with a shared inter-realm
        // key, stored locally as krbtgt.<remote>@<this-realm>. Try every
        // inter-realm entry: the sealed ticket names no server in the
        // clear to pick the key by.
        for (_, entry) in self.db.tgs_entries() {
            if let Ok(t) = Ticket::unseal(self.config.codec, self.config.ticket_layer, &entry.key, sealed) {
                return Ok(t);
            }
        }
        Err(KrbError::Decode("TGT unseal failed"))
    }

    /// Attempts to unseal any ticket the KDC could know the key for:
    /// TGTs, cross-realm tickets, or service tickets (the KDC holds all
    /// service keys). Needed by REUSE-SKEY, whose additional ticket is a
    /// service ticket.
    fn unseal_any(&self, sealed: &[u8]) -> Result<Ticket, KrbError> {
        if let Ok(t) = self.unseal_tgt(sealed) {
            return Ok(t);
        }
        for (_, entry) in self.db.entries() {
            if let Ok(t) = Ticket::unseal(self.config.codec, self.config.ticket_layer, &entry.key, sealed) {
                return Ok(t);
            }
        }
        Err(KrbError::Decode("additional ticket unseal failed"))
    }

    /// Handles KRB_TGS_REQ.
    fn tgs_exchange(&mut self, body: &[u8], from: Endpoint, now_us: u64) -> Result<Vec<u8>, Refusal> {
        let req = TgsReq::decode(self.config.codec, body)?;
        let tgt = self.unseal_tgt(&req.tgt)?;
        if !tgt.valid_at(now_us, self.config.clock_skew_us) {
            return Err(Refusal::new(err_code::GENERIC, "TGT expired"));
        }

        // The TGT session key seals the authenticator we are about to
        // open AND the reply part we will send: expand its schedule once
        // for the whole exchange.
        let tgt_sched = ScheduledKey::new(tgt.session_key);

        // Authenticator under the TGS session key.
        let auth = Authenticator::unseal_with(
            self.config.codec,
            self.config.ticket_layer,
            &tgt_sched,
            &req.authenticator,
        )?;
        if auth.client != tgt.client {
            return Err(Refusal::new(err_code::GENERIC, "authenticator/ticket client mismatch"));
        }
        if auth.timestamp.abs_diff(now_us) > self.config.clock_skew_us {
            return Err(Refusal::new(err_code::SKEW, "authenticator too old"));
        }
        if let Some(taddr) = tgt.addr {
            if self.config.address_in_ticket && taddr != from.addr.0 {
                return Err(Refusal::new(err_code::GENERIC, "address mismatch"));
            }
        }

        // The checksum sealed in the authenticator must cover the
        // cleartext request fields. With CRC-32 this check is the one
        // attack A9 defeats by collision.
        let Some(c) = &auth.cksum else {
            return Err(Refusal::new(err_code::INTEGRITY, "missing request checksum"));
        };
        if c.ctype != self.config.checksum {
            return Err(Refusal::new(err_code::INTEGRITY, "wrong checksum type"));
        }
        let key = c.ctype.is_keyed().then_some(&tgt.session_key);
        if checksum::verify(c, key, &req.checksum_body()).is_err() {
            return Err(Refusal::new(err_code::INTEGRITY, "request checksum mismatch"));
        }

        // Ticket renewal: reissue the presented (renewable) TGT with a
        // fresh validity window and the same session key. "The latter is
        // a security measure; the longer a ticket is in use, the greater
        // the risk" — renewal trades a KDC round trip for bounded
        // exposure.
        if req.options.has(KdcOptions::RENEW) {
            if !tgt.flags.has(TicketFlags::RENEWABLE) {
                return Err(Refusal::new(err_code::POLICY, "ticket is not renewable"));
            }
            if req.service != tgt.service {
                return Err(Refusal::new(err_code::POLICY, "renewal must name the original service"));
            }
            let end_time = now_us + req.lifetime_us.min(self.config.ticket_lifetime_us);
            let renewed = Ticket { start_time: now_us, end_time, ..tgt.clone() };
            let enc_part =
                self.seal_reply(&renewed, None, &tgt_sched, MsgType::EncTgsRepPart, req.nonce, now_us)?;
            self.trace_issue("tgs.renew", &tgt.client, &req.service, &tgt.session_key, end_time);
            return Ok(TgsRep { enc_part }.encode(self.config.codec));
        }

        // Resolve the target service and its sealing key.
        let cross_realm_target = req.service.is_tgs() && req.service.instance != self.realm();
        let service_key = if cross_realm_target {
            let p = Principal::cross_realm_tgs(&req.service.instance, self.realm());
            self.db
                .lookup(&p)
                .map_err(|_| {
                    Refusal::new(err_code::POLICY, format!("no inter-realm key for {}", req.service.instance))
                })?
                .key
        } else {
            self.db
                .lookup(&req.service)
                .map_err(|_| Refusal::new(err_code::UNKNOWN_PRINCIPAL, "no such service"))?
                .key
        };

        // Option processing.
        let mut flags = TicketFlags::empty();
        let mut session_key = self.rng.gen_des_key();
        let mut sealing_key = service_key;

        if req.options.has(KdcOptions::ENC_TKT_IN_SKEY) {
            if !self.config.allow_enc_tkt_in_skey {
                return Err(Refusal::new(err_code::POLICY, "ENC-TKT-IN-SKEY not allowed"));
            }
            let add = req.additional_ticket.as_deref().ok_or_else(|| {
                Refusal::new(err_code::GENERIC, "ENC-TKT-IN-SKEY requires additional ticket")
            })?;
            let add_tkt = self.unseal_tgt(add)?;
            // The check "apparently inadvertently omitted from Draft 3":
            // the cname in the additional ticket must match the server
            // name for which the new ticket is requested.
            if self.config.enforce_cname_match && add_tkt.client != req.service {
                return Err(Refusal::new(err_code::POLICY, "additional-ticket cname mismatch"));
            }
            sealing_key = add_tkt.session_key;
        }

        if req.options.has(KdcOptions::REUSE_SKEY) {
            if !self.config.allow_reuse_skey {
                return Err(Refusal::new(err_code::POLICY, "REUSE-SKEY not allowed"));
            }
            let add = req.additional_ticket.as_deref().ok_or_else(|| {
                Refusal::new(err_code::GENERIC, "REUSE-SKEY requires additional ticket")
            })?;
            session_key = self.unseal_any(add)?.session_key;
            flags = flags.with(TicketFlags::DUPLICATE_SKEY);
        }

        // Ticket forwarding. Note, faithfully to the paper's complaint:
        // the FORWARDED flag is set "but does not include the original
        // source" — the receiving server cannot evaluate where the chain
        // began.
        let mut bound_addr = self.config.address_in_ticket.then_some(from.addr.0);
        if req.options.has(KdcOptions::FORWARDED) {
            if !tgt.flags.has(TicketFlags::FORWARDABLE) {
                return Err(Refusal::new(err_code::POLICY, "ticket is not forwardable"));
            }
            flags = flags.with(TicketFlags::FORWARDED);
            if self.config.address_in_ticket {
                bound_addr = Some(req.forward_addr.unwrap_or(u64::from(from.addr.0)) as u32);
            }
        }
        if req.options.has(KdcOptions::FORWARDABLE) && tgt.flags.has(TicketFlags::FORWARDABLE) {
            flags = flags.with(TicketFlags::FORWARDABLE);
        }

        // A ticket for a remote realm's TGS records this realm on its
        // transited path.
        let mut transited = tgt.transited.clone();
        if cross_realm_target {
            transited.push(self.realm().to_string());
        }

        let lifetime = req.lifetime_us.min(self.config.ticket_lifetime_us);
        let end_time = (now_us + lifetime).min(tgt.end_time);
        let ticket = Ticket {
            flags,
            client: tgt.client.clone(),
            service: req.service.clone(),
            addr: bound_addr,
            auth_time: tgt.auth_time,
            start_time: now_us,
            end_time,
            session_key,
            transited,
        };
        let enc_part =
            self.seal_reply(&ticket, Some(&sealing_key), &tgt_sched, MsgType::EncTgsRepPart, req.nonce, now_us)?;
        self.trace_issue("tgs", &tgt.client, &req.service, &session_key, end_time);
        Ok(TgsRep { enc_part }.encode(self.config.codec))
    }

    /// Processes a batch of AS/TGS requests in order through
    /// [`Service::handle`], one datagram at a time.
    ///
    /// Replies are byte-identical to calling [`Service::handle`] per
    /// datagram, except that a datagram with no message kind yields an
    /// encoded GENERIC error rather than silence, so the output always
    /// lines up index-for-index with the batch.
    pub fn handle_batch(&mut self, ctx: &mut ServiceCtx, batch: &[(Vec<u8>, Endpoint)]) -> Vec<Vec<u8>> {
        batch
            .iter()
            .map(|(req, from)| {
                self.handle(ctx, req, *from)
                    .unwrap_or_else(|| Refusal::unexpected_kind().encode(self.config.codec))
            })
            .collect()
    }
}

impl Service for Kdc {
    fn handle(&mut self, ctx: &mut ServiceCtx, req: &[u8], from: Endpoint) -> Option<Vec<u8>> {
        self.trace = ctx.tracer.clone();
        self.trace_now_us = ctx.true_time.0;
        let now_us = ctx.local_time.0;
        let kind = req.first().copied().and_then(WireKind::from_u8)?;
        let reply = match kind {
            WireKind::AsReq => self.as_exchange(req, from, now_us),
            WireKind::TgsReq => self.tgs_exchange(req, from, now_us),
            _ => Err(Refusal::unexpected_kind()),
        };
        Some(reply.unwrap_or_else(|refusal| refusal.encode(self.config.codec)))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    /// A crash window ended: volatile state (challenges, rate counters)
    /// is gone, and the preauth replay cache reboots: restored from its
    /// last snapshot, fail-closing the gap since, when the deployment
    /// persists it, and empty otherwise.
    fn on_restart(&mut self, ctx: &mut ServiceCtx) {
        self.trace = ctx.tracer.clone();
        self.trace_now_us = ctx.true_time.0;
        self.pending_hha.clear();
        self.req_counts.clear();
        self.restarts += 1;
        self.preauth_cache.reboot(ctx.local_time.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hha_key_depends_on_both_inputs() {
        let kc = DesKey::from_u64(0x1111).with_odd_parity();
        let kc2 = DesKey::from_u64(0x2222).with_odd_parity();
        assert_ne!(hha_key(&kc, 1), hha_key(&kc, 2));
        assert_ne!(hha_key(&kc, 1), hha_key(&kc2, 1));
        assert!(hha_key(&kc, 1).has_odd_parity());
    }

    #[test]
    fn kdc_constructs_with_tgs() {
        let mut db = KdcDatabase::new("ATHENA");
        db.add_tgs(DesKey::from_u64(0x777).with_odd_parity());
        db.add_user("pat", "hunter2");
        let kdc = Kdc::new(ProtocolConfig::v4(), db, 1);
        assert_eq!(kdc.realm(), "ATHENA");
    }

    #[test]
    fn eviction_prefers_expired_windows_then_oldest() {
        let mut m: BTreeMap<u32, (u64, u32)> = BTreeMap::new();
        for i in 0..8u32 {
            // Entries 0..4 started at t=0 (expired at now=2000, window
            // 1000); 4..8 started at t=1500 (still live).
            m.insert(i, (if i < 4 { 0 } else { 1_500 }, 0));
        }
        // At the bound: the expired four go first.
        let e = evict_for_insert(&mut m, 8, 2_000, 1_000, |v| v.0);
        assert_eq!(e, 4);
        assert!(m.keys().all(|k| *k >= 4), "live windows survived");
        // Nothing expired: the single oldest (smallest key among the
        // tied timestamps) is evicted to make room.
        let e = evict_for_insert(&mut m, 4, 2_000, 1_000, |v| v.0);
        assert_eq!(e, 1);
        assert!(!m.contains_key(&4));
        // Under the bound: no-op.
        assert_eq!(evict_for_insert(&mut m, 8, 2_000, 1_000, |v| v.0), 0);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn rate_maps_stay_bounded_under_distinct_sources() {
        let mut db = KdcDatabase::new("R");
        db.add_tgs(DesKey::from_u64(0x777).with_odd_parity());
        let mut config = ProtocolConfig::v4();
        config.kdc_rate_limit = Some(1_000_000);
        let mut kdc = Kdc::new(config, db, 7);
        for src in 0..(RATE_MAP_BOUND as u32 * 3) {
            kdc.rate_limited(src, 5_000_000 + u64::from(src));
        }
        assert!(kdc.req_counts.len() <= RATE_MAP_BOUND);
    }

    #[test]
    fn kdc_self_provisions_missing_tgs() {
        let db = KdcDatabase::new("ATHENA");
        let kdc = Kdc::new(ProtocolConfig::v4(), db, 1);
        // No panic, and the TGS principal now exists.
        assert!(kdc.db.lookup(&Principal::tgs("ATHENA")).is_ok());
    }
}
