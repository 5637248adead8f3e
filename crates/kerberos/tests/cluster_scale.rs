//! E18 cluster-scale properties: shard routing totality, determinism
//! and balance; batched AS/TGS equivalence with the sequential
//! service path; and verdict-stable failover when a shard primary
//! crash-restarts mid-workload.

use kerberos::client::{login_at, LoginInput};
use kerberos::encoding::MsgType;
use kerberos::flags::KdcOptions;
use kerberos::messages::{
    deframe, err_code, AsRep, AsReq, EncKdcRepPart, KrbErrorMsg, TgsReq, WireKind,
};
use kerberos::testbed::deploy_cluster;
use kerberos::{
    bulk_password, shard_for, shard_for_parts, Authenticator, Kdc, KdcDatabase, Principal,
    ProtocolConfig,
};
use krb_crypto::rng::{Drbg, RandomSource};
use krb_crypto::{checksum, s2k};
use krb_gateway::{GatewayConfig, PenaltyConfig, ShedPolicy};
use simnet::{
    Addr, Endpoint, FaultPlan, Network, Service, ServiceCtx, SimDuration, SimTime,
};
use testkit::prelude::*;

const REALM: &str = "ATHENA.MIT.EDU";

fn arb_name() -> impl Strategy<Value = String> {
    (string::of("a-z", 1..=1), string::of("a-z0-9", 0..=11)).prop_map(|(head, tail)| head + &tail)
}

fn arb_principal() -> impl Strategy<Value = Principal> {
    (arb_name(), prop_oneof![Just(String::new()), arb_name()], arb_name()).prop_map(
        |(name, instance, realm)| Principal { name, instance, realm: realm.to_uppercase() },
    )
}

testkit::prop! {
    /// Routing is total (every principal maps to a valid shard for any
    /// cluster width) and a pure function of the principal's parts.
    fn shard_routing_is_total_and_deterministic(
        p in arb_principal(),
        shards in 1usize..=16,
    ) {
        let s = shard_for(&p, shards);
        prop_assert!(s < shards);
        prop_assert_eq!(s, shard_for(&p, shards));
        prop_assert_eq!(s, shard_for_parts(&p.name, &p.instance, &p.realm, shards));
        // Width 1 degenerates to a single shard.
        prop_assert_eq!(shard_for(&p, 1), 0);
    }

    /// Bulk-provisioned name populations spread evenly: no shard holds
    /// more than twice the mean over 10k principals, for any name
    /// prefix and any cluster width.
    fn shard_routing_balances_bulk_names [8] (
        prefix in string::of("a-z", 1..=4),
        shards in 2usize..=8,
    ) {
        const N: usize = 10_000;
        let mut occupancy = vec![0usize; shards];
        for i in 0..N {
            let p = Principal::user(&format!("{prefix}{i}"), REALM);
            occupancy[shard_for(&p, shards)] += 1;
        }
        let max = occupancy.iter().copied().max().unwrap_or(0);
        let mean = N / shards;
        prop_assert!(
            max <= 2 * mean,
            "skewed placement: occupancy {:?}, max {} > 2x mean {}",
            occupancy, max, mean
        );
    }
}

fn seeded_kdc(seed: u64) -> Kdc {
    let mut rng = Drbg::new(seed);
    let mut db = KdcDatabase::new(REALM);
    db.add_tgs(rng.gen_des_key());
    db.add_service("files", "fileshost", rng.gen_des_key());
    for i in 0..8 {
        let name = format!("u{i}");
        db.add_user(&name, &bulk_password(&name));
    }
    Kdc::new(ProtocolConfig::v5_draft3(), db, seed ^ 0xbeef)
}

fn as_req(config: &ProtocolConfig, client: &Principal, ep: Endpoint, nonce: u64) -> Vec<u8> {
    AsReq {
        client: client.clone(),
        service: Principal::tgs(REALM),
        nonce,
        lifetime_us: config.ticket_lifetime_us,
        addr: ep.addr.0,
        options: KdcOptions::empty().with(KdcOptions::FORWARDABLE),
        padata: Vec::new(),
    }
    .encode(config.codec)
}

/// Logs `name` in against `issuer` and builds a TGS request for
/// `service` from the TGT it returns, stamped at `ctx`'s local time.
fn tgs_req_via_login(
    config: &ProtocolConfig,
    issuer: &mut Kdc,
    ctx: &mut ServiceCtx,
    name: &str,
    ep: Endpoint,
    service: &Principal,
    rng: &mut Drbg,
) -> Vec<u8> {
    let client = Principal::user(name, REALM);
    let reply = issuer.handle(ctx, &as_req(config, &client, ep, rng.next_u64()), ep).expect("an AS reply");
    let rep = AsRep::decode(config.codec, &reply).expect("AS reply decodes");
    let kc = s2k::string_to_key_v5(&bulk_password(name), &client.salt());
    let part = config.ticket_layer.open(&kc, 0, &rep.enc_part).expect("enc part opens");
    let part = EncKdcRepPart::decode(config.codec, MsgType::EncAsRepPart, &part).expect("enc part decodes");

    let mut req = TgsReq {
        tgt: part.ticket,
        authenticator: Vec::new(),
        service: service.clone(),
        options: KdcOptions::empty(),
        nonce: rng.next_u64(),
        lifetime_us: config.ticket_lifetime_us,
        additional_ticket: None,
        authz_data: Vec::new(),
        forward_addr: None,
    };
    let key = config.checksum.is_keyed().then_some(&part.session_key);
    let cksum = checksum::compute(config.checksum, key, &req.checksum_body()).expect("checksum computes");
    req.authenticator = Authenticator {
        client,
        addr: ep.addr.0,
        timestamp: ctx.local_time.0,
        cksum: Some(cksum),
        service_binding: config.service_binding.then(|| service.clone()),
        subkey: None,
        seq_init: None,
    }
    .seal(config.codec, config.ticket_layer, &part.session_key, rng)
    .expect("authenticator seals");
    req.encode(config.codec)
}

/// `Kdc::handle_batch` must produce byte-identical replies to the
/// sequential per-datagram `Service::handle` path on a same-seed twin,
/// for AS requests (known users and an unknown principal), TGS requests
/// carrying real TGTs from a third same-seed KDC, a TGS request with a
/// garbage ticket, and a datagram with no message kind: `handle` stays
/// silent on that one, and the batch answers GENERIC at its index so
/// replies line up with requests.
#[test]
fn handle_batch_matches_sequential_service_path() {
    let config = ProtocolConfig::v5_draft3();
    let mut sequential = seeded_kdc(7);
    let mut batched = seeded_kdc(7);
    let mut issuer = seeded_kdc(7);
    let files = Principal::service("files", "fileshost", REALM);

    let now = SimTime(3_600_000_000);
    let mut ctx_iss = ServiceCtx::detached(now, "kdc-iss", Addr::new(10, 0, 0, 249), true);
    let mut ctx_seq = ServiceCtx::detached(now, "kdc-seq", Addr::new(10, 0, 0, 250), true);
    let mut ctx_bat = ServiceCtx::detached(now, "kdc-bat", Addr::new(10, 0, 0, 251), true);

    let mut wl = Drbg::new(99);
    let mut batch: Vec<(Vec<u8>, Endpoint)> = Vec::new();
    for i in 0..24u64 {
        let name = if i % 7 == 6 { "nobody".to_string() } else { format!("u{}", i % 8) };
        let ep = Endpoint::new(Addr::new(10, 0, 0, (i % 9 + 1) as u8), 1024);
        let req = if i % 3 == 2 && name != "nobody" {
            tgs_req_via_login(&config, &mut issuer, &mut ctx_iss, &name, ep, &files, &mut wl)
        } else {
            as_req(&config, &Principal::user(&name, REALM), ep, wl.next_u64())
        };
        batch.push((req, ep));
    }
    let garbage_tgs = TgsReq {
        tgt: vec![0x5a; 48],
        authenticator: vec![0xa5; 32],
        service: files.clone(),
        options: KdcOptions::empty(),
        nonce: wl.next_u64(),
        lifetime_us: config.ticket_lifetime_us,
        additional_ticket: None,
        authz_data: Vec::new(),
        forward_addr: None,
    }
    .encode(config.codec);
    let stray = Endpoint::new(Addr::new(10, 0, 0, 77), 1024);
    batch.insert(9, (garbage_tgs, stray));
    let no_kind = 17;
    batch.insert(no_kind, (vec![0xee, 1, 2, 3], stray));

    let sequential_replies: Vec<Option<Vec<u8>>> =
        batch.iter().map(|(req, ep)| sequential.handle(&mut ctx_seq, req, *ep)).collect();
    let batched_replies = batched.handle_batch(&mut ctx_bat, &batch);

    assert_eq!(batched_replies.len(), batch.len(), "one reply per request");
    let mut tgs_reps = 0;
    for (i, (a, b)) in sequential_replies.iter().zip(&batched_replies).enumerate() {
        if i == no_kind {
            assert!(a.is_none(), "handle answers a datagram with no message kind");
            let err = KrbErrorMsg::decode(config.codec, b).expect("a KRB-ERROR at the stray index");
            assert_eq!(err.code, err_code::GENERIC);
            continue;
        }
        let a = a.as_ref().expect("a reply");
        assert_eq!(a, b, "reply {i} diverged between sequential and batched paths");
        if matches!(deframe(b), Ok((WireKind::TgsRep, _))) {
            tgs_reps += 1;
        }
    }
    assert_eq!(tgs_reps, 7, "every TGS request with a real TGT is granted");
}

fn open_gateway() -> GatewayConfig {
    GatewayConfig {
        global_rate_per_sec: 100_000,
        global_burst: 10_000,
        per_source_rate_per_sec: 10_000,
        per_source_burst: 1_000,
        queue_bound: 512,
        queue_service_us: 100,
        shed_policy: ShedPolicy::ShedNewest,
        penalty: PenaltyConfig::standard(),
    }
}

/// Runs a seeded login workload against a small cluster, optionally
/// crash-restarting shard 0's primary mid-run, and returns the
/// per-round login verdicts.
fn login_verdicts(crash: bool) -> (Vec<bool>, u64) {
    let config = ProtocolConfig::v5_draft3();
    let mut net = Network::new();
    let cluster =
        deploy_cluster(&mut net, REALM, 1, &config, 4, 1, 16, 4, &["files"], open_gateway(), 0x51);
    if crash {
        let addr = cluster.shard_primary_eps[0].addr;
        net.set_fault_plan(
            FaultPlan::new(0x51).crash(addr, SimTime(1_500_000), SimTime(3_500_000)),
        );
    }

    let mut rng = Drbg::new(0x10617);
    let mut verdicts = Vec::new();
    net.advance(SimDuration::from_secs(1));
    for round in 0..12usize {
        let name = format!("u{}", rng.next_u64() % 16);
        let client = Principal::user(&name, REALM);
        let pw = bulk_password(&name);
        let ws = cluster.client_eps[round % cluster.client_eps.len()];
        let ok = login_at(
            &mut net,
            &config,
            ws,
            &cluster.contact_eps(),
            &client,
            LoginInput::Password(&pw),
            &mut rng,
        )
        .is_ok();
        verdicts.push(ok);
        net.advance(SimDuration::from_millis(250));
    }
    let failovers = net
        .tracer()
        .snapshot()
        .iter()
        .filter(|(k, _)| k.starts_with("gateway.shard_failovers{"))
        .map(|(_, v)| *v)
        .sum();
    (verdicts, failovers)
}

/// Crash-restarting a shard primary mid-workload must not change any
/// login verdict: the gateway's per-shard pin walks to the replica and
/// every client still authenticates.
#[test]
fn shard_primary_crash_leaves_login_verdicts_unchanged() {
    let (calm, calm_failovers) = login_verdicts(false);
    let (crashed, crash_failovers) = login_verdicts(true);

    assert_eq!(calm, crashed, "crash-restart changed a login verdict");
    assert!(calm.iter().all(|ok| *ok), "baseline run must authenticate every round");
    assert_eq!(calm_failovers, 0, "no failovers expected without a fault plan");
    assert!(crash_failovers >= 1, "the crash run must exercise gateway failover");
}
