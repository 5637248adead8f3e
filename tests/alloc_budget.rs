//! Exact allocation budgets, one per operation.
//!
//! A counting global allocator (a `const`-initialised thread-local count
//! of `alloc`, `alloc_zeroed` and `realloc` calls over [`System`]) pins
//! how many heap allocations each layer of an exchange costs: a DES
//! block, an enc-layer seal and open, a string-to-key and a dictionary
//! crack of a recorded AS reply, every message codec, a login, TGS,
//! AP and KRB_PRIV exchange per preset, a simnet round trip (also with
//! late replies held), a trace emit from owned and from borrowed fields,
//! a counter bump, a span end, an IDS poll and a gateway admission.
//! Callees count too, which a lint over named function bodies cannot
//! see.
//!
//! The counts are a function of the operation alone: the same numbers
//! hold under `cargo test` and `cargo test --release`, and a second
//! same-seed deployment on the same thread counts exactly what the first
//! did. One extra allocation on any pinned path fails its test, and the
//! failure prints the whole measured table as Rust source: an intended
//! change re-pins by pasting it over the table here.
//!
//! Each test counts on its own thread, so tests running in parallel do
//! not see each other's allocations.

use attacks::pw_guess::crack_as_reply;
use kerberos::appserver::connect_app;
use kerberos::client::{login_at, LoginInput, TgsParams};
use kerberos::enclayer::EncLayer;
use kerberos::encoding::{Codec, MsgType};
use kerberos::flags::{KdcOptions, TicketFlags};
use kerberos::gateway::{KrbFrontend, KrbGateway};
use kerberos::messages::{
    err_code, ApRep, ApReq, AsRep, AsReq, EncApRepPart, EncKdcRepPart, KrbErrorMsg, PaData, TgsRep,
    TgsReq,
};
use kerberos::testbed::{standard_campus, DeployedRealm};
use kerberos::ticket::Ticket;
use kerberos::{get_service_ticket_at, Authenticator, Principal, ProtocolConfig};
use krb_crypto::bignum::{mod_exp, random_bits};
use krb_crypto::checksum::{self, ChecksumType};
use krb_crypto::des::{self, DesKey};
use krb_crypto::dh::DhGroup;
use krb_crypto::rng::Drbg;
use krb_crypto::s2k;
use krb_gateway::GatewayConfig;
use krb_trace::{Event, EventKind, Tracer, Value, ValueRef};
use simnet::{
    Addr, Endpoint, FaultPlan, Host, LinkFaults, Network, Service, ServiceCtx, SimDuration, SimTime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts every allocation made on the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A const-initialised `Cell` has no destructor, so this never
    // allocates and never fails, even during thread teardown.
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System` upholds the `GlobalAlloc` contract; the count is a side effect
// on a thread-local `Cell` that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller meets `alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how many allocations it made on this thread.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Pinned counts: one row per operation.
type Table = &'static [(&'static str, &'static [u64])];

/// Fails unless `actual` equals `expected`, printing `actual` as the
/// Rust source of a replacement `const {name}`.
fn assert_budget(name: &str, expected: Table, actual: &[(&'static str, Vec<u64>)]) {
    let same = expected.len() == actual.len()
        && expected.iter().zip(actual).all(|((eo, ec), (ao, ac))| eo == ao && *ec == ac.as_slice());
    if !same {
        let mut src = format!("const {name}: Table = &[\n");
        for (op, counts) in actual {
            let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
            src += &format!("    ({op:?}, &[{}]),\n", counts.join(", "));
        }
        src += "];\n";
        panic!("allocation budget {name} drifted; the measured table is:\n\n{src}");
    }
}

const REALM: &str = "ATHENA.MIT.EDU";
/// Seed of every deployment here.
const SEED: u64 = 17;

#[test]
fn counter_counts_each_allocation_once() {
    let (n, mut v) = allocs(|| Vec::<u64>::with_capacity(4));
    assert_eq!(n, 1, "with_capacity");
    let (n, ()) = allocs(|| v.extend([1, 2, 3, 4]));
    assert_eq!(n, 0, "pushes within capacity");
    let (n, ()) = allocs(|| v.push(5));
    assert_eq!(n, 1, "a push past capacity reallocates once");
}

/// `[block encrypt, block decrypt]`, `[seal, open]` of 128 B, one
/// Oakley-768 `mod_exp` with `[a 160-bit, a 1024-bit]` exponent, one
/// salted string-to-key, and one v5_draft3 `crack_as_reply` over `[64,
/// 512]` wrong guesses.
const CRYPTO: Table = &[
    ("des block, held schedule", &[0, 0]),
    ("des block, DesKey", &[0, 0]),
    ("seal/open v4-pcbc", &[1, 1]),
    ("seal/open v5-cbc", &[1, 1]),
    ("seal/open hardened", &[3, 3]),
    ("mod_exp oakley-768", &[13, 13]),
    ("string_to_key_v5", &[1]),
    ("crack_as_reply", &[3, 3]),
];

#[test]
fn crypto_budget() {
    let key = DesKey::from_u64(0x0123_4567_89ab_cdef).with_odd_parity();
    let ks = key.schedule();
    let block = 0x4e6f_7720_6973_2074;
    let mut actual = Vec::new();
    let (enc, ct) = allocs(|| des::encrypt_block(&ks, block));
    let (dec, _) = allocs(|| des::decrypt_block(&ks, ct));
    actual.push(("des block, held schedule", vec![enc, dec]));
    let (enc, ct) = allocs(|| key.encrypt_block(block));
    let (dec, _) = allocs(|| key.decrypt_block(ct));
    actual.push(("des block, DesKey", vec![enc, dec]));

    let plaintext = [0x42u8; 128];
    let mut rng = Drbg::new(SEED);
    for (op, layer) in [
        ("seal/open v4-pcbc", EncLayer::V4Pcbc),
        ("seal/open v5-cbc", EncLayer::V5Cbc { confounder: true }),
        ("seal/open hardened", EncLayer::HardenedCbc),
    ] {
        let (seal, sealed) = allocs(|| layer.seal(&key, 7, &plaintext, &mut rng));
        let sealed = sealed.expect("seal");
        let (open, opened) = allocs(|| layer.open(&key, 7, &sealed));
        assert_eq!(opened.expect("open"), plaintext);
        actual.push((op, vec![seal, open]));
    }

    // The Montgomery kernel allocates per call, never per multiply: a
    // six times longer exponent costs no extra allocation.
    let group = DhGroup::oakley768();
    let counts: Vec<u64> = [160, 1024]
        .into_iter()
        .map(|bits| {
            let exp = random_bits(bits, &mut rng);
            allocs(|| mod_exp(&group.g, &exp, &group.p).expect("odd modulus")).0
        })
        .collect();
    assert_eq!(counts[0], counts[1], "mod_exp allocations grow with the exponent");
    actual.push(("mod_exp oakley-768", counts));

    let (n, _) = allocs(|| s2k::string_to_key_v5("wombat7", "ATHENA.MIT.EDUsam"));
    actual.push(("string_to_key_v5", vec![n]));

    // The cracker allocates per call, never per guess or lane group: an
    // eight times longer list of wrong guesses (whose lane groups all
    // fit the work buffer the first group sized) costs no extra
    // allocation.
    let config = ProtocolConfig::v5_draft3();
    let victim = Principal::user("sam", REALM);
    let part = EncKdcRepPart {
        session_key: key,
        nonce: 42,
        ticket: vec![0xaa; 96],
        end_time: 9_999_999,
        server_time: 1_000_000,
        ticket_cksum: None,
    };
    let kc = s2k::string_to_key_v5("the-actual-password", &victim.salt());
    let sealed = config
        .ticket_layer
        .seal(&kc, 0, &part.encode(config.codec, MsgType::EncAsRepPart), &mut rng)
        .expect("seal");
    let wrong: Vec<String> = (0..512).map(|i| format!("wrong-guess-{i}")).collect();
    let counts: Vec<u64> = [64, 512]
        .into_iter()
        .map(|n| {
            let (count, found) =
                allocs(|| crack_as_reply(&config, &victim, &sealed, None, &wrong[..n]));
            assert_eq!(found, None, "a wrong guess verified");
            count
        })
        .collect();
    assert_eq!(counts[0], counts[1], "crack_as_reply allocations grow with the guess list");
    actual.push(("crack_as_reply", counts));
    assert_budget("CRYPTO", CRYPTO, &actual);
}

/// `[encode, decode]` under `Codec::Legacy`, then `Typed`, then `Wire`.
const CODEC: Table = &[
    ("as-req", &[6, 7, 7, 7, 7, 7]),
    ("as-rep", &[4, 1, 5, 1, 5, 1]),
    ("tgs-req", &[5, 5, 6, 5, 6, 5]),
    ("tgs-rep", &[3, 1, 4, 1, 4, 1]),
    ("ap-req", &[4, 2, 5, 2, 5, 2]),
    ("ap-rep", &[3, 1, 4, 1, 4, 1]),
    ("krb-error", &[4, 1, 5, 1, 5, 1]),
    ("ticket", &[5, 5, 6, 5, 6, 5]),
    ("authenticator", &[6, 6, 7, 6, 7, 6]),
    ("enc-as-rep-part", &[5, 2, 6, 2, 6, 2]),
    ("enc-tgs-rep-part", &[5, 2, 6, 2, 6, 2]),
    ("enc-ap-rep-part", &[3, 0, 4, 0, 4, 0]),
];

#[test]
fn codec_budget() {
    let key = DesKey::from_u64(0x1334_5779_9bbc_dff1).with_odd_parity();
    let pat = Principal::user("pat", REALM);
    let echo = Principal::service("echo", "echo.athena.mit.edu", REALM);
    let cksum = checksum::compute(ChecksumType::Md4Des, Some(&key), b"request body").ok();
    let as_req = AsReq {
        client: pat.clone(),
        service: Principal::tgs(REALM),
        nonce: 0x0123_4567,
        lifetime_us: 8 * 3_600_000_000,
        addr: 0x0a00_0001,
        options: KdcOptions::empty(),
        padata: vec![PaData::EncTimestamp(vec![0x5a; 16])],
    };
    let as_rep = AsRep { challenge_r: Some(9), dh_public: None, enc_part: vec![0x5a; 232] };
    let tgs_req = TgsReq {
        tgt: vec![0x5a; 128],
        authenticator: vec![0x5a; 64],
        service: echo.clone(),
        options: KdcOptions::empty(),
        nonce: 0x89ab_cdef,
        lifetime_us: 3_600_000_000,
        additional_ticket: None,
        authz_data: Vec::new(),
        forward_addr: None,
    };
    let tgs_rep = TgsRep { enc_part: vec![0x5a; 232] };
    let ap_req = ApReq { ticket: vec![0x5a; 128], authenticator: vec![0x5a; 64], mutual: true };
    let ap_rep = ApRep { enc_part: vec![0x5a; 32] };
    let error = KrbErrorMsg {
        code: err_code::PREAUTH_REQUIRED,
        text: "preauthentication required".into(),
        challenge: None,
    };
    let ticket = Ticket {
        flags: TicketFlags::empty(),
        client: pat.clone(),
        service: echo.clone(),
        addr: Some(0x0a00_0001),
        auth_time: 1_000_000,
        start_time: 1_000_000,
        end_time: 1_000_000 + 3_600_000_000,
        session_key: key,
        transited: Vec::new(),
    };
    let authenticator = Authenticator {
        cksum: cksum.clone(),
        service_binding: Some(echo),
        subkey: Some(11),
        seq_init: Some(12),
        ..Authenticator::basic(pat, 0x0a00_0001, 1_000_000)
    };
    let kdc_part = EncKdcRepPart {
        session_key: key,
        nonce: 0x0123_4567,
        ticket: vec![0x5a; 128],
        end_time: 1_000_000 + 3_600_000_000,
        server_time: 1_000_000,
        ticket_cksum: cksum,
    };
    let ap_part = EncApRepPart { ts_echo: 1_000_000, subkey: Some(13), seq_init: Some(14) };

    let mut actual: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for codec in [Codec::Legacy, Codec::Typed, Codec::Wire] {
        let mut row = 0;
        let mut record = |op: &'static str, encode: u64, decode: u64| {
            if actual.len() <= row {
                actual.push((op, Vec::new()));
            }
            actual[row].1.extend([encode, decode]);
            row += 1;
        };
        macro_rules! case {
            ($op:literal, $msg:expr, |$w:ident| $decode:expr) => {{
                let (encode, $w) = allocs(|| $msg);
                let (decode, parsed) = allocs(|| $decode);
                assert!(parsed.is_ok(), "{} under {codec:?}: {parsed:?}", $op);
                record($op, encode, decode);
            }};
        }
        case!("as-req", as_req.encode(codec), |w| AsReq::decode(codec, &w));
        case!("as-rep", as_rep.encode(codec), |w| AsRep::decode(codec, &w));
        case!("tgs-req", tgs_req.encode(codec), |w| TgsReq::decode(codec, &w));
        case!("tgs-rep", tgs_rep.encode(codec), |w| TgsRep::decode(codec, &w));
        case!("ap-req", ap_req.encode(codec), |w| ApReq::decode(codec, &w));
        case!("ap-rep", ap_rep.encode(codec), |w| ApRep::decode(codec, &w));
        case!("krb-error", error.encode(codec), |w| KrbErrorMsg::decode(codec, &w));
        case!("ticket", ticket.encode(codec), |w| Ticket::decode(codec, &w));
        case!("authenticator", authenticator.encode(codec), |w| {
            Authenticator::decode(codec, &w)
        });
        case!("enc-as-rep-part", kdc_part.encode(codec, MsgType::EncAsRepPart), |w| {
            EncKdcRepPart::decode(codec, MsgType::EncAsRepPart, &w)
        });
        case!("enc-tgs-rep-part", kdc_part.encode(codec, MsgType::EncTgsRepPart), |w| {
            EncKdcRepPart::decode(codec, MsgType::EncTgsRepPart, &w)
        });
        case!("enc-ap-rep-part", ap_part.encode(codec), |w| EncApRepPart::decode(codec, &w));
    }
    assert_budget("CODEC", CODEC, &actual);
}

/// Sessions run before counting, so the servers' replay windows, the
/// metric keys and the trace ring's buffers are in their steady shape.
const WARMUP: usize = 6;
/// Sessions counted after the warm-up.
const MEASURED: usize = 6;
/// Sim time between sessions. A hardened login sends two AS requests;
/// 30 s keeps the one user at 20 per five minutes, under the KDC's
/// per-source limit of 32.
const PACE: SimDuration = SimDuration(30_000_000);

fn presets() -> [(&'static str, ProtocolConfig); 3] {
    [
        ("v4", ProtocolConfig::v4()),
        ("v5_draft3", ProtocolConfig::v5_draft3()),
        ("hardened", ProtocolConfig::hardened()),
    ]
}

/// pat's workstation on a fresh seeded `standard_campus`, talking to
/// the echo service.
struct Campus {
    net: Network,
    config: ProtocolConfig,
    realm: DeployedRealm,
    rng: Drbg,
}

impl Campus {
    fn new(config: &ProtocolConfig) -> Campus {
        let mut net = Network::new();
        net.advance(SimDuration::from_secs(1_000_000));
        let realm = standard_campus(&mut net, config, SEED);
        Campus { net, config: config.clone(), realm, rng: Drbg::new(SEED) }
    }

    /// Runs one session, then lets [`PACE`] pass; returns its allocation
    /// counts for `[login, TGS exchange, AP exchange, one KRB_PRIV round
    /// trip]`.
    fn session(&mut self) -> [u64; 4] {
        let Campus { net, config, realm, rng } = self;
        let (ws, user, pw) = (realm.user_ep("pat"), realm.user("pat"), &realm.passwords["pat"]);
        let (svc, svc_ep) = (realm.service("echo"), realm.service_ep("echo"));
        let contact = realm.kdc_contact_eps();
        let payload = [0x42u8; 32];
        let (login, tgt) =
            allocs(|| login_at(net, config, ws, &contact, &user, LoginInput::Password(pw), rng));
        let tgt = tgt.expect("login");
        let (tgs, cred) = allocs(|| {
            get_service_ticket_at(net, config, ws, &contact, &tgt, &svc, TgsParams::default(), rng)
        });
        let cred = cred.expect("TGS exchange");
        let (ap, conn) = allocs(|| connect_app(net, config, ws, svc_ep, &cred, rng));
        let mut conn = conn.expect("AP exchange");
        let (krb_priv, reply) = allocs(|| conn.request(net, &payload, rng));
        assert!(reply.expect("KRB_PRIV").ends_with(&payload));
        net.advance(PACE);
        [login, tgs, ap, krb_priv]
    }
}

/// The counts of `sessions` sessions on one fresh campus.
fn session_counts(config: &ProtocolConfig, sessions: usize) -> Vec<[u64; 4]> {
    let mut campus = Campus::new(config);
    (0..sessions).map(|_| campus.session()).collect()
}

/// `[login, TGS exchange, AP exchange, KRB_PRIV round trip]` per preset:
/// the fewest allocations any measured session made for that exchange.
/// The other sessions add the odd amortised allocation of a
/// growing buffer or map (a B-tree split, a ring buffer's growth),
/// which lands on different sessions as the tree changes.
const SESSION: Table = &[
    ("v4", &[62, 85, 50, 12]),
    ("v5_draft3", &[66, 90, 54, 24]),
    ("hardened", &[219, 118, 73, 33]),
];

#[test]
fn session_budget() {
    let actual: Vec<(&'static str, Vec<u64>)> = presets()
        .iter()
        .map(|(label, config)| {
            let counts = session_counts(config, WARMUP + MEASURED);
            let steady = (0..4).map(|i| counts[WARMUP..].iter().map(|c| c[i]).min().unwrap_or(0));
            (*label, steady.collect())
        })
        .collect();
    assert_budget("SESSION", SESSION, &actual);
}

#[test]
fn session_counts_do_not_depend_on_thread_history() {
    for (label, config) in presets() {
        let first = session_counts(&config, WARMUP + MEASURED);
        let second = session_counts(&config, WARMUP + MEASURED);
        assert_eq!(
            first, second,
            "{label}: a second same-seed campus on this thread allocated differently per session"
        );
    }
}

/// Replies with the request's bytes.
struct Echo;

impl Service for Echo {
    fn handle(&mut self, _ctx: &mut ServiceCtx, req: &[u8], _from: Endpoint) -> Option<Vec<u8>> {
        Some(req.to_vec())
    }
}

/// The fields of a wire-hop event, as the network records them.
fn hop_fields(payload: &Arc<Vec<u8>>) -> Vec<(&'static str, Value)> {
    vec![
        ("src_host", Value::str("ws-pat.ATHENA.MIT.EDU")),
        ("src_addr", Value::U64(0x0a00_0001)),
        ("src_port", Value::U64(1024)),
        ("dst_host", Value::str("kerberos.ATHENA.MIT.EDU")),
        ("dst_addr", Value::U64(0x0a00_00fa)),
        ("dst_port", Value::U64(88)),
        ("req", Value::Bool(true)),
        ("origin", Value::str("send")),
        ("payload", Value::bytes(Arc::clone(payload))),
    ]
}

/// One call of each operation, on a warmed instance.
const SERVICES: Table = &[
    ("simnet rpc, 16 B echo", &[4]),
    ("simnet rpc, 16 B echo, 64 held replies", &[4]),
    ("trace emit, full ring", &[0]),
    ("trace emit_ref, full ring", &[0]),
    ("counter bump, existing key", &[0]),
    ("counter bump, second scope under a known name", &[1]),
    ("span end, known name", &[0]),
    ("ids poll, one campus session", &[16]),
    ("gateway admission, AS-REQ", &[8]),
];

#[test]
fn services_budget() {
    let mut actual = Vec::new();

    // A simnet round trip: two hops, each with its trace event and
    // counters, into a ring that is already full.
    let mut net = Network::new();
    let client = Endpoint::new(Addr::new(10, 0, 0, 1), 1024);
    let server = Endpoint::new(Addr::new(10, 0, 0, 2), 7);
    net.add_host(Host::new("client", vec![client.addr]));
    let mut host = Host::new("echo", vec![server.addr]);
    host.bind(server.port, Box::new(Echo));
    net.add_host(host);
    net.tracer().set_capacity(256);
    for _ in 0..256 {
        net.rpc(client, server, vec![0x42; 16]).expect("echo");
    }
    let request = vec![0x42; 16];
    let (n, reply) = allocs(|| net.rpc(client, server, request));
    assert_eq!(reply.expect("echo"), [0x42; 16]);
    actual.push(("simnet rpc, 16 B echo", vec![n]));

    // The same round trip with 64 late replies held. A plan that
    // duplicates every reply leaves one unread copy per rpc; a fault-free
    // plan keeps them, and the pump each rpc runs first finds nothing
    // due, so it moves and allocates nothing.
    let duplicate = LinkFaults { duplicate: 1.0, ..LinkFaults::none() };
    net.set_fault_plan(FaultPlan::new(SEED).with_link(server.addr, client.addr, duplicate));
    for _ in 0..64 {
        net.rpc(client, server, vec![0x42; 16]).expect("echo");
    }
    assert_eq!(net.take_fault_plan().map(|p| p.stats.duplicated), Some(64));
    net.set_fault_plan(FaultPlan::new(SEED));
    let request = vec![0x42; 16];
    let (n, reply) = allocs(|| net.rpc(client, server, request));
    assert_eq!(reply.expect("echo"), [0x42; 16]);
    actual.push(("simnet rpc, 16 B echo, 64 held replies", vec![n]));

    // One trace event into a full ring; the caller builds the fields.
    let tracer = Tracer::new();
    tracer.set_capacity(256);
    let payload = Arc::new(vec![0x42u8; 64]);
    for _ in 0..512 {
        tracer.emit(EventKind::WireHop, 0, hop_fields(&payload));
    }
    let fields = hop_fields(&payload);
    let (n, _) = allocs(|| tracer.emit(EventKind::WireHop, 0, fields));
    actual.push(("trace emit, full ring", vec![n]));

    // The same event from borrowed fields, as a wire hop records it.
    let fields = hop_fields(&payload);
    let (n, _) = allocs(|| {
        tracer.emit_ref(EventKind::WireHop, 0, fields.iter().map(|(k, v)| (*k, ValueRef::from(v))))
    });
    actual.push(("trace emit_ref, full ring", vec![n]));

    // A bump of a counter that already exists: the registry finds the
    // name's slot and the scope and copies neither.
    tracer.counter("net.datagrams", "kerberos.ATHENA.MIT.EDU", 1);
    let (n, ()) = allocs(|| tracer.counter("net.datagrams", "kerberos.ATHENA.MIT.EDU", 1));
    actual.push(("counter bump, existing key", vec![n]));

    // A scope new under that name: the registry copies the scope once.
    let (n, ()) = allocs(|| tracer.counter("net.datagrams", "echo", 1));
    actual.push(("counter bump, second scope under a known name", vec![n]));

    // Closing a span whose duration histogram already exists, into the
    // full ring.
    let span = tracer.begin_span("as-exchange", 0, []);
    tracer.end_span(span, 5, "pat");
    let span = tracer.begin_span("as-exchange", 10, []);
    let (n, ()) = allocs(|| tracer.end_span(span, 15, "pat"));
    actual.push(("span end, known name", vec![n]));

    // One default-engine IDS poll over a captured v5_draft3 session. Its
    // `ids.events` bump is the first metric on a fresh tracer, so the
    // count includes the registry's first-use setup: the name cache, the
    // name index, the slot vector, the scope table and the scope's copy.
    let mut campus = Campus::new(&ProtocolConfig::v5_draft3());
    campus.session();
    campus.net.tracer().clear();
    campus.session();
    let captured: Vec<Event> = campus.net.tracer().events();
    let replay = Tracer::new();
    let mut engine = krb_ids::default_engine().expect("default rules compile");
    engine.attach(&replay);
    for e in &captured {
        replay.emit(e.kind, e.at_us, e.fields.clone());
    }
    let (n, alerts) = allocs(|| engine.poll());
    assert_eq!((alerts, engine.events_seen()), (0, captured.len() as u64));
    actual.push(("ids poll, one campus session", vec![n]));

    // One gateway admission of an AS-REQ, forwarded upstream.
    let kdc = Endpoint::new(Addr::new(10, 0, 0, 250), 88);
    let mut gateway =
        KrbGateway::new(GatewayConfig::standard(), KrbFrontend::new(Codec::Typed), vec![kdc]);
    let as_req = AsReq {
        client: Principal::user("pat", REALM),
        service: Principal::tgs(REALM),
        nonce: 7,
        lifetime_us: 8 * 3_600_000_000,
        addr: 0x0a00_0001,
        options: KdcOptions::empty(),
        padata: Vec::new(),
    }
    .encode(Codec::Typed);
    let mut ctx = ServiceCtx::detached(SimTime(0), "krbgate", Addr::new(10, 0, 0, 254), true);
    let mut admit = |ctx: &mut ServiceCtx| {
        ctx.local_time = SimTime(ctx.local_time.0 + 1_000_000);
        ctx.true_time = ctx.local_time;
        let out = gateway.handle(ctx, &as_req, client);
        assert!(out.is_none() && ctx.forward.take().is_some(), "admitted and forwarded");
    };
    for _ in 0..8 {
        admit(&mut ctx);
    }
    let (n, ()) = allocs(|| admit(&mut ctx));
    actual.push(("gateway admission, AS-REQ", vec![n]));

    assert_budget("SERVICES", SERVICES, &actual);
}
