//! Differential test of the engine's cut-paste window kernel and
//! packed endpoint keys against a test-only reference: the replay and
//! cut-paste detectors as first written, keyed on rendered `ip:port`
//! strings, with cut-paste scanning every message's windows twice
//! (once to look up earlier origins, once to index) behind a per-window
//! distinct-byte set. Random hop streams go through both; the alerts
//! must be identical.

use krb_ids::{compile, Alert, DetectorBody, DetectorSpec, Engine, MsgKind, RuleSet};
use krb_trace::{Event, EventKind, Tracer, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use testkit::prop::{any, collection, Strategy};
use testkit::TestRng;

fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn payload_id(bytes: &[u8]) -> (u64, u64) {
    (fnv64(0xcbf2_9ce4_8422_2325, bytes), fnv64(0x6c62_272e_07bb_0142, bytes))
}

fn push_alert(
    spec: &DetectorSpec,
    out: &mut Vec<Alert>,
    at_us: u64,
    subject: String,
    detail: String,
    seq: u64,
) {
    out.push(Alert {
        detector: spec.body.label(),
        sid: spec.sid,
        at_us,
        subject,
        detail,
        evidence_seq: seq,
    });
}

fn fmt_ip(packed: u64) -> String {
    let a = u32::try_from(packed).unwrap_or(u32::MAX);
    format!("{}.{}.{}.{}", (a >> 24) & 255, (a >> 16) & 255, (a >> 8) & 255, a & 255)
}

struct Hop<'a> {
    seq: u64,
    at_us: u64,
    src: String,
    src_addr: String,
    src_port: u16,
    dst: String,
    dst_addr: String,
    dst_port: u16,
    req: bool,
    payload: &'a [u8],
    kind: Option<MsgKind>,
}

impl<'a> Hop<'a> {
    fn from_event(ev: &'a Event) -> Option<Hop<'a>> {
        if ev.kind != EventKind::WireHop {
            return None;
        }
        let src_packed = ev.u64_field("src_addr")?;
        let src_port = ev.u64_field("src_port")?;
        let dst_packed = ev.u64_field("dst_addr")?;
        let dst_port = ev.u64_field("dst_port")?;
        let payload = ev.bytes_field("payload")?.as_slice();
        let src_addr = fmt_ip(src_packed);
        let dst_addr = fmt_ip(dst_packed);
        Some(Hop {
            seq: ev.seq,
            at_us: ev.at_us,
            src: format!("{src_addr}:{src_port}"),
            src_addr,
            src_port: u16::try_from(src_port).unwrap_or(u16::MAX),
            dst: format!("{dst_addr}:{dst_port}"),
            dst_addr,
            dst_port: u16::try_from(dst_port).unwrap_or(u16::MAX),
            req: ev.bool_field("req").unwrap_or(false),
            payload,
            kind: MsgKind::sniff(payload),
        })
    }

    fn matches(&self, spec: &DetectorSpec) -> bool {
        spec.src_addr.accepts(&self.src_addr)
            && spec.src_port.accepts(&self.src_port)
            && spec.dst_addr.accepts(&self.dst_addr)
            && spec.dst_port.accepts(&self.dst_port)
    }

    fn kind_name(&self) -> &'static str {
        self.kind.map(MsgKind::name).unwrap_or("message")
    }
}

enum WinOrigin {
    Reply { seq: u64 },
    Request { seq: u64, dst_port: u16, src: String },
}

#[derive(Default)]
struct State {
    first_sight: BTreeMap<(String, String, u64, u64), u64>,
    windows: BTreeMap<[u8; 16], WinOrigin>,
    payloads_seen: BTreeSet<(u64, u64)>,
    stream_first: BTreeMap<(String, u64, u64), String>,
}

/// Alerts the reference raises over `events` for the replay and
/// cut-paste specs in `specs` (other detectors are out of its scope).
fn reference_alerts(specs: &[DetectorSpec], events: &[Event]) -> Vec<Alert> {
    let mut states: Vec<State> = specs.iter().map(|_| State::default()).collect();
    let mut out = Vec::new();
    for ev in events {
        for (spec, state) in specs.iter().zip(&mut states) {
            let Some(hop) = Hop::from_event(ev).filter(|h| h.matches(spec)) else { continue };
            match &spec.body {
                DetectorBody::Replay { window_us, kinds } => {
                    replay(spec, state, &hop, *window_us, kinds, &mut out)
                }
                DetectorBody::CutPaste { krb_ports, min_run, min_stolen } => {
                    cut_paste(spec, state, &hop, krb_ports, *min_run, *min_stolen, &mut out)
                }
                _ => {}
            }
        }
    }
    out
}

fn replay(
    spec: &DetectorSpec,
    state: &mut State,
    hop: &Hop<'_>,
    window_us: u64,
    kinds: &[MsgKind],
    out: &mut Vec<Alert>,
) {
    if !hop.req {
        return;
    }
    let Some(kind) = hop.kind else { return };
    if !kinds.contains(&kind) {
        return;
    }
    let (h1, h2) = payload_id(hop.payload);
    let sight = (hop.src.clone(), hop.dst.clone(), h1, h2);
    match state.first_sight.get(&sight) {
        Some(&t0) if hop.at_us.saturating_sub(t0) <= window_us => {
            let dt = hop.at_us.saturating_sub(t0);
            push_alert(
                spec,
                out,
                hop.at_us,
                hop.src.clone(),
                format!(
                    "identical {} to {} re-sent {}.{:06}s after first sight",
                    kind.name(),
                    hop.dst,
                    dt / 1_000_000,
                    dt % 1_000_000
                ),
                hop.seq,
            );
        }
        Some(_) => {}
        None => {
            state.first_sight.insert(sight, hop.at_us);
        }
    }
}

fn cut_paste(
    spec: &DetectorSpec,
    state: &mut State,
    hop: &Hop<'_>,
    krb_ports: &[u16],
    min_run: usize,
    min_stolen: usize,
    out: &mut Vec<Alert>,
) {
    if hop.payload.len() < min_run.max(16) {
        return;
    }
    let id = payload_id(hop.payload);
    let exact_copy = state.payloads_seen.contains(&id);

    if hop.req && exact_copy {
        let stream = (hop.dst.clone(), id.0, id.1);
        if let Some(first_src) = state.stream_first.get(&stream) {
            let spliceable = matches!(
                hop.kind,
                Some(MsgKind::ApReq | MsgKind::Safe | MsgKind::Priv | MsgKind::ChallengeResp)
            );
            if spliceable && first_src != &hop.src {
                let detail = format!(
                    "sealed {} first sent by {first_src} re-sent to {} from {}",
                    hop.kind_name(),
                    hop.dst,
                    hop.src
                );
                push_alert(spec, out, hop.at_us, hop.src.clone(), detail, hop.seq);
            }
        }
    } else if hop.req {
        // Pass one: look every window up against what came before.
        let mut reply_sources: BTreeSet<u64> = BTreeSet::new();
        let mut stolen_counts: BTreeMap<u64, usize> = BTreeMap::new();
        for win in hop.payload.windows(16) {
            let Ok(arr) = <[u8; 16]>::try_from(win) else { continue };
            if !lively(&arr) {
                continue;
            }
            match state.windows.get(&arr) {
                Some(WinOrigin::Reply { seq }) => {
                    reply_sources.insert(*seq);
                }
                Some(WinOrigin::Request { seq, dst_port, src })
                    if !krb_ports.contains(dst_port) && *src != hop.src =>
                {
                    *stolen_counts.entry(*seq).or_default() += 1;
                }
                Some(WinOrigin::Request { .. }) | None => {}
            }
        }
        let request_source = stolen_counts
            .iter()
            .filter(|(_, &n)| n >= min_stolen)
            .max_by_key(|(&seq, &n)| (n, std::cmp::Reverse(seq)))
            .map(|(&seq, &n)| (seq, n));
        let ticket_bearing = matches!(hop.kind, Some(MsgKind::TgsReq | MsgKind::ApReq));
        let sealed_session =
            matches!(hop.kind, Some(MsgKind::Safe | MsgKind::Priv | MsgKind::ChallengeResp));
        if ticket_bearing && reply_sources.len() >= 2 {
            let srcs: Vec<String> = reply_sources.iter().map(|s| format!("#{s}")).collect();
            push_alert(
                spec,
                out,
                hop.at_us,
                hop.src.clone(),
                format!(
                    "{} to {} splices ciphertext from {} distinct KDC replies ({})",
                    hop.kind_name(),
                    hop.dst,
                    reply_sources.len(),
                    srcs.join(", ")
                ),
                hop.seq,
            );
        } else if sealed_session && !reply_sources.is_empty() {
            let first = reply_sources.iter().next().copied().unwrap_or(0);
            push_alert(
                spec,
                out,
                hop.at_us,
                hop.src.clone(),
                format!("{} to {} echoes ciphertext from reply #{first}", hop.kind_name(), hop.dst),
                hop.seq,
            );
        } else if let Some((seq, n)) = request_source {
            push_alert(
                spec,
                out,
                hop.at_us,
                hop.src.clone(),
                format!(
                    "message from {} to {} re-uses {n} ciphertext windows of another \
                     endpoint's session material (request #{seq})",
                    hop.src, hop.dst
                ),
                hop.seq,
            );
        }
    }

    // Pass two: index the message, first-source-wins.
    if !exact_copy {
        state.payloads_seen.insert(id);
        if hop.req {
            state
                .stream_first
                .entry((hop.dst.clone(), id.0, id.1))
                .or_insert_with(|| hop.src.clone());
        }
        for win in hop.payload.windows(16) {
            let Ok(arr) = <[u8; 16]>::try_from(win) else { continue };
            if !lively(&arr) {
                continue;
            }
            let origin = if hop.req {
                WinOrigin::Request { seq: hop.seq, dst_port: hop.dst_port, src: hop.src.clone() }
            } else {
                WinOrigin::Reply { seq: hop.seq }
            };
            state.windows.entry(arr).or_insert(origin);
        }
    }
}

fn lively(win: &[u8; 16]) -> bool {
    let mut distinct: BTreeSet<u8> = BTreeSet::new();
    for &b in win {
        distinct.insert(b);
    }
    distinct.len() >= 4
}

// ---------------------------------------------------------------------
// Random hop streams
// ---------------------------------------------------------------------

/// Address pool: two plain hosts, the largest 32-bit address, and three
/// values past it that clamp onto it (same rendering, distinct raw).
const ADDRS: [u64; 6] = [10, 11, 0xFFFF_FFFF, 1 << 32, (1 << 32) + 7, u64::MAX];

/// Port pool: the KDC port, two app ports, the largest 16-bit port, and
/// two values past it (they render as carried but match as 65535).
const PORTS: [u64; 6] = [88, 1024, 2001, 65_535, 65_536, 1 << 40];

/// One payload part: `(shape, a, b, c)`, read by [`build_part`].
type Part = (u8, usize, usize, u8);

/// One hop: `(src, dst, req, tag, parts, copy, keep, cut, gap)`.
/// `src`/`dst` index the pools as `addr * 6 + port`; `copy` below 16
/// re-sends that earlier payload whole instead of building one from
/// `parts`, keeping its destination (`keep` 1) or its source and
/// destination (`keep` 2); `cut` in 13..=18 truncates the payload to
/// that many bytes; `gap` picks the time step.
type Recipe = (usize, usize, bool, u8, Vec<Part>, usize, u8, usize, u8);

fn part() -> impl Strategy<Value = Part> {
    (0u8..5, 0usize..64, 1usize..96, any::<u8>())
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        0usize..36,
        0usize..36,
        any::<bool>(),
        1u8..=12,
        collection::vec(part(), 1..6),
        0usize..64,
        0u8..3,
        0usize..24,
        0u8..3,
    )
}

/// Appends one part to `buf`, the message under construction.
/// Shapes: 0 fresh bytes; 1 a run cycling through exactly `1 + a % 5`
/// distinct values (windows with 3 and 4 distinct bytes); 2 and 3 a
/// splice of an earlier payload; 4 a repeat of this message's own
/// bytes.
fn build_part(buf: &mut Vec<u8>, earlier: &[Vec<u8>], (shape, a, b, c): Part) {
    let mut rng = TestRng::new((a as u64) << 32 | (b as u64) << 8 | u64::from(c));
    match shape {
        0 => buf.extend((0..b.min(40)).map(|_| rng.next_u64() as u8)),
        1 => {
            let k = 1 + a % 5;
            buf.extend((0..b).map(|i| c.wrapping_add((i % k) as u8 * 41)));
        }
        2 | 3 if !earlier.is_empty() => {
            let src = &earlier[a % earlier.len()];
            let start = usize::from(c) % src.len().max(1);
            buf.extend_from_slice(&src[start..(start + b).min(src.len())]);
        }
        4 if !buf.is_empty() => {
            let start = a % buf.len();
            let own = buf[start..(start + b).min(buf.len())].to_vec();
            buf.extend_from_slice(&own);
        }
        _ => buf.extend((0..b.min(24)).map(|i| c ^ (i as u8).wrapping_mul(151))),
    }
}

/// Emits the stream `recipes` describes into `t`.
fn emit_stream(t: &Tracer, recipes: &[Recipe]) {
    let mut sent: Vec<Vec<u8>> = Vec::new();
    let mut ends: Vec<(usize, usize)> = Vec::new();
    let mut at_us = 1_000_000u64;
    for (src, dst, req, tag, parts, copy, keep, cut, gap) in recipes {
        let (mut src, mut dst) = (*src, *dst);
        let payload = match sent.get(*copy) {
            Some(bytes) => {
                let (their_src, their_dst) = ends[*copy];
                if *keep >= 1 {
                    dst = their_dst;
                }
                if *keep == 2 {
                    src = their_src;
                }
                bytes.clone()
            }
            None => {
                let mut buf = vec![*tag];
                for p in parts {
                    build_part(&mut buf, &sent, *p);
                }
                if (13..=18).contains(cut) {
                    buf.truncate(*cut);
                }
                buf
            }
        };
        at_us += [0, 1_000, 1_000_000_000][usize::from(*gap)];
        t.emit(
            EventKind::WireHop,
            at_us,
            vec![
                ("src_host", Value::str("src-host")),
                ("src_addr", Value::U64(ADDRS[src / 6])),
                ("src_port", Value::U64(PORTS[src % 6])),
                ("dst_host", Value::str("dst-host")),
                ("dst_addr", Value::U64(ADDRS[dst / 6])),
                ("dst_port", Value::U64(PORTS[dst % 6])),
                ("req", Value::Bool(*req)),
                ("origin", Value::str("send")),
                ("payload", Value::bytes(Arc::new(payload.clone()))),
            ],
        );
        sent.push(payload);
        ends.push((src, dst));
    }
}

/// Rule sets the differential runs: the default cut-paste and replay
/// rules, a hair-trigger cut-paste (two stolen windows, 17-byte minimum
/// message, two Kerberos ports), and exact header matchers on a clamped
/// address and an app port.
const RULES: [&str; 3] = [
    "alert krb any any -> any any (detector:cut-paste; krb_ports:88; sid:1;)\n\
     alert krb any any -> any any (detector:replay; kinds:ap-req,challenge-resp,safe,priv,app-data; window:900s; sid:2;)",
    "alert krb any any -> any any (detector:cut-paste; krb_ports:88,2001; min_stolen:2; min_run:17; sid:3;)",
    "alert krb 255.255.255.255 any -> any 2001 (detector:cut-paste; min_stolen:1; sid:4;)\n\
     alert krb any 65535 -> 0.0.0.10 any (detector:replay; kinds:ap-req,priv,safe; window:1s; sid:5;)",
];

/// The engine's and the reference's alerts over the same stream.
fn both(rules: &str, recipes: &[Recipe]) -> (Vec<Alert>, Vec<Alert>) {
    let specs = compile(&RuleSet::parse(rules).expect("parse")).expect("compile");
    let t = Tracer::new();
    let mut eng = Engine::new(specs.clone());
    eng.attach(&t);
    emit_stream(&t, recipes);
    let events = t.events();
    eng.poll();
    (eng.alerts().to_vec(), reference_alerts(&specs, &events))
}

testkit::prop! {
    /// The one-pass kernel and packed endpoint keys raise exactly the
    /// reference's alerts: same detectors, subjects, details, evidence
    /// seqs, in the same order.
    fn kernel_matches_two_pass_reference [128] (recipes in collection::vec(recipe(), 1..16)) {
        for rules in RULES {
            let (kernel, reference) = both(rules, &recipes);
            testkit::prop_assert_eq!(kernel, reference, "rules: {}", rules);
        }
    }
}

/// The generator reaches every alert path of both detectors, so the
/// differential above is not vacuous.
#[test]
fn differential_streams_reach_every_alert_path() {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let strategy = collection::vec(recipe(), 1..16);
    for case in 0..400 {
        let recipes = strategy.generate(&mut TestRng::new(case));
        for rules in RULES {
            for a in both(rules, &recipes).1 {
                let path = [
                    "distinct KDC replies",
                    "echoes ciphertext",
                    "first sent by",
                    "ciphertext windows of another",
                    "after first sight",
                ]
                .into_iter()
                .find(|p| a.detail.contains(p));
                seen.extend(path);
            }
        }
    }
    assert_eq!(seen.len(), 5, "paths reached: {seen:?}");
}
