//! The online detection engine: compiled rules attached as a
//! subscriber tap on a [`Tracer`].
//!
//! The engine is a *pull* consumer: [`Engine::poll`] drains the
//! subscription, runs every buffered event through every detector in
//! sequence order, then emits one `ids.alert` trace event and an
//! `ids.alerts{detector}` counter per finding. All detector state is
//! keyed by sim-time and event content only — polling cadence cannot
//! change what is detected or when the alerts are timestamped, so
//! same-seed runs produce byte-identical alert streams.
//!
//! The detectors see exactly what a wire sniffer would: datagram
//! source/destination, direction, and payload bytes (plus host-level
//! restart and preauth-failure telemetry a defender's agents would
//! export). They never read the simulator's fault/origin metadata — an
//! environment-duplicated datagram is indistinguishable from an
//! attacker's replay on a real wire, and is reported as one.
//!
//! Cost: each wire hop is parsed once per event, whatever the number
//! of detectors, into integer endpoints; `ip:port` strings are rendered
//! only for an alert or an exact address matcher. The cut-paste window
//! kernel (`index_windows`) makes one pass per message and allocates
//! nothing per window; its index is hashed, since it is only probed.

use crate::compile::{DetectorBody, DetectorSpec, Per};
use crate::rules::{Match, MsgKind};
use krb_trace::{Event, EventKind, Subscription, Tracer, Value};
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::hash_map;
#[expect(clippy::disallowed_types, reason = "probe-only: never iterated")]
use std::collections::HashMap;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// One detector finding. `evidence_seq` is the trace sequence number
/// of the event that tripped the detector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alert {
    pub detector: &'static str,
    pub sid: u64,
    pub at_us: u64,
    pub subject: String,
    pub detail: String,
    pub evidence_seq: u64,
}

/// 64-bit FNV-1a over `bytes`, from `seed`.
fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Two independent FNV lanes — 128 bits of payload identity, enough
/// that distinct sealed messages never collide in a sim-scale run.
fn payload_id(bytes: &[u8]) -> (u64, u64) {
    (fnv64(0xcbf2_9ce4_8422_2325, bytes), fnv64(0x6c62_272e_07bb_0142, bytes))
}

/// Dotted-quad rendering of a wire address.
fn fmt_ip(a: u32) -> String {
    format!("{}.{}.{}.{}", (a >> 24) & 255, (a >> 16) & 255, (a >> 8) & 255, a & 255)
}

/// A wire endpoint as detector state keys it: the packed address
/// clamped to 32 bits (as its dotted quad renders it) and the port as
/// carried. Two endpoints are equal exactly when their `ip:port`
/// renderings are, so state keyed on them behaves as if keyed on the
/// strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Endpoint {
    addr: u32,
    port: u64,
}

impl Endpoint {
    fn new(addr: u64, port: u64) -> Endpoint {
        Endpoint { addr: u32::try_from(addr).unwrap_or(u32::MAX), port }
    }

    /// The port as header matchers and `krb_ports` see it.
    fn port16(self) -> u16 {
        u16::try_from(self.port).unwrap_or(u16::MAX)
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", fmt_ip(self.addr), self.port)
    }
}

/// Whether an address matcher accepts `addr`; only an exact matcher
/// needs the dotted quad rendered.
fn addr_accepts(m: &Match<String>, addr: u32) -> bool {
    match m {
        Match::Any => true,
        Match::Exact(want) => *want == fmt_ip(addr),
    }
}

/// A wire hop as the sniffer sees it, parsed once per event and shared
/// by every detector.
struct Hop<'a> {
    seq: u64,
    at_us: u64,
    src: Endpoint,
    dst: Endpoint,
    dst_host: &'a str,
    req: bool,
    payload: &'a [u8],
    /// [`payload_id`] of the payload.
    id: (u64, u64),
    kind: Option<MsgKind>,
}

impl<'a> Hop<'a> {
    fn from_event(ev: &'a Event) -> Option<Hop<'a>> {
        if ev.kind != EventKind::WireHop {
            return None;
        }
        let src = Endpoint::new(ev.u64_field("src_addr")?, ev.u64_field("src_port")?);
        let dst = Endpoint::new(ev.u64_field("dst_addr")?, ev.u64_field("dst_port")?);
        let payload = ev.bytes_field("payload")?.as_slice();
        Some(Hop {
            seq: ev.seq,
            at_us: ev.at_us,
            src,
            dst,
            dst_host: ev.str_field("dst_host").unwrap_or("?"),
            req: ev.bool_field("req").unwrap_or(false),
            payload,
            id: payload_id(payload),
            kind: MsgKind::sniff(payload),
        })
    }

    /// Whether this hop passes `spec`'s header matchers.
    fn matches(&self, spec: &DetectorSpec) -> bool {
        addr_accepts(&spec.src_addr, self.src.addr)
            && spec.src_port.accepts(&self.src.port16())
            && addr_accepts(&spec.dst_addr, self.dst.addr)
            && spec.dst_port.accepts(&self.dst.port16())
    }

    fn kind_name(&self) -> &'static str {
        self.kind.map(MsgKind::name).unwrap_or("message")
    }
}

/// Where a ciphertext window was first seen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WinOrigin {
    /// In a reply; the value is the evidence sequence number.
    Reply { seq: u64 },
    /// In a request; splice-sensitive iff the destination port is not
    /// a Kerberos service port AND a later message from a *different*
    /// source re-uses it. `src` is the endpoint that first presented
    /// the material — its own retransmissions and its next tickets
    /// (which share deterministic-seal prefixes) are not theft.
    Request { seq: u64, dst_port: u16, src: Endpoint },
}

/// The cut-paste index: 16-byte window, read as an integer -> first
/// origin (first-source-wins). It is only probed through `entry` and
/// never iterated, so its order cannot reach an alert; the default
/// `RandomState` keys it per process, so wire bytes cannot be crafted
/// to collide.
#[expect(clippy::disallowed_types, reason = "probe-only: never iterated")]
type WindowIndex = HashMap<u128, WinOrigin>;

/// A sliding preauth-storm window: event times, and the alerted latch.
type Burst = (VecDeque<u64>, bool);

/// Per-detector mutable state.
#[derive(Default)]
struct DetectorState {
    /// replay / crash-reuse: (src, dst, payload-id) -> first-seen time.
    first_sight: BTreeMap<(Endpoint, Endpoint, u64, u64), u64>,
    /// cut-paste: the window index.
    windows: WindowIndex,
    /// cut-paste: full-payload ids seen anywhere, any direction.
    payloads_seen: BTreeSet<(u64, u64)>,
    /// cut-paste: (dst, payload-id) -> first source endpoint.
    stream_first: BTreeMap<(Endpoint, u64, u64), Endpoint>,
    /// preauth-storm per source endpoint.
    src_storm: BTreeMap<Endpoint, Burst>,
    /// preauth-storm per client principal.
    principal_storm: BTreeMap<String, Burst>,
    /// crash-reuse: host name -> last restart time.
    restarts: BTreeMap<String, u64>,
}

// The window index prints as its size: iterating it would print in a
// per-process order.
impl fmt::Debug for DetectorState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectorState")
            .field("first_sight", &self.first_sight)
            .field("windows", &self.windows.len())
            .field("payloads_seen", &self.payloads_seen)
            .field("stream_first", &self.stream_first)
            .field("src_storm", &self.src_storm)
            .field("principal_storm", &self.principal_storm)
            .field("restarts", &self.restarts)
            .finish()
    }
}

#[derive(Debug)]
struct Detector {
    spec: DetectorSpec,
    state: DetectorState,
}

/// The rule engine. Build with [`Engine::new`] (or
/// [`crate::default_engine`]), wire it to a run with
/// [`Engine::attach`], and [`Engine::poll`] between simulation steps
/// (or once at the end — detection is cadence-independent).
#[derive(Debug)]
pub struct Engine {
    detectors: Vec<Detector>,
    tracer: Option<Tracer>,
    sub: Option<Subscription>,
    alerts: Vec<Alert>,
    events_seen: u64,
}

impl Engine {
    /// An engine over compiled detector specs.
    pub fn new(specs: Vec<DetectorSpec>) -> Engine {
        Engine {
            detectors: specs
                .into_iter()
                .map(|spec| Detector { spec, state: DetectorState::default() })
                .collect(),
            tracer: None,
            sub: None,
            alerts: Vec::new(),
            events_seen: 0,
        }
    }

    /// Subscribes to `tracer`: every event recorded from now on is
    /// observed (pre-eviction) at the next [`Engine::poll`], and
    /// alerts/metrics are emitted back through the same tracer.
    pub fn attach(&mut self, tracer: &Tracer) {
        self.sub = Some(tracer.subscribe());
        self.tracer = Some(tracer.clone());
    }

    /// Drains the subscription and runs every buffered event through
    /// every detector; returns how many alerts this poll raised.
    pub fn poll(&mut self) -> usize {
        let Some(sub) = &self.sub else { return 0 };
        let events = sub.drain();
        let mut fresh: Vec<Alert> = Vec::new();
        let mut observed = 0u64;
        for ev in &events {
            // The engine's own alert events come back around the tap.
            if ev.kind == EventKind::IdsAlert {
                continue;
            }
            observed += 1;
            let hop = Hop::from_event(ev);
            for d in &mut self.detectors {
                observe(&d.spec, &mut d.state, ev, hop.as_ref(), &mut fresh);
            }
        }
        self.events_seen += observed;
        let raised = fresh.len();
        if let Some(t) = &self.tracer {
            if observed > 0 {
                t.counter("ids.events", "engine", observed);
            }
            for a in &fresh {
                t.counter("ids.alerts", a.detector, 1);
                t.emit(
                    EventKind::IdsAlert,
                    a.at_us,
                    vec![
                        ("detector", Value::str(a.detector)),
                        ("sid", Value::U64(a.sid)),
                        ("subject", Value::str(&a.subject)),
                        ("detail", Value::str(&a.detail)),
                        ("evidence", Value::U64(a.evidence_seq)),
                    ],
                );
            }
        }
        self.alerts.append(&mut fresh);
        raised
    }

    /// Every alert raised so far, in detection order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Total trace events observed (the `ids.events` counter's view).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Distinct detector labels that have fired so far.
    pub fn fired(&self) -> BTreeSet<&'static str> {
        self.alerts.iter().map(|a| a.detector).collect()
    }
}

/// Routes one event, and its parsed wire hop if it is one, into one
/// detector.
fn observe(
    spec: &DetectorSpec,
    state: &mut DetectorState,
    ev: &Event,
    hop: Option<&Hop<'_>>,
    out: &mut Vec<Alert>,
) {
    let hop = hop.filter(|h| h.matches(spec));
    match &spec.body {
        DetectorBody::Replay { window_us, kinds } => {
            if let Some(hop) = hop {
                observe_replay(spec, state, hop, *window_us, kinds, out);
            }
        }
        DetectorBody::ClockSpoof { tolerance_us } => {
            if let Some(hop) = hop {
                observe_clock(spec, hop, *tolerance_us, out);
            }
        }
        DetectorBody::CutPaste { krb_ports, min_run, min_stolen } => {
            if let Some(hop) = hop {
                observe_cut_paste(spec, state, hop, krb_ports, *min_run, *min_stolen, out);
            }
        }
        DetectorBody::PreauthStorm { window_us, threshold, per } => match per {
            Per::Src => {
                if let Some(hop) = hop.filter(|h| h.req && h.kind == Some(MsgKind::AsReq)) {
                    observe_storm(
                        spec,
                        &mut state.src_storm,
                        hop.src,
                        hop.at_us,
                        hop.seq,
                        *window_us,
                        *threshold,
                        out,
                    );
                }
            }
            Per::Principal => {
                if ev.kind == EventKind::PreauthFailed {
                    if let Some(client) = ev.str_field("client") {
                        observe_storm(
                            spec,
                            &mut state.principal_storm,
                            client.to_string(),
                            ev.at_us,
                            ev.seq,
                            *window_us,
                            *threshold,
                            out,
                        );
                    }
                }
            }
        },
        DetectorBody::CrashReuse { window_us } => {
            if ev.kind == EventKind::HostRestart {
                if let Some(host) = ev.str_field("host") {
                    state.restarts.insert(host.to_string(), ev.at_us);
                }
                return;
            }
            if let Some(hop) = hop {
                observe_crash_reuse(spec, state, hop, *window_us, out);
            }
        }
    }
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

fn observe_replay(
    spec: &DetectorSpec,
    state: &mut DetectorState,
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
    match state.first_sight.entry((hop.src, hop.dst, hop.id.0, hop.id.1)) {
        Entry::Occupied(first) if hop.at_us.saturating_sub(*first.get()) <= window_us => {
            let dt = hop.at_us.saturating_sub(*first.get());
            push_alert(
                spec,
                out,
                hop.at_us,
                hop.src.to_string(),
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
        Entry::Occupied(_) => {}
        Entry::Vacant(slot) => {
            slot.insert(hop.at_us);
        }
    }
}

fn observe_clock(spec: &DetectorSpec, hop: &Hop<'_>, tolerance_us: u64, out: &mut Vec<Alert>) {
    if hop.req {
        return;
    }
    let Some(chunk) = hop.payload.get(0..4) else { return };
    let Ok(raw) = <[u8; 4]>::try_from(chunk) else { return };
    let claimed_s = u32::from_be_bytes(raw) as u64;
    let claimed_us = claimed_s.saturating_mul(1_000_000);
    let skew = claimed_us.abs_diff(hop.at_us);
    if skew > tolerance_us {
        push_alert(
            spec,
            out,
            hop.at_us,
            hop.src.to_string(),
            format!(
                "time reply claims {claimed_s}s but arrived at {}s ({}s apart)",
                hop.at_us / 1_000_000,
                skew / 1_000_000
            ),
            hop.seq,
        );
    }
}

fn observe_cut_paste(
    spec: &DetectorSpec,
    state: &mut DetectorState,
    hop: &Hop<'_>,
    krb_ports: &[u16],
    min_run: usize,
    min_stolen: usize,
    out: &mut Vec<Alert>,
) {
    // Windows are fixed 16-byte content keys; `min_run` only raises
    // the minimum message size worth scanning.
    if hop.payload.len() < min_run.max(16) {
        return;
    }
    let stream = (hop.dst, hop.id.0, hop.id.1);
    if state.payloads_seen.contains(&hop.id) {
        // Exact bytes seen before. Same stream (same src): that is the
        // replay detector's case. Different src to the same
        // destination: a whole sealed message cut-and-pasted across
        // streams. Copies are never re-indexed (first-source-wins).
        let spliceable = matches!(
            hop.kind,
            Some(MsgKind::ApReq | MsgKind::Safe | MsgKind::Priv | MsgKind::ChallengeResp)
        );
        match state.stream_first.get(&stream) {
            Some(&first_src) if hop.req && spliceable && first_src != hop.src => {
                let detail = format!(
                    "sealed {} first sent by {first_src} re-sent to {} from {}",
                    hop.kind_name(),
                    hop.dst,
                    hop.src
                );
                push_alert(spec, out, hop.at_us, hop.src.to_string(), detail, hop.seq);
            }
            _ => {}
        }
        return;
    }

    // Fresh bytes: index them and, for a request, collect in the same
    // pass the earlier origins of its ciphertext windows. Request-
    // origin matches count per source message: deterministic seals
    // (v4-style, no confounder) make honest messages share envelope
    // bytes and leading ciphertext blocks, so only a *long* run of
    // someone else's material — `min_stolen` windows from one foreign,
    // non-KDC-bound request — is evidence of theft.
    state.payloads_seen.insert(hop.id);
    let origin = if hop.req {
        state.stream_first.entry(stream).or_insert(hop.src);
        WinOrigin::Request { seq: hop.seq, dst_port: hop.dst.port16(), src: hop.src }
    } else {
        WinOrigin::Reply { seq: hop.seq }
    };
    let mut reply_sources: BTreeSet<u64> = BTreeSet::new();
    let mut stolen_counts: BTreeMap<u64, usize> = BTreeMap::new();
    index_windows(
        &mut state.windows,
        hop.payload,
        origin,
        krb_ports,
        &mut reply_sources,
        &mut stolen_counts,
    );
    if !hop.req {
        return;
    }
    // Deterministic best pick: highest count, then earliest source.
    let request_source = stolen_counts
        .iter()
        .filter(|(_, &n)| n >= min_stolen)
        .max_by_key(|(&seq, &n)| (n, Reverse(seq)))
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
            hop.src.to_string(),
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
            hop.src.to_string(),
            format!("{} to {} echoes ciphertext from reply #{first}", hop.kind_name(), hop.dst),
            hop.seq,
        );
    } else if let Some((seq, n)) = request_source {
        push_alert(
            spec,
            out,
            hop.at_us,
            hop.src.to_string(),
            format!(
                "message from {} to {} re-uses {n} ciphertext windows of another \
                 endpoint's session material (request #{seq})",
                hop.src, hop.dst
            ),
            hop.seq,
        );
    }
}

/// Distinct-byte count of a sliding window, updated in O(1) per byte.
struct Distinct {
    counts: [u8; 256],
    n: u32,
}

impl Distinct {
    fn enter(&mut self, b: u8) {
        let c = &mut self.counts[usize::from(b)];
        self.n += u32::from(*c == 0);
        *c += 1;
    }

    fn leave(&mut self, b: u8) {
        let c = &mut self.counts[usize::from(b)];
        *c -= 1;
        self.n -= u32::from(*c == 0);
    }
}

/// The cut-paste window kernel: one pass over `payload`'s 16-byte
/// windows. Windows with fewer than 4 distinct bytes (padding, zero
/// runs) carry no identity and are skipped, tested in O(1) per byte by
/// a sliding byte count. Each other window costs one map entry: a new
/// window is indexed under `origin` (first-source-wins, so later copies
/// — faulted duplicates, legitimate echoes — never re-attribute it); a
/// known one, when `origin` is a request, is counted: a reply origin's
/// seq into `reply_sources`, a foreign, splice-sensitive request
/// origin's window into `stolen_counts`. A window repeated inside the
/// same request resolves to that request's own source and is ignored,
/// as a scan ahead of indexing would ignore it. The index reserves the
/// message's window count up front, so nothing is allocated per window.
fn index_windows(
    windows: &mut WindowIndex,
    payload: &[u8],
    origin: WinOrigin,
    krb_ports: &[u16],
    reply_sources: &mut BTreeSet<u64>,
    stolen_counts: &mut BTreeMap<u64, usize>,
) {
    let Some(head) = payload.get(..15) else { return };
    windows.reserve(payload.len() - 15);
    let mut live = Distinct { counts: [0; 256], n: 0 };
    for &b in head {
        live.enter(b);
    }
    for win in payload.windows(16) {
        live.enter(win[15]);
        if live.n >= 4 {
            let Ok(arr) = <[u8; 16]>::try_from(win) else { continue };
            match windows.entry(u128::from_le_bytes(arr)) {
                hash_map::Entry::Vacant(slot) => {
                    slot.insert(origin);
                }
                hash_map::Entry::Occupied(seen) => {
                    if let WinOrigin::Request { src: me, .. } = origin {
                        match *seen.get() {
                            WinOrigin::Reply { seq } => {
                                reply_sources.insert(seq);
                            }
                            WinOrigin::Request { seq, dst_port, src }
                                if src != me && !krb_ports.contains(&dst_port) =>
                            {
                                *stolen_counts.entry(seq).or_default() += 1;
                            }
                            WinOrigin::Request { .. } => {}
                        }
                    }
                }
            }
        }
        live.leave(win[0]);
    }
}

#[allow(clippy::too_many_arguments)]
fn observe_storm<K: Ord + Clone + fmt::Display>(
    spec: &DetectorSpec,
    storm: &mut BTreeMap<K, Burst>,
    subject: K,
    at_us: u64,
    seq: u64,
    window_us: u64,
    threshold: u64,
    out: &mut Vec<Alert>,
) {
    let fire = {
        let (times, alerted) = storm.entry(subject.clone()).or_default();
        times.push_back(at_us);
        while times.front().is_some_and(|&t| at_us.saturating_sub(t) > window_us) {
            times.pop_front();
        }
        if (times.len() as u64) < threshold {
            *alerted = false;
            None
        } else if !*alerted {
            *alerted = true;
            Some(times.len())
        } else {
            None
        }
    };
    if let Some(n) = fire {
        let detail = format!("{}: {n} events inside {}s window", spec.msg, window_us / 1_000_000);
        push_alert(spec, out, at_us, subject.to_string(), detail, seq);
    }
}

fn observe_crash_reuse(
    spec: &DetectorSpec,
    state: &mut DetectorState,
    hop: &Hop<'_>,
    window_us: u64,
    out: &mut Vec<Alert>,
) {
    if !hop.req || !matches!(hop.kind, Some(MsgKind::ApReq | MsgKind::ChallengeResp)) {
        return;
    }
    let sight = (hop.src, hop.dst, hop.id.0, hop.id.1);
    if let Some(&t0) = state.first_sight.get(&sight) {
        if let Some(&restarted) = state.restarts.get(hop.dst_host) {
            if t0 < restarted
                && hop.at_us >= restarted
                && hop.at_us.saturating_sub(restarted) <= window_us
            {
                push_alert(
                    spec,
                    out,
                    hop.at_us,
                    hop.src.to_string(),
                    format!(
                        "authenticator first seen at {}s re-presented to {} {}s after its restart",
                        t0 / 1_000_000,
                        hop.dst_host,
                        hop.at_us.saturating_sub(restarted) / 1_000_000
                    ),
                    hop.seq,
                );
                return;
            }
        }
    }
    state.first_sight.entry(sight).or_insert(hop.at_us);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{default_engine, DEFAULT_RULES};
    use krb_trace::Tracer;
    use std::sync::Arc;

    fn hop(
        t: &Tracer,
        at_us: u64,
        src: (u64, u64),
        dst: (u64, u64),
        dst_host: &str,
        req: bool,
        payload: Vec<u8>,
    ) {
        t.emit(
            EventKind::WireHop,
            at_us,
            vec![
                ("src_host", Value::str("src-host")),
                ("src_addr", Value::U64(src.0)),
                ("src_port", Value::U64(src.1)),
                ("dst_host", Value::str(dst_host)),
                ("dst_addr", Value::U64(dst.0)),
                ("dst_port", Value::U64(dst.1)),
                ("req", Value::Bool(req)),
                ("origin", Value::str("send")),
                ("payload", Value::bytes(Arc::new(payload))),
            ],
        );
    }

    fn sealed(tag: u8, fill: u8) -> Vec<u8> {
        sealed_n(tag, fill, 48)
    }

    fn sealed_n(tag: u8, fill: u8, n: u8) -> Vec<u8> {
        let mut v = vec![tag];
        v.extend((0u8..n).map(|i| i.wrapping_mul(37).wrapping_add(fill)));
        v
    }

    #[test]
    fn default_rules_compile() {
        assert!(default_engine().is_ok(), "DEFAULT_RULES must parse and compile");
        assert!(DEFAULT_RULES.contains("detector:replay"));
    }

    #[test]
    fn replay_detector_fires_on_identical_resend_only() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let ap = sealed(5, 1);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
        hop(&t, 2_000_000, (10, 1024), (20, 2001), "files", true, sealed(5, 2));
        eng.poll();
        assert!(eng.alerts().is_empty(), "distinct payloads must not alert");
        hop(&t, 61_000_000, (10, 1024), (20, 2001), "files", true, ap);
        eng.poll();
        let alerts = eng.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].detector, "replay");
        assert_eq!(alerts[0].subject, "0.0.0.10:1024");
        assert_eq!(t.snapshot()["ids.alerts{replay}"], 1);
    }

    #[test]
    fn replay_ignores_as_req_retries() {
        // Client retry semantics: a lost AS-REQ is re-sent verbatim —
        // kinds: excludes as-req so retries never alias as replays.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let req = sealed(1, 9);
        hop(&t, 1_000_000, (10, 1024), (20, 88), "kdc", true, req.clone());
        hop(&t, 2_000_000, (10, 1024), (20, 88), "kdc", true, req);
        eng.poll();
        assert!(eng.fired().is_empty());
    }

    #[test]
    fn clock_spoof_detector_checks_claimed_time() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let now_s: u32 = 1_000_000;
        // Honest time reply from port 37.
        hop(
            &t,
            now_s as u64 * 1_000_000,
            (30, 37),
            (10, 1024),
            "ws",
            false,
            now_s.to_be_bytes().to_vec(),
        );
        eng.poll();
        assert!(eng.fired().is_empty());
        // Spoofed reply: claims 11 minutes earlier.
        hop(
            &t,
            now_s as u64 * 1_000_000,
            (30, 37),
            (10, 1024),
            "ws",
            false,
            (now_s - 660).to_be_bytes().to_vec(),
        );
        eng.poll();
        assert_eq!(eng.alerts().len(), 1);
        assert_eq!(eng.alerts()[0].detector, "clock-spoof");
    }

    #[test]
    fn clock_spoof_ignores_other_ports() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        // An app reply that merely *looks* like a bad timestamp, from a
        // non-time port: out of rule scope.
        hop(&t, 1_000_000, (30, 2001), (10, 1024), "ws", false, vec![0, 0, 0, 1]);
        eng.poll();
        assert!(eng.fired().is_empty());
    }

    #[test]
    fn cut_paste_chimera_needs_two_reply_sources() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let rep_a = sealed(2, 10);
        let rep_b = sealed(2, 200);
        hop(&t, 1_000_000, (20, 88), (10, 1024), "ws-a", false, rep_a.clone());
        hop(&t, 2_000_000, (20, 88), (11, 1024), "ws-b", false, rep_b.clone());
        // Legit TGS-REQ echoing ticket bytes from ONE reply: no alert.
        let mut legit = vec![3u8];
        legit.extend_from_slice(&rep_a[1..33]);
        legit.extend((0u8..24).map(|i| i.wrapping_mul(11).wrapping_add(3)));
        hop(&t, 3_000_000, (10, 1024), (20, 88), "kdc", true, legit);
        eng.poll();
        assert!(eng.fired().is_empty(), "one reply source is the legitimate shape");
        // Chimera: ticket bytes from BOTH replies in one request.
        let mut forged = vec![3u8];
        forged.extend_from_slice(&rep_a[1..33]);
        forged.extend_from_slice(&rep_b[1..33]);
        hop(&t, 4_000_000, (11, 1024), (20, 88), "kdc", true, forged);
        eng.poll();
        assert_eq!(eng.alerts().len(), 1);
        assert_eq!(eng.alerts()[0].detector, "cut-paste");
        assert!(eng.alerts()[0].detail.contains("2 distinct KDC replies"));
    }

    #[test]
    fn cut_paste_flags_reply_echo_and_cross_stream() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        // Reply-echo: a PRIV request carrying a reply's ciphertext.
        let reply = sealed(9, 77);
        hop(&t, 1_000_000, (20, 2001), (10, 1024), "ws", false, reply.clone());
        let mut echo = vec![9u8];
        echo.extend_from_slice(&reply[1..25]);
        hop(&t, 2_000_000, (66, 7000), (20, 2001), "mail", true, echo);
        eng.poll();
        assert_eq!(eng.alerts().len(), 1);
        assert!(eng.alerts()[0].detail.contains("echoes ciphertext from reply"));
        // Cross-stream: same sealed PRIV, same dst, different src.
        let msg = sealed(9, 140);
        hop(&t, 3_000_000, (10, 1024), (20, 2001), "mail", true, msg.clone());
        hop(&t, 4_000_000, (10, 1025), (20, 2001), "mail", true, msg);
        eng.poll();
        assert_eq!(eng.alerts().len(), 2);
        assert!(eng.alerts()[1].detail.contains("re-sent to"));
    }

    #[test]
    fn cut_paste_flags_stolen_material_from_new_source() {
        // An AP-REQ's sealed material (ticket + authenticator) sent to
        // an app port, then a *different* endpoint re-presenting a long
        // run of it: the stolen-material path.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let victim = sealed_n(5, 33, 90);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, victim.clone());
        let mut thief = vec![5u8, 0xEE, 0x17, 0x99];
        thief.extend_from_slice(&victim[1..80]); // 79 shared bytes = 64 windows
        hop(&t, 5_000_000, (66, 7000), (20, 2001), "files", true, thief);
        eng.poll();
        let alerts = eng.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].detector, "cut-paste");
        assert!(alerts[0].detail.contains("another endpoint's session material"));
    }

    #[test]
    fn cut_paste_tolerates_deterministic_prefix_aliasing() {
        // Under a deterministic seal two honest messages share leading
        // blocks: the owner's next ticket re-uses its own prefix, and a
        // *different* user's ticket shares the envelope + service-name
        // blocks. Neither is theft — only a long foreign run alerts.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let first = sealed_n(5, 70, 90);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, first.clone());
        // Same source, long shared prefix (round-over-round ticket).
        let mut own_next = first[..70].to_vec();
        own_next.extend_from_slice(&sealed_n(5, 140, 40)[1..]);
        hop(&t, 2_000_000, (10, 1024), (20, 2001), "files", true, own_next);
        // Different source, short shared head (cross-user envelope +
        // leading ciphertext blocks): 29 shared bytes = 14 windows.
        let mut other_user = first[..30].to_vec();
        other_user.extend_from_slice(&sealed_n(5, 200, 60)[1..]);
        hop(&t, 3_000_000, (11, 1024), (20, 2001), "files", true, other_user);
        eng.poll();
        assert!(eng.fired().is_empty(), "{:?}", eng.alerts());
    }

    #[test]
    fn cut_paste_ignores_kdc_bound_request_structure() {
        // Two users' AS-REQs share cleartext structure (service
        // principal, realm). KDC-port sources are not splice-sensitive,
        // so the shared run must not alert.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let shared: Vec<u8> = (0u8..32).map(|i| i.wrapping_mul(7).wrapping_add(5)).collect();
        let mut req_a = vec![1u8, 0xAA];
        req_a.extend_from_slice(&shared);
        let mut req_b = vec![1u8, 0xBB];
        req_b.extend_from_slice(&shared);
        hop(&t, 1_000_000, (10, 1024), (20, 88), "kdc", true, req_a);
        hop(&t, 2_000_000, (11, 1024), (20, 88), "kdc", true, req_b);
        eng.poll();
        assert!(eng.fired().is_empty());
    }

    #[test]
    fn preauth_storm_latches_once_per_burst() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        for i in 0..20u64 {
            // Distinct nonces: each AS-REQ is a fresh payload.
            let mut req = sealed(1, i as u8);
            req.push(i as u8);
            hop(&t, 1_000_000 + i * 100_000, (10, 1024), (20, 88), "kdc", true, req);
        }
        eng.poll();
        let storm: Vec<_> = eng.alerts().iter().filter(|a| a.detector == "preauth-storm").collect();
        assert_eq!(storm.len(), 1, "one latched alert per burst, not one per packet");
    }

    #[test]
    fn preauth_storm_counts_failures_per_principal() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        for i in 0..10u64 {
            t.emit(
                EventKind::PreauthFailed,
                1_000_000 + i * 1_000_000,
                vec![
                    ("site", Value::str("kdc.preauth")),
                    ("client", Value::str("sam")),
                    ("error", Value::str("preauthentication failed")),
                ],
            );
        }
        eng.poll();
        let storm: Vec<_> = eng.alerts().iter().filter(|a| a.detector == "preauth-storm").collect();
        assert_eq!(storm.len(), 1);
        assert_eq!(storm[0].subject, "sam");
    }

    #[test]
    fn crash_reuse_requires_restart_between_sightings() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let ap = sealed(5, 50);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
        // Same bytes again with no restart: replay fires, crash-reuse not.
        hop(&t, 2_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
        eng.poll();
        assert!(!eng.fired().contains("crash-reuse"));
        t.emit(EventKind::HostRestart, 3_000_000, vec![("host", Value::str("files"))]);
        hop(&t, 4_000_000, (10, 1024), (20, 2001), "files", true, ap);
        eng.poll();
        assert!(eng.fired().contains("crash-reuse"));
        assert!(eng.fired().contains("replay"));
    }

    #[test]
    fn poll_cadence_does_not_change_alerts() {
        let drive = |poll_each: bool| -> Vec<Alert> {
            let t = Tracer::new();
            let mut eng = default_engine().unwrap();
            eng.attach(&t);
            let ap = sealed(5, 7);
            hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
            if poll_each {
                eng.poll();
            }
            hop(&t, 5_000_000, (10, 1024), (20, 2001), "files", true, ap);
            eng.poll();
            eng.alerts().to_vec()
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn alerts_emit_back_into_the_trace_without_feedback() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let ap = sealed(5, 7);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
        hop(&t, 2_000_000, (10, 1024), (20, 2001), "files", true, ap);
        eng.poll();
        let n = eng.alerts().len();
        assert_eq!(n, 1);
        // The emitted ids.alert event is in the trace...
        let kinds: Vec<_> = t.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::IdsAlert));
        // ...and re-polling (which drains it back) neither re-alerts
        // nor loops.
        eng.poll();
        eng.poll();
        assert_eq!(eng.alerts().len(), n);
    }

    #[test]
    fn events_counter_skips_the_engines_own_alerts() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let ap = sealed(5, 7);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
        hop(&t, 2_000_000, (10, 1024), (20, 2001), "files", true, ap);
        eng.poll();
        assert_eq!(eng.alerts().len(), 1);
        // The second poll drains only the alert event the first emitted.
        eng.poll();
        assert_eq!(eng.events_seen(), 2);
        assert_eq!(t.snapshot()["ids.events{engine}"], eng.events_seen());
    }

    #[test]
    fn endpoints_key_as_their_renderings_do() {
        // Addresses past 32 bits render as 255.255.255.255, so they are
        // one source; ports render as carried, so 65536 is not 65535.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let ap = sealed(5, 9);
        hop(&t, 1_000_000, (1 << 32, 65_536), (20, 2001), "files", true, ap.clone());
        hop(&t, 2_000_000, (u64::MAX, 65_536), (20, 2001), "files", true, ap.clone());
        hop(&t, 3_000_000, (u64::MAX, 65_535), (20, 2001), "files", true, ap);
        eng.poll();
        let subjects: Vec<(&str, &str)> =
            eng.alerts().iter().map(|a| (a.detector, a.subject.as_str())).collect();
        assert_eq!(
            subjects,
            [("replay", "255.255.255.255:65536"), ("cut-paste", "255.255.255.255:65535")]
        );
        assert!(eng.alerts()[1].detail.contains("first sent by 255.255.255.255:65536"));
    }
}
