//! The network core: addresses, datagrams, routing, and the adversary's
//! hooks.
//!
//! The threat model is the paper's: "the protocols should be secure even
//! if the network is under the complete control of an adversary." Every
//! datagram that crosses the network is recorded in a traffic log the
//! attack code can read (passive wiretap), passes through an optional
//! in-path [`crate::adversary::Tap`] that may drop or rewrite it (active
//! wiretap), and can be re-sent later with any source address via
//! [`Network::inject`] (replay / spoofing). Nothing about a source
//! address is authenticated, exactly as on a 1990 campus network.
//!
//! Independently of the adversary, an optional seeded
//! [`crate::fault::FaultPlan`] models the *environment*: random loss,
//! duplication, reordering, delay, corruption, partitions, and host
//! crashes on the query/response path. See [`crate::fault`] for the
//! division of powers between the two.

use crate::adversary::{Tap, Verdict};
use crate::clock::{SimDuration, SimTime};
use crate::fault::{FaultDecision, FaultKind, FaultPlan};
use crate::host::{Host, HostId, ServiceCtx};
use krb_trace::{EventKind, Tracer, Value, ValueRef};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A network address (an IPv4-style 32-bit value).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u32);

impl Addr {
    /// Convenience constructor from dotted-quad-style parts.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(u32::from_be_bytes([a, b, c, d]))
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A (address, port) pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Endpoint {
    /// Network address.
    pub addr: Addr,
    /// Port number.
    pub port: u16,
}

impl Endpoint {
    /// Constructor.
    pub fn new(addr: Addr, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

/// A datagram payload: shared, cheaply cloneable bytes.
///
/// Trace subscribers hold every datagram's bytes, and faulted runs
/// clone datagrams for duplicates, reorders, and late replies. Sharing
/// the buffer turns all of those bookkeeping clones into reference-count
/// bumps; bytes are copied only when a holder actually mutates
/// (copy-on-write via [`Arc::make_mut`]) or explicitly exports with
/// [`Payload::to_vec`]. The network hands a delivered reply back
/// without a copy when nothing else holds it.
///
/// Derefs to `[u8]` both ways, so reads (`.first()`, slicing,
/// `.starts_with`) and in-place edits (`p[i] ^= x`, `p.swap(a, b)`)
/// work as they did when this was a `Vec<u8>`.
#[derive(Clone, PartialEq, Eq)]
pub struct Payload(Arc<Vec<u8>>);

impl Payload {
    /// Wraps owned bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        Payload(Arc::new(bytes))
    }

    /// Copies the bytes out (the one deliberate copy at API boundaries).
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.as_ref().clone()
    }

    /// Takes the bytes out: the buffer itself when no one else holds
    /// it, else a copy.
    pub(crate) fn into_vec(self) -> Vec<u8> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// Borrows the bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Wraps a shared buffer without copying it: how the traffic log
    /// rebuilds a datagram from a trace event's payload.
    pub fn from_shared(bytes: Arc<Vec<u8>>) -> Self {
        Payload(bytes)
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl std::ops::DerefMut for Payload {
    fn deref_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.0).as_mut_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::new(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::new(v.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Self {
        Payload::new(v.to_vec())
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other as &[u8]
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// One datagram on the wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Datagram {
    /// Claimed source (forgeable!).
    pub src: Endpoint,
    /// Destination.
    pub dst: Endpoint,
    /// Payload bytes.
    pub payload: Payload,
}

/// An entry in the traffic log: what crossed the wire, and when (true
/// time).
#[derive(Clone, Debug)]
pub struct TrafficRecord {
    /// When the datagram crossed the network, in true time.
    pub at: SimTime,
    /// The datagram as actually delivered (post-tap).
    pub dgram: Datagram,
    /// Whether this was a request (`true`) or a reply.
    pub is_request: bool,
    /// What the fault layer did to this datagram, if anything. `None`
    /// for clean deliveries and for adversary (tap) drops.
    pub fault: Option<FaultKind>,
}

/// Network-level errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// No host owns the destination address.
    NoRoute(Addr),
    /// The destination host has no service on that port.
    PortClosed(Endpoint),
    /// The request was lost before reaching the server: the side effect
    /// definitely did NOT happen.
    Dropped,
    /// The service did not produce a reply.
    NoReply,
    /// The request was delivered and processed, but the reply was lost:
    /// the side effect DID happen. Retry logic must treat this as an
    /// ambiguous outcome, not "never sent". (A real client cannot tell
    /// this from [`NetError::Dropped`]; the simulator surfaces the
    /// distinction so tests can assert at-most-once semantics.)
    ReplyLost,
    /// The caller's patience window expired before an answer arrived
    /// (the datagram may still be delivered later): ambiguous outcome.
    TimedOut,
    /// The destination host is crashed (scheduled fault window).
    HostDown(Addr),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoRoute(a) => write!(f, "no route to {a}"),
            NetError::PortClosed(e) => write!(f, "port closed: {}:{}", e.addr, e.port),
            NetError::Dropped => write!(f, "datagram dropped in transit"),
            NetError::NoReply => write!(f, "no reply from service"),
            NetError::ReplyLost => write!(f, "reply lost in transit (request was processed)"),
            NetError::TimedOut => write!(f, "request timed out"),
            NetError::HostDown(a) => write!(f, "host {a} is down"),
        }
    }
}

impl std::error::Error for NetError {}

/// How long an undeliverable in-flight datagram survives past its due
/// time before the simulator discards it.
const STALE_TTL_US: u64 = 60_000_000;

/// Longest chain of [`crate::host::ServiceCtx::forward_to`] hops one
/// request may traverse before the network refuses to recurse further
/// (loop guard for misconfigured proxy meshes).
const MAX_FORWARD_DEPTH: u32 = 4;

/// A datagram held by the fault layer: a duplicate copy, a reordered
/// original, or a reply nobody was waiting for.
#[derive(Clone, Debug)]
struct StaleDgram {
    /// When it becomes deliverable.
    due: SimTime,
    dgram: Datagram,
    is_request: bool,
    kind: FaultKind,
    /// Trace sequence number of the wire event this datagram descends
    /// from (the original of a duplicate, the held copy of a reorder) —
    /// the causal parent of its eventual delivery.
    parent: u64,
}

/// Outcome of one transit leg (tap + fault layer). Delivered and Held
/// carry the wire event's trace sequence number for causal linking.
enum LegOutcome {
    /// Delivered to the destination side.
    Delivered(Datagram, u64),
    /// Lost (tap drop, fault drop, or partition).
    Lost,
    /// Held by the fault layer for later delivery.
    Held,
}

/// The simulated network.
pub struct Network {
    hosts: Vec<Host>,
    addr_map: BTreeMap<Addr, HostId>,
    true_time: SimTime,
    /// Fixed one-way latency applied to every hop.
    pub latency: SimDuration,
    tap: Option<Box<dyn Tap>>,
    tracer: Tracer,
    /// Wire events at or after this trace sequence number form the
    /// visible [`Network::traffic_log`] view; `clear_log` advances it.
    log_from_seq: u64,
    fault: Option<FaultPlan>,
    /// Datagrams in flight past their exchange: duplicates, reordered
    /// originals, and late replies.
    stale: Vec<StaleDgram>,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// An empty network at time zero.
    pub fn new() -> Self {
        Network {
            hosts: Vec::new(),
            addr_map: BTreeMap::new(),
            true_time: SimTime(0),
            latency: SimDuration::from_millis(2),
            tap: None,
            tracer: Tracer::new(),
            log_from_seq: 0,
            fault: None,
            stale: Vec::new(),
        }
    }

    /// Adds a host; its addresses must be unique on the network.
    ///
    /// # Panics
    ///
    /// Panics if any of the host's addresses is already claimed.
    pub fn add_host(&mut self, host: Host) -> HostId {
        let id = HostId(self.hosts.len());
        for &a in &host.addrs {
            let prev = self.addr_map.insert(a, id);
            assert!(prev.is_none(), "duplicate address {a}");
        }
        self.hosts.push(host);
        id
    }

    /// Installs the in-path adversary tap (replacing any previous one).
    pub fn set_tap(&mut self, tap: Box<dyn Tap>) {
        self.tap = Some(tap);
    }

    /// Removes and returns the tap, for inspection of recorded state.
    pub fn take_tap(&mut self) -> Option<Box<dyn Tap>> {
        self.tap.take()
    }

    /// Installs the environment fault plan (replacing any previous one).
    /// A plan with all-zero rates and no windows behaves exactly like no
    /// plan at all.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Removes and returns the fault plan, e.g. to read its stats.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// Borrows the installed fault plan.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Whether an environment fault plan is installed. Clients use this
    /// to decide whether a garbled reply could be the network's fault
    /// (retry) or must be genuine (fail).
    pub fn faults_enabled(&self) -> bool {
        self.fault.is_some()
    }

    /// The network's true time.
    pub fn now(&self) -> SimTime {
        self.true_time
    }

    /// Advances true time.
    pub fn advance(&mut self, d: SimDuration) {
        self.true_time = self.true_time.plus(d);
    }

    /// Local clock reading of a host.
    pub fn host_time(&self, id: HostId) -> SimTime {
        self.hosts[id.0].clock.now(self.true_time)
    }

    /// Immutable host access.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0]
    }

    /// Mutable host access.
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        &mut self.hosts[id.0]
    }

    /// Looks up the host owning `addr`.
    pub fn host_by_addr(&self, addr: Addr) -> Option<HostId> {
        self.addr_map.get(&addr).copied()
    }

    /// The shared tracer: every wire hop, fault, and service-level
    /// protocol event of this network feeds it. The handle stays valid
    /// (and keeps its events) after the network is dropped.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// The full traffic log (the passive wiretap): a typed view over
    /// the trace's `wire.hop` events since the last
    /// [`Network::clear_log`]. The event layer is the primary record;
    /// this view is what replay/cracking attack code iterates.
    pub fn traffic_log(&self) -> Vec<TrafficRecord> {
        self.tracer
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::WireHop && e.seq >= self.log_from_seq)
            .filter_map(|e| {
                let src = Endpoint::new(
                    Addr(e.u64_field("src_addr")? as u32),
                    e.u64_field("src_port")? as u16,
                );
                let dst = Endpoint::new(
                    Addr(e.u64_field("dst_addr")? as u32),
                    e.u64_field("dst_port")? as u16,
                );
                let payload = Payload::from_shared(Arc::clone(e.bytes_field("payload")?));
                Some(TrafficRecord {
                    at: SimTime(e.at_us),
                    dgram: Datagram { src, dst, payload },
                    is_request: e.bool_field("req")?,
                    fault: e.str_field("fault").and_then(FaultKind::from_label),
                })
            })
            .collect()
    }

    /// Resets the traffic-log view (the trace itself is append-only;
    /// earlier events stay available to sinks).
    pub fn clear_log(&mut self) {
        self.log_from_seq = self.tracer.next_seq();
    }

    /// The name of the host owning `a`; an address no host owns (a
    /// spoofed or external source) is named `external(a)`.
    fn host_name(&self, a: Addr) -> Cow<'_, str> {
        match self.addr_map.get(&a) {
            Some(id) => Cow::Borrowed(&self.hosts[id.0].name),
            None => Cow::Owned(format!("external({a})")),
        }
    }

    /// Records one wire hop as a trace event and bumps the per-host
    /// datagram/byte counters; returns the event's sequence number for
    /// causal linking. Host names, labels and the shared payload are
    /// recorded by reference, so a hop between known hosts allocates
    /// nothing. Purely observational — consumes no randomness, advances
    /// no clock.
    fn wire_event(
        &self,
        dgram: &Datagram,
        is_request: bool,
        fault: Option<FaultKind>,
        origin: &'static str,
        parent: Option<u64>,
    ) -> u64 {
        let (src_host, dst_host) = (self.host_name(dgram.src.addr), self.host_name(dgram.dst.addr));
        self.tracer.counter("net.datagrams", &dst_host, 1);
        self.tracer.counter("net.bytes", &dst_host, dgram.payload.len() as u64);
        if let Some(k) = fault {
            self.tracer.counter("net.faults", k.label(), 1);
        }
        // Field order is the JSONL order; `fault` and `parent` appear
        // only when set.
        let fields = [
            Some(("src_host", ValueRef::Str(&src_host))),
            Some(("src_addr", ValueRef::U64(u64::from(dgram.src.addr.0)))),
            Some(("src_port", ValueRef::U64(u64::from(dgram.src.port)))),
            Some(("dst_host", ValueRef::Str(&dst_host))),
            Some(("dst_addr", ValueRef::U64(u64::from(dgram.dst.addr.0)))),
            Some(("dst_port", ValueRef::U64(u64::from(dgram.dst.port)))),
            Some(("req", ValueRef::Bool(is_request))),
            Some(("origin", ValueRef::Str(origin))),
            fault.map(|k| ("fault", ValueRef::Str(k.label()))),
            parent.map(|p| ("parent", ValueRef::U64(p))),
            Some(("payload", ValueRef::Bytes(&dgram.payload.0))),
        ];
        self.tracer.emit_ref(EventKind::WireHop, self.true_time.0, fields.into_iter().flatten())
    }

    /// Sends `payload` from `from` to `to` and waits for the (single)
    /// reply: the universal query/response primitive. Both directions
    /// cross the adversary and the fault layer.
    pub fn rpc(&mut self, from: Endpoint, to: Endpoint, payload: Vec<u8>) -> Result<Vec<u8>, NetError> {
        self.rpc_with_timeout(from, to, payload, None)
    }

    /// [`Network::rpc`] with an explicit patience window: if more than
    /// `timeout` elapses before the reply is in hand (delay faults), the
    /// caller gives up with [`NetError::TimedOut`] and the reply — if
    /// one is still in flight — may surface during a later exchange.
    pub fn rpc_with_timeout(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        payload: Vec<u8>,
        timeout: Option<SimDuration>,
    ) -> Result<Vec<u8>, NetError> {
        let start = self.true_time;
        if self.fault.is_some() {
            // Datagrams held from earlier exchanges arrive first.
            self.pump();
        }
        let request = Datagram { src: from, dst: to, payload: payload.into() };
        let delivered = match self.transit(request, true, true) {
            LegOutcome::Delivered(d, _) => d,
            LegOutcome::Lost => return Err(NetError::Dropped),
            // The request is still in flight; its fate is unknown.
            LegOutcome::Held => return Err(NetError::TimedOut),
        };
        let reply = self.dispatch(delivered)?.ok_or(NetError::NoReply)?;
        match self.transit(reply, false, true) {
            LegOutcome::Delivered(d, seq) => {
                if let Some(t) = timeout {
                    if self.true_time.0.saturating_sub(start.0) > t.0 {
                        // Too late: the caller already gave up; the
                        // reply stays in flight.
                        self.stale.push(StaleDgram {
                            due: self.true_time,
                            dgram: d,
                            is_request: false,
                            kind: FaultKind::Delayed,
                            parent: seq,
                        });
                        return Err(NetError::TimedOut);
                    }
                }
                // The awaited reply arrived: older duplicates still in
                // flight stay queued (the caller reads until it sees a
                // matching reply, discarding strays).
                Ok(d.payload.into_vec())
            }
            outcome @ (LegOutcome::Lost | LegOutcome::Held) => {
                // The fresh reply went missing. If an older reply from
                // this same peer is in flight (a duplicate or reorder
                // from an earlier exchange), the caller reads THAT one
                // instead — it is on the caller's own matching logic
                // (nonces) to notice the substitution.
                if let Some(s) =
                    if self.fault.is_some() { self.pop_due_stale_reply(from, to) } else { None }
                {
                    self.wire_event(&s.dgram, false, Some(s.kind), "stale", Some(s.parent));
                    return Ok(s.dgram.payload.into_vec());
                }
                match outcome {
                    LegOutcome::Lost => Err(NetError::ReplyLost),
                    _ => Err(NetError::TimedOut),
                }
            }
        }
    }

    /// Sends a datagram without expecting a reply (e.g. one-way
    /// notifications). Returns the service's optional reply payload
    /// *undelivered* — used by attack code that impersonates. Adversary
    /// sends bypass the fault layer (raw wire access).
    pub fn send_oneway(&mut self, from: Endpoint, to: Endpoint, payload: Vec<u8>) -> Result<(), NetError> {
        let d = Datagram { src: from, dst: to, payload: payload.into() };
        match self.transit(d, true, false) {
            LegOutcome::Delivered(d, _) => {
                self.dispatch(d)?;
                Ok(())
            }
            _ => Err(NetError::Dropped),
        }
    }

    /// The adversary's injection primitive: put an arbitrary datagram on
    /// the wire — any source address, any content (forgery, replay) —
    /// and collect the reply the victim service produces, if the reply
    /// routes somewhere the adversary can see. Injection does NOT pass
    /// the tap (the adversary does not attack itself) nor the fault
    /// layer (raw wire access), but IS logged.
    pub fn inject(&mut self, dgram: Datagram) -> Result<Option<Vec<u8>>, NetError> {
        let seq = self.wire_event(&dgram, true, None, "inject", None);
        let reply = self.dispatch(dgram)?;
        if let Some(r) = &reply {
            self.wire_event(r, false, None, "send", Some(seq));
        }
        Ok(reply.map(|d| d.payload.into_vec()))
    }

    /// Delivers every held datagram that has come due: duplicate and
    /// reordered requests reach their destination (late side effects);
    /// the replies they provoke go into flight as late replies. Held
    /// datagrams past their TTL are discarded. The queue is filtered in
    /// place, so a pump with nothing due moves and allocates nothing.
    pub fn pump(&mut self) {
        let now = self.true_time;
        self.stale.retain(|s| now.0 <= s.due.0 + STALE_TTL_US);
        let mut due_requests: Vec<StaleDgram> =
            self.stale.extract_if(.., |s| s.is_request && s.due <= now).collect();
        // Stable order: by due time, ties by original insertion order.
        due_requests.sort_by_key(|s| s.due);
        for s in due_requests {
            let seq = self.wire_event(&s.dgram, true, Some(s.kind), "stale", Some(s.parent));
            if let Ok(Some(reply)) = self.dispatch(s.dgram) {
                self.stale.push(StaleDgram {
                    due: SimTime(now.0 + self.latency.0),
                    dgram: reply,
                    is_request: false,
                    kind: s.kind,
                    parent: seq,
                });
            }
        }
    }

    /// Pops the earliest-due held reply addressed to `to` and claiming
    /// to come from `peer`, if any is deliverable now. The source match
    /// models a connected UDP socket: a stale duplicate from the KDC
    /// cannot be mistaken for an application server's reply — only for
    /// a later reply from the KDC itself (which the client's nonce
    /// matching then sorts out).
    fn pop_due_stale_reply(&mut self, to: Endpoint, peer: Endpoint) -> Option<StaleDgram> {
        let now = self.true_time;
        let mut best: Option<usize> = None;
        for (i, s) in self.stale.iter().enumerate() {
            if !s.is_request
                && s.due <= now
                && s.dgram.dst == to
                && s.dgram.src == peer
                && best.is_none_or(|b| self.stale[b].due > s.due)
            {
                best = Some(i);
            }
        }
        best.map(|i| self.stale.remove(i))
    }

    /// Runs one datagram across the wire: latency, adversary tap, and
    /// (for the rpc path) the fault layer.
    fn transit(&mut self, mut dgram: Datagram, is_request: bool, faulted: bool) -> LegOutcome {
        self.advance(self.latency);
        // The adversary taps the wire upstream of the lossy last hop:
        // it sees every original datagram exactly once, before the
        // environment has a chance to mangle it.
        if let Some(mut tap) = self.tap.take() {
            let verdict = tap.on_packet(&mut dgram, self.true_time);
            self.tap = Some(tap);
            match verdict {
                Verdict::Deliver => {}
                Verdict::Drop => {
                    self.wire_event(&dgram, is_request, None, "tap.drop", None);
                    return LegOutcome::Lost;
                }
            }
        }
        if faulted {
            if let Some(mut plan) = self.fault.take() {
                let outcome = self.apply_fault(&mut plan, dgram, is_request);
                self.fault = Some(plan);
                return outcome;
            }
        }
        let seq = self.wire_event(&dgram, is_request, None, "send", None);
        LegOutcome::Delivered(dgram, seq)
    }

    /// The fault-layer half of [`Network::transit`].
    fn apply_fault(&mut self, plan: &mut FaultPlan, mut dgram: Datagram, is_request: bool) -> LegOutcome {
        let now = self.true_time;
        if plan.partitioned(dgram.src.addr, dgram.dst.addr, now) {
            self.wire_event(&dgram, is_request, Some(FaultKind::Partitioned), "send", None);
            return LegOutcome::Lost;
        }
        match plan.decide(dgram.src.addr, dgram.dst.addr) {
            FaultDecision::Deliver => {
                let seq = self.wire_event(&dgram, is_request, None, "send", None);
                LegOutcome::Delivered(dgram, seq)
            }
            FaultDecision::Drop => {
                self.wire_event(&dgram, is_request, Some(FaultKind::Dropped), "send", None);
                LegOutcome::Lost
            }
            FaultDecision::Duplicate => {
                // The original delivers now; its duplicate goes into
                // flight carrying the original's trace seq as causal
                // parent, so the late redelivery is attributable.
                let seq = self.wire_event(&dgram, is_request, None, "send", None);
                self.stale.push(StaleDgram {
                    due: SimTime(now.0 + self.latency.0),
                    dgram: dgram.clone(),
                    is_request,
                    kind: FaultKind::Duplicated,
                    parent: seq,
                });
                LegOutcome::Delivered(dgram, seq)
            }
            FaultDecision::Reorder { hold_us } => {
                let seq =
                    self.wire_event(&dgram, is_request, Some(FaultKind::Reordered), "send", None);
                self.stale.push(StaleDgram {
                    due: SimTime(now.0 + hold_us),
                    dgram,
                    is_request,
                    kind: FaultKind::Reordered,
                    parent: seq,
                });
                LegOutcome::Held
            }
            FaultDecision::Corrupt { noise } => {
                if !dgram.payload.is_empty() {
                    let idx = (noise as usize) % dgram.payload.len();
                    // Guarantee a real flip.
                    dgram.payload[idx] ^= ((noise >> 32) as u8) | 1;
                }
                let seq =
                    self.wire_event(&dgram, is_request, Some(FaultKind::Corrupted), "send", None);
                LegOutcome::Delivered(dgram, seq)
            }
            FaultDecision::Delay { extra_us } => {
                self.advance(SimDuration(extra_us));
                let seq =
                    self.wire_event(&dgram, is_request, Some(FaultKind::Delayed), "send", None);
                LegOutcome::Delivered(dgram, seq)
            }
        }
    }

    /// Hands a datagram to the destination service and returns its reply.
    fn dispatch(&mut self, dgram: Datagram) -> Result<Option<Datagram>, NetError> {
        self.dispatch_at(dgram, 0)
    }

    /// [`Network::dispatch`] with a forward-chain depth: a service that
    /// requests a forward ([`ServiceCtx::forward_to`]) re-enters here
    /// one level deeper, and chains longer than
    /// [`MAX_FORWARD_DEPTH`] are refused rather than recursed.
    fn dispatch_at(&mut self, dgram: Datagram, depth: u32) -> Result<Option<Datagram>, NetError> {
        let hid = self.host_by_addr(dgram.dst.addr).ok_or(NetError::NoRoute(dgram.dst.addr))?;
        if let Some(mut plan) = self.fault.take() {
            let down = plan.host_down(dgram.dst.addr, self.true_time);
            let rebooted = !down && plan.take_restart(dgram.dst.addr, self.true_time);
            self.fault = Some(plan);
            if down {
                self.tracer.emit(
                    EventKind::HostDown,
                    self.true_time.0,
                    vec![
                        ("host", Value::str(self.hosts[hid.0].name.clone())),
                        ("port", Value::U64(dgram.dst.port as u64)),
                    ],
                );
                return Err(NetError::HostDown(dgram.dst.addr));
            }
            if rebooted {
                self.restart_host(hid, dgram.dst.addr);
            }
        }
        // Temporarily detach the service to satisfy the borrow checker.
        let mut service = self.hosts[hid.0]
            .services
            .remove(&dgram.dst.port)
            .ok_or(NetError::PortClosed(dgram.dst))?;

        let mut ctx = self.service_ctx(hid, dgram.dst.addr);
        let mut reply = service.handle(&mut ctx, &dgram.payload, dgram.src);
        if let (None, Some((up, fwd_payload))) = (&reply, ctx.forward.take()) {
            // Proxy leg: the forwarded request keeps the ORIGINAL
            // client as its source (transparent forwarding), so the
            // backend's per-source accounting and any address binding
            // still see the real client. Both forwarded legs cross the
            // wire like any other traffic: latency, the adversary tap,
            // and the fault plan all apply.
            let upstream = self.forward_leg(dgram.src, dgram.dst, up, fwd_payload, depth);
            // A fresh context re-reads the clock: the forwarded round
            // trip advanced time.
            let mut fctx = self.service_ctx(hid, dgram.dst.addr);
            reply = match &upstream {
                Ok(bytes) => service.on_forward_reply(&mut fctx, Ok(bytes), dgram.src),
                Err(e) => service.on_forward_reply(&mut fctx, Err(e), dgram.src),
            };
        }
        self.hosts[hid.0].services.insert(dgram.dst.port, service);

        Ok(reply.map(|payload| Datagram { src: dgram.dst, dst: dgram.src, payload: payload.into() }))
    }

    /// Runs one forwarded request leg on behalf of a proxy service at
    /// `via`: `src -> to` across the wire, dispatch at the upstream,
    /// and the upstream's reply carried back to the proxy.
    fn forward_leg(
        &mut self,
        src: Endpoint,
        via: Endpoint,
        to: Endpoint,
        payload: Vec<u8>,
        depth: u32,
    ) -> Result<Vec<u8>, NetError> {
        if depth + 1 >= MAX_FORWARD_DEPTH {
            // A forwarding loop (or an absurdly deep proxy chain) is
            // refused rather than recursed into.
            return Err(NetError::NoRoute(to.addr));
        }
        let request = Datagram { src, dst: to, payload: payload.into() };
        let delivered = match self.transit(request, true, true) {
            LegOutcome::Delivered(d, _) => d,
            LegOutcome::Lost => return Err(NetError::Dropped),
            LegOutcome::Held => return Err(NetError::TimedOut),
        };
        let mut upstream_reply =
            self.dispatch_at(delivered, depth + 1)?.ok_or(NetError::NoReply)?;
        // The upstream addressed its reply to the original client; it
        // physically travels back to the proxy, which is what the trace
        // should show.
        upstream_reply.dst = via;
        match self.transit(upstream_reply, false, true) {
            LegOutcome::Delivered(d, _) => Ok(d.payload.into_vec()),
            LegOutcome::Lost => Err(NetError::ReplyLost),
            LegOutcome::Held => Err(NetError::TimedOut),
        }
    }

    /// The context a service of host `hid`, reached at `addr`, runs in
    /// now: the host's local clock, the network's true time and tracer.
    fn service_ctx(&self, hid: HostId, addr: Addr) -> ServiceCtx {
        let host = &self.hosts[hid.0];
        ServiceCtx {
            local_time: host.clock.now(self.true_time),
            host_name: host.name.clone(),
            host_addr: addr,
            multi_user: host.multi_user,
            true_time: self.true_time,
            tracer: self.tracer.clone(),
            forward: None,
        }
    }

    /// Runs [`crate::host::Service::on_restart`] on every service bound
    /// to a host that has come back from a crash window. Volatile
    /// in-memory state is the service's to lose.
    fn restart_host(&mut self, hid: HostId, addr: Addr) {
        self.tracer.emit(
            EventKind::HostRestart,
            self.true_time.0,
            vec![("host", Value::str(self.hosts[hid.0].name.clone()))],
        );
        self.tracer.counter("net.restarts", &self.hosts[hid.0].name, 1);
        let mut ports: Vec<u16> = self.hosts[hid.0].services.keys().copied().collect();
        ports.sort_unstable();
        for port in ports {
            let Some(mut service) = self.hosts[hid.0].services.remove(&port) else { continue };
            service.on_restart(&mut self.service_ctx(hid, addr));
            self.hosts[hid.0].services.insert(port, service);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFaults;
    use crate::host::Service;

    /// A service that replies with its payload reversed.
    struct Echo;
    impl Service for Echo {
        fn handle(&mut self, _ctx: &mut ServiceCtx, req: &[u8], _from: Endpoint) -> Option<Vec<u8>> {
            let mut v = req.to_vec();
            v.reverse();
            Some(v)
        }
    }

    /// A service that counts the requests it handles and replies with
    /// the running count.
    struct Counter(u32);
    impl Service for Counter {
        fn handle(&mut self, _: &mut ServiceCtx, _: &[u8], _: Endpoint) -> Option<Vec<u8>> {
            self.0 += 1;
            Some(vec![self.0 as u8])
        }
    }

    /// A client host and a server host running `service` on port 7.
    fn build_with(service: Box<dyn Service>) -> (Network, Endpoint, Endpoint) {
        let mut net = Network::new();
        let a = Addr::new(10, 0, 0, 1);
        let b = Addr::new(10, 0, 0, 2);
        net.add_host(Host::new("client", vec![a]));
        let mut server = Host::new("server", vec![b]);
        server.bind(7, service);
        net.add_host(server);
        (net, Endpoint::new(a, 1024), Endpoint::new(b, 7))
    }

    fn build() -> (Network, Endpoint, Endpoint) {
        build_with(Box::new(Echo))
    }

    #[test]
    fn rpc_roundtrip() {
        let (mut net, c, s) = build();
        let reply = net.rpc(c, s, b"hello".to_vec()).unwrap();
        assert_eq!(reply, b"olleh");
    }

    #[test]
    fn rpc_advances_time() {
        let (mut net, c, s) = build();
        let t0 = net.now();
        net.rpc(c, s, b"x".to_vec()).unwrap();
        assert!(net.now() > t0);
    }

    #[test]
    fn no_route() {
        let (mut net, c, _) = build();
        let bogus = Endpoint::new(Addr::new(192, 168, 9, 9), 7);
        assert!(matches!(net.rpc(c, bogus, vec![]), Err(NetError::NoRoute(_))));
    }

    #[test]
    fn port_closed() {
        let (mut net, c, s) = build();
        let closed = Endpoint::new(s.addr, 9999);
        assert!(matches!(net.rpc(c, closed, vec![]), Err(NetError::PortClosed(_))));
    }

    #[test]
    fn traffic_is_logged_both_directions() {
        let (mut net, c, s) = build();
        net.rpc(c, s, b"secret".to_vec()).unwrap();
        let log = net.traffic_log();
        assert_eq!(log.len(), 2);
        assert!(log[0].is_request);
        assert_eq!(log[0].dgram.payload, b"secret");
        assert!(!log[1].is_request);
        assert_eq!(log[1].dgram.payload, b"terces");
    }

    #[test]
    fn inject_with_forged_source() {
        let (mut net, _, s) = build();
        // The adversary claims to be 10.9.9.9 — nothing stops it.
        let forged = Endpoint::new(Addr::new(10, 9, 9, 9), 5555);
        let reply = net
            .inject(Datagram { src: forged, dst: s, payload: b"spoof".to_vec().into() })
            .unwrap();
        assert_eq!(reply.unwrap(), b"foops");
    }

    #[test]
    fn replay_from_log() {
        let (mut net, c, s) = build();
        net.rpc(c, s, b"original".to_vec()).unwrap();
        let recorded = net.traffic_log()[0].dgram.clone();
        let replayed = net.inject(recorded).unwrap();
        assert_eq!(replayed.unwrap(), b"lanigiro");
    }

    #[test]
    fn duplicate_addr_panics() {
        let mut net = Network::new();
        let a = Addr::new(1, 1, 1, 1);
        net.add_host(Host::new("one", vec![a]));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.add_host(Host::new("two", vec![a]));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn multi_homed_host_reachable_on_all_addrs() {
        let mut net = Network::new();
        let a1 = Addr::new(10, 0, 0, 5);
        let a2 = Addr::new(192, 168, 0, 5);
        let mut h = Host::new("gateway", vec![a1, a2]);
        h.bind(7, Box::new(Echo));
        net.add_host(h);
        let c = Endpoint::new(Addr::new(10, 0, 0, 6), 1);
        net.add_host(Host::new("c", vec![Addr::new(10, 0, 0, 6)]));
        assert_eq!(net.rpc(c, Endpoint::new(a1, 7), b"ab".to_vec()).unwrap(), b"ba");
        assert_eq!(net.rpc(c, Endpoint::new(a2, 7), b"cd".to_vec()).unwrap(), b"dc");
    }

    // ---- fault layer ----

    #[test]
    fn zero_fault_plan_is_byte_identical() {
        let run = |with_plan: bool| {
            let (mut net, c, s) = build();
            if with_plan {
                net.set_fault_plan(FaultPlan::new(7));
            }
            for i in 0..20u8 {
                net.rpc(c, s, vec![i, i + 1]).unwrap();
            }
            net.traffic_log()
                .iter()
                .map(|r| (r.at, r.dgram.clone(), r.is_request, r.fault))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn full_drop_loses_request() {
        let (mut net, c, s) = build();
        net.set_fault_plan(
            FaultPlan::new(1).with_default(LinkFaults { drop: 1.0, ..LinkFaults::none() }),
        );
        assert_eq!(net.rpc(c, s, b"x".to_vec()), Err(NetError::Dropped));
        assert_eq!(net.traffic_log()[0].fault, Some(FaultKind::Dropped));
    }

    #[test]
    fn reply_only_drop_is_reply_lost() {
        let (mut net, c, s) = build();
        // Faults on the server->client direction only.
        net.set_fault_plan(
            FaultPlan::new(1).with_link(s.addr, c.addr, LinkFaults { drop: 1.0, ..LinkFaults::none() }),
        );
        assert_eq!(net.rpc(c, s, b"x".to_vec()), Err(NetError::ReplyLost));
    }

    #[test]
    fn duplicate_request_is_redelivered_by_pump() {
        let (mut net, c, s) = build_with(Box::new(Counter(0)));
        let (a, b) = (c.addr, s.addr);
        net.set_fault_plan(
            FaultPlan::new(1).with_link(a, b, LinkFaults { duplicate: 1.0, ..LinkFaults::none() }),
        );
        assert_eq!(net.rpc(c, s, b"x".to_vec()).unwrap(), vec![1]);
        net.advance(SimDuration::from_millis(10));
        net.pump(); // the duplicate arrives: the server handles it again
        assert_eq!(
            net.traffic_log().iter().filter(|r| r.fault == Some(FaultKind::Duplicated)).count(),
            1,
            "duplicate request redelivered"
        );
        // The duplicate's reply ([2]) is in flight toward the client,
        // but the next exchange's awaited reply arrives and wins.
        net.advance(SimDuration::from_millis(10));
        assert_eq!(net.rpc(c, s, b"y".to_vec()).unwrap(), vec![3]);
        // When the awaited reply goes missing, the client reads the
        // stale duplicate instead: a client without duplicate-response
        // matching would accept it.
        net.set_fault_plan(
            FaultPlan::new(2).with_link(b, a, LinkFaults { drop: 1.0, ..LinkFaults::none() }),
        );
        assert_eq!(net.rpc(c, s, b"z".to_vec()).unwrap(), vec![2]);
    }

    #[test]
    fn held_datagram_past_ttl_is_discarded_at_next_pump() {
        let (mut net, c, s) = build_with(Box::new(Counter(0)));
        // Both directions duplicate: one held copy of the request, one
        // of the reply (due one hop later).
        net.set_fault_plan(
            FaultPlan::new(1).with_default(LinkFaults { duplicate: 1.0, ..LinkFaults::none() }),
        );
        assert_eq!(net.rpc(c, s, b"x".to_vec()).unwrap(), vec![1]);
        assert_eq!(net.stale.iter().map(|d| d.is_request).collect::<Vec<_>>(), [true, false]);
        let reply_due = net.stale[1].due;
        // Exactly the TTL past the reply's due time: the earlier-due
        // request copy is more than the TTL past due and is discarded
        // undelivered; the reply copy is still held.
        net.advance(SimDuration(reply_due.0 + STALE_TTL_US - net.now().0));
        net.pump();
        assert_eq!(net.stale.iter().map(|d| d.is_request).collect::<Vec<_>>(), [false]);
        net.advance(SimDuration(1));
        net.pump();
        assert!(net.stale.is_empty(), "the reply copy expired too");
        // With every reply now lost, the client is not handed the
        // expired copy.
        net.set_fault_plan(
            FaultPlan::new(2).with_link(s.addr, c.addr, LinkFaults { drop: 1.0, ..LinkFaults::none() }),
        );
        assert_eq!(net.rpc(c, s, b"y".to_vec()), Err(NetError::ReplyLost));
        net.take_fault_plan();
        assert_eq!(net.rpc(c, s, b"z".to_vec()).unwrap(), vec![3], "the server saw x, y and z only");
        assert!(
            !net.traffic_log().iter().any(|r| r.fault == Some(FaultKind::Duplicated)),
            "no held copy was ever delivered"
        );
    }

    #[test]
    fn due_requests_deliver_in_due_order_ties_in_hold_order() {
        let (mut net, c, s) = build();
        let t = net.now().0;
        let hold = |due: u64, body: u8| StaleDgram {
            due: SimTime(due),
            dgram: Datagram { src: c, dst: s, payload: vec![body].into() },
            is_request: true,
            kind: FaultKind::Reordered,
            parent: 0,
        };
        net.stale.extend([
            hold(t + 30, b'a'),
            hold(t + 10, b'b'),
            hold(t + 50, b'f'),
            hold(t + 30, b'c'),
            hold(t + 20, b'd'),
            hold(t + 10, b'e'),
        ]);
        net.advance(SimDuration(30));
        net.pump();
        let delivered: Vec<u8> = net
            .traffic_log()
            .iter()
            .filter(|r| r.is_request && r.fault == Some(FaultKind::Reordered))
            .map(|r| r.dgram.payload[0])
            .collect();
        assert_eq!(delivered, b"bedac", "due order; equal due times in hold order");
        // The request not yet due stays first; the late replies the
        // deliveries provoked queue behind it in delivery order.
        let held: Vec<(bool, u8)> =
            net.stale.iter().map(|d| (d.is_request, d.dgram.payload[0])).collect();
        assert_eq!(
            held,
            [(true, b'f'), (false, b'b'), (false, b'e'), (false, b'd'), (false, b'a'), (false, b'c')]
        );
    }

    #[test]
    fn unread_late_replies_stay_held_in_hold_order() {
        let (mut net, c, s) = build();
        net.set_fault_plan(
            FaultPlan::new(1).with_link(s.addr, c.addr, LinkFaults { duplicate: 1.0, ..LinkFaults::none() }),
        );
        for body in [b"ab", b"cd", b"ef"] {
            net.rpc(c, s, body.to_vec()).unwrap();
        }
        // Every copy is due, none expired: a pump delivers requests
        // only, so the three reply copies stay where they were.
        net.advance(SimDuration::from_millis(10));
        net.pump();
        net.pump();
        let held: Vec<(bool, &[u8])> =
            net.stale.iter().map(|d| (d.is_request, d.dgram.payload.as_slice())).collect();
        assert_eq!(held, [(false, &b"ba"[..]), (false, b"dc"), (false, b"fe")]);
    }

    #[test]
    fn corruption_flips_a_byte() {
        let (mut net, c, s) = build();
        net.set_fault_plan(
            FaultPlan::new(3).with_link(c.addr, s.addr, LinkFaults { corrupt: 1.0, ..LinkFaults::none() }),
        );
        let reply = net.rpc(c, s, b"aaaa".to_vec()).unwrap();
        assert_ne!(reply, b"aaaa", "echo of corrupted payload differs");
    }

    #[test]
    fn partition_blocks_and_heals() {
        let (mut net, c, s) = build();
        let t0 = net.now();
        net.set_fault_plan(FaultPlan::new(0).partition(
            c.addr,
            s.addr,
            t0,
            SimTime(t0.0 + 1_000_000),
        ));
        assert_eq!(net.rpc(c, s, b"x".to_vec()), Err(NetError::Dropped));
        net.advance(SimDuration::from_secs(2));
        assert!(net.rpc(c, s, b"x".to_vec()).is_ok(), "partition healed");
    }

    #[test]
    fn crashed_host_is_down_then_restarts() {
        struct Flagged {
            restarted: bool,
        }
        impl Service for Flagged {
            fn handle(&mut self, _: &mut ServiceCtx, _: &[u8], _: Endpoint) -> Option<Vec<u8>> {
                Some(vec![u8::from(self.restarted)])
            }
            fn on_restart(&mut self, _: &mut ServiceCtx) {
                self.restarted = true;
            }
        }
        let mut net = Network::new();
        let a = Addr::new(10, 0, 0, 1);
        let b = Addr::new(10, 0, 0, 2);
        net.add_host(Host::new("client", vec![a]));
        let mut server = Host::new("server", vec![b]);
        server.bind(7, Box::new(Flagged { restarted: false }));
        net.add_host(server);
        let c = Endpoint::new(a, 1024);
        let s = Endpoint::new(b, 7);
        let t0 = net.now();
        net.set_fault_plan(FaultPlan::new(0).crash(b, t0, SimTime(t0.0 + 1_000_000)));
        assert_eq!(net.rpc(c, s, b"x".to_vec()), Err(NetError::HostDown(b)));
        net.advance(SimDuration::from_secs(2));
        // First contact after the window: the service restarted.
        assert_eq!(net.rpc(c, s, b"x".to_vec()).unwrap(), vec![1]);
    }

    // ---- forwarding (proxy services) ----

    /// A proxy that forwards every request to a fixed upstream and
    /// relays the upstream's reply, prefixed with a marker byte; on an
    /// upstream failure it answers with `b"busy"`.
    struct Proxy {
        upstream: Endpoint,
    }
    impl Service for Proxy {
        fn handle(&mut self, ctx: &mut ServiceCtx, req: &[u8], _from: Endpoint) -> Option<Vec<u8>> {
            ctx.forward_to(self.upstream, req.to_vec());
            None
        }
        fn on_forward_reply(
            &mut self,
            _ctx: &mut ServiceCtx,
            upstream: Result<&[u8], &NetError>,
            _from: Endpoint,
        ) -> Option<Vec<u8>> {
            match upstream {
                Ok(bytes) => {
                    let mut v = vec![b'>'];
                    v.extend_from_slice(bytes);
                    Some(v)
                }
                Err(_) => Some(b"busy".to_vec()),
            }
        }
    }

    fn build_proxied() -> (Network, Endpoint, Endpoint, Endpoint) {
        let mut net = Network::new();
        let a = Addr::new(10, 0, 0, 1);
        let g = Addr::new(10, 0, 0, 2);
        let b = Addr::new(10, 0, 0, 3);
        net.add_host(Host::new("client", vec![a]));
        let mut server = Host::new("server", vec![b]);
        server.bind(7, Box::new(Echo));
        net.add_host(server);
        let upstream = Endpoint::new(b, 7);
        let mut gw = Host::new("proxy", vec![g]);
        gw.bind(7, Box::new(Proxy { upstream }));
        net.add_host(gw);
        (net, Endpoint::new(a, 1024), Endpoint::new(g, 7), upstream)
    }

    #[test]
    fn forwarded_rpc_reaches_upstream_and_returns() {
        let (mut net, c, gw, _) = build_proxied();
        assert_eq!(net.rpc(c, gw, b"abc".to_vec()).unwrap(), b">cba");
    }

    #[test]
    fn forwarded_legs_cost_extra_latency() {
        let (mut net, c, gw, up) = build_proxied();
        let t0 = net.now();
        net.rpc(c, gw, b"x".to_vec()).unwrap();
        let proxied = net.now().0 - t0.0;
        let t1 = net.now();
        net.rpc(c, up, b"x".to_vec()).unwrap();
        let direct = net.now().0 - t1.0;
        assert_eq!(proxied, 2 * direct, "proxy adds one round trip of wire time");
    }

    #[test]
    fn forwarded_request_preserves_original_source() {
        struct From;
        impl Service for From {
            fn handle(&mut self, _: &mut ServiceCtx, _: &[u8], from: Endpoint) -> Option<Vec<u8>> {
                Some(from.addr.0.to_be_bytes().to_vec())
            }
        }
        let (mut net, c, gw, up) = build_proxied();
        let hid = net.host_by_addr(up.addr).unwrap();
        net.host_mut(hid).bind(7, Box::new(From));
        let reply = net.rpc(c, gw, b"who?".to_vec()).unwrap();
        assert_eq!(&reply[1..], c.addr.0.to_be_bytes(), "upstream saw the real client");
    }

    #[test]
    fn upstream_crash_surfaces_via_on_forward_reply() {
        let (mut net, c, gw, up) = build_proxied();
        let t0 = net.now();
        net.set_fault_plan(FaultPlan::new(0).crash(up.addr, t0, SimTime(t0.0 + 1_000_000)));
        assert_eq!(net.rpc(c, gw, b"x".to_vec()).unwrap(), b"busy");
        net.advance(SimDuration::from_secs(2));
        assert_eq!(net.rpc(c, gw, b"x".to_vec()).unwrap(), b">x");
    }

    #[test]
    fn forward_loop_is_refused_not_recursed() {
        // Two proxies pointing at each other: the loop breaks (a
        // service already detached for dispatch cannot be re-entered,
        // and the depth cap bounds longer chains) and the outcome
        // surfaces as a typed failure reply at the inner proxy, which
        // the outer proxy relays.
        let mut net = Network::new();
        let a = Addr::new(10, 0, 0, 1);
        let g1 = Addr::new(10, 0, 0, 2);
        let g2 = Addr::new(10, 0, 0, 3);
        net.add_host(Host::new("client", vec![a]));
        let mut h1 = Host::new("p1", vec![g1]);
        h1.bind(7, Box::new(Proxy { upstream: Endpoint::new(g2, 7) }));
        net.add_host(h1);
        let mut h2 = Host::new("p2", vec![g2]);
        h2.bind(7, Box::new(Proxy { upstream: Endpoint::new(g1, 7) }));
        net.add_host(h2);
        let c = Endpoint::new(a, 1024);
        let reply = net.rpc(c, Endpoint::new(g1, 7), b"x".to_vec()).unwrap();
        assert_eq!(reply, b">busy");
    }

    #[test]
    fn timeout_on_delayed_reply() {
        let (mut net, c, s) = build();
        net.set_fault_plan(FaultPlan::new(1).with_link(
            s.addr,
            c.addr,
            LinkFaults { delay: 1.0, delay_max_us: 5_000_000, ..LinkFaults::none() },
        ));
        let r = net.rpc_with_timeout(c, s, b"x".to_vec(), Some(SimDuration::from_millis(10)));
        // Either the delay draw exceeded 10ms (timeout) or it landed
        // under it (delivered); with a 5s max it times out for seed 1.
        assert_eq!(r, Err(NetError::TimedOut));
    }
}
