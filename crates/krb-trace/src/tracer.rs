//! The `Tracer` handle: a cheaply-cloneable, shared recorder of events,
//! spans, and metrics.
//!
//! One tracer is owned by a `Network` and cloned into every service
//! context, client helper, and attack harness — all clones feed the
//! same core, so the trace is a single totally-ordered record of the
//! run.  The core is guarded by a `Mutex` with poisoning recovery (the
//! crate-root panic lints apply to this crate; a poisoned lock must
//! not cascade).
//!
//! Tracing is *purely observational*: no method consumes randomness or
//! advances time.  Callers pass the sim-time (`at_us`) explicitly, so
//! instrumented and uninstrumented runs are byte-identical — the E1
//! golden matrix proves it.

use crate::event::{Event, EventKind, Value};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::ring::Ring;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifier of a span; 0 means "no span" (root).
pub type SpanId = u64;

/// Default ring-buffer capacity. Large enough that soak runs keep their
/// whole trace; bounded so a runaway loop cannot exhaust memory.
const DEFAULT_CAPACITY: usize = 1 << 20;

#[derive(Debug)]
struct Core {
    /// Retained events, encoded (see [`crate::ring`]).
    ring: Ring,
    /// Events evicted from the ring (oldest-first) since the last clear.
    evicted: u64,
    capacity: usize,
    next_seq: u64,
    next_span: u64,
    /// Stack of currently-open spans; the top is the parent of new
    /// events and spans.
    stack: Vec<SpanId>,
    /// Open span id -> (name, begin sim-time).
    open: BTreeMap<SpanId, (&'static str, u64)>,
    metrics: Metrics,
    /// Per-subscriber delivery buffers. Events land here in `push`,
    /// *before* the ring considers eviction, so a subscriber that
    /// drains regularly sees the complete stream even when the ring
    /// wraps. Payload bytes are `Arc`-shared, so the clone is cheap.
    subs: BTreeMap<u64, VecDeque<Event>>,
    next_sub: u64,
}

impl Default for Core {
    fn default() -> Self {
        Core {
            ring: Ring::default(),
            evicted: 0,
            capacity: DEFAULT_CAPACITY,
            next_seq: 0,
            next_span: 1,
            stack: Vec::new(),
            open: BTreeMap::new(),
            metrics: Metrics::default(),
            subs: BTreeMap::new(),
            next_sub: 1,
        }
    }
}

impl Core {
    fn push(&mut self, ev: Event) {
        for buf in self.subs.values_mut() {
            buf.push_back(ev.clone());
        }
        self.evict_to(self.capacity.saturating_sub(1));
        self.ring.push(&ev);
    }

    /// Evicts oldest-first until at most `keep` events remain.
    fn evict_to(&mut self, keep: usize) {
        while self.ring.len() > keep && self.ring.pop_front() {
            self.evicted = self.evicted.saturating_add(1);
        }
    }
}

/// A streaming tap on a [`Tracer`]: every event recorded after
/// [`Tracer::subscribe`] is buffered for this handle until
/// [`Subscription::drain`] collects it — independently of the ring
/// buffer, so eviction never loses a subscriber an event.
///
/// The subscription is a *pull* tap, not a callback: consumers drain at
/// their own cadence (typically between simulation steps), which keeps
/// the tracer lock short-lived and lets a consumer emit new events —
/// alerts, metrics — through the same tracer without deadlocking.
/// Dropping the handle unregisters it.
#[derive(Debug)]
pub struct Subscription {
    id: u64,
    core: Arc<Mutex<Core>>,
}

impl Subscription {
    /// Takes every event buffered since the last drain, in sequence
    /// order.
    pub fn drain(&self) -> Vec<Event> {
        let mut c = self.core.lock().unwrap_or_else(|p| p.into_inner());
        match c.subs.get_mut(&self.id) {
            Some(buf) => buf.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Number of events currently buffered (drained by nobody yet).
    pub fn pending(&self) -> usize {
        let c = self.core.lock().unwrap_or_else(|p| p.into_inner());
        c.subs.get(&self.id).map_or(0, VecDeque::len)
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let mut c = self.core.lock().unwrap_or_else(|p| p.into_inner());
        c.subs.remove(&self.id);
    }
}

/// Shared handle to one trace. `Clone` is a refcount bump.
#[derive(Clone, Default)]
pub struct Tracer {
    core: Arc<Mutex<Core>>,
}

// Deliberately terse: a tracer may transitively hold every datagram of
// a run; debug-printing it should summarise, not dump.
impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.core();
        f.debug_struct("Tracer")
            .field("events", &c.ring.len())
            .field("evicted", &c.evicted)
            .finish()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    fn core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Records an event at sim-time `at_us` under the innermost open
    /// span; returns its sequence number (useful as a causal parent for
    /// later events, e.g. a fault-duplicated datagram).
    pub fn emit(&self, kind: EventKind, at_us: u64, fields: Vec<(&'static str, Value)>) -> u64 {
        let mut c = self.core();
        let seq = c.next_seq;
        c.next_seq += 1;
        let span = c.stack.last().copied().unwrap_or(0);
        c.push(Event { seq, at_us, span, kind, fields });
        seq
    }

    /// Free-form annotation (adversary actions, scenario markers).
    pub fn note(&self, at_us: u64, text: &str) -> u64 {
        self.emit(EventKind::Note, at_us, vec![("text", Value::str(text))])
    }

    /// Opens a span: emits `span.begin`, pushes it on the stack so
    /// subsequent events (and child spans) attach to it.
    pub fn begin_span(
        &self,
        name: &'static str,
        at_us: u64,
        mut fields: Vec<(&'static str, Value)>,
    ) -> SpanId {
        let mut c = self.core();
        let id = c.next_span;
        c.next_span += 1;
        let parent = c.stack.last().copied().unwrap_or(0);
        c.open.insert(id, (name, at_us));
        c.stack.push(id);
        let seq = c.next_seq;
        c.next_seq += 1;
        let mut all = vec![("name", Value::str(name)), ("parent", Value::U64(parent))];
        all.append(&mut fields);
        c.push(Event { seq, at_us, span: id, kind: EventKind::SpanBegin, fields: all });
        id
    }

    /// Closes a span: emits `span.end` with its sim-time duration and
    /// records the duration in the `span.<name>` histogram under
    /// `scope`.  Closing an unknown/already-closed span is a no-op.
    pub fn end_span(&self, id: SpanId, at_us: u64, scope: &str) {
        let mut c = self.core();
        let Some((name, begin_us)) = c.open.remove(&id) else {
            return;
        };
        c.stack.retain(|&s| s != id);
        let dur_us = at_us.saturating_sub(begin_us);
        c.metrics.observe_us(&format!("span.{name}"), scope, dur_us);
        let seq = c.next_seq;
        c.next_seq += 1;
        c.push(Event {
            seq,
            at_us,
            span: id,
            kind: EventKind::SpanEnd,
            fields: vec![("name", Value::str(name)), ("dur_us", Value::U64(dur_us))],
        });
    }

    /// Increments counter `name{scope}` by `delta`.
    pub fn counter(&self, name: &str, scope: &str, delta: u64) {
        self.core().metrics.add(name, scope, delta);
    }

    /// Sets gauge `name{scope}` to `v`.
    pub fn gauge(&self, name: &str, scope: &str, v: u64) {
        self.core().metrics.set_gauge(name, scope, v);
    }

    /// Records a sim-time sample into histogram `name{scope}`.
    pub fn observe_us(&self, name: &str, scope: &str, us: u64) {
        self.core().metrics.observe_us(name, scope, us);
    }

    /// Deterministic flattened metrics view.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.core().metrics.snapshot()
    }

    /// All buffered events in sequence order, decoded from the ring:
    /// each call allocates fresh fields, strings and payload copies.
    pub fn events(&self) -> Vec<Event> {
        self.core().ring.events()
    }

    /// Bytes the buffered events occupy in the ring's encoding — a
    /// deterministic size of what the tracer retains.
    pub fn ring_bytes(&self) -> usize {
        self.core().ring.encoded_bytes()
    }

    /// The sequence number the next event will get. Doubles as a
    /// watermark for filtered log views.
    pub fn next_seq(&self) -> u64 {
        self.core().next_seq
    }

    /// Number of events evicted from the ring buffer (0 in tests —
    /// nonzero means the capacity is too small for the scenario).
    pub fn evicted(&self) -> u64 {
        self.core().evicted
    }

    /// Replaces the ring-buffer capacity (existing overflow evicts
    /// oldest-first immediately).
    pub fn set_capacity(&self, capacity: usize) {
        let mut c = self.core();
        c.capacity = capacity.max(1);
        let keep = c.capacity;
        c.evict_to(keep);
    }

    /// Drops buffered events and resets metrics; sequence and span
    /// counters keep advancing so watermarks stay valid. Subscriber
    /// buffers are left intact: a clear is a ring-buffer operation, not
    /// a stream truncation.
    pub fn clear(&self) {
        let mut c = self.core();
        c.ring.clear();
        c.evicted = 0;
        c.metrics.clear();
    }

    /// Registers a streaming tap: every event recorded from now on is
    /// buffered for the returned [`Subscription`] until drained —
    /// before ring-buffer eviction, so a full ring still delivers the
    /// complete stream to subscribers.
    pub fn subscribe(&self) -> Subscription {
        let mut c = self.core();
        let id = c.next_sub;
        c.next_sub += 1;
        c.subs.insert(id, VecDeque::new());
        Subscription { id, core: Arc::clone(&self.core) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time() {
        let t = Tracer::new();
        let outer = t.begin_span("as-exchange", 1_000, vec![("client", Value::str("pat"))]);
        t.emit(EventKind::TicketIssued, 1_500, vec![]);
        let inner = t.begin_span("crypto", 1_600, vec![]);
        t.end_span(inner, 1_700, "pat");
        t.end_span(outer, 2_000, "pat");

        let evs = t.events();
        assert_eq!(evs.len(), 5);
        // Event inside outer span is attributed to it.
        assert_eq!(evs[1].span, outer);
        // Inner span records outer as parent.
        assert_eq!(evs[2].u64_field("parent"), Some(outer));
        // Durations land in the histogram.
        let s = t.snapshot();
        assert_eq!(s["span.as-exchange{pat}.count"], 1);
        assert_eq!(s["span.as-exchange{pat}.sum_us"], 1_000);
        assert_eq!(s["span.crypto{pat}.sum_us"], 100);
    }

    #[test]
    fn end_span_is_idempotent() {
        let t = Tracer::new();
        let id = t.begin_span("x", 0, vec![]);
        t.end_span(id, 10, "s");
        t.end_span(id, 20, "s");
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.snapshot()["span.x{s}.count"], 1);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let t = Tracer::new();
        t.set_capacity(3);
        for i in 0..5 {
            t.note(i, "n");
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].seq, 2);
        assert_eq!(t.evicted(), 2);
        assert_eq!(t.next_seq(), 5);
    }

    #[test]
    fn clones_share_one_core() {
        let t = Tracer::new();
        let u = t.clone();
        u.note(5, "from clone");
        assert_eq!(t.events().len(), 1);
        u.counter("c", "s", 2);
        assert_eq!(t.snapshot()["c{s}"], 2);
    }

    #[test]
    fn subscriber_survives_ring_eviction() {
        // The regression the IDS depends on: a full ring (eviction
        // counter > 0) must still deliver *every* event to subscribers.
        let t = Tracer::new();
        t.set_capacity(3);
        let sub = t.subscribe();
        for i in 0..10 {
            t.note(i, "n");
        }
        assert!(t.evicted() > 0, "ring must have wrapped for this test to bite");
        assert_eq!(t.events().len(), 3);
        let seen = sub.drain();
        assert_eq!(seen.len(), 10, "subscriber missed evicted events");
        let seqs: Vec<u64> = seen.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn subscribe_starts_at_subscription_point_and_drains_incrementally() {
        let t = Tracer::new();
        t.note(0, "before");
        let sub = t.subscribe();
        t.note(1, "a");
        assert_eq!(sub.pending(), 1);
        assert_eq!(sub.drain().len(), 1);
        assert!(sub.drain().is_empty());
        t.note(2, "b");
        t.note(3, "c");
        assert_eq!(sub.drain().len(), 2);
    }

    #[test]
    fn dropped_subscription_stops_buffering() {
        let t = Tracer::new();
        let sub = t.subscribe();
        t.note(0, "a");
        drop(sub);
        t.note(1, "b");
        // A fresh subscription is independent of the dropped one.
        let sub2 = t.subscribe();
        t.note(2, "c");
        assert_eq!(sub2.drain().len(), 1);
    }

    #[test]
    fn clear_does_not_truncate_subscriber_stream() {
        let t = Tracer::new();
        let sub = t.subscribe();
        t.note(0, "a");
        t.clear();
        t.note(1, "b");
        assert_eq!(sub.drain().len(), 2);
    }

    #[test]
    fn clear_keeps_watermarks() {
        let t = Tracer::new();
        t.note(0, "a");
        t.note(1, "b");
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.next_seq(), 2);
        t.note(2, "c");
        assert_eq!(t.events()[0].seq, 2);
    }
}
