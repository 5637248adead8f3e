//! The tracer stores events as encoded records; these properties drive
//! arbitrary event sequences through `emit` and compare `events()` and
//! `to_jsonl` with a plain model of the ring (a queue of the emitted
//! events, oldest evicted first). Values of every kind, empty and
//! multi-kilobyte strings and payloads, more distinct field names than
//! the name cache holds, capacities small enough to evict and wrap the
//! buffer on most steps, `set_capacity` shrinks and `clear`.

use krb_trace::{to_jsonl, Event, EventKind, Tracer, Value, ValueRef};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use testkit::prop::{any, collection, Just, Strategy};
use testkit::{prop_assert_eq, prop_oneof};

/// Field names: 300 distinct ones (more than the ring's name cache
/// holds), plus "dup" twice at different addresses, which must intern
/// as one name.
fn names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let mut v: Vec<&'static str> = (0..300)
            .map(|i| &*Box::leak(format!("field_{i}").into_boxed_str()))
            .collect();
        v.push(Box::leak(String::from("dup").into_boxed_str()));
        v.push(Box::leak(String::from("dup").into_boxed_str()));
        v.push("");
        v
    })
}

#[derive(Clone, Debug)]
enum ValueSpec {
    U64(u64),
    Bool(bool),
    Str(Vec<char>),
    /// A string of this many 'x' (multi-kilobyte).
    LongStr(usize),
    Bytes(Vec<u8>),
    /// This many payload bytes (multi-kilobyte).
    LongBytes(usize, u8),
}

impl ValueSpec {
    fn value(&self) -> Value {
        match self {
            ValueSpec::U64(v) => Value::U64(*v),
            ValueSpec::Bool(b) => Value::Bool(*b),
            ValueSpec::Str(cs) => Value::str(cs.iter().collect::<String>()),
            ValueSpec::LongStr(n) => Value::str("x".repeat(*n)),
            ValueSpec::Bytes(b) => Value::bytes(Arc::new(b.clone())),
            ValueSpec::LongBytes(n, b) => Value::bytes(Arc::new(vec![*b; *n])),
        }
    }
}

fn values() -> impl Strategy<Value = ValueSpec> {
    let chars = prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        Just('"'),
        Just('\\'),
        Just('é'),
        Just('語'),
        Just('🦀'),
    ];
    prop_oneof![
        any::<u64>().prop_map(ValueSpec::U64),
        (0u64..300).prop_map(ValueSpec::U64),
        any::<bool>().prop_map(ValueSpec::Bool),
        collection::vec(chars, 0..=24).prop_map(ValueSpec::Str),
        (1_000usize..=6_000).prop_map(ValueSpec::LongStr),
        collection::vec(any::<u8>(), 0..=40).prop_map(ValueSpec::Bytes),
        (1_000usize..=6_000, any::<u8>()).prop_map(|(n, b)| ValueSpec::LongBytes(n, b)),
    ]
}

fn fields() -> impl Strategy<Value = Vec<(usize, ValueSpec)>> {
    collection::vec((0usize..303, values()), 0..=12)
}

#[derive(Clone, Debug)]
enum Op {
    Emit {
        kind: usize,
        at_us: u64,
        fields: Vec<(usize, ValueSpec)>,
    },
    Begin {
        name: usize,
        at_us: u64,
        fields: Vec<(usize, ValueSpec)>,
    },
    End {
        at_us: u64,
    },
    SetCapacity(usize),
    Clear,
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..EventKind::ALL.len(), any::<u64>(), fields()).prop_map(|(kind, at_us, fields)| {
            Op::Emit {
                kind,
                at_us,
                fields,
            }
        }),
        (0usize..EventKind::ALL.len(), 0u64..1_000_000, fields()).prop_map(
            |(kind, at_us, fields)| Op::Emit {
                kind,
                at_us,
                fields
            }
        ),
        (0usize..303, 0u64..1_000_000, fields()).prop_map(|(name, at_us, fields)| Op::Begin {
            name,
            at_us,
            fields
        }),
        (0u64..2_000_000).prop_map(|at_us| Op::End { at_us }),
        (0usize..=40).prop_map(Op::SetCapacity),
        Just(Op::Clear),
    ]
}

/// The ring as it behaved when it held decoded events.
struct Model {
    events: VecDeque<Event>,
    capacity: usize,
    evicted: u64,
    next_seq: u64,
    next_span: u64,
    /// Open spans, innermost last: (id, name, begin).
    open: Vec<(u64, &'static str, u64)>,
}

impl Model {
    fn push(&mut self, kind: EventKind, at_us: u64, span: u64, fields: Vec<(&'static str, Value)>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(Event {
            seq,
            at_us,
            span,
            kind,
            fields,
        });
    }

    fn shrink(&mut self) {
        while self.events.len() > self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
    }
}

fn built(fields: &[(usize, ValueSpec)]) -> Vec<(&'static str, Value)> {
    fields
        .iter()
        .map(|(n, v)| (names()[*n], v.value()))
        .collect()
}

testkit::prop! {
    fn ring_returns_what_was_emitted_minus_what_was_evicted(
        capacity in 1usize..=12,
        script in collection::vec(ops(), 1..=60),
    ) {
        let t = Tracer::new();
        t.set_capacity(capacity);
        let mut m = Model {
            events: VecDeque::new(),
            capacity,
            evicted: 0,
            next_seq: 0,
            next_span: 1,
            open: Vec::new(),
        };
        for op in &script {
            let span = m.open.last().map_or(0, |s| s.0);
            match op {
                Op::Emit { kind, at_us, fields } => {
                    let kind = EventKind::ALL[*kind];
                    let seq = t.emit(kind, *at_us, built(fields));
                    prop_assert_eq!(seq, m.next_seq);
                    m.push(kind, *at_us, span, built(fields));
                }
                Op::Begin { name, at_us, fields } => {
                    let name = names()[*name];
                    let owned = built(fields);
                    let borrowed = owned.iter().map(|(n, v)| (*n, ValueRef::from(v)));
                    let id = t.begin_span(name, *at_us, borrowed);
                    prop_assert_eq!(id, m.next_span);
                    m.next_span += 1;
                    let mut all = vec![("name", Value::str(name)), ("parent", Value::U64(span))];
                    all.extend(built(fields));
                    m.push(EventKind::SpanBegin, *at_us, id, all);
                    m.open.push((id, name, *at_us));
                }
                Op::End { at_us } => {
                    if let Some((id, name, begin)) = m.open.pop() {
                        t.end_span(id, *at_us, "s");
                        let dur = at_us.saturating_sub(begin);
                        m.push(
                            EventKind::SpanEnd,
                            *at_us,
                            id,
                            vec![("name", Value::str(name)), ("dur_us", Value::U64(dur))],
                        );
                    }
                }
                Op::SetCapacity(n) => {
                    t.set_capacity(*n);
                    m.capacity = (*n).max(1);
                    m.shrink();
                }
                Op::Clear => {
                    t.clear();
                    m.events.clear();
                    m.evicted = 0;
                }
            }
            let got = t.events();
            let want: Vec<Event> = m.events.iter().cloned().collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(t.evicted(), m.evicted);
            prop_assert_eq!(t.next_seq(), m.next_seq);
            if want.is_empty() {
                prop_assert_eq!(t.ring_bytes(), 0);
            }
        }
        let want: Vec<Event> = m.events.iter().cloned().collect();
        prop_assert_eq!(to_jsonl(&t.events()), to_jsonl(&want));
    }
}

/// A ring far larger than the buffer's first allocation, filled with
/// records of mixed sizes, then wrapped many times over: the buffer grows
/// while full and keeps exactly the newest `capacity` events.
#[test]
fn growth_under_wraparound_keeps_the_newest_events() {
    let t = Tracer::new();
    t.set_capacity(200);
    let mut want = VecDeque::new();
    for i in 0..5_000u64 {
        // Sizes cycle 0 .. 3 KB so the byte length of a full ring keeps
        // changing as records evict.
        let len = ((i * 7919) % 3_001) as usize;
        let fields = vec![
            ("i", Value::U64(i)),
            ("payload", Value::bytes(Arc::new(vec![i as u8; len]))),
        ];
        t.emit(EventKind::WireHop, i, fields.clone());
        if want.len() == 200 {
            want.pop_front();
        }
        want.push_back(Event {
            seq: i,
            at_us: i,
            span: 0,
            kind: EventKind::WireHop,
            fields,
        });
    }
    assert_eq!(t.evicted(), 4_800);
    assert_eq!(t.events(), want.into_iter().collect::<Vec<_>>());
}
