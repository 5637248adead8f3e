//! The metrics registry resolves each name to a slot and keeps each
//! name's scopes in a hashed map; these properties drive arbitrary
//! sequences of counter bumps (delta 0 included), gauge writes,
//! histogram samples, span closes and `clear` through a `Tracer` and
//! compare `snapshot()` with a plain model: one ordered map per kind,
//! keyed by name and scope text, flattened as the snapshot renders
//! them (a gauge's `name{scope}` wins over a counter's).
//!
//! Names: more distinct ones than the name cache holds, "dup" at two
//! addresses (one metric), and every name usable by every kind, so a
//! plain histogram `x{…}` sits beside the span histogram `span.x{…}`.
//! Scopes: the empty scope, a pool of shared scopes and arbitrary
//! strings.

use krb_trace::{MetricsSnapshot, Tracer};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use testkit::prop::{any, collection, Just, Strategy};
use testkit::{prop_assert_eq, prop_oneof};

/// 300 distinct names (more than the name cache holds), then "dup"
/// twice at different addresses, then "x".
fn names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let mut v: Vec<&'static str> = (0..300)
            .map(|i| &*Box::leak(format!("m.{i}").into_boxed_str()))
            .collect();
        v.push(Box::leak(String::from("dup").into_boxed_str()));
        v.push(Box::leak(String::from("dup").into_boxed_str()));
        v.push("x");
        v
    })
}

const POOL: [&str; 6] = ["", "pat", "kdc", "pat@ATHENA.MIT.EDU", "10.0.0.1", "é語🦀"];

/// Mostly a few names shared across kinds, sometimes any of them.
fn name() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..303, 300usize..303, 0usize..3]
}

#[derive(Clone, Debug)]
enum Scope {
    Pool(usize),
    Free(Vec<char>),
}

impl Scope {
    fn text(&self) -> String {
        match self {
            Scope::Pool(i) => POOL[*i].to_string(),
            Scope::Free(cs) => cs.iter().collect(),
        }
    }
}

fn scope() -> impl Strategy<Value = Scope> {
    let chars = prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        Just('{'),
        Just('}'),
        Just('é'),
    ];
    prop_oneof![
        (0usize..POOL.len()).prop_map(Scope::Pool),
        Just(Scope::Pool(0)),
        collection::vec(chars, 0..=10).prop_map(Scope::Free),
    ]
}

fn amount() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..10, any::<u64>()]
}

#[derive(Clone, Debug)]
enum Op {
    Counter(usize, Scope, u64),
    Gauge(usize, Scope, u64),
    Observe(usize, Scope, u64),
    /// One counter bump on every name, starting at this one, so more
    /// names than the cache holds are live at once.
    Sweep(usize, Scope, u64),
    Begin(usize, u64),
    /// Closes an open span (`pick` among them), or, when `stale` or
    /// none is open, whichever id `pick` names: a closed or unknown id
    /// is a no-op.
    End {
        pick: usize,
        stale: bool,
        at_us: u64,
        scope: Scope,
    },
    Clear,
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        (name(), scope(), amount()).prop_map(|(n, s, d)| Op::Counter(n, s, d)),
        (name(), scope(), amount()).prop_map(|(n, s, d)| Op::Counter(n, s, d)),
        (name(), scope(), amount()).prop_map(|(n, s, v)| Op::Gauge(n, s, v)),
        (name(), scope(), amount()).prop_map(|(n, s, us)| Op::Observe(n, s, us)),
        (0usize..303, scope(), 0u64..3).prop_map(|(n, s, d)| Op::Sweep(n, s, d)),
        (name(), amount()).prop_map(|(n, at)| Op::Begin(n, at)),
        (name(), amount()).prop_map(|(n, at)| Op::Begin(n, at)),
        (0usize..64, any::<bool>(), amount(), scope()).prop_map(|(pick, stale, at_us, scope)| {
            Op::End {
                pick,
                stale,
                at_us,
                scope,
            }
        }),
        Just(Op::Clear),
    ]
}

/// Histogram moments: (count, sum_us, max_us).
type Moments = (u64, u64, u64);

fn observe(m: &mut Moments, us: u64) {
    m.0 = m.0.saturating_add(1);
    m.1 = m.1.saturating_add(us);
    m.2 = m.2.max(us);
}

/// The registry as ordered maps keyed by text.
#[derive(Default)]
struct Model {
    counters: BTreeMap<(&'static str, String), u64>,
    gauges: BTreeMap<(&'static str, String), u64>,
    hists: BTreeMap<(&'static str, String), Moments>,
    spans: BTreeMap<(&'static str, String), Moments>,
    next_span: u64,
    /// Open spans, innermost last: (id, name, begin).
    open: Vec<(u64, &'static str, u64)>,
}

impl Model {
    fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for ((name, scope), v) in self.counters.iter().chain(&self.gauges) {
            out.insert(format!("{name}{{{scope}}}"), *v);
        }
        for (prefix, table) in [("", &self.hists), ("span.", &self.spans)] {
            for ((name, scope), (count, sum, max)) in table {
                out.insert(format!("{prefix}{name}{{{scope}}}.count"), *count);
                out.insert(format!("{prefix}{name}{{{scope}}}.sum_us"), *sum);
                out.insert(format!("{prefix}{name}{{{scope}}}.max_us"), *max);
            }
        }
        out
    }
}

testkit::prop! {
    fn snapshot_matches_an_ordered_model(script in collection::vec(ops(), 1..=60)) {
        let t = Tracer::new();
        t.set_capacity(8);
        let mut m = Model { next_span: 1, ..Model::default() };
        for op in &script {
            match op {
                Op::Counter(n, s, delta) => {
                    let (name, scope) = (names()[*n], s.text());
                    t.counter(name, &scope, *delta);
                    let v = m.counters.entry((name, scope)).or_default();
                    *v = v.saturating_add(*delta);
                }
                Op::Gauge(n, s, v) => {
                    let (name, scope) = (names()[*n], s.text());
                    t.gauge(name, &scope, *v);
                    m.gauges.insert((name, scope), *v);
                }
                Op::Observe(n, s, us) => {
                    let (name, scope) = (names()[*n], s.text());
                    t.observe_us(name, &scope, *us);
                    observe(m.hists.entry((name, scope)).or_default(), *us);
                }
                Op::Sweep(start, s, delta) => {
                    let scope = s.text();
                    let all = names();
                    for name in all[*start..].iter().chain(&all[..*start]) {
                        t.counter(name, &scope, *delta);
                        let v = m.counters.entry((name, scope.clone())).or_default();
                        *v = v.saturating_add(*delta);
                    }
                }
                Op::Begin(n, at_us) => {
                    let name = names()[*n];
                    let id = t.begin_span(name, *at_us, []);
                    prop_assert_eq!(id, m.next_span);
                    m.next_span += 1;
                    m.open.push((id, name, *at_us));
                }
                Op::End { pick, stale, at_us, scope } => {
                    let id = match m.open.len() {
                        n if n > 0 && !stale => m.open[pick % n].0,
                        _ => *pick as u64 % (m.next_span + 1),
                    };
                    let scope = scope.text();
                    t.end_span(id, *at_us, &scope);
                    if let Some(at) = m.open.iter().position(|s| s.0 == id) {
                        let (_, name, begin) = m.open.remove(at);
                        let dur = at_us.saturating_sub(begin);
                        observe(m.spans.entry((name, scope)).or_default(), dur);
                    }
                }
                Op::Clear => {
                    t.clear();
                    m.counters.clear();
                    m.gauges.clear();
                    m.hists.clear();
                    m.spans.clear();
                }
            }
            prop_assert_eq!(t.snapshot(), m.snapshot());
        }
    }
}
