//! Deterministic metrics registry: counters, gauges, and sim-time
//! histograms keyed by name, then scope.
//!
//! Scope is free-form — a host name, a principal, a protocol variant —
//! so one registry covers "auths issued per principal" and "bytes on
//! wire per host" alike. Names are the `&'static str` literals of the
//! emission sites and resolve to a dense slot through an address-keyed
//! cache ([`NameSlots`]), so a bump compares no name. Each kind keeps
//! one scope map per slot, hashed: per-principal scopes reach hundreds
//! of thousands of keys on a cluster-sized run. A scope's `Box<str>`
//! is copied once, on its first use under a name. A snapshot flattens
//! to `name{scope}` keys in lexicographic order, so snapshots of
//! identical runs compare byte-equal.

use crate::names::NameSlots;
use std::collections::BTreeMap;
#[expect(clippy::disallowed_types, reason = "the scope maps, `Scopes`")]
use std::collections::HashMap;

/// Flattened metrics view: `name{scope}` (histograms expand to
/// `.count` / `.sum_us` / `.max_us` sub-keys) mapped to integer values.
pub type MetricsSnapshot = BTreeMap<String, u64>;

/// Sim-time histogram moments; enough for mean/max tables without
/// storing samples.
#[derive(Default)]
struct Hist {
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Hist {
    fn observe(&mut self, us: u64) {
        self.count = self.count.saturating_add(1);
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }
}

/// One name's values by scope. Scopes are principal names and hosts
/// taken off the wire, so the map keeps the default `RandomState`
/// (SipHash keyed per process) against crafted collisions. It is probed
/// by every update and iterated only by [`Metrics::snapshot`], which
/// sorts what it reads, so its order never reaches an output.
#[expect(
    clippy::disallowed_types,
    reason = "probed, or iterated into a sorted snapshot: no output depends on its order"
)]
type Scopes<T> = HashMap<Box<str>, T>;

/// One metric kind's values: scope maps indexed by name slot.
type Table<T> = Vec<Scopes<T>>;

/// Applies `f` to the value at `slot{scope}`, which starts at
/// `T::default()`; allocates only for a name's first slot in this
/// table or a scope new under it.
fn update<T: Default>(table: &mut Table<T>, slot: usize, scope: &str, f: impl FnOnce(&mut T)) {
    if table.len() <= slot {
        table.resize_with(slot + 1, Scopes::default);
    }
    let Some(scopes) = table.get_mut(slot) else {
        return;
    };
    match scopes.get_mut(scope) {
        Some(v) => f(v),
        None => {
            let mut v = T::default();
            f(&mut v);
            scopes.insert(scope.into(), v);
        }
    }
}

/// The registry. Owned by a tracer core; all mutation goes through the
/// `Tracer` handle.
#[derive(Default)]
pub(crate) struct Metrics {
    /// Metric and span names: one slot per distinct name, whatever its
    /// kind.
    names: NameSlots,
    counters: Table<u64>,
    gauges: Table<u64>,
    hists: Table<Hist>,
    /// Span durations, by span name: the snapshot renders them under
    /// `span.{name}`, so closing a span formats nothing. `span.` names
    /// are `end_span`'s alone.
    spans: Table<Hist>,
}

// Sizes only: the scope maps iterate in a per-process order.
impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn keys<T>(table: &Table<T>) -> usize {
            table.iter().map(|scopes| scopes.len()).sum()
        }
        f.debug_struct("Metrics")
            .field("names", &self.names.len())
            .field("counters", &keys(&self.counters))
            .field("gauges", &keys(&self.gauges))
            .field("hists", &keys(&self.hists))
            .field("spans", &keys(&self.spans))
            .finish()
    }
}

impl Metrics {
    pub(crate) fn add(&mut self, name: &'static str, scope: &str, delta: u64) {
        let slot = self.names.slot(name);
        update(&mut self.counters, slot, scope, |v| {
            *v = v.saturating_add(delta)
        });
    }

    pub(crate) fn set_gauge(&mut self, name: &'static str, scope: &str, v: u64) {
        let slot = self.names.slot(name);
        update(&mut self.gauges, slot, scope, |g| *g = v);
    }

    pub(crate) fn observe_us(&mut self, name: &'static str, scope: &str, us: u64) {
        let slot = self.names.slot(name);
        update(&mut self.hists, slot, scope, |h| h.observe(us));
    }

    /// Records a closed span's duration in the `span.{name}` histogram.
    pub(crate) fn observe_span(&mut self, name: &'static str, scope: &str, us: u64) {
        let slot = self.names.slot(name);
        update(&mut self.spans, slot, scope, |h| h.observe(us));
    }

    /// Every value as `name{scope}` keys. Kinds render in a fixed order
    /// (counters, gauges, histograms, spans): where a counter and a
    /// gauge share a name and scope, the gauge's value is the one kept.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for table in [&self.counters, &self.gauges] {
            for (name, scopes) in self.named(table) {
                for (scope, v) in scopes {
                    out.insert(format!("{name}{{{scope}}}"), *v);
                }
            }
        }
        for (prefix, table) in [("", &self.hists), ("span.", &self.spans)] {
            for (name, scopes) in self.named(table) {
                for (scope, h) in scopes {
                    out.insert(format!("{prefix}{name}{{{scope}}}.count"), h.count);
                    out.insert(format!("{prefix}{name}{{{scope}}}.sum_us"), h.sum_us);
                    out.insert(format!("{prefix}{name}{{{scope}}}.max_us"), h.max_us);
                }
            }
        }
        out
    }

    /// The scope maps of `table` with their names.
    fn named<'a, T>(
        &'a self,
        table: &'a Table<T>,
    ) -> impl Iterator<Item = (&'static str, &'a Scopes<T>)> {
        self.names
            .iter()
            .filter_map(|(name, slot)| Some((name, table.get(slot)?)))
    }

    /// Drops every value; name slots stay.
    pub(crate) fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
        self.spans.clear();
    }
}

/// Renders a snapshot as a two-column aligned text table (the same
/// visual idiom as bench's `TextTable`, kept local so this crate stays
/// dependency-free).
pub fn render_metrics_table(snap: &MetricsSnapshot) -> String {
    let mut width = "metric".len();
    for k in snap.keys() {
        width = width.max(k.len());
    }
    let mut out = String::new();
    out.push_str(&format!("{:<width$}  value\n", "metric"));
    out.push_str(&format!("{}  -----\n", "-".repeat(width)));
    for (k, v) in snap {
        out.push_str(&format!("{k:<width$}  {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sorted_and_flat() {
        let mut m = Metrics::default();
        m.add("net.bytes", "kdc", 100);
        m.add("net.bytes", "kdc", 20);
        m.add("ap.accepted", "pat", 1);
        m.set_gauge("hosts.up", "net", 4);
        m.observe_us("span.as-exchange", "pat", 2000);
        m.observe_us("span.as-exchange", "pat", 1000);
        let s = m.snapshot();
        let keys: Vec<_> = s.keys().cloned().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(s["net.bytes{kdc}"], 120);
        assert_eq!(s["ap.accepted{pat}"], 1);
        assert_eq!(s["hosts.up{net}"], 4);
        assert_eq!(s["span.as-exchange{pat}.count"], 2);
        assert_eq!(s["span.as-exchange{pat}.sum_us"], 3000);
        assert_eq!(s["span.as-exchange{pat}.max_us"], 2000);
    }

    #[test]
    fn table_renders_aligned() {
        let mut m = Metrics::default();
        m.add("a", "x", 1);
        m.add("long.metric.name", "scope", 2);
        let t = render_metrics_table(&m.snapshot());
        assert!(t.contains("metric"));
        assert!(t.contains("a{x}"));
        assert!(t.contains("long.metric.name{scope}  2"));
    }
}
