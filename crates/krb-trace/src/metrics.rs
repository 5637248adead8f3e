//! Deterministic metrics registry: counters, gauges, and sim-time
//! histograms keyed by name, then scope.
//!
//! Scope is free-form — a host name, a principal, a protocol variant —
//! so one registry covers "auths issued per principal" and "bytes on
//! wire per host" alike. Names are the `&'static str` literals of the
//! emission sites, so a bump on an existing key only compares strings;
//! a scope's `String` is copied once, on its first use under a name.
//! Everything lives in `BTreeMap`s; a snapshot flattens to
//! `name{scope}` keys in lexicographic order, so snapshots of identical
//! runs compare byte-equal.

use std::collections::BTreeMap;

/// Flattened metrics view: `name{scope}` (histograms expand to
/// `.count` / `.sum_us` / `.max_us` sub-keys) mapped to integer values.
pub type MetricsSnapshot = BTreeMap<String, u64>;

/// Sim-time histogram moments; enough for mean/max tables without
/// storing samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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

/// One metric kind's values, by name and then scope.
type Table<K, T> = BTreeMap<K, BTreeMap<String, T>>;

/// Applies `f` to the value at `name{scope}`, which starts at
/// `T::default()`; allocates only for a scope new under `name`.
fn update<K: Ord, T: Default>(table: &mut Table<K, T>, name: K, scope: &str, f: impl FnOnce(&mut T)) {
    let scopes = table.entry(name).or_default();
    match scopes.get_mut(scope) {
        Some(v) => f(v),
        None => {
            let mut v = T::default();
            f(&mut v);
            scopes.insert(scope.to_owned(), v);
        }
    }
}

/// The registry. Owned by a tracer core; all mutation goes through the
/// `Tracer` handle.
#[derive(Clone, Debug, Default)]
pub(crate) struct Metrics {
    counters: Table<&'static str, u64>,
    gauges: Table<&'static str, u64>,
    /// Keyed by `(prefix, name)`: a span's duration histogram is
    /// `("span.", span name)`, so closing a span formats nothing, and
    /// every other histogram is `("", name)`. `span.` names are
    /// `end_span`'s alone.
    hists: Table<(&'static str, &'static str), Hist>,
}

impl Metrics {
    pub(crate) fn add(&mut self, name: &'static str, scope: &str, delta: u64) {
        update(&mut self.counters, name, scope, |v| *v = v.saturating_add(delta));
    }

    pub(crate) fn set_gauge(&mut self, name: &'static str, scope: &str, v: u64) {
        update(&mut self.gauges, name, scope, |g| *g = v);
    }

    pub(crate) fn observe_us(&mut self, name: &'static str, scope: &str, us: u64) {
        update(&mut self.hists, ("", name), scope, |h| h.observe(us));
    }

    /// Records a closed span's duration in the `span.{name}` histogram.
    pub(crate) fn observe_span(&mut self, name: &'static str, scope: &str, us: u64) {
        update(&mut self.hists, ("span.", name), scope, |h| h.observe(us));
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for (name, scopes) in self.counters.iter().chain(self.gauges.iter()) {
            for (scope, v) in scopes {
                out.insert(format!("{name}{{{scope}}}"), *v);
            }
        }
        for ((prefix, name), scopes) in &self.hists {
            for (scope, h) in scopes {
                out.insert(format!("{prefix}{name}{{{scope}}}.count"), h.count);
                out.insert(format!("{prefix}{name}{{{scope}}}.sum_us"), h.sum_us);
                out.insert(format!("{prefix}{name}{{{scope}}}.max_us"), h.max_us);
            }
        }
        out
    }

    pub(crate) fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
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
