//! E15 — the observability layer itself: event volume per protocol
//! configuration, determinism of the exported trace, and the bounded
//! ring buffer under pressure.
//!
//! The subsystem under test is `krb-trace`; the workload is attack A1
//! (stolen live-authenticator replay) on each preset, the same scenario
//! the golden-trace tests pin.
//!
//! Run: `cargo run --release -p bench --bin table_trace_events`
//! Writes `BENCH_trace_events.json` in the current directory.

use attacks::env::with_trace_capture;
use attacks::replay;
use bench::{BenchJson, TextTable};
use kerberos::ProtocolConfig;
use krb_trace::{to_jsonl, EventKind, Tracer};
use std::collections::BTreeMap;

const SEED: u64 = 0xE15;

fn a1_trace(config: &ProtocolConfig) -> Tracer {
    let (_report, tracer) = with_trace_capture(|| replay::run(config, SEED));
    tracer.expect("A1 builds an environment under every preset")
}

fn main() {
    println!("E15: trace event volume, determinism, and ring-buffer bounds (A1 workload)");
    let mut json = BenchJson::new("E15");

    // Part 1: what one attack run emits, per configuration.
    let mut table = TextTable::new(&[
        "config",
        "events",
        "wire hops",
        "spans",
        "metric keys",
        "ring bytes",
        "deterministic",
    ]);
    for config in ProtocolConfig::presets() {
        let tracer = a1_trace(&config);
        let events = tracer.events();
        let hops = events.iter().filter(|e| e.kind == EventKind::WireHop).count();
        let spans = events.iter().filter(|e| e.kind == EventKind::SpanBegin).count();
        let metric_keys = tracer.snapshot().len();
        // Byte-identity against a second same-seed run: the property the
        // golden tests enforce for the pinned cell, checked here on
        // every preset.
        let deterministic = to_jsonl(&events) == to_jsonl(&a1_trace(&config).events());
        json.int(&format!("events.{}", config.name), events.len() as u64);
        json.int(&format!("wire_hops.{}", config.name), hops as u64);
        json.int(&format!("spans.{}", config.name), spans as u64);
        json.int(&format!("ring_bytes.{}", config.name), tracer.ring_bytes() as u64);
        json.flag(&format!("deterministic.{}", config.name), deterministic);
        table.row(&[
            config.name.into(),
            events.len().to_string(),
            hops.to_string(),
            spans.to_string(),
            metric_keys.to_string(),
            tracer.ring_bytes().to_string(),
            deterministic.to_string(),
        ]);
        assert!(deterministic, "same-seed A1 traces must be byte-identical on {}", config.name);
    }
    table.print("one A1 run per preset (every trace byte-identical across same-seed reruns)");

    // Part 2: event mix on the vulnerable baseline — which layers talk.
    let tracer = a1_trace(&ProtocolConfig::v4());
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in tracer.events() {
        *by_kind.entry(e.kind.label()).or_insert(0) += 1;
    }
    let mut table = TextTable::new(&["event kind", "count"]);
    for (k, n) in &by_kind {
        json.int(&format!("kind.{k}"), *n);
        table.row(&[(*k).to_string(), n.to_string()]);
    }
    table.print("event mix, A1 on v4");

    // Part 3: the ring buffer stays bounded — shrinking the capacity
    // evicts oldest-first (counted, never silent) while the metrics
    // registry, which is not ring-backed, keeps exact totals.
    let tracer = a1_trace(&ProtocolConfig::v4());
    let full = tracer.events().len() as u64;
    let small = a1_trace(&ProtocolConfig::v4());
    small.set_capacity(8);
    let evicted_after = small.evicted();
    let retained = small.events().len() as u64;
    json.int("ring.full_events", full);
    json.int("ring.capped_retained", retained);
    json.int("ring.capped_evicted", evicted_after);
    println!(
        "\nring buffer: {full} events uncapped; capacity 8 retains {retained} and counts \
         {evicted_after} evicted — memory is bounded, metrics stay exact ({} keys intact)",
        small.snapshot().len()
    );
    assert!(retained <= 8, "capacity must bound retained events");
    assert!(evicted_after > 0, "eviction must be visible, not silent");

    json.write("trace_events");
}
