//! E16 — fuzzing coverage over the three codecs: the reject-class
//! histogram (how many distinct ways each decoder says "no"), round-trip
//! rate among surviving decodes, and the determinism check the whole
//! harness rests on.
//!
//! Run: `cargo run --release -p bench --bin table_fuzz_coverage`
//! Writes `BENCH_fuzz.json` in the current directory.

use bench::{BenchJson, TextTable};
use kerberos::encoding::Codec;
use krb_fuzz::corpus::{codec_label, generate_all_seeds, generate_seeds};
use krb_fuzz::harness::{run, FuzzConfig};
use std::collections::BTreeMap;

const SEED: u64 = 0xE16;
const ITERATIONS: u64 = 20_000;

fn main() {
    println!("E16: codec fuzzing — reject classes, round-trip rate ({ITERATIONS} inputs)");
    let mut json = BenchJson::new("E16");
    json.int("iterations", ITERATIONS);
    let cfg = FuzzConfig { seed: SEED, iterations: ITERATIONS };

    // Per-codec runs: each codec's seeds fuzzed in isolation, so the
    // histogram attributes rejects to the envelope that produced them.
    let mut table =
        TextTable::new(&["codec", "seeds", "decoded", "rejected", "reject classes", "roundtrip %"]);
    for codec in [Codec::Legacy, Codec::Typed, Codec::Wire] {
        let seeds = generate_seeds(codec);
        let report = run(&seeds, &cfg);
        let label = codec_label(codec);
        let rt_pct = if report.decoded > 0 {
            100.0 * report.roundtrips as f64 / report.decoded as f64
        } else {
            0.0
        };
        assert_eq!(report.panics, 0, "decoder panicked under fuzzing on {label}");
        json.int(&format!("decoded.{label}"), report.decoded);
        json.int(&format!("rejected.{label}"), report.rejected);
        json.int(&format!("reject_classes.{label}"), report.classes.len() as u64);
        json.num(&format!("roundtrip_pct.{label}"), rt_pct, 1);
        table.row(&[
            label.to_string(),
            seeds.len().to_string(),
            report.decoded.to_string(),
            report.rejected.to_string(),
            report.classes.len().to_string(),
            format!("{rt_pct:.1}"),
        ]);
    }
    table.print("per-codec fuzzing, same PRNG seed (zero panics everywhere)");

    // The combined run over all seeds: the histogram the regression
    // fixtures draw from, exported as metrics.
    let seeds = generate_all_seeds();
    let report = run(&seeds, &cfg);
    assert_eq!(report.panics, 0, "decoder panicked under combined fuzzing");
    let rerun = run(&seeds, &cfg);
    let deterministic = report.render(SEED) == rerun.render(SEED);
    assert!(deterministic, "same-seed fuzz runs must be byte-identical");
    json.flag("deterministic", deterministic);
    json.int("combined.decoded", report.decoded);
    json.int("combined.rejected", report.rejected);
    json.int("combined.roundtrips", report.roundtrips);

    let mut table = TextTable::new(&["reject class", "count"]);
    let mut metrics: BTreeMap<String, u64> = BTreeMap::new();
    for (class, n) in &report.classes {
        metrics.insert(format!("class.{class}"), *n);
    }
    for (name, n) in &report.per_strategy {
        metrics.insert(format!("strategy.{name}"), *n);
    }
    // The table shows the top of the histogram; the JSON carries it all.
    let mut by_count: Vec<(&String, &u64)> = report.classes.iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (class, n) in by_count.iter().take(12) {
        table.row(&[(*class).clone(), n.to_string()]);
    }
    table.print(&format!(
        "top reject classes of {} total (full histogram in BENCH_fuzz.json)",
        report.classes.len()
    ));
    json.metrics(&metrics);

    println!(
        "\ncombined: {} decoded / {} rejected across {} reject classes; \
         {} of the decodes round-trip byte-for-byte; 0 panics",
        report.decoded,
        report.rejected,
        report.classes.len(),
        report.roundtrips
    );
    json.write("fuzz");
}
