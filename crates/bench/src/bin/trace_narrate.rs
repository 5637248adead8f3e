//! Narrated attack traces: run one paper attack under trace capture and
//! print the event log in the paper's step notation (`c -> kdc: AS-REQ`,
//! adversary moves interleaved as `**`/`·` annotations).
//!
//! Run: `cargo run --release -p bench --bin trace_narrate -- --narrate <attack> [config]`
//!   <attack>  an id (`A1`) or a name substring (`replay`)
//!   [config]  preset name (`v4`, `v5-draft3`, `hardened`; default `v4`)
//!   --alerts  attach the default krb-ids rule set to the run and
//!             interleave its `ids.alert` findings (timestamped at
//!             their evidence) with the protocol steps
//!
//! The same rendering backs the golden-trace tests; this bin is the
//! interactive view (`scripts/trace.sh --narrate replay`).

use attacks::env::{with_env_hook, with_trace_capture};
use attacks::overload::{run_overload, OverloadConfig, Scenario};
use attacks::{all_attacks, Attack};
use kerberos::{PaperLens, ProtocolConfig};
use krb_ids::{default_engine, Engine};
use krb_trace::{narrate, Event, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

/// Seed matching the pinned E1 golden cell, so `--narrate replay` shows
/// exactly the trace the golden test locks down.
const SEED: u64 = 0xE1;

fn find_attack(pat: &str) -> Option<&'static Attack> {
    let lower = pat.to_lowercase();
    all_attacks()
        .iter()
        .find(|a| a.id.eq_ignore_ascii_case(pat) || a.name.to_lowercase().contains(&lower))
}

fn find_config(name: &str) -> Option<ProtocolConfig> {
    ProtocolConfig::presets().into_iter().find(|c| c.name.eq_ignore_ascii_case(name))
}

fn find_scenario(pat: &str) -> Option<Scenario> {
    let lower = pat.to_lowercase();
    if lower == "gateway" {
        return Some(Scenario::PreauthStorm);
    }
    // Substring matching only for unambiguous patterns; short fragments
    // fall through to the attack lookup.
    if lower.len() < 4 {
        return None;
    }
    Scenario::all().into_iter().find(|s| s.label().contains(&lower))
}

/// Runs `f` under trace capture; with `alerts` on, a default krb-ids
/// engine rides along on every environment the run builds, so its
/// findings land in the captured trace before narration.
fn run_traced<R>(alerts: bool, f: impl FnOnce() -> R) -> (R, Option<Tracer>) {
    if !alerts {
        return with_trace_capture(f);
    }
    let engines: Rc<RefCell<Vec<Engine>>> = Rc::new(RefCell::new(Vec::new()));
    let hook: Rc<dyn Fn(&Tracer)> = {
        let engines = Rc::clone(&engines);
        Rc::new(move |t: &Tracer| {
            let mut eng = default_engine().expect("default rules compile");
            eng.attach(t);
            engines.borrow_mut().push(eng);
        })
    };
    let (out, tracer) = with_trace_capture(|| with_env_hook(hook, f));
    for eng in engines.borrow_mut().iter_mut() {
        eng.poll();
    }
    (out, tracer)
}

/// The engine polls after the run, so its alert events sit at the tail
/// of the log with evidence-time stamps — a stable sort by sim time
/// interleaves them where their evidence crossed the wire.
fn by_sim_time(tracer: &Tracer) -> Vec<Event> {
    let mut events = tracer.events();
    events.sort_by_key(|e| e.at_us);
    events
}

/// Runs one gateway overload scenario under trace capture and narrates
/// the shed/throttle/penalty decisions alongside the protocol flow.
fn narrate_overload(scenario: Scenario, alerts: bool) {
    let config = ProtocolConfig::hardened();
    let o = OverloadConfig::standard(SEED);
    let (report, tracer) = run_traced(alerts, || run_overload(&config, &o, scenario));
    let Some(tracer) = tracer else {
        eprintln!("overload scenario built no traced environment (nothing to narrate)");
        std::process::exit(1);
    };
    println!(
        "== E17 — gateway overload: {} [hardened] — {}/{} legit ok, {}/{} abuse admitted ==\n",
        report.scenario, report.legit_ok, report.legit_total, report.abuse_admitted, report.abuse_sent
    );
    let events = if alerts { by_sim_time(&tracer) } else { tracer.events() };
    print!("{}", narrate(&events, &PaperLens));
    println!(
        "\noutcome: shed {} / throttled {} / penalized {} / admitted {} / restarts {}",
        report.shed, report.throttled, report.penalized, report.admitted, report.restarts
    );
}

fn usage() -> ! {
    eprintln!("usage: trace_narrate --narrate <attack-id-or-name-substring> [config] [--alerts]");
    eprintln!("  --alerts: run the default krb-ids rules online and interleave their findings");
    eprintln!("  attacks: {}", all_attacks().iter().map(|a| a.id).collect::<Vec<_>>().join(" "));
    eprintln!("  gateway scenarios: gateway flash-crowd preauth-storm misbehaving-herd crash-restart");
    eprintln!(
        "  configs: {}",
        ProtocolConfig::presets().iter().map(|c| c.name).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let mut pattern: Option<&str> = None;
    let mut config_name = "v4";
    let mut alerts = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--narrate" => match it.next() {
                Some(p) => pattern = Some(p),
                None => usage(),
            },
            "--alerts" => alerts = true,
            "--help" | "-h" => usage(),
            other if pattern.is_some() => config_name = other,
            other => pattern = Some(other),
        }
    }
    let Some(pattern) = pattern else { usage() };
    // Gateway overload scenarios narrate through the same lens: shed
    // and throttle events interleave with the protocol steps.
    if let Some(scenario) = find_scenario(pattern) {
        narrate_overload(scenario, alerts);
        return;
    }
    let Some(attack) = find_attack(pattern) else {
        eprintln!("no attack matches {pattern:?}");
        usage();
    };
    let Some(config) = find_config(config_name) else {
        eprintln!("no config preset named {config_name:?}");
        usage();
    };

    let (report, tracer) = run_traced(alerts, || attack.run(&config, SEED));
    let Some(tracer) = tracer else {
        eprintln!(
            "{} did not build a traced environment under config {} (nothing to narrate)",
            attack.id,
            config.name
        );
        std::process::exit(1);
    };

    println!(
        "== {} — {} [{}] — {} ==\n",
        report.id,
        report.name,
        report.config,
        if report.succeeded { "BREACH" } else { "defended" }
    );
    let events = if alerts { by_sim_time(&tracer) } else { tracer.events() };
    print!("{}", narrate(&events, &PaperLens));
    println!("\noutcome: {}", report.evidence);

    let snap = tracer.snapshot();
    if !snap.is_empty() {
        println!("\nmetrics:");
        for (k, v) in &snap {
            println!("  {k} = {v}");
        }
    }
}
