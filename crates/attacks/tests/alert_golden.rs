//! Golden alert stream for the defender's loop: the default krb-ids
//! rule set attached online to the pinned E1 cell (A1 stolen-
//! authenticator replay against V4), with the resulting `ids.alert`
//! events exported as JSONL.
//!
//! - The alert stream must match the checked-in golden byte for byte.
//!   Re-bless after an intentional rule/engine change with
//!   `KRB_TRACE_BLESS=1 cargo test -p attacks --test alert_golden`.
//! - Same-seed runs must produce byte-identical alert streams even
//!   under an environment fault plan: detection is a pure function of
//!   the (deterministic) wire, never of polling cadence or wall time.
//! - The whole E1 matrix (all 14 attacks × 3 presets at the same seed)
//!   is pinned the same way in `alerts_matrix.jsonl`, so every
//!   detector's alert count, subject, detail and evidence seq is locked
//!   down — not just the replay detector A1 exercises.

use attacks::env::{with_env_hook, with_fault_profile, with_trace_capture, FaultProfile};
use attacks::{all_attacks, replay};
use kerberos::ProtocolConfig;
use krb_ids::{default_engine, Engine};
use krb_trace::{to_jsonl, Event, EventKind, Tracer, Value};
use simnet::LinkFaults;
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

/// Seed of the pinned cell — the same seed the E1 matrix golden uses.
const SEED: u64 = 0xE1;

/// Runs A1/V4 with a default engine riding the trace, polls it, and
/// returns only the alert events it emitted back into the trace.
fn a1_alert_stream(profile: Option<FaultProfile>) -> Vec<Event> {
    let run = || {
        let engines: Rc<RefCell<Vec<Engine>>> = Rc::new(RefCell::new(Vec::new()));
        let hook: Rc<dyn Fn(&Tracer)> = {
            let engines = Rc::clone(&engines);
            Rc::new(move |t: &Tracer| {
                let mut eng = default_engine().expect("default rules compile");
                eng.attach(t);
                engines.borrow_mut().push(eng);
            })
        };
        let (_report, tracer) = with_trace_capture(|| {
            with_env_hook(hook, || replay::run(&ProtocolConfig::v4(), SEED))
        });
        for eng in engines.borrow_mut().iter_mut() {
            eng.poll();
        }
        tracer.expect("attack built an environment")
    };
    let tracer = match profile {
        Some(p) => with_fault_profile(p, run),
        None => run(),
    };
    tracer.events().into_iter().filter(|e| e.kind == EventKind::IdsAlert).collect()
}

/// Runs every attack on every preset with a default engine on each
/// environment, and returns each alert event tagged with its cell:
/// `attack`, `config` and `env` (the environment's index within the
/// cell) lead the alert's own fields.
fn matrix_alert_stream() -> Vec<Event> {
    let engines: Rc<RefCell<Vec<(Engine, Tracer)>>> = Rc::new(RefCell::new(Vec::new()));
    let hook: Rc<dyn Fn(&Tracer)> = {
        let engines = Rc::clone(&engines);
        Rc::new(move |t: &Tracer| {
            let mut eng = default_engine().expect("default rules compile");
            eng.attach(t);
            engines.borrow_mut().push((eng, t.clone()));
        })
    };
    let mut out = Vec::new();
    with_env_hook(hook, || {
        for config in ProtocolConfig::presets() {
            for attack in all_attacks() {
                let first = engines.borrow().len();
                attack.run(&config, SEED);
                for (env, (eng, tracer)) in engines.borrow_mut()[first..].iter_mut().enumerate() {
                    eng.poll();
                    for mut ev in tracer.events() {
                        if ev.kind != EventKind::IdsAlert {
                            continue;
                        }
                        let mut fields = vec![
                            ("attack", Value::str(attack.id)),
                            ("config", Value::str(config.name)),
                            ("env", Value::U64(env as u64)),
                        ];
                        fields.append(&mut ev.fields);
                        ev.fields = fields;
                        out.push(ev);
                    }
                }
            }
        }
    });
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares `jsonl` with the named golden, or rewrites the golden when
/// `KRB_TRACE_BLESS` is set.
fn check_golden(name: &str, jsonl: &str) {
    let path = golden_path(name);
    if std::env::var("KRB_TRACE_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, jsonl).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("alert golden missing; bless with KRB_TRACE_BLESS=1");
    assert_eq!(
        jsonl, golden,
        "{name} diverged from golden; re-bless with KRB_TRACE_BLESS=1 if intentional"
    );
}

#[test]
fn a1_v4_alert_stream_matches_golden() {
    check_golden("alerts_a1_v4.jsonl", &to_jsonl(&a1_alert_stream(None)));
}

#[test]
fn matrix_alert_stream_matches_golden() {
    let alerts = matrix_alert_stream();
    // The storm and crash-reuse detectors are the stealth variants'
    // business (E20); the baseline matrix trips these three.
    for detector in ["replay", "clock-spoof", "cut-paste"] {
        assert!(
            alerts.iter().any(|a| a.str_field("detector") == Some(detector)),
            "the matrix must exercise the {detector} detector"
        );
    }
    check_golden("alerts_matrix.jsonl", &to_jsonl(&alerts));
}

#[test]
fn alert_stream_is_nonempty_and_replay_typed() {
    let alerts = a1_alert_stream(None);
    assert!(!alerts.is_empty(), "A1 on V4 must raise at least one alert");
    for a in &alerts {
        assert_eq!(a.str_field("detector"), Some("replay"), "{a:?}");
        assert!(a.u64_field("evidence").is_some(), "alerts carry their evidence seq");
    }
}

#[test]
fn same_seed_alert_streams_are_byte_identical() {
    let a = to_jsonl(&a1_alert_stream(None));
    let b = to_jsonl(&a1_alert_stream(None));
    assert_eq!(a, b, "zero-fault same-seed alert streams must be byte-identical");
}

#[test]
fn same_seed_alert_streams_are_byte_identical_under_faults() {
    let profile = FaultProfile { seed: 0x7AB, faults: LinkFaults::lossy(0.05) };
    let a = to_jsonl(&a1_alert_stream(Some(profile)));
    let b = to_jsonl(&a1_alert_stream(Some(profile)));
    assert_eq!(a, b, "faulted same-seed alert streams must be byte-identical");
}
