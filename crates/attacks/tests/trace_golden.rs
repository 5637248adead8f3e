//! Golden JSONL trace and byte-identity determinism for the tracing
//! subsystem, pinned to the E1 matrix cell the paper opens with:
//! A1 (stolen live-authenticator replay) against the V4 configuration.
//!
//! - The exported JSONL must match the checked-in golden byte for byte.
//!   Re-bless after an intentional trace change with
//!   `KRB_TRACE_BLESS=1 cargo test -p attacks --test trace_golden`.
//! - Two same-seed runs must produce byte-identical traces, with and
//!   without an environment fault plan — the determinism contract
//!   everything else (goldens, bisection, soak triage) rests on.

use attacks::env::{with_fault_profile, with_trace_capture, FaultProfile};
use attacks::replay;
use kerberos::{PaperLens, ProtocolConfig};
use krb_trace::{narrate, to_jsonl, Tracer};
use simnet::LinkFaults;
use std::path::PathBuf;

/// Seed of the pinned cell — the same seed the E1 matrix golden uses.
const SEED: u64 = 0xE1;

fn a1_tracer(profile: Option<FaultProfile>) -> Tracer {
    let run = || {
        let (_outcome, tracer) = with_trace_capture(|| replay::run(&ProtocolConfig::v4(), SEED));
        tracer.expect("attack built an environment")
    };
    match profile {
        Some(p) => with_fault_profile(p, run),
        None => run(),
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_a1_v4.jsonl")
}

#[test]
fn a1_v4_trace_matches_golden() {
    let jsonl = to_jsonl(&a1_tracer(None).events());
    let path = golden_path();
    if std::env::var("KRB_TRACE_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &jsonl).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden trace missing; bless with KRB_TRACE_BLESS=1");
    assert_eq!(
        jsonl, golden,
        "A1/V4 trace diverged from golden; re-bless with KRB_TRACE_BLESS=1 if intentional"
    );
}

/// The pinned trace's size in the tracer ring's encoding, exactly: a
/// record-format change that grows events fails here. E15 reports the
/// same measure per preset as `ring_bytes.*`.
#[test]
fn a1_v4_ring_bytes_are_pinned() {
    let tracer = a1_tracer(None);
    assert_eq!(tracer.events().len(), 22);
    assert_eq!(tracer.ring_bytes(), 2824);
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = to_jsonl(&a1_tracer(None).events());
    let b = to_jsonl(&a1_tracer(None).events());
    assert_eq!(a, b, "zero-fault same-seed traces must be byte-identical");
    assert!(!a.is_empty());
}

#[test]
fn same_seed_runs_are_byte_identical_under_faults() {
    let profile = FaultProfile { seed: 0x7AB, faults: LinkFaults::lossy(0.05) };
    let a = to_jsonl(&a1_tracer(Some(profile)).events());
    let b = to_jsonl(&a1_tracer(Some(profile)).events());
    assert_eq!(a, b, "faulted same-seed traces must be byte-identical");
    // The fault plan actually perturbed the wire (otherwise this test
    // proves nothing beyond the zero-fault one).
    let clean = to_jsonl(&a1_tracer(None).events());
    assert_ne!(a, clean, "fault profile should alter the trace");
}

#[test]
fn narrated_trace_reads_as_paper_steps() {
    let tracer = a1_tracer(None);
    let text = narrate(&tracer.events(), &PaperLens);
    // Protocol flow in actor shorthand…
    assert!(text.contains("c -> kdc: AS-REQ"), "AS leg missing:\n{text}");
    assert!(text.contains("c -> s: AP-REQ"), "AP leg missing:\n{text}");
    // …client-side spans…
    assert!(text.contains(">> as-exchange"));
    assert!(text.contains("<< ap-exchange"));
    // …server-side protocol events…
    assert!(text.contains("kdc.ticket_issued"));
    assert!(text.contains("ap.accepted"));
    // …and the adversary's moves, interleaved.
    assert!(text.contains("** adversary injects"));
    assert!(text.contains("· adversary replays the captured ticket+authenticator"));
}

#[test]
fn metrics_snapshot_counts_the_attack() {
    let tracer = a1_tracer(None);
    let snap = tracer.snapshot();
    // The victim got tickets; the KDC issued them; the replayed
    // authenticator registered as a second acceptance (V4 has no replay
    // cache — that is attack A1's point).
    assert_eq!(snap.get("client.tickets{pat}"), Some(&2));
    assert_eq!(snap.get("kdc.issued{pat}"), Some(&2));
    assert_eq!(snap.get("ap.accepted{pat}"), Some(&2));
    // Span histograms recorded sim-time durations.
    assert_eq!(snap.get("span.as-exchange{pat}.count"), Some(&1));
}
