//! Experiment E1: the full attack × configuration matrix must reproduce
//! the paper's claims exactly.

use attacks::all_attacks;
use attacks::matrix::{expected, run_matrix};
use kerberos::ProtocolConfig;

#[test]
fn matrix_matches_the_paper() {
    let reports = run_matrix(0xE1);
    assert_eq!(reports.len(), 42, "14 attacks x 3 configurations");
    let mut mismatches = Vec::new();
    for r in &reports {
        let want = expected(r.id, r.config).expect("expectation defined");
        if r.succeeded != want {
            mismatches.push(format!(
                "{}/{}: expected {}, got {} ({})",
                r.id,
                r.config,
                if want { "BREACH" } else { "safe" },
                if r.succeeded { "BREACH" } else { "safe" },
                r.evidence
            ));
        }
    }
    assert!(mismatches.is_empty(), "matrix deviations:\n{}", mismatches.join("\n"));
}

#[test]
fn matrix_is_deterministic() {
    let a = run_matrix(7);
    let b = run_matrix(7);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.succeeded, y.succeeded, "{}/{}", x.id, x.config);
    }
}

#[test]
fn matrix_stable_across_seeds() {
    // The outcomes are properties of the protocol, not of luck.
    for seed in [1u64, 42, 9999] {
        for r in run_matrix(seed) {
            let want = expected(r.id, r.config).unwrap();
            assert_eq!(r.succeeded, want, "seed {seed}: {}/{} ({})", r.id, r.config, r.evidence);
        }
    }
}

#[test]
fn verdicts_hold_over_the_wire_codec() {
    // The tagged wire envelope changes parsing, not the protocol: every
    // catalogue row keeps its preset's verdict under the preset's
    // `with_wire_codec()` twin. The one exception is A11 on V4, a
    // parsing flaw: the tagged envelope rejects the ticket/authenticator
    // cross-reading, as the paper's typed-encoding recommendation says.
    let mut deviations = Vec::new();
    for preset in ProtocolConfig::presets() {
        let wire = preset.clone().with_wire_codec();
        for attack in all_attacks() {
            let paper = attack.expected(preset.name).expect("preset verdict");
            let want = paper && !(attack.id == "A11" && preset.name == "v4");
            let r = attack.run(&wire, 0xE1);
            if r.succeeded != want {
                deviations.push(format!(
                    "{}/{}: expected {want}, got {} ({})",
                    r.id, r.config, r.succeeded, r.evidence
                ));
            }
        }
    }
    assert!(deviations.is_empty(), "wire-codec deviations:\n{}", deviations.join("\n"));
}
