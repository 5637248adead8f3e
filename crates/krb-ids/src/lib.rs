//! krb-ids: trace-driven online intrusion detection for the simulated
//! Kerberos deployment — the defender's side of the attack matrix.
//!
//! The paper's catalog (replay, clock spoofing, cut-and-paste,
//! password-guessing storms, replay-cache wipe on crash) is executable
//! as E1 attack scripts and observable as byte-stable krb-trace event
//! streams. This crate closes the loop: a Suricata-style rule grammar
//! ([`rules`]) is compiled ([`compile`]) into stateful detectors run by
//! an [`Engine`] attached as a subscriber tap on the run's [`Tracer`] —
//! events are observed pre-eviction, online in sim time, and every
//! finding goes back into the same trace as an `ids.alert` event plus
//! `ids.*` metrics.
//!
//! Determinism contract: detector state is keyed by event content and
//! sim-time only; polling cadence is irrelevant; two same-seed runs
//! produce byte-identical alert streams (the A1 alert golden locks
//! this down). Totality contract: parser and compiler return typed
//! errors on any input, never panic (proptests drive arbitrary bytes
//! through both).
//!
//! The detectors are honest wire observers. They never read simulator
//! metadata (fault tags, injection origins), so an
//! environment-duplicated datagram alerts exactly like an attacker's
//! replay — on a real network the defender cannot tell either. The
//! classifier scoring in the E20 bench therefore gates false positives
//! on the *zero-fault* workload and reports the chaos/overload alert
//! rates as what they are: the cost of faults that look like attacks.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod compile;
pub mod engine;
pub mod rules;

pub use compile::{compile, CompileError, DetectorBody, DetectorSpec, Per};
pub use engine::{Alert, Engine};
pub use rules::{Match, MsgKind, ParseError, Rule, RuleSet};

use std::fmt;

/// The production rule set: one rule per detector the paper motivates.
///
/// Ports: 88 is both the KDC and its gateway front door (the testbed
/// binds the gateway on the KDC port), 37 the UDP time service. The
/// `krb_ports` option tells the cut-and-paste detector which
/// destinations legitimately repeat cleartext request structure
/// (service principals, realm names) so AS/TGS traffic is not
/// splice-sensitive source material.
pub const DEFAULT_RULES: &str = r#"
# E20 default detection rules, in the Suricata krb5-keyword shape.
alert krb any any -> any any (msg:"sealed message replayed on its own stream"; detector:replay; kinds:ap-req,challenge-resp,safe,priv,app-data; window:900s; sid:2001; rev:1;)
alert krb any 37 -> any any (msg:"time reply strays from wire time"; detector:clock-spoof; tolerance:120s; sid:2002; rev:1;)
alert krb any any -> any any (msg:"ciphertext windows resurface in the wrong message"; detector:cut-paste; krb_ports:88; sid:2003; rev:1;)
alert krb any any -> any 88 (msg:"AS-REQ storm from one endpoint"; detector:preauth-storm; per:src; threshold:10; window:30s; sid:2004; rev:1;)
alert krb any any -> any any (msg:"preauth failure storm at one principal"; detector:preauth-storm; per:principal; threshold:8; window:60s; sid:2005; rev:1;)
alert krb any any -> any any (msg:"pre-crash authenticator replayed after verifier restart"; detector:crash-reuse; window:900s; sid:2006; rev:1;)
"#;

/// The five detector labels, in rule order (matrix column order).
pub const DETECTOR_LABELS: [&str; 5] =
    ["replay", "clock-spoof", "cut-paste", "preauth-storm", "crash-reuse"];

/// Anything that can go wrong building an engine from rule text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IdsError {
    Parse(ParseError),
    Compile(CompileError),
}

impl fmt::Display for IdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdsError::Parse(e) => write!(f, "rule parse error: {e}"),
            IdsError::Compile(e) => write!(f, "rule compile error: {e}"),
        }
    }
}

impl std::error::Error for IdsError {}

impl From<ParseError> for IdsError {
    fn from(e: ParseError) -> Self {
        IdsError::Parse(e)
    }
}

impl From<CompileError> for IdsError {
    fn from(e: CompileError) -> Self {
        IdsError::Compile(e)
    }
}

/// Parses and compiles `text` into a fresh engine.
pub fn engine_from_rules(text: &str) -> Result<Engine, IdsError> {
    let rules = RuleSet::parse(text)?;
    let specs = compile(&rules)?;
    Ok(Engine::new(specs))
}

/// An engine over [`DEFAULT_RULES`].
pub fn default_engine() -> Result<Engine, IdsError> {
    engine_from_rules(DEFAULT_RULES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rules_cover_all_five_detectors() {
        let rules = RuleSet::parse(DEFAULT_RULES).unwrap();
        let specs = compile(&rules).unwrap();
        let mut labels: Vec<&str> = specs.iter().map(|s| s.body.label()).collect();
        labels.dedup();
        assert_eq!(labels, DETECTOR_LABELS.to_vec());
    }

    #[test]
    fn errors_display_and_convert() {
        let e = engine_from_rules("").unwrap_err();
        assert!(matches!(e, IdsError::Compile(CompileError::Empty)));
        assert!(e.to_string().contains("compile"));
        let e = engine_from_rules("nonsense").unwrap_err();
        assert!(matches!(e, IdsError::Parse(_)));
        assert!(e.to_string().contains("parse"));
    }
}
