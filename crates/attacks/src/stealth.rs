//! E20 adversary variants and detection ground truth.
//!
//! The E1 scripts run each attack once, the way the paper describes it.
//! A defender's view depends on *how loudly* the attacker moves, so
//! this module re-stages three detectable attacks along a stealth axis:
//!
//! * `a1-loud` / `a1-stealthy` — the stolen-authenticator replay,
//!   hammered five times versus replayed once near the end of the
//!   authenticator's life. The stealthy variant is still caught: the
//!   replay rule's 900 s window dwarfs the five-minute authenticator
//!   lifetime, so the attacker cannot outwait the detector without
//!   losing the attack.
//! * `a5-loud` / `a5-stealthy` — the ticket harvest as a burst across
//!   many principals versus slow single probes. The stealthy variant
//!   evades: one well-spaced AS-REQ per idle period is exactly what a
//!   legitimate login looks like. This is the honest limitation of
//!   volume rules, reported as such in the E20 table.
//! * `crash-loud` / `crash-stealthy` — the replay-cache-wipe attack
//!   ("note that it may be possible to replay messages ... if the
//!   server has crashed"): a cached-out replay right after the
//!   verifier's restart versus one delayed past the IDS window. The
//!   stealthy variant evades the detector but the authenticator has
//!   gone stale by then — stealth costs the attack itself.
//!
//! [`GROUND_TRUTH`] records, per E1 attack, which detectors the default
//! rule set is *designed* to fire on the attack's primary vulnerable
//! configuration — including the honest empty rows (a passive wiretap
//! emits nothing a sniffer-based IDS could see). The E20 bench scores
//! the engine against this table.

use crate::env::AttackEnv;
use crate::Outcome;
use kerberos::messages::{AsRep, AsReq, WireKind};
use kerberos::ProtocolConfig;
use simnet::{Datagram, FaultPlan, SimTime};

/// How noisily the variant's adversary operates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Fast, repeated, high-volume — the impatient intruder.
    Loud,
    /// Slow, minimal, spaced-out — the patient intruder.
    Stealthy,
}

impl Profile {
    pub fn name(&self) -> &'static str {
        match self {
            Profile::Loud => "loud",
            Profile::Stealthy => "stealthy",
        }
    }
}

/// A re-staged attack with an explicit noise profile.
pub struct Variant {
    /// Variant name, e.g. `"a1-loud"`.
    pub name: &'static str,
    /// The E1 attack it re-stages.
    pub base: &'static str,
    /// The noise profile.
    pub profile: Profile,
    /// Detector labels the default rules are designed to fire on this
    /// variant. Empty: the variant is designed to *evade*.
    pub expected: &'static [&'static str],
    /// Why it is caught or missed.
    pub rationale: &'static str,
    run: fn(u64) -> Outcome,
}

impl Variant {
    /// Runs the variant against a fresh deployment. The environment is
    /// built through [`AttackEnv::new`], so an installed
    /// [`crate::env::with_env_hook`] observer sees its tracer.
    pub fn run(&self, seed: u64) -> Outcome {
        (self.run)(seed)
    }
}

/// All six variants: three attacks × two profiles.
pub fn variants() -> Vec<Variant> {
    vec![
        Variant {
            name: "a1-loud",
            base: "A1",
            profile: Profile::Loud,
            expected: &["replay"],
            rationale: "five identical AP-REQs in seconds on one stream",
            run: |seed| run_a1(seed, 5, 30, 1),
        },
        Variant {
            name: "a1-stealthy",
            base: "A1",
            profile: Profile::Stealthy,
            expected: &["replay"],
            rationale: "900s replay window outlasts the 5-minute authenticator life",
            run: |seed| run_a1(seed, 1, 240, 0),
        },
        Variant {
            name: "a5-loud",
            base: "A5",
            profile: Profile::Loud,
            expected: &["preauth-storm"],
            rationale: "12 AS-REQs for 3 principals in seconds from one endpoint",
            run: |seed| run_a5(seed, 4, 1),
        },
        Variant {
            name: "a5-stealthy",
            base: "A5",
            profile: Profile::Stealthy,
            expected: &[],
            rationale: "probes spaced 120s apart look like ordinary logins (evades)",
            run: |seed| run_a5(seed, 1, 120),
        },
        Variant {
            name: "crash-loud",
            base: "A1",
            profile: Profile::Loud,
            expected: &["replay", "crash-reuse"],
            rationale: "cached-out authenticator re-presented 60s after the restart",
            run: |seed| run_crash(seed, 60, true),
        },
        Variant {
            name: "crash-stealthy",
            base: "A1",
            profile: Profile::Stealthy,
            expected: &[],
            rationale: "waiting out the 900s window leaves a stale authenticator (attack fails)",
            run: |seed| run_crash(seed, 920, false),
        },
    ]
}

/// A1 with a replay count, an initial delay, and per-replay spacing.
fn run_a1(seed: u64, replays: u32, delay_s: u64, spacing_s: u64) -> Outcome {
    let config = ProtocolConfig::v4();
    let mut env = AttackEnv::new(&config, seed);
    if env.victim_session("pat", "files").is_err() {
        return Outcome::safe("victim session failed");
    }
    let pat = env.user("pat");
    let files_ep = env.realm.service_ep("files");
    let captured: Vec<Datagram> = env
        .net
        .traffic_log()
        .iter()
        .filter(|r| {
            r.is_request
                && r.dgram.dst == files_ep
                && matches!(
                    r.dgram.payload.first().copied().and_then(WireKind::from_u8),
                    Some(WireKind::ApReq) | Some(WireKind::ChallengeResp)
                )
        })
        .map(|r| r.dgram.clone())
        .collect();
    if captured.is_empty() {
        return Outcome::safe("no AP exchange captured");
    }
    let before = env.realm.with_app_server(&mut env.net, "files", |s| s.accepted_count(&pat));
    env.advance_secs(delay_s);
    for i in 0..replays {
        env.adversary_note(&format!("adversary replay {} of {replays}", i + 1));
        for d in &captured {
            let _ = env.net.inject(d.clone());
        }
        env.advance_secs(spacing_s);
    }
    let after = env.realm.with_app_server(&mut env.net, "files", |s| s.accepted_count(&pat));
    Outcome {
        succeeded: after > before,
        evidence: format!(
            "{replays} replay(s) {delay_s}s after capture: {before} -> {after} accepted"
        ),
    }
}

/// A5 as a harvest campaign: `rounds` probes per principal against
/// pat, sam, and zach, spaced `spacing_s` apart.
fn run_a5(seed: u64, rounds: u64, spacing_s: u64) -> Outcome {
    let config = ProtocolConfig::v4();
    let mut env = AttackEnv::new(&config, seed);
    let attacker_ep = env.attacker_ep();
    let users = ["pat", "sam", "zach"];
    let mut probes = 0u64;
    let mut harvested = 0u64;
    for round in 0..rounds {
        for user in users {
            let req = AsReq {
                client: env.user(user),
                service: kerberos::Principal::tgs(&env.realm.name),
                nonce: 0x5EED ^ (round << 8) ^ probes,
                lifetime_us: config.ticket_lifetime_us,
                addr: attacker_ep.addr.0,
                options: kerberos::flags::KdcOptions::empty(),
                padata: Vec::new(),
            };
            probes += 1;
            if let Ok(reply) = env.net.rpc(attacker_ep, env.realm.kdc_ep, req.encode(config.codec))
            {
                if AsRep::decode(config.codec, &reply).is_ok() {
                    harvested += 1;
                }
            }
            env.advance_secs(spacing_s);
        }
    }
    Outcome {
        succeeded: harvested > 0,
        evidence: format!(
            "harvested {harvested}/{probes} AS replies at one probe per {spacing_s}s"
        ),
    }
}

/// The replay-cache-wipe attack: a replay-caching file server crashes
/// (losing its cache), and the captured authenticator is re-presented
/// `wait_s` after its restart.
fn run_crash(seed: u64, wait_s: u64, probe_live_cache: bool) -> Outcome {
    let mut config = ProtocolConfig::v4();
    config.replay_cache = true;
    config.name = "v4+replay-cache";
    let mut env = AttackEnv::new(&config, seed);
    if env.victim_session("pat", "files").is_err() {
        return Outcome::safe("victim session failed");
    }
    let pat = env.user("pat");
    let files_ep = env.realm.service_ep("files");
    let captured: Vec<Datagram> = env
        .net
        .traffic_log()
        .iter()
        .filter(|r| {
            r.is_request
                && r.dgram.dst == files_ep
                && matches!(
                    r.dgram.payload.first().copied().and_then(WireKind::from_u8),
                    Some(WireKind::ApReq) | Some(WireKind::ChallengeResp)
                )
        })
        .map(|r| r.dgram.clone())
        .collect();
    if captured.is_empty() {
        return Outcome::safe("no AP exchange captured");
    }
    let before = env.realm.with_app_server(&mut env.net, "files", |s| s.accepted_count(&pat));

    // The loud adversary probes the live cache first (refused, and a
    // replay the defender sees); the stealthy one skips the probe and
    // stays quiet until after the crash.
    if probe_live_cache {
        env.adversary_note("adversary replays against the live cache (expected: refused)");
        for d in &captured {
            let _ = env.net.inject(d.clone());
        }
        let cached = env.realm.with_app_server(&mut env.net, "files", |s| s.accepted_count(&pat));
        if cached > before {
            return Outcome::breach("BUG: cache accepted a plain replay");
        }
    }

    // The server rides out a 20 s crash window; its replay cache is
    // volatile (no persistence on this config), so the restart reboots
    // it empty.
    let now = env.net.now();
    env.net.set_fault_plan(FaultPlan::new(seed).crash(
        files_ep.addr,
        SimTime(now.0 + 10 * 1_000_000),
        SimTime(now.0 + 30 * 1_000_000),
    ));
    env.advance_secs(40);
    // Benign traffic triggers the restart the defender's telemetry sees.
    let _ = env.victim_session("sam", "files");

    env.advance_secs(wait_s);
    env.adversary_note(&format!("adversary re-presents the authenticator {wait_s}s after restart"));
    for d in &captured {
        let _ = env.net.inject(d.clone());
    }
    let after = env.realm.with_app_server(&mut env.net, "files", |s| s.accepted_count(&pat));
    Outcome {
        succeeded: after > before,
        evidence: format!(
            "replay vs live cache refused; {wait_s}s after restart: {before} -> {after} accepted"
        ),
    }
}

/// Per-attack detection ground truth on the attack's primary vulnerable
/// configuration.
pub struct Coverage {
    /// E1 attack id.
    pub attack: &'static str,
    /// Configuration the expectation is scored on.
    pub config: &'static str,
    /// Detectors the default rules are designed to fire. Empty: the
    /// attack is invisible to a wire sniffer, for the stated reason.
    pub expected: &'static [&'static str],
    /// Why those detectors (or none) apply.
    pub note: &'static str,
}

/// The designed coverage of [`krb_ids::DEFAULT_RULES`] over the E1
/// catalog. The E20 bench verifies every non-empty row fires and every
/// empty row is justified prose, not a silent miss.
pub const GROUND_TRUTH: &[Coverage] = &[
    Coverage {
        attack: "A1",
        config: "v4",
        expected: &["replay"],
        note: "identical sealed AP-REQ re-sent on its own stream",
    },
    Coverage {
        attack: "A2",
        config: "v4",
        expected: &["cut-paste"],
        note: "stolen sealed material resurfaces inside the spoofed stream",
    },
    Coverage {
        attack: "A3",
        config: "v4",
        expected: &["replay", "clock-spoof"],
        note: "stale AP-REQ re-sent; time reply contradicts wire arrival time",
    },
    Coverage {
        attack: "A4",
        config: "v4",
        expected: &[],
        note: "passive wiretap: the attacker emits no packets to observe",
    },
    Coverage {
        attack: "A5",
        config: "v4",
        expected: &[],
        note: "one AS-REQ is a legitimate login shape; only volume is anomalous (see a5-loud)",
    },
    Coverage {
        attack: "A6",
        config: "v4",
        expected: &[],
        note: "trojan login box: the spoof is local to the workstation, off the wire",
    },
    Coverage {
        attack: "A7",
        config: "v4",
        expected: &["cut-paste"],
        note: "CBC splice re-uses ciphertext runs from an earlier session message",
    },
    Coverage {
        attack: "A8",
        config: "v4",
        expected: &[],
        note: "in-flight block swap: the unmodified original never crosses the tap, nothing repeats",
    },
    Coverage {
        attack: "A9",
        config: "v5-draft3",
        expected: &[],
        note: "in-flight TGS-REQ rewrite: the original never crosses the tap, and the spliced \
               TGT's ciphertext makes its first wire appearance inside the forgery (KDC \
               replies seal tickets inside enc-part, so nothing it contains ever repeats)",
    },
    Coverage {
        attack: "A10",
        config: "v4",
        expected: &[],
        note: "REUSE-SKEY redirect is a protocol-legal exchange; nothing repeats on the wire",
    },
    Coverage {
        attack: "A11",
        config: "v4",
        expected: &[],
        note: "encode/decode confusion demonstrated off the wire; the attack sends no packets",
    },
    Coverage {
        attack: "A12",
        config: "v4",
        expected: &["cut-paste"],
        note: "the stolen ticket's full ciphertext resurfaces in an AP-REQ from an endpoint \
               that never presented it before (the authenticator itself is fresh)",
    },
    Coverage {
        attack: "A13",
        config: "v4",
        expected: &["replay"],
        note: "the captured sealed command is re-sent verbatim on its own stream",
    },
    Coverage {
        attack: "A14",
        config: "v4",
        expected: &[],
        note: "hijack continues with forged fresh plaintext; no sealed bytes repeat",
    },
];

/// A purpose-built benign workload for the false-positive gate: three
/// rounds of logins and short, pairwise-distinct commands from every
/// user to the echo and file services on a fault-free network. Any
/// alert raised on this run is a false positive. Commands are kept
/// under one ciphertext window (16 bytes) so the plaintext app modes
/// cannot alias in the cut-paste index.
pub fn run_benign(config: &ProtocolConfig, seed: u64) -> (u64, u64) {
    let mut env = AttackEnv::new(config, seed);
    let users = ["pat", "sam", "zach"];
    let services = ["echo", "files"];
    let (mut ok, mut total) = (0u64, 0u64);
    for round in 0..3u32 {
        for (u, user) in users.iter().enumerate() {
            let Ok(tgt) = env.login(user) else {
                total += services.len() as u64;
                continue;
            };
            for (s, service) in services.iter().enumerate() {
                total += 1;
                let cmd = format!("ls r{round}u{u}s{s}");
                let done = env
                    .ticket(user, &tgt, service)
                    .and_then(|st| env.connect(user, &st, service))
                    .and_then(|mut conn| {
                        let mut rng = env.rng.clone();
                        conn.request(&mut env.net, cmd.as_bytes(), &mut rng)
                    });
                if done.is_ok() {
                    ok += 1;
                }
            }
            env.advance_secs(30);
        }
        env.advance_secs(120);
    }
    (ok, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use krb_ids::DETECTOR_LABELS;

    #[test]
    fn loud_variants_succeed_on_vulnerable_configs() {
        for v in variants() {
            if v.profile == Profile::Loud {
                let out = v.run(1);
                assert!(out.succeeded, "{}: {}", v.name, out.evidence);
            }
        }
    }

    #[test]
    fn stealth_has_a_price_crash_variant_fails() {
        let out = variants().into_iter().find(|v| v.name == "crash-stealthy").unwrap().run(1);
        assert!(!out.succeeded, "waiting out the IDS window must stale the authenticator");
    }

    #[test]
    fn a1_stealthy_still_succeeds_as_attack() {
        let out = variants().into_iter().find(|v| v.name == "a1-stealthy").unwrap().run(1);
        assert!(out.succeeded, "{}", out.evidence);
    }

    #[test]
    fn ground_truth_labels_are_valid() {
        for row in GROUND_TRUTH {
            for d in row.expected {
                assert!(DETECTOR_LABELS.contains(d), "{}: unknown detector {d}", row.attack);
            }
        }
        for v in variants() {
            for d in v.expected {
                assert!(DETECTOR_LABELS.contains(d), "{}: unknown detector {d}", v.name);
            }
        }
    }

    #[test]
    fn benign_workload_completes_clean() {
        for config in ProtocolConfig::presets() {
            let (ok, total) = run_benign(&config, 3);
            assert_eq!(ok, total, "benign workload must fully succeed on {}", config.name);
        }
    }
}
