//! A1 — stolen live-authenticator replay.
//!
//! "An intruder would not start by capturing a ticket and authenticator,
//! and then develop the software to use them; rather, everything would
//! be in place before the ticket-capture was attempted. ... Note that
//! the lifetime of the authenticators — 5 minutes — contributes
//! considerably to this attack."

use crate::env::AttackEnv;
use crate::Outcome;
use kerberos::messages::WireKind;
use kerberos::ProtocolConfig;
use simnet::Datagram;

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);

    // The victim authenticates to the file server (a mail-check-like
    // short session) — the wiretap records everything.
    if env.victim_session("pat", "files").is_err() {
        return Outcome::safe("victim session failed to establish");
    }
    let pat = env.user("pat");
    let files_ep = env.realm.service_ep("files");

    // Passive capture: the AP request (ticket + live authenticator)
    // and, under challenge/response, the victim's challenge answer.
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
    env.adversary_note(&format!(
        "adversary wiretap captured {} AP-exchange datagram(s) for {pat}",
        captured.len()
    ));

    let before = env.realm.with_app_server(&mut env.net, "files", |s| s.accepted_count(&pat));

    // One minute later — well inside the five-minute window — the
    // attacker replays the captured exchange verbatim (source
    // address forged to match, which nothing prevents).
    env.advance_secs(60);
    env.adversary_note("adversary replays the captured ticket+authenticator 60s later");
    for d in &captured {
        let _ = env.net.inject(d.clone());
    }

    let after = env.realm.with_app_server(&mut env.net, "files", |s| s.accepted_count(&pat));
    if after > before {
        Outcome::breach(format!(
            "server accepted a second authentication as {pat} from a replayed \
             authenticator ({before} -> {after} accepted)"
        ))
    } else {
        Outcome::safe("replayed authenticator rejected")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_on_v4_and_draft3() {
        assert!(run(&ProtocolConfig::v4(), 1).succeeded);
        assert!(run(&ProtocolConfig::v5_draft3(), 1).succeeded);
    }

    #[test]
    fn fails_on_hardened() {
        assert!(!run(&ProtocolConfig::hardened(), 1).succeeded);
    }

    #[test]
    fn verdicts_unchanged_over_wire_codec() {
        // Replay is a freshness failure, not a parsing one — the tagged
        // wire envelope must not change any verdict.
        assert!(run(&ProtocolConfig::v4().with_wire_codec(), 1).succeeded);
        assert!(
            run(&ProtocolConfig::v5_draft3().with_wire_codec(), 1).succeeded
        );
        assert!(
            !run(&ProtocolConfig::hardened().with_wire_codec(), 1).succeeded
        );
    }

    #[test]
    fn replay_cache_alone_stops_it() {
        let mut config = ProtocolConfig::v4();
        config.replay_cache = true;
        assert!(!run(&config, 2).succeeded);
    }

    #[test]
    fn challenge_response_alone_stops_it() {
        let mut config = ProtocolConfig::v5_draft3();
        config.auth_style = kerberos::AuthStyle::ChallengeResponse;
        assert!(!run(&config, 3).succeeded);
    }
}
