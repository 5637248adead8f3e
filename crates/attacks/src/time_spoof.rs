//! A3 — time-service spoofing enables stale-authenticator replay.
//!
//! "If a host can be misled about the correct time, a stale
//! authenticator can be replayed without any trouble at all. Since some
//! time synchronization protocols are unauthenticated ... such attacks
//! are not difficult."

use crate::env::AttackEnv;
use crate::Outcome;
use kerberos::messages::WireKind;
use kerberos::ProtocolConfig;
use simnet::time::{sync_unauthenticated, TimeService, TIME_PORT};
use simnet::{Addr, Datagram, Endpoint, Host, ScriptedTap, Verdict};

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);

    // An (unauthenticated) time server on the network.
    let ts_addr = Addr::new(10, 0, 9, 9);
    let mut ts_host = Host::new("timehost", vec![ts_addr]);
    ts_host.bind(TIME_PORT, Box::new(TimeService));
    env.net.add_host(ts_host);
    let ts_ep = Endpoint::new(ts_addr, TIME_PORT);

    // The victim authenticates at T0; the wiretap captures the AP
    // exchange.
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

    // Ten minutes pass: the captured authenticator is now stale.
    env.advance_secs(600);
    let before = env.realm.with_app_server(&mut env.net, "files", |s| s.accepted_count(&pat));
    for d in &captured {
        let _ = env.net.inject(d.clone());
    }
    let stale_accepted =
        env.realm.with_app_server(&mut env.net, "files", |s| s.accepted_count(&pat)) > before;
    if stale_accepted {
        // Should not happen: staleness must be enforced before the
        // spoof for the attack to mean anything.
        return Outcome::breach("BUG: stale authenticator accepted without clock spoof");
    }

    // The attacker rewrites time-service replies: "it is 11 minutes
    // earlier than it really is" — then triggers the file server's
    // periodic clock synchronization.
    env.net.set_tap(Box::new(ScriptedTap::new(|d: &mut Datagram, _| {
        if d.src.port == TIME_PORT && d.payload.len() >= 4 {
            let old = u32::from_be_bytes(d.payload[..4].try_into().expect("4 bytes"));
            d.payload[..4].copy_from_slice(&old.saturating_sub(660).to_be_bytes());
        }
        Verdict::Deliver
    })));
    let files_host = env.realm.service_hosts["files"];
    let _ = sync_unauthenticated(&mut env.net, files_host, ts_ep);
    let _ = env.net.take_tap();

    // Replay the stale authenticator against the now-misled server.
    let before = env.realm.with_app_server(&mut env.net, "files", |s| s.accepted_count(&pat));
    for d in &captured {
        let _ = env.net.inject(d.clone());
    }
    let after = env.realm.with_app_server(&mut env.net, "files", |s| s.accepted_count(&pat));

    if after > before {
        Outcome::breach(
            "file server clock set back 11 min via spoofed time service; \
             10-minute-old authenticator accepted as fresh"
        )
    } else {
        Outcome::safe("stale authenticator still rejected after clock spoof attempt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_on_timestamp_configs() {
        assert!(run(&ProtocolConfig::v4(), 1).succeeded);
        assert!(run(&ProtocolConfig::v5_draft3(), 1).succeeded);
    }

    #[test]
    fn fails_on_hardened() {
        assert!(!run(&ProtocolConfig::hardened(), 1).succeeded);
    }

    #[test]
    fn replay_cache_does_not_save_a_rewound_clock() {
        // With the clock set back, the cache purge has NOT expired the
        // entry, so the cache does still catch the replay — the paper's
        // point stands only when caching is absent (as it was).
        let mut config = ProtocolConfig::v4();
        config.replay_cache = true;
        assert!(!run(&config, 2).succeeded);
    }
}
