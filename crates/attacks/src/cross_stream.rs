//! A13 — cross-stream replay between concurrent sessions.
//!
//! "If two authenticated or encrypted sessions run concurrently, the
//! cache must be shared between them, or messages from one session can
//! be replayed into the other." With a multi-session key and per-session
//! timestamp caches, replaying a KRB_PRIV message across sessions works;
//! per-session subkeys and sequence numbers stop it.

use crate::env::AttackEnv;
use crate::Outcome;
use kerberos::appserver::connect_app;
use kerberos::messages::{frame, WireKind};
use kerberos::services::FileServerLogic;
use kerberos::{AppProtection, ProtocolConfig};
use simnet::{Datagram, Endpoint};

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);
    let files_ep = env.realm.service_ep("files");
    let victim_ep = env.realm.user_ep("pat");
    let second_ep = Endpoint::new(victim_ep.addr, victim_ep.port + 1);

    if config.app_protection == AppProtection::Plain {
        // In a plain deployment the "cross-stream" question is moot:
        // any captured command replays anywhere.
        let mut conn = match env.victim_session("pat", "files") {
            Ok(c) => c,
            Err(e) => return Outcome::safe(format!("victim session failed: {e}")),
        };
        let mut rng = env.rng.clone();
        let _ = conn.request(&mut env.net, b"PUT scratch v1", &mut rng);
        let _ = conn.request(&mut env.net, b"DEL scratch", &mut rng);
        let _ = env.net.inject(Datagram {
            src: victim_ep,
            dst: files_ep,
            payload: frame(WireKind::AppData, b"DEL scratch".to_vec()).into(),
        });
        let dels = deletions(&mut env);
        return if dels.iter().filter(|(_, f)| f == "scratch").count() >= 2 {
            Outcome::breach("plaintext command replayed; deletion executed twice")
        } else {
            Outcome::safe("plaintext replay rejected")
        };
    }

    // Two concurrent sessions from the same credential (two windows
    // on the same workstation) — same ticket, same multi-session key
    // when subkeys are off.
    let tgt = match env.login("pat") {
        Ok(t) => t,
        Err(e) => return Outcome::safe(format!("login failed: {e}")),
    };
    let st = match env.ticket("pat", &tgt, "files") {
        Ok(t) => t,
        Err(e) => return Outcome::safe(format!("ticket failed: {e}")),
    };
    let mut rng = env.rng.clone();
    let mut conn_a = match connect_app(&mut env.net, config, victim_ep, files_ep, &st, &mut rng) {
        Ok(c) => c,
        Err(e) => return Outcome::safe(format!("session A failed: {e}")),
    };
    let conn_b = match connect_app(&mut env.net, config, second_ep, files_ep, &st, &mut rng) {
        Ok(c) => c,
        Err(e) => return Outcome::safe(format!("session B failed: {e}")),
    };
    drop(conn_b); // The victim's second window sits idle.

    // The victim deletes a scratch file in session A.
    let _ = conn_a.request(&mut env.net, b"PUT scratch v1", &mut rng);
    let _ = conn_a.request(&mut env.net, b"DEL scratch", &mut rng);

    // The attacker captures that KRB_PRIV message and replays it
    // into session B (source address forged to B's endpoint).
    let priv_msgs: Vec<Datagram> = env
        .net
        .traffic_log()
        .iter()
        .filter(|r| {
            r.is_request
                && r.dgram.dst == files_ep
                && r.dgram.src == victim_ep
                && r.dgram.payload.first().copied().and_then(WireKind::from_u8) == Some(WireKind::Priv)
        })
        .map(|r| r.dgram.clone())
        .collect();
    let Some(del_msg) = priv_msgs.last() else {
        return Outcome::safe("no KRB_PRIV traffic captured");
    };
    let _ = env.net.inject(Datagram { src: second_ep, dst: files_ep, payload: del_msg.payload.clone() });

    let dels = deletions(&mut env);
    let count = dels.iter().filter(|(u, f)| u == "pat" && f == "scratch").count();
    if count >= 2 {
        Outcome::breach(format!(
            "DEL executed {count} times though the victim sent it once: replayed across sessions"
        ))
    } else {
        Outcome::safe("cross-session replay rejected (distinct session keys/sequence state)")
    }
}

fn deletions(env: &mut AttackEnv) -> Vec<(String, String)> {
    let realm = &env.realm;
    let mut out = Vec::new();
    realm.with_app_server(&mut env.net, "files", |s| {
        if let Some(f) = s.logic.as_any().and_then(|a| a.downcast_ref::<FileServerLogic>()) {
            out = f.deletions.clone();
        }
    });
    out
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
    fn subkeys_alone_stop_it() {
        let mut config = ProtocolConfig::v5_draft3();
        config.subkey_negotiation = true;
        assert!(!run(&config, 2).succeeded);
    }
}
