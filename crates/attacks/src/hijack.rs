//! A14 — post-authentication connection hijack.
//!
//! "An attacker can always wait until the connection is set up and
//! authenticated, and then take it over, thus obviating any security
//! provided by the presence of the address." With plain (unprotected)
//! application data — the common 1990 deployment — the attacker simply
//! injects commands with the victim's source address.

use crate::env::AttackEnv;
use crate::Outcome;
use kerberos::messages::{frame, WireKind};
use kerberos::services::FileServerLogic;
use kerberos::ProtocolConfig;
use simnet::Datagram;

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);

    // The victim authenticates and does legitimate work.
    let mut conn = match env.victim_session("pat", "files") {
        Ok(c) => c,
        Err(e) => return Outcome::safe(format!("victim session failed: {e}")),
    };
    let mut rng = env.rng.clone();
    let _ = conn.request(&mut env.net, b"PUT thesis.tex ten years of work", &mut rng);

    // The attacker waits for authentication to complete, then takes
    // over: a plaintext command injected with the victim's address.
    let victim_ep = env.realm.user_ep("pat");
    let files_ep = env.realm.service_ep("files");
    let _ = env.net.inject(Datagram {
        src: victim_ep,
        dst: files_ep,
        payload: frame(WireKind::AppData, b"DEL thesis.tex".to_vec()).into(),
    });

    let deleted = env.realm.with_app_server(&mut env.net, "files", |s| {
        s.logic
            .as_any()
            .and_then(|a| a.downcast_ref::<FileServerLogic>())
            .map(|f| f.deletions.clone())
            .unwrap_or_default()
    });
    if deleted.iter().any(|(u, f)| u == "pat" && f == "thesis.tex") {
        Outcome::breach("injected plaintext command executed as pat: thesis.tex deleted")
    } else {
        Outcome::safe("injected plaintext command rejected (session protection)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_deployments_are_hijackable() {
        assert!(run(&ProtocolConfig::v4(), 1).succeeded);
    }

    #[test]
    fn priv_deployments_are_not() {
        assert!(!run(&ProtocolConfig::v5_draft3(), 1).succeeded);
        assert!(!run(&ProtocolConfig::hardened(), 1).succeeded);
    }
}
