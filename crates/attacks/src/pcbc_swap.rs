//! A8 — message-stream modification of KRB_PRIV traffic.
//!
//! "\[PCBC\] mode was observed to have poor propagation properties that
//! permit message-stream modification: specifically, if two blocks of
//! ciphertext are interchanged, only the corresponding blocks are
//! garbled on decryption." Draft 3's CBC without a MAC fares no better
//! against an in-path modifier; only the hardened layer's MAC detects
//! the tampering.

use crate::env::AttackEnv;
use crate::Outcome;
use kerberos::messages::WireKind;
use kerberos::services::FileServerLogic;
use kerberos::{AppProtection, ProtocolConfig};
use simnet::{Datagram, ScriptedTap, Verdict};

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, seed: u64) -> Outcome {
    // The attack targets KRB_PRIV; run the deployment with session
    // encryption on even for the V4 era ("servers using the KRB_PRIV
    // format").
    let mut config = config.clone();
    config.app_protection = AppProtection::Priv;
    let mut env = AttackEnv::new(&config, seed);

    let mut conn = match env.victim_session("pat", "files") {
        Ok(c) => c,
        Err(e) => return Outcome::safe(format!("victim session failed: {e}")),
    };

    // The in-path modifier swaps ciphertext blocks 4 and 5 of the
    // first KRB_PRIV request it sees — deep inside the file content
    // for the command below, in every layer's layout.
    let files_port = env.realm.service_ep("files").port;
    let armed = std::cell::Cell::new(true);
    env.net.set_tap(Box::new(ScriptedTap::new(move |d: &mut Datagram, _| {
        if armed.get()
            && d.dst.port == files_port
            && d.payload.first() == Some(&(WireKind::Priv as u8))
            && d.payload.len() > 1 + 48
        {
            armed.set(false);
            let (a, b) = (1 + 32, 1 + 40);
            for i in 0..8 {
                d.payload.swap(a + i, b + i);
            }
        }
        Verdict::Deliver
    })));

    let content = b"The quick brown fox jumps over the lazy dog, repeatedly and at length.";
    let mut cmd = b"PUT doc.txt ".to_vec();
    cmd.extend_from_slice(content);
    let mut rng = env.rng.clone();
    let send_result = conn.request(&mut env.net, &cmd, &mut rng);
    let _ = env.net.take_tap();

    // What did the server actually store?
    let stored = env.realm.with_app_server(&mut env.net, "files", |s| {
        s.logic
            .as_any()
            .and_then(|a| a.downcast_ref::<FileServerLogic>())
            .and_then(|f| f.files.get(&("pat".into(), "doc.txt".into())).cloned())
    });

    match (send_result, stored) {
        (Ok(_), Some(bytes)) if bytes != content => Outcome::breach(format!(
            "server stored modified content without detecting tampering \
             ({} of {} bytes differ)",
            bytes.iter().zip(content.iter()).filter(|(a, b)| a != b).count(),
            content.len()
        )),
        (Ok(_), Some(_)) => Outcome::safe("modification had no effect"),
        (Err(_), _) | (_, None) => {
            Outcome::safe("tampered message rejected by the integrity layer")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v4_pcbc_and_draft3_cbc_are_modifiable() {
        assert!(run(&ProtocolConfig::v4(), 1).succeeded);
        assert!(run(&ProtocolConfig::v5_draft3(), 1).succeeded);
    }

    #[test]
    fn hardened_mac_detects_it() {
        assert!(!run(&ProtocolConfig::hardened(), 1).succeeded);
    }
}
