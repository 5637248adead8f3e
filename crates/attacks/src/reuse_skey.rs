//! A10 — the REUSE-SKEY redirect.
//!
//! "If two tickets, T1 and T2, share the same key, the attacker can
//! intercept a request for one service, and redirect it to the other.
//! Since the two tickets share the same key, the authenticator will be
//! accepted. ... If, say, a file server and a backup server were invoked
//! this way, an attacker might redirect some requests to destroy
//! archival copies of files being edited."

use crate::env::AttackEnv;
use crate::Outcome;
use kerberos::flags::KdcOptions;
use kerberos::messages::{ApReq, WireKind};
use kerberos::services::BackupServerLogic;
use kerberos::{ProtocolConfig, TgsParams};
use simnet::{Datagram, ScriptedTap, Verdict};

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);

    // The victim legitimately uses REUSE-SKEY (its intended purpose:
    // shared-key/multicast distribution): a files ticket, then a
    // backup ticket sharing its session key.
    let tgt = match env.login("pat") {
        Ok(t) => t,
        Err(e) => return Outcome::safe(format!("login failed: {e}")),
    };
    let t_files = match env.ticket("pat", &tgt, "files") {
        Ok(t) => t,
        Err(e) => return Outcome::safe(format!("files ticket failed: {e}")),
    };
    let t_backup = match env.ticket_with(
        "pat",
        &tgt,
        "backup",
        TgsParams {
            options: KdcOptions::empty().with(KdcOptions::REUSE_SKEY),
            additional_ticket: Some(t_files.sealed_ticket.clone()),
            ..Default::default()
        },
    ) {
        Ok(t) => t,
        Err(e) => return Outcome::safe(format!("KDC refused REUSE-SKEY: {e}")),
    };
    if !t_backup.session_key.ct_eq(&t_files.session_key) {
        return Outcome::safe("KDC did not actually share the session key");
    }

    // The victim archives a file on the backup server, exposing the
    // sealed backup ticket on the wire.
    let mut bconn = match env.connect("pat", &t_backup, "backup") {
        Ok(c) => c,
        Err(e) => return Outcome::safe(format!("backup session refused: {e}")),
    };
    let mut rng = env.rng.clone();
    let _ = bconn.request(&mut env.net, b"ARCHIVE old-draft v1", &mut rng);
    let backup_ep = env.realm.service_ep("backup");
    let t_backup_wire = env
        .net
        .traffic_log()
        .iter()
        .filter(|r| {
            r.is_request
                && r.dgram.dst == backup_ep
                && r.dgram.payload.first() == Some(&(WireKind::ApReq as u8))
        })
        .filter_map(|r| ApReq::decode(config.codec, &r.dgram.payload).ok())
        .map(|ap| ap.ticket)
        .next_back();
    let Some(t_backup_wire) = t_backup_wire else {
        return Outcome::safe("backup ticket not observed on the wire");
    };

    // Now the victim turns to the file server. The in-path attacker
    // substitutes the backup ticket and redirects everything to the
    // backup server.
    let files_ep = env.realm.service_ep("files");
    let codec = config.codec;
    env.net.set_tap(Box::new(ScriptedTap::new(move |d: &mut Datagram, _| {
        if d.dst == files_ep {
            if d.payload.first() == Some(&(WireKind::ApReq as u8)) {
                if let Ok(mut ap) = ApReq::decode(codec, &d.payload) {
                    ap.ticket = t_backup_wire.clone();
                    d.payload = ap.encode(codec).into();
                }
            }
            d.dst = backup_ep;
        }
        Verdict::Deliver
    })));

    // The victim "deletes an old draft from the file server" — or so
    // they believe.
    let outcome = (|| -> Result<Vec<u8>, kerberos::KrbError> {
        let mut conn = env.connect("pat", &t_files, "files")?;
        let mut rng = env.rng.clone();
        conn.request(&mut env.net, b"DEL old-draft", &mut rng)
    })();
    let _ = env.net.take_tap();

    let destroyed = env.realm.with_app_server(&mut env.net, "backup", |s| {
        s.logic
            .as_any()
            .and_then(|a| a.downcast_ref::<BackupServerLogic>())
            .map(|b| b.destroyed.iter().any(|(u, f)| u == "pat" && f == "old-draft"))
            .unwrap_or(false)
    });
    match (outcome, destroyed) {
        (Ok(_), true) => Outcome::breach(
            "victim's file-server request executed on the BACKUP server: archive of \
             old-draft destroyed, mutual auth spoofed by key sharing"
        ),
        (_, true) => Outcome::breach("redirected request destroyed the archive"),
        (Err(e), false) => Outcome::safe(format!("redirect rejected: {e}")),
        (Ok(_), false) => Outcome::safe("redirect had no effect"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draft3_redirect_destroys_archives() {
        let r = run(&ProtocolConfig::v5_draft3(), 1);
        assert!(r.succeeded, "{}", r.evidence);
    }

    #[test]
    fn v4_has_no_such_option() {
        assert!(!run(&ProtocolConfig::v4(), 1).succeeded);
    }

    #[test]
    fn hardened_is_safe() {
        assert!(!run(&ProtocolConfig::hardened(), 1).succeeded);
    }

    #[test]
    fn obeying_the_duplicate_skey_warning_stops_the_auth() {
        // "Servers that obey this restriction are not vulnerable."
        let mut config = ProtocolConfig::v5_draft3();
        config.forbid_duplicate_skey_auth = true;
        assert!(!run(&config, 2).succeeded);
    }

    #[test]
    fn service_binding_stops_the_redirect() {
        // "A solution to this particular attack is to include either the
        // service name [or] a collision-proof checksum of the ticket ...
        // in the authenticator."
        let mut config = ProtocolConfig::v5_draft3();
        config.service_binding = true;
        assert!(!run(&config, 3).succeeded);
    }
}
