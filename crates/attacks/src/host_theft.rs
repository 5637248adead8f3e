//! A12 — credential-cache theft via insecure storage.
//!
//! "The original code used /tmp. But this is highly insecure on diskless
//! workstations, where /tmp exists on a file server ... a modification
//! was made to store keys in shared memory. However, there is no
//! guarantee that shared memory is not paged; if this entails network
//! traffic, an intruder can capture these keys."
//!
//! The storage location follows the configuration era: V4 wrote /tmp on
//! NFS, the Draft-3-era workaround paged shared memory over the network,
//! and the hardened deployment pins and wipes memory (or uses the
//! hardware keystore).

use crate::env::AttackEnv;
use crate::Outcome;
use kerberos::appserver::connect_app;
use kerberos::ccache::{deserialize_credentials, CacheLocation, CredCache};
use kerberos::services::FileServerLogic;
use kerberos::ProtocolConfig;
use simnet::Endpoint;

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);
    let files_ep = env.realm.service_ep("files");

    // Era-appropriate cache location. The era is the preset: the name
    // before any `+` variant suffix (`v4+wire` is still the V4 era).
    let location = match config.name.split('+').next() {
        Some("v4") => CacheLocation::TmpNfs { file_server: files_ep },
        Some("v5-draft3") => CacheLocation::SharedMemoryPageable { pager: files_ep },
        _ => CacheLocation::WipedMemory,
    };

    // The victim logs in, gets a files ticket, and the workstation
    // persists the credential cache per its storage model.
    let tgt = match env.login("pat") {
        Ok(t) => t,
        Err(e) => return Outcome::safe(format!("login failed: {e}")),
    };
    let st = match env.ticket("pat", &tgt, "files") {
        Ok(t) => t,
        Err(e) => return Outcome::safe(format!("ticket failed: {e}")),
    };
    let mut cache = CredCache::new(env.user("pat"), location);
    let victim_ep = env.realm.user_ep("pat");
    if let Err(e) = cache.store(&mut env.net, victim_ep, st.clone()) {
        return Outcome::safe(format!("cache store failed: {e}"));
    }
    // Victim does some legitimate work, then logs out (wipe).
    if let Ok(mut conn) = env.connect("pat", &st, "files") {
        let mut rng = env.rng.clone();
        let _ = conn.request(&mut env.net, b"PUT thesis.tex all my work", &mut rng);
    }
    cache.wipe();

    // The wiretap scans for cache bytes that crossed the wire.
    let stolen = env
        .net
        .traffic_log()
        .iter()
        .filter_map(|r| {
            let p = &r.dgram.payload;
            let tag_end = if p.starts_with(b"NFSWRITE") {
                p.iter().position(|&b| b == b' ').and_then(|i| {
                    p[i + 1..].iter().position(|&b| b == b' ').map(|j| i + 1 + j + 1)
                })
            } else if p.starts_with(b"PAGEOUT ") {
                Some(8)
            } else {
                None
            }?;
            deserialize_credentials(&p[tag_end..]).ok()
        })
        .flatten()
        .find(|c| c.service.name == "files");

    let Some(stolen) = stolen else {
        return Outcome::safe("no credential bytes observed on the wire");
    };

    // Use the stolen credential from a forged source port on the
    // victim's address (nothing authenticates addresses).
    let forged_ep = Endpoint::new(victim_ep.addr, 4444);
    let mut rng = env.rng.clone();
    match connect_app(&mut env.net, config, forged_ep, files_ep, &stolen, &mut rng) {
        Ok(mut conn) => {
            let _ = conn.request(&mut env.net, b"DEL thesis.tex", &mut rng);
            let deleted = env.realm.with_app_server(&mut env.net, "files", |s| {
                s.logic
                    .as_any()
                    .and_then(|a| a.downcast_ref::<FileServerLogic>())
                    .map(|f| f.deletions.iter().any(|(u, f)| u == "pat" && f == "thesis.tex"))
                    .unwrap_or(false)
            });
            if deleted {
                Outcome::breach(
                    "session key and ticket recovered from network-backed cache; \
                     attacker deleted the victim's file"
                )
            } else {
                Outcome::safe("stolen credential did not yield command execution")
            }
        }
        Err(e) => Outcome::safe(format!("stolen credential rejected: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfs_and_paged_caches_leak() {
        assert!(run(&ProtocolConfig::v4(), 1).succeeded);
        assert!(run(&ProtocolConfig::v5_draft3(), 1).succeeded);
    }

    #[test]
    fn wiped_memory_does_not() {
        assert!(!run(&ProtocolConfig::hardened(), 1).succeeded);
    }
}
