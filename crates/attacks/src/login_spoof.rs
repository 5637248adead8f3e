//! A6 — login spoofing (Trojan login program).
//!
//! "It is quite simple for an intruder to replace the login command with
//! a version that records users' passwords ... the Kerberos protocol
//! makes it difficult to employ the standard countermeasure: one-time
//! passwords." The handheld-authenticator login change (recommendation
//! c) is the fix: what the Trojan records is a one-challenge response,
//! useless for future logins.

use crate::env::AttackEnv;
use crate::Outcome;
use hardware::HandheldAuthenticator;
use kerberos::client::{login, LoginInput};
use kerberos::ProtocolConfig;
use krb_crypto::des::DesKey;

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);
    let pat = env.user("pat");
    let password = env.realm.passwords["pat"].clone();

    // What the Trojan records depends on the login protocol.
    enum Loot {
        Password(String),
        OneResponse { r: u64, key: DesKey },
    }
    let loot = if config.hha_login {
        // The user consults the device; the workstation (and hence
        // the Trojan) sees only this login's challenge and response
        // key.
        let mut device = HandheldAuthenticator::enroll(pat.clone(), &password);
        let trojan_seen = std::cell::RefCell::new(None);
        {
            let dev = std::cell::RefCell::new(&mut device);
            let answer = |r: u64| {
                let k = dev.borrow_mut().respond(r);
                *trojan_seen.borrow_mut() = Some((r, k));
                k
            };
            if env_login_with(&mut env, &pat, LoginInput::Handheld(&answer)).is_err() {
                return Outcome::safe("victim HHA login failed");
            }
        }
        let (r, key) = trojan_seen.into_inner().expect("device was consulted");
        Loot::OneResponse { r, key }
    } else {
        // The user typed the password into the Trojan.
        if env_login_with(&mut env, &pat, LoginInput::Password(&password)).is_err() {
            return Outcome::safe("victim login failed");
        }
        Loot::Password(password.clone())
    };

    // Later, from the attacker's own workstation, a *fresh* login as
    // the victim using only the recorded loot.
    let attacker_ep = env.attacker_ep();
    let mut rng = env.rng.clone();
    let result = match &loot {
        Loot::Password(pw) => login(
            &mut env.net,
            config,
            attacker_ep,
            env.realm.kdc_ep,
            &pat,
            LoginInput::Password(pw),
            &mut rng,
        ),
        Loot::OneResponse { r, key } => {
            // The attacker's "device" can only answer the one
            // recorded challenge; for any fresh challenge it guesses
            // with the stale key.
            let (r0, k0) = (*r, *key);
            let fake_device = move |challenge: u64| {
                if challenge == r0 {
                    k0
                } else {
                    // Best effort: reuse the stale response key.
                    k0
                }
            };
            login(
                &mut env.net,
                config,
                attacker_ep,
                env.realm.kdc_ep,
                &pat,
                LoginInput::Handheld(&fake_device),
                &mut rng,
            )
        }
    };

    match result {
        Ok(cred) => Outcome::breach(format!(
            "Trojan loot yielded a fresh TGT for {} (expires {})",
            cred.client, cred.end_time
        )),
        Err(e) => Outcome::safe(format!("recorded material useless for new logins: {e}")),
    }
}

/// Runs a login for the victim from their own workstation.
fn env_login_with(
    env: &mut AttackEnv,
    client: &kerberos::Principal,
    input: LoginInput<'_>,
) -> Result<kerberos::Credential, kerberos::KrbError> {
    let ep = env.realm.user_ep(&client.name);
    let kdc = env.realm.kdc_ep;
    let config = env.config.clone();
    login(&mut env.net, &config, ep, kdc, client, input, &mut env.rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn password_logins_are_spoofable() {
        assert!(run(&ProtocolConfig::v4(), 1).succeeded);
        assert!(run(&ProtocolConfig::v5_draft3(), 1).succeeded);
    }

    #[test]
    fn hha_logins_are_not() {
        assert!(!run(&ProtocolConfig::hardened(), 1).succeeded);
    }

    #[test]
    fn hha_option_alone_fixes_v4() {
        let mut config = ProtocolConfig::v4();
        config.hha_login = true;
        assert!(!run(&config, 2).succeeded);
    }

    #[test]
    fn trojan_cannot_reuse_response_because_challenges_differ() {
        // Direct check of the mechanism: two logins draw different Rs.
        let kc = krb_crypto::s2k::string_to_key_v5("pw", "salt");
        assert_ne!(kerberos::kdc::hha_key(&kc, 1), kerberos::kdc::hha_key(&kc, 2));
    }
}
