//! A4/A5 — password-guessing attacks.
//!
//! A4 (passive): "an intruder recording login dialogs in order to mount
//! a password-guessing assault ... A guess at the user's password can be
//! confirmed by calculating Kc and using it to decrypt the recorded
//! answer." Defeated by the exponential-key-exchange layer.
//!
//! A5 (active): "an attacker could simply request ticket-granting
//! tickets for many different users" — no eavesdropping required.
//! Defeated by preauthentication (and slowed by rate limiting).

use crate::env::AttackEnv;
use crate::workload::guesses;
use crate::Outcome;
use kerberos::encoding::MsgType;
use kerberos::kdc::hha_key_with;
use kerberos::messages::{deframe, AsRep, AsReq, EncKdcRepPart, KrbErrorMsg, WireKind};
use kerberos::{Principal, ProtocolConfig};
use krb_crypto::des::{DesKey, ScheduledKey};
use krb_crypto::s2k;

/// Guesses derived together: [`crack_as_reply`] runs this many
/// string-to-key derivations through one lockstep DES round loop. On a
/// 2-core x86-64 host, per guess against a recorded reply: one lane
/// 470–480 ns, two 338–350, three 311–323, four 309–322, eight 320–397.
/// Three is the smallest group at the floor.
const LANES: usize = 3;

/// Attempts to confirm a password guess against a recorded (or
/// harvested) AS reply sealed under `K_c` or `{R}K_c`.
///
/// Returns the recovered password if any guess verifies. Keys are
/// derived [`LANES`] guesses at a time, then each guess is screened in
/// list order on the reply's first body block: a wrong key almost always
/// breaks a length word or the envelope header there, and a guess that
/// passes takes the full open, decode and sanity screen. The first guess
/// that verifies wins, so the result is the one the full path alone
/// would give; the group may have derived up to `LANES - 1` keys past it.
pub fn crack_as_reply(
    config: &ProtocolConfig,
    client: &Principal,
    enc_part: &[u8],
    challenge_r: Option<u64>,
    guesses: &[String],
) -> Option<String> {
    let salt = client.salt();
    let mut deriver = s2k::Deriver::new();
    let mut pt = Vec::new();
    for group in guesses.chunks(LANES) {
        // A short final group fills its spare lanes with its last guess;
        // only the group's own guesses are screened.
        let last = group.len() - 1;
        let keys: [DesKey; LANES] = deriver.derive_lanes(std::array::from_fn(|lane| {
            (group[lane.min(last)].as_str(), salt.as_str())
        }));
        for (guess, kc) in group.iter().zip(keys) {
            if opens_as_reply(config, kc, enc_part, challenge_r, &mut pt) {
                return Some(guess.clone());
            }
        }
    }
    None
}

/// Whether `kc` (under the challenge, if any) opens `enc_part` as a sane
/// AS reply part: the one-block head screen, then the full open, decode,
/// and the parity and time screen.
fn opens_as_reply(
    config: &ProtocolConfig,
    kc: DesKey,
    enc_part: &[u8],
    challenge_r: Option<u64>,
    pt: &mut Vec<u8>,
) -> bool {
    let kc = ScheduledKey::new(kc);
    let key = match challenge_r {
        Some(r) => ScheduledKey::new(hha_key_with(&kc, r)),
        None => kc,
    };
    let Ok(head) = config.ticket_layer.open_head(&key, 0, enc_part) else { return false };
    if config.codec.check_envelope(MsgType::EncAsRepPart, head.bytes(), head.len).is_err() {
        return false;
    }
    if config.ticket_layer.open_into(&key, 0, enc_part, pt).is_err() {
        return false;
    }
    let Ok(part) = EncKdcRepPart::decode(config.codec, MsgType::EncAsRepPart, pt) else {
        return false;
    };
    // Sanity screens against legacy-codec false positives: session keys
    // are parity-correct and times are sane.
    part.session_key.has_odd_parity() && part.server_time <= part.end_time
}

/// A4: passive (wiretap) password guessing.
pub fn run_passive(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);

    // The victim (sam, whose password is a mutated dictionary word)
    // logs in; the wiretap records the dialog.
    if env.login("sam").is_err() {
        return Outcome::safe("victim login failed");
    }
    let sam = env.user("sam");
    let sam_ep = env.realm.user_ep("sam");

    // Recover the AS reply (and the challenge R, if the deployment
    // uses handheld authenticators — R travels in the clear).
    let mut challenge_r = None;
    let mut enc_part = None;
    for r in env.net.traffic_log() {
        if r.dgram.dst != sam_ep {
            continue;
        }
        match r.dgram.payload.first().copied().and_then(WireKind::from_u8) {
            Some(WireKind::Err) => {
                if let Ok(e) = KrbErrorMsg::decode(config.codec, &r.dgram.payload) {
                    if let Some(c) = e.challenge {
                        challenge_r = Some(c);
                    }
                }
            }
            Some(WireKind::AsRep) => {
                if let Ok(rep) = AsRep::decode(config.codec, &r.dgram.payload) {
                    if rep.dh_public.is_some() {
                        return Outcome::safe(
                            "exponential key exchange seals the reply; passive guesses \
                             cannot even be tested"
                        );
                    }
                    enc_part = Some(rep.enc_part);
                }
            }
            _ => {}
        }
    }
    let Some(enc_part) = enc_part else {
        return Outcome::safe("no AS reply captured");
    };

    match crack_as_reply(config, &sam, &enc_part, challenge_r, guesses()) {
        Some(pw) => Outcome::breach(format!("recovered sam's password {pw:?} from the wiretap")),
        None => Outcome::safe("no dictionary guess verified"),
    }
}

/// A5: active ticket harvest — no eavesdropping.
pub fn run_harvest(config: &ProtocolConfig, seed: u64) -> Outcome {
    let mut env = AttackEnv::new(config, seed);
    let attacker_ep = env.attacker_ep();
    let sam = env.user("sam");

    // The attacker requests an AS reply *for sam* from its own
    // workstation. As an active participant it can complete the DH
    // exchange itself — DH does not stop this attack; only
    // preauthentication does.
    let mut padata = Vec::new();
    let dh = if config.dh_login {
        let group = krb_crypto::dh::DhGroup::oakley768();
        let kp = group.keypair(160, &mut env.rng).expect("keypair");
        padata.push(kerberos::messages::PaData::DhPublic(kp.public.to_bytes_be()));
        Some((group, kp))
    } else {
        None
    };
    let req = AsReq {
        client: sam.clone(),
        service: Principal::tgs(&env.realm.name),
        nonce: 7,
        lifetime_us: config.ticket_lifetime_us,
        addr: attacker_ep.addr.0,
        options: kerberos::flags::KdcOptions::empty(),
        padata,
    };
    // The attacker sits on the same lossy wire as everyone else
    // (chaos soak): resend the identical request on loss, like any
    // UDP client would. On a perfect network this is a single shot.
    let wire = req.encode(config.codec);
    let mut sent = 0u32;
    let reply = loop {
        sent += 1;
        match env.net.rpc(attacker_ep, env.realm.kdc_ep, wire.clone()) {
            Ok(r) => break r,
            Err(_) if sent < 8 && env.net.faults_enabled() => {
                env.net.advance(simnet::SimDuration::from_millis(100 * sent as u64));
                env.net.pump();
            }
            Err(e) => return Outcome::safe(format!("harvest request failed: {e}")),
        }
    };
    if let Ok((WireKind::Err, _)) = deframe(&reply) {
        let e = KrbErrorMsg::decode(config.codec, &reply)
            .map(|e| e.text)
            .unwrap_or_else(|_| "?".into());
        return Outcome::safe(format!("KDC refused unauthenticated request: {e}"));
    }
    let Ok(rep) = AsRep::decode(config.codec, &reply) else {
        return Outcome::safe("unparseable reply");
    };

    // Peel the attacker's own DH layer if present.
    let enc_part = match (&dh, &rep.dh_public) {
        (Some((group, kp)), Some(server_pub)) => {
            let their = krb_crypto::bignum::BigUint::from_bytes_be(server_pub);
            let secret = group.shared_secret(&their, &kp.private).expect("shared");
            let dh_key = krb_crypto::dh::DhGroup::derive_key(&secret);
            match config.ticket_layer.open(&dh_key, 0, &rep.enc_part) {
                Ok(inner) => inner,
                Err(e) => return Outcome::safe(format!("DH unseal failed: {e}")),
            }
        }
        _ => rep.enc_part.clone(),
    };

    match crack_as_reply(config, &sam, &enc_part, rep.challenge_r, guesses()) {
        Some(pw) => {
            Outcome::breach(format!("harvested {{...}}K_sam without eavesdropping; cracked {pw:?}"))
        }
        None => Outcome::safe("no dictionary guess verified"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_cracks_v4_and_draft3() {
        assert!(run_passive(&ProtocolConfig::v4(), 1).succeeded);
        assert!(run_passive(&ProtocolConfig::v5_draft3(), 1).succeeded);
    }

    #[test]
    fn dh_layer_blocks_passive() {
        assert!(!run_passive(&ProtocolConfig::hardened(), 1).succeeded);
        // Even v4 + DH alone blocks the passive attack.
        let mut config = ProtocolConfig::v4();
        config.dh_login = true;
        assert!(!run_passive(&config, 2).succeeded);
    }

    #[test]
    fn active_harvest_cracks_v4_and_draft3() {
        assert!(run_harvest(&ProtocolConfig::v4(), 1).succeeded);
        assert!(run_harvest(&ProtocolConfig::v5_draft3(), 1).succeeded);
    }

    #[test]
    fn dh_alone_does_not_block_active_harvest() {
        // The paper's caveat: the attacker can do the key exchange
        // itself.
        let mut config = ProtocolConfig::v4();
        config.dh_login = true;
        assert!(run_harvest(&config, 2).succeeded);
    }

    #[test]
    fn preauth_blocks_active_harvest() {
        assert!(!run_harvest(&ProtocolConfig::hardened(), 1).succeeded);
        let mut config = ProtocolConfig::v4();
        config.preauth = kerberos::PreauthMode::EncTimestamp;
        assert!(!run_harvest(&config, 3).succeeded);
    }

    #[test]
    fn strong_passwords_resist_even_when_protocol_is_weak() {
        // pat's passphrase is not in any dictionary; cracking the
        // captured reply fails even on V4.
        let config = ProtocolConfig::v4();
        let mut env = AttackEnv::new(&config, 9);
        env.login("pat").unwrap();
        let pat = env.user("pat");
        let pat_ep = env.realm.user_ep("pat");
        let rep = env
            .net
            .traffic_log()
            .iter()
            .find(|r| {
                r.dgram.dst == pat_ep
                    && r.dgram.payload.first().copied().and_then(WireKind::from_u8)
                        == Some(WireKind::AsRep)
            })
            .map(|r| AsRep::decode(config.codec, &r.dgram.payload).unwrap())
            .unwrap();
        assert!(crack_as_reply(&config, &pat, &rep.enc_part, None, guesses()).is_none());
    }
}
