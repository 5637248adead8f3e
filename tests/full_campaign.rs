//! The full-campaign test: one deterministic scenario exercising the
//! whole system together — normal operations, an active adversary
//! attempting every attack, and the hardened deployment surviving all of
//! it while the Draft-3 deployment falls.

use attacks::{all_attacks, AttackReport};
use kerberos::appserver::connect_app;
use kerberos::client::{get_service_ticket, login, renew_tgt, LoginInput, TgsParams};
use kerberos::testbed::standard_campus;
use kerberos::ProtocolConfig;
use krb_crypto::rng::Drbg;
use simnet::{Network, SimDuration};

/// A normal multi-user workday: everything must keep working under the
/// hardened configuration even with all defenses active.
#[test]
fn hardened_campus_survives_a_full_workday() {
    let config = ProtocolConfig::hardened();
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000));
    let realm = standard_campus(&mut net, &config, 0xDA7);
    let mut rng = Drbg::new(0xDA8);

    let mut total_commands = 0;
    for morning in 0..3u64 {
        for (user, pw) in [("pat", "correct-horse-battery"), ("sam", "wombat7")] {
            let mut tgt = login(
                &mut net,
                &config,
                realm.user_ep(user),
                realm.kdc_ep,
                &realm.user(user),
                LoginInput::Password(pw),
                &mut rng,
            )
            .expect("morning login");

            // Mid-day renewal keeps the credential fresh.
            net.advance(SimDuration::from_secs(3600));
            tgt = renew_tgt(&mut net, &config, realm.user_ep(user), realm.kdc_ep, &tgt, &mut rng)
                .expect("renewal");

            for service in ["files", "mail", "backup", "echo"] {
                let st = get_service_ticket(
                    &mut net,
                    &config,
                    realm.user_ep(user),
                    realm.kdc_ep,
                    &tgt,
                    &realm.service(service),
                    TgsParams::default(),
                    &mut rng,
                )
                .expect("service ticket");
                let mut conn = connect_app(
                    &mut net,
                    &config,
                    realm.user_ep(user),
                    realm.service_ep(service),
                    &st,
                    &mut rng,
                )
                .expect("session");
                for i in 0..3 {
                    let cmd = match service {
                        "files" => format!("PUT d{morning}-{i}.txt content {i}"),
                        "mail" => format!("SEND {user} daily note {i}"),
                        "backup" => format!("ARCHIVE d{morning}-{i}.txt v{i}"),
                        _ => format!("ping {i}"),
                    };
                    conn.request(&mut net, cmd.as_bytes(), &mut rng).expect("command");
                    total_commands += 1;
                }
            }
        }
        net.advance(SimDuration::from_secs(18 * 3600));
    }
    assert_eq!(total_commands, 3 * 2 * 4 * 3);

    // The trace counted every issuance (`kdc.issued{client}`).
    let issued: u64 = net
        .tracer()
        .snapshot()
        .iter()
        .filter(|(k, _)| k.starts_with("kdc.issued{"))
        .map(|(_, v)| v)
        .sum();
    assert!(issued >= 3 * 2 * (1 + 1 + 4), "issued = {issued}");
}

/// The adversary throws the entire arsenal at both deployments.
#[test]
fn campaign_draft3_falls_hardened_stands() {
    let run = |config: &ProtocolConfig| -> Vec<AttackReport> {
        all_attacks().iter().map(|a| a.run(config, 0xCA41)).collect()
    };

    let d3 = run(&ProtocolConfig::v5_draft3());
    let hardened = run(&ProtocolConfig::hardened());

    let d3_breaches = d3.iter().filter(|r| r.succeeded).count();
    let hard_breaches: Vec<&AttackReport> = hardened.iter().filter(|r| r.succeeded).collect();

    assert!(d3_breaches >= 10, "draft3 should fall broadly, got {d3_breaches} breaches");
    assert!(
        hard_breaches.is_empty(),
        "hardened must stand: {:?}",
        hard_breaches.iter().map(|r| (r.id, &r.evidence)).collect::<Vec<_>>()
    );
}

/// Mixed-era interop sanity: a hardened KDC deployment is internally
/// consistent even when time jumps around (clock discipline).
#[test]
fn time_jumps_do_not_break_fresh_logins() {
    let config = ProtocolConfig::hardened();
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000));
    let realm = standard_campus(&mut net, &config, 0xF1);
    let mut rng = Drbg::new(0xF2);

    for jump_hours in [0u64, 1, 12, 48] {
        net.advance(SimDuration::from_secs(jump_hours * 3600));
        let tgt = login(
            &mut net,
            &config,
            realm.user_ep("pat"),
            realm.kdc_ep,
            &realm.user("pat"),
            LoginInput::Password("correct-horse-battery"),
            &mut rng,
        )
        .expect("login after time jump");
        assert!(tgt.end_time > net.now().0);
    }
}
