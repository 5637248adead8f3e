//! E5 (bench half) — end-to-end cost of a full authentication under each
//! configuration (login + TGS + AP exchange on the simulated network).

use bench::bench::Harness;
use kerberos::appserver::connect_app;
use kerberos::client::{get_service_ticket, login, LoginInput, TgsParams};
use kerberos::testbed::standard_campus;
use kerberos::ProtocolConfig;
use krb_crypto::rng::Drbg;
use simnet::{Network, SimDuration};

fn bench_full_auth(h: &mut Harness) {
    for config in ProtocolConfig::presets() {
        h.run_with_setup(
            &format!("full_auth_chain/{}", config.name),
            || {
                let mut net = Network::new();
                net.advance(SimDuration::from_secs(1_000_000));
                let realm = standard_campus(&mut net, &config, 9);
                (net, realm, Drbg::new(10))
            },
            |(mut net, realm, mut rng)| {
                let tgt = login(
                    &mut net,
                    &config,
                    realm.user_ep("pat"),
                    realm.kdc_ep,
                    &realm.user("pat"),
                    LoginInput::Password("correct-horse-battery"),
                    &mut rng,
                )
                .unwrap();
                let st = get_service_ticket(
                    &mut net,
                    &config,
                    realm.user_ep("pat"),
                    realm.kdc_ep,
                    &tgt,
                    &realm.service("echo"),
                    TgsParams::default(),
                    &mut rng,
                )
                .unwrap();
                connect_app(&mut net, &config, realm.user_ep("pat"), realm.service_ep("echo"), &st, &mut rng)
                    .unwrap()
            },
        );
    }
}

fn bench_login_only(h: &mut Harness) {
    for config in ProtocolConfig::presets() {
        h.run_with_setup(
            &format!("login_only/{}", config.name),
            || {
                let mut net = Network::new();
                net.advance(SimDuration::from_secs(1_000_000));
                let realm = standard_campus(&mut net, &config, 11);
                (net, realm, Drbg::new(12))
            },
            |(mut net, realm, mut rng)| {
                login(
                    &mut net,
                    &config,
                    realm.user_ep("pat"),
                    realm.kdc_ep,
                    &realm.user("pat"),
                    LoginInput::Password("correct-horse-battery"),
                    &mut rng,
                )
                .unwrap()
            },
        );
    }
}

fn main() {
    let mut h = Harness::new("auth_modes");
    bench_full_auth(&mut h);
    bench_login_only(&mut h);
    h.finish();
}
