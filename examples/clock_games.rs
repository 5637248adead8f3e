//! "The security of Kerberos depends critically on synchronized clocks":
//! spoofing an unauthenticated time service to resurrect a stale
//! authenticator — and the authenticated time service refusing to budge.
//!
//! Run: `cargo run --example clock_games`

use kerberos_limits::atk::time_spoof;
use kerberos_limits::krb::ProtocolConfig;
use kerberos_limits::net::time::{
    krb_key::MacKey, sync_authenticated, sync_unauthenticated, AuthTimeService, SyncOutcome,
    TimeService, TIME_PORT,
};
use kerberos_limits::net::{
    Addr, Clock, Datagram, Endpoint, Host, Network, ScriptedTap, SimDuration, Verdict,
};

fn main() {
    // Scene 1: the raw mechanics of clock spoofing.
    println!("== Scene 1: rewriting an unauthenticated time reply ==");
    let mut net = Network::new();
    let ws = net.add_host(Host::new("ws", vec![Addr::new(10, 0, 0, 1)]).with_clock(Clock::skewed(0, 0)));
    let mut th = Host::new("timehost", vec![Addr::new(10, 0, 0, 9)]);
    th.bind(TIME_PORT, Box::new(TimeService));
    net.add_host(th);
    net.advance(SimDuration::from_secs(1000));
    let ts_ep = Endpoint::new(Addr::new(10, 0, 0, 9), TIME_PORT);

    net.set_tap(Box::new(ScriptedTap::new(|d: &mut Datagram, _| {
        if d.src.port == TIME_PORT && d.payload.len() >= 4 {
            let old = u32::from_be_bytes(d.payload[..4].try_into().unwrap());
            d.payload[..4].copy_from_slice(&(old - 600).to_be_bytes());
        }
        Verdict::Deliver
    })));
    sync_unauthenticated(&mut net, ws, ts_ep).expect("sync");
    let _ = net.take_tap();
    println!(
        "true time: {}s; workstation now believes: {}s (10 minutes in the past)",
        net.now().0 / 1_000_000,
        net.host_time(ws).0 / 1_000_000
    );

    // The authenticated service shrugs the same tap off.
    let key = MacKey(0x5ec_u64);
    let mut ath = Host::new("authtime", vec![Addr::new(10, 0, 0, 10)]);
    ath.bind(TIME_PORT, Box::new(AuthTimeService::new(key)));
    net.add_host(ath);
    let ats_ep = Endpoint::new(Addr::new(10, 0, 0, 10), TIME_PORT);
    net.set_tap(Box::new(ScriptedTap::new(|d: &mut Datagram, _| {
        if d.src.port == TIME_PORT && d.payload.len() >= 4 {
            let old = u32::from_be_bytes(d.payload[..4].try_into().unwrap());
            d.payload[..4].copy_from_slice(&(old - 600).to_be_bytes());
        }
        Verdict::Deliver
    })));
    let outcome = sync_authenticated(&mut net, ws, ats_ep, key, 42).expect("rpc");
    let _ = net.take_tap();
    println!("authenticated sync against the same tap: {outcome:?} (clock untouched)\n");
    assert_eq!(outcome, SyncOutcome::Rejected);

    // Scene 2: the full A3 attack against each configuration.
    println!("== Scene 2: stale-authenticator replay via clock spoof (attack A3) ==");
    for config in ProtocolConfig::presets() {
        let r = time_spoof::run(&config, 3);
        println!("  {:10} -> {}: {}", config.name, if r.succeeded { "BREACH" } else { "safe" }, r.evidence);
    }
    println!(
        "\npaper: \"the Kerberos protocols involve mutual trust among four parties: the\n\
         client, server, authentication server and time server.\""
    );
}
