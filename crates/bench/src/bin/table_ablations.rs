//! Defense ablations: starting from the vulnerable v5-draft3 baseline,
//! apply ONE recommended change at a time and re-run every attack.
//! This shows which fix stops which attack — the paper's recommendation
//! list as a causal table.
//!
//! Run: `cargo run --release -p bench --bin table_ablations`

use attacks::all_attacks;
use bench::{BenchJson, TextTable};
use kerberos::{AppProtection, AuthStyle, Freshness, PreauthMode, ProtocolConfig};
use krb_crypto::checksum::ChecksumType;

/// One ablation: a name and a config mutation.
fn ablations() -> Vec<(&'static str, ProtocolConfig)> {
    let base = ProtocolConfig::v5_draft3;
    let mut v: Vec<(&'static str, ProtocolConfig)> = vec![("baseline (v5-draft3)", base())];

    let mut c = base();
    c.replay_cache = true;
    v.push(("+replay cache", c));

    let mut c = base();
    c.auth_style = AuthStyle::ChallengeResponse;
    v.push(("+challenge/response (a)", c));

    let mut c = base();
    c.preauth = PreauthMode::EncTimestamp;
    v.push(("+preauthentication (g)", c));

    let mut c = base();
    c.dh_login = true;
    v.push(("+exponential key exchange (h)", c));

    let mut c = base();
    c.hha_login = true;
    v.push(("+handheld authenticator (c)", c));

    let mut c = base();
    c.subkey_negotiation = true;
    v.push(("+true session keys (e)", c));

    let mut c = base();
    c.freshness = Freshness::SequenceNumbers;
    c.priv_layer = kerberos::enclayer::EncLayer::HardenedCbc;
    v.push(("+sequence numbers + hardened priv layer (d)", c));

    let mut c = base();
    c.checksum = ChecksumType::Md4Des;
    v.push(("+collision-proof checksum (b/c)", c));

    let mut c = base();
    c.enforce_cname_match = true;
    v.push(("+cname check (the omitted requirement)", c));

    let mut c = base();
    c.allow_enc_tkt_in_skey = false;
    c.allow_reuse_skey = false;
    v.push(("-ENC-TKT-IN-SKEY / -REUSE-SKEY (new d)", c));

    let mut c = base();
    c.service_binding = true;
    v.push(("+service binding in authenticator", c));

    let mut c = base();
    c.forbid_duplicate_skey_auth = true;
    v.push(("+obey DUPLICATE-SKEY warning", c));

    // The paper's claim that address binding buys nothing: removing it
    // should change no row.
    let mut c = base();
    c.address_in_ticket = false;
    v.push(("-address in ticket (paper: useless)", c));

    // And for the v4-era encoding question: typed codec on the V4 stack.
    let mut c = ProtocolConfig::v4();
    c.codec = kerberos::encoding::Codec::Typed;
    v.push(("v4 +typed encoding (b)", c));

    let mut c = ProtocolConfig::v4();
    c.app_protection = AppProtection::Priv;
    v.push(("v4 +KRB_PRIV app data", c));

    v
}

fn main() {
    println!("Defense ablations x attacks (BREACH = attack still works)");
    let attacks = all_attacks();
    let mut headers: Vec<&str> = vec!["ablation"];
    let ids: Vec<&str> = attacks.iter().map(|a| a.id).collect();
    headers.extend(ids.iter());
    let mut table = TextTable::new(&headers);

    let mut json = BenchJson::new("E11");
    json.int("attacks", attacks.len() as u64);
    for (name, config) in ablations() {
        let mut cells = vec![name.to_string()];
        let mut breaches = 0u64;
        for attack in attacks {
            let r = attack.run(&config, 0xab1a);
            breaches += u64::from(r.succeeded);
            cells.push(if r.succeeded { "X".into() } else { ".".into() });
        }
        json.int(&format!("breaches.{name}"), breaches);
        table.row(&cells);
    }
    table.print("X = breach, . = safe");
    json.write("ablations");

    println!(
        "Reading guide: each recommended change eliminates exactly the rows the paper\n\
         attributes to it; removing the network address from tickets (second-to-last\n\
         line for draft3) changes nothing — \"no extra security is gained by relying\n\
         on the network address.\""
    );
}
