//! E2 — password-guessing yield by password class and protocol variant.
//!
//! Reproduces the paper's claims that (a) recorded or harvested AS
//! replies fall to dictionary attack at high rates for weak passwords,
//! (b) the DH layer stops passive guessing, and (c) preauthentication
//! stops active harvesting.
//!
//! Run: `cargo run --release -p bench --bin table_password_guessing`
//! The cracker's wall rate per guess is `cargo bench -p bench --bench
//! pw_guess` and kbench's `attacks.pw_guess.ns_per_guess`.

use attacks::pw_guess::crack_as_reply;
use attacks::workload::{generate_population, guess_list, PasswordClass};
use bench::{BenchJson, TextTable};
use kerberos::database::KdcDatabase;
use kerberos::kdc::{Kdc, KDC_PORT};
use kerberos::messages::{deframe, AsRep, AsReq, WireKind};
use kerberos::{Principal, ProtocolConfig};
use krb_crypto::rng::{Drbg, RandomSource};
use simnet::{Addr, Endpoint, Host, Network, SimDuration};

const POPULATION: usize = 60;

fn main() {
    println!("E2: password-guessing yield ({POPULATION}-user population, 1990-style cracker)");
    let mix = [
        (PasswordClass::DictionaryWord, 0.35),
        (PasswordClass::MutatedWord, 0.40),
        (PasswordClass::Random, 0.25),
    ];
    let population = generate_population(POPULATION, &mix, 0xE2);
    let guesses = guess_list();
    println!("dictionary+mutations: {} guesses", guesses.len());

    let mut table = TextTable::new(&[
        "config", "harvest", "dict-cracked", "mutated-cracked", "random-cracked", "total", "guesses tried",
    ]);

    let mut json = BenchJson::new("E2");
    json.int("population", POPULATION as u64).int("guesses", guesses.len() as u64);
    for config in ProtocolConfig::presets() {
        // Stand up a KDC with the whole population registered.
        let mut net = Network::new();
        net.advance(SimDuration::from_secs(1_000_000));
        let mut db = KdcDatabase::new("ATHENA");
        let mut rng = Drbg::new(1);
        db.add_tgs(rng.gen_des_key());
        for (user, pw, _) in &population {
            db.add_user(user, pw);
        }
        let kdc_addr = Addr::new(10, 9, 0, 250);
        let mut kdc_host = Host::new("kerberos", vec![kdc_addr]);
        kdc_host.bind(KDC_PORT, Box::new(Kdc::new(config.clone(), db, 2)));
        net.add_host(kdc_host);
        net.add_host(Host::new("attacker", vec![Addr::new(10, 9, 0, 1)]));
        let kdc_ep = Endpoint::new(kdc_addr, KDC_PORT);
        let attacker_ep = Endpoint::new(Addr::new(10, 9, 0, 1), 1024);

        // Harvest phase (active, A5-style): request an AS reply per
        // user.
        let mut harvested = Vec::new();
        for (user, _, class) in &population {
            let client = Principal::user(user, "ATHENA");
            let req = AsReq {
                client: client.clone(),
                service: Principal::tgs("ATHENA"),
                nonce: 1,
                lifetime_us: config.ticket_lifetime_us,
                addr: attacker_ep.addr.0,
                options: kerberos::flags::KdcOptions::empty(),
                padata: vec![],
            };
            let Ok(reply) = net.rpc(attacker_ep, kdc_ep, req.encode(config.codec)) else { continue };
            if let Ok((WireKind::AsRep, _)) = deframe(&reply) {
                if let Ok(rep) = AsRep::decode(config.codec, &reply) {
                    if rep.dh_public.is_none() {
                        harvested.push((client, rep.enc_part, rep.challenge_r, *class));
                    }
                }
            }
        }

        // Cracking phase.
        let mut cracked = [0usize; 3];
        let mut totals = [0usize; 3];
        for (_, _, class) in &population {
            totals[class_idx(*class)] += 1;
        }
        let mut guesses_tried = 0usize;
        for (client, enc, r, class) in &harvested {
            let found = crack_as_reply(&config, client, enc, *r, &guesses);
            // Guesses are screened in list order up to the hit (whose
            // lane group may have derived a key or two past it), so it
            // tried the guesses up to and including it, or every guess
            // when none matched.
            guesses_tried += found
                .as_ref()
                .and_then(|pw| guesses.iter().position(|g| g == pw))
                .map_or(guesses.len(), |i| i + 1);
            if found.is_some() {
                cracked[class_idx(*class)] += 1;
            }
        }

        json.int(&format!("harvested.{}", config.name), harvested.len() as u64);
        json.int(&format!("cracked.{}", config.name), cracked.iter().sum::<usize>() as u64);
        json.int(&format!("guesses_tried.{}", config.name), guesses_tried as u64);
        json.metrics(&net.tracer().snapshot());
        table.row(&[
            config.name.into(),
            format!("{}/{}", harvested.len(), population.len()),
            frac(cracked[0], totals[0]),
            frac(cracked[1], totals[1]),
            frac(cracked[2], totals[2]),
            frac(cracked.iter().sum(), POPULATION),
            guesses_tried.to_string(),
        ]);
    }
    table.print("E2: crack yield by class (paper: weak passwords fall; DH/preauth stop the harvest)");
    json.write("password_guessing");
}

fn class_idx(c: PasswordClass) -> usize {
    match c {
        PasswordClass::DictionaryWord => 0,
        PasswordClass::MutatedWord => 1,
        PasswordClass::Random => 2,
    }
}

fn frac(n: usize, d: usize) -> String {
    if d == 0 {
        "-".into()
    } else {
        format!("{n}/{d} ({:.0}%)", 100.0 * n as f64 / d as f64)
    }
}
