//! E2 (bench half) — the attacker's guess-verification rate against a
//! recorded AS reply, per configuration.

use attacks::pw_guess::crack_as_reply;
use bench::bench::{Harness, Throughput};
use kerberos::encoding::MsgType;
use kerberos::messages::EncKdcRepPart;
use kerberos::{Principal, ProtocolConfig};
use krb_crypto::rng::{Drbg, RandomSource};
use krb_crypto::s2k;

/// Builds a realistic sealed AS-reply part under the victim's key.
fn sealed_reply(config: &ProtocolConfig, client: &Principal, password: &str) -> Vec<u8> {
    let mut rng = Drbg::new(3);
    let kc = s2k::string_to_key_v5(password, &client.salt());
    let part = EncKdcRepPart {
        session_key: rng.gen_des_key(),
        nonce: 42,
        ticket: vec![0xaa; 96],
        end_time: 9_999_999,
        server_time: 1_000_000,
        ticket_cksum: None,
    };
    config
        .ticket_layer
        .seal(&kc, 0, &part.encode(config.codec, MsgType::EncAsRepPart), &mut rng)
        .unwrap()
}

fn bench_guess_rate(h: &mut Harness) {
    let client = Principal::user("victim", "ATHENA");
    // 512 wrong guesses: measures the *verification* rate (the attack's
    // inner loop), not the lucky hit.
    let guesses: Vec<String> = (0..512).map(|i| format!("wrong-guess-{i}")).collect();
    for config in [ProtocolConfig::v4(), ProtocolConfig::v5_draft3()] {
        let sealed = sealed_reply(&config, &client, "the-actual-password");
        h.run_throughput(
            &format!("pw_guess_rate/{}", config.name),
            Throughput::Elements(guesses.len() as u64),
            || crack_as_reply(&config, &client, std::hint::black_box(&sealed), None, &guesses),
        );
    }
}

fn bench_s2k(h: &mut Harness) {
    // string-to-key dominates each guess: measure it alone, over salts
    // built before the timing starts.
    let salts: Vec<String> = (0..1024).map(|i| i.to_string()).collect();
    let mut i = 0;
    h.run("string_to_key", || {
        i = (i + 1) % salts.len();
        s2k::string_to_key_v5(std::hint::black_box("candidate-password"), &salts[i])
    });
}

fn main() {
    let mut h = Harness::new("pw_guess");
    bench_guess_rate(&mut h);
    bench_s2k(&mut h);
    h.finish();
}
