//! E4 (bench half) — modular exponentiation cost per DH group, the
//! full-exchange overhead the login DH layer adds, and the attacker's
//! discrete-log cost at every point of `table_dh_tradeoff`'s curves.

use bench::bench::Harness;
use krb_crypto::bignum::mod_exp;
use krb_crypto::dh::DhGroup;
use krb_crypto::rng::Drbg;

fn bench_modexp(h: &mut Harness) {
    for g in [DhGroup::toy64(), DhGroup::small192(), DhGroup::oakley768(), DhGroup::oakley1024()] {
        let mut rng = Drbg::new(4);
        let kp = g.keypair(160.min(g.p.bit_len() - 1), &mut rng).unwrap();
        h.run(&format!("dh_modexp/{}", g.name), || mod_exp(&g.g, &kp.private, &g.p).unwrap());
    }
}

fn bench_full_exchange(h: &mut Harness) {
    for g in [DhGroup::small192(), DhGroup::oakley768()] {
        let mut rng = Drbg::new(5);
        h.run(&format!("dh_full_exchange/{}", g.name), || {
            let a = g.keypair(160.min(g.p.bit_len() - 1), &mut rng).unwrap();
            let bb = g.keypair(160.min(g.p.bit_len() - 1), &mut rng).unwrap();
            let s = g.shared_secret(&bb.public, &a.private).unwrap();
            DhGroup::derive_key(&s)
        });
    }
}

fn bench_dlog_attack(h: &mut Harness) {
    let g = DhGroup::toy64();
    for bits in [16usize, 20, 24, 28] {
        let mut rng = Drbg::new(6);
        let kp = g.keypair(bits, &mut rng).unwrap();
        h.run(&format!("dlog_bsgs/{bits}"), || {
            krb_crypto::dlog::bsgs(&g.g, &kp.public, &g.p, 1u64 << bits).unwrap()
        });
    }
    for bits in [14usize, 18, 21] {
        let mut rng = Drbg::new(0x200 + bits as u64);
        let sub = DhGroup::generate_safe(bits, &mut rng).unwrap();
        let q = sub.order.clone().unwrap();
        let secret = krb_crypto::bignum::random_below(&q, &mut rng);
        let pubkey = mod_exp(&sub.g, &secret, &sub.p).unwrap();
        h.run(&format!("dlog_rho/{bits}"), || {
            krb_crypto::dlog::pollard_rho(&sub.g, &pubkey, &sub.p, &q, &mut rng)
        });
    }
}

fn bench_montgomery(h: &mut Harness) {
    use krb_crypto::bignum::MontgomeryCtx;
    let g = DhGroup::oakley768();
    let mut rng = Drbg::new(7);
    let kp = g.keypair(160, &mut rng).unwrap();
    h.run("modexp_impl_768bit/division-based", || mod_exp(&g.g, &kp.private, &g.p).unwrap());
    let ctx = MontgomeryCtx::new(&g.p).unwrap();
    h.run("modexp_impl_768bit/montgomery", || ctx.mod_exp(&g.g, &kp.private).unwrap());
}

fn main() {
    let mut h = Harness::new("dh_cost");
    bench_modexp(&mut h);
    bench_full_exchange(&mut h);
    bench_dlog_attack(&mut h);
    bench_montgomery(&mut h);
    h.finish();
}
