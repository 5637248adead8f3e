//! E7 (bench half) — session send/receive throughput: timestamp caching
//! vs sequence numbers, as session history grows.

use bench::bench::Harness;
use kerberos::session::{Direction, Session};
use kerberos::{Principal, ProtocolConfig};
use krb_crypto::des::DesKey;
use krb_crypto::rng::Drbg;

fn make_pair(config: &ProtocolConfig) -> (Session, Session) {
    let key = DesKey::from_u64(0x2468ACE013579BDF).with_odd_parity();
    let c = Session::new(Principal::service("fs", "h", "R"), key, config, Direction::ClientToServer, 100, 500);
    let s = Session::new(Principal::user("pat", "R"), key, config, Direction::ServerToClient, 500, 100);
    (c, s)
}

fn main() {
    let mut h = Harness::new("seq_vs_ts");
    for (label, config, history) in [
        ("timestamps-fresh", ProtocolConfig::v5_draft3(), 0usize),
        ("timestamps-10k-history", ProtocolConfig::v5_draft3(), 10_000),
        ("seqnums-fresh", ProtocolConfig::hardened(), 0),
        ("seqnums-10k-history", ProtocolConfig::hardened(), 10_000),
    ] {
        let mut rng = Drbg::new(7);
        let (mut cs, mut ss) = make_pair(&config);
        // Pre-populate history.
        for i in 0..history {
            let w = cs.send_priv(b"warm", 1_000 + i as u64, 7, &mut rng).unwrap();
            ss.recv_priv(&w, 1_000 + i as u64).unwrap();
        }
        let mut t = 1_000_000u64;
        h.run(&format!("session_roundtrip/{label}"), || {
            t += 1;
            let w = cs.send_priv(std::hint::black_box(b"command bytes"), t, 7, &mut rng).unwrap();
            ss.recv_priv(&w, t).unwrap()
        });
    }
    h.finish();
}
