//! E6 — encryption-layer throughput: V4 PCBC vs Draft-3 CBC(+confounder)
//! vs hardened CBC+MAC, across message sizes; and E13's one DES block,
//! fused SP-table kernel vs the retained reference.

use bench::bench::{Harness, Throughput};
use kerberos::enclayer::EncLayer;
use krb_crypto::des::{self, DesKey, KeySchedule};
use krb_crypto::rng::Drbg;

const LAYERS: [(&str, EncLayer); 3] = [
    ("v4-pcbc", EncLayer::V4Pcbc),
    ("v5-cbc-conf", EncLayer::V5Cbc { confounder: true }),
    ("hardened-cbc-mac", EncLayer::HardenedCbc),
];

fn bench_seal(h: &mut Harness) {
    let key = DesKey::from_u64(0x0123456789ABCDEF).with_odd_parity();
    for size in [64usize, 1024, 8192] {
        let data = vec![0x5au8; size];
        for (name, layer) in LAYERS {
            let mut rng = Drbg::new(1);
            h.run_throughput(
                &format!("enc_layer_seal/{name}/{size}"),
                Throughput::Bytes(size as u64),
                || layer.seal(&key, 7, std::hint::black_box(&data), &mut rng).unwrap(),
            );
        }
    }
}

fn bench_open(h: &mut Harness) {
    let key = DesKey::from_u64(0x0123456789ABCDEF).with_odd_parity();
    for size in [64usize, 1024, 8192] {
        let data = vec![0x5au8; size];
        for (name, layer) in LAYERS {
            let mut rng = Drbg::new(1);
            let ct = layer.seal(&key, 7, &data, &mut rng).unwrap();
            h.run_throughput(
                &format!("enc_layer_open/{name}/{size}"),
                Throughput::Bytes(size as u64),
                || layer.open(&key, 7, std::hint::black_box(&ct)).unwrap(),
            );
        }
    }
}

fn bench_checksums(h: &mut Harness) {
    use krb_crypto::checksum::{compute, ChecksumType};
    let key = DesKey::from_u64(0x0123456789ABCDEF).with_odd_parity();
    let data = vec![0xa5u8; 1024];
    for (name, ctype, keyed) in [
        ("crc32", ChecksumType::Crc32, false),
        ("crc32-des", ChecksumType::Crc32Des, true),
        ("md4", ChecksumType::Md4, false),
        ("md4-des", ChecksumType::Md4Des, true),
    ] {
        h.run(&format!("checksum_1k/{name}"), || {
            compute(ctype, keyed.then_some(&key), std::hint::black_box(&data)).unwrap()
        });
    }
}

fn bench_des_block(h: &mut Harness) {
    let ks = KeySchedule::new(&DesKey::from_u64(0x0123456789ABCDEF));
    let block = 0x4E6F772069732074u64;
    h.run("des_block/fast", || des::encrypt_block(&ks, std::hint::black_box(block)));
    h.run("des_block/reference", || des::reference::encrypt_block(&ks, std::hint::black_box(block)));
}

fn main() {
    let mut h = Harness::new("enc_layer");
    bench_des_block(&mut h);
    bench_seal(&mut h);
    bench_open(&mut h);
    bench_checksums(&mut h);
    h.finish();
}
