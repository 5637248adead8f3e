//! E8 — the overhead of routing cryptographic operations through the
//! (simulated) host encryption unit instead of software key handling.

use bench::bench::Harness;
use hardware::EncryptionUnit;
use kerberos::enclayer::EncLayer;
use kerberos::ProtocolConfig;
use krb_crypto::des::DesKey;
use krb_crypto::key::KeyPurpose;
use krb_crypto::rng::Drbg;

fn bench_seal_paths(h: &mut Harness) {
    let config = ProtocolConfig::hardened();
    let key = DesKey::from_u64(0x0123456789ABCDEF).with_odd_parity();
    let data = vec![0x5au8; 256];

    // Software path: key in host memory.
    let mut rng = Drbg::new(1);
    h.run("seal_256B_software", || {
        EncLayer::HardenedCbc.seal(&key, 3, std::hint::black_box(&data), &mut rng).unwrap()
    });

    // Hardware path: key sealed in the unit, addressed by handle, audit
    // log appended per op.
    let mut unit = EncryptionUnit::new(config.clone(), 2);
    let slot = unit.load_key(key, KeyPurpose::AppSession);
    h.run("seal_256B_hardware_unit", || {
        unit.seal_data(slot, 3, std::hint::black_box(&data)).unwrap()
    });
}

fn bench_unit_ticket_ops(h: &mut Harness) {
    use kerberos::flags::TicketFlags;
    use kerberos::principal::Principal;
    use kerberos::ticket::Ticket;
    let config = ProtocolConfig::hardened();
    let mut rng = Drbg::new(3);
    let service_key = DesKey::from_u64(0xFEDCBA9876543210).with_odd_parity();
    let ticket = Ticket {
        flags: TicketFlags::empty(),
        client: Principal::user("pat", "R"),
        service: Principal::service("files", "h", "R"),
        addr: None,
        auth_time: 0,
        start_time: 0,
        end_time: 1_000_000_000,
        session_key: DesKey::from_u64(0x1111111111111111).with_odd_parity(),
        transited: vec![],
    };
    let sealed = ticket.seal(config.codec, config.ticket_layer, &service_key, &mut rng).unwrap();

    h.run("decrypt_ticket_software", || {
        Ticket::unseal(config.codec, config.ticket_layer, &service_key, std::hint::black_box(&sealed))
            .unwrap()
    });

    let mut unit = EncryptionUnit::new(config.clone(), 4);
    let slot = unit.load_key(service_key, KeyPurpose::Service);
    h.run("decrypt_ticket_hardware_unit", || {
        unit.decrypt_ticket(slot, std::hint::black_box(&sealed)).unwrap()
    });
}

fn main() {
    let mut h = Harness::new("hardware_unit");
    bench_seal_paths(&mut h);
    bench_unit_ticket_ops(&mut h);
    h.finish();
}
