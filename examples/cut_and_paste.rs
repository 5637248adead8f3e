//! The appendix's showpiece: the ENC-TKT-IN-SKEY cut-and-paste attack,
//! narrated step by step, against Draft 3 with CRC-32 — then against the
//! two fixes.
//!
//! Run: `cargo run --example cut_and_paste`

use kerberos_limits::atk::cut_paste;
use kerberos_limits::krb::ProtocolConfig;
use krb_crypto::checksum::ChecksumType;
use krb_crypto::crc32::{crc32, forge_suffix};

fn main() {
    // Act 0: the enabling primitive — CRC-32 forgery by linearity.
    println!("== Act 0: CRC-32 is not collision-proof ==");
    let original = b"service=files options=NONE";
    let modified = b"service=files options=ENC-TKT-IN-SKEY tickets=[attacker-tgt] authz=";
    let patch = forge_suffix(modified, crc32(original));
    let mut forged = modified.to_vec();
    forged.extend_from_slice(&patch);
    println!("  crc32(original)         = {:08x}", crc32(original));
    println!("  crc32(modified+patch)   = {:08x}  (patch = {:02x?})", crc32(&forged), patch);
    assert_eq!(crc32(original), crc32(&forged));
    println!("  -> the checksum 'sealed in the encrypted authenticator' still verifies.\n");

    // Act 1: the full attack against Draft 3 as written.
    println!("== Act 1: against v5-draft3 (CRC-32 permitted, cname check omitted) ==");
    let r = cut_paste::run(&ProtocolConfig::v5_draft3(), 1991);
    println!("  outcome: {}", if r.succeeded { "BREACH" } else { "safe" });
    println!("  {}\n", r.evidence);

    // Act 2: the fix the designers intended (cname match).
    println!("== Act 2: with the cname check Draft 3 inadvertently omitted ==");
    let mut fixed = ProtocolConfig::v5_draft3();
    fixed.enforce_cname_match = true;
    let r = cut_paste::run(&fixed, 1991);
    println!("  outcome: {}", if r.succeeded { "BREACH" } else { "safe" });
    println!("  {}\n", r.evidence);

    // Act 3: the structural fix (collision-proof checksum).
    println!("== Act 3: with a collision-proof checksum (MD4 encrypted with DES) ==");
    let mut fixed = ProtocolConfig::v5_draft3();
    fixed.checksum = ChecksumType::Md4Des;
    let r = cut_paste::run(&fixed, 1991);
    println!("  outcome: {}", if r.succeeded { "BREACH" } else { "safe" });
    println!("  {}\n", r.evidence);

    println!("paper: \"because of the encryption, the enemy would be unable to either");
    println!("discern or match the checksum. In other words, the context is critical.\"");
}
