//! FIPS-81 known-answer tests and fast-vs-reference differential
//! properties for the DES core.
//!
//! The fused SP-table kernel in `des::fast`, under the fused PC-2 key
//! schedule, must be bit-exact with the retained table-walking
//! implementation in `des::reference`, which expands its own round keys
//! bit by bit. The KATs pin both against the published FIPS 81 worked
//! examples, and the `testkit::prop` suite drives randomized
//! equivalence over random keys, one lane and several, and holds the
//! lane-grouped mode decryptors to the reference one block at a time
//! (replay a failure with the printed `TESTKIT_SEED`).

use krb_crypto::des::{self, DesKey, KeySchedule};
use krb_crypto::modes;
use testkit::prelude::*;

/// FIPS 81 sample key.
const FIPS81_KEY: u64 = 0x0123456789ABCDEF;
/// FIPS 81 sample plaintext: "Now is the time for all " as three blocks.
const FIPS81_PT: [u64; 3] = [0x4E6F772069732074, 0x68652074696D6520, 0x666F7220616C6C20];

fn blocks_to_bytes(blocks: &[u64]) -> Vec<u8> {
    blocks.iter().flat_map(|b| b.to_be_bytes()).collect()
}

fn bytes_to_blocks(bytes: &[u8]) -> Vec<u64> {
    bytes.chunks_exact(8).map(|c| u64::from_be_bytes(c.try_into().unwrap())).collect()
}

#[test]
fn fips81_ecb_known_answer() {
    let key = DesKey::from_u64(FIPS81_KEY);
    let ct = modes::ecb_encrypt(&key, &blocks_to_bytes(&FIPS81_PT)).unwrap();
    assert_eq!(
        bytes_to_blocks(&ct),
        [0x3FA40E8A984D4815, 0x6A271787AB8883F9, 0x893D51EC4B563B53],
        "FIPS 81 table B1 ECB vector"
    );
    assert_eq!(bytes_to_blocks(&modes::ecb_decrypt(&key, &ct).unwrap()), FIPS81_PT);
}

#[test]
fn fips81_cbc_known_answer() {
    let key = DesKey::from_u64(FIPS81_KEY);
    let iv = 0x1234567890ABCDEF;
    let ct = modes::cbc_encrypt(&key, iv, &blocks_to_bytes(&FIPS81_PT)).unwrap();
    assert_eq!(
        bytes_to_blocks(&ct),
        [0xE5C7CDDE872BF27C, 0x43E934008C389C0F, 0x683788499A7C05F6],
        "FIPS 81 table C1 CBC vector"
    );
    assert_eq!(bytes_to_blocks(&modes::cbc_decrypt(&key, iv, &ct).unwrap()), FIPS81_PT);
}

fn arb_key() -> impl Strategy<Value = DesKey> {
    any::<u64>().prop_map(|v| DesKey::from_u64(v).with_odd_parity())
}

fn arb_blocks() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(any::<u8>(), 0..64).prop_map(|mut v| {
        v.resize(v.len().div_ceil(8) * 8, 0);
        v
    })
}

/// `N`-lane encryption and decryption, lane `i` under `keys[i]`, equal
/// the reference lane by lane.
fn lanes_match_reference<const N: usize>(keys: &[u64], blocks: &[u64]) {
    let keys: [DesKey; N] = std::array::from_fn(|lane| DesKey::from_u64(keys[lane]));
    let blocks: [u64; N] = std::array::from_fn(|lane| blocks[lane]);
    let schedules = keys.map(|key| KeySchedule::new(&key));
    let enc = des::encrypt_blocks(schedules.each_ref(), blocks);
    let dec = des::decrypt_blocks(schedules.each_ref(), blocks);
    for lane in 0..N {
        let rk = des::reference::round_keys(&keys[lane]);
        let (pt, what) = (blocks[lane], format!("lane {lane} of {N}"));
        assert_eq!(enc[lane], des::reference::encrypt_block(&rk, pt), "encrypt {what}");
        assert_eq!(dec[lane], des::reference::decrypt_block(&rk, pt), "decrypt {what}");
    }
}

/// Block-at-a-time ECB, CBC and PCBC decryption on the reference
/// kernel: `[ecb, cbc, pcbc]` plaintexts of `ct` under `key` and `iv`.
fn reference_decrypt(key: &DesKey, iv: u64, ct: &[u64]) -> [Vec<u64>; 3] {
    let rk = des::reference::round_keys(key);
    let (mut prev, mut chain) = (iv, iv);
    let (mut ecb, mut cbc, mut pcbc) = (Vec::new(), Vec::new(), Vec::new());
    for &c in ct {
        let d = des::reference::decrypt_block(&rk, c);
        ecb.push(d);
        cbc.push(d ^ prev);
        prev = c;
        let p = d ^ chain;
        pcbc.push(p);
        chain = p ^ c;
    }
    [ecb, cbc, pcbc]
}

testkit::prop! {
    /// The lane-grouped decryptors equal one reference block at a time
    /// at every length from 0 to 17 blocks: whole groups, every
    /// 1–3-block remainder, and the CBC and PCBC chains carried across
    /// up to four group boundaries.
    fn grouped_decrypt_matches_reference_at_every_length(
        key in arb_key(),
        iv in any::<u64>(),
        ct in collection::vec(any::<u64>(), 17),
    ) {
        let ks = KeySchedule::new(&key);
        for n in 0..=ct.len() {
            let [ecb, cbc, pcbc] = reference_decrypt(&key, iv, &ct[..n]);
            let mut buf = blocks_to_bytes(&ct[..n]);
            modes::ecb_decrypt_in_place(&ks, &mut buf).unwrap();
            prop_assert_eq!(bytes_to_blocks(&buf), ecb, "ecb, {} blocks", n);
            let mut buf = blocks_to_bytes(&ct[..n]);
            modes::cbc_decrypt_in_place(&ks, iv, &mut buf).unwrap();
            prop_assert_eq!(bytes_to_blocks(&buf), cbc, "cbc, {} blocks", n);
            let mut buf = blocks_to_bytes(&ct[..n]);
            modes::pcbc_decrypt_in_place(&ks, iv, &mut buf).unwrap();
            prop_assert_eq!(bytes_to_blocks(&buf), pcbc, "pcbc, {} blocks", n);
        }
    }

    fn fast_encrypt_matches_reference(k in any::<u64>(), pt in any::<u64>()) {
        let key = DesKey::from_u64(k);
        let (ks, rk) = (KeySchedule::new(&key), des::reference::round_keys(&key));
        prop_assert_eq!(des::encrypt_block(&ks, pt), des::reference::encrypt_block(&rk, pt));
    }

    fn fast_decrypt_matches_reference(k in any::<u64>(), ct in any::<u64>()) {
        let key = DesKey::from_u64(k);
        let (ks, rk) = (KeySchedule::new(&key), des::reference::round_keys(&key));
        prop_assert_eq!(des::decrypt_block(&ks, ct), des::reference::decrypt_block(&rk, ct));
    }

    fn lanes_match_reference_lane_by_lane(
        keys in collection::vec(any::<u64>(), 8),
        blocks in collection::vec(any::<u64>(), 8),
    ) {
        lanes_match_reference::<1>(&keys, &blocks);
        lanes_match_reference::<2>(&keys, &blocks);
        lanes_match_reference::<3>(&keys, &blocks);
        lanes_match_reference::<8>(&keys, &blocks);
    }

    fn fast_roundtrip_and_cache_agree(k in any::<u64>(), pt in any::<u64>()) {
        let key = DesKey::from_u64(k);
        let ks = KeySchedule::new(&key);
        // DesKey methods expand their own schedule; the free functions
        // take an explicit one. Same kernel, same answer.
        let ct = key.encrypt_block(pt);
        prop_assert_eq!(ct, des::encrypt_block(&ks, pt));
        prop_assert_eq!(key.decrypt_block(ct), pt);
    }

    fn in_place_modes_match_allocating(key in arb_key(), iv in any::<u64>(), data in arb_blocks()) {
        let ks = KeySchedule::new(&key);
        let alloc = modes::cbc_encrypt(&key, iv, &data).unwrap();
        let mut buf = data.clone();
        modes::cbc_encrypt_in_place(&ks, iv, &mut buf).unwrap();
        prop_assert_eq!(&buf, &alloc);

        let alloc = modes::pcbc_encrypt(&key, iv, &data).unwrap();
        let mut buf = data.clone();
        modes::pcbc_encrypt_in_place(&ks, iv, &mut buf).unwrap();
        prop_assert_eq!(&buf, &alloc);

        let alloc = modes::ecb_encrypt(&key, &data).unwrap();
        let mut buf = data;
        modes::ecb_encrypt_in_place(&ks, &mut buf).unwrap();
        prop_assert_eq!(&buf, &alloc);
    }
}
