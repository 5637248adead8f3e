//! `crack_as_reply` screens each guess on one decrypted block before the
//! full open. The loop it replaced — derive through `string_to_key_v5`,
//! open the whole reply under the guessed `DesKey`, decode, screen — is
//! kept here as the reference, and both must return the same password
//! (or none) on every sealed reply: every layer and codec, with and
//! without a handheld-authenticator challenge, and with the ciphertext
//! tampered in ways that leave the head, the tail, or nothing intact.

use attacks::pw_guess::crack_as_reply;
use attacks::workload::guesses;
use kerberos::enclayer::EncLayer;
use kerberos::encoding::{Codec, MsgType};
use kerberos::kdc::hha_key;
use kerberos::messages::EncKdcRepPart;
use kerberos::{Principal, ProtocolConfig};
use krb_crypto::des::DesKey;
use krb_crypto::rng::Drbg;
use krb_crypto::s2k;
use testkit::prop::{any, collection, Just, Strategy};
use testkit::{prop_assert_eq, prop_oneof};

/// The guess loop before the one-block screen, verbatim.
fn reference_crack(
    config: &ProtocolConfig,
    client: &Principal,
    enc_part: &[u8],
    challenge_r: Option<u64>,
    guesses: &[String],
) -> Option<String> {
    for guess in guesses {
        let kc = s2k::string_to_key_v5(guess, &client.salt());
        let key = match challenge_r {
            Some(r) => hha_key(&kc, r),
            None => kc,
        };
        let Ok(pt) = config.ticket_layer.open(&key, 0, enc_part) else {
            continue;
        };
        let Ok(part) = EncKdcRepPart::decode(config.codec, MsgType::EncAsRepPart, &pt) else {
            continue;
        };
        if part.session_key.has_odd_parity() && part.server_time <= part.end_time {
            return Some(guess.clone());
        }
    }
    None
}

fn layers() -> impl Strategy<Value = EncLayer> {
    prop_oneof![
        Just(EncLayer::V4Pcbc),
        Just(EncLayer::V5Cbc { confounder: false }),
        Just(EncLayer::V5Cbc { confounder: true }),
        Just(EncLayer::HardenedCbc),
    ]
}

fn codecs() -> impl Strategy<Value = Codec> {
    prop_oneof![Just(Codec::Legacy), Just(Codec::Typed), Just(Codec::Wire)]
}

/// What happens to the sealed reply on its way to the cracker.
#[derive(Clone, Debug)]
enum Tamper {
    None,
    /// Flip one bit (position taken modulo the length).
    Flip(usize, u8),
    /// Drop this many trailing bytes.
    Truncate(usize),
    /// Append bytes.
    Append(Vec<u8>),
    /// Replace the whole reply with random bytes of this length.
    Garbage(usize),
}

fn tampers() -> impl Strategy<Value = Tamper> {
    prop_oneof![
        Just(Tamper::None),
        Just(Tamper::None),
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Tamper::Flip(at, bit)),
        (1usize..=24).prop_map(Tamper::Truncate),
        collection::vec(any::<u8>(), 1..=16).prop_map(Tamper::Append),
        (0usize..=96).prop_map(Tamper::Garbage),
    ]
}

/// The reply part the KDC would seal, with knobs that make the sanity
/// screen or the envelope type fail.
#[derive(Clone, Debug)]
struct Part {
    session_key: u64,
    odd_parity: bool,
    end_time: u64,
    server_time: u64,
    ticket: Vec<u8>,
    /// Sealed as a TGS part: the typed and wire envelopes reject it.
    tgs_type: bool,
}

fn parts() -> impl Strategy<Value = Part> {
    (
        any::<u64>(),
        prop_oneof![Just(true), Just(true), Just(false)],
        any::<u64>(),
        any::<u64>(),
        collection::vec(any::<u8>(), 0..=48),
        prop_oneof![Just(false), Just(false), Just(false), Just(true)],
    )
        .prop_map(|(session_key, odd_parity, a, b, ticket, tgs_type)| Part {
            session_key,
            odd_parity,
            end_time: a.max(b),
            // Mostly sane times; sometimes the server time is past the
            // end time and the screen rejects the right password.
            server_time: if a % 5 == 0 {
                a.max(b).saturating_add(1)
            } else {
                a.min(b)
            },
            ticket,
            tgs_type,
        })
}

testkit::prop! {
    fn one_block_screen_returns_what_the_full_open_returns [96] (
        layer in layers(),
        codec in codecs(),
        part in parts(),
        window in (0usize..4_500, 32usize..=160),
        // Where the password sits in the window; past its end it is
        // not in the window at all.
        at in 0usize..200,
        challenge in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        tamper in tampers(),
        seed in any::<u64>(),
    ) {
        let all = guesses();
        let start = window.0.min(all.len() - window.1);
        let list = &all[start..start + window.1];
        let password = list.get(at).map_or("not-in-any-dictionary", String::as_str);

        let mut config = ProtocolConfig::v5_draft3();
        config.ticket_layer = layer;
        config.codec = codec;
        let client = Principal::user("sam", "ATHENA.MIT.EDU");
        let kc = s2k::string_to_key_v5(password, &client.salt());
        let key = match challenge {
            Some(r) => hha_key(&kc, r),
            None => kc,
        };
        let session_key = DesKey::from_u64(part.session_key);
        let sealed_part = EncKdcRepPart {
            session_key: if part.odd_parity { session_key.with_odd_parity() } else { session_key },
            nonce: 7,
            ticket: part.ticket.clone(),
            end_time: part.end_time,
            server_time: part.server_time,
            ticket_cksum: None,
        };
        let mtype = if part.tgs_type { MsgType::EncTgsRepPart } else { MsgType::EncAsRepPart };
        let mut rng = Drbg::new(seed);
        let mut enc = layer.seal(&key, 0, &sealed_part.encode(codec, mtype), &mut rng).unwrap();
        match &tamper {
            Tamper::None => {}
            Tamper::Flip(at, bit) => {
                let i = at % enc.len();
                enc[i] ^= 1 << bit;
            }
            Tamper::Truncate(n) => enc.truncate(enc.len().saturating_sub(*n)),
            Tamper::Append(extra) => enc.extend_from_slice(extra),
            Tamper::Garbage(n) => {
                enc = (0..*n).map(|i| (seed.rotate_left(i as u32 % 64) ^ i as u64) as u8).collect();
            }
        }

        let want = reference_crack(&config, &client, &enc, challenge, list);
        let got = crack_as_reply(&config, &client, &enc, challenge, list);
        prop_assert_eq!(got, want);
    }
}

/// The differential above only bites if the right password is found on
/// intact replies: on every layer and codec, with and without a
/// challenge, the screen must let the true key through.
#[test]
fn intact_replies_crack_on_every_layer_and_codec() {
    let list = &guesses()[..64];
    let client = Principal::user("sam", "ATHENA.MIT.EDU");
    let password = &list[40];
    for layer in [
        EncLayer::V4Pcbc,
        EncLayer::V5Cbc { confounder: false },
        EncLayer::V5Cbc { confounder: true },
        EncLayer::HardenedCbc,
    ] {
        for codec in [Codec::Legacy, Codec::Typed, Codec::Wire] {
            for challenge in [None, Some(0x5eed)] {
                let mut config = ProtocolConfig::v5_draft3();
                config.ticket_layer = layer;
                config.codec = codec;
                let kc = s2k::string_to_key_v5(password, &client.salt());
                let key = challenge.map_or(kc, |r| hha_key(&kc, r));
                let part = EncKdcRepPart {
                    session_key: DesKey::from_u64(0x0123_4567_89ab_cdef).with_odd_parity(),
                    nonce: 1,
                    ticket: vec![0xAA; 40],
                    end_time: 2_000,
                    server_time: 1_000,
                    ticket_cksum: None,
                };
                let sealed = layer
                    .seal(
                        &key,
                        0,
                        &part.encode(codec, MsgType::EncAsRepPart),
                        &mut Drbg::new(3),
                    )
                    .unwrap();
                let got = crack_as_reply(&config, &client, &sealed, challenge, list);
                assert_eq!(
                    got.as_ref(),
                    Some(password),
                    "{layer:?} {codec:?} {challenge:?}"
                );
            }
        }
    }
}
