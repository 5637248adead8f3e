//! A11 — ticket/authenticator type confusion under the legacy encoding.
//!
//! "The most simple analysis of the security of the Kerberos protocols
//! should check that there is no possibility of ambiguity between
//! messages sent in different contexts. That is, a ticket should never
//! be interpretable as an authenticator, or vice versa."
//!
//! This module *constructs* the ambiguity: a single byte string that
//! parses as a well-formed [`Authenticator`] AND as a well-formed
//! [`Ticket`] naming `root` — valid far into the future — under the
//! legacy encoding. The typed encoding rejects both cross-readings.

use crate::Outcome;
use kerberos::authenticator::Authenticator;
#[cfg(test)]
use kerberos::encoding::Codec;
use kerberos::error::KrbError;
use kerberos::principal::Principal;
use kerberos::ticket::Ticket;
use kerberos::ProtocolConfig;

/// Builds the ambiguity: a [`Ticket`] whose field values make its
/// legacy encoding parse as an [`Authenticator`] too.
///
/// ```text
/// Ticket encode:  [flags u32][Ln][name][Li][inst][Lr][realm]
///                 [addr_opt=1][addr u32][auth u64][start u64][end u64]
///                 [skey u64][ntrans u32][Lt][trans0]...
/// Auth decode:    [Ln'][name'][Li'][inst'][Lr'][realm'][addr' u32]
///                 [ts' u64][ck_opt][bind_opt][subkey_opt][seq_opt]
/// ```
///
/// Field-by-field alignment (legacy encodings, all lengths u32 BE):
///
/// ```text
/// ticket bytes:   [flags=8][L=4]["root"][L=0][L=14][realm]
///                 [L=8]["rlogin00"][L=0][L=14][realm][addr_opt]...
/// auth reading:   [Ln'=8][name'=[0,0,0,4,r,o,o,t]][Li'=0][Lr'=14][realm]
///                 [addr'=8][ts'="rlogin00"][ck=0][bind=0][sub=0][seq=0]
///                 (trailing ticket bytes ignored)
/// ```
///
/// `flags = 8` makes the authenticator parser read the ticket's
/// length-prefixed client name as its own name; the 8-character service
/// name becomes the "timestamp"; the zero-length service instance
/// supplies the four absent-option bytes. Everything an attacker
/// requesting a ticket influences (names, flags) does the work.
pub fn craft_ambiguous_ticket() -> Ticket {
    Ticket {
        flags: kerberos::flags::TicketFlags(8),
        client: Principal { name: "root".into(), instance: String::new(), realm: "ATHENA.MIT.EDU".into() },
        // The 8-byte service name doubles as the authenticator's
        // timestamp; the empty instance supplies four zero option
        // bytes.
        service: Principal { name: "rlogin00".into(), instance: String::new(), realm: "ATHENA.MIT.EDU".into() },
        addr: Some(0x0a00_0001),
        auth_time: 1_000_000,
        start_time: 1_000_000,
        end_time: u64::MAX / 2,
        session_key: krb_crypto::des::DesKey::from_u64(0x1357_9bdf_0246_8ace),
        transited: vec![],
    }
}

/// Runs the attack against a fresh deployment under `config`.
pub fn run(config: &ProtocolConfig, _seed: u64) -> Outcome {
    let ticket = craft_ambiguous_ticket();
    let bytes = ticket.encode(config.codec);

    // Can the same bytes be read as an authenticator in a context
    // expecting one?
    match Authenticator::decode(config.codec, &bytes) {
        Ok(auth) => {
            // Round-trip sanity: the ticket reading survives too.
            let ticket_again = Ticket::decode(config.codec, &bytes);
            Outcome::breach(format!(
                "one byte string reads as ticket(client={}) AND authenticator(client={}); \
                 ticket parse ok={}",
                ticket.client,
                auth.client,
                ticket_again.is_ok()
            ))
        }
        Err(KrbError::WrongType { .. }) => {
            Outcome::safe("typed envelope rejected the cross-reading deterministically")
        }
        Err(e) => Outcome::safe(format!("cross-reading failed structurally: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_is_ambiguous() {
        let r = run(&ProtocolConfig::v4(), 1);
        assert!(r.succeeded, "{}", r.evidence);
    }

    #[test]
    fn typed_is_not() {
        assert!(!run(&ProtocolConfig::v5_draft3(), 1).succeeded);
        assert!(!run(&ProtocolConfig::hardened(), 1).succeeded);
    }

    #[test]
    fn crafted_ticket_cross_reads_with_sensible_fields() {
        let t = craft_ambiguous_ticket();
        let bytes = t.encode(Codec::Legacy);
        let auth = Authenticator::decode(Codec::Legacy, &bytes).expect("parses as authenticator");
        // The authenticator reading names the same privileged client.
        assert!(auth.client.name.ends_with("root"));
        let t2 = Ticket::decode(Codec::Legacy, &bytes).expect("still parses as ticket");
        assert_eq!(t2.client.name, "root");
    }

    #[test]
    fn sealed_blob_is_ambiguous_in_both_roles() {
        // The operational flavor: the same ciphertext, under the same
        // key, unseals as either object — context alone decides.
        use kerberos::enclayer::EncLayer;
        use krb_crypto::rng::Drbg;
        let key = krb_crypto::des::DesKey::from_u64(0xDEADBEEF).with_odd_parity();
        let mut rng = Drbg::new(5);
        let t = craft_ambiguous_ticket();
        let sealed = t.seal(Codec::Legacy, EncLayer::V4Pcbc, &key, &mut rng).unwrap();
        assert!(Ticket::unseal(Codec::Legacy, EncLayer::V4Pcbc, &key, &sealed).is_ok());
        assert!(Authenticator::unseal(Codec::Legacy, EncLayer::V4Pcbc, &key, &sealed).is_ok());
    }

}
