//! The host encryption unit.
//!
//! Design criteria from the paper, all enforced here:
//!
//! - "There must be secure storage for an adequate number of keys" —
//!   keys live in private slots, addressed by opaque [`KeyHandle`]s.
//! - "The encryption box itself must understand the Kerberos protocols"
//!   — tickets and KDC replies are decrypted *inside* the unit; embedded
//!   session keys become new sealed slots, never host memory.
//! - "The box need not have the ability to transmit a key, thereby
//!   providing us with a very high level of assurance that it will not
//!   do so" — no method returns key material; `Debug` output is
//!   redacted.
//! - "Keys should be tagged with their purpose. A login key should be
//!   used only to decrypt the ticket-granting ticket" — every operation
//!   checks the slot's [`KeyPurpose`].
//! - "Including a hardware random number generator on-board" — session
//!   keys and subkeys come from an internal DRBG.
//! - "Using a separate unit allows us to create untamperable logs" —
//!   an append-only audit log records every operation.

use kerberos::authenticator::Authenticator;
use kerberos::config::ProtocolConfig;
use kerberos::encoding::MsgType;
use kerberos::messages::EncKdcRepPart;
use kerberos::principal::Principal;
use kerberos::ticket::Ticket;
use krb_crypto::des::DesKey;
use krb_crypto::key::{KeyPurpose, TaggedKey};
use krb_crypto::rng::{Drbg, RandomSource};
use krb_crypto::s2k;
use std::collections::HashMap;
use std::fmt;

/// An opaque reference to a key slot inside the unit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct KeyHandle(u32);

/// Errors raised by the unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HwError {
    /// The handle does not name a loaded key.
    BadHandle,
    /// The slot's purpose forbids the requested operation.
    PurposeViolation {
        /// The purpose required by the operation.
        needed: KeyPurpose,
        /// The purpose the slot is tagged with.
        have: KeyPurpose,
    },
    /// A protocol operation failed (decryption, decoding).
    Protocol(String),
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::BadHandle => write!(f, "bad key handle"),
            HwError::PurposeViolation { needed, have } => {
                write!(f, "purpose violation: operation needs {needed:?}, slot is {have:?}")
            }
            HwError::Protocol(e) => write!(f, "protocol failure in unit: {e}"),
        }
    }
}

impl std::error::Error for HwError {}

/// A ticket as seen by the host when the unit decrypts it: the embedded
/// session key has been captured into a slot and replaced by a handle.
#[derive(Clone, Debug)]
pub struct TicketView {
    /// The client the ticket names.
    pub client: Principal,
    /// The service it is for.
    pub service: Principal,
    /// Validity end, µs.
    pub end_time: u64,
    /// Handle to the (sealed) session key.
    pub session_key: KeyHandle,
}

/// The view of a decrypted KDC reply part.
#[derive(Clone, Debug)]
pub struct KdcRepView {
    /// Handle to the new (sealed) session key.
    pub session_key: KeyHandle,
    /// Nonce echo.
    pub nonce: u64,
    /// The (still sealed) ticket bytes, to be sent to the service.
    pub ticket: Vec<u8>,
    /// Ticket end time.
    pub end_time: u64,
}

/// The host encryption unit.
pub struct EncryptionUnit {
    config: ProtocolConfig,
    slots: HashMap<KeyHandle, TaggedKey>,
    next: u32,
    rng: Drbg,
    audit: Vec<String>,
    audit_dropped: u64,
}

impl fmt::Debug for EncryptionUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EncryptionUnit({} sealed slots)", self.slots.len())
    }
}

impl EncryptionUnit {
    /// A fresh unit. `rng_seed` stands in for the hardware RNG.
    pub fn new(config: ProtocolConfig, rng_seed: u64) -> Self {
        EncryptionUnit {
            config,
            slots: HashMap::new(),
            next: 1,
            rng: Drbg::new(rng_seed),
            audit: Vec::new(),
            audit_dropped: 0,
        }
    }

    /// Maximum retained audit entries (the unit's log storage is
    /// finite, like any hardware log; oldest entries are dropped once
    /// full, with a running counter preserving the total).
    const AUDIT_CAP: usize = 65_536;

    fn log(&mut self, what: String) {
        if self.audit.len() >= Self::AUDIT_CAP {
            // Evict the older half in one move (amortized O(1) per op).
            let evict = Self::AUDIT_CAP / 2;
            self.audit.drain(..evict);
            self.audit_dropped += evict as u64;
        }
        self.audit.push(what);
    }

    /// Entries evicted from the (bounded) audit log.
    pub fn audit_dropped(&self) -> u64 {
        self.audit_dropped
    }

    /// The untamperable audit log (read-only).
    pub fn audit_log(&self) -> &[String] {
        &self.audit
    }

    fn insert(&mut self, key: DesKey, purpose: KeyPurpose) -> KeyHandle {
        let h = KeyHandle(self.next);
        self.next += 1;
        self.slots.insert(h, TaggedKey::new(key, purpose));
        h
    }

    fn get(&self, h: KeyHandle, needed: KeyPurpose) -> Result<DesKey, HwError> {
        let t = self.slots.get(&h).ok_or(HwError::BadHandle)?;
        if !t.purpose.permits(needed) {
            return Err(HwError::PurposeViolation { needed, have: t.purpose });
        }
        Ok(t.key)
    }

    /// Loads a pre-existing key into a sealed slot. "This operation is
    /// done only by the Kerberos master server, for which strong
    /// physical security must be assumed."
    pub fn load_key(&mut self, key: DesKey, purpose: KeyPurpose) -> KeyHandle {
        let h = self.insert(key, purpose);
        self.log(format!("load_key purpose={purpose:?} -> {h:?}"));
        h
    }

    /// Derives the user's login key from a typed password and seals it
    /// immediately; the password's residence in host memory is
    /// minimized and the derived key never appears there at all.
    pub fn enroll_password(&mut self, principal: &Principal, password: &str) -> KeyHandle {
        let key = s2k::string_to_key_v5(password, &principal.salt());
        let h = self.insert(key, KeyPurpose::ClientLogin);
        self.log(format!("enroll_password for {principal} -> {h:?}"));
        h
    }

    /// Generates a fresh random key in a sealed slot (the on-board
    /// hardware RNG).
    pub fn gen_key(&mut self, purpose: KeyPurpose) -> KeyHandle {
        let key = self.rng.gen_des_key();
        let h = self.insert(key, purpose);
        self.log(format!("gen_key purpose={purpose:?} -> {h:?}"));
        h
    }

    /// Decrypts an AS-reply encrypted part inside the unit. Only a
    /// `ClientLogin` slot may perform this — the tagged-key rule that a
    /// login key "should be used only to decrypt the ticket-granting
    /// ticket".
    pub fn open_as_reply(&mut self, login_slot: KeyHandle, enc_part: &[u8]) -> Result<KdcRepView, HwError> {
        let key = self.get(login_slot, KeyPurpose::ClientLogin)?;
        let pt = self
            .config
            .ticket_layer
            .open(&key, 0, enc_part)
            .map_err(|e| HwError::Protocol(e.to_string()))?;
        let part = EncKdcRepPart::decode(self.config.codec, MsgType::EncAsRepPart, &pt)
            .map_err(|e| HwError::Protocol(e.to_string()))?;
        let skh = self.insert(part.session_key, KeyPurpose::TgsSession);
        self.log(format!("open_as_reply via {login_slot:?} -> session {skh:?}"));
        Ok(KdcRepView { session_key: skh, nonce: part.nonce, ticket: part.ticket, end_time: part.end_time })
    }

    /// Decrypts a TGS-reply encrypted part inside the unit (requires a
    /// `TgsSession` slot); the new application session key is sealed.
    pub fn open_tgs_reply(&mut self, tgs_session: KeyHandle, enc_part: &[u8]) -> Result<KdcRepView, HwError> {
        let key = self.get(tgs_session, KeyPurpose::TgsSession)?;
        let pt = self
            .config
            .ticket_layer
            .open(&key, 0, enc_part)
            .map_err(|e| HwError::Protocol(e.to_string()))?;
        let part = EncKdcRepPart::decode(self.config.codec, MsgType::EncTgsRepPart, &pt)
            .map_err(|e| HwError::Protocol(e.to_string()))?;
        let skh = self.insert(part.session_key, KeyPurpose::AppSession);
        self.log(format!("open_tgs_reply via {tgs_session:?} -> session {skh:?}"));
        Ok(KdcRepView { session_key: skh, nonce: part.nonce, ticket: part.ticket, end_time: part.end_time })
    }

    /// Builds and seals an authenticator under a session key slot.
    pub fn make_authenticator(
        &mut self,
        session: KeyHandle,
        auth: &Authenticator,
    ) -> Result<Vec<u8>, HwError> {
        let key = self
            .get(session, KeyPurpose::TgsSession)
            .or_else(|_| self.get(session, KeyPurpose::AppSession))?;
        let mut rng = self.rng.clone();
        let out = auth
            .seal(self.config.codec, self.config.ticket_layer, &key, &mut rng)
            .map_err(|e| HwError::Protocol(e.to_string()))?;
        self.rng = rng;
        self.log(format!("make_authenticator via {session:?}"));
        Ok(out)
    }

    /// Server side: decrypts a presented ticket with the service key
    /// slot; the embedded session key is sealed, not returned.
    pub fn decrypt_ticket(&mut self, service_slot: KeyHandle, sealed: &[u8]) -> Result<TicketView, HwError> {
        let key = self.get(service_slot, KeyPurpose::Service)?;
        let t = Ticket::unseal(self.config.codec, self.config.ticket_layer, &key, sealed)
            .map_err(|e| HwError::Protocol(e.to_string()))?;
        let skh = self.insert(t.session_key, KeyPurpose::AppSession);
        self.log(format!("decrypt_ticket via {service_slot:?} -> session {skh:?}"));
        Ok(TicketView { client: t.client, service: t.service, end_time: t.end_time, session_key: skh })
    }

    /// Seals application data under a session slot.
    pub fn seal_data(&mut self, session: KeyHandle, iv: u64, data: &[u8]) -> Result<Vec<u8>, HwError> {
        let key = self
            .get(session, KeyPurpose::AppSession)
            .or_else(|_| self.get(session, KeyPurpose::Subkey))?;
        let mut rng = self.rng.clone();
        let out = self
            .config
            .priv_layer
            .seal(&key, iv, data, &mut rng)
            .map_err(|e| HwError::Protocol(e.to_string()))?;
        self.rng = rng;
        self.log(format!("seal_data via {session:?}"));
        Ok(out)
    }

    /// Opens application data under a session slot.
    pub fn open_data(&mut self, session: KeyHandle, iv: u64, data: &[u8]) -> Result<Vec<u8>, HwError> {
        let key = self
            .get(session, KeyPurpose::AppSession)
            .or_else(|_| self.get(session, KeyPurpose::Subkey))?;
        let out = self
            .config
            .priv_layer
            .open(&key, iv, data)
            .map_err(|e| HwError::Protocol(e.to_string()))?;
        self.log(format!("open_data via {session:?}"));
        Ok(out)
    }

    /// Exports a sealed *blob* of a slot for the keystore, encrypted
    /// under a channel key slot — never in the clear. The paper's
    /// keystore holds exactly such blobs.
    pub fn export_sealed_blob(&mut self, slot: KeyHandle, channel: KeyHandle) -> Result<Vec<u8>, HwError> {
        let channel_key = self.get(channel, KeyPurpose::KeyStore)?;
        let t = self.slots.get(&slot).ok_or(HwError::BadHandle)?;
        let mut plain = t.key.to_u64().to_be_bytes().to_vec();
        plain.push(purpose_tag(t.purpose));
        let mut rng = self.rng.clone();
        let out = self
            .config
            .ticket_layer
            .seal(&channel_key, 0, &plain, &mut rng)
            .map_err(|e| HwError::Protocol(e.to_string()))?;
        self.rng = rng;
        self.log(format!("export_sealed_blob {slot:?} via channel {channel:?}"));
        Ok(out)
    }

    /// Imports a sealed blob from the keystore back into a slot.
    pub fn import_sealed_blob(&mut self, blob: &[u8], channel: KeyHandle) -> Result<KeyHandle, HwError> {
        let channel_key = self.get(channel, KeyPurpose::KeyStore)?;
        let pt = self
            .config
            .ticket_layer
            .open(&channel_key, 0, blob)
            .map_err(|e| HwError::Protocol(e.to_string()))?;
        if pt.len() < 9 {
            return Err(HwError::Protocol("blob too short".into()));
        }
        let mut kb = [0u8; 8];
        kb.copy_from_slice(&pt[..8]);
        let key = DesKey::from_bytes(kb);
        let purpose = purpose_from_tag(pt[8]).ok_or_else(|| HwError::Protocol("bad purpose tag".into()))?;
        let h = self.insert(key, purpose);
        self.log(format!("import_sealed_blob -> {h:?} purpose={purpose:?}"));
        Ok(h)
    }
}

fn purpose_tag(p: KeyPurpose) -> u8 {
    match p {
        KeyPurpose::ClientLogin => 1,
        KeyPurpose::Service => 2,
        KeyPurpose::TgsSession => 3,
        KeyPurpose::AppSession => 4,
        KeyPurpose::Subkey => 5,
        KeyPurpose::KdcMaster => 6,
        KeyPurpose::KeyStore => 7,
        KeyPurpose::Any => 8,
    }
}

fn purpose_from_tag(t: u8) -> Option<KeyPurpose> {
    Some(match t {
        1 => KeyPurpose::ClientLogin,
        2 => KeyPurpose::Service,
        3 => KeyPurpose::TgsSession,
        4 => KeyPurpose::AppSession,
        5 => KeyPurpose::Subkey,
        6 => KeyPurpose::KdcMaster,
        7 => KeyPurpose::KeyStore,
        8 => KeyPurpose::Any,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kerberos::flags::TicketFlags;

    fn unit() -> EncryptionUnit {
        EncryptionUnit::new(ProtocolConfig::hardened(), 99)
    }

    #[test]
    fn purpose_enforcement() {
        let mut u = unit();
        let login = u.enroll_password(&Principal::user("pat", "R"), "pw");
        // A login key may not decrypt tickets (it is not a service key).
        let err = u.decrypt_ticket(login, &[0u8; 32]).unwrap_err();
        assert!(matches!(err, HwError::PurposeViolation { .. }));
        // A service key may not open AS replies.
        let svc = u.gen_key(KeyPurpose::Service);
        let err = u.open_as_reply(svc, &[0u8; 32]).unwrap_err();
        assert!(matches!(err, HwError::PurposeViolation { .. }));
        // A session key may not export blobs without a keystore channel.
        let sess = u.gen_key(KeyPurpose::AppSession);
        let err = u.export_sealed_blob(sess, sess).unwrap_err();
        assert!(matches!(err, HwError::PurposeViolation { .. }));
    }

    #[test]
    fn bad_handle_rejected() {
        let mut u = unit();
        assert_eq!(u.seal_data(KeyHandle(999), 0, b"x").unwrap_err(), HwError::BadHandle);
    }

    #[test]
    fn ticket_decryption_seals_session_key() {
        let mut u = unit();
        let config = ProtocolConfig::hardened();
        let mut rng = Drbg::new(5);
        let service_key = rng.gen_des_key();
        let session_key = rng.gen_des_key();
        let t = Ticket {
            flags: TicketFlags::empty(),
            client: Principal::user("pat", "R"),
            service: Principal::service("files", "h", "R"),
            addr: None,
            auth_time: 0,
            start_time: 0,
            end_time: 100,
            session_key,
            transited: vec![],
        };
        let sealed = t.seal(config.codec, config.ticket_layer, &service_key, &mut rng).unwrap();
        let skh = u.load_key(service_key, KeyPurpose::Service);
        let view = u.decrypt_ticket(skh, &sealed).unwrap();
        assert_eq!(view.client, Principal::user("pat", "R"));
        // The view carries a handle; the session key bytes are nowhere
        // in the debug rendering of anything the host can see.
        let host_visible = format!("{view:?}{u:?}");
        assert!(!host_visible.contains(&format!("{:016X}", session_key.to_u64())));
        assert!(!host_visible.contains(&format!("{:016x}", session_key.to_u64())));
        // And the sealed session key is usable for data.
        let ct = u.seal_data(view.session_key, 1, b"hello").unwrap();
        assert_eq!(u.open_data(view.session_key, 1, &ct).unwrap(), b"hello");
    }

    #[test]
    fn keystore_blob_roundtrip() {
        let mut u = unit();
        let channel = u.gen_key(KeyPurpose::KeyStore);
        let svc = u.gen_key(KeyPurpose::Service);
        let blob = u.export_sealed_blob(svc, channel).unwrap();
        // The blob does not contain the raw key bytes (it is sealed).
        let h2 = u.import_sealed_blob(&blob, channel).unwrap();
        // Re-imported slot behaves identically: decrypting a ticket
        // sealed under the original works via the import.
        let mut rng = Drbg::new(6);
        let config = ProtocolConfig::hardened();
        let t = Ticket {
            flags: TicketFlags::empty(),
            client: Principal::user("x", "R"),
            service: Principal::service("s", "h", "R"),
            addr: None,
            auth_time: 0,
            start_time: 0,
            end_time: 1,
            session_key: rng.gen_des_key(),
            transited: vec![],
        };
        // Seal under the original slot's key: we cannot read it, so seal
        // via the unit-internal path: export/import proved equality if
        // decrypt succeeds. Build the ticket sealed under a key we DO
        // control, load it, export, import, and compare behavior.
        let known = rng.gen_des_key();
        let sealed = t.seal(config.codec, config.ticket_layer, &known, &mut rng).unwrap();
        let kh = u.load_key(known, KeyPurpose::Service);
        let blob2 = u.export_sealed_blob(kh, channel).unwrap();
        let kh2 = u.import_sealed_blob(&blob2, channel).unwrap();
        assert!(u.decrypt_ticket(kh2, &sealed).is_ok());
        let _ = h2;
    }

    #[test]
    fn tampered_blob_rejected() {
        let mut u = unit();
        let channel = u.gen_key(KeyPurpose::KeyStore);
        let svc = u.gen_key(KeyPurpose::Service);
        let mut blob = u.export_sealed_blob(svc, channel).unwrap();
        blob[3] ^= 0xff;
        assert!(u.import_sealed_blob(&blob, channel).is_err());
    }

    #[test]
    fn audit_log_grows_and_is_readonly() {
        let mut u = unit();
        let before = u.audit_log().len();
        let _ = u.gen_key(KeyPurpose::AppSession);
        let _ = u.enroll_password(&Principal::user("pat", "R"), "pw");
        assert_eq!(u.audit_log().len(), before + 2);
        assert!(u.audit_log()[before].starts_with("gen_key"));
    }

    #[test]
    fn audit_log_is_bounded() {
        let mut u = unit();
        let h = u.gen_key(KeyPurpose::AppSession);
        for _ in 0..(EncryptionUnit::AUDIT_CAP + 100) {
            let _ = u.seal_data(h, 0, b"x");
        }
        assert!(u.audit_log().len() <= EncryptionUnit::AUDIT_CAP);
        assert!(u.audit_dropped() >= 100);
    }

    #[test]
    fn audit_log_never_contains_key_material() {
        let mut u = unit();
        let h = u.load_key(DesKey::from_u64(0xDEAD_BEEF_CAFE_F00D), KeyPurpose::Service);
        let _ = h;
        for line in u.audit_log() {
            assert!(!line.to_lowercase().contains("deadbeef"));
        }
    }

    #[test]
    fn compromised_root_can_use_but_not_extract() {
        // "If root is compromised, the host could instruct the box to
        // create bogus tickets. Such concerns are certainly valid.
        // However ... we consider such temporary breaches of security to
        // be far less serious than the compromise of a key."
        let mut u = unit();
        let sess = u.gen_key(KeyPurpose::AppSession);
        // Root CAN misuse the unit while compromised:
        assert!(u.seal_data(sess, 0, b"bogus message as victim").is_ok());
        // But nothing root can call yields key bytes; the only
        // key-shaped output is the sealed blob, unreadable without the
        // channel slot that also never leaves the unit.
        let channel = u.gen_key(KeyPurpose::KeyStore);
        let blob = u.export_sealed_blob(sess, channel).unwrap();
        assert_eq!(blob.len() % 8, 16 % 8); // sealed, padded, MAC'd — not 9 raw bytes
        assert!(blob.len() > 9);
    }
}
