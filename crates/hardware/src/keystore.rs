//! The keystore: "a secure, reliable repository for a limited amount of
//! information. A client of the keystore could package arbitrary data to
//! be retained by the keystore, and retrieved at a later date. ...
//! Storage and retrieval requests would be authenticated by Kerberos
//! tickets, of course. Only encrypted transfer (KRB_PRIV) should be
//! employed."
//!
//! Implemented as an [`kerberos::appserver::AppLogic`], so it runs
//! behind the full kerberized AP exchange and KRB_PRIV session layer —
//! the deployment discipline is enforced by configuring the hosting
//! [`kerberos::appserver::AppServer`] with `AppProtection::Priv`.

use kerberos::appserver::AppLogic;
use kerberos::principal::Principal;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Shared blob storage: (owner, label) -> bytes.
pub type BlobStore = Arc<Mutex<HashMap<(String, String), Vec<u8>>>>;

/// Locks the store, recovering from poisoning: a panicking client
/// thread must not brick the keystore, and every command leaves the map
/// structurally consistent (single-key inserts/removes), so the data is
/// safe to keep serving.
fn lock(blobs: &BlobStore) -> MutexGuard<'_, HashMap<(String, String), Vec<u8>>> {
    blobs.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Commands: `STORE <label> <bytes>`, `FETCH <label>`, `DELETE <label>`,
/// `LIST`. Blobs are namespaced per authenticated principal — "the key
/// for that instance would be restricted to that user".
#[derive(Default)]
pub struct KeyStoreLogic {
    /// (owner, label) -> blob. Shared so tests can inspect storage.
    pub blobs: BlobStore,
}

impl KeyStoreLogic {
    /// An empty keystore.
    pub fn new() -> Self {
        Self::default()
    }
}

fn split(cmd: &[u8]) -> (Vec<u8>, Vec<u8>) {
    match cmd.iter().position(|&b| b == b' ') {
        Some(i) => (cmd[..i].to_vec(), cmd[i + 1..].to_vec()),
        None => (cmd.to_vec(), Vec::new()),
    }
}

impl AppLogic for KeyStoreLogic {
    fn on_command(&mut self, client: &Principal, cmd: &[u8]) -> Vec<u8> {
        let owner = client.to_string();
        let (verb, rest) = split(cmd);
        match verb.as_slice() {
            b"STORE" => {
                let (label, blob) = split(&rest);
                let label = String::from_utf8_lossy(&label).into_owned();
                lock(&self.blobs).insert((owner, label), blob);
                b"STORED".to_vec()
            }
            b"FETCH" => {
                let label = String::from_utf8_lossy(&rest).into_owned();
                match lock(&self.blobs).get(&(owner, label)) {
                    Some(b) => {
                        let mut v = b"BLOB ".to_vec();
                        v.extend_from_slice(b);
                        v
                    }
                    None => b"ENOENT".to_vec(),
                }
            }
            b"DELETE" => {
                let label = String::from_utf8_lossy(&rest).into_owned();
                match lock(&self.blobs).remove(&(owner, label)) {
                    Some(_) => b"DELETED".to_vec(),
                    None => b"ENOENT".to_vec(),
                }
            }
            b"LIST" => {
                let blobs = lock(&self.blobs);
                let mut labels: Vec<&str> = blobs
                    .keys()
                    .filter(|(o, _)| *o == owner)
                    .map(|(_, l)| l.as_str())
                    .collect();
                labels.sort_unstable();
                labels.join("\n").into_bytes()
            }
            _ => b"EBADCMD".to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat() -> Principal {
        Principal::user("pat", "R")
    }

    #[test]
    fn store_fetch_delete() {
        let mut ks = KeyStoreLogic::new();
        assert_eq!(ks.on_command(&pat(), b"STORE mailkey \x01\x02\x03"), b"STORED");
        assert_eq!(ks.on_command(&pat(), b"FETCH mailkey"), b"BLOB \x01\x02\x03");
        assert_eq!(ks.on_command(&pat(), b"LIST"), b"mailkey");
        assert_eq!(ks.on_command(&pat(), b"DELETE mailkey"), b"DELETED");
        assert_eq!(ks.on_command(&pat(), b"FETCH mailkey"), b"ENOENT");
    }

    #[test]
    fn blobs_are_per_principal() {
        let mut ks = KeyStoreLogic::new();
        ks.on_command(&pat(), b"STORE k secret");
        let other = Principal::user("sam", "R");
        assert_eq!(ks.on_command(&other, b"FETCH k"), b"ENOENT");
        // Even a same-name user in a different realm is distinct.
        let impostor = Principal::user("pat", "EVIL");
        assert_eq!(ks.on_command(&impostor, b"FETCH k"), b"ENOENT");
    }

    #[test]
    fn survives_lock_poisoning() {
        let mut ks = KeyStoreLogic::new();
        ks.on_command(&pat(), b"STORE k v");
        // Poison the mutex: a thread panics while holding the lock.
        let blobs = ks.blobs.clone();
        let _ = std::thread::spawn(move || {
            let _guard = blobs.lock().unwrap();
            panic!("die holding the keystore lock");
        })
        .join();
        assert!(ks.blobs.lock().is_err(), "mutex should be poisoned");
        // The keystore keeps serving the (consistent) data regardless.
        assert_eq!(ks.on_command(&pat(), b"FETCH k"), b"BLOB v");
        assert_eq!(ks.on_command(&pat(), b"DELETE k"), b"DELETED");
    }

    #[test]
    fn binary_blobs_roundtrip() {
        let mut ks = KeyStoreLogic::new();
        let blob: Vec<u8> = (0..=255).collect();
        let mut cmd = b"STORE bin ".to_vec();
        cmd.extend_from_slice(&blob);
        ks.on_command(&pat(), &cmd);
        let got = ks.on_command(&pat(), b"FETCH bin");
        assert_eq!(&got[5..], &blob[..]);
    }
}
