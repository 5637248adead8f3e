//! The KDC's principal database.

use crate::error::KrbError;
use crate::principal::Principal;
use krb_crypto::des::DesKey;
use krb_crypto::s2k;
use std::collections::BTreeMap;

/// One database entry.
#[derive(Clone, Debug)]
pub struct DbEntry {
    /// The principal's long-term key.
    pub key: DesKey,
    /// Key version number.
    pub kvno: u32,
    /// True for service principals (random keys); false for users
    /// (password-derived keys).
    pub is_service: bool,
}

/// The realm database: principal -> long-term key.
#[derive(Clone, Debug, Default)]
pub struct KdcDatabase {
    realm: String,
    entries: BTreeMap<Principal, DbEntry>,
    /// Reusable string-to-key scratch state: bulk provisioning derives
    /// millions of keys, and must not pay one fresh buffer per call.
    deriver: s2k::Deriver,
}

impl KdcDatabase {
    /// An empty database for `realm`.
    pub fn new(realm: &str) -> Self {
        KdcDatabase { realm: realm.into(), entries: BTreeMap::new(), deriver: s2k::Deriver::new() }
    }

    /// The realm this database serves.
    pub fn realm(&self) -> &str {
        &self.realm
    }

    /// Number of registered principals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no principals are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of user (password-keyed) principals.
    pub fn user_count(&self) -> usize {
        self.entries.values().filter(|e| !e.is_service).count()
    }

    /// Registers a user with a password-derived key (salted, V5-style).
    pub fn add_user(&mut self, name: &str, password: &str) -> Principal {
        let p = Principal::user(name, &self.realm);
        let key = self.deriver.derive(password, &p.salt());
        self.entries.insert(p.clone(), DbEntry { key, kvno: 1, is_service: false });
        p
    }

    /// Registers a service with a given (random) key.
    pub fn add_service(&mut self, service: &str, host: &str, key: DesKey) -> Principal {
        let p = Principal::service(service, host, &self.realm);
        self.entries.insert(p.clone(), DbEntry { key, kvno: 1, is_service: true });
        p
    }

    /// Registers the realm's own TGS key.
    pub fn add_tgs(&mut self, key: DesKey) -> Principal {
        let p = Principal::tgs(&self.realm);
        self.entries.insert(p.clone(), DbEntry { key, kvno: 1, is_service: true });
        p
    }

    /// Registers an inter-realm key: the TGS of `remote_realm` as a
    /// principal of this realm. Both realms must install the same key.
    pub fn add_cross_realm(&mut self, remote_realm: &str, key: DesKey) -> Principal {
        let p = Principal::cross_realm_tgs(remote_realm, &self.realm);
        self.entries.insert(p.clone(), DbEntry { key, kvno: 1, is_service: true });
        p
    }

    /// Looks up a principal's entry.
    pub fn lookup(&self, p: &Principal) -> Result<&DbEntry, KrbError> {
        self.entries.get(p).ok_or_else(|| KrbError::UnknownPrincipal(p.to_string()))
    }

    /// True if the principal exists.
    pub fn contains(&self, p: &Principal) -> bool {
        self.entries.contains_key(p)
    }

    /// Changes a user's password (bumps the key version).
    pub fn change_password(&mut self, p: &Principal, new_password: &str) -> Result<(), KrbError> {
        let salt = p.salt();
        let e = self.entries.get_mut(p).ok_or_else(|| KrbError::UnknownPrincipal(p.to_string()))?;
        e.key = self.deriver.derive(new_password, &salt);
        e.kvno += 1;
        Ok(())
    }

    /// Iterates all principals with their entries, in principal order
    /// (the attacker's "Kerberos equivalent of /etc/passwd is public"
    /// enumeration surface is names, not keys — this accessor exists
    /// for the KDC and tests, not the wire).
    pub fn entries(&self) -> impl Iterator<Item = (&Principal, &DbEntry)> {
        self.entries.iter()
    }

    /// The `krbtgt` entries — the realm's TGS and every inter-realm
    /// key — in principal order. `Principal` orders by name first, so
    /// they are one contiguous range, whatever the database's size; the
    /// TGS of the empty realm is the least principal named `krbtgt`.
    pub fn tgs_entries(&self) -> impl Iterator<Item = (&Principal, &DbEntry)> {
        self.entries.range(Principal::tgs("")..).take_while(|(p, _)| p.is_tgs())
    }
}

/// Deterministic shard routing: FNV-1a over the principal's canonical
/// `name\0instance\0realm` encoding, reduced mod `shards`.
///
/// This is the single source of truth for shard placement — the
/// database, the cluster testbed, and the gateway's shard-aware
/// upstream routing all call it, so a request for a principal always
/// lands on the KDC that owns that principal's key. It depends only on
/// the principal and the shard count: stable across processes, runs,
/// and platforms.
pub fn shard_for(p: &Principal, shards: usize) -> usize {
    shard_for_parts(&p.name, &p.instance, &p.realm, shards)
}

/// [`shard_for`] over the raw principal components (for callers that
/// have wire strings rather than a built `Principal`).
pub fn shard_for_parts(name: &str, instance: &str, realm: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [name, instance, realm] {
        for &b in part.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // NUL separator keeps ("ab","c") and ("a","bc") apart.
        h ^= 0;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The deterministic password used by bulk provisioning for `name`
/// (exposed so benches and tests can log the provisioned users in).
pub fn bulk_password(name: &str) -> String {
    format!("pw!{name}")
}

/// The principal database partitioned into deterministic shards.
///
/// Users are placed by [`shard_for`]; realm-global entries (services,
/// the TGS key, inter-realm keys) are replicated into every shard so
/// any shard-owning KDC can mint tickets for any service. Each shard is
/// a plain [`KdcDatabase`] and can be handed to its own KDC via
/// [`ShardedDatabase::into_shards`].
#[derive(Clone, Debug)]
pub struct ShardedDatabase {
    realm: String,
    shards: Vec<KdcDatabase>,
}

impl ShardedDatabase {
    /// An empty sharded database for `realm`. A `shard_count` of zero is
    /// treated as one shard.
    pub fn new(realm: &str, shard_count: usize) -> Self {
        let n = shard_count.max(1);
        ShardedDatabase { realm: realm.into(), shards: vec![KdcDatabase::new(realm); n] }
    }

    /// The realm this database serves.
    pub fn realm(&self) -> &str {
        &self.realm
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to shard `idx` (for tests and benches).
    pub fn shard(&self, idx: usize) -> &KdcDatabase {
        &self.shards[idx % self.shards.len().max(1)]
    }

    /// Registers a user in its owning shard.
    pub fn add_user(&mut self, name: &str, password: &str) -> Principal {
        let p = Principal::user(name, &self.realm);
        let idx = shard_for(&p, self.shards.len());
        self.shards[idx].add_user(name, password)
    }

    /// Bulk-provisions `count` users named `{prefix}{i}` with the
    /// deterministic [`bulk_password`], deriving every key through the
    /// shard's cached s2k path. Returns the number added.
    pub fn bulk_add_users(&mut self, prefix: &str, count: usize) -> usize {
        for i in 0..count {
            let name = format!("{prefix}{i}");
            self.add_user(&name, &bulk_password(&name));
        }
        count
    }

    /// Replicates a service key into every shard.
    pub fn add_service(&mut self, service: &str, host: &str, key: DesKey) -> Principal {
        let mut p = Principal::service(service, host, &self.realm);
        for shard in &mut self.shards {
            p = shard.add_service(service, host, key);
        }
        p
    }

    /// Replicates the realm's TGS key into every shard.
    pub fn add_tgs(&mut self, key: DesKey) -> Principal {
        let mut p = Principal::tgs(&self.realm);
        for shard in &mut self.shards {
            p = shard.add_tgs(key);
        }
        p
    }

    /// Replicates an inter-realm key into every shard.
    pub fn add_cross_realm(&mut self, remote_realm: &str, key: DesKey) -> Principal {
        let mut p = Principal::cross_realm_tgs(remote_realm, &self.realm);
        for shard in &mut self.shards {
            p = shard.add_cross_realm(remote_realm, key);
        }
        p
    }

    /// Looks up a principal in its owning shard. Replicated entries
    /// (services, TGS) exist in every shard, so routing everything
    /// through [`shard_for`] is total.
    pub fn lookup(&self, p: &Principal) -> Result<&DbEntry, KrbError> {
        self.shards[shard_for(p, self.shards.len())].lookup(p)
    }

    /// Per-shard user occupancy (replicated service entries excluded),
    /// the raw series behind the E18 load-skew metric.
    pub fn occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(KdcDatabase::user_count).collect()
    }

    /// Load skew: max shard occupancy over mean shard occupancy, in
    /// thousandths (deterministic integer form for BENCH json). Returns
    /// 0 for an empty database.
    pub fn skew_millis(&self) -> u64 {
        let occ = self.occupancy();
        let total: usize = occ.iter().sum();
        let max = occ.iter().copied().max().unwrap_or(0);
        if total == 0 {
            return 0;
        }
        // max / (total / n) = max * n / total, scaled by 1000.
        (max as u64 * occ.len() as u64 * 1000) / total as u64
    }

    /// Consumes the sharded database, yielding one [`KdcDatabase`] per
    /// shard for handing to shard-owning KDCs.
    pub fn into_shards(self) -> Vec<KdcDatabase> {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut db = KdcDatabase::new("ATHENA");
        let pat = db.add_user("pat", "hunter2");
        let nfs = db.add_service("nfs", "fs1", DesKey::from_u64(0x1234).with_odd_parity());
        let tgs = db.add_tgs(DesKey::from_u64(0x9999).with_odd_parity());
        assert!(!db.lookup(&pat).unwrap().is_service);
        assert!(db.lookup(&nfs).unwrap().is_service);
        assert!(db.lookup(&tgs).unwrap().is_service);
        assert!(db.lookup(&Principal::user("nobody", "ATHENA")).is_err());
    }

    #[test]
    fn password_change_bumps_kvno_and_key() {
        let mut db = KdcDatabase::new("R");
        let p = db.add_user("pat", "old");
        let k1 = db.lookup(&p).unwrap().key;
        db.change_password(&p, "new").unwrap();
        let e = db.lookup(&p).unwrap();
        assert_ne!(e.key, k1);
        assert_eq!(e.kvno, 2);
    }

    #[test]
    fn same_password_different_user_different_key() {
        let mut db = KdcDatabase::new("R");
        let a = db.add_user("alice", "hunter2");
        let b = db.add_user("bob", "hunter2");
        assert_ne!(db.lookup(&a).unwrap().key, db.lookup(&b).unwrap().key);
    }

    #[test]
    fn sharded_routing_matches_flat_database() {
        let mut flat = KdcDatabase::new("ATHENA");
        let mut sharded = ShardedDatabase::new("ATHENA", 4);
        let tgs_key = DesKey::from_u64(0x9999).with_odd_parity();
        flat.add_tgs(tgs_key);
        sharded.add_tgs(tgs_key);
        let svc_key = DesKey::from_u64(0x1234).with_odd_parity();
        flat.add_service("nfs", "fs1", svc_key);
        sharded.add_service("nfs", "fs1", svc_key);
        for i in 0..64 {
            let name = format!("u{i}");
            flat.add_user(&name, &bulk_password(&name));
            sharded.add_user(&name, &bulk_password(&name));
        }
        // Every flat lookup agrees with the routed sharded lookup.
        for (p, a) in flat.entries() {
            let b = sharded.lookup(p).unwrap();
            assert_eq!(a.key, b.key, "{p}");
            assert_eq!(a.kvno, b.kvno, "{p}");
        }
        // Replicated entries exist in every shard; users in exactly one.
        let total_users: usize = sharded.occupancy().iter().sum();
        assert_eq!(total_users, 64);
        for i in 0..sharded.shard_count() {
            assert!(sharded.shard(i).contains(&Principal::tgs("ATHENA")));
            assert!(sharded.shard(i).contains(&Principal::service("nfs", "fs1", "ATHENA")));
        }
    }

    #[test]
    fn bulk_provisioning_derives_real_keys() {
        let mut sharded = ShardedDatabase::new("R", 4);
        assert_eq!(sharded.bulk_add_users("u", 100), 100);
        let p = Principal::user("u42", "R");
        let expect = s2k::string_to_key_v5(&bulk_password("u42"), &p.salt());
        assert_eq!(sharded.lookup(&p).unwrap().key, expect);
        assert!(sharded.skew_millis() >= 1000, "max is never below mean");
    }

    #[test]
    fn shard_for_is_total_and_stable() {
        for shards in [1usize, 2, 4, 7, 16] {
            for i in 0..50 {
                let p = Principal::user(&format!("user{i}"), "REALM");
                let s = shard_for(&p, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(&p, shards), "routing must be deterministic");
                assert_eq!(s, shard_for_parts(&p.name, &p.instance, &p.realm, shards));
            }
        }
    }

    #[test]
    fn tgs_entries_are_the_krbtgt_range() {
        let mut db = KdcDatabase::new("LOCAL");
        let key = DesKey::from_u64(5).with_odd_parity();
        for name in ["krbtgs", "krbtgt0", "krbtgt_", "aardvark", "zed", "krb"] {
            db.add_user(name, "pw");
        }
        db.add_service("krbtgs", "host", key);
        db.add_service("krbtgt0", "host", key);
        let local = db.add_tgs(key);
        let remote = db.add_cross_realm("REMOTE", key);
        let east = db.add_cross_realm("EAST", key);
        let got: Vec<&Principal> = db.tgs_entries().map(|(p, _)| p).collect();
        assert_eq!(got, [&east, &local, &remote]);
        let want: Vec<&Principal> =
            db.entries().map(|(p, _)| p).filter(|p| p.is_tgs()).collect();
        assert_eq!(got, want);
        assert_eq!(KdcDatabase::new("EMPTY").tgs_entries().count(), 0);
    }

    #[test]
    fn cross_realm_principal_shape() {
        let mut db = KdcDatabase::new("LOCAL");
        let x = db.add_cross_realm("REMOTE", DesKey::from_u64(5).with_odd_parity());
        assert!(x.is_tgs());
        assert_eq!(x.realm, "LOCAL");
        assert!(db.contains(&x));
    }
}
