//! A deployable campus testbed: one call builds a realm with a KDC,
//! user workstations, and kerberized servers on a simulated network.
//!
//! Used by the integration tests, the attack library, the examples, and
//! the benchmarks, so every consumer exercises the same deployment.

use crate::appserver::{AppLogic, AppServer};
use crate::config::ProtocolConfig;
use crate::database::{shard_for, KdcDatabase, ShardedDatabase};
use crate::gateway::{KrbFrontend, KrbGateway};
use crate::kdc::{Kdc, KDC_PORT};
use crate::principal::Principal;
use crate::services::{BackupServerLogic, EchoLogic, FileServerLogic, MailServerLogic};
use krb_crypto::des::DesKey;
use krb_crypto::rng::{Drbg, RandomSource};
use krb_gateway::GatewayConfig;
use simnet::{Addr, Endpoint, Host, HostId, Network};
use std::collections::BTreeMap;

/// The application-server port used throughout the testbed.
pub const APP_PORT: u16 = 2001;
/// The client-side ephemeral port used throughout the testbed.
pub const CLIENT_PORT: u16 = 1024;

/// One deployed realm.
pub struct DeployedRealm {
    /// Realm name.
    pub name: String,
    /// Active configuration.
    pub config: ProtocolConfig,
    /// KDC endpoint (the master).
    pub kdc_ep: Endpoint,
    /// KDC host id (the master).
    pub kdc_host: HostId,
    /// Slave-KDC replica endpoints; empty unless
    /// [`DeployedRealm::add_kdc_replicas`] was called.
    pub kdc_replica_eps: Vec<Endpoint>,
    /// Slave-KDC replica host ids.
    pub kdc_replica_hosts: Vec<HostId>,
    /// Gateway (admission tier) endpoint; `None` unless
    /// [`DeployedRealm::add_gateway`] was called.
    pub gateway_ep: Option<Endpoint>,
    /// Gateway host id.
    pub gateway_host: Option<HostId>,
    /// user name -> workstation endpoint.
    pub user_eps: BTreeMap<String, Endpoint>,
    /// user name -> workstation host id.
    pub user_hosts: BTreeMap<String, HostId>,
    /// user name -> password (so tests can act as the user).
    pub passwords: BTreeMap<String, String>,
    /// service name -> server endpoint.
    pub service_eps: BTreeMap<String, Endpoint>,
    /// service name -> server host id.
    pub service_hosts: BTreeMap<String, HostId>,
    /// service name -> principal.
    pub service_principals: BTreeMap<String, Principal>,
    /// service name -> long-term key (the KDC knows it; tests may need
    /// it to play the server).
    pub service_keys: BTreeMap<String, DesKey>,
}

impl DeployedRealm {
    /// The principal for a user name.
    pub fn user(&self, name: &str) -> Principal {
        Principal::user(name, &self.name)
    }

    /// The endpoint of a user's workstation.
    ///
    /// # Panics
    ///
    /// Panics if the user was not deployed.
    pub fn user_ep(&self, name: &str) -> Endpoint {
        self.user_eps[name]
    }

    /// The endpoint of a service.
    ///
    /// # Panics
    ///
    /// Panics if the service was not deployed.
    pub fn service_ep(&self, name: &str) -> Endpoint {
        self.service_eps[name]
    }

    /// The principal of a service.
    ///
    /// # Panics
    ///
    /// Panics if the service was not deployed.
    pub fn service(&self, name: &str) -> Principal {
        self.service_principals[name].clone()
    }

    /// Runs `f` with mutable access to a deployed [`AppServer`].
    ///
    /// # Panics
    ///
    /// Panics if the service was not deployed or is not an `AppServer`.
    #[expect(
        clippy::expect_used,
        reason = "experiment-harness fixture access; failing loudly at setup is correct and precedes any protocol traffic"
    )]
    pub fn with_app_server<R>(
        &self,
        net: &mut Network,
        service: &str,
        f: impl FnOnce(&mut AppServer) -> R,
    ) -> R {
        let hid = self.service_hosts[service];
        let svc = net
            .host_mut(hid)
            .service_mut(APP_PORT)
            .expect("service bound")
            .as_any_mut()
            .expect("inspectable")
            .downcast_mut::<AppServer>()
            .expect("an AppServer");
        f(svc)
    }

    /// Runs `f` with mutable access to the deployed [`Kdc`].
    ///
    /// # Panics
    ///
    /// Panics if the KDC host does not hold a `Kdc`.
    #[expect(
        clippy::expect_used,
        reason = "experiment-harness fixture access; failing loudly at setup is correct and precedes any protocol traffic"
    )]
    pub fn with_kdc<R>(&self, net: &mut Network, f: impl FnOnce(&mut Kdc) -> R) -> R {
        let svc = net
            .host_mut(self.kdc_host)
            .service_mut(KDC_PORT)
            .expect("KDC bound")
            .as_any_mut()
            .expect("inspectable")
            .downcast_mut::<Kdc>()
            .expect("a Kdc");
        f(svc)
    }

    /// Every KDC endpoint, master first: the list a client walks on
    /// retry, exactly as a real client walks the KDC list in its
    /// configuration file.
    pub fn kdc_eps(&self) -> Vec<Endpoint> {
        let mut eps = vec![self.kdc_ep];
        eps.extend_from_slice(&self.kdc_replica_eps);
        eps
    }

    /// The endpoints clients should contact for AS/TGS traffic: the
    /// gateway alone when one is deployed (the KDCs sit behind it),
    /// otherwise the KDC list itself.
    pub fn kdc_contact_eps(&self) -> Vec<Endpoint> {
        match self.gateway_ep {
            Some(ep) => vec![ep],
            None => self.kdc_eps(),
        }
    }

    /// Deploys the admission-control gateway at `10.<subnet>.0.254`,
    /// fronting every KDC deployed so far (master plus replicas, in
    /// rotation order). Call *after* [`DeployedRealm::add_kdc_replicas`]
    /// so the gateway load-balances across the whole cluster. Point
    /// clients at [`DeployedRealm::kdc_contact_eps`].
    pub fn add_gateway(&mut self, net: &mut Network, gw_config: GatewayConfig) {
        let subnet = self.kdc_ep.addr.0.to_be_bytes()[1];
        let addr = Addr::new(10, subnet, 0, 254);
        let frontend = KrbFrontend::new(self.config.codec);
        let gateway = KrbGateway::new(gw_config, frontend, self.kdc_eps());
        let mut host =
            Host::new(&format!("krbgate.{}", self.name), vec![addr]).multi_user();
        host.bind(KDC_PORT, Box::new(gateway));
        let hid = net.add_host(host);
        self.gateway_ep = Some(Endpoint::new(addr, KDC_PORT));
        self.gateway_host = Some(hid);
    }

    /// Runs `f` with mutable access to the deployed [`KrbGateway`].
    ///
    /// # Panics
    ///
    /// Panics if no gateway was deployed.
    #[expect(
        clippy::expect_used,
        reason = "experiment-harness fixture access; failing loudly at setup is correct and precedes any protocol traffic"
    )]
    pub fn with_gateway<R>(&self, net: &mut Network, f: impl FnOnce(&mut KrbGateway) -> R) -> R {
        let hid = self.gateway_host.expect("gateway deployed");
        let svc = net
            .host_mut(hid)
            .service_mut(KDC_PORT)
            .expect("gateway bound")
            .as_any_mut()
            .expect("inspectable")
            .downcast_mut::<KrbGateway>()
            .expect("a KrbGateway");
        f(svc)
    }

    /// Deploys `n` slave-KDC replicas at `10.<subnet>.0.<249-i>`, each
    /// holding a propagated copy of the master database and TGS key.
    /// Kerberos runs read-only slaves precisely so that "an occasional
    /// server failure" does not take authentication down; replicas here
    /// serve AS and TGS exchanges identically to the master.
    pub fn add_kdc_replicas(&mut self, net: &mut Network, n: usize, seed: u64) {
        let subnet = self.kdc_ep.addr.0.to_be_bytes()[1];
        let db = self.with_kdc(net, |k| k.db.clone());
        let config = self.config.clone();
        for i in 0..n {
            let addr = Addr::new(10, subnet, 0, 249 - i as u8);
            let mut host =
                Host::new(&format!("kerberos-{}.{}", i + 2, self.name), vec![addr]).multi_user();
            host.bind(
                KDC_PORT,
                Box::new(Kdc::new(config.clone(), db.clone(), seed ^ 0x7265_706c ^ (i as u64))),
            );
            let hid = net.add_host(host);
            self.kdc_replica_eps.push(Endpoint::new(addr, KDC_PORT));
            self.kdc_replica_hosts.push(hid);
        }
    }
}

/// Builds the application logic for a well-known service name.
fn logic_for(service: &str) -> Box<dyn AppLogic> {
    match service {
        "files" => Box::new(FileServerLogic::new()),
        "mail" => Box::new(MailServerLogic::new()),
        "backup" => Box::new(BackupServerLogic::new()),
        _ => Box::new(EchoLogic),
    }
}

/// Deploys a realm onto `net`: a KDC at `10.<idx>.0.250`, one
/// workstation per user at `10.<idx>.0.<n>`, one server host per service
/// at `10.<idx>.1.<n>`.
pub fn deploy_realm(
    net: &mut Network,
    realm: &str,
    subnet: u8,
    config: &ProtocolConfig,
    users: &[(&str, &str)],
    services: &[&str],
    seed: u64,
) -> DeployedRealm {
    let mut rng = Drbg::new(seed);
    let mut db = KdcDatabase::new(realm);
    db.add_tgs(rng.gen_des_key());

    let mut deployed = DeployedRealm {
        name: realm.to_string(),
        config: config.clone(),
        kdc_ep: Endpoint::new(Addr::new(10, subnet, 0, 250), KDC_PORT),
        kdc_host: HostId(0), // fixed up below
        kdc_replica_eps: Vec::new(),
        kdc_replica_hosts: Vec::new(),
        gateway_ep: None,
        gateway_host: None,
        user_eps: BTreeMap::new(),
        user_hosts: BTreeMap::new(),
        passwords: BTreeMap::new(),
        service_eps: BTreeMap::new(),
        service_hosts: BTreeMap::new(),
        service_principals: BTreeMap::new(),
        service_keys: BTreeMap::new(),
    };

    // Users and their workstations.
    for (i, (name, password)) in users.iter().enumerate() {
        db.add_user(name, password);
        let addr = Addr::new(10, subnet, 0, (i + 1) as u8);
        let hid = net.add_host(Host::new(&format!("ws-{name}.{realm}"), vec![addr]));
        deployed.user_eps.insert(name.to_string(), Endpoint::new(addr, CLIENT_PORT));
        deployed.user_hosts.insert(name.to_string(), hid);
        deployed.passwords.insert(name.to_string(), password.to_string());
    }

    // Services and their hosts.
    for (i, service) in services.iter().enumerate() {
        let key = rng.gen_des_key();
        let hostname = format!("{service}host");
        let principal = db.add_service(service, &hostname, key);
        let addr = Addr::new(10, subnet, 1, (i + 1) as u8);
        let mut host = Host::new(&format!("{hostname}.{realm}"), vec![addr]).multi_user();
        host.bind(
            APP_PORT,
            Box::new(AppServer::new(config.clone(), principal.clone(), key, logic_for(service), seed ^ (i as u64 + 1))),
        );
        let hid = net.add_host(host);
        deployed.service_eps.insert(service.to_string(), Endpoint::new(addr, APP_PORT));
        deployed.service_hosts.insert(service.to_string(), hid);
        deployed.service_principals.insert(service.to_string(), principal);
        deployed.service_keys.insert(service.to_string(), key);
    }

    // The KDC host.
    let kdc_addr = Addr::new(10, subnet, 0, 250);
    let mut kdc_host = Host::new(&format!("kerberos.{realm}"), vec![kdc_addr]).multi_user();
    kdc_host.bind(KDC_PORT, Box::new(Kdc::new(config.clone(), db, seed ^ 0x6b64_6373)));
    deployed.kdc_host = net.add_host(kdc_host);

    deployed
}

/// A deployed sharded KDC cluster: one primary KDC per database shard,
/// optional per-shard replicas, and a shard-aware gateway in front —
/// the million-principal deployment shape (E18). Composes the pieces
/// the smaller testbeds introduced: [`ShardedDatabase`] partitioning,
/// [`DeployedRealm::add_kdc_replicas`]-style failover, and the PR 7
/// admission gateway, now routing AS traffic to the shard that owns
/// the principal.
pub struct KdcCluster {
    /// Realm name.
    pub name: String,
    /// Active configuration.
    pub config: ProtocolConfig,
    /// Shard `i`'s primary KDC endpoint.
    pub shard_primary_eps: Vec<Endpoint>,
    /// Shard `i`'s primary KDC host id.
    pub shard_primary_hosts: Vec<HostId>,
    /// Shard `i`'s replica endpoints (failover order).
    pub shard_replica_eps: Vec<Vec<Endpoint>>,
    /// Shard `i`'s replica host ids.
    pub shard_replica_hosts: Vec<Vec<HostId>>,
    /// The shard-aware gateway endpoint — the only address clients use.
    pub gateway_ep: Endpoint,
    /// Gateway host id.
    pub gateway_host: HostId,
    /// Workstation endpoints for driving client traffic.
    pub client_eps: Vec<Endpoint>,
    /// service name -> server endpoint.
    pub service_eps: BTreeMap<String, Endpoint>,
    /// service name -> principal.
    pub service_principals: BTreeMap<String, Principal>,
    /// Per-shard user occupancy captured at provisioning time.
    pub occupancy: Vec<usize>,
    /// Load skew (max/mean shard occupancy, thousandths) at
    /// provisioning time.
    pub skew_millis: u64,
}

impl KdcCluster {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_primary_eps.len()
    }

    /// The shard index owning `p`.
    pub fn shard_of(&self, p: &Principal) -> usize {
        shard_for(p, self.shard_primary_eps.len())
    }

    /// The KDC endpoints able to serve `p`, primary first — the list a
    /// shard-aware client would walk directly, bypassing the gateway.
    pub fn kdc_eps_for(&self, p: &Principal) -> Vec<Endpoint> {
        let i = self.shard_of(p);
        let mut eps = vec![self.shard_primary_eps[i]];
        eps.extend_from_slice(&self.shard_replica_eps[i]);
        eps
    }

    /// What clients contact for AS/TGS traffic: the gateway.
    pub fn contact_eps(&self) -> Vec<Endpoint> {
        vec![self.gateway_ep]
    }

    /// Runs `f` with mutable access to shard `i`'s primary [`Kdc`].
    ///
    /// # Panics
    ///
    /// Panics if the host does not hold a `Kdc`.
    #[expect(
        clippy::expect_used,
        reason = "experiment-harness fixture access; failing loudly at setup is correct and precedes any protocol traffic"
    )]
    pub fn with_shard_kdc<R>(
        &self,
        net: &mut Network,
        shard: usize,
        f: impl FnOnce(&mut Kdc) -> R,
    ) -> R {
        let svc = net
            .host_mut(self.shard_primary_hosts[shard])
            .service_mut(KDC_PORT)
            .expect("KDC bound")
            .as_any_mut()
            .expect("inspectable")
            .downcast_mut::<Kdc>()
            .expect("a Kdc");
        f(svc)
    }
}

/// Deploys a sharded KDC cluster onto `net`: `users_bulk` principals
/// named `u0..` (passwords from [`crate::database::bulk_password`])
/// partitioned across `shards` primaries at `10.<subnet>.2.(10+i)`,
/// `replicas_per_shard` propagated replicas each at
/// `10.<subnet>.2.(100+8i+r)`, app servers at `10.<subnet>.1.<n>`,
/// `client_slots` workstations at `10.<subnet>.0.<n>`, and the
/// shard-aware gateway at `10.<subnet>.0.254`.
#[allow(clippy::too_many_arguments)]
pub fn deploy_cluster(
    net: &mut Network,
    realm: &str,
    subnet: u8,
    config: &ProtocolConfig,
    shards: usize,
    replicas_per_shard: usize,
    users_bulk: usize,
    client_slots: usize,
    services: &[&str],
    gw_config: GatewayConfig,
    seed: u64,
) -> KdcCluster {
    let mut rng = Drbg::new(seed);
    let mut db = ShardedDatabase::new(realm, shards);
    db.add_tgs(rng.gen_des_key());

    let mut service_eps = BTreeMap::new();
    let mut service_principals = BTreeMap::new();
    for (i, service) in services.iter().enumerate() {
        let key = rng.gen_des_key();
        let hostname = format!("{service}host");
        let principal = db.add_service(service, &hostname, key);
        let addr = Addr::new(10, subnet, 1, (i + 1) as u8);
        let mut host = Host::new(&format!("{hostname}.{realm}"), vec![addr]).multi_user();
        host.bind(
            APP_PORT,
            Box::new(AppServer::new(
                config.clone(),
                principal.clone(),
                key,
                logic_for(service),
                seed ^ (i as u64 + 1),
            )),
        );
        net.add_host(host);
        service_eps.insert(service.to_string(), Endpoint::new(addr, APP_PORT));
        service_principals.insert(service.to_string(), principal);
    }

    db.bulk_add_users("u", users_bulk);
    let occupancy = db.occupancy();
    let skew_millis = db.skew_millis();

    // One primary (plus propagated replicas) per shard. Every KDC of a
    // shard holds that shard's database copy and the same TGS key.
    let mut shard_primary_eps = Vec::with_capacity(shards);
    let mut shard_primary_hosts = Vec::with_capacity(shards);
    let mut shard_replica_eps = Vec::with_capacity(shards);
    let mut shard_replica_hosts = Vec::with_capacity(shards);
    let mut groups: Vec<Vec<Endpoint>> = Vec::with_capacity(shards);
    for (i, shard_db) in db.into_shards().into_iter().enumerate() {
        let addr = Addr::new(10, subnet, 2, (10 + i) as u8);
        let mut host =
            Host::new(&format!("kerberos-s{i}.{realm}"), vec![addr]).multi_user();
        host.bind(
            KDC_PORT,
            Box::new(Kdc::new(config.clone(), shard_db.clone(), seed ^ 0x6b64_6373 ^ ((i as u64) << 8))),
        );
        let hid = net.add_host(host);
        let primary_ep = Endpoint::new(addr, KDC_PORT);
        shard_primary_eps.push(primary_ep);
        shard_primary_hosts.push(hid);

        let mut reps = Vec::with_capacity(replicas_per_shard);
        let mut rep_hosts = Vec::with_capacity(replicas_per_shard);
        for r in 0..replicas_per_shard {
            let raddr = Addr::new(10, subnet, 2, (100 + i * 8 + r) as u8);
            let mut rhost =
                Host::new(&format!("kerberos-s{i}r{r}.{realm}"), vec![raddr]).multi_user();
            rhost.bind(
                KDC_PORT,
                Box::new(Kdc::new(
                    config.clone(),
                    shard_db.clone(),
                    seed ^ 0x7265_706c ^ ((i as u64) << 8) ^ r as u64,
                )),
            );
            rep_hosts.push(net.add_host(rhost));
            reps.push(Endpoint::new(raddr, KDC_PORT));
        }
        let mut group = vec![primary_ep];
        group.extend_from_slice(&reps);
        groups.push(group);
        shard_replica_eps.push(reps);
        shard_replica_hosts.push(rep_hosts);
    }

    // The shard-aware gateway is the cluster's front door.
    let gw_addr = Addr::new(10, subnet, 0, 254);
    let gateway =
        KrbGateway::new_sharded(gw_config, KrbFrontend::new(config.codec), groups);
    let mut gw_host = Host::new(&format!("krbgate.{realm}"), vec![gw_addr]).multi_user();
    gw_host.bind(KDC_PORT, Box::new(gateway));
    let gateway_host = net.add_host(gw_host);
    let gateway_ep = Endpoint::new(gw_addr, KDC_PORT);

    // Workstations to drive traffic from.
    let mut client_eps = Vec::with_capacity(client_slots);
    for i in 0..client_slots {
        let addr = Addr::new(10, subnet, 0, (i + 1) as u8);
        net.add_host(Host::new(&format!("ws-{i}.{realm}"), vec![addr]));
        client_eps.push(Endpoint::new(addr, CLIENT_PORT));
    }

    KdcCluster {
        name: realm.to_string(),
        config: config.clone(),
        shard_primary_eps,
        shard_primary_hosts,
        shard_replica_eps,
        shard_replica_hosts,
        gateway_ep,
        gateway_host,
        client_eps,
        service_eps,
        service_principals,
        occupancy,
        skew_millis,
    }
}

/// The standard small campus used by tests and benchmarks: users pat,
/// sam, zach (zach is the adversary's account — a legitimate but
/// malicious insider); services echo, files, mail, backup.
pub fn standard_campus(net: &mut Network, config: &ProtocolConfig, seed: u64) -> DeployedRealm {
    deploy_realm(
        net,
        "ATHENA.MIT.EDU",
        0,
        config,
        &[("pat", "correct-horse-battery"), ("sam", "wombat7"), ("zach", "attacker-owned")],
        &["echo", "files", "mail", "backup"],
        seed,
    )
}
