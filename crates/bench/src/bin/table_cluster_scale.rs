//! E18: million-principal sharded KDC cluster.
//!
//! Two phases, both deterministic:
//!
//! - **Provision**: bulk-provisions the principal population into a
//!   4-shard [`ShardedDatabase`] via the cached string-to-key path and
//!   reports per-shard occupancy and load skew (max/mean, thousandths).
//! - **Cluster sim**: a small same-seed simnet deployment — shard
//!   primaries + replicas behind the shard-aware gateway — runs a mixed
//!   AS/TGS/AP workload while shard 0's primary crash-restarts mid-run.
//!   Outcome counts, gateway failovers, and the metrics snapshot land in
//!   `BENCH_cluster.json`; the phase runs twice and the bin gates on
//!   identical outcomes.
//!
//! The wall cost of provisioning and of the cluster is kbench's
//! `cluster_faults` workload (`setup_s`, `kerberos.database.*`).

use bench::{BenchJson, TextTable};

use kerberos::appserver::connect_app;
use kerberos::client::{login_at, LoginInput, TgsParams};
use kerberos::get_service_ticket_at;
use kerberos::testbed::deploy_cluster;
use kerberos::{bulk_password, Principal, ProtocolConfig, ShardedDatabase};
use krb_crypto::rng::{Drbg, RandomSource};
use krb_gateway::{GatewayConfig, PenaltyConfig, ShedPolicy};
use krb_trace::MetricsSnapshot;
use simnet::{FaultPlan, Network, SimDuration, SimTime};

const SHARDS: usize = 4;
const PRINCIPALS: usize = 1_000_000;
const SIM_USERS: usize = 96;
const SIM_ROUNDS: usize = 48;
const SEED: u64 = 0xE18;
const REALM: &str = "ATHENA.MIT.EDU";

/// Outcome counts from one deterministic cluster-sim run.
#[derive(Default)]
struct WorkloadOutcome {
    logins_ok: u64,
    logins_failed: u64,
    tgs_ok: u64,
    ap_ok: u64,
    failovers: u64,
    snapshot: MetricsSnapshot,
}

/// A gateway sized so admission control never sheds this workload: the
/// phase measures shard failover, not overload shedding (E17 covers
/// that).
fn open_gateway() -> GatewayConfig {
    GatewayConfig {
        global_rate_per_sec: 100_000,
        global_burst: 10_000,
        per_source_rate_per_sec: 10_000,
        per_source_burst: 1_000,
        queue_bound: 512,
        queue_service_us: 100,
        shed_policy: ShedPolicy::ShedNewest,
        penalty: PenaltyConfig::standard(),
    }
}

/// Deploys the cluster on a fresh simnet, crashes shard 0's
/// primary mid-workload, and drives a seeded mixed AS/TGS/AP workload
/// through the gateway. Fully deterministic for a given seed.
fn run_cluster_sim(config: &ProtocolConfig, seed: u64) -> WorkloadOutcome {
    let mut net = Network::new();
    let cluster =
        deploy_cluster(&mut net, REALM, 1, config, SHARDS, 1, SIM_USERS, 8, &["files"], open_gateway(), seed);

    // Shard 0's primary dies mid-workload and restarts later; the
    // gateway's per-shard pin should carry its traffic to the replica.
    let crash_addr = cluster.shard_primary_eps[0].addr;
    net.set_fault_plan(
        FaultPlan::new(seed).crash(crash_addr, SimTime(2_500_000), SimTime(5_500_000)),
    );

    let mut rng = Drbg::new(seed ^ 0x776f_726b);
    let mut out = WorkloadOutcome::default();
    let contact = cluster.contact_eps();
    let files = cluster.service_principals["files"].clone();
    let files_ep = cluster.service_eps["files"];
    net.advance(SimDuration::from_secs(1));

    for round in 0..SIM_ROUNDS {
        let idx = rng.next_u64() % SIM_USERS as u64;
        let name = format!("u{idx}");
        let client = Principal::user(&name, REALM);
        let pw = bulk_password(&name);
        let ws = cluster.client_eps[round % cluster.client_eps.len()];

        match login_at(&mut net, config, ws, &contact, &client, LoginInput::Password(&pw), &mut rng)
        {
            Ok(tgt) => {
                out.logins_ok += 1;
                if let Ok(cred) = get_service_ticket_at(
                    &mut net,
                    config,
                    ws,
                    &contact,
                    &tgt,
                    &files,
                    TgsParams::default(),
                    &mut rng,
                ) {
                    out.tgs_ok += 1;
                    if let Ok(mut conn) = connect_app(&mut net, config, ws, files_ep, &cred, &mut rng)
                    {
                        if conn.request(&mut net, b"GET motd", &mut rng).is_ok() {
                            out.ap_ok += 1;
                        }
                    }
                }
            }
            Err(_) => out.logins_failed += 1,
        }
        net.advance(SimDuration::from_millis(250));
    }

    out.snapshot = net.tracer().snapshot();
    out.failovers = out
        .snapshot
        .iter()
        .filter(|(k, _)| k.starts_with("gateway.shard_failovers{"))
        .map(|(_, v)| *v)
        .sum();
    out
}

fn main() {
    let config = ProtocolConfig::v5_draft3();

    println!("E18: sharded KDC cluster scale");
    println!();

    // ---- Provision the sharded population ----------------------------
    let (occupancy, skew_millis) = {
        let mut db = ShardedDatabase::new(REALM, SHARDS);
        db.bulk_add_users("u", PRINCIPALS);
        (db.occupancy(), db.skew_millis())
    };

    // ---- Cluster sim with a mid-workload crash, run twice ------------
    let wl_a = run_cluster_sim(&config, SEED ^ 0x5349_4d31);
    let wl_b = run_cluster_sim(&config, SEED ^ 0x5349_4d31);
    let deterministic = wl_a.snapshot == wl_b.snapshot
        && wl_a.logins_ok == wl_b.logins_ok
        && wl_a.tgs_ok == wl_b.tgs_ok
        && wl_a.ap_ok == wl_b.ap_ok
        && wl_a.failovers == wl_b.failovers;

    // ---- Report ------------------------------------------------------
    let mut t = TextTable::new(&["metric", "value"]);
    t.row(&["principals".into(), PRINCIPALS.to_string()]);
    t.row(&["shards".into(), SHARDS.to_string()]);
    for (i, occ) in occupancy.iter().enumerate() {
        t.row(&[format!("occupancy_shard_{i}"), occ.to_string()]);
    }
    t.row(&["load_skew_millis".into(), skew_millis.to_string()]);
    t.row(&["sim_logins_ok".into(), wl_a.logins_ok.to_string()]);
    t.row(&["sim_logins_failed".into(), wl_a.logins_failed.to_string()]);
    t.row(&["sim_tgs_ok".into(), wl_a.tgs_ok.to_string()]);
    t.row(&["sim_ap_ok".into(), wl_a.ap_ok.to_string()]);
    t.row(&["sim_gateway_failovers".into(), wl_a.failovers.to_string()]);
    t.print("E18: cluster scale");

    // ---- Gates -------------------------------------------------------
    let mut failed = Vec::new();
    if wl_a.logins_ok == 0 || wl_a.failovers == 0 {
        failed.push(format!(
            "cluster sim must survive the crash: {} logins ok, {} failovers",
            wl_a.logins_ok, wl_a.failovers
        ));
    }
    if !deterministic {
        failed.push("cluster sim diverged between two same-seed runs".into());
    }
    if !failed.is_empty() {
        for f in &failed {
            println!("E18 GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!("gate: failover survived; deterministic");

    // ---- BENCH_cluster.json ------------------------------------------
    let mut json = BenchJson::new("E18");
    json.int("principals", PRINCIPALS as u64)
        .int("shards", SHARDS as u64)
        .int("load_skew_millis", skew_millis)
        .int("sim_rounds", SIM_ROUNDS as u64)
        .int("sim_logins_ok", wl_a.logins_ok)
        .int("sim_logins_failed", wl_a.logins_failed)
        .int("sim_tgs_ok", wl_a.tgs_ok)
        .int("sim_ap_ok", wl_a.ap_ok)
        .int("sim_gateway_failovers", wl_a.failovers)
        .flag("deterministic_sim", deterministic);
    for (i, occ) in occupancy.iter().enumerate() {
        json.int(&format!("occupancy_shard_{i}"), *occ as u64);
    }
    json.metrics(&wl_a.snapshot);
    json.write("cluster");
}
