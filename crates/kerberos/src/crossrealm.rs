//! Inter-realm authentication: realm hierarchies, routing, and the
//! cascading-trust problem.
//!
//! "If a user wishes to access a service in another realm, that user
//! must first obtain a ticket-granting ticket for that realm. This is
//! done by making the ticket-granting server in a realm the client of
//! another realm's TGS. ... there is no discussion of how a TGS can
//! determine which of its neighboring realms should be the next hop."
//!
//! [`RealmTopology`] implements the static-table routing the paper says
//! is the de-facto answer, so its limitations (stale/missing routes,
//! unauthenticated provisioning) are demonstrable; [`TrustPolicy`] lets
//! a server evaluate the transited path — and shows why "in the absence
//! of a global name space" a name-based policy is fragile.

use crate::client::{get_service_ticket, Credential, TgsParams};
use crate::config::ProtocolConfig;
use crate::error::KrbError;
use crate::principal::Principal;
use krb_crypto::rng::RandomSource;
use krb_trace::ValueRef;
use simnet::{Endpoint, Network};
use std::collections::BTreeMap;

/// Static inter-realm routing tables: realm -> (destination realm ->
/// next-hop realm). "Should realm administrators rely on electronic
/// mail messages or telephone calls to set up their routing tables?"
#[derive(Clone, Debug, Default)]
pub struct RealmTopology {
    /// KDC endpoint of each realm.
    pub kdc_eps: BTreeMap<String, Endpoint>,
    /// `routes[realm]` maps a destination realm to the next hop (a realm
    /// that `realm` shares an inter-realm key with).
    pub routes: BTreeMap<String, BTreeMap<String, String>>,
}

impl RealmTopology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a realm's KDC endpoint.
    pub fn add_realm(&mut self, realm: &str, kdc: Endpoint) {
        self.kdc_eps.insert(realm.into(), kdc);
    }

    /// Adds a static route entry.
    pub fn add_route(&mut self, at: &str, dest: &str, next_hop: &str) {
        self.routes.entry(at.into()).or_default().insert(dest.into(), next_hop.into());
    }

    /// Computes the realm path from `src` to `dst` by following the
    /// static tables. Fails when a table entry is missing — the paper's
    /// scalability complaint made concrete.
    pub fn path(&self, src: &str, dst: &str) -> Result<Vec<String>, KrbError> {
        let mut path = vec![src.to_string()];
        let mut cur = src.to_string();
        while cur != dst {
            let next = self
                .routes
                .get(&cur)
                .and_then(|t| t.get(dst))
                .ok_or_else(|| KrbError::RealmPathRejected(format!("{cur} has no route to {dst}")))?
                .clone();
            if path.contains(&next) {
                return Err(KrbError::RealmPathRejected(format!("routing loop at {next}")));
            }
            path.push(next.clone());
            cur = next;
        }
        Ok(path)
    }
}

/// Obtains a credential for `service` in a remote realm by walking the
/// inter-realm path: TGT -> cross-realm TGT(s) -> service ticket.
/// Returns the final credential and the realms traversed.
#[allow(clippy::too_many_arguments)]
pub fn cross_realm_ticket(
    net: &mut Network,
    config: &ProtocolConfig,
    topo: &RealmTopology,
    client_ep: Endpoint,
    home_tgt: &Credential,
    service: &Principal,
    rng: &mut dyn RandomSource,
) -> Result<(Credential, Vec<String>), KrbError> {
    let home = home_tgt.client.realm.clone();
    let path = topo.path(&home, &service.realm)?;

    let trace = net.tracer();
    let (client_name, service_name) = (home_tgt.client.to_string(), service.to_string());
    let path_text = path.join(" -> ");
    let span = trace.begin_span(
        "cross-realm",
        net.now().0,
        [
            ("client", ValueRef::Str(&client_name)),
            ("service", ValueRef::Str(&service_name)),
            ("path", ValueRef::Str(&path_text)),
        ],
    );

    // Walk hop by hop: at each realm's KDC, ask for a TGT of the next
    // realm; at the final realm, ask for the service ticket.
    let walk = |net: &mut Network, rng: &mut dyn RandomSource| -> Result<Credential, KrbError> {
        let mut cred = home_tgt.clone();
        for window in path.windows(2) {
            let (cur, next) = (&window[0], &window[1]);
            let kdc = *topo
                .kdc_eps
                .get(cur)
                .ok_or_else(|| KrbError::RealmPathRejected(format!("no KDC known for {cur}")))?;
            net.tracer().note(net.now().0, &format!("cross-realm hop: {cur} grants TGT for {next}"));
            let next_tgs = Principal::tgs(next);
            cred =
                get_service_ticket(net, config, client_ep, kdc, &cred, &next_tgs, TgsParams::default(), rng)?;
        }
        let final_kdc = *topo
            .kdc_eps
            .get(&service.realm)
            .ok_or_else(|| KrbError::RealmPathRejected(format!("no KDC known for {}", service.realm)))?;
        get_service_ticket(net, config, client_ep, final_kdc, &cred, service, TgsParams::default(), rng)
    };
    let result = walk(net, rng);
    trace.end_span(span, net.now().0, &home_tgt.client.name);
    let cred = result?;
    trace.counter("client.crossrealm_hops", &home_tgt.client.name, path.len().saturating_sub(1) as u64);
    Ok((cred, path))
}

/// A server-side trust policy over transited realm paths.
#[derive(Clone, Debug, Default)]
pub struct TrustPolicy {
    /// Realms whose transit taints a path.
    pub distrusted: Vec<String>,
}

impl TrustPolicy {
    /// Distrust nobody.
    pub fn permissive() -> Self {
        Self::default()
    }

    /// Distrust the named realms.
    pub fn distrusting(realms: &[&str]) -> Self {
        TrustPolicy { distrusted: realms.iter().map(|s| s.to_string()).collect() }
    }

    /// Evaluates a ticket's transited path. "To assess the validity of a
    /// request, a server needs global knowledge of the trustworthiness
    /// of all possible transit realms."
    pub fn evaluate(&self, transited: &[String]) -> Result<(), KrbError> {
        for r in transited {
            if self.distrusted.contains(r) {
                return Err(KrbError::RealmPathRejected(format!("distrusted transit realm {r}")));
            }
        }
        Ok(())
    }

    /// The paper's deeper point: names carry no global meaning. If a
    /// malicious realm *renames itself* to a trusted-sounding name in
    /// the path it reports, a name-based policy passes it. This helper
    /// demonstrates the bypass.
    pub fn evaluate_spoofable(&self, claimed_transited: &[String]) -> Result<(), KrbError> {
        self.evaluate(claimed_transited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> RealmTopology {
        // A hierarchy: LEAF.A - MID - ROOT - MID2 - LEAF.B, with static
        // routes pointing up/down the tree.
        let mut t = RealmTopology::new();
        for (i, r) in ["LEAF.A", "MID", "ROOT", "MID2", "LEAF.B"].iter().enumerate() {
            t.add_realm(r, Endpoint::new(simnet::Addr::new(10, 0, 9, i as u8 + 1), 88));
        }
        t.add_route("LEAF.A", "LEAF.B", "MID");
        t.add_route("MID", "LEAF.B", "ROOT");
        t.add_route("ROOT", "LEAF.B", "MID2");
        t.add_route("MID2", "LEAF.B", "LEAF.B");
        t
    }

    #[test]
    fn path_resolution() {
        let t = topo();
        assert_eq!(
            t.path("LEAF.A", "LEAF.B").unwrap(),
            vec!["LEAF.A", "MID", "ROOT", "MID2", "LEAF.B"]
        );
        assert_eq!(t.path("MID2", "LEAF.B").unwrap(), vec!["MID2", "LEAF.B"]);
        assert_eq!(t.path("LEAF.A", "LEAF.A").unwrap(), vec!["LEAF.A"]);
    }

    #[test]
    fn missing_route_fails() {
        let t = topo();
        assert!(matches!(t.path("LEAF.B", "LEAF.A"), Err(KrbError::RealmPathRejected(_))));
    }

    #[test]
    fn routing_loop_detected() {
        let mut t = RealmTopology::new();
        t.add_route("A", "C", "B");
        t.add_route("B", "C", "A");
        assert!(matches!(t.path("A", "C"), Err(KrbError::RealmPathRejected(_))));
    }

    #[test]
    fn trust_policy() {
        let p = TrustPolicy::distrusting(&["EVIL.CORP"]);
        assert!(p.evaluate(&["MID".into(), "ROOT".into()]).is_ok());
        assert!(p.evaluate(&["MID".into(), "EVIL.CORP".into()]).is_err());
        assert!(TrustPolicy::permissive().evaluate(&["EVIL.CORP".into()]).is_ok());
    }

    #[test]
    fn name_based_trust_is_spoofable() {
        // A malicious transit realm reports itself under an innocuous
        // name; the name-based policy cannot tell.
        let p = TrustPolicy::distrusting(&["EVIL.CORP"]);
        let honest_path = ["EVIL.CORP".to_string()];
        let lying_path = ["TOTALLY.LEGIT".to_string()];
        assert!(p.evaluate_spoofable(&honest_path).is_err());
        assert!(p.evaluate_spoofable(&lying_path).is_ok());
    }
}
