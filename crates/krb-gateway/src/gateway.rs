//! The gateway service: admission control in front of the KDC cluster.
//!
//! Request path, in order:
//!
//! 1. **Penalty box** — AS requests for a principal inside an open
//!    penalty window are refused (preauth-storm defense).
//! 2. **Global token bucket** — caps aggregate request rate.
//! 3. **Per-source token bucket** — caps any one client address.
//! 4. **Admission queue** — bounded backlog with an explicit shed
//!    policy.
//!
//! Every refusal is a *typed* busy reply built by the protocol-supplied
//! [`Frontend`], so well-behaved clients back off instead of timing
//! out. Admitted requests are forwarded transparently to an upstream
//! KDC (round-robin); the KDC's reply is classified on the way back to
//! feed the penalty box.

use crate::bucket::TokenBucket;
use crate::penalty::{PenaltyBox, PenaltyConfig};
use crate::queue::{Admission, AdmissionQueue, ShedPolicy};
use krb_trace::{EventKind, Tracer, Value};
use simnet::net::{Endpoint, NetError};
use simnet::{Service, ServiceCtx};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What the front-end sees in an inbound request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestClass {
    /// An initial-authentication request naming `principal` — the
    /// password-guessing surface, subject to penalty windows.
    AsRequest { principal: String },
    /// Anything else (TGS traffic, garbage): rate-limited and queued
    /// but never penalized by principal.
    Other,
}

/// What the front-end sees in an upstream reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyClass {
    /// Preauthentication failed — a wrong password (or a guess).
    PreauthFailure,
    /// The principal authenticated successfully.
    Success,
    /// Anything else (other errors, TGS replies).
    Other,
}

/// Protocol knowledge injected by the kerberos crate: the gateway
/// itself never parses Kerberos wire formats.
pub trait Frontend {
    /// Classifies an inbound request payload.
    fn classify_request(&self, req: &[u8]) -> RequestClass;
    /// Classifies an upstream reply payload.
    fn classify_reply(&self, reply: &[u8]) -> ReplyClass;
    /// Builds the typed server-busy reply sent to refused clients.
    fn busy_reply(&self, reason: &'static str) -> Vec<u8>;
    /// For sharded clusters ([`Gateway::new_sharded`]): which shard
    /// group owns the principal this request names, if the request
    /// pins one. `None` means any shard can serve it (TGS traffic
    /// against a replicated TGS key, undecodable payloads). The value
    /// must be a pure function of `(req, shard_count)` so two gateways
    /// — or two runs — route identically.
    fn route_shard(&self, _req: &[u8], _shard_count: usize) -> Option<usize> {
        None
    }
}

/// Gateway tuning.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Aggregate admission rate (requests/s of sim-time).
    pub global_rate_per_sec: u64,
    /// Aggregate burst allowance.
    pub global_burst: u64,
    /// Per-source-address admission rate.
    pub per_source_rate_per_sec: u64,
    /// Per-source burst allowance.
    pub per_source_burst: u64,
    /// Admission queue depth.
    pub queue_bound: usize,
    /// Modeled per-request service time for queue-wait accounting.
    pub queue_service_us: u64,
    /// What to drop when the queue is full.
    pub shed_policy: ShedPolicy,
    /// Preauth-storm penalty tuning.
    pub penalty: PenaltyConfig,
}

impl GatewayConfig {
    /// Defaults sized for the campus testbed: the global bucket admits
    /// a healthy shift-change flash crowd but caps a storm; one source
    /// gets a small slice of it.
    pub fn standard() -> Self {
        GatewayConfig {
            global_rate_per_sec: 200,
            global_burst: 100,
            per_source_rate_per_sec: 8,
            per_source_burst: 16,
            queue_bound: 64,
            queue_service_us: 5_000,
            shed_policy: ShedPolicy::ShedNewest,
            penalty: PenaltyConfig::standard(),
        }
    }
}

/// Cumulative admission counters; survive restarts (they describe the
/// whole run, not the current boot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Requests forwarded upstream.
    pub admitted: u64,
    /// Requests dropped by the admission queue (either policy).
    pub shed: u64,
    /// Requests refused by a token bucket.
    pub throttled: u64,
    /// AS requests refused by an open penalty window.
    pub penalized: u64,
    /// Forwards whose upstream leg failed (crash, loss, no route).
    pub upstream_failures: u64,
    /// Times the gateway itself crash-restarted.
    pub restarts: u64,
}

/// The front-end service. Bind it on the realm's well-known KDC port
/// and point clients at it; `upstreams` are the real KDCs.
pub struct Gateway<F: Frontend> {
    config: GatewayConfig,
    frontend: F,
    upstreams: Vec<Endpoint>,
    next_upstream: usize,
    /// Source address → upstream index. Kerberos' hardened login is a
    /// stateful two-round handshake (challenge drawn on one KDC must be
    /// answered on the same KDC), so the gateway pins each source to
    /// one upstream — classic L4 session affinity — assigning new
    /// sources round-robin and advancing a pin only when its upstream
    /// fails.
    affinity: BTreeMap<u32, usize>,
    /// Shard-aware routing ([`Gateway::new_sharded`]): group `i` holds
    /// the primary-then-replicas endpoint list for shard `i`. `None`
    /// means the flat round-robin mode above.
    shard_groups: Option<Vec<Vec<Endpoint>>>,
    /// Per-group failover pin: which endpoint of the group currently
    /// serves it. Advanced on upstream failure, reset on restart.
    shard_pins: Vec<usize>,
    /// Shard group of the forward currently in flight, for pin
    /// advancement when the upstream leg fails.
    in_flight_shard: Option<usize>,
    global: TokenBucket,
    per_source: BTreeMap<u32, TokenBucket>,
    penalties: PenaltyBox,
    queue: AdmissionQueue,
    /// Principal named by the request currently being forwarded; the
    /// forward is synchronous (handle → wire → on_forward_reply within
    /// one dispatch), so one slot suffices.
    in_flight: Option<String>,
    pub stats: GatewayStats,
    trace: Tracer,
    trace_now_us: u64,
    /// Reused formatting buffer for per-request metric labels, so the
    /// admitted-counter label costs no allocation per request (pinned
    /// in the root `tests/alloc_budget.rs`).
    addr_scratch: String,
}

impl<F: Frontend> Gateway<F> {
    pub fn new(config: GatewayConfig, frontend: F, upstreams: Vec<Endpoint>) -> Self {
        let global = TokenBucket::new(config.global_rate_per_sec, config.global_burst, 0);
        let queue =
            AdmissionQueue::new(config.queue_bound, config.queue_service_us, config.shed_policy);
        let penalties = PenaltyBox::new(config.penalty.clone());
        Gateway {
            config,
            frontend,
            upstreams,
            next_upstream: 0,
            affinity: BTreeMap::new(),
            shard_groups: None,
            shard_pins: Vec::new(),
            in_flight_shard: None,
            global,
            per_source: BTreeMap::new(),
            penalties,
            queue,
            in_flight: None,
            stats: GatewayStats::default(),
            trace: Tracer::new(),
            trace_now_us: 0,
            addr_scratch: String::new(),
        }
    }

    /// A gateway fronting a *sharded* cluster: `shard_groups[i]` lists
    /// shard `i`'s KDCs, primary first, replicas after. Requests the
    /// frontend can attribute to a principal ([`Frontend::route_shard`])
    /// go to the group owning that principal; everything else spreads
    /// deterministically by source address. Within a group the current
    /// pin serves until its upstream fails, then the pin advances to the
    /// next replica — the same failover discipline as source affinity,
    /// but per shard.
    pub fn new_sharded(
        config: GatewayConfig,
        frontend: F,
        shard_groups: Vec<Vec<Endpoint>>,
    ) -> Self {
        let flat: Vec<Endpoint> = shard_groups.iter().flatten().copied().collect();
        let pins = vec![0; shard_groups.len()];
        let mut gw = Gateway::new(config, frontend, flat);
        gw.shard_groups = Some(shard_groups);
        gw.shard_pins = pins;
        gw
    }

    /// The upstream KDC endpoints, in rotation order.
    pub fn upstreams(&self) -> &[Endpoint] {
        &self.upstreams
    }

    /// The configured shard groups, if this gateway routes by shard.
    pub fn shard_groups(&self) -> Option<&[Vec<Endpoint>]> {
        self.shard_groups.as_deref()
    }

    fn throttle(&mut self, from: Endpoint, reason: &'static str) -> Option<Vec<u8>> {
        self.trace.emit(
            EventKind::GatewayThrottle,
            self.trace_now_us,
            vec![("src", Value::Str(from.addr.to_string())), ("reason", Value::str(reason))],
        );
        self.trace.counter("gateway.throttled", &from.addr.to_string(), 1);
        Some(self.frontend.busy_reply(reason))
    }

    fn shed_event(&mut self, from: Endpoint, occupancy: usize) {
        self.trace.emit(
            EventKind::GatewayShed,
            self.trace_now_us,
            vec![
                ("src", Value::Str(from.addr.to_string())),
                ("policy", Value::str(self.queue.policy().label())),
                ("occupancy", Value::U64(occupancy as u64)),
            ],
        );
        self.trace.counter("gateway.shed", &from.addr.to_string(), 1);
    }
}

impl<F: Frontend + 'static> Service for Gateway<F> {
    fn handle(&mut self, ctx: &mut ServiceCtx, req: &[u8], from: Endpoint) -> Option<Vec<u8>> {
        self.trace = ctx.tracer.clone();
        self.trace_now_us = ctx.true_time.0;
        let now_us = ctx.local_time.0;

        let principal = match self.frontend.classify_request(req) {
            RequestClass::AsRequest { principal } => Some(principal),
            RequestClass::Other => None,
        };

        // 1. Penalty box: a principal under a preauth-storm window is
        //    refused before any tokens are spent on it.
        if let Some(p) = &principal {
            if self.penalties.is_blocked(p, now_us) {
                self.stats.penalized = self.stats.penalized.saturating_add(1);
                return self.throttle(from, "penalty window");
            }
        }

        // 2. Global bucket.
        if !self.global.try_take(now_us) {
            self.stats.throttled = self.stats.throttled.saturating_add(1);
            return self.throttle(from, "global rate exceeded");
        }

        // 3. Per-source bucket.
        let src_bucket = self.per_source.entry(from.addr.0).or_insert_with(|| {
            TokenBucket::new(
                self.config.per_source_rate_per_sec,
                self.config.per_source_burst,
                now_us,
            )
        });
        if !src_bucket.try_take(now_us) {
            self.stats.throttled = self.stats.throttled.saturating_add(1);
            return self.throttle(from, "source rate exceeded");
        }

        // 4. Admission queue.
        let wait_us = match self.queue.offer(now_us) {
            Admission::Shed { occupancy } => {
                self.stats.shed = self.stats.shed.saturating_add(1);
                self.shed_event(from, occupancy);
                return Some(self.frontend.busy_reply("queue full"));
            }
            Admission::AdmittedEvicting { wait_us, occupancy } => {
                // The evicted request was already forwarded (the queue
                // is virtual); the shed shows up in the *accounting* —
                // its slot's work is disowned.
                self.stats.shed = self.stats.shed.saturating_add(1);
                self.shed_event(from, occupancy);
                wait_us
            }
            Admission::Admitted { wait_us, .. } => wait_us,
        };
        self.trace.gauge("gateway.occupancy", &ctx.host_name, self.queue.occupancy() as u64);
        self.trace.observe_us("gateway.queue_wait", &ctx.host_name, wait_us);

        // Forward upstream. Sharded mode routes by owning shard group;
        // flat mode forwards to this source's pinned upstream, with new
        // sources assigned round-robin.
        if self.upstreams.is_empty() {
            self.stats.upstream_failures = self.stats.upstream_failures.saturating_add(1);
            return Some(self.frontend.busy_reply("no upstream"));
        }
        let up = match &self.shard_groups {
            Some(groups) if !groups.is_empty() => {
                let gc = groups.len();
                let gi = self
                    .frontend
                    .route_shard(req, gc)
                    .map_or(from.addr.0 as usize % gc, |g| g % gc);
                let pin = self.shard_pins.get(gi).copied().unwrap_or(0);
                let ep = groups
                    .get(gi)
                    .filter(|g| !g.is_empty())
                    .map(|g| g[pin % g.len()]);
                match ep {
                    Some(ep) => {
                        self.in_flight_shard = Some(gi);
                        ep
                    }
                    None => {
                        self.stats.upstream_failures =
                            self.stats.upstream_failures.saturating_add(1);
                        return Some(self.frontend.busy_reply("no upstream"));
                    }
                }
            }
            _ => {
                let n = self.upstreams.len();
                let idx = *self.affinity.entry(from.addr.0).or_insert_with(|| {
                    let idx = self.next_upstream % n;
                    self.next_upstream = self.next_upstream.wrapping_add(1);
                    idx
                }) % n;
                match self.upstreams.get(idx) {
                    Some(ep) => *ep,
                    None => {
                        self.stats.upstream_failures =
                            self.stats.upstream_failures.saturating_add(1);
                        return Some(self.frontend.busy_reply("no upstream"));
                    }
                }
            }
        };
        self.stats.admitted = self.stats.admitted.saturating_add(1);
        self.addr_scratch.clear();
        let _ = write!(self.addr_scratch, "{}", from.addr);
        self.trace.counter("gateway.admitted", &self.addr_scratch, 1);
        self.in_flight = principal;
        ctx.forward_to(up, req.to_vec());
        None
    }

    fn on_forward_reply(
        &mut self,
        ctx: &mut ServiceCtx,
        upstream: Result<&[u8], &NetError>,
        from: Endpoint,
    ) -> Option<Vec<u8>> {
        self.trace = ctx.tracer.clone();
        self.trace_now_us = ctx.true_time.0;
        let now_us = ctx.local_time.0;
        let principal = self.in_flight.take();
        let shard = self.in_flight_shard.take();
        match upstream {
            Ok(bytes) => {
                if let Some(p) = &principal {
                    match self.frontend.classify_reply(bytes) {
                        ReplyClass::PreauthFailure => {
                            if let Some(window) = self.penalties.strike(p, now_us) {
                                self.trace.counter("gateway.penalty_windows", p, 1);
                                self.trace.note(
                                    self.trace_now_us,
                                    &format!(
                                        "gateway opens {}ms penalty window for {p}",
                                        window / 1_000
                                    ),
                                );
                            }
                        }
                        ReplyClass::Success => self.penalties.clear(p),
                        ReplyClass::Other => {}
                    }
                }
                Some(bytes.to_vec())
            }
            Err(_) => {
                // The KDC behind the pin is unreachable: move the pin
                // to the next replica — the shard group's pin in
                // sharded mode, the source's affinity pin otherwise.
                // The typed busy reply sends the client into backoff,
                // and its retry lands on the new upstream.
                self.stats.upstream_failures = self.stats.upstream_failures.saturating_add(1);
                match (shard, &self.shard_groups) {
                    (Some(gi), Some(groups)) => {
                        let group_len = groups.get(gi).map_or(0, Vec::len);
                        if let (Some(pin), true) = (self.shard_pins.get_mut(gi), group_len > 0) {
                            *pin = (*pin + 1) % group_len;
                            self.trace.counter("gateway.shard_failovers", &gi.to_string(), 1);
                        }
                    }
                    _ => {
                        if !self.upstreams.is_empty() {
                            if let Some(idx) = self.affinity.get_mut(&from.addr.0) {
                                *idx = (*idx + 1) % self.upstreams.len();
                            }
                        }
                    }
                }
                Some(self.frontend.busy_reply("upstream unavailable"))
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    /// Crash-restart: all admission state is volatile. A rebooted
    /// gateway starts with full buckets, an empty queue, and a clean
    /// penalty box — exactly the window the crash-restart scenario
    /// probes.
    fn on_restart(&mut self, ctx: &mut ServiceCtx) {
        self.trace = ctx.tracer.clone();
        self.trace_now_us = ctx.true_time.0;
        let boot_us = ctx.local_time.0;
        self.global =
            TokenBucket::new(self.config.global_rate_per_sec, self.config.global_burst, boot_us);
        self.per_source.clear();
        self.penalties.reset();
        self.queue.reset();
        self.in_flight = None;
        self.affinity.clear();
        self.next_upstream = 0;
        self.in_flight_shard = None;
        for pin in &mut self.shard_pins {
            *pin = 0;
        }
        self.stats.restarts = self.stats.restarts.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::clock::SimTime;
    use simnet::net::Addr;

    /// A toy protocol: requests `b"AS:<name>"` are AS requests; replies
    /// `b"FAIL"` / `b"OK"` classify; busy replies are
    /// `b"BUSY:<reason>"`.
    struct ToyFrontend;
    impl Frontend for ToyFrontend {
        fn classify_request(&self, req: &[u8]) -> RequestClass {
            match req.strip_prefix(b"AS:") {
                Some(name) => RequestClass::AsRequest {
                    principal: String::from_utf8_lossy(name).into_owned(),
                },
                None => RequestClass::Other,
            }
        }
        fn classify_reply(&self, reply: &[u8]) -> ReplyClass {
            match reply {
                b"FAIL" => ReplyClass::PreauthFailure,
                b"OK" => ReplyClass::Success,
                _ => ReplyClass::Other,
            }
        }
        fn busy_reply(&self, reason: &'static str) -> Vec<u8> {
            let mut v = b"BUSY:".to_vec();
            v.extend_from_slice(reason.as_bytes());
            v
        }
    }

    fn kdc_ep() -> Endpoint {
        Endpoint::new(Addr::new(10, 0, 0, 250), 88)
    }

    fn client_ep() -> Endpoint {
        Endpoint::new(Addr::new(10, 0, 0, 1), 1024)
    }

    fn ctx_at(us: u64) -> ServiceCtx {
        ServiceCtx::detached(SimTime(us), "gw", Addr::new(10, 0, 0, 254), false)
    }

    fn gw(config: GatewayConfig) -> Gateway<ToyFrontend> {
        Gateway::new(config, ToyFrontend, vec![kdc_ep()])
    }

    #[test]
    fn admitted_request_is_forwarded_verbatim() {
        let mut g = gw(GatewayConfig::standard());
        let mut ctx = ctx_at(0);
        let reply = g.handle(&mut ctx, b"AS:pat", client_ep());
        assert_eq!(reply, None, "admission defers to the forward");
        assert_eq!(ctx.forward, Some((kdc_ep(), b"AS:pat".to_vec())));
        assert_eq!(g.stats.admitted, 1);
    }

    #[test]
    fn per_source_bucket_throttles_a_single_chatty_client() {
        let mut cfg = GatewayConfig::standard();
        cfg.per_source_rate_per_sec = 1;
        cfg.per_source_burst = 2;
        let mut g = gw(cfg);
        let mut admitted = 0;
        for _ in 0..10 {
            let mut ctx = ctx_at(0);
            if g.handle(&mut ctx, b"AS:pat", client_ep()).is_none() {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 2, "burst only; same instant buys no refill");
        assert_eq!(g.stats.throttled, 8);
        // A different source still gets through.
        let other = Endpoint::new(Addr::new(10, 0, 0, 2), 1024);
        let mut ctx = ctx_at(0);
        assert_eq!(g.handle(&mut ctx, b"AS:sam", other), None);
    }

    #[test]
    fn global_bucket_caps_the_aggregate() {
        let mut cfg = GatewayConfig::standard();
        cfg.global_rate_per_sec = 1;
        cfg.global_burst = 3;
        let mut g = gw(cfg);
        let mut refused = Vec::new();
        for i in 0..6u8 {
            let src = Endpoint::new(Addr::new(10, 0, 0, i + 1), 1024);
            let mut ctx = ctx_at(0);
            if let Some(reply) = g.handle(&mut ctx, b"AS:pat", src) {
                refused.push(reply);
            }
        }
        assert_eq!(refused.len(), 3);
        assert!(refused.iter().all(|r| r == b"BUSY:global rate exceeded"));
    }

    #[test]
    fn preauth_failures_open_a_penalty_window() {
        let mut cfg = GatewayConfig::standard();
        cfg.penalty.strike_threshold = 1;
        cfg.penalty.base_window_us = 1_000_000;
        let mut g = gw(cfg);
        // Two failed attempts: strike 1 free, strike 2 opens a window.
        for _ in 0..2 {
            let mut ctx = ctx_at(0);
            assert_eq!(g.handle(&mut ctx, b"AS:victim", client_ep()), None);
            let mut fctx = ctx_at(0);
            let relayed = g.on_forward_reply(&mut fctx, Ok(b"FAIL"), client_ep());
            assert_eq!(relayed, Some(b"FAIL".to_vec()));
        }
        // Inside the window the gateway refuses without forwarding.
        let mut ctx = ctx_at(500_000);
        let reply = g.handle(&mut ctx, b"AS:victim", client_ep());
        assert_eq!(reply, Some(b"BUSY:penalty window".to_vec()));
        assert_eq!(ctx.forward, None);
        assert_eq!(g.stats.penalized, 1);
        // After it expires the principal may try again.
        let mut ctx = ctx_at(1_100_000);
        assert_eq!(g.handle(&mut ctx, b"AS:victim", client_ep()), None);
    }

    #[test]
    fn success_clears_the_penalty_record() {
        let mut cfg = GatewayConfig::standard();
        cfg.penalty.strike_threshold = 1;
        let mut g = gw(cfg);
        let mut ctx = ctx_at(0);
        assert_eq!(g.handle(&mut ctx, b"AS:pat", client_ep()), None);
        let mut fctx = ctx_at(0);
        g.on_forward_reply(&mut fctx, Ok(b"FAIL"), client_ep());
        // The principal then logs in successfully: record cleared, so
        // the *next* failure is strike one again, not strike two.
        let mut ctx = ctx_at(1_000);
        assert_eq!(g.handle(&mut ctx, b"AS:pat", client_ep()), None);
        let mut fctx = ctx_at(1_000);
        g.on_forward_reply(&mut fctx, Ok(b"OK"), client_ep());
        let mut ctx = ctx_at(2_000);
        assert_eq!(g.handle(&mut ctx, b"AS:pat", client_ep()), None);
        let mut fctx = ctx_at(2_000);
        g.on_forward_reply(&mut fctx, Ok(b"FAIL"), client_ep());
        let mut ctx = ctx_at(3_000);
        assert_eq!(g.handle(&mut ctx, b"AS:pat", client_ep()), None, "no window yet");
    }

    #[test]
    fn queue_full_sheds_with_typed_busy() {
        let mut cfg = GatewayConfig::standard();
        cfg.queue_bound = 2;
        cfg.queue_service_us = 1_000_000;
        cfg.global_rate_per_sec = 1_000;
        cfg.global_burst = 1_000;
        cfg.per_source_rate_per_sec = 1_000;
        cfg.per_source_burst = 1_000;
        let mut g = gw(cfg);
        let mut replies = Vec::new();
        for _ in 0..3 {
            let mut ctx = ctx_at(0);
            replies.push(g.handle(&mut ctx, b"AS:pat", client_ep()));
        }
        assert_eq!(replies[0], None);
        assert_eq!(replies[1], None);
        assert_eq!(replies[2], Some(b"BUSY:queue full".to_vec()));
        assert_eq!(g.stats.shed, 1);
        assert_eq!(g.stats.admitted, 2);
    }

    #[test]
    fn upstream_failure_becomes_typed_busy() {
        let mut g = gw(GatewayConfig::standard());
        let mut ctx = ctx_at(0);
        assert_eq!(g.handle(&mut ctx, b"AS:pat", client_ep()), None);
        let mut fctx = ctx_at(0);
        let err = NetError::NoReply;
        let reply = g.on_forward_reply(&mut fctx, Err(&err), client_ep());
        assert_eq!(reply, Some(b"BUSY:upstream unavailable".to_vec()));
        assert_eq!(g.stats.upstream_failures, 1);
    }

    #[test]
    fn sources_pin_to_one_upstream_and_spread_round_robin() {
        let a = Endpoint::new(Addr::new(10, 0, 0, 250), 88);
        let b = Endpoint::new(Addr::new(10, 0, 0, 249), 88);
        let mut g = Gateway::new(GatewayConfig::standard(), ToyFrontend, vec![a, b]);
        let src = |i: u8| Endpoint::new(Addr::new(10, 0, 0, i), 1024);
        let target_of = |g: &mut Gateway<ToyFrontend>, s: Endpoint| {
            let mut ctx = ctx_at(0);
            assert_eq!(g.handle(&mut ctx, b"x", s), None);
            let (ep, _) = ctx.forward.expect("forwarded");
            let mut fctx = ctx_at(0);
            g.on_forward_reply(&mut fctx, Ok(b"OK"), s);
            ep
        };
        // New sources are assigned round-robin...
        assert_eq!(target_of(&mut g, src(1)), a);
        assert_eq!(target_of(&mut g, src(2)), b);
        assert_eq!(target_of(&mut g, src(3)), a);
        // ...and each source sticks to its pin (stateful handshakes
        // like the hardened challenge round need one KDC per dialog).
        assert_eq!(target_of(&mut g, src(1)), a);
        assert_eq!(target_of(&mut g, src(2)), b);
    }

    #[test]
    fn upstream_failure_moves_the_source_pin() {
        let a = Endpoint::new(Addr::new(10, 0, 0, 250), 88);
        let b = Endpoint::new(Addr::new(10, 0, 0, 249), 88);
        let mut g = Gateway::new(GatewayConfig::standard(), ToyFrontend, vec![a, b]);
        let mut ctx = ctx_at(0);
        assert_eq!(g.handle(&mut ctx, b"x", client_ep()), None);
        assert_eq!(ctx.forward.map(|(ep, _)| ep), Some(a));
        // Upstream a is down: busy reply, pin advances to b.
        let mut fctx = ctx_at(0);
        let err = NetError::HostDown(a.addr);
        let reply = g.on_forward_reply(&mut fctx, Err(&err), client_ep());
        assert_eq!(reply, Some(b"BUSY:upstream unavailable".to_vec()));
        // The client's busy retry lands on b.
        let mut ctx = ctx_at(1);
        assert_eq!(g.handle(&mut ctx, b"x", client_ep()), None);
        assert_eq!(ctx.forward.map(|(ep, _)| ep), Some(b));
    }

    #[test]
    fn restart_wipes_admission_state_but_keeps_cumulative_stats() {
        let mut cfg = GatewayConfig::standard();
        cfg.per_source_rate_per_sec = 0;
        cfg.per_source_burst = 1;
        cfg.penalty.strike_threshold = 0;
        let mut g = gw(cfg);
        // Exhaust the source bucket and open a penalty window.
        let mut ctx = ctx_at(0);
        assert_eq!(g.handle(&mut ctx, b"AS:pat", client_ep()), None);
        let mut fctx = ctx_at(0);
        g.on_forward_reply(&mut fctx, Ok(b"FAIL"), client_ep());
        let mut ctx = ctx_at(1);
        assert!(g.handle(&mut ctx, b"AS:sam", client_ep()).is_some(), "bucket empty");
        let before = g.stats;
        // Reboot: buckets refill, penalty box empties.
        let mut rctx = ctx_at(2);
        g.on_restart(&mut rctx);
        let mut ctx = ctx_at(3);
        assert_eq!(g.handle(&mut ctx, b"AS:pat", client_ep()), None, "state wiped");
        assert_eq!(g.stats.restarts, 1);
        assert_eq!(g.stats.admitted, before.admitted + 1, "stats are cumulative");
    }

    /// The toy frontend with shard knowledge: AS:<name> routes by the
    /// byte-sum of the name.
    struct ShardedToy;
    impl Frontend for ShardedToy {
        fn classify_request(&self, req: &[u8]) -> RequestClass {
            ToyFrontend.classify_request(req)
        }
        fn classify_reply(&self, reply: &[u8]) -> ReplyClass {
            ToyFrontend.classify_reply(reply)
        }
        fn busy_reply(&self, reason: &'static str) -> Vec<u8> {
            ToyFrontend.busy_reply(reason)
        }
        fn route_shard(&self, req: &[u8], shard_count: usize) -> Option<usize> {
            let name = req.strip_prefix(b"AS:")?;
            Some(name.iter().map(|b| usize::from(*b)).sum::<usize>() % shard_count)
        }
    }

    fn shard_eps() -> Vec<Vec<Endpoint>> {
        // Two shards, each with a primary and one replica.
        let ep = |d: u8| Endpoint::new(Addr::new(10, 0, 0, d), 88);
        vec![vec![ep(250), ep(249)], vec![ep(248), ep(247)]]
    }

    fn forward_target(g: &mut Gateway<ShardedToy>, req: &[u8], src: Endpoint) -> Endpoint {
        let mut ctx = ctx_at(0);
        assert_eq!(g.handle(&mut ctx, req, src), None, "expected admission");
        let (ep, _) = ctx.forward.expect("forwarded");
        let mut fctx = ctx_at(0);
        g.on_forward_reply(&mut fctx, Ok(b"OK"), src);
        ep
    }

    #[test]
    fn sharded_as_requests_follow_the_principal_not_the_source() {
        let groups = shard_eps();
        let mut g = Gateway::new_sharded(GatewayConfig::standard(), ShardedToy, groups.clone());
        let expect_of = |name: &str| {
            let gi = ShardedToy.route_shard(format!("AS:{name}").as_bytes(), 2).unwrap();
            groups[gi][0]
        };
        for src_octet in 1..=4u8 {
            let src = Endpoint::new(Addr::new(10, 0, 0, src_octet), 1024);
            for name in ["pat", "sam", "u17", "u18"] {
                let ep = forward_target(&mut g, format!("AS:{name}").as_bytes(), src);
                assert_eq!(ep, expect_of(name), "{name} from source {src_octet}");
            }
        }
    }

    #[test]
    fn sharded_failover_advances_the_group_pin_and_restart_resets_it() {
        let groups = shard_eps();
        let mut g = Gateway::new_sharded(GatewayConfig::standard(), ShardedToy, groups.clone());
        // Find a name owned by shard 0.
        let name = ["pat", "sam", "kim", "lee"]
            .iter()
            .find(|n| ShardedToy.route_shard(format!("AS:{n}").as_bytes(), 2) == Some(0))
            .expect("some name routes to shard 0");
        let req = format!("AS:{name}").into_bytes();
        assert_eq!(forward_target(&mut g, &req, client_ep()), groups[0][0]);
        // Shard 0's primary dies mid-forward: the pin advances to its
        // replica, and only shard 0 is affected.
        let mut ctx = ctx_at(0);
        assert_eq!(g.handle(&mut ctx, &req, client_ep()), None);
        let err = NetError::HostDown(groups[0][0].addr);
        let mut fctx = ctx_at(0);
        let reply = g.on_forward_reply(&mut fctx, Err(&err), client_ep());
        assert_eq!(reply, Some(b"BUSY:upstream unavailable".to_vec()));
        assert_eq!(forward_target(&mut g, &req, client_ep()), groups[0][1]);
        // A restart clears the pin back to the primary.
        let mut rctx = ctx_at(10);
        g.on_restart(&mut rctx);
        assert_eq!(forward_target(&mut g, &req, client_ep()), groups[0][0]);
    }

    #[test]
    fn sharded_other_traffic_spreads_deterministically_by_source() {
        let groups = shard_eps();
        let mut g = Gateway::new_sharded(GatewayConfig::standard(), ShardedToy, groups.clone());
        for src_octet in 1..=4u8 {
            let src = Endpoint::new(Addr::new(10, 0, 0, src_octet), 1024);
            let expected = &groups[Addr::new(10, 0, 0, src_octet).0 as usize % 2][0];
            let a = forward_target(&mut g, b"TGS:whatever", src);
            let b = forward_target(&mut g, b"TGS:whatever", src);
            assert_eq!(a, *expected);
            assert_eq!(b, *expected, "same source keeps the same group");
        }
    }

    #[test]
    fn no_upstreams_is_refused_not_panicked() {
        let mut g = Gateway::new(GatewayConfig::standard(), ToyFrontend, Vec::new());
        let mut ctx = ctx_at(0);
        let reply = g.handle(&mut ctx, b"AS:pat", client_ep());
        assert_eq!(reply, Some(b"BUSY:no upstream".to_vec()));
        assert_eq!(g.stats.upstream_failures, 1);
    }
}
