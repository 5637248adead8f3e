//! Shared attack environment: a standard campus deployment plus victim
//! and attacker conveniences.

use kerberos::appserver::{connect_app, AppConnection};
use kerberos::client::{get_service_ticket, login, Credential, LoginInput, TgsParams};
use kerberos::testbed::{standard_campus, DeployedRealm};
use kerberos::{KrbError, Principal, ProtocolConfig};
use krb_crypto::rng::Drbg;
use krb_trace::Tracer;
use simnet::{Endpoint, FaultPlan, LinkFaults, Network, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

/// An installed [`with_env_hook`] observer: called with each freshly
/// built env's tracer.
pub type EnvHook = Rc<dyn Fn(&Tracer)>;

/// Environment faults applied to every [`AttackEnv`] built inside
/// [`with_fault_profile`]: the given link faults on each user↔KDC link
/// (both directions), from the given seed.
///
/// Only the KDC links are faulted: the attack scripts' own raw-wire
/// moves ([`Network::inject`], taps) already bypass the fault layer by
/// design, and faulting application links would change what a *passive*
/// adversary observes rather than what the robustness layer defends.
#[derive(Clone, Copy, Debug)]
pub struct FaultProfile {
    /// Fault-plan seed.
    pub seed: u64,
    /// Per-link fault rates for user↔KDC links.
    pub faults: LinkFaults,
}

thread_local! {
    static FAULT_PROFILE: RefCell<Option<FaultProfile>> = const { RefCell::new(None) };
    /// Outer `None`: capture disarmed. `Some(None)`: armed, no env
    /// built yet. `Some(Some(t))`: the tracer of the last env built.
    static TRACE_CAPTURE: RefCell<Option<Option<Tracer>>> = const { RefCell::new(None) };
    /// Hook invoked with each freshly built env's tracer — how the IDS
    /// bench attaches a subscriber engine to environments that attack
    /// scripts construct internally.
    static ENV_HOOK: RefCell<Option<EnvHook>> = const { RefCell::new(None) };
}

/// Runs `f` with `profile` applied to every [`AttackEnv`] it builds.
pub fn with_fault_profile<R>(profile: FaultProfile, f: impl FnOnce() -> R) -> R {
    FAULT_PROFILE.with(|p| *p.borrow_mut() = Some(profile));
    let out = f();
    FAULT_PROFILE.with(|p| *p.borrow_mut() = None);
    out
}

/// Runs `f` and returns, alongside its result, the [`Tracer`] of the
/// last [`AttackEnv`] built inside — the hook the golden-trace tests
/// use to observe an attack script (a catalogue row's
/// [`crate::Attack::run`]) that builds its own environment internally.
/// The tracer (an `Arc` handle) outlives the env and its network, so
/// the full event log stays readable after the attack returns.
pub fn with_trace_capture<R>(f: impl FnOnce() -> R) -> (R, Option<Tracer>) {
    TRACE_CAPTURE.with(|t| *t.borrow_mut() = Some(None));
    let out = f();
    let tracer = TRACE_CAPTURE.with(|t| t.borrow_mut().take()).flatten();
    (out, tracer)
}

/// Runs `f` with `hook` invoked on the tracer of every [`AttackEnv`]
/// built inside (and on every tracer [`publish_tracer`] announces).
/// This is how an observer like the krb-ids engine taps environments
/// that attack scripts build internally: the hook calls
/// `Tracer::subscribe` and stashes the subscription for later polling.
pub fn with_env_hook<R>(hook: EnvHook, f: impl FnOnce() -> R) -> R {
    ENV_HOOK.with(|h| *h.borrow_mut() = Some(hook));
    let out = f();
    ENV_HOOK.with(|h| *h.borrow_mut() = None);
    out
}

/// Invokes the installed env hook, if any. The `Rc` is cloned out of
/// the thread-local first so a hook that itself builds an env (or
/// publishes a tracer) does not re-enter the `RefCell` borrow.
fn run_env_hook(tracer: &Tracer) {
    let hook = ENV_HOOK.with(|h| h.borrow().clone());
    if let Some(hook) = hook {
        hook(tracer);
    }
}

/// The attack stage: a network, a deployed realm, and a deterministic
/// RNG for the scripted participants.
pub struct AttackEnv {
    /// The simulated network (the adversary's playground).
    pub net: Network,
    /// The deployed realm.
    pub realm: DeployedRealm,
    /// The configuration under attack.
    pub config: ProtocolConfig,
    /// Scripted-participant randomness.
    pub rng: Drbg,
}

impl AttackEnv {
    /// Builds the standard campus at a nonzero epoch.
    pub fn new(config: &ProtocolConfig, seed: u64) -> Self {
        let mut net = Network::new();
        net.advance(SimDuration::from_secs(1_000_000));
        let realm = standard_campus(&mut net, config, seed);
        if let Some(profile) = FAULT_PROFILE.with(|p| *p.borrow()) {
            let mut plan = FaultPlan::new(profile.seed);
            for ep in realm.user_eps.values() {
                plan = plan.with_link_both(ep.addr, realm.kdc_ep.addr, profile.faults);
            }
            net.set_fault_plan(plan);
        }
        TRACE_CAPTURE.with(|t| {
            let mut slot = t.borrow_mut();
            if slot.is_some() {
                *slot = Some(Some(net.tracer()));
            }
        });
        run_env_hook(&net.tracer());
        AttackEnv { net, realm, config: config.clone(), rng: Drbg::new(seed ^ 0xa77a) }
    }

    /// The network's tracer (events, spans, metrics for this env).
    pub fn tracer(&self) -> Tracer {
        self.net.tracer()
    }
}

/// Publishes `tracer` into the armed capture slot — what
/// [`AttackEnv::new`] does automatically, exposed for harnesses like
/// [`crate::overload`] that build their network directly.
pub fn publish_tracer(tracer: &Tracer) {
    TRACE_CAPTURE.with(|t| {
        let mut slot = t.borrow_mut();
        if slot.is_some() {
            *slot = Some(Some(tracer.clone()));
        }
    });
    run_env_hook(tracer);
}

impl AttackEnv {

    /// Records an adversary action as a trace annotation, so narrated
    /// traces interleave the attacker's moves with the protocol flow.
    pub fn adversary_note(&self, text: &str) {
        self.net.tracer().note(self.net.now().0, text);
    }

    /// Logs a deployed user in with their real password.
    pub fn login(&mut self, user: &str) -> Result<Credential, KrbError> {
        let pw = self.realm.passwords[user].clone();
        login(
            &mut self.net,
            &self.config,
            self.realm.user_ep(user),
            self.realm.kdc_ep,
            &self.realm.user(user),
            LoginInput::Password(&pw),
            &mut self.rng,
        )
    }

    /// Obtains a service ticket for `user`.
    pub fn ticket(&mut self, user: &str, tgt: &Credential, service: &str) -> Result<Credential, KrbError> {
        self.ticket_with(user, tgt, service, TgsParams::default())
    }

    /// Obtains a service ticket with explicit TGS parameters.
    pub fn ticket_with(
        &mut self,
        user: &str,
        tgt: &Credential,
        service: &str,
        params: TgsParams,
    ) -> Result<Credential, KrbError> {
        get_service_ticket(
            &mut self.net,
            &self.config,
            self.realm.user_ep(user),
            self.realm.kdc_ep,
            tgt,
            &self.realm.service(service),
            params,
            &mut self.rng,
        )
    }

    /// Connects `user` to `service` with an existing credential.
    pub fn connect(&mut self, user: &str, cred: &Credential, service: &str) -> Result<AppConnection, KrbError> {
        connect_app(
            &mut self.net,
            &self.config,
            self.realm.user_ep(user),
            self.realm.service_ep(service),
            cred,
            &mut self.rng,
        )
    }

    /// Full victim setup: login, ticket, connect. Returns the live
    /// connection.
    pub fn victim_session(&mut self, user: &str, service: &str) -> Result<AppConnection, KrbError> {
        let tgt = self.login(user)?;
        let st = self.ticket(user, &tgt, service)?;
        self.connect(user, &st, service)
    }

    /// The victim principal for a name.
    pub fn user(&self, name: &str) -> Principal {
        self.realm.user(name)
    }

    /// The endpoint the attacker "owns" (zach's workstation).
    pub fn attacker_ep(&self) -> Endpoint {
        self.realm.user_ep("zach")
    }

    /// Advances simulated time.
    pub fn advance_secs(&mut self, s: u64) {
        self.net.advance(SimDuration::from_secs(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_builds_and_victim_flows() {
        for config in ProtocolConfig::presets() {
            let mut env = AttackEnv::new(&config, 1);
            let mut conn = env.victim_session("pat", "echo").expect("victim session");
            let mut rng = env.rng.clone();
            let r = conn.request(&mut env.net, b"ping", &mut rng).unwrap();
            assert!(r.ends_with(b"ping"), "config {}", config.name);
        }
    }
}
