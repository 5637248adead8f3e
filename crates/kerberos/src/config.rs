//! Deployment configuration: every protocol knob the paper discusses,
//! switchable so the attack/defense matrix (experiment E1) can run each
//! attack against each configuration.

use crate::encoding::Codec;
use crate::enclayer::EncLayer;
use krb_crypto::checksum::ChecksumType;

/// How the AS authenticates the *user* before releasing material
/// encrypted in the password key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PreauthMode {
    /// No preauthentication: anyone may harvest `{...}K_c` for any user
    /// (attack A5).
    None,
    /// `{timestamp}K_c` must accompany the request (recommendation g).
    EncTimestamp,
}

/// How application servers verify freshness of an AP request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthStyle {
    /// V4: timestamp in the authenticator, accepted within the skew
    /// window.
    Timestamp,
    /// Recommendation (a): the server challenges; the client proves key
    /// possession by a function of the challenge.
    ChallengeResponse,
}

/// Anti-replay discipline for KRB_SAFE / KRB_PRIV session messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Freshness {
    /// Draft 3: millisecond timestamps plus a cache of recent values.
    Timestamp,
    /// The appendix recommendation: per-session random initial sequence
    /// numbers.
    SequenceNumbers,
}

/// How application data flows after authentication.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppProtection {
    /// Commands travel in the clear, trusted by source endpoint — the
    /// common 1990 deployment style (rlogin et al.). Hijacking (A14) is
    /// trivial.
    Plain,
    /// Commands travel in KRB_PRIV messages.
    Priv,
}

/// Client-side timeout/retry discipline for KDC and AP exchanges.
///
/// Defaults are sized for the simulated campus network: enough attempts
/// to ride out ≥10% loss on every leg, exponential backoff so a crashed
/// server is not hammered, and *deterministic* jitter (derived from the
/// exchange nonce, not a clock) so runs replay exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Total attempts per logical exchange (first try included).
    pub attempts: u32,
    /// Patience per attempt before declaring a timeout, µs.
    pub timeout_us: u64,
    /// Backoff before the second attempt, µs; doubles each retry.
    pub backoff_base_us: u64,
    /// Ceiling on any single backoff, µs.
    pub backoff_cap_us: u64,
}

impl RetryPolicy {
    /// The standard policy used by every preset.
    pub fn standard() -> Self {
        RetryPolicy {
            attempts: 6,
            timeout_us: 1_000_000,
            backoff_base_us: 200_000,
            backoff_cap_us: 5_000_000,
        }
    }

    /// Backoff delay before retry number `attempt` (1-based: the wait
    /// after the `attempt`-th failure), with deterministic jitter mixed
    /// in from `jitter_seed` so concurrent clients don't retry in
    /// lockstep yet every run replays byte-for-byte.
    pub fn delay_us(&self, attempt: u32, jitter_seed: u64) -> u64 {
        let exp = self
            .backoff_base_us
            .checked_shl(attempt.saturating_sub(1).min(20))
            .unwrap_or(u64::MAX)
            .min(self.backoff_cap_us);
        // SplitMix-style hash of (seed, attempt) for the jitter.
        let mut z = jitter_seed ^ (u64::from(attempt)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        // Jitter in [0, exp/2): full backoff plus up to 50% extra.
        exp + if exp > 1 { z % (exp / 2).max(1) } else { 0 }
    }
}

/// A complete protocol deployment configuration.
#[derive(Clone, Debug)]
pub struct ProtocolConfig {
    /// Display name for tables.
    pub name: &'static str,
    /// Wire/message encoding.
    pub codec: Codec,
    /// Encryption layer for tickets, authenticators, and KDC reply
    /// parts.
    pub ticket_layer: EncLayer,
    /// Encryption layer for KRB_PRIV session data.
    pub priv_layer: EncLayer,
    /// Checksum type for request binding and KRB_SAFE.
    pub checksum: ChecksumType,
    /// AS-exchange user preauthentication.
    pub preauth: PreauthMode,
    /// Layer exponential key exchange under the login dialog
    /// (recommendation h).
    pub dh_login: bool,
    /// Handheld-authenticator login: seal the AS reply under `{R}K_c`
    /// (recommendation c/a of the appendix list).
    pub hha_login: bool,
    /// Whether application servers maintain an authenticator replay
    /// cache ("the original design of Kerberos required such caching,
    /// though this was never implemented").
    pub replay_cache: bool,
    /// Application-server freshness mechanism.
    pub auth_style: AuthStyle,
    /// Negotiate a true session key distinct from the ticket's
    /// multi-session key (recommendation e).
    pub subkey_negotiation: bool,
    /// KRB_SAFE/PRIV anti-replay discipline.
    pub freshness: Freshness,
    /// Record and check the client address in tickets ("Is it useful to
    /// include the network address in a ticket? We think not.").
    pub address_in_ticket: bool,
    /// Whether the KDC honors ENC-TKT-IN-SKEY.
    pub allow_enc_tkt_in_skey: bool,
    /// Whether the KDC honors REUSE-SKEY.
    pub allow_reuse_skey: bool,
    /// The requirement "inadvertently omitted from Draft 3": with
    /// ENC-TKT-IN-SKEY, the cname in the additional ticket must match
    /// the requested server's name.
    pub enforce_cname_match: bool,
    /// Whether servers obey Draft 3's warning never to accept
    /// DUPLICATE-SKEY tickets for authentication.
    pub forbid_duplicate_skey_auth: bool,
    /// Bind authenticators to the intended service name (fix for the
    /// REUSE-SKEY redirect).
    pub service_binding: bool,
    /// Include a collision-proof checksum of the sealed ticket in KDC
    /// replies (recommendation c of the new list).
    pub ticket_cksum_in_rep: bool,
    /// Maximum ticket lifetime, µs.
    pub ticket_lifetime_us: u64,
    /// Permitted clock skew, µs ("typically five minutes").
    pub clock_skew_us: u64,
    /// AS requests allowed per source address per skew window, if rate
    /// limiting is on ("an enhancement to the server, to limit the rate
    /// of requests from a single source").
    pub kdc_rate_limit: Option<u32>,
    /// Post-authentication application data protection.
    pub app_protection: AppProtection,
    /// Client timeout/retry/failover discipline.
    pub retry: RetryPolicy,
    /// Whether servers persist their replay caches across restarts (a
    /// snapshot at most every 60 s of local time, plus a fail-closed
    /// window). Off = the V4 reality: a volatile cache that forgets
    /// everything on reboot.
    pub persist_replay_cache: bool,
}

impl ProtocolConfig {
    /// Kerberos V4 as fielded.
    pub fn v4() -> Self {
        ProtocolConfig {
            name: "v4",
            codec: Codec::Legacy,
            ticket_layer: EncLayer::V4Pcbc,
            priv_layer: EncLayer::V4Pcbc,
            checksum: ChecksumType::Crc32,
            preauth: PreauthMode::None,
            dh_login: false,
            hha_login: false,
            replay_cache: false,
            auth_style: AuthStyle::Timestamp,
            subkey_negotiation: false,
            freshness: Freshness::Timestamp,
            address_in_ticket: true,
            allow_enc_tkt_in_skey: false,
            allow_reuse_skey: false,
            enforce_cname_match: false,
            forbid_duplicate_skey_auth: false,
            service_binding: false,
            ticket_cksum_in_rep: false,
            ticket_lifetime_us: 8 * 3600 * 1_000_000,
            clock_skew_us: 5 * 60 * 1_000_000,
            kdc_rate_limit: None,
            app_protection: AppProtection::Plain,
            retry: RetryPolicy::standard(),
            persist_replay_cache: false,
        }
    }

    /// V5 Draft 3, read literally (CRC-32 permitted, options enabled,
    /// cname check omitted).
    pub fn v5_draft3() -> Self {
        ProtocolConfig {
            name: "v5-draft3",
            codec: Codec::Typed,
            ticket_layer: EncLayer::V5Cbc { confounder: true },
            priv_layer: EncLayer::V5Cbc { confounder: true },
            checksum: ChecksumType::Crc32,
            preauth: PreauthMode::None,
            dh_login: false,
            hha_login: false,
            replay_cache: false,
            auth_style: AuthStyle::Timestamp,
            subkey_negotiation: false,
            freshness: Freshness::Timestamp,
            address_in_ticket: true,
            allow_enc_tkt_in_skey: true,
            allow_reuse_skey: true,
            enforce_cname_match: false,
            forbid_duplicate_skey_auth: false,
            service_binding: false,
            ticket_cksum_in_rep: false,
            ticket_lifetime_us: 8 * 3600 * 1_000_000,
            clock_skew_us: 5 * 60 * 1_000_000,
            kdc_rate_limit: None,
            app_protection: AppProtection::Priv,
            retry: RetryPolicy::standard(),
            persist_replay_cache: false,
        }
    }

    /// Every recommendation in the paper applied.
    pub fn hardened() -> Self {
        ProtocolConfig {
            name: "hardened",
            codec: Codec::Typed,
            ticket_layer: EncLayer::HardenedCbc,
            priv_layer: EncLayer::HardenedCbc,
            checksum: ChecksumType::Md4Des,
            preauth: PreauthMode::EncTimestamp,
            dh_login: true,
            hha_login: true,
            replay_cache: true,
            auth_style: AuthStyle::ChallengeResponse,
            subkey_negotiation: true,
            freshness: Freshness::SequenceNumbers,
            address_in_ticket: false,
            allow_enc_tkt_in_skey: false,
            allow_reuse_skey: false,
            enforce_cname_match: true,
            forbid_duplicate_skey_auth: true,
            service_binding: true,
            ticket_cksum_in_rep: true,
            ticket_lifetime_us: 8 * 3600 * 1_000_000,
            clock_skew_us: 5 * 60 * 1_000_000,
            kdc_rate_limit: Some(32),
            app_protection: AppProtection::Priv,
            retry: RetryPolicy::standard(),
            persist_replay_cache: true,
        }
    }

    /// All three presets, for matrix runs.
    pub fn presets() -> Vec<ProtocolConfig> {
        vec![Self::v4(), Self::v5_draft3(), Self::hardened()]
    }

    /// This configuration with the codec switched to [`Codec::Wire`]
    /// (and renamed accordingly). Not a preset — E1's matrix stays three
    /// configurations — but how the wire-format tests and the fuzzing
    /// corpus run the same deployments over the tagged wire.
    pub fn with_wire_codec(mut self) -> Self {
        self.codec = Codec::Wire;
        self.name = match self.name {
            "v4" => "v4+wire",
            "v5-draft3" => "v5-draft3+wire",
            "hardened" => "hardened+wire",
            other => other,
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct_and_consistent() {
        let v4 = ProtocolConfig::v4();
        let d3 = ProtocolConfig::v5_draft3();
        let hard = ProtocolConfig::hardened();

        assert_eq!(v4.codec, Codec::Legacy);
        assert_eq!(d3.codec, Codec::Typed);
        assert!(!v4.ticket_layer.provides_integrity());
        assert!(hard.ticket_layer.provides_integrity());
        assert!(!v4.checksum.is_collision_proof());
        assert!(hard.checksum.protects_public_data());
        assert!(d3.allow_enc_tkt_in_skey && !hard.allow_enc_tkt_in_skey);
        assert_eq!(ProtocolConfig::presets().len(), 3);
    }

    #[test]
    fn wire_variant_changes_only_codec_and_name() {
        let w = ProtocolConfig::hardened().with_wire_codec();
        assert_eq!(w.codec, Codec::Wire);
        assert_eq!(w.name, "hardened+wire");
        assert_eq!(w.checksum, ProtocolConfig::hardened().checksum);
        assert_eq!(ProtocolConfig::v4().with_wire_codec().name, "v4+wire");
    }

    #[test]
    fn skew_is_five_minutes() {
        assert_eq!(ProtocolConfig::v4().clock_skew_us, 300_000_000);
    }

    #[test]
    fn retry_backoff_grows_deterministically_and_caps() {
        let p = RetryPolicy::standard();
        assert!(p.delay_us(2, 42) > p.delay_us(1, 42) / 2, "roughly doubling");
        // Cap plus at most 50% jitter, even at absurd attempt counts.
        assert!(p.delay_us(40, 42) <= p.backoff_cap_us + p.backoff_cap_us / 2);
        assert_eq!(p.delay_us(3, 7), p.delay_us(3, 7), "jitter is deterministic");
        assert_ne!(p.delay_us(3, 7), p.delay_us(3, 8), "jitter varies by seed");
    }
}
