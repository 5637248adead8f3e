//! The authenticator replay cache.
//!
//! "It has been suggested that the proper defense is for the server to
//! store all live authenticators; thus, an attempt to reuse one can be
//! detected. In fact, the original design of Kerberos required such
//! caching, though this was never implemented." This module implements
//! it, and exposes its state cost for experiment E3.
//!
//! Two robustness refinements beyond the paper's sketch:
//!
//! - **Check/commit split.** [`ReplayCache::offer`] inserts the digest
//!   before the caller has finished validating the rest of the request.
//!   If the request then fails for an unrelated reason (bad checksum,
//!   expired ticket), the entry poisons a later *legitimate* retry of
//!   the same authenticator — the retry is rejected as a replay even
//!   though the original was never accepted. Servers therefore call
//!   [`ReplayCache::check`] early and [`ReplayCache::commit`] only
//!   after every other check has passed.
//! - **Persistence with a fail-closed window.** A purely in-memory cache
//!   forgets everything on a crash, so an attacker who can crash a
//!   server (or wait for a reboot) replays a still-live authenticator
//!   with impunity. [`ReplayCache::snapshot`] serializes the cache;
//!   [`ReplayCache::restore`] reloads it at boot and records the
//!   interval between the last snapshot and the boot as a *fail-closed
//!   gap*: authenticators stamped inside that interval might have been
//!   presented while the cache was not being persisted, so the server
//!   refuses them outright ([`CacheVerdict::FailClosed`]) and the
//!   client must retry with a fresh authenticator.

use krb_crypto::md4::md4;
use std::collections::BTreeMap;

/// Result of offering an authenticator to the cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheVerdict {
    /// Never seen within the live window.
    Fresh,
    /// Already presented: a replay.
    Replayed,
    /// The authenticator's timestamp falls inside the fail-closed
    /// startup gap: the cache cannot prove it was never presented, so
    /// the server refuses it. Honest clients recover by retrying with a
    /// freshly stamped authenticator.
    FailClosed,
}

/// Magic prefix of a serialized cache snapshot.
const SNAPSHOT_MAGIC: &[u8; 8] = b"RPLYCSH1";

/// How often a persisted cache is snapshotted to stable storage, µs of
/// the server's local time.
const SNAPSHOT_INTERVAL_US: u64 = 60_000_000;

/// A cache of authenticators seen within the skew window.
#[derive(Clone, Debug, Default)]
pub struct ReplayCache {
    /// Digest of the sealed authenticator -> local time first seen (µs).
    seen: BTreeMap<[u8; 16], u64>,
    window_us: u64,
    last_purge_us: u64,
    /// Fail-closed gap `(from, until)`: timestamps strictly inside are
    /// refused. `(0, 0)` means no gap.
    gap_from_us: u64,
    gap_until_us: u64,
    /// Lifetime counters for the cost experiment.
    pub total_inserted: u64,
    /// Number of replays caught.
    pub replays_caught: u64,
    /// Number of requests refused fail-closed after a restart.
    pub fail_closed_refusals: u64,
}

impl ReplayCache {
    /// A cache that remembers entries for `window_us` (the skew window —
    /// older authenticators fail the timestamp check anyway).
    pub fn new(window_us: u64) -> Self {
        ReplayCache { window_us, ..ReplayCache::default() }
    }

    /// An empty cache booted at `boot_us` with NO snapshot to restore
    /// from: everything still live at boot is suspect, so the whole
    /// window before boot is fail-closed.
    pub fn boot_fresh(window_us: u64, boot_us: u64) -> Self {
        ReplayCache {
            window_us,
            gap_from_us: boot_us.saturating_sub(window_us),
            gap_until_us: boot_us,
            ..ReplayCache::default()
        }
    }

    /// Checks a sealed authenticator stamped `stamp_us` (the sender's
    /// claimed time) against the cache at local time `now_us`, WITHOUT
    /// recording it. Purges expired entries at most once per simulated
    /// second, so the per-request cost stays amortized O(1).
    pub fn check(&mut self, sealed_authenticator: &[u8], stamp_us: u64, now_us: u64) -> CacheVerdict {
        if now_us.saturating_sub(self.last_purge_us) >= 1_000_000 {
            self.purge(now_us);
        }
        if self.seen.contains_key(&md4(sealed_authenticator)) {
            self.replays_caught += 1;
            return CacheVerdict::Replayed;
        }
        if stamp_us > self.gap_from_us && stamp_us < self.gap_until_us {
            self.fail_closed_refusals += 1;
            return CacheVerdict::FailClosed;
        }
        CacheVerdict::Fresh
    }

    /// Records a sealed authenticator the server has decided to ACCEPT.
    /// Call only after every other validation has passed, so a request
    /// that fails elsewhere cannot poison a legitimate retry.
    pub fn commit(&mut self, sealed_authenticator: &[u8], now_us: u64) {
        if self.seen.insert(md4(sealed_authenticator), now_us).is_none() {
            self.total_inserted += 1;
        }
    }

    /// Check-and-commit in one step, treating the authenticator's stamp
    /// as `now_us`. Kept for callers with no later failure paths; the
    /// pessimistic insert means a subsequent rejection of this request
    /// leaves the entry behind.
    pub fn offer(&mut self, sealed_authenticator: &[u8], now_us: u64) -> CacheVerdict {
        let v = self.check(sealed_authenticator, now_us, now_us);
        if v == CacheVerdict::Fresh {
            self.commit(sealed_authenticator, now_us);
        }
        v
    }

    /// Drops entries older than the window.
    pub fn purge(&mut self, now_us: u64) {
        self.last_purge_us = now_us;
        let cutoff = now_us.saturating_sub(self.window_us);
        self.seen.retain(|_, &mut t| t >= cutoff);
    }

    /// Live entries right now (state cost, E3).
    pub fn live_entries(&self) -> usize {
        self.seen.len()
    }

    /// Approximate resident bytes (digest + timestamp per entry).
    pub fn approx_bytes(&self) -> usize {
        self.seen.len() * (16 + 8)
    }

    /// The fail-closed gap `(from, until)`, `(0, 0)` if none.
    pub fn fail_closed_gap(&self) -> (u64, u64) {
        (self.gap_from_us, self.gap_until_us)
    }

    /// Serializes the cache to stable bytes (entries sorted by digest,
    /// so two snapshots of equal state are byte-identical). `taken_at_us`
    /// is recorded so a later [`ReplayCache::restore`] can compute the
    /// fail-closed gap.
    pub fn snapshot(&self, taken_at_us: u64) -> Vec<u8> {
        let mut entries: Vec<(&[u8; 16], &u64)> = self.seen.iter().collect();
        entries.sort_by_key(|(d, _)| **d);
        let mut out = Vec::with_capacity(8 + 8 + 8 + 8 + entries.len() * 24);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&self.window_us.to_be_bytes());
        out.extend_from_slice(&taken_at_us.to_be_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_be_bytes());
        for (digest, t) in entries {
            out.extend_from_slice(digest);
            out.extend_from_slice(&t.to_be_bytes());
        }
        out
    }

    /// Restores a cache from snapshot bytes at boot time `boot_us`. The
    /// interval from the snapshot's capture time to `boot_us` becomes
    /// the fail-closed gap. Returns `None` on malformed bytes (callers
    /// fall back to [`ReplayCache::boot_fresh`]).
    pub fn restore(bytes: &[u8], boot_us: u64) -> Option<Self> {
        let rest = bytes.strip_prefix(&SNAPSHOT_MAGIC[..])?;
        if rest.len() < 24 {
            return None;
        }
        let u64_at =
            |b: &[u8], i: usize| u64::from_be_bytes(crate::encoding::be_array::<8>(&b[i..i + 8]));
        let window_us = u64_at(rest, 0);
        let taken_at_us = u64_at(rest, 8);
        let count = u64_at(rest, 16) as usize;
        let body = &rest[24..];
        if body.len() != count * 24 {
            return None;
        }
        let mut seen = BTreeMap::new();
        for i in 0..count {
            let digest: [u8; 16] = crate::encoding::be_array::<16>(&body[i * 24..i * 24 + 16]);
            seen.insert(digest, u64_at(body, i * 24 + 16));
        }
        Some(ReplayCache {
            total_inserted: seen.len() as u64,
            seen,
            window_us,
            gap_from_us: taken_at_us,
            gap_until_us: boot_us,
            ..ReplayCache::default()
        })
    }
}

/// A replay cache as a server holds it across crash windows. With
/// `persist` set, a commit at least [`SNAPSHOT_INTERVAL_US`] after the
/// last snapshot writes a new one to `disk`, and a reboot restores from
/// it; without, a reboot forgets every live entry (the V4 reality).
pub(crate) struct DurableCache {
    pub(crate) live: ReplayCache,
    persist: bool,
    /// Simulated stable storage: unlike `live`, it survives a crash.
    disk: Option<Vec<u8>>,
    last_snapshot_us: u64,
}

impl DurableCache {
    pub(crate) fn new(window_us: u64, persist: bool) -> Self {
        DurableCache { live: ReplayCache::new(window_us), persist, disk: None, last_snapshot_us: 0 }
    }

    /// [`ReplayCache::commit`], then a snapshot on the cadence.
    pub(crate) fn commit(&mut self, sealed: &[u8], now_us: u64) {
        self.live.commit(sealed, now_us);
        if self.persist && now_us.saturating_sub(self.last_snapshot_us) >= SNAPSHOT_INTERVAL_US {
            self.disk = Some(self.live.snapshot(now_us));
            self.last_snapshot_us = now_us;
        }
    }

    /// A crash window ended at local time `boot_us`. A persisted cache
    /// restores from disk, fail-closing the gap since the snapshot (or
    /// the whole window, with none to restore).
    pub(crate) fn reboot(&mut self, boot_us: u64) {
        let window_us = self.live.window_us;
        self.live = if self.persist {
            self.disk
                .as_deref()
                .and_then(|b| ReplayCache::restore(b, boot_us))
                .unwrap_or_else(|| ReplayCache::boot_fresh(window_us, boot_us))
        } else {
            ReplayCache::new(window_us)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::prelude::*;
    use testkit::TestRng;

    const MIN5: u64 = 300_000_000;

    #[test]
    fn fresh_then_replayed() {
        let mut c = ReplayCache::new(MIN5);
        assert_eq!(c.offer(b"auth-1", 0), CacheVerdict::Fresh);
        assert_eq!(c.offer(b"auth-1", 1_000), CacheVerdict::Replayed);
        assert_eq!(c.offer(b"auth-2", 1_000), CacheVerdict::Fresh);
        assert_eq!(c.replays_caught, 1);
    }

    #[test]
    fn entries_expire_after_window() {
        let mut c = ReplayCache::new(MIN5);
        c.offer(b"auth-1", 0);
        // After the window the entry is purged; a re-offer registers as
        // fresh — correct, because the timestamp check rejects it
        // independently by then.
        assert_eq!(c.offer(b"auth-1", MIN5 + 1), CacheVerdict::Fresh);
    }

    #[test]
    fn state_grows_with_rate() {
        let mut c = ReplayCache::new(MIN5);
        for i in 0..1000u64 {
            c.offer(&i.to_be_bytes(), i * 1_000); // 1000 req/s for 1 ms each
        }
        assert_eq!(c.live_entries(), 1000);
        assert_eq!(c.approx_bytes(), 1000 * 24);
    }

    #[test]
    fn purge_keeps_live_entries() {
        let mut c = ReplayCache::new(100);
        c.offer(b"old", 0);
        c.offer(b"new", 90);
        c.purge(150);
        assert_eq!(c.live_entries(), 1);
        assert_eq!(c.offer(b"new", 151), CacheVerdict::Replayed);
    }

    #[test]
    fn check_does_not_poison_retry() {
        let mut c = ReplayCache::new(MIN5);
        // Request checked, then rejected elsewhere (e.g. bad checksum):
        // no commit. A legitimate retry of the SAME authenticator must
        // still be fresh.
        assert_eq!(c.check(b"auth-x", 100, 100), CacheVerdict::Fresh);
        assert_eq!(c.check(b"auth-x", 100, 200), CacheVerdict::Fresh);
        c.commit(b"auth-x", 200);
        assert_eq!(c.check(b"auth-x", 100, 300), CacheVerdict::Replayed);
    }

    #[test]
    fn entry_exactly_at_window_boundary_survives_purge() {
        let mut c = ReplayCache::new(100);
        c.offer(b"edge", 50);
        // Purge at now = 150: cutoff = 50, and retention is `t >= cutoff`
        // — the entry seen exactly window_us ago is still held, so a
        // replay arriving at the last legal skew instant is caught.
        c.purge(150);
        assert_eq!(c.live_entries(), 1);
        assert_eq!(c.offer(b"edge", 150), CacheVerdict::Replayed);
        // One microsecond later it is gone.
        c.purge(151);
        assert_eq!(c.live_entries(), 0);
    }

    #[test]
    fn purge_amortized_once_per_second() {
        let mut c = ReplayCache::new(100);
        c.offer(b"a", 0);
        // Offers within the same simulated second do not purge, even
        // though `a` is already past its window.
        assert_eq!(c.offer(b"b", 500_000), CacheVerdict::Fresh);
        assert_eq!(c.live_entries(), 2, "no purge before 1s elapses");
        // Crossing the 1s boundary triggers the purge; both earlier
        // entries are past the 100µs window by then.
        assert_eq!(c.offer(b"c", 1_000_000), CacheVerdict::Fresh);
        assert_eq!(c.live_entries(), 1, "a and b purged, c live");
        assert_eq!(c.check(b"a", 1_000_001, 1_000_001), CacheVerdict::Fresh);
    }

    // Replayable via TESTKIT_SEED like every other seeded test.
    testkit::prop! {
        fn counter_invariants_under_random_workload [32] (seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut c = ReplayCache::new(1_000);
            let mut now = 0u64;
            for _ in 0..200 {
                now += rng.below(300);
                let token = rng.below(40).to_be_bytes();
                c.offer(&token, now);
                assert!(c.total_inserted >= c.live_entries() as u64, "inserted >= live");
                assert!(
                    c.total_inserted + c.replays_caught + c.fail_closed_refusals <= 200,
                    "every offer is counted at most once"
                );
            }
        }
    }

    // ---- persistence + fail-closed window ----

    #[test]
    fn snapshot_restore_roundtrip_catches_replay() {
        let mut c = ReplayCache::new(MIN5);
        c.offer(b"live-auth", 1_000_000);
        let snap = c.snapshot(2_000_000);
        // Server crashes and reboots at t=10s; the cache is restored.
        let mut restored = ReplayCache::restore(&snap, 10_000_000).unwrap();
        assert_eq!(
            restored.check(b"live-auth", 1_000_000, 10_000_001),
            CacheVerdict::Replayed,
            "replay of a snapshotted authenticator is caught across restart"
        );
    }

    #[test]
    fn fail_closed_gap_refuses_unprovable_window() {
        let mut c = ReplayCache::new(MIN5);
        c.offer(b"a", 1_000_000);
        let snap = c.snapshot(2_000_000);
        let mut restored = ReplayCache::restore(&snap, 10_000_000).unwrap();
        assert_eq!(restored.fail_closed_gap(), (2_000_000, 10_000_000));
        // Stamped inside (snapshot, boot): might have been presented
        // while the cache was not persisting — refused.
        assert_eq!(restored.check(b"unseen", 5_000_000, 10_000_001), CacheVerdict::FailClosed);
        assert_eq!(restored.fail_closed_refusals, 1);
        // Stamped before the snapshot: provably absent — fresh.
        assert_eq!(restored.check(b"unseen", 2_000_000, 10_000_001), CacheVerdict::Fresh);
        // Stamped after boot: the live cache covers it — fresh.
        assert_eq!(restored.check(b"unseen", 10_000_000, 10_000_001), CacheVerdict::Fresh);
    }

    #[test]
    fn boot_fresh_fail_closes_whole_window() {
        let mut c = ReplayCache::boot_fresh(MIN5, 400_000_000);
        assert_eq!(c.check(b"x", 399_999_999, 400_000_001), CacheVerdict::FailClosed);
        assert_eq!(c.check(b"x", 100_000_001, 400_000_001), CacheVerdict::FailClosed);
        // At exactly window_us before boot the skew check rejects the
        // stamp independently; the gap need not cover it.
        assert_eq!(c.check(b"x", 100_000_000, 400_000_001), CacheVerdict::Fresh);
        assert_eq!(c.check(b"x", 400_000_000, 400_000_001), CacheVerdict::Fresh);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let build = || {
            let mut c = ReplayCache::new(MIN5);
            // BTreeMap iteration order varies; snapshot must not.
            for i in 0..50u64 {
                c.offer(&i.to_be_bytes(), i);
            }
            c.snapshot(1_000)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn durable_cache_restores_its_last_snapshot() {
        let s = |secs: u64| secs * 1_000_000;
        let mut persisted = DurableCache::new(MIN5, true);
        persisted.commit(b"snapshotted", s(100));
        // Ten seconds later: inside the snapshot interval, so live only.
        persisted.commit(b"unsaved", s(110));
        persisted.reboot(s(120));
        assert_eq!(persisted.live.check(b"snapshotted", s(100), s(121)), CacheVerdict::Replayed);
        assert_eq!(persisted.live.check(b"unsaved", s(110), s(121)), CacheVerdict::FailClosed);

        let mut volatile = DurableCache::new(MIN5, false);
        volatile.commit(b"snapshotted", s(100));
        volatile.reboot(s(120));
        assert_eq!(volatile.live.check(b"snapshotted", s(100), s(121)), CacheVerdict::Fresh);
    }

    #[test]
    fn restore_rejects_malformed() {
        assert!(ReplayCache::restore(b"garbage", 0).is_none());
        assert!(ReplayCache::restore(b"RPLYCSH1short", 0).is_none());
        let mut truncated = ReplayCache::new(MIN5).snapshot(0);
        truncated.push(0);
        assert!(ReplayCache::restore(&truncated, 0).is_none());
    }
}
