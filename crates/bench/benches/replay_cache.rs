//! E3 (bench half) — replay-cache offer throughput as the cache grows.

use bench::bench::Harness;
use kerberos::replay_cache::ReplayCache;

fn bench_offer(h: &mut Harness) {
    for preload in [0usize, 1_000, 100_000] {
        // Steady state: each offer advances time so the window holds
        // ~preload live entries (old ones expire as new arrive).
        let window = 300_000_000u64;
        let step = if preload == 0 { window } else { window / preload as u64 };
        let mut cache = ReplayCache::new(window);
        let mut now = 0u64;
        let mut n = 0u64;
        for _ in 0..preload {
            n += 1;
            now += step;
            cache.offer(&n.to_be_bytes(), now);
        }
        h.run(&format!("replay_cache_offer/{preload}"), || {
            n += 1;
            now += step;
            cache.offer(&n.to_be_bytes(), now)
        });
    }
}

fn bench_purge(h: &mut Harness) {
    for size in [1_000usize, 100_000] {
        h.run_with_setup(
            &format!("replay_cache_purge/{size}"),
            || {
                let mut cache = ReplayCache::new(300_000_000);
                for i in 0..size as u64 {
                    cache.offer(&i.to_be_bytes(), i * 1000);
                }
                cache
            },
            |mut cache| {
                cache.purge(size as u64 * 1000 + 300_000_001);
                cache
            },
        );
    }
}

fn main() {
    let mut h = Harness::new("replay_cache");
    bench_offer(&mut h);
    bench_purge(&mut h);
    h.finish();
}
