//! Rest-state soak of the artifact cache: seeded mixes of computes,
//! lookups, panicking computes, slow computes and clears on four engine
//! workers, under an unbounded cache, a tight byte budget and an entry
//! budget of three.  Once the engine is idle the cache must be back at
//! rest:
//!
//! * the residency accounting matches the live map and the budgets hold
//!   (`assert_accounting_consistent`);
//! * no in-flight slot leaked (`raw_entry_count() == len()`);
//! * every value handed out was its key's value;
//! * every lookup that returned was counted exactly once as a hit or a
//!   miss (`hits + misses` = returned `get_or_compute` calls + `get`
//!   calls; a panicked compute returns nothing and counts nothing).
//!
//! Slow (1 ms) computes keep keys in flight long enough for other workers
//! to join them: a joining pool worker runs other queued jobs while it
//! waits and parks once the queue is empty.

use cvcp_suite::data::rng::SeededRng;
use cvcp_suite::engine::{
    ArtifactCache, ArtifactKey, ArtifactSize, CacheConfig, Engine, JobCtx, JobGraph,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const KEYS: u64 = 24;
const WORKERS: usize = 4;
const JOBS: usize = 96;
const OPS_PER_JOB: usize = 12;

fn key(k: u64) -> ArtifactKey {
    ArtifactKey::Custom {
        domain: 0x50A4,
        key: k,
    }
}

/// The value every compute of key `k` produces: 4 to 32 words, so the
/// artifacts differ in size and a byte budget evicts unevenly.
fn value_of(k: u64) -> Vec<u64> {
    let len = 4 + 4 * (k % 8) as usize;
    (0..len as u64).map(|i| k * 1_000 + i).collect()
}

#[derive(Default)]
struct Tally {
    /// `get_or_compute` calls that returned a value.
    computed: AtomicU64,
    /// `get` calls (each returns, with or without a value).
    gets: AtomicU64,
    /// `get_or_compute` calls whose compute panicked.
    panicked: AtomicU64,
    clears: AtomicU64,
}

/// One job's seeded operation mix on the shared cache.
fn run_ops(ctx: &mut JobCtx, rng: &mut SeededRng, tally: &Tally) {
    for _ in 0..OPS_PER_JOB {
        let roll = rng.index(100);
        let k = rng.index(KEYS as usize) as u64;
        let cache = ctx.cache_arc();
        if roll < 2 {
            cache.clear();
            tally.clears.fetch_add(1, Ordering::Relaxed);
        } else if roll < 32 {
            tally.gets.fetch_add(1, Ordering::Relaxed);
            if let Some(v) = cache.get::<Vec<u64>>(key(k)) {
                assert_eq!(*v, value_of(k), "get returned a foreign value for key {k}");
            }
        } else {
            let panics = roll < 40;
            let slow = roll >= 80;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                cache.get_or_compute(key(k), || {
                    if slow {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    if panics {
                        panic!("seeded compute panic for key {k}");
                    }
                    value_of(k)
                })
            }));
            match outcome {
                Ok(v) => {
                    assert_eq!(*v, value_of(k), "get_or_compute returned a foreign value");
                    tally.computed.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    tally.panicked.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn assert_at_rest(cache: &ArtifactCache, tally: &Tally, label: &str) {
    cache.assert_accounting_consistent();
    assert_eq!(
        cache.raw_entry_count(),
        cache.len(),
        "{label}: an in-flight slot leaked"
    );
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        tally.computed.load(Ordering::Relaxed) + tally.gets.load(Ordering::Relaxed),
        "{label}: hits + misses must count every returned lookup once: {stats:?}"
    );
    assert_eq!(stats.resident_entries, cache.len(), "{label}");
}

fn soak(label: &str, config: CacheConfig, seed: u64) -> (Arc<ArtifactCache>, Arc<Tally>) {
    let engine = Engine::with_cache_config_exact(WORKERS, config);
    let tally = Arc::new(Tally::default());
    // Job `i` draws from stream `i` of the seed.
    let mut graph = JobGraph::new();
    for i in 0..JOBS {
        let tally = Arc::clone(&tally);
        let mut rng = SeededRng::new(seed).fork_stream(i as u64);
        graph.add_job(&[], move |ctx: &mut JobCtx| run_ops(ctx, &mut rng, &tally));
    }
    engine.run_graph(graph).expect_all("soak jobs");
    let cache = Arc::clone(engine.cache());
    drop(engine);
    assert_at_rest(&cache, &tally, label);
    (cache, tally)
}

#[test]
fn cache_returns_to_rest_after_a_seeded_mix_of_panics_joins_and_clears() {
    // Below the largest artifact: the largest ones bypass residency and
    // the rest fit one to four at a time.
    let tight = value_of(7).artifact_bytes() - 1;
    let configs = [
        ("unbounded", CacheConfig::unbounded()),
        (
            "tight byte budget",
            CacheConfig::unbounded().with_max_bytes(tight),
        ),
        (
            "max_entries(3)",
            CacheConfig::unbounded().with_max_entries(3),
        ),
    ];
    for (label, config) in configs {
        for seed in [11, 12] {
            let (cache, tally) = soak(label, config, seed);
            // The mix must actually exercise what the invariants guard.
            assert!(
                tally.panicked.load(Ordering::Relaxed) > 0,
                "{label}: no panics"
            );
            assert!(
                tally.clears.load(Ordering::Relaxed) > 0,
                "{label}: no clears"
            );
            let stats = cache.stats();
            assert!(stats.hits > 0 && stats.misses > 0, "{label}: {stats:?}");
            if !config.is_unbounded() {
                assert!(
                    stats.evictions > 0,
                    "{label}: the budget never bit: {stats:?}"
                );
            }
            // The cache stays usable at rest: a fresh lookup computes once
            // and the next one hits.
            let v: Arc<Vec<u64>> = cache.get_or_compute(key(KEYS + 1), || value_of(KEYS + 1));
            assert_eq!(*v, value_of(KEYS + 1));
            assert!(cache.get::<Vec<u64>>(key(KEYS + 1)).is_some());
            cache.assert_accounting_consistent();
        }
    }
}
