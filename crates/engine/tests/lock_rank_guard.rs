//! The runtime half of the lock-discipline contract (the static half is
//! `cvcp-analysis` rule C1): every engine/cache/queue mutex carries a
//! `LockRank`, and debug builds assert the declared global acquisition
//! order on every acquisition.  These tests pin that
//!
//! 1. the guard is *armed* in debug-profile test runs — reversing two
//!    engine lock ranks panics immediately instead of deadlocking some day;
//! 2. the real engine paths (pool scheduling, cache sharing, eviction)
//!    run clean under the guard, i.e. the declared order matches reality.

use cvcp_engine::obs::lock_rank::{checking_enabled, RankedMutex, CACHE, POOL_STATE, SERVER_QUEUE};
use cvcp_engine::{ArtifactKey, CacheConfig, Engine, JobGraph};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The satellite contract from ISSUE 7: deliberately acquire two engine
/// locks in reversed rank order under `debug_assertions` and assert the
/// guard panics.  The mutexes here are stand-ins, but the *ranks* are the
/// very statics the engine's pool (`POOL_STATE`) and artifact cache
/// (`CACHE`) register themselves under, so this pins the deployed
/// order, not a copy.
#[test]
fn reversed_engine_lock_order_panics_in_debug_builds() {
    if !checking_enabled() {
        // Release profile: the guard compiles away by design.
        return;
    }
    let pool_like = RankedMutex::new(&POOL_STATE, ());
    let cache_like = RankedMutex::new(&CACHE, ());
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _cache_first = cache_like.lock().unwrap();
        let _pool_second = pool_like.lock().unwrap(); // rank 20 under rank 30: violation
    }));
    let message = *result
        .expect_err("acquiring pool-state under cache must panic")
        .downcast::<String>()
        .expect("panic carries a message");
    assert!(message.contains("lock-rank violation"), "{message}");
}

/// Equal ranks never nest: a lock at rank `POOL_STATE` taken while
/// another one is held panics in debug builds, so any second pool queue
/// (or a scheduler that held two at once — the classic symmetric deadlock
/// of work stealing: worker A steals from B while B steals from A) is
/// caught immediately.
#[test]
fn nesting_two_pool_deque_locks_panics_in_debug_builds() {
    if !checking_enabled() {
        // Release profile: the guard compiles away by design.
        return;
    }
    let my_deque = RankedMutex::new(&POOL_STATE, ());
    let victim_deque = RankedMutex::new(&POOL_STATE, ());
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _own = my_deque.lock().unwrap();
        let _steal = victim_deque.lock().unwrap(); // rank 20 under rank 20: violation
    }));
    let message = *result
        .expect_err("holding one pool deque while locking another must panic")
        .downcast::<String>()
        .expect("panic carries a message");
    assert!(message.contains("lock-rank violation"), "{message}");
}

#[test]
fn declared_order_is_queue_pool_cache() {
    assert!(SERVER_QUEUE.rank < POOL_STATE.rank);
    assert!(POOL_STATE.rank < CACHE.rank);
}

/// A real multi-worker engine run over a bounded, eviction-active cache: every ranked lock in the engine fires many times.  If any actual
/// code path acquired them against the declared order, the guard would
/// panic here (debug profile) instead of this test passing.
#[test]
fn engine_paths_run_clean_under_the_guard() {
    let engine = Engine::with_cache_config_exact(
        4,
        CacheConfig {
            max_bytes: Some(1 << 14),
            max_entries: Some(8),
        },
    );
    let mut graph: JobGraph<u64> = JobGraph::new();
    for domain in 0..32u64 {
        graph.add_job(&[], move |ctx| {
            let v: Arc<Vec<u8>> = ctx.cache().get_or_compute(
                ArtifactKey::Custom {
                    domain: domain % 6,
                    key: 1,
                },
                || vec![7u8; 512],
            );
            v.len() as u64 + domain % 3
        });
    }
    let out = engine.run_graph(graph).expect_all("guarded run");
    assert_eq!(out.len(), 32);
    engine.cache().assert_accounting_consistent();
}
