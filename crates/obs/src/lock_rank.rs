//! Runtime lock-ordering guard: ranked mutexes that assert the workspace's
//! global lock-acquisition order on every acquisition in debug builds.
//!
//! The static side of this contract lives in `cvcp-analysis` (rule C1):
//! a lexical pass over the engine/server/obs sources extracts every
//! `Mutex`/`Condvar` acquisition site, builds the nesting graph and fails
//! CI on cycles.  Static analysis can only see *lexical* nesting, though —
//! a job closure that takes a cache lock while a pool worker drives
//! it is invisible to a token scanner.  [`RankedMutex`] closes that gap
//! dynamically: each guarded mutex carries a [`LockRank`], a thread-local
//! stack records the ranks currently held, and acquiring a lock whose rank
//! is not strictly greater than every rank already held panics with both
//! lock names.  Any execution that would deadlock under some interleaving
//! therefore fails loudly under *every* interleaving, including the tests'.
//!
//! The declared global order (outermost first):
//!
//! | rank | lock | holder |
//! |------|------|--------|
//! | 10 | [`SERVER_QUEUE`] | `cvcp-server` `BoundedQueue` state |
//! | 20 | [`POOL_STATE`] | the `cvcp-engine` thread pool's two-lane queue |
//! | 30 | [`CACHE`] | the `ArtifactCache` map (innermost) |
//!
//! Equal ranks never nest either (the order is *strictly* increasing), so
//! holding two locks of one rank at once — two pool queues, say — is also
//! a violation.
//!
//! Cost model: in release builds the rank bookkeeping compiles away
//! entirely (`cfg!(debug_assertions)` is a compile-time constant) and a
//! `RankedMutex` is exactly a `std::sync::Mutex`.  In debug builds the
//! overhead is two thread-local `Vec` operations per acquisition.  The
//! guard is *checking only* — it never changes locking behaviour, so
//! results are bit-identical with the guard on or off (pinned by
//! `lock_rank_identity::selection_is_bit_identical_with_the_guard_on_and_off`
//! in the suite tests).

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// One position in the global lock-acquisition order.
#[derive(Debug)]
pub struct LockRank {
    /// Position in the global order: a lock may only be acquired while
    /// every held lock has a strictly smaller rank.
    pub rank: u16,
    /// Human-readable name used in violation panics.
    pub name: &'static str,
}

/// The serving front-end's bounded admission queue (outermost: held only
/// while admitting or popping a request, never across engine calls).
pub static SERVER_QUEUE: LockRank = LockRank {
    rank: 10,
    name: "server-queue",
};

/// The engine thread pool's queue: both priority lanes and the shutdown
/// flag behind one mutex, which the pool's park condvar waits on.  Every
/// acquisition is transient (push, pop or park); a task never runs under
/// it.
pub static POOL_STATE: LockRank = LockRank {
    rank: 20,
    name: "pool-state",
};

/// The engine's `ArtifactCache` map (innermost: no lock is taken while
/// it is held).
pub static CACHE: LockRank = LockRank {
    rank: 30,
    name: "cache",
};

/// Master switch for the debug-build assertions.  The stack bookkeeping
/// always runs in debug builds (so toggling mid-hold can never unbalance
/// the stack); only the order *assertion* is gated.
static CHECKING: AtomicBool = AtomicBool::new(true);

thread_local! {
    /// Ranks currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<(u16, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// Enables or disables the order assertion (debug builds only; release
/// builds never check).  Exists so tests can pin that the guard is
/// observation-only: results must be bit-identical with checking on/off.
pub fn set_checking_enabled(enabled: bool) {
    CHECKING.store(enabled, Ordering::SeqCst);
}

/// Whether acquisitions are currently asserted against the global order
/// (`false` in release builds regardless of the switch).
pub fn checking_enabled() -> bool {
    cfg!(debug_assertions) && CHECKING.load(Ordering::SeqCst)
}

/// Records an acquisition of `rank`, panicking on an order violation.
fn push_rank(rank: &'static LockRank) {
    if !cfg!(debug_assertions) {
        return;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if CHECKING.load(Ordering::SeqCst) {
            if let Some(&(top, top_name)) = held.last() {
                assert!(
                    top < rank.rank,
                    "lock-rank violation: acquiring `{}` (rank {}) while holding `{}` (rank {}); \
                     the global order is server-queue(10) < pool-state(20) < cache(30), \
                     strictly increasing",
                    rank.name,
                    rank.rank,
                    top_name,
                    top,
                );
            }
        }
        held.push((rank.rank, rank.name));
    });
}

/// Removes the most recent record of `rank` (guards may be dropped out of
/// acquisition order, so this is not necessarily the stack top).
fn pop_rank(rank: &'static LockRank) {
    if !cfg!(debug_assertions) {
        return;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&(r, _)| r == rank.rank) {
            held.remove(pos);
        }
    });
}

/// A `std::sync::Mutex` that carries a [`LockRank`] and asserts the global
/// acquisition order on every `lock` in debug builds.
#[derive(Debug)]
pub struct RankedMutex<T> {
    rank: &'static LockRank,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// A mutex at the given position in the global order.
    pub fn new(rank: &'static LockRank, value: T) -> Self {
        Self {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// This mutex's position in the global order.
    pub fn rank(&self) -> &'static LockRank {
        self.rank
    }

    /// Acquires the lock, asserting (in debug builds) that its rank is
    /// strictly greater than every rank this thread already holds.
    pub fn lock(&self) -> Result<RankedMutexGuard<'_, T>, PoisonError<MutexGuard<'_, T>>> {
        push_rank(self.rank);
        match self.inner.lock() {
            Ok(guard) => Ok(RankedMutexGuard {
                rank: self.rank,
                guard: Some(guard),
            }),
            Err(poisoned) => {
                pop_rank(self.rank);
                Err(poisoned)
            }
        }
    }
}

/// RAII guard for a [`RankedMutex`]; releases the rank record on drop.
#[derive(Debug)]
pub struct RankedMutexGuard<'a, T> {
    rank: &'static LockRank,
    /// `Some` except transiently inside [`RankedCondvar::wait`].
    guard: Option<MutexGuard<'a, T>>,
}

impl<T> Deref for RankedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside wait")
    }
}

impl<T> Drop for RankedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.guard.take().is_some() {
            pop_rank(self.rank);
        }
    }
}

/// A `std::sync::Condvar` companion to [`RankedMutex`]: waiting releases
/// the rank record for the duration of the wait (the OS releases the
/// mutex) and re-records it on wake-up.
#[derive(Debug, Default)]
pub struct RankedCondvar {
    inner: Condvar,
}

impl RankedCondvar {
    /// A fresh condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks until notified, releasing `guard`'s mutex (and rank) while
    /// asleep.
    pub fn wait<'a, T>(
        &self,
        mut guard: RankedMutexGuard<'a, T>,
    ) -> Result<RankedMutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>> {
        let rank = guard.rank;
        let inner = guard.guard.take().expect("guard present outside wait");
        pop_rank(rank);
        let woken = self.wait_reacquire(self.inner.wait(inner), rank)?;
        guard.guard = Some(woken);
        Ok(guard)
    }

    /// [`Self::wait`] with a timeout; the flag says whether it elapsed.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: RankedMutexGuard<'a, T>,
        timeout: Duration,
    ) -> Result<(RankedMutexGuard<'a, T>, WaitTimeoutResult), PoisonError<MutexGuard<'a, T>>> {
        let rank = guard.rank;
        let inner = guard.guard.take().expect("guard present outside wait");
        pop_rank(rank);
        match self.inner.wait_timeout(inner, timeout) {
            Ok((woken, timed_out)) => {
                push_rank(rank);
                guard.guard = Some(woken);
                Ok((guard, timed_out))
            }
            Err(poisoned) => {
                let (woken, _) = poisoned.into_inner();
                Err(PoisonError::new(woken))
            }
        }
    }

    /// Re-records `rank` after the OS handed the mutex back.
    fn wait_reacquire<'a, T>(
        &self,
        result: LockResult<MutexGuard<'a, T>>,
        rank: &'static LockRank,
    ) -> Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>> {
        match result {
            Ok(guard) => {
                push_rank(rank);
                Ok(guard)
            }
            Err(poisoned) => Err(poisoned),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// Serializes the tests that read or write the global [`CHECKING`]
    /// switch — without this, `disabling_checks_…` racing a
    /// panic-expecting test would be flaky.
    static TOGGLE: Mutex<()> = Mutex::new(());

    #[test]
    fn ordered_acquisition_is_allowed() {
        let outer = RankedMutex::new(&POOL_STATE, 1);
        let inner = RankedMutex::new(&CACHE, 2);
        let a = outer.lock().unwrap();
        let b = inner.lock().unwrap();
        assert_eq!(*a + *b, 3);
    }

    #[test]
    fn reversed_acquisition_panics_under_debug_assertions() {
        let _serial = TOGGLE.lock().unwrap();
        if !checking_enabled() {
            return; // release profile: the guard compiles away
        }
        let cache = RankedMutex::new(&CACHE, ());
        let pool = RankedMutex::new(&POOL_STATE, ());
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _inner_first = cache.lock().unwrap();
            let _outer_second = pool.lock().unwrap();
        }));
        let message = *result
            .expect_err("reversed order must panic")
            .downcast::<String>()
            .expect("panic carries a message");
        assert!(message.contains("lock-rank violation"), "{message}");
        assert!(message.contains("pool-state"), "{message}");
        assert!(message.contains("`cache`"), "{message}");
    }

    #[test]
    fn equal_ranks_never_nest() {
        let _serial = TOGGLE.lock().unwrap();
        if !checking_enabled() {
            return;
        }
        let a = RankedMutex::new(&CACHE, ());
        let b = RankedMutex::new(&CACHE, ());
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _first = a.lock().unwrap();
            let _second = b.lock().unwrap();
        }));
        assert!(result.is_err(), "two same-rank locks held at once");
    }

    #[test]
    fn sequential_reacquisition_is_allowed() {
        // Release-then-acquire in any order is fine — only *nesting* is
        // ranked.
        let pool = RankedMutex::new(&POOL_STATE, ());
        let cache = RankedMutex::new(&CACHE, ());
        drop(cache.lock().unwrap());
        drop(pool.lock().unwrap());
        drop(cache.lock().unwrap());
    }

    #[test]
    fn out_of_order_guard_drops_keep_the_stack_balanced() {
        let queue = RankedMutex::new(&SERVER_QUEUE, ());
        let pool = RankedMutex::new(&POOL_STATE, ());
        let cache = RankedMutex::new(&CACHE, ());
        let a = queue.lock().unwrap();
        let b = pool.lock().unwrap();
        drop(a); // dropped before `b` — not LIFO
        let c = cache.lock().unwrap();
        drop(b);
        drop(c);
        // A fresh outermost acquisition still works: nothing leaked.
        drop(queue.lock().unwrap());
    }

    #[test]
    fn condvar_wait_releases_the_rank_while_asleep() {
        let pair = Arc::new((RankedMutex::new(&POOL_STATE, false), RankedCondvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, cvar) = &*pair;
                let mut ready = lock.lock().unwrap();
                while !*ready {
                    ready = cvar.wait(ready).unwrap();
                }
                // After wake-up the rank is re-held: acquiring an inner
                // lock must still be legal, an outer one must not be.
                let inner = RankedMutex::new(&CACHE, ());
                drop(inner.lock().unwrap());
            })
        };
        {
            let (lock, cvar) = &*pair;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn wait_timeout_round_trips_the_guard() {
        let lock = RankedMutex::new(&POOL_STATE, 7u32);
        let cvar = RankedCondvar::new();
        let guard = lock.lock().unwrap();
        let (guard, timed_out) = cvar.wait_timeout(guard, Duration::from_millis(1)).unwrap();
        assert!(timed_out.timed_out());
        assert_eq!(*guard, 7);
        drop(guard);
        // The rank was re-pushed on wake-up and popped on drop.
        drop(lock.lock().unwrap());
    }

    #[test]
    fn disabling_checks_suppresses_the_assertion_without_unbalancing() {
        let _serial = TOGGLE.lock().unwrap();
        if !cfg!(debug_assertions) {
            return;
        }
        set_checking_enabled(false);
        let cache = RankedMutex::new(&CACHE, ());
        let pool = RankedMutex::new(&POOL_STATE, ());
        {
            let _inner_first = cache.lock().unwrap();
            let _outer_second = pool.lock().unwrap(); // tolerated while off
        }
        set_checking_enabled(true);
        // Stack stayed balanced: ordered nesting still works afterwards.
        let _outer = pool.lock().unwrap();
        let _inner = cache.lock().unwrap();
    }
}
