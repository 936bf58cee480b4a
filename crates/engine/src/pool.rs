//! The engine's thread pool: `std::thread` workers over **one locked
//! two-lane queue**.
//!
//! **What a task is.** Every task the engine queues is a graph's *token*:
//! permission to pop and run one ready job of that graph, if one is left
//! by the time a worker picks the token up (see [`crate::engine`]).  The
//! thread waiting for a graph runs the graph's jobs too, so a token may
//! find nothing to do; the engine counts that as an empty pick-up and
//! counts the worker's `tasks`, busy time and steals only for tokens that
//! ran a job.  A steal is a job run by a worker other than the one that
//! made it ready; trace spans apply the same rule (`JobSpan::stolen`), so
//! the per-worker `steals` counters and a profile's steal ratio count the
//! same events.
//!
//! **One queue.** The whole scheduler state — one FIFO per priority lane
//! and the shutdown flag — sits behind a single [`RankedMutex`] at rank
//! `POOL_STATE`, and one [`RankedCondvar`] waits on that same lock.
//! [`PoolHandle::spawn`] pushes to the back of its lane and wakes one
//! parked worker; a worker pops under the lock, runs the task with the
//! lock released, and parks on the condvar when both lanes are empty.
//! The emptiness check and the park happen under the lock every spawn
//! takes, so a task published concurrently is either seen by the check or
//! wakes the parked worker: no wake-up is lost.
//!
//! **Strict priority.** Read as a coloured Petri net with priorities, each
//! lane is a place holding tokens and "pop" is one transition per lane;
//! the interactive transition has strictly higher priority, so the batch
//! pop fires only while the interactive lane is empty.  An interactive
//! graph's tokens therefore overtake every queued batch token, and its
//! waiting thread runs its jobs without waiting for a worker at all (see
//! [`crate::graph::Priority`]).  Within a lane, tasks run in spawn order.
//!
//! **Cooperative helping.** A worker that must wait for a result someone
//! else is producing (an in-flight artifact-cache computation) can run one
//! ready pool task instead of blocking — see [`help_run_one_task`], used by
//! the cache's cooperative joins.  Helping depth is capped so a pathological
//! chain of waiting jobs cannot overflow the stack.
//!
//! Panic isolation: a panicking task never takes down its worker; the panic
//! is caught and the worker returns to the queue loop, so a failed job
//! cannot poison the pool (verified by `tests/engine_determinism.rs`).

use crate::graph::N_LANES;
use cvcp_obs::lock_rank::POOL_STATE;
use cvcp_obs::{EngineMetrics, RankedCondvar, RankedMutex};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// Source of unique pool identities (so a worker thread can tell *which*
/// pool it belongs to — the engine queues no tokens for graphs run from
/// its own workers, which run them themselves instead of deadlocking the
/// pool).
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);

/// Cap on nested [`help_run_one_task`] frames per thread: a helped task may
/// itself wait on an in-flight artifact and help again, so the recursion is
/// bounded before the waiter falls back to parking.
const MAX_HELP_DEPTH: usize = 4;

thread_local! {
    /// `(pool id, worker index)` of the pool worker running on this thread.
    static WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
    /// Weak handle back to this worker's pool, for [`help_run_one_task`].
    static CURRENT_POOL: RefCell<Option<Weak<Inner>>> = const { RefCell::new(None) };
    /// Live [`help_run_one_task`] frames on this thread.
    static HELP_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Index of the calling thread's worker *within the pool identified by
/// `pool_id`* — `None` on non-worker threads and on workers of other
/// pools.  Used to attribute trace spans, task counts and steals to the
/// right worker of the right pool.
pub(crate) fn current_worker_in(pool_id: u64) -> Option<usize> {
    WORKER
        .with(Cell::get)
        .filter(|&(pool, _)| pool == pool_id)
        .map(|(_, index)| index)
}

/// Runs one ready pool task on the calling thread, if the thread is a pool
/// worker with ready work and the helping depth cap is not exhausted.
/// Returns whether a task ran.  This is the cache's cooperative-join hook:
/// a worker waiting for an in-flight artifact computed by a sibling turns
/// its wait into throughput instead of blocking the thread.
pub(crate) fn help_run_one_task() -> bool {
    if HELP_DEPTH.with(Cell::get) >= MAX_HELP_DEPTH {
        return false;
    }
    let Some(inner) = CURRENT_POOL.with(|pool| pool.borrow().as_ref().and_then(Weak::upgrade))
    else {
        return false;
    };
    if current_worker_in(inner.id).is_none() {
        return false;
    }
    let Some(task) = inner.state.lock().expect("pool lock").pop() else {
        return false;
    };
    HELP_DEPTH.with(|depth| depth.set(depth.get() + 1));
    run_task(task);
    HELP_DEPTH.with(|depth| depth.set(depth.get() - 1));
    true
}

/// The scheduler state behind the pool's one lock.
struct Queue {
    /// One FIFO per lane, interactive (index 0) first.
    lanes: [VecDeque<Task>; N_LANES],
    shutdown: bool,
}

impl Queue {
    /// The oldest task of the highest-priority non-empty lane.
    fn pop(&mut self) -> Option<Task> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }
}

struct Inner {
    id: u64,
    state: RankedMutex<Queue>,
    work_available: RankedCondvar,
    metrics: Arc<EngineMetrics>,
}

/// Runs one task on the calling worker.  Backstop: graph jobs catch their
/// own panics to record a Failed outcome; this guard keeps the worker
/// alive even for raw tasks.
fn run_task(task: Task) {
    let _ = catch_unwind(AssertUnwindSafe(task));
}

/// Cloneable submission handle onto a pool's queue.
#[derive(Clone)]
pub(crate) struct PoolHandle {
    inner: Arc<Inner>,
}

impl PoolHandle {
    /// Enqueues a task at the back of the given lane and wakes one parked
    /// worker.
    pub(crate) fn spawn(&self, task: Task, lane: usize) {
        debug_assert!(lane < N_LANES);
        let inner = &self.inner;
        inner.state.lock().expect("pool lock").lanes[lane].push_back(task);
        inner.work_available.notify_one();
    }
}

/// A fixed-size worker pool.  Dropping the pool shuts it down after draining
/// already-queued tasks is *not* guaranteed — callers track completion
/// themselves (a graph's waiting thread does).
pub(crate) struct ThreadPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `n_threads` workers (at least one).  Workers record their
    /// parks into `metrics`, which must have been built for at least
    /// `n_threads` workers; the engine's tokens record the rest.
    pub(crate) fn new(n_threads: usize, metrics: Arc<EngineMetrics>) -> Self {
        let n = n_threads.max(1);
        debug_assert!(metrics.n_workers() >= n, "metrics sized for the pool");
        let inner = Arc::new(Inner {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            state: RankedMutex::new(
                &POOL_STATE,
                Queue {
                    lanes: std::array::from_fn(|_| VecDeque::new()),
                    shutdown: false,
                },
            ),
            work_available: RankedCondvar::new(),
            metrics,
        });
        let workers = (0..n)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("cvcp-engine-{index}"))
                    .spawn(move || worker_loop(&inner, index))
                    .expect("spawn engine worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// A cloneable submission handle.
    pub(crate) fn handle(&self) -> PoolHandle {
        PoolHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// `true` when the calling thread is one of this pool's workers.
    pub(crate) fn is_worker_thread(&self) -> bool {
        current_worker_in(self.inner.id).is_some()
    }

    /// This pool's identity, matchable against [`current_worker_in`] from
    /// any thread.
    pub(crate) fn id(&self) -> u64 {
        self.inner.id
    }

    /// Number of workers.
    #[cfg(test)]
    pub(crate) fn n_threads(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.state.lock().expect("pool lock").shutdown = true;
        self.inner.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, me: usize) {
    WORKER.with(|cell| cell.set(Some((inner.id, me))));
    CURRENT_POOL.with(|pool| *pool.borrow_mut() = Some(Arc::downgrade(inner)));
    loop {
        let next = {
            let mut queue = inner.state.lock().expect("pool lock");
            loop {
                if let Some(next) = queue.pop() {
                    break Some(next);
                }
                if queue.shutdown {
                    break None;
                }
                inner.metrics.record_park(me);
                queue = inner.work_available.wait(queue).expect("pool condvar wait");
            }
        };
        // The lock is released here: the task runs without it.
        let Some(task) = next else {
            return;
        };
        run_task(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex};

    const INTERACTIVE: usize = 0;
    const BATCH: usize = 1;

    fn pool_with_metrics(n: usize) -> (ThreadPool, Arc<EngineMetrics>) {
        let metrics = Arc::new(EngineMetrics::new(n.max(1), N_LANES));
        (ThreadPool::new(n, Arc::clone(&metrics)), metrics)
    }

    fn pool(n: usize) -> ThreadPool {
        pool_with_metrics(n).0
    }

    #[test]
    fn runs_submitted_tasks_on_all_workers() {
        let pool = pool(4);
        let handle = pool.handle();
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for i in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            let lane = i % N_LANES;
            handle.spawn(
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    tx.send(()).unwrap();
                }),
                lane,
            );
        }
        for _ in 0..64 {
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn panicking_task_does_not_kill_workers() {
        let pool = pool(2);
        let handle = pool.handle();
        let (tx, rx) = mpsc::channel();
        handle.spawn(Box::new(|| panic!("boom")), INTERACTIVE);
        // Give the panic a chance to land first.
        std::thread::sleep(std::time::Duration::from_millis(20));
        handle.spawn(Box::new(move || tx.send(42).unwrap()), INTERACTIVE);
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap(),
            42
        );
    }

    #[test]
    fn tasks_spawned_from_workers_are_executed() {
        let pool = pool(2);
        let handle = pool.handle();
        let (tx, rx) = mpsc::channel();
        let inner_handle = handle.clone();
        handle.spawn(
            Box::new(move || {
                // spawned from a worker
                inner_handle.spawn(Box::new(move || tx.send(7).unwrap()), BATCH);
            }),
            BATCH,
        );
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap(),
            7
        );
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let pool = pool(0);
        assert_eq!(pool.n_threads(), 1);
    }

    #[test]
    fn blocked_workers_local_tasks_are_stolen_by_siblings() {
        // One worker parks on a gate *inside a task*, after spawning two
        // follow-ups.  The other worker must steal and run them while the
        // spawner is still blocked — a busy worker must not trap the tasks
        // it spawned.
        let pool = pool(2);
        let handle = pool.handle();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<&'static str>();
        let inner_handle = handle.clone();
        handle.spawn(
            Box::new(move || {
                for label in ["s1", "s2"] {
                    let done_tx = done_tx.clone();
                    inner_handle.spawn(Box::new(move || done_tx.send(label).unwrap()), BATCH);
                }
                gate_rx.recv().unwrap();
            }),
            BATCH,
        );
        let mut ran = Vec::new();
        for _ in 0..2 {
            ran.push(
                done_rx
                    .recv_timeout(std::time::Duration::from_secs(5))
                    .unwrap(),
            );
        }
        gate_tx.send(()).unwrap();
        ran.sort_unstable();
        assert_eq!(ran, vec!["s1", "s2"]);
    }

    #[test]
    fn help_run_one_task_is_a_no_op_off_pool_threads() {
        assert!(
            !help_run_one_task(),
            "non-worker threads have no pool to help"
        );
    }

    #[test]
    fn workers_help_run_ready_tasks_while_waiting() {
        // A worker blocked inside a task (waiting on the channel) calls
        // help_run_one_task in its wait loop and must execute the queued
        // sibling task itself — this is the cooperative-join primitive.
        let pool = pool(1);
        let handle = pool.handle();
        let (tx, rx) = mpsc::channel::<i32>();
        let inner_handle = handle.clone();
        handle.spawn(
            Box::new(move || {
                let tx2 = tx.clone();
                inner_handle.spawn(Box::new(move || tx2.send(11).unwrap()), BATCH);
                // The pool has one worker (this thread), so the spawned
                // task can only run if we help.
                while rx.try_recv().is_err() {
                    assert!(help_run_one_task(), "the queued task must be ready");
                }
            }),
            BATCH,
        );
        // Drop resolves only after the worker loop drains; reaching here
        // without a deadlock is the assertion.
        drop(pool);
    }

    #[test]
    fn no_task_is_lost_under_concurrent_spawns_and_parks() {
        // Two outside threads feed both lanes in bursts while the tasks
        // they submit spawn children from the workers.  Seeded pauses
        // between bursts let the workers drain the queue and park, so
        // every burst has to wake them again: a spawn whose wake-up is
        // lost leaves its task queued behind parked workers and trips the
        // timeout below.
        use cvcp_data::rng::SeededRng;
        use std::time::Duration;
        const ROUNDS: usize = 200;
        const FEEDERS: usize = 2;
        const BURSTS: usize = 4;
        const BURST: usize = 6;
        // Each fed task runs once and spawns one child.
        const PER_ROUND: usize = FEEDERS * BURSTS * BURST * 2;
        let pool = pool(4);
        let handle = pool.handle();
        for round in 0..ROUNDS {
            let runs: Arc<Vec<AtomicUsize>> =
                Arc::new((0..PER_ROUND).map(|_| AtomicUsize::new(0)).collect());
            let (done_tx, done_rx) = mpsc::channel::<()>();
            std::thread::scope(|scope| {
                for feeder in 0..FEEDERS {
                    let (handle, runs, done_tx) =
                        (handle.clone(), Arc::clone(&runs), done_tx.clone());
                    scope.spawn(move || {
                        let mut rng = SeededRng::new((round * FEEDERS + feeder) as u64);
                        let mut id = feeder * BURSTS * BURST * 2;
                        for _ in 0..BURSTS {
                            for _ in 0..BURST {
                                let (parent, child) = (id, id + 1);
                                id += 2;
                                let lane = rng.index(N_LANES);
                                let child_lane = rng.index(N_LANES);
                                let (inner, runs, done_tx) =
                                    (handle.clone(), Arc::clone(&runs), done_tx.clone());
                                handle.spawn(
                                    Box::new(move || {
                                        runs[parent].fetch_add(1, Ordering::SeqCst);
                                        let child_runs = Arc::clone(&runs);
                                        let child_tx = done_tx.clone();
                                        inner.spawn(
                                            Box::new(move || {
                                                child_runs[child].fetch_add(1, Ordering::SeqCst);
                                                child_tx.send(()).unwrap();
                                            }),
                                            child_lane,
                                        );
                                        done_tx.send(()).unwrap();
                                    }),
                                    lane,
                                );
                            }
                            let pause = rng.index(500) as u64;
                            std::thread::sleep(Duration::from_micros(pause));
                        }
                    });
                }
            });
            for _ in 0..PER_ROUND {
                done_rx
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("round {round}: a spawned task never ran"));
            }
            for (id, count) in runs.iter().enumerate() {
                assert_eq!(
                    count.load(Ordering::SeqCst),
                    1,
                    "round {round}: task {id} must run exactly once"
                );
            }
        }
    }

    #[test]
    fn interactive_lane_drains_before_queued_batch_tasks() {
        // One worker, fully deterministic: while the worker is blocked on a
        // gate task, three batch tasks and then two interactive tasks are
        // queued.  On release the worker must run the interactive tasks
        // first, even though the batch tasks were submitted earlier.
        let pool = pool(1);
        let handle = pool.handle();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        handle.spawn(
            Box::new(move || {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            }),
            BATCH,
        );
        started_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let (done_tx, done_rx) = mpsc::channel::<()>();
        for label in ["b1", "b2", "b3"] {
            let order = Arc::clone(&order);
            let done_tx = done_tx.clone();
            handle.spawn(
                Box::new(move || {
                    order.lock().unwrap().push(label);
                    done_tx.send(()).unwrap();
                }),
                BATCH,
            );
        }
        for label in ["i1", "i2"] {
            let order = Arc::clone(&order);
            let done_tx = done_tx.clone();
            handle.spawn(
                Box::new(move || {
                    order.lock().unwrap().push(label);
                    done_tx.send(()).unwrap();
                }),
                INTERACTIVE,
            );
        }
        gate_tx.send(()).unwrap();
        for _ in 0..5 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap();
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec!["i1", "i2", "b1", "b2", "b3"],
            "interactive tasks must overtake earlier-queued batch tasks, FIFO within each lane"
        );
    }
}
