//! The engine proper: running a graph, the tokens a graph queues on the
//! pool, and the waiting loop in which the thread that runs a graph runs
//! the graph's jobs itself.
//!
//! **Who runs a job.** A graph's ready jobs sit in one ascending-index set
//! per graph, behind the graph's own leaf lock.  Two kinds of thread take
//! jobs from it: the graph's *waiting thread*, the one that called
//! [`Engine::run_graph`], and pool workers holding one of the graph's
//! tokens.  A *token* is a pool task that pops and runs one ready job of
//! its graph if one is left; a token that finds the set empty is counted
//! as an empty pick-up and does nothing else.  In the coloured-Petri-net
//! reading of the pool docs, the waiting thread fires its own graph's
//! enabled transitions, and a token is a pool worker's permission to fire
//! one of them.
//!
//! **How many tokens.** Jobs become ready when the graph starts and when a
//! job completes.  One rule: the waiting thread keeps one of the jobs it
//! made ready for itself and queues tokens for the rest, so a chain of
//! dependent jobs never leaves its thread.  A pool worker that makes jobs
//! ready while the waiting thread is parked hands one of them to that
//! thread and queues tokens for the rest; otherwise it queues a token per
//! job.
//!
//! **Why a waiting thread never sleeps while its graph has a ready job.**
//! It parks on the graph's condvar only after finding the set empty under
//! the set's lock, that is while every remaining job runs elsewhere.  A
//! job made ready after that is either handed to it (the worker that made
//! it ready saw it parked, under the same lock) or covered by a token, and
//! the completion that finishes the graph wakes it to return.
//!
//! A one-thread engine, and a graph run from inside one of the pool's own
//! jobs, queue no tokens: the waiting thread runs every job, in ascending
//! index order, through the same loop.  A pool worker blocked on a nested
//! graph queued on the pool could leave no thread to run it.
//!
//! A graph is cancelled only through the [`CancelToken`] bound with
//! [`JobGraph::set_cancel_token`]; jobs that have not started when it is
//! cancelled are skipped.
//!
//! Results do not depend on which thread runs a job: the engine hands a
//! job nothing but the artifact cache, and a job that needs randomness
//! forks it from its own plan coordinates.

use crate::cache::{ArtifactCache, CacheConfig, CacheStats};
use crate::graph::{CancelToken, GraphResult, JobCtx, JobFn, JobGraph, JobOutcome, N_LANES};
use crate::pool::{current_worker_in, PoolHandle, ThreadPool};
use cvcp_obs::{EngineMetrics, MetricsSnapshot, SpanRecorder};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A graph's ready jobs and its waiting thread's state, behind the
/// graph's one leaf lock.
struct ReadySet {
    /// Ready, unclaimed jobs in ascending index order, each with the pool
    /// worker that made it ready (`None` when the waiting thread did, off
    /// the pool).
    jobs: BTreeMap<usize, Option<usize>>,
    /// Whether the waiting thread is parked on [`ExecState::wake`].
    parked: bool,
}

/// Shared state of one executing graph.
struct ExecState<T> {
    jobs: Vec<Mutex<Option<JobFn<T>>>>,
    deps_remaining: Vec<AtomicUsize>,
    dep_failed: Vec<AtomicBool>,
    dependents: Vec<Vec<usize>>,
    outcomes: Vec<Mutex<Option<JobOutcome<T>>>>,
    pending: AtomicUsize,
    cancelled: CancelToken,
    /// The graph's ready jobs; the lock is a leaf (nothing else is taken
    /// while it is held).
    ready: Mutex<ReadySet>,
    /// Wakes the parked waiting thread: a job was handed to it, or the
    /// graph finished.
    wake: Condvar,
    /// Where the graph's tokens are queued; `None` when the waiting
    /// thread runs every job (one-thread engines, graphs run from inside
    /// a pool job).
    tokens: Option<PoolHandle>,
    cache: Arc<ArtifactCache>,
    /// The pool lane the graph's tokens are queued on (from the graph's
    /// [`crate::graph::Priority`]).
    lane: usize,
    /// The engine's always-on metrics registry.
    metrics: Arc<EngineMetrics>,
    /// When the graph was submitted — the start of its queue wait.
    submitted_at: Instant,
    /// Latch for the first job start (records the graph's queue wait once).
    started: AtomicBool,
    /// Identity of the engine's pool, for worker attribution in spans,
    /// task counts and steals (`None` on a sequential engine).
    pool_id: Option<u64>,
    /// Opt-in span recorder — present only when the graph was built with
    /// [`JobGraph::enable_trace`].
    recorder: Option<SpanRecorder>,
}

/// Records `outcome` for job `idx`, propagates skips through the DAG and
/// returns the indices of jobs that just became ready to run.  The
/// completion that finishes the graph wakes its waiting thread.
fn complete_job<T>(state: &ExecState<T>, idx: usize, outcome: JobOutcome<T>) -> Vec<usize> {
    let mut ready = Vec::new();
    let mut worklist = vec![(idx, outcome)];
    let mut finished = false;
    while let Some((job, outcome)) = worklist.pop() {
        let ok = outcome.is_completed();
        {
            let mut slot = state.outcomes[job].lock().expect("outcome lock");
            debug_assert!(slot.is_none(), "job {job} completed twice");
            *slot = Some(outcome);
        }
        for &dependent in &state.dependents[job] {
            if !ok {
                state.dep_failed[dependent].store(true, Ordering::SeqCst);
            }
            if state.deps_remaining[dependent].fetch_sub(1, Ordering::SeqCst) == 1 {
                if state.dep_failed[dependent].load(Ordering::SeqCst)
                    || state.cancelled.is_cancelled()
                {
                    // Drop the un-run closure and propagate the skip.
                    state.jobs[dependent].lock().expect("job lock").take();
                    worklist.push((dependent, JobOutcome::Skipped));
                } else {
                    ready.push(dependent);
                }
            }
        }
        finished |= state.pending.fetch_sub(1, Ordering::SeqCst) == 1;
    }
    if finished {
        // The waiting thread reads `pending` under this lock before it
        // parks, so it either sees 0 or is parked by now.
        let parked = std::mem::take(&mut state.ready.lock().expect("ready lock").parked);
        if parked {
            state.wake.notify_one();
        }
    }
    ready
}

/// Runs job `idx` (which must be ready) and returns its outcome.
///
/// Instrumentation here is timing-only: a job receives only the cache, so
/// recording can never perturb its result.
fn run_job<T>(state: &ExecState<T>, idx: usize) -> JobOutcome<T> {
    if state.cancelled.is_cancelled() {
        state.jobs[idx].lock().expect("job lock").take();
        return JobOutcome::Skipped;
    }
    if !state.started.swap(true, Ordering::Relaxed) {
        state
            .metrics
            .record_graph_queue_wait(state.lane, state.submitted_at.elapsed().as_nanos() as u64);
    }
    let f = state.jobs[idx]
        .lock()
        .expect("job lock")
        .take()
        .expect("ready job present exactly once");
    let mut ctx = JobCtx {
        cache: Arc::clone(&state.cache),
    };
    let recorder = state.recorder.as_ref();
    let start_tick = recorder.map(|r| {
        crate::cache::reset_thread_cache_events();
        r.now_ns()
    });
    // cvcp: allow(D2, reason = "metrics-only job timing; a job receives only the cache, so timing never reaches results")
    let run_from = state.metrics.is_enabled().then(Instant::now);
    let outcome = match catch_unwind(AssertUnwindSafe(move || f(&mut ctx))) {
        Ok(value) => JobOutcome::Completed(value),
        Err(payload) => JobOutcome::Failed(panic_message(payload.as_ref())),
    };
    if let Some(from) = run_from {
        state
            .metrics
            .record_job_run(state.lane, from.elapsed().as_nanos() as u64);
    }
    if let (Some(r), Some(start_ns)) = (recorder, start_tick) {
        let (hits, misses) = crate::cache::take_thread_cache_events();
        let worker = state.pool_id.and_then(current_worker_in);
        r.record_span(idx, worker, state.lane, start_ns, r.now_ns(), hits, misses);
    }
    outcome
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// Runs claimed job `idx` on the calling thread, records its outcome and
/// publishes the jobs its completion made ready.  `waiting` says whether
/// the caller is the graph's waiting thread.
fn run_claimed<T: Send + 'static>(state: &Arc<ExecState<T>>, idx: usize, waiting: bool) {
    let outcome = run_job(state, idx);
    let next = complete_job(state, idx, outcome);
    publish(state, &next, waiting);
}

/// Puts newly ready `jobs` into the graph's set and queues a token for
/// each one no thread is bound to take: the waiting thread keeps one of
/// the jobs it made ready, and takes one that a worker made ready while it
/// was parked.
fn publish<T: Send + 'static>(state: &Arc<ExecState<T>>, jobs: &[usize], waiting: bool) {
    if jobs.is_empty() {
        return;
    }
    let by = state.pool_id.and_then(current_worker_in);
    if let Some(recorder) = &state.recorder {
        // The same enqueuer the steal count reads, so span steal
        // attribution matches the per-worker counters.
        for &job in jobs {
            recorder.mark_enqueue(job, by);
        }
    }
    let hand_over = {
        let mut ready = state.ready.lock().expect("ready lock");
        ready.jobs.extend(jobs.iter().map(|&job| (job, by)));
        !waiting && std::mem::take(&mut ready.parked)
    };
    if hand_over {
        state.wake.notify_one();
    }
    queue_tokens(state, jobs.len() - usize::from(waiting || hand_over));
}

/// Queues `n` tokens for the graph on its pool lane (none when the
/// waiting thread runs every job).
fn queue_tokens<T: Send + 'static>(state: &Arc<ExecState<T>>, n: usize) {
    let Some(pool) = &state.tokens else {
        return;
    };
    for _ in 0..n {
        let token = Arc::clone(state);
        pool.spawn(Box::new(move || run_token(&token)), state.lane);
    }
}

/// A token's body, on a pool worker: pops and runs the graph's lowest
/// ready job, or counts an empty pick-up when none is left.
fn run_token<T: Send + 'static>(state: &Arc<ExecState<T>>) {
    let me = state
        .pool_id
        .and_then(current_worker_in)
        .expect("tokens run on the pool's workers");
    let claimed = state.ready.lock().expect("ready lock").jobs.pop_first();
    let Some((idx, by)) = claimed else {
        state.metrics.record_empty_pickup(me);
        return;
    };
    // Counted before the job runs: the job may finish the graph, and a
    // thread that snapshots the metrics right after must see the count.
    state
        .metrics
        .record_task_start(me, by.is_some_and(|from| from != me));
    // cvcp: allow(D2, reason = "worker busy-time metrics; observability only")
    let busy_from = state.metrics.is_enabled().then(Instant::now);
    run_claimed(state, idx, false);
    if let Some(from) = busy_from {
        state
            .metrics
            .record_task_busy(me, from.elapsed().as_nanos() as u64);
    }
}

/// The waiting thread's next job: the graph's lowest ready job, parking
/// while the set is empty and jobs still run elsewhere; `None` once every
/// job has finished.
fn claim<T>(state: &ExecState<T>) -> Option<usize> {
    let mut ready = state.ready.lock().expect("ready lock");
    loop {
        let next = ready.jobs.pop_first();
        if next.is_some() || state.pending.load(Ordering::SeqCst) == 0 {
            ready.parked = false;
            return next.map(|(idx, _)| idx);
        }
        ready.parked = true;
        ready = state.wake.wait(ready).expect("ready condvar");
    }
}

/// The execution engine: a worker pool plus a shared artifact cache.
///
/// One engine is meant to be long-lived and shared: many selection requests
/// (and many experiment trials) multiplex over the same pool and reuse each
/// other's cached artifacts.
pub struct Engine {
    pool: Option<ThreadPool>,
    cache: Arc<ArtifactCache>,
    n_threads: usize,
    metrics: Arc<EngineMetrics>,
}

/// `n_threads` clamped to ≥ 1 and to the host's available parallelism
/// (left as requested on platforms where that is unavailable).
fn clamped_to_host(n_threads: usize) -> usize {
    let requested = n_threads.max(1);
    std::thread::available_parallelism().map_or(requested, |p| requested.min(p.get()))
}

impl Engine {
    /// An engine with **up to** `n_threads` workers (clamped to ≥ 1 and to
    /// the host's available parallelism).  With one effective thread no
    /// worker is spawned at all: the thread waiting for a graph runs every
    /// job, in deterministic ascending-index order — the sequential path.
    ///
    /// The upper clamp exists because CPU-bound workers beyond the host's
    /// hardware threads add only context-switch churn and busy-time
    /// inflation (every runnable worker accrues wall-clock while
    /// descheduled) — results are thread-count invariant, so trimming
    /// workers is pure scheduling.  The clamp bounds the pool only:
    /// threads waiting for graphs run jobs beside the workers, so a host
    /// can run as many jobs at once as it has workers plus waiting threads.
    /// Tests and profilers that study the oversubscribed schedule itself
    /// can pin the count with [`Engine::with_exact_threads`] /
    /// [`Engine::with_cache_config_exact`].
    pub fn new(n_threads: usize) -> Self {
        Self::build(
            clamped_to_host(n_threads),
            Arc::new(ArtifactCache::new()),
            true,
        )
    }

    /// An engine with *exactly* `n_threads` workers (clamped to ≥ 1 only),
    /// even beyond the host's available parallelism.  Scheduler tests and
    /// `profile_engine` use this so multi-worker interleavings (steals,
    /// parks, cooperative joins) stay exercised on small CI hosts.
    pub fn with_exact_threads(n_threads: usize) -> Self {
        Self::build(n_threads.max(1), Arc::new(ArtifactCache::new()), true)
    }

    /// An engine with `n_threads` workers (clamped like [`Engine::new`])
    /// and a fresh artifact cache bounded by `config` (LRU eviction keeps
    /// the resident artifacts within the configured byte/entry budgets; see
    /// [`CacheConfig`]).
    pub fn with_cache_config(n_threads: usize, config: CacheConfig) -> Self {
        Self::build(
            clamped_to_host(n_threads),
            Arc::new(ArtifactCache::with_config(config)),
            true,
        )
    }

    /// [`Engine::with_cache_config`] without the host-parallelism clamp —
    /// the bounded-cache counterpart of [`Engine::with_exact_threads`].
    pub fn with_cache_config_exact(n_threads: usize, config: CacheConfig) -> Self {
        Self::build(
            n_threads.max(1),
            Arc::new(ArtifactCache::with_config(config)),
            true,
        )
    }

    /// An engine whose always-on metrics registry is a no-op.  This exists
    /// for one purpose: giving `bench_engine` a true baseline to measure
    /// the metrics overhead against.  Everything else (results, tracing
    /// opt-in, the worker clamp) behaves identically.
    pub fn with_metrics_disabled(n_threads: usize) -> Self {
        Self::build(
            clamped_to_host(n_threads),
            Arc::new(ArtifactCache::new()),
            false,
        )
    }

    fn build(n_threads: usize, cache: Arc<ArtifactCache>, metrics_enabled: bool) -> Self {
        let n = n_threads.max(1);
        let pool_workers = if n > 1 { n } else { 0 };
        let metrics = Arc::new(if metrics_enabled {
            EngineMetrics::new(pool_workers, N_LANES)
        } else {
            EngineMetrics::disabled(pool_workers, N_LANES)
        });
        Self {
            pool: (n > 1).then(|| ThreadPool::new(n, Arc::clone(&metrics))),
            cache,
            n_threads: n,
            metrics,
        }
    }

    /// The engine's always-on metrics registry (job run times, graph queue
    /// waits, per-worker busy/steal/park counters).
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// A plain copy of the current metrics state — the payload behind the
    /// serving front-end's `metrics` endpoint.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The sequential engine: one thread, the waiting thread runs every job.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Number of *effective* worker threads (1 for the sequential engine;
    /// at most the host's available parallelism for clamped constructors).
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The engine's shared artifact cache.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// Aggregate statistics of the engine's artifact cache (the payload the
    /// serving front-end's `stats` endpoint reports).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Runs a graph on the calling thread, helped by the pool's workers,
    /// until every job has finished, and returns all outcomes.  The
    /// calling thread keeps one ready job for itself, queues tokens for
    /// the rest, and parks only while every remaining job runs on a pool
    /// worker (see the module docs).  Jobs receive no randomness from the
    /// engine, so results depend only on the jobs themselves.
    ///
    /// Re-entrancy: a job may run a graph of its own on the same engine.
    /// A graph run from a pool worker's job queues no tokens and runs on
    /// that worker alone (queueing it on the pool and blocking could leave
    /// every worker waiting on a nested graph with no thread left to run
    /// it); a graph run from a job the waiting thread runs is run like any
    /// other.
    pub fn run_graph<T: Send + 'static>(&self, graph: JobGraph<T>) -> GraphResult<T> {
        let state = self.start(graph);
        while let Some(idx) = claim(&state) {
            // cvcp: allow(D2, reason = "busy-time metrics of the waiting thread; observability only")
            let busy_from = state.metrics.is_enabled().then(Instant::now);
            run_claimed(&state, idx, true);
            if let Some(from) = busy_from {
                state
                    .metrics
                    .record_waiting_job(from.elapsed().as_nanos() as u64);
            }
        }
        let outcomes = state
            .outcomes
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("outcome lock")
                    .take()
                    .unwrap_or(JobOutcome::Skipped)
            })
            .collect();
        GraphResult {
            outcomes,
            trace: state.recorder.as_ref().map(SpanRecorder::finish),
        }
    }

    /// Builds the graph's execution state and queues tokens for all but
    /// one of its initially ready jobs, which the caller keeps.
    fn start<T: Send + 'static>(&self, graph: JobGraph<T>) -> Arc<ExecState<T>> {
        let n = graph.jobs.len();
        let lane = graph.priority.lane_index();
        let cancelled = graph.cancel_token.unwrap_or_default();
        // Opt-in span recording: the recorder's epoch is the submit
        // instant, so span ticks read as "ns since submit".
        let recorder = graph.trace_name.map(|name| {
            let mut labels = graph.labels;
            labels.resize(n, String::new());
            let deps = graph.jobs.iter().map(|job| job.deps.clone()).collect();
            SpanRecorder::new(
                name,
                self.pool.as_ref().map_or(0, |_| self.n_threads),
                labels,
                deps,
            )
        });
        let mut deps_remaining = Vec::with_capacity(n);
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut jobs = Vec::with_capacity(n);
        let mut initial = BTreeMap::new();
        for (idx, job) in graph.jobs.into_iter().enumerate() {
            if job.deps.is_empty() {
                initial.insert(idx, None);
            }
            deps_remaining.push(AtomicUsize::new(job.deps.len()));
            for &d in &job.deps {
                debug_assert!(d < idx, "dependency edges point backwards by construction");
                dependents[d].push(idx);
            }
            jobs.push(Mutex::new(Some(job.f)));
        }
        let n_initial = initial.len();
        // A graph run from one of the pool's own workers queues no tokens
        // (see the module docs).
        let tokens = self
            .pool
            .as_ref()
            .filter(|pool| !pool.is_worker_thread())
            .map(ThreadPool::handle);
        let state = Arc::new(ExecState {
            jobs,
            deps_remaining,
            dep_failed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            dependents,
            outcomes: (0..n).map(|_| Mutex::new(None)).collect(),
            pending: AtomicUsize::new(n),
            cancelled,
            ready: Mutex::new(ReadySet {
                jobs: initial,
                parked: false,
            }),
            wake: Condvar::new(),
            tokens,
            cache: Arc::clone(&self.cache),
            lane,
            metrics: Arc::clone(&self.metrics),
            // cvcp: allow(D2, reason = "queue-wait metrics timestamp; observability only")
            submitted_at: Instant::now(),
            started: AtomicBool::new(false),
            pool_id: self.pool.as_ref().map(ThreadPool::id),
            recorder,
        });
        queue_tokens(&state, n_initial.saturating_sub(1));
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn dependencies_run_before_dependents() {
        for n_threads in [1, 4] {
            let engine = Engine::with_exact_threads(n_threads);
            let mut graph: JobGraph<u64> = JobGraph::new();
            let order = Arc::new(Mutex::new(Vec::new()));
            let (o1, o2, o3) = (order.clone(), order.clone(), order.clone());
            let a = graph.add_job(&[], move |_| {
                o1.lock().unwrap().push("a");
                1
            });
            let b = graph.add_job(&[], move |_| {
                o2.lock().unwrap().push("b");
                2
            });
            let _c = graph.add_job(&[a, b], move |_| {
                o3.lock().unwrap().push("c");
                3
            });
            let values = engine.run_graph(graph).expect_all("dag");
            assert_eq!(values, vec![1, 2, 3]);
            let order = order.lock().unwrap();
            assert_eq!(order.len(), 3);
            assert_eq!(*order.last().unwrap(), "c");
        }
    }

    #[test]
    fn failed_job_skips_dependents_but_not_siblings() {
        for n_threads in [1, 4] {
            let engine = Engine::with_exact_threads(n_threads);
            let mut graph: JobGraph<u32> = JobGraph::new();
            let bad = graph.add_job(&[], |_| panic!("deliberate failure"));
            let child = graph.add_job(&[bad], |_| 10);
            let _grandchild = graph.add_job(&[child], |_| 11);
            let _sibling = graph.add_job(&[], |_| 12);
            let result = engine.run_graph(graph);
            assert!(
                matches!(&result.outcomes[0], JobOutcome::Failed(m) if m.contains("deliberate"))
            );
            assert_eq!(result.outcomes[1], JobOutcome::Skipped);
            assert_eq!(result.outcomes[2], JobOutcome::Skipped);
            assert_eq!(result.outcomes[3], JobOutcome::Completed(12));
        }
    }

    #[test]
    fn engine_survives_a_failed_graph() {
        let engine = Engine::with_exact_threads(2);
        let mut bad: JobGraph<u32> = JobGraph::new();
        bad.add_job(&[], |_| panic!("boom"));
        let result = engine.run_graph(bad);
        assert!(result.first_failure().is_some());
        // The pool still works afterwards.
        let mut good: JobGraph<u32> = JobGraph::new();
        good.add_job(&[], |_| 5);
        assert_eq!(engine.run_graph(good).expect_all("after failure"), vec![5]);
    }

    #[test]
    fn pre_cancelled_token_skips_the_whole_graph() {
        for n_threads in [1, 4] {
            let engine = Engine::with_exact_threads(n_threads);
            let token = CancelToken::new();
            token.cancel();
            let mut graph: JobGraph<u32> = JobGraph::new();
            graph.add_job(&[], |_| 1);
            graph.add_job(&[], |_| 2);
            graph.set_cancel_token(token);
            let result = engine.run_graph(graph);
            assert!(result.outcomes.iter().all(|o| *o == JobOutcome::Skipped));
        }
    }

    #[test]
    fn external_token_cancels_a_running_graph() {
        // Job 0 blocks until a watcher thread cancels the bound token; its
        // dependent must then be skipped while the already-running job
        // completes.
        let engine = Engine::with_exact_threads(2);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let token = CancelToken::new();
        let mut graph: JobGraph<u32> = JobGraph::new();
        let a = graph.add_job(&[], move |_| {
            started_tx.send(()).expect("watcher alive");
            release_rx.recv().expect("release signal");
            1
        });
        graph.add_job(&[a], |_| 2);
        graph.set_cancel_token(token.clone());
        let watcher = {
            let token = token.clone();
            std::thread::spawn(move || {
                started_rx.recv().expect("job started");
                token.cancel();
                release_tx.send(()).expect("job alive");
            })
        };
        let result = engine.run_graph(graph);
        watcher.join().expect("watcher thread");
        assert_eq!(result.outcomes[0], JobOutcome::Completed(1));
        assert_eq!(result.outcomes[1], JobOutcome::Skipped);
        assert!(token.is_cancelled());
    }

    #[test]
    fn run_jobs_preserves_order_and_parallelises() {
        let engine = Engine::with_exact_threads(4);
        let touched = Arc::new(AtomicU64::new(0));
        let mut graph = JobGraph::new();
        for i in 0..32u64 {
            let touched = Arc::clone(&touched);
            graph.add_job(&[], move |_| {
                touched.fetch_add(1, Ordering::SeqCst);
                i * 2
            });
        }
        let out = engine.run_graph(graph).expect_all("independent jobs");
        assert_eq!(out, (0..32u64).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(touched.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn nested_submission_from_worker_jobs_does_not_deadlock() {
        // Every worker occupies itself with an outer job that runs a nested
        // graph; if nested graphs queued tokens on the
        // pool this could deadlock (all workers blocked, nested jobs
        // waiting for a token no worker is free to pick up).
        let engine = Arc::new(Engine::with_exact_threads(2));
        let mut outer: JobGraph<u64> = JobGraph::new();
        for i in 0..4u64 {
            let engine = Arc::clone(&engine);
            outer.add_job(&[], move |_| {
                let mut inner: JobGraph<u64> = JobGraph::new();
                let a = inner.add_job(&[], move |_| i);
                inner.add_job(&[a], move |_| i * 10);
                let values = engine.run_graph(inner).expect_all("nested");
                values[0] + values[1]
            });
        }
        let out = engine.run_graph(outer).expect_all("outer");
        assert_eq!(out, vec![0, 11, 22, 33]);
    }

    #[test]
    fn run_graph_runs_a_dependent_chain_on_the_waiting_thread() {
        // Each job unblocks exactly one successor, which the waiting
        // thread keeps for itself: no token is queued, so no pool worker
        // runs any link of the chain.
        let engine = Engine::with_exact_threads(2);
        let mut graph: JobGraph<u64> = JobGraph::new();
        let mut prev = graph.add_job(&[], |_| 0);
        for link in 1..16u64 {
            prev = graph.add_job(&[prev], move |_| link);
        }
        graph.enable_trace("chain");
        let result = engine.run_graph(graph);
        assert!(result.all_completed());
        let trace = result.trace.expect("tracing was enabled");
        assert_eq!(trace.spans.len(), 16);
        for span in &trace.spans {
            assert_eq!(span.worker, None, "job {} ran on a pool worker", span.job);
        }
    }

    /// Jobs of the gated batch graph that block until released: one more
    /// than the two workers, so its waiting thread and both workers sit
    /// in them.
    const GATED: usize = 3;

    /// Runs, from a spawned thread, a batch graph whose first [`GATED`]
    /// jobs block until a release message arrives and whose `quick`
    /// further jobs each take 2 ms and then count themselves in `done`.
    /// Returns, with the thread and the release sender, once every gated
    /// job has started; a scheduler that leaves a gated job unrun fails
    /// here by timing out.
    fn run_gated_batch(
        engine: &Arc<Engine>,
        quick: usize,
        done: &Arc<AtomicUsize>,
    ) -> (std::thread::JoinHandle<GraphResult<u32>>, mpsc::Sender<()>) {
        use crate::graph::Priority;
        use std::time::Duration;
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let mut batch: JobGraph<u32> = JobGraph::new();
        batch.set_priority(Priority::Batch);
        for _ in 0..GATED {
            let started_tx = started_tx.clone();
            let release_rx = Arc::clone(&release_rx);
            batch.add_job(&[], move |_| {
                started_tx.send(()).expect("watcher alive");
                release_rx
                    .lock()
                    .expect("release lock")
                    .recv()
                    .expect("release signal");
                0
            });
        }
        for _ in 0..quick {
            let done = Arc::clone(done);
            batch.add_job(&[], move |_| {
                std::thread::sleep(Duration::from_millis(2));
                done.fetch_add(1, Ordering::SeqCst) as u32
            });
        }
        let runner = {
            let engine = Arc::clone(engine);
            std::thread::spawn(move || engine.run_graph(batch))
        };
        for _ in 0..GATED {
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("every gated batch job must start");
        }
        (runner, release_tx)
    }

    #[test]
    fn a_graph_completes_while_every_worker_sits_in_a_gated_batch_job() {
        // A batch graph's waiting thread and both pool workers block in
        // gated jobs; a graph run from another thread must still finish,
        // because the thread waiting for it runs its jobs.  The gates open
        // only after the check, so a graph that waits for a worker fails
        // by timing out, not by hanging the test.
        use std::time::Duration;
        let engine = Arc::new(Engine::with_exact_threads(2));
        let (batch_runner, release_tx) = run_gated_batch(&engine, 0, &Arc::default());

        let (done_tx, done_rx) = mpsc::channel();
        let caller = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut graph: JobGraph<u64> = JobGraph::new();
                let a = graph.add_job(&[], |_| 1);
                let b = graph.add_job(&[], |_| 2);
                graph.add_job(&[a, b], |_| 3);
                let values = engine.run_graph(graph).expect_all("graph beside the gates");
                let _ = done_tx.send(values);
            })
        };
        let finished = done_rx.recv_timeout(Duration::from_secs(10));
        for _ in 0..GATED {
            release_tx.send(()).expect("gate alive");
        }
        caller.join().expect("caller thread");
        assert!(batch_runner.join().expect("batch thread").all_completed());
        assert_eq!(
            finished.expect("the graph must finish while both workers are gated"),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn a_job_run_by_the_waiting_thread_may_run_a_nested_graph() {
        // Two tokens cover three outer jobs, so the waiting thread runs
        // at least one of them itself, and that job waits for a graph of
        // its own.
        let engine = Arc::new(Engine::with_exact_threads(2));
        let mut outer: JobGraph<u64> = JobGraph::new();
        for i in 0..3u64 {
            let engine = Arc::clone(&engine);
            outer.add_job(&[], move |_| {
                let mut inner: JobGraph<u64> = JobGraph::new();
                let a = inner.add_job(&[], move |_| i);
                let b = inner.add_job(&[], move |_| i + 1);
                inner.add_job(&[a, b], move |_| i * 10);
                engine.run_graph(inner).expect_all("nested").iter().sum()
            });
        }
        outer.enable_trace("nested-on-the-waiting-thread");
        let mut result = engine.run_graph(outer);
        let trace = result.trace.take().expect("tracing was enabled");
        assert!(
            trace.spans.iter().any(|s| s.worker.is_none()),
            "the waiting thread ran no outer job"
        );
        assert_eq!(result.expect_all("outer"), vec![1, 13, 25]);
    }

    #[test]
    fn empty_graph_completes_immediately() {
        let engine = Engine::with_exact_threads(2);
        let graph: JobGraph<u32> = JobGraph::new();
        let result = engine.run_graph(graph);
        assert!(result.outcomes.is_empty());
        assert!(result.all_completed());
    }

    #[test]
    fn jobs_share_the_engine_cache() {
        use crate::cache::ArtifactKey;
        let engine = Engine::with_exact_threads(4);
        let mut graph: JobGraph<usize> = JobGraph::new();
        for _ in 0..8 {
            graph.add_job(&[], |ctx| {
                let v: Arc<Vec<u8>> = ctx
                    .cache()
                    .get_or_compute(ArtifactKey::Custom { domain: 1, key: 2 }, || vec![1, 2, 3]);
                v.len()
            });
        }
        let out = engine.run_graph(graph).expect_all("cache jobs");
        assert!(out.iter().all(|&l| l == 3));
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn cache_policies_preserve_bit_identity_across_thread_counts() {
        use crate::cache::ArtifactKey;

        // Budgets and eviction change *which* computes run and what stays
        // resident — never the values jobs observe.  The same workload
        // must therefore produce identical results under every budget at
        // 1/2/8 threads.
        let run = |n_threads: usize, config: CacheConfig| -> Vec<u64> {
            let engine = Engine::with_cache_config_exact(n_threads, config);
            let mut graph = JobGraph::new();
            for i in 0..48u64 {
                graph.add_job(&[], move |ctx| {
                    let bulk: Arc<Vec<u64>> = ctx.cache().get_or_compute(
                        ArtifactKey::Custom {
                            domain: 11,
                            key: i % 7,
                        },
                        || (0..256).map(|j| (i % 7) * 1_000 + j).collect(),
                    );
                    let scalar: Arc<u64> = ctx.cache().get_or_compute(
                        ArtifactKey::Custom {
                            domain: 12,
                            key: i % 5,
                        },
                        || (i % 5) * 31 + 7,
                    );
                    bulk.iter().sum::<u64>() ^ scalar.wrapping_mul(i + 1)
                });
            }
            engine.run_graph(graph).expect_all("cache jobs")
        };

        let configs = [
            CacheConfig::unbounded(),
            CacheConfig::unbounded().with_max_bytes(4 << 10),
            CacheConfig::unbounded().with_max_entries(4),
            CacheConfig::unbounded()
                .with_max_bytes(4 << 10)
                .with_max_entries(4),
        ];
        let baseline = run(1, CacheConfig::default());
        for config in configs {
            for n_threads in [1, 2, 8] {
                assert_eq!(
                    run(n_threads, config),
                    baseline,
                    "results diverged at {n_threads} threads under {config:?}"
                );
            }
        }
    }

    #[test]
    fn interactive_graph_leapfrogs_queued_batch_jobs() {
        // The starvation regression: a batch graph's waiting thread and
        // both workers sit in gated jobs, and 40 more batch tokens are
        // queued behind them.  Then an interactive graph of two jobs runs
        // here: this thread keeps job 0, which opens the gates and waits
        // for job 1, so only a worker can run job 1, through the graph's
        // one token.  That token must be picked up before (almost all of)
        // the queued batch tokens; with a single lane it would wait
        // behind all 40.
        use std::time::Duration;
        let engine = Arc::new(Engine::with_exact_threads(2));
        let batch_done = Arc::new(AtomicUsize::new(0));
        let (batch_runner, release_tx) = run_gated_batch(&engine, 40, &batch_done);

        let (seen_tx, seen_rx) = mpsc::channel::<u32>();
        let mut interactive: JobGraph<u32> = JobGraph::new();
        interactive.add_job(&[], move |_| {
            for _ in 0..GATED {
                release_tx.send(()).expect("gate alive");
            }
            seen_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a worker must run the interactive token's job")
        });
        let seen = Arc::clone(&batch_done);
        interactive.add_job(&[], move |_| {
            let n = seen.load(Ordering::SeqCst) as u32;
            seen_tx.send(n).expect("job 0 alive");
            n
        });
        let seen_at_interactive = engine
            .run_graph(interactive)
            .expect_all("interactive graph")[1];
        assert!(
            seen_at_interactive <= 4,
            "interactive job observed {seen_at_interactive} completed batch jobs — it was \
             starved behind the queued batch lane"
        );
        assert!(batch_runner.join().expect("batch thread").all_completed());
        assert_eq!(batch_done.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn priority_lane_does_not_change_results() {
        use crate::graph::Priority;
        let draws = |priority: Priority| -> Vec<u64> {
            let engine = Engine::with_exact_threads(4);
            let mut graph: JobGraph<u64> = JobGraph::new();
            graph.set_priority(priority);
            for i in 0..16u64 {
                graph.add_job(&[], move |_| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            engine.run_graph(graph).expect_all("lane draws")
        };
        assert_eq!(draws(Priority::Interactive), draws(Priority::Batch));
    }

    #[test]
    fn traced_graph_records_one_span_per_executed_job() {
        for n_threads in [1, 4] {
            let engine = Engine::with_exact_threads(n_threads);
            let mut graph: JobGraph<u64> = JobGraph::new();
            let a = graph.add_job(&[], |_| 0);
            graph.set_job_label(a, "artifact/a");
            for i in 1..8u64 {
                let j = graph.add_job(&[a], move |_| i);
                graph.set_job_label(j, "eval");
            }
            graph.enable_trace("unit");
            let result = engine.run_graph(graph);
            assert!(result.all_completed());
            let trace = result.trace.expect("tracing was enabled");
            assert_eq!(trace.n_jobs, 8);
            assert_eq!(trace.spans.len(), 8, "one span per executed job");
            assert_eq!(trace.name, "unit");
            assert_eq!(trace.spans[0].label, "artifact/a");
            assert_eq!(trace.spans[1].label, "eval");
            assert_eq!(trace.deps[1], vec![0]);
            for s in &trace.spans {
                assert!(
                    s.enqueue_ns <= s.start_ns,
                    "job {} enqueued after start",
                    s.job
                );
                assert!(s.start_ns <= s.end_ns);
                assert!(s.end_ns <= trace.wall_ns);
            }
            // Dependencies are respected on the recorded timeline too.
            let root_end = trace.spans[0].end_ns;
            assert!(trace.spans[1..].iter().all(|s| s.start_ns >= root_end));
        }
    }

    #[test]
    fn tracing_does_not_change_results() {
        let draws = |n_threads: usize, trace: bool| -> Vec<u64> {
            let engine = Engine::with_exact_threads(n_threads);
            let mut graph: JobGraph<u64> = JobGraph::new();
            for i in 0..16u64 {
                graph.add_job(&[], move |_| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            if trace {
                graph.enable_trace("ab");
            }
            engine.run_graph(graph).expect_all("traced draws")
        };
        let plain = draws(1, false);
        for n_threads in [1, 2, 8] {
            assert_eq!(draws(n_threads, true), plain);
            assert_eq!(draws(n_threads, false), plain);
        }
    }

    #[test]
    fn untraced_graph_returns_no_trace() {
        let engine = Engine::with_exact_threads(2);
        let mut graph: JobGraph<u32> = JobGraph::new();
        graph.add_job(&[], |_| 1);
        assert!(engine.run_graph(graph).trace.is_none());
    }

    #[test]
    fn metrics_record_job_runs_and_graph_queue_wait() {
        use crate::graph::Priority;
        let engine = Engine::with_exact_threads(2);
        let mut graph: JobGraph<u32> = JobGraph::new();
        graph.set_priority(Priority::Batch);
        for _ in 0..6 {
            graph.add_job(&[], |_| 1);
        }
        engine.run_graph(graph).expect_all("metered");
        let snap = engine.metrics_snapshot();
        let batch = Priority::Batch.lane_index();
        assert_eq!(snap.job_run[batch].count(), 6);
        assert_eq!(snap.job_run[Priority::Interactive.lane_index()].count(), 0);
        assert_eq!(snap.graphs_submitted[batch], 1);
        assert_eq!(snap.graph_queue_wait[batch].count(), 1);
        assert_eq!(snap.workers.len(), 2);
        let tasks: u64 = snap.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(
            tasks + snap.waiting.jobs,
            6,
            "each job runs once, on a worker's token or on the waiting thread"
        );
    }

    #[test]
    fn worker_task_and_steal_counts_match_the_traced_spans() {
        // A token counts a steal exactly when the span's `stolen()` says
        // so: another worker made the job ready.  Eight chains on four
        // workers make most jobs worker-published, so both kinds of
        // pick-up occur, and the waiting thread runs jobs too.
        let engine = Engine::with_exact_threads(4);
        let mut graph: JobGraph<u64> = JobGraph::new();
        for chain in 0..8u64 {
            let mut prev = graph.add_job(&[], move |_| chain);
            for link in 1..16u64 {
                prev = graph.add_job(&[prev], move |_| {
                    (0..200u64).fold(chain << 8 | link, |acc, j| {
                        acc.rotate_left(7) ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    })
                });
            }
        }
        graph.enable_trace("steal-accounting");
        let result = engine.run_graph(graph);
        assert!(result.all_completed());
        let trace = result.trace.expect("tracing was enabled");
        let snap = engine.metrics_snapshot();
        let tasks: u64 = snap.workers.iter().map(|w| w.tasks).sum();
        let steals: u64 = snap.workers.iter().map(|w| w.steals).sum();
        assert_eq!(trace.spans.len(), 8 * 16);
        assert_eq!(
            tasks + snap.waiting.jobs,
            trace.spans.len() as u64,
            "one token that ran a job, or one waiting-thread job, per span"
        );
        assert_eq!(
            snap.waiting.jobs,
            trace.spans.iter().filter(|s| s.worker.is_none()).count() as u64,
            "the waiting thread's jobs are the off-pool spans"
        );
        assert_eq!(
            steals,
            trace.spans.iter().filter(|s| s.stolen()).count() as u64,
            "a steal is a pick-up by a worker other than the spawner"
        );
    }

    #[test]
    fn disabled_metrics_record_nothing_but_results_match() {
        let run = |engine: &Engine| -> Vec<u64> {
            let mut graph: JobGraph<u64> = JobGraph::new();
            for i in 0..8u64 {
                graph.add_job(&[], move |_| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            engine.run_graph(graph).expect_all("metrics A/B")
        };
        let on = Engine::with_exact_threads(2);
        let off = Engine::with_metrics_disabled(2);
        assert!(!off.metrics().is_enabled());
        assert_eq!(run(&on), run(&off));
        assert_eq!(off.metrics_snapshot().job_run[0].count(), 0);
        assert!(on.metrics_snapshot().job_run[0].count() > 0);
    }

    #[test]
    fn traced_spans_attribute_cache_hits_to_jobs() {
        use crate::cache::ArtifactKey;
        let engine = Engine::sequential();
        let key = ArtifactKey::Custom { domain: 4, key: 4 };
        let mut graph: JobGraph<u64> = JobGraph::new();
        let a = graph.add_job(&[], move |ctx| *ctx.cache().get_or_compute(key, || 5u64));
        graph.add_job(&[a], move |ctx| *ctx.cache().get_or_compute(key, || 5u64));
        graph.enable_trace("cache-attribution");
        let result = engine.run_graph(graph);
        let trace = result.trace.expect("traced");
        assert_eq!(
            (trace.spans[0].cache_hits, trace.spans[0].cache_misses),
            (0, 1),
            "first toucher computes"
        );
        assert_eq!(
            (trace.spans[1].cache_hits, trace.spans[1].cache_misses),
            (1, 0),
            "second toucher hits"
        );
    }

    #[test]
    fn job_panic_inside_get_or_compute_releases_the_in_flight_slot() {
        // The leak regression, through the pool's panic isolation: a job
        // that panics inside `get_or_compute` fails its graph, but the
        // cache must not keep the uncommitted in-flight entry (it would be
        // invisible to `len()`, never an eviction candidate, and pile up
        // once per failed key on a long-lived serving engine).
        use crate::cache::ArtifactKey;
        let engine = Engine::with_exact_threads(2);
        let key = ArtifactKey::Custom { domain: 9, key: 1 };
        let mut graph: JobGraph<u64> = JobGraph::new();
        graph.add_job(&[], move |ctx| {
            let v: Arc<u64> = ctx
                .cache()
                .get_or_compute(key, || panic!("compute exploded"));
            *v
        });
        let result = engine.run_graph(graph);
        assert!(matches!(&result.outcomes[0], JobOutcome::Failed(m) if m.contains("exploded")));
        assert_eq!(
            engine.cache().raw_entry_count(),
            0,
            "panicked compute must not leak its in-flight slot"
        );
        // The same key is retryable on the same engine afterwards.
        let v: Arc<u64> = engine.cache().get_or_compute(key, || 7);
        assert_eq!(*v, 7);
        assert_eq!(engine.cache_stats().resident_entries, 1);
        engine.cache().assert_accounting_consistent();
    }
}
