//! The always-on engine metrics registry.
//!
//! One [`EngineMetrics`] lives for the lifetime of an engine and is shared
//! (via `Arc`) with its thread pool and every graph execution.  Recording
//! is a handful of relaxed atomic adds per event — cheap enough to leave
//! on in production and in benchmarks (the `bench_engine` artifact asserts
//! the overhead stays within budget).  A metrics-disabled registry (for
//! the A/B half of that assertion) turns every record call into a branch
//! on a constant-false bool.
//!
//! What is recorded, and where from:
//!
//! * **per-job run time** — the engine records each job's execute duration
//!   ([`EngineMetrics::record_job_run`]), bucketed per lane;
//! * **per-graph queue wait** — submit → first job start, per lane
//!   ([`EngineMetrics::record_graph_queue_wait`]): how long a whole graph
//!   sat before any worker touched it;
//! * **per-worker activity** — jobs run, busy nanoseconds, jobs obtained
//!   by stealing, pick-ups that found no job left, and parks (condvar
//!   waits): a worker runs a graph's job when it picks up one of the
//!   graph's tokens and a ready job is still there;
//! * **waiting threads** — jobs run by the threads waiting for their
//!   graphs, and their busy nanoseconds, kept beside the per-worker rows.
//!   A job of a graph submitted from inside a pool job runs on that
//!   worker, as its graph's waiting thread, and counts here; its busy time
//!   is also part of the enclosing job's.

use crate::hist::{HistogramSnapshot, LogHistogram};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A wait-free up/down counter for "how many right now" metrics — open
/// connections, in-flight requests, resident entries.  All operations are
/// single relaxed atomics; [`Gauge::dec`] saturates at zero instead of
/// wrapping, so a stray double-decrement shows up as a too-small gauge
/// rather than a 2^64-ish nonsense value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicUsize);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments and returns the new value.
    pub fn inc(&self) -> usize {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Decrements (saturating at zero) and returns the new value.
    pub fn dec(&self) -> usize {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(1);
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return next,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// Wait-free per-worker activity counters, recorded by the engine's
/// tokens and the pool's worker loop.
#[derive(Debug, Default)]
struct WorkerCounters {
    tasks: AtomicU64,
    busy_nanos: AtomicU64,
    steals: AtomicU64,
    empty_pickups: AtomicU64,
    parks: AtomicU64,
}

/// A plain copy of one worker's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSnapshot {
    /// Jobs this worker ran (one per token that still found a ready job).
    pub tasks: u64,
    /// Nanoseconds spent running those jobs and publishing what their
    /// completion made ready (excludes queue handling and parked time).
    pub busy_nanos: u64,
    /// Jobs run that a different worker had made ready.
    pub steals: u64,
    /// Tokens picked up that found no ready job left: the graph's waiting
    /// thread, or another token, had taken it.
    pub empty_pickups: u64,
    /// Times the worker parked on the pool condvar with no work found.
    pub parks: u64,
}

/// Wait-free counters of the jobs threads ran while waiting for their
/// own graphs.
#[derive(Debug, Default)]
struct WaitingCounters {
    jobs: AtomicU64,
    busy_nanos: AtomicU64,
}

/// A plain copy of the waiting threads' counters, summed over every
/// thread that waited for a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaitingSnapshot {
    /// Jobs run by a thread waiting for their graph.
    pub jobs: u64,
    /// Nanoseconds spent running those jobs and publishing what their
    /// completion made ready.
    pub busy_nanos: u64,
}

/// The engine-wide always-on metrics registry.
#[derive(Debug)]
pub struct EngineMetrics {
    enabled: bool,
    job_run: Vec<LogHistogram>,
    graph_queue_wait: Vec<LogHistogram>,
    graphs_submitted: Vec<AtomicU64>,
    workers: Vec<WorkerCounters>,
    waiting: WaitingCounters,
}

impl EngineMetrics {
    /// A recording registry for `n_workers` pool workers and `n_lanes`
    /// priority lanes.  `n_workers` may be 0 (inline engines have no
    /// pool); graph- and job-level metrics still record.
    pub fn new(n_workers: usize, n_lanes: usize) -> Self {
        Self::build(n_workers, n_lanes, true)
    }

    /// A registry whose record calls all no-op.  Exists so benchmarks can
    /// measure the cost of the enabled one against a true baseline.
    pub fn disabled(n_workers: usize, n_lanes: usize) -> Self {
        Self::build(n_workers, n_lanes, false)
    }

    fn build(n_workers: usize, n_lanes: usize, enabled: bool) -> Self {
        Self {
            enabled,
            job_run: (0..n_lanes).map(|_| LogHistogram::new()).collect(),
            graph_queue_wait: (0..n_lanes).map(|_| LogHistogram::new()).collect(),
            graphs_submitted: (0..n_lanes).map(|_| AtomicU64::new(0)).collect(),
            workers: (0..n_workers).map(|_| WorkerCounters::default()).collect(),
            waiting: WaitingCounters::default(),
        }
    }

    /// Whether record calls do anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of lanes this registry was built for.
    pub fn n_lanes(&self) -> usize {
        self.job_run.len()
    }

    /// Number of workers this registry was built for.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Records one job's execute duration on `lane`.
    pub fn record_job_run(&self, lane: usize, nanos: u64) {
        if self.enabled {
            self.job_run[lane].record(nanos);
        }
    }

    /// Records a graph's submit → first-job-start wait on `lane`, and
    /// counts the graph as submitted.
    pub fn record_graph_queue_wait(&self, lane: usize, nanos: u64) {
        if self.enabled {
            self.graph_queue_wait[lane].record(nanos);
            self.graphs_submitted[lane].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one job run by `worker`: `stolen` says whether a different
    /// worker made it ready.
    ///
    /// Single-call form of [`record_task_start`](Self::record_task_start)
    /// plus [`record_task_busy`](Self::record_task_busy), for recorders
    /// that only learn about a task after it ran.
    pub fn record_task(&self, worker: usize, busy_nanos: u64, stolen: bool) {
        self.record_task_start(worker, stolen);
        self.record_task_busy(worker, busy_nanos);
    }

    /// Counts one job run by `worker` (`stolen` says whether a different
    /// worker made it ready), *before* it executes.
    ///
    /// Recording the pick-up separately from the busy time matters for
    /// snapshot consistency: a task's own body may publish the result
    /// that unblocks a thread which immediately snapshots the registry,
    /// so any counter recorded only after execution could still be
    /// missing from a snapshot taken "after" the work completed.
    pub fn record_task_start(&self, worker: usize, stolen: bool) {
        if self.enabled {
            let w = &self.workers[worker];
            w.tasks.fetch_add(1, Ordering::Relaxed);
            if stolen {
                w.steals.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Adds one finished job's duration to `worker`'s busy time.
    pub fn record_task_busy(&self, worker: usize, busy_nanos: u64) {
        if self.enabled {
            self.workers[worker]
                .busy_nanos
                .fetch_add(busy_nanos, Ordering::Relaxed);
        }
    }

    /// Counts one token `worker` picked up that found no ready job left.
    pub fn record_empty_pickup(&self, worker: usize) {
        if self.enabled {
            self.workers[worker]
                .empty_pickups
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one job run by a thread waiting for its graph, with its
    /// busy time.  The waiting thread itself reads the metrics next, if
    /// anyone on it does, so one call after the job is enough.
    pub fn record_waiting_job(&self, busy_nanos: u64) {
        if self.enabled {
            self.waiting.jobs.fetch_add(1, Ordering::Relaxed);
            self.waiting
                .busy_nanos
                .fetch_add(busy_nanos, Ordering::Relaxed);
        }
    }

    /// Records one park (condvar wait with empty queues) on `worker`.
    pub fn record_park(&self, worker: usize) {
        if self.enabled {
            self.workers[worker].parks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies the whole registry into a plain value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            job_run: self.job_run.iter().map(LogHistogram::snapshot).collect(),
            graph_queue_wait: self
                .graph_queue_wait
                .iter()
                .map(LogHistogram::snapshot)
                .collect(),
            graphs_submitted: self
                .graphs_submitted
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            workers: self
                .workers
                .iter()
                .map(|w| WorkerSnapshot {
                    tasks: w.tasks.load(Ordering::Relaxed),
                    busy_nanos: w.busy_nanos.load(Ordering::Relaxed),
                    steals: w.steals.load(Ordering::Relaxed),
                    empty_pickups: w.empty_pickups.load(Ordering::Relaxed),
                    parks: w.parks.load(Ordering::Relaxed),
                })
                .collect(),
            waiting: WaitingSnapshot {
                jobs: self.waiting.jobs.load(Ordering::Relaxed),
                busy_nanos: self.waiting.busy_nanos.load(Ordering::Relaxed),
            },
        }
    }
}

/// A plain copy of an [`EngineMetrics`] registry, one histogram snapshot
/// per lane plus per-worker and waiting-thread counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Per-lane job execute-duration histograms.
    pub job_run: Vec<HistogramSnapshot>,
    /// Per-lane graph submit→first-start wait histograms.
    pub graph_queue_wait: Vec<HistogramSnapshot>,
    /// Graphs submitted per lane.
    pub graphs_submitted: Vec<u64>,
    /// Per-worker activity counters.
    pub workers: Vec<WorkerSnapshot>,
    /// Jobs run by threads waiting for their graphs.
    pub waiting: WaitingSnapshot,
}

impl MetricsSnapshot {
    /// All lanes' job-run histograms merged into one.
    pub fn job_run_all_lanes(&self) -> HistogramSnapshot {
        self.job_run
            .iter()
            .fold(HistogramSnapshot::empty(), |acc, h| acc.merge(h))
    }

    /// Total jobs stolen across workers divided by total jobs the workers
    /// ran; 0 when no worker ran a job.
    pub fn steal_ratio(&self) -> f64 {
        let tasks: u64 = self.workers.iter().map(|w| w.tasks).sum();
        if tasks == 0 {
            return 0.0;
        }
        let steals: u64 = self.workers.iter().map(|w| w.steals).sum();
        steals as f64 / tasks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_counts_up_and_down_and_saturates_at_zero() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        assert_eq!(g.inc(), 1);
        assert_eq!(g.inc(), 2);
        assert_eq!(g.dec(), 1);
        assert_eq!(g.dec(), 0);
        assert_eq!(g.dec(), 0, "dec saturates instead of wrapping");
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = EngineMetrics::disabled(2, 2);
        m.record_job_run(0, 1000);
        m.record_graph_queue_wait(1, 2000);
        m.record_task(0, 500, true);
        m.record_empty_pickup(0);
        m.record_waiting_job(900);
        m.record_park(1);
        let s = m.snapshot();
        assert_eq!(
            s,
            MetricsSnapshot {
                job_run: vec![HistogramSnapshot::empty(); 2],
                graph_queue_wait: vec![HistogramSnapshot::empty(); 2],
                graphs_submitted: vec![0, 0],
                workers: vec![WorkerSnapshot::default(); 2],
                waiting: WaitingSnapshot::default(),
            }
        );
    }

    #[test]
    fn enabled_registry_attributes_events() {
        let m = EngineMetrics::new(2, 2);
        m.record_job_run(0, 1000);
        m.record_job_run(0, 3000);
        m.record_job_run(1, 8000);
        m.record_graph_queue_wait(1, 4000);
        m.record_task(0, 500, false);
        m.record_task(1, 700, true);
        m.record_empty_pickup(1);
        m.record_waiting_job(900);
        m.record_waiting_job(100);
        m.record_park(1);
        let s = m.snapshot();
        assert_eq!(s.job_run[0].count(), 2);
        assert_eq!(s.job_run[1].count(), 1);
        assert_eq!(s.job_run_all_lanes().count(), 3);
        assert_eq!(s.graphs_submitted, vec![0, 1]);
        assert_eq!(s.graph_queue_wait[1].max_nanos(), 4000);
        assert_eq!(s.workers[0].tasks, 1);
        assert_eq!(s.workers[1].steals, 1);
        assert_eq!(s.workers[1].parks, 1);
        assert_eq!(s.workers[1].empty_pickups, 1);
        assert_eq!((s.workers[0].tasks, s.workers[0].empty_pickups), (1, 0));
        assert_eq!(
            s.waiting,
            WaitingSnapshot {
                jobs: 2,
                busy_nanos: 1000
            }
        );
        assert!((s.steal_ratio() - 0.5).abs() < 1e-12);
    }
}
