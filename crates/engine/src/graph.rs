//! Deterministic job DAGs.
//!
//! A model-selection request is modelled as a directed acyclic graph of
//! jobs: artifact jobs (distance matrices, density hierarchies, fold
//! closures) feed evaluation jobs (one per parameter) which feed a
//! reduction job.  [`JobGraph`] builds such a graph; the engine runs it on
//! the thread that waits for it, helped by its pool's workers, or on that
//! thread alone, in ascending job order, on a one-thread engine and for
//! graphs submitted from inside a pool worker's job.
//!
//! Determinism: the engine hands a job nothing but the artifact cache.  A
//! job that needs randomness derives it from its own inputs (the CVCP plan
//! forks each cell's stream from the trial's frozen base and the cell's
//! coordinates), so results never depend on execution order, thread count
//! or lane; only wall-clock time changes.
//!
//! Acyclicity is guaranteed by construction: [`JobId`]s are only handed out
//! by [`JobGraph::add_job`], so dependency edges can only point at
//! already-added jobs.

use crate::cache::ArtifactCache;
use cvcp_obs::GraphTrace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Scheduling lane of a submitted graph.
///
/// The engine's worker pool keeps one FIFO queue of graph tokens per lane
/// and always drains the [`Priority::Interactive`] lane first: tokens of an
/// interactive graph overtake *queued* tokens of any batch graph, so a
/// latency-sensitive selection request is never stuck behind a large
/// experiment fan-out.  The thread waiting for a graph runs its jobs too,
/// so an interactive graph does not wait for a worker to finish a running
/// batch job either.  Within a lane, tokens are picked up in the order
/// they were queued.
///
/// Priority is pure scheduling: the engine hands jobs no randomness, so
/// results are **bit-identical across lanes** — only waiting time
/// changes.  Note that the lane is strict: batch work only runs while
/// no interactive job is queued, so a saturating interactive stream can
/// starve batch graphs (acceptable for this workload, where interactive
/// requests are short).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive work (served selection requests); drained first.
    #[default]
    Interactive,
    /// Throughput work (experiment fan-outs); drained when no interactive
    /// job is queued.
    Batch,
}

/// Number of scheduling lanes — one queue set per [`Priority`] variant,
/// drained in ascending [`Priority::lane_index`] order.  Shared by the
/// engine's pool and any priority-aware queue in front of it (e.g. the
/// serving front-end's admission queue), so the mapping cannot drift.
pub const N_LANES: usize = 2;

impl Priority {
    /// Parses a lane name (`interactive` / `batch`); `None` otherwise.
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "interactive" => Some(Self::Interactive),
            "batch" => Some(Self::Batch),
            _ => None,
        }
    }

    /// The canonical lane name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Interactive => "interactive",
            Self::Batch => "batch",
        }
    }

    /// The lane's queue index, in `0..`[`N_LANES`]: lanes are drained in
    /// ascending index order, so interactive (0) always precedes batch
    /// (1).
    pub fn lane_index(self) -> usize {
        match self {
            Self::Interactive => 0,
            Self::Batch => 1,
        }
    }
}

/// A shareable cancellation flag.
///
/// A token can be bound to a [`JobGraph`] before submission
/// ([`JobGraph::set_cancel_token`]) or obtained from a running graph's
/// handle (`GraphHandle::cancel_token`).  Cancelling it skips every job
/// that has not started yet — running jobs finish normally — and the same
/// token can be shared by any number of observers (e.g. a serving
/// front-end's per-connection disconnect watcher), independent of the
/// graph handle's lifetime.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation.  Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Identifier of a job within one [`JobGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(pub(crate) usize);

/// Execution context handed to every job.
pub struct JobCtx {
    pub(crate) cache: Arc<ArtifactCache>,
}

impl JobCtx {
    /// The engine's shared artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The shared artifact cache as an owned handle.
    pub fn cache_arc(&self) -> Arc<ArtifactCache> {
        Arc::clone(&self.cache)
    }
}

pub(crate) type JobFn<T> = Box<dyn FnOnce(&mut JobCtx) -> T + Send + 'static>;

pub(crate) struct GraphJob<T> {
    pub(crate) f: JobFn<T>,
    pub(crate) deps: Vec<usize>,
}

/// A DAG of jobs, all returning the same result type `T`.
pub struct JobGraph<T> {
    pub(crate) jobs: Vec<GraphJob<T>>,
    pub(crate) cancel_token: Option<CancelToken>,
    pub(crate) priority: Priority,
    /// Span recording for this graph (opt-in; `None` = no tracing).
    pub(crate) trace_name: Option<String>,
    /// Per-job display labels for traces; indexed by job, resized lazily
    /// so untraced graphs never allocate here.
    pub(crate) labels: Vec<String>,
}

impl<T> Default for JobGraph<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> JobGraph<T> {
    /// An empty graph on the [`Priority::Interactive`] lane.
    pub fn new() -> Self {
        Self {
            jobs: Vec::new(),
            cancel_token: None,
            priority: Priority::default(),
            trace_name: None,
            labels: Vec::new(),
        }
    }

    /// Enables span recording for this graph's execution: every executed
    /// job gets a [`cvcp_obs::JobSpan`] (enqueue/start/end ticks, worker,
    /// lane, cache hits), and the finished [`GraphTrace`] is returned on
    /// [`GraphResult::trace`].  `name` becomes the trace's display name
    /// (and, downstream, its file stem).  Tracing is timing-only: results
    /// stay bit-identical with it on or off.
    pub fn enable_trace(&mut self, name: impl Into<String>) {
        self.trace_name = Some(name.into());
    }

    /// `true` once [`enable_trace`](Self::enable_trace) was called.
    pub fn trace_enabled(&self) -> bool {
        self.trace_name.is_some()
    }

    /// Attaches a human-readable label to a job, shown in exported
    /// timelines (e.g. `t0/p9/f3` for trial 0, parameter 9, fold 3).
    /// Labels are only meaningful together with
    /// [`enable_trace`](Self::enable_trace).
    pub fn set_job_label(&mut self, id: JobId, label: impl Into<String>) {
        if self.labels.len() < self.jobs.len() {
            self.labels.resize(self.jobs.len(), String::new());
        }
        self.labels[id.0] = label.into();
    }

    /// Binds an external [`CancelToken`] to this graph: when the token is
    /// cancelled (before or after submission), jobs that have not started
    /// are skipped.  Without a bound token the graph gets a private one,
    /// reachable through its handle.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel_token = Some(token);
    }

    /// Chooses the scheduling lane the graph's jobs are queued on
    /// (default: [`Priority::Interactive`]).  Pure scheduling — results
    /// are bit-identical across lanes.
    pub fn set_priority(&mut self, priority: Priority) {
        self.priority = priority;
    }

    /// The graph's scheduling lane.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Adds a job depending on `deps`.  Jobs are numbered in insertion
    /// order, which is the order a one-thread engine runs ready jobs in.
    pub fn add_job<F>(&mut self, deps: &[JobId], f: F) -> JobId
    where
        F: FnOnce(&mut JobCtx) -> T + Send + 'static,
    {
        let id = JobId(self.jobs.len());
        self.jobs.push(GraphJob {
            f: Box::new(f),
            deps: deps.iter().map(|d| d.0).collect(),
        });
        id
    }

    /// Number of jobs in the graph.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the graph has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Completed(T),
    /// The job panicked; the message is the panic payload.
    Failed(String),
    /// The job was cancelled, or one of its dependencies did not complete.
    Skipped,
}

impl<T> JobOutcome<T> {
    /// The completed value, if any.
    pub fn ok(self) -> Option<T> {
        match self {
            JobOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// `true` for [`JobOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed(_))
    }
}

/// Outcome of a whole graph, in job-insertion order.
#[derive(Debug)]
pub struct GraphResult<T> {
    /// One outcome per job, in insertion order.
    pub outcomes: Vec<JobOutcome<T>>,
    /// The recorded execution timeline, when the graph was submitted with
    /// [`JobGraph::enable_trace`]; `None` otherwise.
    pub trace: Option<GraphTrace>,
}

impl<T> GraphResult<T> {
    /// `true` when every job completed.
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(JobOutcome::is_completed)
    }

    /// The first failure message, if any job failed.
    pub fn first_failure(&self) -> Option<&str> {
        self.outcomes.iter().find_map(|o| match o {
            JobOutcome::Failed(msg) => Some(msg.as_str()),
            _ => None,
        })
    }

    /// Unwraps every job's value.
    ///
    /// # Panics
    ///
    /// Panics (with `context`) if any job failed or was skipped.
    pub fn expect_all(self, context: &str) -> Vec<T> {
        self.outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| match o {
                JobOutcome::Completed(v) => v,
                JobOutcome::Failed(msg) => panic!("{context}: job {i} failed: {msg}"),
                JobOutcome::Skipped => panic!("{context}: job {i} was skipped"),
            })
            .collect()
    }
}
