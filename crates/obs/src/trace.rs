//! Opt-in per-graph span recording.
//!
//! A [`SpanRecorder`] is attached to one graph execution when tracing is
//! requested (`CVCP_TRACE_DIR`, a `"trace": true` wire field, or an
//! explicit API call) and records one [`JobSpan`] per executed job:
//! enqueue/start/end ticks on a single per-graph monotonic clock, the
//! worker that ran it, which worker enqueued it (steal attribution), and
//! the job's cache hit/miss counts.
//!
//! The recorder is **lock-light**: each worker appends finished spans to
//! its own `Mutex<Vec<_>>` buffer, so the lock a worker takes is
//! uncontended in steady state — contention can only occur against the
//! final drain in [`SpanRecorder::finish`], which runs after the graph
//! completes.  Enqueue ticks are plain relaxed atomic stores into a
//! pre-sized slot per job.  Nothing here touches an RNG stream or
//! execution order, so traced and untraced runs are bit-identical.
//!
//! The finished [`GraphTrace`] is a plain value: spans sorted by job
//! index, the dependency lists needed for critical-path analysis, and the
//! graph's wall time.  Rendering (Chrome `trace_event` JSON) lives
//! upstream in `cvcp-core`, next to the workspace's JSON emitter.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sentinel for "not made ready by a pool worker" (the submitting or the
/// waiting thread).
const NO_WORKER: usize = usize::MAX;

/// One executed job, on the recorder's per-graph monotonic clock
/// (nanoseconds since [`SpanRecorder`] creation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpan {
    /// Job index within the graph.
    pub job: usize,
    /// Human-readable label (e.g. `t0/p9/f3`), empty when the graph did
    /// not label this job.
    pub label: String,
    /// Pool worker that executed the job; `None` when the thread waiting
    /// for the graph ran it off the pool.
    pub worker: Option<usize>,
    /// Priority lane the job ran on.
    pub lane: usize,
    /// Tick at which the job became ready and was enqueued.
    pub enqueue_ns: u64,
    /// Tick at which execution started.
    pub start_ns: u64,
    /// Tick at which execution finished.
    pub end_ns: u64,
    /// Pool worker that made the job ready; `None` when the submitting or
    /// the waiting thread did, off the pool.
    pub enqueued_by: Option<usize>,
    /// Artifact-cache hits observed while the job ran.
    pub cache_hits: u64,
    /// Artifact-cache misses (computes) observed while the job ran.
    pub cache_misses: u64,
}

impl JobSpan {
    /// Execute duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Ready-to-start wait in nanoseconds.
    pub fn queue_wait_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.enqueue_ns)
    }

    /// Whether the job was executed by a different worker than the one
    /// that made it ready (i.e. it was stolen).  Jobs made ready off the
    /// pool, and jobs run off the pool, are never "stolen".
    pub fn stolen(&self) -> bool {
        match (self.enqueued_by, self.worker) {
            (Some(from), Some(ran)) => from != ran,
            _ => false,
        }
    }
}

/// Collects [`JobSpan`]s for one graph execution.
#[derive(Debug)]
pub struct SpanRecorder {
    name: String,
    epoch: Instant,
    n_workers: usize,
    /// One span buffer per worker plus one trailing buffer for spans
    /// recorded off-pool (by the thread waiting for the graph).
    buffers: Vec<Mutex<Vec<JobSpan>>>,
    enqueue_ns: Vec<AtomicU64>,
    enqueued_by: Vec<AtomicUsize>,
    labels: Vec<String>,
    deps: Vec<Vec<usize>>,
}

impl SpanRecorder {
    /// A recorder for a graph of `deps.len()` jobs executed by up to
    /// `n_workers` pool workers.  `labels[j]` may be empty; `deps[j]`
    /// lists the indices of `j`'s dependencies.
    pub fn new(name: String, n_workers: usize, labels: Vec<String>, deps: Vec<Vec<usize>>) -> Self {
        assert_eq!(labels.len(), deps.len(), "one label slot per job");
        let n_jobs = deps.len();
        Self {
            name,
            epoch: Instant::now(),
            n_workers,
            buffers: (0..=n_workers).map(|_| Mutex::new(Vec::new())).collect(),
            enqueue_ns: (0..n_jobs).map(|_| AtomicU64::new(0)).collect(),
            enqueued_by: (0..n_jobs).map(|_| AtomicUsize::new(NO_WORKER)).collect(),
            labels,
            deps,
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Marks `job` as enqueued now, by pool worker `by` (or `None` when
    /// the submitting or the waiting thread made it ready, off the pool).
    pub fn mark_enqueue(&self, job: usize, by: Option<usize>) {
        self.enqueue_ns[job].store(self.now_ns(), Ordering::Relaxed);
        self.enqueued_by[job].store(by.unwrap_or(NO_WORKER), Ordering::Relaxed);
    }

    /// Records a finished job.  `worker` is the executing pool worker
    /// (`None` off the pool); ticks come from [`now_ns`](Self::now_ns).
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        job: usize,
        worker: Option<usize>,
        lane: usize,
        start_ns: u64,
        end_ns: u64,
        cache_hits: u64,
        cache_misses: u64,
    ) {
        let enqueued_by = match self.enqueued_by[job].load(Ordering::Relaxed) {
            NO_WORKER => None,
            w => Some(w),
        };
        let span = JobSpan {
            job,
            label: self.labels[job].clone(),
            worker,
            lane,
            enqueue_ns: self.enqueue_ns[job].load(Ordering::Relaxed),
            start_ns,
            end_ns,
            enqueued_by,
            cache_hits,
            cache_misses,
        };
        let buffer = worker
            .map(|w| &self.buffers[w.min(self.n_workers)])
            .unwrap_or(&self.buffers[self.n_workers]);
        buffer.lock().expect("span buffer lock").push(span);
    }

    /// Drains all buffers into a [`GraphTrace`].  Spans are sorted by job
    /// index, so the trace is deterministic regardless of which worker ran
    /// what.  Call after the graph has completed — spans recorded later
    /// are lost.
    pub fn finish(&self) -> GraphTrace {
        let wall_ns = self.now_ns();
        let mut spans: Vec<JobSpan> = self
            .buffers
            .iter()
            .flat_map(|b| std::mem::take(&mut *b.lock().expect("span buffer lock")))
            .collect();
        spans.sort_by_key(|s| s.job);
        GraphTrace {
            name: self.name.clone(),
            n_jobs: self.deps.len(),
            n_workers: self.n_workers,
            wall_ns,
            spans,
            deps: self.deps.clone(),
        }
    }
}

/// The finished timeline of one graph execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphTrace {
    /// Graph name (e.g. the request id), used as the trace file stem.
    pub name: String,
    /// Number of jobs in the graph (spans may be fewer if jobs were
    /// skipped by failed dependencies or cancellation).
    pub n_jobs: usize,
    /// Pool workers available during the run (0 for inline engines).
    pub n_workers: usize,
    /// Submit-to-finish wall time on the recorder's clock.
    pub wall_ns: u64,
    /// One span per *executed* job, sorted by job index.
    pub spans: Vec<JobSpan>,
    /// `deps[j]` = indices of job `j`'s dependencies.
    pub deps: Vec<Vec<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(n_jobs: usize, n_workers: usize) -> SpanRecorder {
        SpanRecorder::new(
            "t".into(),
            n_workers,
            vec![String::new(); n_jobs],
            vec![Vec::new(); n_jobs],
        )
    }

    #[test]
    fn spans_come_back_sorted_by_job() {
        let r = recorder(3, 2);
        for job in [2usize, 0, 1] {
            r.mark_enqueue(job, None);
            let t = r.now_ns();
            r.record_span(job, Some(job % 2), 0, t, t + 10, 0, 0);
        }
        let trace = r.finish();
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(
            trace.spans.iter().map(|s| s.job).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(trace.n_jobs, 3);
    }

    #[test]
    fn steal_attribution_requires_a_local_enqueue() {
        let r = recorder(3, 2);
        r.mark_enqueue(0, Some(0));
        r.record_span(0, Some(1), 0, 1, 2, 0, 0); // enqueued by 0, ran on 1
        r.mark_enqueue(1, Some(1));
        r.record_span(1, Some(1), 0, 1, 2, 0, 0); // enqueued and ran on 1
        r.mark_enqueue(2, None);
        r.record_span(2, Some(0), 0, 1, 2, 0, 0); // submitted from outside
        let trace = r.finish();
        assert!(trace.spans[0].stolen());
        assert!(!trace.spans[1].stolen());
        assert!(!trace.spans[2].stolen());
    }

    #[test]
    fn ticks_order_enqueue_before_start_before_end() {
        let r = recorder(1, 1);
        r.mark_enqueue(0, None);
        let start = r.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let end = r.now_ns();
        r.record_span(0, Some(0), 1, start, end, 3, 1);
        let trace = r.finish();
        let s = &trace.spans[0];
        assert!(s.enqueue_ns <= s.start_ns);
        assert!(s.start_ns < s.end_ns);
        assert!(trace.wall_ns >= s.end_ns);
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.lane, 1);
        assert!(s.duration_ns() >= 1_000_000);
    }
}
