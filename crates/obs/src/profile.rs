//! Critical-path and utilization analysis over a recorded [`GraphTrace`].
//!
//! The question a [`GraphProfile`] answers: *given what actually ran,
//! where did the wall time go?*  Three decompositions:
//!
//! * **critical path** — the longest dependency chain through the graph,
//!   weighted by each job's measured execute duration.  No schedule can
//!   finish faster than this, so `wall_ns / critical_path_ns` says how
//!   much of the observed time is schedule overhead (queue wait, worker
//!   wakeup, lock contention) rather than inherent serialisation;
//! * **per-worker occupancy** — busy nanoseconds per worker over the wall
//!   clock, exposing idle workers and load imbalance;
//! * **queue waits and steals** — how long ready jobs sat before starting,
//!   and what fraction of executed jobs were stolen (run by a worker
//!   other than the one that enqueued them).

use crate::trace::GraphTrace;

/// One worker's share of a traced graph execution.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerOccupancy {
    /// Worker index; [`GraphProfile`] appends one synthetic row (index
    /// `n_workers`) for spans executed off-pool, by the thread that waited
    /// for the graph.
    pub worker: usize,
    /// Jobs this worker executed.
    pub tasks: u64,
    /// Nanoseconds spent executing jobs.
    pub busy_ns: u64,
    /// `busy_ns` over the graph's wall time, in `[0, 1]` (clamped).
    pub occupancy: f64,
}

/// Critical-path + utilization report for one traced graph execution.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProfile {
    /// Graph name, copied from the trace.
    pub name: String,
    /// Jobs in the graph.
    pub n_jobs: usize,
    /// Jobs that actually executed (spans recorded).
    pub n_executed: usize,
    /// Pool workers available.
    pub n_workers: usize,
    /// Submit-to-finish wall time.
    pub wall_ns: u64,
    /// Sum of all job execute durations.
    pub total_busy_ns: u64,
    /// Duration of the longest dependency chain — the lower bound any
    /// schedule must obey.
    pub critical_path_ns: u64,
    /// Job indices along that chain, in execution order.
    pub critical_path_jobs: Vec<usize>,
    /// `total_busy_ns / wall_ns`: average number of busy workers.
    pub parallelism: f64,
    /// `wall_ns / critical_path_ns` (≥ 1 in a faithful trace): 1.0 means
    /// the schedule was optimal; the excess is scheduling overhead.
    pub schedule_overhead: f64,
    /// Fraction of executed jobs run by a worker other than the one that
    /// enqueued them.
    pub steal_ratio: f64,
    /// Sum over executed jobs of (start − enqueue).
    pub total_queue_wait_ns: u64,
    /// Largest single (start − enqueue).
    pub max_queue_wait_ns: u64,
    /// Per-worker occupancy rows, one per pool worker plus a synthetic
    /// off-pool row when any span ran outside the pool.
    pub workers: Vec<WorkerOccupancy>,
}

impl GraphProfile {
    /// Computes the profile for a recorded trace.  Pure function of the
    /// trace; `deps` entries always point at lower job indices (the graph
    /// builder only accepts existing jobs as dependencies), which makes
    /// the longest-path pass a single forward sweep.
    pub fn from_trace(trace: &GraphTrace) -> GraphProfile {
        let mut dur = vec![0u64; trace.n_jobs];
        for s in &trace.spans {
            dur[s.job] = s.duration_ns();
        }

        // Longest chain ending at each job, with a back-pointer for
        // reconstruction.
        let mut chain = vec![0u64; trace.n_jobs];
        let mut prev: Vec<Option<usize>> = vec![None; trace.n_jobs];
        for j in 0..trace.n_jobs {
            let best = trace.deps[j]
                .iter()
                .map(|&d| (chain[d], d))
                .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            let base = match best {
                Some((w, d)) => {
                    prev[j] = Some(d);
                    w
                }
                None => 0,
            };
            chain[j] = base + dur[j];
        }
        let (critical_path_ns, tail) = chain
            .iter()
            .copied()
            .enumerate()
            .map(|(j, w)| (w, j))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(w, j)| (w, Some(j)))
            .unwrap_or((0, None));
        let mut critical_path_jobs = Vec::new();
        let mut cursor = tail;
        while let Some(j) = cursor {
            critical_path_jobs.push(j);
            cursor = prev[j];
        }
        critical_path_jobs.reverse();

        let mut rows: Vec<WorkerOccupancy> = (0..trace.n_workers)
            .map(|worker| WorkerOccupancy {
                worker,
                tasks: 0,
                busy_ns: 0,
                occupancy: 0.0,
            })
            .collect();
        let mut off_pool = WorkerOccupancy {
            worker: trace.n_workers,
            tasks: 0,
            busy_ns: 0,
            occupancy: 0.0,
        };
        let mut total_busy_ns = 0u64;
        let mut total_queue_wait_ns = 0u64;
        let mut max_queue_wait_ns = 0u64;
        let mut stolen = 0u64;
        for s in &trace.spans {
            let row = match s.worker {
                Some(w) if w < trace.n_workers => &mut rows[w],
                _ => &mut off_pool,
            };
            row.tasks += 1;
            row.busy_ns += s.duration_ns();
            total_busy_ns += s.duration_ns();
            total_queue_wait_ns += s.queue_wait_ns();
            max_queue_wait_ns = max_queue_wait_ns.max(s.queue_wait_ns());
            if s.stolen() {
                stolen += 1;
            }
        }
        if off_pool.tasks > 0 {
            rows.push(off_pool);
        }
        let wall = trace.wall_ns.max(1) as f64;
        for row in &mut rows {
            row.occupancy = (row.busy_ns as f64 / wall).min(1.0);
        }

        let n_executed = trace.spans.len();
        GraphProfile {
            name: trace.name.clone(),
            n_jobs: trace.n_jobs,
            n_executed,
            n_workers: trace.n_workers,
            wall_ns: trace.wall_ns,
            total_busy_ns,
            critical_path_ns,
            critical_path_jobs,
            parallelism: total_busy_ns as f64 / wall,
            schedule_overhead: trace.wall_ns as f64 / critical_path_ns.max(1) as f64,
            steal_ratio: if n_executed == 0 {
                0.0
            } else {
                stolen as f64 / n_executed as f64
            },
            total_queue_wait_ns,
            max_queue_wait_ns,
            workers: rows,
        }
    }

    /// Mean ready-to-start wait per executed job.
    pub fn mean_queue_wait_ns(&self) -> u64 {
        if self.n_executed == 0 {
            0
        } else {
            self.total_queue_wait_ns / self.n_executed as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanRecorder;

    /// Builds a trace with controlled ticks: `jobs[j] = (deps, worker,
    /// enqueue, start, end)`.
    fn synthetic(n_workers: usize, jobs: &[(&[usize], usize, u64, u64, u64)]) -> GraphTrace {
        let deps: Vec<Vec<usize>> = jobs.iter().map(|(d, ..)| d.to_vec()).collect();
        let labels = vec![String::new(); jobs.len()];
        let r = SpanRecorder::new("synthetic".into(), n_workers, labels, deps);
        let mut trace = r.finish();
        trace.spans = jobs
            .iter()
            .enumerate()
            .map(|(j, &(_, worker, enq, start, end))| crate::trace::JobSpan {
                job: j,
                label: String::new(),
                worker: Some(worker),
                lane: 0,
                enqueue_ns: enq,
                start_ns: start,
                end_ns: end,
                enqueued_by: None,
                cache_hits: 0,
                cache_misses: 0,
            })
            .collect();
        trace.wall_ns = jobs.iter().map(|&(.., end)| end).max().unwrap_or(0);
        trace
    }

    #[test]
    fn critical_path_is_the_longest_dependency_chain() {
        // 0 (10ns) → 1 (30ns) → 3 (5ns); 2 (20ns) independent.
        let trace = synthetic(
            2,
            &[
                (&[], 0, 0, 0, 10),
                (&[0], 0, 10, 10, 40),
                (&[], 1, 0, 0, 20),
                (&[1], 1, 40, 45, 50),
            ],
        );
        let p = GraphProfile::from_trace(&trace);
        assert_eq!(p.critical_path_ns, 45);
        assert_eq!(p.critical_path_jobs, vec![0, 1, 3]);
        assert_eq!(p.total_busy_ns, 65);
        assert_eq!(p.wall_ns, 50);
        assert!((p.parallelism - 65.0 / 50.0).abs() < 1e-12);
        assert!((p.schedule_overhead - 50.0 / 45.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_and_queue_waits_attribute_per_worker() {
        let mut trace = synthetic(
            2,
            &[
                (&[], 0, 0, 0, 60),  // worker 0 busy 60 of 100
                (&[], 1, 0, 20, 40), // worker 1 busy 20, waited 20
            ],
        );
        trace.wall_ns = 100;
        let p = GraphProfile::from_trace(&trace);
        assert_eq!(p.workers.len(), 2);
        assert!((p.workers[0].occupancy - 0.6).abs() < 1e-9);
        assert!((p.workers[1].occupancy - 0.2).abs() < 1e-9);
        assert_eq!(p.total_queue_wait_ns, 20);
        assert_eq!(p.max_queue_wait_ns, 20);
        assert_eq!(p.mean_queue_wait_ns(), 10);
    }

    #[test]
    fn empty_trace_profiles_without_dividing_by_zero() {
        let r = SpanRecorder::new("empty".into(), 0, Vec::new(), Vec::new());
        let p = GraphProfile::from_trace(&r.finish());
        assert_eq!(p.n_executed, 0);
        assert_eq!(p.critical_path_ns, 0);
        assert_eq!(p.steal_ratio, 0.0);
        assert!(p.critical_path_jobs.is_empty());
    }

    #[test]
    fn skipped_jobs_contribute_zero_duration_to_the_path() {
        // Job 1 never executed (no span): chain 0→1→2 weighs only 0 and 2.
        let deps = vec![vec![], vec![0], vec![1]];
        let r = SpanRecorder::new("skip".into(), 1, vec![String::new(); 3], deps);
        let mut trace = r.finish();
        trace.spans = vec![
            crate::trace::JobSpan {
                job: 0,
                label: String::new(),
                worker: Some(0),
                lane: 0,
                enqueue_ns: 0,
                start_ns: 0,
                end_ns: 10,
                enqueued_by: None,
                cache_hits: 0,
                cache_misses: 0,
            },
            crate::trace::JobSpan {
                job: 2,
                label: String::new(),
                worker: Some(0),
                lane: 0,
                enqueue_ns: 10,
                start_ns: 10,
                end_ns: 25,
                enqueued_by: None,
                cache_hits: 0,
                cache_misses: 0,
            },
        ];
        trace.wall_ns = 25;
        let p = GraphProfile::from_trace(&trace);
        assert_eq!(p.n_executed, 2);
        assert_eq!(p.critical_path_ns, 25);
        assert_eq!(p.critical_path_jobs, vec![0, 1, 2]);
    }
}
