//! Engine and cache readouts over a measured window: what an engine's
//! always-on metrics and its artifact cache recorded between two
//! snapshots.

use crate::report::RunReport;
use crate::stats::{process_cpu_s, HistWindow};
use cvcp_engine::obs::{HistogramSnapshot, MetricsSnapshot, WorkerSnapshot};
use cvcp_engine::{CacheStats, Engine, KindLatencySnapshot, Priority};
use std::time::Instant;

/// A point-in-time copy of an engine's metrics and cache counters.
pub struct Snapshot {
    at: Instant,
    cpu_s: f64,
    metrics: MetricsSnapshot,
    cache: CacheStats,
    kinds: Vec<KindLatencySnapshot>,
}

impl Snapshot {
    /// Reads `engine` now.
    pub fn take(engine: &Engine) -> Self {
        Self {
            at: Instant::now(),
            cpu_s: process_cpu_s(),
            metrics: engine.metrics_snapshot(),
            cache: engine.cache_stats(),
            kinds: engine.cache().kind_latency_snapshots(),
        }
    }

    /// The state of an engine built just now: nothing recorded yet.
    pub fn zero() -> Self {
        Self {
            at: Instant::now(),
            cpu_s: process_cpu_s(),
            metrics: MetricsSnapshot::default(),
            cache: CacheStats::default(),
            kinds: Vec::new(),
        }
    }
}

/// What one engine did between two snapshots of it.
pub struct Window {
    wall_s: f64,
    workers: usize,
    job_run: HistWindow,
    /// Graph submit → first-job-start waits, per lane.
    queue_wait: Vec<HistWindow>,
    /// Σ worker busy time in the window.
    pub busy_ns: u64,
    /// CPU time the whole process used in the window.
    pub cpu_s: f64,
    tasks: u64,
    steals: u64,
    parks: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    evicted_bytes: u64,
    peak_resident_bytes: usize,
    get: HistWindow,
    /// Miss-path compute time per artifact kind.
    compute: Vec<(&'static str, HistWindow)>,
}

fn lanes(before: &[HistogramSnapshot], after: &[HistogramSnapshot]) -> Vec<HistWindow> {
    after
        .iter()
        .enumerate()
        .map(|(lane, h)| HistWindow::between(before.get(lane), h))
        .collect()
}

impl Window {
    /// The difference `after − before` of two snapshots of one engine.
    pub fn between(before: &Snapshot, after: &Snapshot) -> Self {
        let mut job_run = HistWindow::empty();
        for lane in lanes(&before.metrics.job_run, &after.metrics.job_run) {
            job_run.merge(&lane);
        }
        let workers = |field: fn(&WorkerSnapshot) -> u64| -> u64 {
            after
                .metrics
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    field(w).saturating_sub(before.metrics.workers.get(i).map_or(0, field))
                })
                .sum()
        };
        let mut get = HistWindow::empty();
        let mut compute = Vec::with_capacity(after.kinds.len());
        for kind in &after.kinds {
            let earlier = before.kinds.iter().find(|k| k.kind == kind.kind);
            get.merge(&HistWindow::between(earlier.map(|k| &k.get), &kind.get));
            compute.push((
                kind.kind,
                HistWindow::between(earlier.map(|k| &k.compute), &kind.compute),
            ));
        }
        let (b, a) = (&before.cache, &after.cache);
        Self {
            wall_s: after.at.saturating_duration_since(before.at).as_secs_f64(),
            workers: after.metrics.workers.len(),
            job_run,
            queue_wait: lanes(
                &before.metrics.graph_queue_wait,
                &after.metrics.graph_queue_wait,
            ),
            busy_ns: workers(|w| w.busy_nanos),
            cpu_s: after.cpu_s - before.cpu_s,
            tasks: workers(|w| w.tasks),
            steals: workers(|w| w.steals),
            parks: workers(|w| w.parks),
            hits: a.hits.saturating_sub(b.hits),
            misses: a.misses.saturating_sub(b.misses),
            evictions: a.evictions.saturating_sub(b.evictions),
            evicted_bytes: a.evicted_bytes.saturating_sub(b.evicted_bytes),
            peak_resident_bytes: a.peak_resident_bytes,
            get,
            compute,
        }
    }

    /// Artifacts of `kind` computed in the window: its cache misses.
    pub fn computed(&self, kind: &str) -> u64 {
        self.compute
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, h)| h.count())
    }

    /// Jobs the engine ran in the window.
    pub fn jobs(&self) -> u64 {
        self.job_run.count()
    }

    /// Reports the `engine.*` and `cache.*` per-layer metrics, all but
    /// `engine.critical_path_share` and `engine.overhead_share`, which
    /// need graph profiles and the kernel replay.
    pub fn report(&self, report: &mut RunReport) {
        const MIB: f64 = 1024.0 * 1024.0;
        report.layer("engine.jobs", self.jobs() as f64, "count");
        report.layer(
            "engine.job_run_p50_us",
            self.job_run.percentile_nanos(0.50) / 1e3,
            "us",
        );
        report.layer(
            "engine.job_run_p99_us",
            self.job_run.percentile_nanos(0.99) / 1e3,
            "us",
        );
        for lane in [Priority::Interactive, Priority::Batch] {
            let p99 = self
                .queue_wait
                .get(lane.lane_index())
                .map_or(0.0, |h| h.percentile_nanos(0.99));
            report.layer(
                format!("engine.graph_queue_wait_p99_ms.{}", lane.name()),
                p99 / 1e6,
                "ms",
            );
        }
        let capacity_ns = self.workers as f64 * self.wall_s * 1e9;
        report.layer(
            "engine.busy_share",
            ratio(self.busy_ns as f64, capacity_ns),
            "share",
        );
        report.layer(
            "engine.steal_ratio",
            ratio(self.steals as f64, self.tasks as f64),
            "share",
        );
        report.layer("engine.parks", self.parks as f64, "count");
        let lookups = (self.hits + self.misses) as f64;
        report.layer("cache.hit_rate", ratio(self.hits as f64, lookups), "share");
        report.layer("cache.misses", self.misses as f64, "count");
        report.layer("cache.evictions", self.evictions as f64, "count");
        report.layer("cache.evicted_mb", self.evicted_bytes as f64 / MIB, "MiB");
        report.layer(
            "cache.peak_resident_mb",
            self.peak_resident_bytes as f64 / MIB,
            "MiB",
        );
        report.layer(
            "cache.get_p50_us",
            self.get.percentile_nanos(0.50) / 1e3,
            "us",
        );
        for (kind, h) in &self.compute {
            report.layer(
                format!("cache.compute_ms.{kind}"),
                h.sum_nanos() as f64 / 1e6,
                "ms",
            );
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
