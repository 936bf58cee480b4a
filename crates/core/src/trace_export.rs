//! Chrome `trace_event` export for recorded graph timelines.
//!
//! A traced selection produces a [`GraphTrace`] (see `cvcp_engine::obs`);
//! this module renders it in the Chrome *trace event format* — the JSON
//! array-of-events schema that `chrome://tracing`, Perfetto and `speedscope`
//! all load — using the workspace's own [`Json`] emitter (the container
//! builds offline; there is no serde).
//!
//! Layout: one process (pid 0) per graph, one thread row per pool worker
//! (tid = worker index) plus an `off-pool` row (tid = `n_workers`) for
//! spans the waiting thread ran.  Every executed job becomes one complete (`"X"`)
//! event whose `args` carry the job's structural coordinates — job index,
//! lane, queue wait, cache hits/misses, steal attribution — so the timeline
//! can be filtered and aggregated inside the viewer.
//!
//! The companion [`graph_profile_json`] serialises the derived
//! [`GraphProfile`] (critical path, per-worker occupancy, steal ratio) for
//! the serving front-end's `metrics` endpoint and the experiment binaries.

use crate::json::Json;
use cvcp_engine::{GraphProfile, GraphTrace};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Microseconds (the trace-event time unit) from a nanosecond tick.
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1_000.0)
}

/// Renders a recorded trace in Chrome `trace_event` JSON (object form:
/// `{"traceEvents": [...], ...}`).
///
/// The output is deterministic in the trace: metadata events first
/// (process/thread names in tid order), then one `"X"` event per span in
/// job order.
pub fn chrome_trace_json(trace: &GraphTrace) -> Json {
    let mut events = Vec::new();
    events.push(Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Num(0.0)),
        (
            "args",
            Json::obj([("name", Json::Str(format!("cvcp graph: {}", trace.name)))]),
        ),
    ]));
    let off_pool_used = trace.spans.iter().any(|s| s.worker.is_none());
    for tid in 0..trace.n_workers + usize::from(off_pool_used) {
        let label = if tid < trace.n_workers {
            format!("worker {tid}")
        } else {
            "off-pool".to_string()
        };
        events.push(Json::obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(0.0)),
            ("tid", Json::Num(tid as f64)),
            ("args", Json::obj([("name", Json::Str(label))])),
        ]));
    }
    for span in &trace.spans {
        let name = if span.label.is_empty() {
            format!("job {}", span.job)
        } else {
            span.label.clone()
        };
        let tid = span.worker.unwrap_or(trace.n_workers);
        events.push(Json::obj([
            ("name", Json::Str(name)),
            ("cat", Json::Str(format!("lane{}", span.lane))),
            ("ph", Json::Str("X".into())),
            ("ts", us(span.start_ns)),
            ("dur", us(span.duration_ns())),
            ("pid", Json::Num(0.0)),
            ("tid", Json::Num(tid as f64)),
            (
                "args",
                Json::obj([
                    ("job", Json::Num(span.job as f64)),
                    ("lane", Json::Num(span.lane as f64)),
                    ("queue_wait_us", us(span.queue_wait_ns())),
                    ("cache_hits", Json::Num(span.cache_hits as f64)),
                    ("cache_misses", Json::Num(span.cache_misses as f64)),
                    ("stolen", Json::Bool(span.stolen())),
                    (
                        "enqueued_by",
                        span.enqueued_by.map_or(Json::Null, |w| Json::Num(w as f64)),
                    ),
                ]),
            ),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
        (
            "otherData",
            Json::obj([
                ("graph", Json::Str(trace.name.clone())),
                ("n_jobs", Json::Num(trace.n_jobs as f64)),
                ("n_executed", Json::Num(trace.spans.len() as f64)),
                ("n_workers", Json::Num(trace.n_workers as f64)),
                ("wall_us", us(trace.wall_ns)),
            ]),
        ),
    ])
}

/// Serialises a [`GraphProfile`] — the payload of the serving front-end's
/// `metrics` endpoint and the experiment profiler's report files.
pub fn graph_profile_json(profile: &GraphProfile) -> Json {
    Json::obj([
        ("graph", Json::Str(profile.name.clone())),
        ("n_jobs", Json::Num(profile.n_jobs as f64)),
        ("n_executed", Json::Num(profile.n_executed as f64)),
        ("n_workers", Json::Num(profile.n_workers as f64)),
        ("wall_us", us(profile.wall_ns)),
        ("total_busy_us", us(profile.total_busy_ns)),
        ("critical_path_us", us(profile.critical_path_ns)),
        (
            "critical_path_jobs",
            Json::Arr(
                profile
                    .critical_path_jobs
                    .iter()
                    .map(|&j| Json::Num(j as f64))
                    .collect(),
            ),
        ),
        ("parallelism", Json::Num(profile.parallelism)),
        ("schedule_overhead", Json::Num(profile.schedule_overhead)),
        ("steal_ratio", Json::Num(profile.steal_ratio)),
        ("mean_queue_wait_us", us(profile.mean_queue_wait_ns())),
        ("max_queue_wait_us", us(profile.max_queue_wait_ns)),
        (
            "workers",
            Json::Arr(
                profile
                    .workers
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("worker", Json::Num(w.worker as f64)),
                            ("tasks", Json::Num(w.tasks as f64)),
                            ("busy_us", us(w.busy_ns)),
                            ("occupancy", Json::Num(w.occupancy)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A filesystem-safe stem derived from a trace name: alphanumerics, `-`,
/// `_` and `.` pass through, everything else becomes `_`; empty names
/// become `"trace"`.
fn file_stem(name: &str) -> String {
    if name.is_empty() {
        return "trace".to_string();
    }
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes the Chrome trace file `<dir>/<stem>.trace.json` (creating `dir`
/// if needed) and returns its path.  The stem is the sanitised trace name.
pub fn write_chrome_trace(trace: &GraphTrace, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.trace.json", file_stem(&trace.name)));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(chrome_trace_json(trace).pretty().as_bytes())?;
    file.write_all(b"\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvcp_engine::{JobSpan, SpanRecorder};

    fn sample_trace() -> GraphTrace {
        let deps = vec![vec![], vec![0], vec![0, 1]];
        let labels = vec!["artifact/p3".into(), "t0/p3/f0".into(), String::new()];
        let r = SpanRecorder::new("req:1".into(), 2, labels, deps);
        let mut trace = r.finish();
        trace.spans = vec![
            JobSpan {
                job: 0,
                label: "artifact/p3".into(),
                worker: Some(0),
                lane: 0,
                enqueue_ns: 0,
                start_ns: 1_000,
                end_ns: 5_000,
                enqueued_by: None,
                cache_hits: 0,
                cache_misses: 2,
            },
            JobSpan {
                job: 1,
                label: "t0/p3/f0".into(),
                worker: Some(1),
                lane: 1,
                enqueue_ns: 5_000,
                start_ns: 6_000,
                end_ns: 9_000,
                enqueued_by: Some(0),
                cache_hits: 3,
                cache_misses: 0,
            },
            JobSpan {
                job: 2,
                label: String::new(),
                worker: None,
                lane: 0,
                enqueue_ns: 9_000,
                start_ns: 9_500,
                end_ns: 10_000,
                enqueued_by: None,
                cache_hits: 1,
                cache_misses: 0,
            },
        ];
        trace.wall_ns = 10_000;
        trace
    }

    #[test]
    fn chrome_export_round_trips_through_the_parser() {
        let doc = chrome_trace_json(&sample_trace());
        let text = doc.pretty();
        let parsed = Json::parse(&text).expect("export must be valid JSON");
        assert_eq!(parsed, doc);
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // 1 process_name + 3 thread rows (2 workers + off-pool) + 3 spans.
        assert_eq!(events.len(), 7);
    }

    #[test]
    fn span_events_carry_coordinates_and_nest_in_the_wall_clock() {
        let trace = sample_trace();
        let doc = chrome_trace_json(&trace);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), trace.spans.len());
        let wall_us = trace.wall_ns as f64 / 1_000.0;
        for (event, span) in spans.iter().zip(&trace.spans) {
            let ts = event.get("ts").and_then(Json::as_f64).unwrap();
            let dur = event.get("dur").and_then(Json::as_f64).unwrap();
            assert!(ts >= 0.0 && ts + dur <= wall_us + 1e-9);
            let args = event.get("args").unwrap();
            assert_eq!(args.get("job").and_then(Json::as_usize), Some(span.job));
            assert_eq!(args.get("lane").and_then(Json::as_usize), Some(span.lane));
            assert_eq!(
                args.get("stolen").and_then(Json::as_bool),
                Some(span.stolen())
            );
        }
        // The stolen span (enqueued by worker 0, ran on worker 1) is flagged.
        assert_eq!(
            spans[1].get("args").unwrap().get("stolen"),
            Some(&Json::Bool(true))
        );
        // Off-pool spans land on the synthetic tid.
        assert_eq!(spans[2].get("tid").and_then(Json::as_usize), Some(2));
    }

    #[test]
    fn unlabeled_jobs_fall_back_to_their_index() {
        let doc = chrome_trace_json(&sample_trace());
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, vec!["artifact/p3", "t0/p3/f0", "job 2"]);
    }

    #[test]
    fn trace_files_are_written_under_a_sanitised_name() {
        let dir = std::env::temp_dir().join(format!("cvcp-trace-test-{}", std::process::id()));
        let path = write_chrome_trace(&sample_trace(), &dir).expect("write trace");
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some("req_1.trace.json")
        );
        let text = std::fs::read_to_string(&path).expect("read back");
        Json::parse(&text).expect("file parses");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_json_mirrors_the_profile() {
        let trace = sample_trace();
        let profile = GraphProfile::from_trace(&trace);
        let doc = graph_profile_json(&profile);
        assert_eq!(doc.get("graph").and_then(Json::as_str), Some("req:1"));
        assert_eq!(doc.get("n_executed").and_then(Json::as_usize), Some(3));
        let workers = doc.get("workers").and_then(Json::as_arr).unwrap();
        assert_eq!(workers.len(), profile.workers.len());
        Json::parse(&doc.compact()).expect("profile serialises to valid JSON");
    }
}
