//! Observability guarantees, exercised through the public `cvcp-suite`
//! API:
//!
//! 1. tracing and metrics are **invisible to results** — a traced
//!    selection is bit-identical to the untraced one at 1, 2 and 8
//!    threads, with metrics enabled or disabled;
//! 2. the Chrome `trace_event` export of a full selection is well-formed:
//!    it parses, carries exactly one `X` span per graph job, and every
//!    span nests inside the recorded wall clock;
//! 3. the derived [`GraphProfile`] is internally consistent (critical
//!    path within the wall clock, busy time attributed once, to a pool
//!    worker's row or to the off-pool row of the waiting thread).

use cvcp_suite::core::trace_export::chrome_trace_json;
use cvcp_suite::core::{
    run_selection_request, run_selection_request_traced, Algorithm, GraphProfile, Json,
    SelectionRequest, SideInfoSpec,
};
use cvcp_suite::engine::Engine;

fn request(id: &str, trace: bool) -> SelectionRequest {
    SelectionRequest {
        id: id.to_string(),
        dataset: "iris_like".to_string(),
        algorithm: Algorithm::Fosc,
        params: vec![3, 6, 9],
        side_info: SideInfoSpec::LabelFraction(0.2),
        n_folds: 4,
        stratified: true,
        seed: 20_140_324,
        priority: None,
        trace,
    }
}

#[test]
fn tracing_and_metrics_never_change_the_selection() {
    let reference = run_selection_request(
        &Engine::sequential(),
        &request("reference", false),
        None,
        |_| {},
    )
    .expect("reference run");

    for threads in [1usize, 2, 8] {
        // Untraced, metrics on (the default engine).
        let plain = run_selection_request(
            &Engine::with_exact_threads(threads),
            &request("p", false),
            None,
            |_| {},
        )
        .expect("plain run");
        assert_eq!(plain, reference, "untraced diverged at {threads} threads");

        // Traced, metrics on.
        let (traced, trace) = run_selection_request_traced(
            &Engine::with_exact_threads(threads),
            &request("t", true),
            None,
            |_| {},
        )
        .expect("traced run");
        assert_eq!(traced, reference, "traced diverged at {threads} threads");
        let trace = trace.expect("trace recorded");
        assert_eq!(
            trace.spans.len(),
            trace.n_jobs,
            "every job has a span at {threads} threads"
        );

        // Untraced, metrics off.
        let unmetered = run_selection_request(
            &Engine::with_metrics_disabled(threads),
            &request("m", false),
            None,
            |_| {},
        )
        .expect("metrics-disabled run");
        assert_eq!(
            unmetered, reference,
            "metrics-disabled run diverged at {threads} threads"
        );
    }
}

#[test]
fn chrome_export_of_a_full_selection_is_well_formed() {
    let (_, trace) = run_selection_request_traced(
        &Engine::with_exact_threads(4),
        &request("export", true),
        None,
        |_| {},
    )
    .expect("traced run");
    let trace = trace.expect("trace recorded");

    let doc = chrome_trace_json(&trace);
    let reparsed = Json::parse(&doc.pretty()).expect("chrome export is valid JSON");
    let events = reparsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");

    let spans: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
        .collect();
    assert_eq!(spans.len(), trace.n_jobs, "one X event per graph job");

    let wall_us = trace.wall_ns as f64 / 1000.0;
    for span in &spans {
        let ts = span.get("ts").and_then(|v| v.as_f64()).expect("ts");
        let dur = span.get("dur").and_then(|v| v.as_f64()).expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0);
        // Bucket-free nesting check with a microsecond of rounding slack.
        assert!(
            ts + dur <= wall_us + 1.0,
            "span [{ts}, {}] escapes the wall clock {wall_us}",
            ts + dur
        );
        let name = span.get("name").and_then(|v| v.as_str()).expect("name");
        assert!(!name.is_empty(), "spans carry job labels");
    }

    // Each pool worker got a thread_name metadata row.
    let thread_names = events
        .iter()
        .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("thread_name"))
        .count();
    assert!(
        thread_names >= trace.n_workers,
        "a timeline row per worker ({thread_names} < {})",
        trace.n_workers
    );

    let profile = GraphProfile::from_trace(&trace);
    assert_eq!(profile.n_jobs, trace.n_jobs);
    assert_eq!(profile.n_executed, trace.spans.len());
    assert!(profile.critical_path_ns <= profile.wall_ns);
    assert!(!profile.critical_path_jobs.is_empty());
    assert!(profile.parallelism > 0.0);
    // Every span lands in exactly one row: its pool worker's, or the
    // off-pool row (index n_workers) of the thread that waited for the
    // graph and ran jobs itself.
    let attributed: u64 = profile.workers.iter().map(|w| w.busy_ns).sum();
    assert_eq!(
        attributed, profile.total_busy_ns,
        "busy time is fully attributed, once"
    );
    let off_pool: u64 = trace
        .spans
        .iter()
        .filter(|s| s.worker.is_none())
        .map(|s| s.duration_ns())
        .sum();
    let off_pool_row = profile
        .workers
        .iter()
        .find(|w| w.worker == trace.n_workers)
        .map_or(0, |w| w.busy_ns);
    assert_eq!(
        off_pool_row, off_pool,
        "the off-pool row holds the off-pool spans"
    );
}
