//! End-to-end smoke tests: a real TCP server on a loopback port, driven
//! through the wire protocol, asserted against the in-process engine.
//!
//! These are the same three contracts the CI `server-smoke` job asserts
//! via the `serve` binary and the `cvcp-client` example:
//!
//! 1. a served FOSC selection is bit-identical to `select_model_with`;
//! 2. a served MPCKMeans selection is bit-identical to `select_model_with`;
//! 3. a client disconnect mid-request cancels the DAG (visible in `stats`).

use cvcp_core::{Algorithm, Engine, Priority, SelectionRequest, SideInfoSpec};
use cvcp_server::client::Connection;
use cvcp_server::{RankedSelection, Request, Response, Server, ServerConfig, StatsSnapshot};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(workers: usize, queue_depth: usize) -> Server {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth,
        workers,
        ..ServerConfig::default()
    };
    Server::start(&config, Arc::new(Engine::with_exact_threads(4))).expect("bind loopback")
}

fn send_line(server: &Server, request: &Request) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut line = request.to_line();
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("send request");
    stream.flush().expect("flush request");
    stream
}

fn collect_responses(stream: TcpStream) -> Vec<Response> {
    let reader = BufReader::new(stream);
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line.expect("read response line");
        let response = Response::from_line(&line).expect("well-formed response");
        let terminal = matches!(response, Response::Result { .. } | Response::Error { .. });
        out.push(response);
        if terminal {
            break;
        }
    }
    out
}

fn request_for(algorithm: Algorithm, id: &str) -> SelectionRequest {
    SelectionRequest {
        id: id.to_string(),
        dataset: "iris_like".to_string(),
        algorithm,
        params: match algorithm {
            Algorithm::Fosc => vec![3, 6, 9],
            Algorithm::MpckMeans => vec![2, 3, 4],
        },
        side_info: SideInfoSpec::LabelFraction(0.2),
        n_folds: 4,
        stratified: true,
        seed: 20_140_324,
        priority: None,
        trace: false,
    }
}

fn assert_bit_identical(served: &RankedSelection, local: &RankedSelection) {
    assert_eq!(served.best_param, local.best_param);
    assert_eq!(
        served.best_score.to_bits(),
        local.best_score.to_bits(),
        "best_score bits differ"
    );
    assert_eq!(served.evaluations.len(), local.evaluations.len());
    for (s, l) in served.evaluations.iter().zip(&local.evaluations) {
        assert_eq!(s.param, l.param);
        assert_eq!(
            s.score.to_bits(),
            l.score.to_bits(),
            "score bits differ at param {}",
            s.param
        );
    }
    assert_eq!(served.ranking.len(), local.ranking.len());
    for (s, l) in served.ranking.iter().zip(&local.ranking) {
        assert_eq!((s.param, s.score.to_bits()), (l.param, l.score.to_bits()));
    }
}

fn served_selection_matches_in_process(algorithm: Algorithm) {
    let server = start_server(2, 8);
    let request = request_for(algorithm, "smoke");
    let stream = send_line(&server, &Request::Select(request.clone()));
    let responses = collect_responses(stream);

    let progress: Vec<_> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Progress {
                param,
                score,
                total,
                ..
            } => Some((*param, *score, *total)),
            _ => None,
        })
        .collect();
    assert_eq!(
        progress.len(),
        request.params.len(),
        "one progress event per candidate: {responses:?}"
    );
    assert!(progress
        .iter()
        .all(|&(_, _, total)| total == request.params.len()));

    let served = match responses.last() {
        Some(Response::Result { id, selection, .. }) => {
            assert_eq!(id, "smoke");
            selection.clone()
        }
        other => panic!("expected a result, got {other:?}"),
    };

    // The reference: the identical request lowered and run in-process.
    let local = RankedSelection::from_selection(
        &request
            .realize()
            .expect("valid request")
            .select(&Engine::with_exact_threads(4)),
    );
    assert_bit_identical(&served, &local);

    // Progress events carry the same scores as the final evaluations.
    for (param, score, _) in progress {
        let eval = served
            .evaluations
            .iter()
            .find(|e| e.param == param)
            .expect("progress param is a candidate");
        assert_eq!(eval.score.to_bits(), score.to_bits());
    }

    let stats = server.stats();
    assert_eq!(stats.requests.completed, 1);
    assert_eq!(stats.requests.cancelled, 0);
    server.shutdown();
}

#[test]
fn served_fosc_selection_is_bit_identical_to_in_process() {
    served_selection_matches_in_process(Algorithm::Fosc);
}

#[test]
fn served_mpck_selection_is_bit_identical_to_in_process() {
    served_selection_matches_in_process(Algorithm::MpckMeans);
}

#[test]
fn client_disconnect_mid_request_cancels_the_dag() {
    let server = start_server(1, 8);
    // A heavyweight request (125×144 ALOI replica, full MPCK k-grid) so the
    // selection is reliably still running when the disconnect lands.
    let request = SelectionRequest {
        id: "to-cancel".to_string(),
        dataset: "aloi:0".to_string(),
        algorithm: Algorithm::MpckMeans,
        params: vec![],
        side_info: SideInfoSpec::LabelFraction(0.2),
        n_folds: 5,
        stratified: true,
        seed: 7,
        priority: None,
        trace: false,
    };
    let stream = send_line(&server, &Request::Select(request));
    // Drop the connection immediately: the watcher sees EOF and cancels.
    drop(stream);

    let stats = wait_for_stats(&server, "cancellation never surfaced in stats", |s| {
        s.requests.cancelled == 1
    });
    assert_eq!(stats.requests.completed, 0, "request must not complete");

    // The engine survives: a fresh request on the same server still works.
    let follow_up = request_for(Algorithm::Fosc, "after-cancel");
    let responses = collect_responses(send_line(&server, &Request::Select(follow_up)));
    assert!(
        matches!(responses.last(), Some(Response::Result { .. })),
        "follow-up failed: {responses:?}"
    );
    server.shutdown();
}

/// The long batch selection both lane tests run beside: a heavyweight
/// MPCKMeans selection over k = 2..=41 on the 125×144 ALOI replica, half
/// its objects labelled, 10 folds.  In a release build it runs for about
/// 1.3 s as 40 jobs of at most a few tens of milliseconds, some 30 times
/// the admission waits and small requests it must outlast; a batch of
/// under 10 ms often finished first.
fn long_batch_request(id: &str) -> SelectionRequest {
    SelectionRequest {
        id: id.to_string(),
        dataset: "aloi:0".to_string(),
        algorithm: Algorithm::MpckMeans,
        params: (2..=41).collect(),
        side_info: SideInfoSpec::LabelFraction(0.5),
        n_folds: 10,
        stratified: true,
        seed: 11,
        priority: Some(Priority::Batch),
        trace: false,
    }
}

/// Polls the server's stats until `ready` holds, for at most 60 s, and
/// returns the snapshot that satisfied it.
fn wait_for_stats(
    server: &Server,
    what: &str,
    ready: impl Fn(&StatsSnapshot) -> bool,
) -> StatsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = server.stats();
        if ready(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "{what}: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn interactive_request_completes_while_batch_graph_is_in_flight() {
    // A large batch selection runs on one selection worker; an interactive
    // request sent afterwards runs on the other, which runs its graph's
    // jobs itself, and must complete while the batch graph is in flight.
    // Both requests run at once here, so this pins completion, not which
    // lane a worker serves first (the queued-lane test below pins that).
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 8,
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(&config, Arc::new(Engine::new(2))).expect("bind loopback");

    let batch_stream = send_line(&server, &Request::Select(long_batch_request("big-batch")));
    wait_for_stats(&server, "batch request never admitted", |s| {
        s.requests.received > 0
    });

    // The interactive request: small FOSC grid on the iris-like replica.
    let mut interactive = request_for(Algorithm::Fosc, "small-interactive");
    interactive.priority = Some(Priority::Interactive);
    let responses = collect_responses(send_line(&server, &Request::Select(interactive)));
    assert!(
        matches!(responses.last(), Some(Response::Result { .. })),
        "interactive request failed: {responses:?}"
    );

    // The batch request must still be in flight: only the interactive one
    // has completed.
    let stats = server.stats();
    assert_eq!(
        stats.requests.completed, 1,
        "interactive must complete while the batch graph is in flight: {stats:?}"
    );

    // Dropping the batch connection cancels its DAG; wait for the server
    // to notice so shutdown is clean.
    drop(batch_stream);
    wait_for_stats(
        &server,
        "batch request neither completed nor cancelled",
        |s| s.requests.cancelled + s.requests.completed >= 2,
    );
    server.shutdown();
}

#[test]
fn queued_interactive_request_runs_before_an_earlier_queued_batch_request() {
    // One selection worker, held by a long batch selection.  A batch
    // request and then an interactive request queue behind it on one v2
    // connection.  When the long request's connection drops, the worker
    // must take the interactive lane first: the interactive result
    // arrives before any event of the earlier batch request.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 8,
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(&config, Arc::new(Engine::new(2))).expect("bind loopback");

    let long_stream = send_line(&server, &Request::Select(long_batch_request("long")));
    wait_for_stats(&server, "the worker never took the long request", |s| {
        s.requests.received == 1 && s.queue_depth == 0
    });

    let mut conn = Connection::connect(server.local_addr()).expect("v2 connection");
    let mut batch = request_for(Algorithm::Fosc, "queued-batch");
    batch.priority = Some(Priority::Batch);
    let mut interactive = request_for(Algorithm::Fosc, "queued-interactive");
    interactive.priority = Some(Priority::Interactive);
    conn.send(&batch).expect("send the batch request");
    conn.send(&interactive)
        .expect("send the interactive request");
    wait_for_stats(
        &server,
        "both requests must queue behind the long one",
        |s| s.requests.received == 3,
    );
    let stats = server.stats();
    assert_eq!(
        (stats.queue_depth, stats.requests.completed),
        (2, 0),
        "the long request must still hold the only worker: {stats:?}"
    );

    drop(long_stream);
    loop {
        match conn.next_event().expect("read event") {
            Response::Result { id, .. } if id == "queued-interactive" => break,
            Response::Progress { id, .. } | Response::Result { id, .. } if id == "queued-batch" => {
                panic!(
                    "an event of the earlier batch request arrived before the interactive result"
                )
            }
            Response::Error { id, error } => panic!("request {id:?} failed: {error:?}"),
            _ => {}
        }
    }
    loop {
        match conn.next_event().expect("read event") {
            Response::Result { id, .. } if id == "queued-batch" => break,
            Response::Error { id, error } => panic!("request {id:?} failed: {error:?}"),
            _ => {}
        }
    }
    wait_for_stats(&server, "the long request was never cancelled", |s| {
        s.requests.cancelled == 1 && s.requests.completed == 2
    });
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_a_structured_error() {
    // workers = 0: nothing drains the queue, so admission control is
    // deterministic — the first request occupies the single slot, the
    // second must be rejected with `queue_full` immediately.
    let server = start_server(0, 1);
    let first = send_line(
        &server,
        &Request::Select(request_for(Algorithm::Fosc, "first")),
    );
    wait_for_stats(&server, "first request never queued", |s| s.queue_depth > 0);
    let responses = collect_responses(send_line(
        &server,
        &Request::Select(request_for(Algorithm::Fosc, "second")),
    ));
    match responses.as_slice() {
        [Response::Error { id, error }] => {
            assert_eq!(id.as_deref(), Some("second"));
            assert_eq!(error.code, "queue_full");
        }
        other => panic!("expected queue_full, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.requests.rejected, 1);
    assert_eq!(stats.requests.received, 1);
    assert_eq!(stats.queue_capacity, 1);
    drop(first);
    server.shutdown();
}

#[test]
fn invalid_and_malformed_requests_get_structured_errors() {
    let server = start_server(1, 4);

    // Malformed JSON.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(b"this is not json\n").expect("send");
    let responses = collect_responses(stream);
    match responses.as_slice() {
        [Response::Error { error, .. }] => assert_eq!(error.code, "parse_error"),
        other => panic!("expected parse_error, got {other:?}"),
    }

    // Unknown dataset (semantically invalid).
    let mut bad = request_for(Algorithm::Fosc, "bad");
    bad.dataset = "does_not_exist".to_string();
    let responses = collect_responses(send_line(&server, &Request::Select(bad)));
    match responses.as_slice() {
        [Response::Error { id, error }] => {
            assert_eq!(id.as_deref(), Some("bad"));
            assert_eq!(error.code, "invalid_request");
        }
        other => panic!("expected invalid_request, got {other:?}"),
    }

    // Neither touched the request counters' happy paths.
    let stats = server.stats();
    assert_eq!(stats.requests.received, 0);
    assert_eq!(stats.requests.completed, 0);
    server.shutdown();
}

#[test]
fn traced_request_carries_a_profile_and_stays_bit_identical() {
    let server = start_server(2, 8);
    // Reference: the identical request served untraced.
    let untraced = request_for(Algorithm::Fosc, "plain");
    let responses = collect_responses(send_line(&server, &Request::Select(untraced)));
    let (plain, plain_profile) = match responses.last() {
        Some(Response::Result {
            selection, profile, ..
        }) => (selection.clone(), profile.clone()),
        other => panic!("expected a result, got {other:?}"),
    };
    assert!(
        plain_profile.is_none(),
        "profile must not appear unless the request opts in"
    );

    let mut traced = request_for(Algorithm::Fosc, "traced");
    traced.trace = true;
    let responses = collect_responses(send_line(&server, &Request::Select(traced.clone())));
    let (served, profile) = match responses.last() {
        Some(Response::Result {
            id,
            selection,
            profile,
        }) => {
            assert_eq!(id, "traced");
            (selection.clone(), profile.clone())
        }
        other => panic!("expected a result, got {other:?}"),
    };
    assert_bit_identical(&served, &plain);

    let profile = profile.expect("traced request returns a profile");
    let n_jobs = profile
        .get("n_jobs")
        .and_then(|v| v.as_usize())
        .expect("profile.n_jobs");
    assert!(n_jobs > 0, "profile covers the graph: {profile:?}");
    assert_eq!(
        profile.get("graph").and_then(|v| v.as_str()),
        Some("traced"),
        "profile is named after the request id"
    );

    // The metrics endpoint retains the last traced profile and reports
    // engine activity from both requests.
    match collect_responses(send_line(&server, &Request::Metrics)).as_slice() {
        [Response::Metrics(metrics)] => {
            assert_eq!(metrics.engine_threads, 4);
            let last = metrics.last_profile.as_ref().expect("last_profile is set");
            assert_eq!(last.get("graph").and_then(|v| v.as_str()), Some("traced"));
            let jobs: u64 = metrics.job_run.iter().map(|h| h.count).sum();
            assert!(jobs > 0, "job-run histograms saw work: {metrics:?}");
            let admitted: u64 = metrics.queue_admission_wait.iter().map(|h| h.count).sum();
            assert!(admitted >= 2, "both requests waited in the queue");
        }
        other => panic!("expected metrics, got {other:?}"),
    }

    // The stats payload exposes the same admission waits per lane.
    match collect_responses(send_line(&server, &Request::Stats)).as_slice() {
        [Response::Stats(stats)] => {
            let admitted: u64 = stats.queue_wait.iter().map(|h| h.count).sum();
            assert!(admitted >= 2, "stats carry admission waits: {stats:?}");
        }
        other => panic!("expected stats, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn trace_dir_exports_a_chrome_trace_per_selection() {
    let dir = std::env::temp_dir().join(format!("cvcp-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 8,
        workers: 1,
        trace_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start(&config, Arc::new(Engine::new(2))).expect("bind loopback");

    // The request does NOT opt in on the wire: the server-side trace dir
    // alone must produce the file, and the wire result must stay
    // profile-free.
    let responses = collect_responses(send_line(
        &server,
        &Request::Select(request_for(Algorithm::Fosc, "to-disk")),
    ));
    match responses.last() {
        Some(Response::Result { profile, .. }) => assert!(profile.is_none()),
        other => panic!("expected a result, got {other:?}"),
    }

    let path = dir.join("to-disk.trace.json");
    let raw = std::fs::read_to_string(&path).expect("trace file written");
    let doc = cvcp_core::Json::parse(&raw).expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X")),
        "trace contains span events"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_ping_and_protocol_shutdown_round_trip() {
    let server = start_server(1, 4);
    let addr = server.local_addr();

    let responses = collect_responses(send_line(&server, &Request::Ping));
    assert_eq!(responses, vec![Response::Pong]);

    match collect_responses(send_line(&server, &Request::Stats)).as_slice() {
        [Response::Stats(stats)] => {
            assert_eq!(stats.queue_capacity, 4);
            assert_eq!(stats.workers, 1);
            assert_eq!(stats.engine_threads, 4);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    let responses = collect_responses(send_line(&server, &Request::Shutdown));
    assert_eq!(responses, vec![Response::ShutdownAck]);
    server.wait();

    // The listener is gone after a protocol-initiated shutdown.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Err(_) => break,
            Ok(_) => {
                assert!(Instant::now() < deadline, "listener still accepting");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}
