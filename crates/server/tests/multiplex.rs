//! Wire-protocol v2 integration tests: version negotiation, pipelined
//! multiplexing with bit-identical results, framing robustness (partial
//! reads, slow-loris, oversized frames, garbage mid-pipeline) and the
//! admission limits (`in_flight_limit`, `duplicate_id`, `server_busy`).
//!
//! The ≥500-idle-connections thread-bound test lives in its own binary
//! (`idle_connections.rs`) so this binary's test threads don't disturb
//! its `/proc/self/status` thread counting.

use cvcp_core::{Algorithm, Engine, SelectionRequest, SideInfoSpec};
use cvcp_server::client::Connection;
use cvcp_server::{RankedSelection, Request, Response, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(config: ServerConfig) -> Server {
    Server::start(&config, Arc::new(Engine::new(2))).expect("bind loopback")
}

fn default_server(workers: usize) -> Server {
    start_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 16,
        workers,
        ..ServerConfig::default()
    })
}

fn request_for(id: &str, seed: u64) -> SelectionRequest {
    SelectionRequest {
        id: id.to_string(),
        dataset: "iris_like".to_string(),
        algorithm: Algorithm::Fosc,
        params: vec![3, 6, 9],
        side_info: SideInfoSpec::LabelFraction(0.2),
        n_folds: 4,
        stratified: true,
        seed,
        priority: None,
        trace: false,
    }
}

fn assert_bit_identical(a: &RankedSelection, b: &RankedSelection) {
    assert_eq!(a.best_param, b.best_param);
    assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
    assert_eq!(a.evaluations.len(), b.evaluations.len());
    for (x, y) in a.evaluations.iter().zip(&b.evaluations) {
        assert_eq!((x.param, x.score.to_bits()), (y.param, y.score.to_bits()));
    }
    assert_eq!(a.ranking.len(), b.ranking.len());
    for (x, y) in a.ranking.iter().zip(&b.ranking) {
        assert_eq!((x.param, x.score.to_bits()), (y.param, y.score.to_bits()));
    }
}

/// Pumps `conn` until a terminal response for `id` arrives; other ids'
/// events are ignored.
fn wait_result(conn: &mut Connection, id: &str) -> RankedSelection {
    loop {
        match conn.next_event().expect("read event") {
            Response::Result {
                id: got, selection, ..
            } if got == id => return selection,
            Response::Error { id: got, error } if got.as_deref() == Some(id) => {
                panic!("request {id} failed: {}: {}", error.code, error.message)
            }
            _ => {}
        }
    }
}

#[test]
fn hello_negotiates_versions_and_rejects_version_zero() {
    let server = default_server(1);
    let addr = server.local_addr();

    // v2 is granted verbatim, with the connection limits advertised.
    let conn = Connection::connect(addr).expect("v2 handshake");
    assert_eq!(conn.version(), 2);
    assert!(conn.max_in_flight() >= 1);
    assert!(conn.max_frame_bytes() >= 1 << 16);

    // A v1 hello is honored (explicitly downgraded persistent framing is
    // still one-request-per-connection).
    let conn = Connection::connect_with_version(addr, 1).expect("v1 handshake");
    assert_eq!(conn.version(), 1);

    // Future versions are capped at what the server speaks today.
    let conn = Connection::connect_with_version(addr, 7).expect("v7 handshake");
    assert_eq!(conn.version(), 2);

    // Version 0 does not exist: structured refusal, then the server
    // closes the connection.
    let err = match Connection::connect_with_version(addr, 0) {
        Err(err) => err,
        Ok(_) => panic!("v0 must be refused"),
    };
    assert!(
        err.to_string().contains("unsupported_version"),
        "unexpected error: {err}"
    );

    // A malformed hello is refused the same way.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"{\"hello\":{\"version\":\"two\"}}\n")
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    match Response::from_line(&line).expect("well-formed response") {
        Response::Error { error, .. } => assert_eq!(error.code, "unsupported_version"),
        other => panic!("expected unsupported_version, got {other:?}"),
    }
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("read eof"),
        0,
        "server must close after refusing the hello"
    );
    server.shutdown();
}

#[test]
fn pipelined_requests_interleave_and_stay_bit_identical_to_v1() {
    let server = default_server(2);
    let addr = server.local_addr();

    // Two different selections pipelined on ONE v2 connection.
    let first = request_for("pipe-a", 20_140_324);
    let second = request_for("pipe-b", 99);
    let mut conn = Connection::connect(addr).expect("v2 handshake");
    conn.send(&first).expect("send first");
    conn.send(&second).expect("send second");

    let mut results: BTreeMap<String, RankedSelection> = BTreeMap::new();
    let mut progress: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    while results.len() < 2 {
        match conn.next_event().expect("read event") {
            Response::Progress { id, completed, .. } => {
                progress.entry(id).or_default().push(completed)
            }
            Response::Result { id, selection, .. } => {
                results.insert(id, selection);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    // Both requests streamed all their progress on the shared socket,
    // and each id's events kept their order.
    for id in ["pipe-a", "pipe-b"] {
        let seen = progress.get(id).expect("progress for each request");
        assert_eq!(seen, &vec![1, 2, 3], "progress order for {id}");
    }

    // Each pipelined result is bit-identical to the same request served
    // the v1 way: one fresh connection per request, no hello.
    for request in [&first, &second] {
        let mut baseline = Connection::connect_v1(addr).expect("v1 connect");
        baseline.send(request).expect("v1 send");
        let served = wait_result(&mut baseline, &request.id);
        assert_bit_identical(&results[&request.id], &served);
    }

    // The connection is still usable afterwards (persistent, not
    // close-after-terminal like v1).
    let third = request_for("pipe-c", 7);
    conn.send(&third).expect("send third");
    wait_result(&mut conn, "pipe-c");
    server.shutdown();
}

#[test]
fn slow_loris_byte_at_a_time_requests_still_parse() {
    let server = default_server(1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // The hello dribbles in one byte at a time across many read ticks;
    // the incremental framer must hold partial lines indefinitely.
    for byte in b"{\"hello\":{\"version\":2}}\n" {
        stream.write_all(&[*byte]).expect("send byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read ack");
    match Response::from_line(&line).expect("well-formed response") {
        Response::HelloAck { version, .. } => assert_eq!(version, 2),
        other => panic!("expected hello_ack, got {other:?}"),
    }

    // A ping split across two writes with a pause in between.
    stream.write_all(b"{\"type\":").expect("send prefix");
    stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(b"\"ping\"}\n").expect("send suffix");
    stream.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("read pong");
    assert_eq!(
        Response::from_line(&line).expect("well-formed response"),
        Response::Pong
    );
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_and_v2_pipeline_survives() {
    let server = default_server(1);
    // The advertised frame limit, read off a throwaway handshake.
    let max_frame = Connection::connect(server.local_addr())
        .expect("v2 handshake")
        .max_frame_bytes();
    let mut junk = vec![b'x'; max_frame + 4096];
    junk.push(b'\n');

    // Raw stream: one request in flight, then a frame larger than the
    // advertised limit on the SAME connection.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(b"{\"hello\":{\"version\":2}}\n")
        .expect("hello");
    let request_line = {
        let mut line = Request::Select(request_for("survivor", 1)).to_line();
        line.push('\n');
        line
    };
    stream
        .write_all(request_line.as_bytes())
        .expect("send select");
    stream.write_all(&junk).expect("send oversized frame");
    stream.flush().expect("flush");

    // The selection runs on the engine while the event loop is still
    // reading the oversized frame, so its result and the frame_too_large
    // error may arrive in either order: read until both have.  A response
    // that never comes fails on the read timeout instead of hanging.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut saw_ack = false;
    let mut saw_too_large = false;
    let mut saw_result = false;
    for line in reader.lines() {
        let line = line.expect("read line");
        match Response::from_line(&line).expect("well-formed response") {
            Response::HelloAck { .. } => saw_ack = true,
            Response::Error { error, .. } => {
                assert_eq!(error.code, "frame_too_large", "unexpected error: {error:?}");
                saw_too_large = true;
            }
            Response::Result { id, .. } => {
                assert_eq!(id, "survivor");
                saw_result = true;
            }
            _ => {}
        }
        if saw_too_large && saw_result {
            break;
        }
    }
    assert!(saw_ack, "hello_ack arrived");
    assert!(saw_too_large, "oversized frame earned frame_too_large");
    assert!(
        saw_result,
        "the in-flight request survived the oversized frame"
    );

    // The connection is still alive: a ping after the rejected frame
    // still answers.
    stream.write_all(b"{\"type\":\"ping\"}\n").expect("ping");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read pong");
    assert_eq!(
        Response::from_line(&line).expect("well-formed response"),
        Response::Pong
    );
    server.shutdown();
}

#[test]
fn garbage_mid_pipeline_does_not_kill_other_in_flight_requests() {
    let server = default_server(1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(b"{\"hello\":{\"version\":2}}\n")
        .expect("hello");
    fn send_select(stream: &mut TcpStream, request: SelectionRequest) {
        let mut line = Request::Select(request).to_line();
        line.push('\n');
        stream.write_all(line.as_bytes()).expect("send select");
    }
    send_select(&mut stream, request_for("g1", 5));
    // Garbage between the two pipelined requests.
    stream
        .write_all(b"this is not json\n")
        .expect("send garbage");
    send_select(&mut stream, request_for("g2", 6));
    stream.flush().expect("flush");

    let reader = BufReader::new(stream);
    let mut parse_errors = 0;
    let mut completed = Vec::new();
    for line in reader.lines() {
        let line = line.expect("read line");
        match Response::from_line(&line).expect("well-formed response") {
            Response::Error { id, error } => {
                assert_eq!(error.code, "parse_error");
                assert_eq!(id, None, "garbage has no id to correlate");
                parse_errors += 1;
            }
            Response::Result { id, .. } => {
                completed.push(id);
                if completed.len() == 2 {
                    break;
                }
            }
            _ => {}
        }
    }
    assert_eq!(parse_errors, 1, "the garbage line earned one parse_error");
    completed.sort();
    assert_eq!(
        completed,
        vec!["g1".to_string(), "g2".to_string()],
        "both pipelined requests completed despite the garbage between them"
    );
    server.shutdown();
}

#[test]
fn in_flight_cap_and_duplicate_ids_are_refused_per_connection() {
    // workers = 0: admitted requests stay in flight forever, making the
    // per-connection bookkeeping deterministic.
    let server = start_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 16,
        workers: 0,
        max_in_flight: 2,
        ..ServerConfig::default()
    });
    let mut conn = Connection::connect(server.local_addr()).expect("v2 handshake");
    assert_eq!(conn.max_in_flight(), 2);

    conn.send(&request_for("a", 1)).expect("send a");
    conn.send(&request_for("a", 2)).expect("send duplicate a");
    match conn.next_event().expect("read") {
        Response::Error { id, error } => {
            assert_eq!(id.as_deref(), Some("a"));
            assert_eq!(error.code, "duplicate_id");
        }
        other => panic!("expected duplicate_id, got {other:?}"),
    }

    conn.send(&request_for("b", 3)).expect("send b");
    conn.send(&request_for("c", 4)).expect("send c");
    match conn.next_event().expect("read") {
        Response::Error { id, error } => {
            assert_eq!(id.as_deref(), Some("c"));
            assert_eq!(error.code, "in_flight_limit");
        }
        other => panic!("expected in_flight_limit, got {other:?}"),
    }

    // The gauges see one connection with two requests in flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        let conns = &stats.connections;
        if conns.open == 1 && conns.active == 1 && conns.in_flight_requests == 2 {
            assert_eq!(conns.idle, 0);
            break;
        }
        assert!(Instant::now() < deadline, "gauges never settled: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // A second, idle connection raises `open` and `idle` but not
    // `active`.
    let _idle = Connection::connect(server.local_addr()).expect("second handshake");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        let conns = &stats.connections;
        if conns.open == 2 && conns.idle == 1 && conns.active == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "idle gauge never settled: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn connection_cap_refuses_with_server_busy() {
    let server = start_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 4,
        workers: 1,
        max_connections: 1,
        ..ServerConfig::default()
    });
    // The first connection occupies the single slot (the handshake
    // round-trip guarantees it is registered with the loop).
    let _held = Connection::connect(server.local_addr()).expect("first handshake");

    let stream = TcpStream::connect(server.local_addr()).expect("second connect");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read refusal");
    match Response::from_line(&line).expect("well-formed response") {
        Response::Error { error, .. } => assert_eq!(error.code, "server_busy"),
        other => panic!("expected server_busy, got {other:?}"),
    }
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("read eof"),
        0,
        "refused connection is closed"
    );
    server.shutdown();
}
