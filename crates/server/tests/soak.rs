//! Rest-state soak of the serving front-end: seeded client mixes over
//! one server with tight caps (2 workers, queue depth 4, four requests in
//! flight per connection) and a cache budget below one request's working
//! set, so evictions run beside reads.  Each client interleaves
//!
//! * pipelined v2 selections (tiny FOSC and MPCKMeans on `iris_like`)
//!   and v1 one-shots;
//! * a disconnect right after a select;
//! * an oversized frame, a garbage line, a duplicate id and a burst past
//!   the in-flight window;
//! * a 300 ms quiet gap before its connection's next request, longer than
//!   a quiet connection takes to reach the slowest poll rate.
//!
//! Beside them a cancellation storm admits paper-sized selections
//! (`aloi:0` over each method's default grid), waits for each one's first
//! progress event, so its graph is running, and drops the connection,
//! many times over.
//!
//! While the clients run, every request on a connection that stays open
//! must get exactly one terminal response, and every served result must
//! be bit-identical to `realize()?.select(&Engine::sequential())`.  Then
//! the server must come back to rest within a deadline:
//!
//! * `open`, `active`, `in_flight_requests` and `queue_depth` are 0;
//! * `received == completed + cancelled + failed`;
//! * the thread count is back to its value after start;
//! * the cache accounting is consistent and no in-flight slot leaked;
//! * one quiet connection does not keep the loop spinning.
//!
//! This test lives in its own binary: it counts this process's threads
//! and reads their CPU time, which sibling tests would disturb.

use cvcp_core::{Algorithm, Engine, SelectionRequest, SideInfoSpec};
use cvcp_data::rng::SeededRng;
use cvcp_engine::CacheConfig;
use cvcp_server::client::Connection;
use cvcp_server::{RankedSelection, Request, Response, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 4;
const MAX_IN_FLIGHT: usize = 4;
const CLIENTS: usize = 3;
/// Steps each client draws beyond the one of each kind it always takes.
const EXTRA_STEPS: usize = 6;
/// Below the working set of one tiny FOSC request on `iris_like` (its
/// distance matrix alone is 176 KiB), so commits evict and the largest
/// artifacts bypass residency.
const CACHE_BYTES: usize = 16 << 10;
/// The server's frame limit (advertised in `hello_ack`).
const MAX_FRAME_BYTES: usize = 1 << 20;
const QUIET_GAP: Duration = Duration::from_millis(300);
/// A client read that waits this long means a request was never answered.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
const REST_DEADLINE: Duration = Duration::from_secs(10);
/// CPU the whole process may use while one connection idles at rest.
const QUIET_WINDOW: Duration = Duration::from_millis(500);
const QUIET_CPU_SHARE: f64 = 0.25;
/// Selections the cancellation storm admits and abandons mid-run.
const STORM_ROUNDS: usize = 12;

/// Reads this process's live thread count from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Nanoseconds this process's threads have spent on a CPU, summed from
/// `/proc/self/task/*/schedstat` (a thread that exits between the listing
/// and the read is skipped).
fn process_cpu_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| {
            let path = task.ok()?.path().join("schedstat");
            let text = std::fs::read_to_string(path).ok()?;
            text.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// The tiny request shapes the clients draw from.
fn shapes() -> Vec<SelectionRequest> {
    let shape = |algorithm: Algorithm, params: Vec<usize>, seed: u64| SelectionRequest {
        id: String::new(),
        dataset: "iris_like".to_string(),
        algorithm,
        params,
        side_info: SideInfoSpec::LabelFraction(0.1),
        n_folds: 3,
        stratified: true,
        seed,
        priority: None,
        trace: false,
    };
    vec![
        shape(Algorithm::Fosc, vec![3, 6], 1),
        shape(Algorithm::Fosc, vec![3, 6], 2),
        shape(Algorithm::MpckMeans, vec![2, 3], 1),
    ]
}

/// The paper-sized shapes of the cancellation storm: `aloi:0` over each
/// method's default parameter grid.
fn storm_shapes() -> Vec<SelectionRequest> {
    let shape = |algorithm: Algorithm, seed: u64| SelectionRequest {
        id: String::new(),
        dataset: "aloi:0".to_string(),
        algorithm,
        params: Vec::new(),
        side_info: SideInfoSpec::LabelFraction(0.2),
        n_folds: 5,
        stratified: true,
        seed,
        priority: None,
        trace: false,
    };
    vec![
        shape(Algorithm::MpckMeans, 3),
        shape(Algorithm::Fosc, 3),
        shape(Algorithm::MpckMeans, 4),
    ]
}

fn assert_bit_identical(id: &str, served: &RankedSelection, reference: &RankedSelection) {
    let bits = |s: &RankedSelection| {
        let entries = |v: &[cvcp_server::RankedEntry]| {
            v.iter()
                .map(|e| (e.param, e.score.to_bits()))
                .collect::<Vec<_>>()
        };
        (
            s.best_param,
            s.best_score.to_bits(),
            entries(&s.ranking),
            entries(&s.evaluations),
        )
    };
    assert_eq!(
        bits(served),
        bits(reference),
        "{id}: the served result differs from the in-process reference"
    );
}

/// Wire codes seen across all clients.
#[derive(Default)]
struct Tally {
    results: AtomicU64,
    /// `queue_full`, `in_flight_limit` and `duplicate_id` refusals.
    refusals: AtomicU64,
    frame_too_large: AtomicU64,
    parse_errors: AtomicU64,
    garbage_sent: AtomicU64,
    bursts: AtomicU64,
    /// Storm selections abandoned after their first progress event.
    storm_disconnects: AtomicU64,
}

/// One client socket with a read deadline, so an unanswered request fails
/// the test instead of hanging it.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_nodelay(true).expect("nodelay");
        writer
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { reader, writer }
    }

    fn connect_v2(addr: SocketAddr) -> Client {
        let mut client = Client::connect(addr);
        client.write(&line(&Request::Hello { version: 2 }));
        match client.next() {
            Some(Response::HelloAck { version: 2, .. }) => client,
            other => panic!("v2 handshake failed: {other:?}"),
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send");
        self.writer.flush().expect("flush");
    }

    /// The next response, or `None` at EOF.
    fn next(&mut self) -> Option<Response> {
        let mut text = String::new();
        match self.reader.read_line(&mut text) {
            Ok(0) => None,
            Ok(_) => Some(Response::from_line(&text).expect("well-formed response")),
            Err(e) => panic!("no response within {READ_TIMEOUT:?}: {e}"),
        }
    }
}

fn line(request: &Request) -> Vec<u8> {
    let mut text = request.to_line();
    text.push('\n');
    text.into_bytes()
}

/// One line of a pipelined write: a selection (with its shape index) or
/// a raw bad frame that earns one id-less error.
enum Frame {
    Select(SelectionRequest, usize),
    Raw(Vec<u8>),
}

/// One client's seeded mix.  Its persistent v2 connection carries the
/// pipelines, the bad frames, the duplicate, the burst and the quiet gap;
/// one-shots and disconnects use fresh connections.
struct Mix<'a> {
    addr: SocketAddr,
    name: String,
    shapes: &'a [SelectionRequest],
    references: &'a [RankedSelection],
    tally: &'a Tally,
    rng: SeededRng,
    conn: Client,
    next_id: u64,
}

impl Mix<'_> {
    /// A fresh request of a random shape, with its shape index.
    fn draw(&mut self) -> (SelectionRequest, usize) {
        let shape = self.rng.index(self.shapes.len());
        self.next_id += 1;
        let mut request = self.shapes[shape].clone();
        request.id = format!("{}-{}", self.name, self.next_id);
        (request, shape)
    }

    fn draw_frame(&mut self) -> Frame {
        let (request, shape) = self.draw();
        Frame::Select(request, shape)
    }

    /// Writes `frames` in one write on the persistent connection, then
    /// reads until each request id has had as many terminal responses as
    /// it was sent and each raw line has had its id-less error.
    fn send_and_settle(&mut self, frames: &[Frame]) {
        let mut bytes = Vec::new();
        let mut pending: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        let mut idless_left = 0;
        for frame in frames {
            match frame {
                Frame::Select(request, shape) => {
                    bytes.extend(line(&Request::Select(request.clone())));
                    pending.entry(request.id.clone()).or_insert((0, *shape)).0 += 1;
                }
                Frame::Raw(raw) => {
                    bytes.extend_from_slice(raw);
                    idless_left += 1;
                }
            }
        }
        self.conn.write(&bytes);
        self.settle(&mut pending, &mut idless_left);
    }

    fn settle(&mut self, pending: &mut BTreeMap<String, (usize, usize)>, idless_left: &mut usize) {
        let duplicated: Vec<String> = pending
            .iter()
            .filter(|(_, (n, _))| *n > 1)
            .map(|(id, _)| id.clone())
            .collect();
        while !pending.is_empty() || *idless_left > 0 {
            let response = self
                .conn
                .next()
                .unwrap_or_else(|| panic!("{}: server closed an open v2 connection", self.name));
            let id = match &response {
                Response::Result { id, selection, .. } => {
                    let shape = pending.get(id).map(|&(_, shape)| shape);
                    let shape = shape.unwrap_or_else(|| panic!("unexpected result for {id}"));
                    assert_bit_identical(id, selection, &self.references[shape]);
                    self.tally.results.fetch_add(1, Ordering::Relaxed);
                    id.clone()
                }
                Response::Error { id: None, error } => {
                    assert!(*idless_left > 0, "unexpected id-less error {error:?}");
                    *idless_left -= 1;
                    let counter = match error.code.as_str() {
                        "frame_too_large" => &self.tally.frame_too_large,
                        "parse_error" => &self.tally.parse_errors,
                        code => panic!("unexpected id-less error code {code}"),
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Response::Error {
                    id: Some(id),
                    error,
                } => {
                    match error.code.as_str() {
                        "queue_full" | "in_flight_limit" => {}
                        "duplicate_id" if duplicated.contains(id) => {}
                        code => panic!("{id}: unexpected error {code}: {}", error.message),
                    }
                    self.tally.refusals.fetch_add(1, Ordering::Relaxed);
                    id.clone()
                }
                Response::Progress { .. } => continue,
                other => panic!("unexpected response {other:?}"),
            };
            let (left, _) = pending
                .get_mut(&id)
                .unwrap_or_else(|| panic!("{id}: more terminal responses than requests"));
            *left -= 1;
            if *left == 0 {
                pending.remove(&id);
            }
        }
    }

    fn pipeline(&mut self) {
        let n = 1 + self.rng.index(3);
        let frames: Vec<_> = (0..n).map(|_| self.draw_frame()).collect();
        self.send_and_settle(&frames);
    }

    fn v1_one_shot(&mut self) {
        let (request, shape) = self.draw();
        let mut client = Client::connect(self.addr);
        client.write(&line(&Request::Select(request.clone())));
        loop {
            match client.next() {
                Some(Response::Result { id, selection, .. }) => {
                    assert_eq!(id, request.id);
                    assert_bit_identical(&id, &selection, &self.references[shape]);
                    self.tally.results.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Some(Response::Error { error, .. }) if error.code == "queue_full" => {
                    self.tally.refusals.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Some(Response::Progress { .. }) => {}
                other => panic!("{}: v1 one-shot got {other:?}", request.id),
            }
        }
        assert_eq!(client.next(), None, "v1 closes after its terminal response");
    }

    fn disconnect_after_select(&mut self) {
        let (request, _) = self.draw();
        let mut client = Client::connect_v2(self.addr);
        client.write(&line(&Request::Select(request)));
        let _ = client.writer.shutdown(Shutdown::Both);
    }

    fn oversized_frame(&mut self) {
        let mut frame = vec![b'x'; MAX_FRAME_BYTES + 1];
        frame.push(b'\n');
        // The pipelined request after the bad frame must still be served.
        let frames = [Frame::Raw(frame), self.draw_frame()];
        self.send_and_settle(&frames);
    }

    fn garbage(&mut self) {
        self.tally.garbage_sent.fetch_add(1, Ordering::Relaxed);
        let frames = [
            self.draw_frame(),
            Frame::Raw(b"this is not json\n".to_vec()),
            self.draw_frame(),
        ];
        self.send_and_settle(&frames);
    }

    fn duplicate_id(&mut self) {
        let (first, shape) = self.draw();
        let (mut second, _) = self.draw();
        second.id = first.id.clone();
        self.send_and_settle(&[Frame::Select(first, shape), Frame::Select(second, shape)]);
    }

    fn burst(&mut self) {
        let frames: Vec<_> = (0..MAX_IN_FLIGHT + 2).map(|_| self.draw_frame()).collect();
        self.tally.bursts.fetch_add(1, Ordering::Relaxed);
        self.send_and_settle(&frames);
    }

    fn quiet_gap(&mut self) {
        std::thread::sleep(QUIET_GAP);
        let frame = self.draw_frame();
        self.send_and_settle(&[frame]);
    }

    fn run(mut self) {
        // One step of each kind, then cheap ones drawn at random; the
        // oversized frame and the quiet gap run once.
        let mut steps: Vec<usize> = (0..8).collect();
        steps.extend((0..EXTRA_STEPS).map(|_| self.rng.index(6)));
        for i in (1..steps.len()).rev() {
            let j = self.rng.index(i + 1);
            steps.swap(i, j);
        }
        for step in steps {
            match step {
                0 => self.pipeline(),
                1 => self.v1_one_shot(),
                2 => self.disconnect_after_select(),
                3 => self.duplicate_id(),
                4 => self.burst(),
                5 => self.garbage(),
                6 => self.oversized_frame(),
                _ => self.quiet_gap(),
            }
        }
        // Every request was answered; a ping proves the connection still
        // serves and that no late terminal response was queued before it.
        self.conn.write(&line(&Request::Ping));
        assert_eq!(self.conn.next(), Some(Response::Pong));
    }
}

/// The cancellation storm: each round admits one paper-sized selection on
/// a fresh v2 connection, reads up to its first progress event (a
/// `queue_full` refusal is retried until `READ_TIMEOUT`, so a server whose
/// workers never free up fails the test instead of hanging it) and drops
/// the connection while the rest of its graph runs.
fn cancellation_storm(addr: SocketAddr, tally: &Tally) {
    let shapes = storm_shapes();
    let mut rng = SeededRng::new(0x5702);
    for round in 0..STORM_ROUNDS {
        let mut request = shapes[rng.index(shapes.len())].clone();
        request.id = format!("storm-{round}");
        let deadline = Instant::now() + READ_TIMEOUT;
        loop {
            let mut client = Client::connect_v2(addr);
            client.write(&line(&Request::Select(request.clone())));
            let running = match client.next() {
                Some(Response::Progress { .. }) => true,
                Some(Response::Error { error, .. }) if error.code == "queue_full" => false,
                other => panic!("{}: expected a progress event, got {other:?}", request.id),
            };
            let _ = client.writer.shutdown(Shutdown::Both);
            if running {
                tally.storm_disconnects.fetch_add(1, Ordering::Relaxed);
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{}: the queue stayed full for {READ_TIMEOUT:?}",
                request.id
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[test]
fn server_returns_to_rest_after_a_seeded_mix_of_clients() {
    let shapes = shapes();
    let references: Vec<RankedSelection> = shapes
        .iter()
        .map(|request| {
            let selection = request
                .realize()
                .expect("valid shape")
                .select(&Engine::sequential());
            RankedSelection::from_selection(&selection)
        })
        .collect();

    let engine = Arc::new(Engine::with_cache_config_exact(
        2,
        CacheConfig::unbounded().with_max_bytes(CACHE_BYTES),
    ));
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: QUEUE_DEPTH,
        workers: WORKERS,
        max_in_flight: MAX_IN_FLIGHT,
        ..ServerConfig::default()
    };
    let server = Server::start(&config, Arc::clone(&engine)).expect("bind loopback");
    let after_start = thread_count();
    let addr = server.local_addr();

    let tally = Tally::default();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let mix = Mix {
                addr,
                name: format!("c{c}"),
                shapes: &shapes,
                references: &references,
                tally: &tally,
                rng: SeededRng::new(0x50A4).fork_stream(c as u64),
                conn: Client::connect_v2(addr),
                next_id: 0,
            };
            scope.spawn(move || mix.run());
        }
        scope.spawn(|| cancellation_storm(addr, &tally));
    });

    // The mix exercised what the invariants guard.
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
    assert!(count(&tally.results) > 0, "no selection was served");
    assert_eq!(count(&tally.frame_too_large), CLIENTS as u64);
    assert_eq!(count(&tally.parse_errors), count(&tally.garbage_sent));
    assert!(
        count(&tally.refusals) >= 2 * count(&tally.bursts),
        "a burst of {} past a window of {MAX_IN_FLIGHT} must be refused at least twice",
        MAX_IN_FLIGHT + 2
    );
    assert_eq!(count(&tally.storm_disconnects), STORM_ROUNDS as u64);

    // Everything admitted has ended and only the rest of the clients'
    // sockets may still be closing.
    let settled = |stats: &cvcp_server::StatsSnapshot| {
        let r = &stats.requests;
        stats.connections.active == 0
            && stats.connections.in_flight_requests == 0
            && stats.queue_depth == 0
            && r.received == r.completed + r.cancelled + r.failed
    };
    let wait_for = |done: &dyn Fn(&cvcp_server::StatsSnapshot) -> bool| {
        let deadline = Instant::now() + REST_DEADLINE;
        let mut stats = server.stats();
        while !done(&stats) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            stats = server.stats();
        }
        stats
    };

    // One quiet connection at rest must not keep the loop spinning.
    let quiet = Connection::connect(addr).expect("v2 handshake");
    wait_for(&settled);
    let (cpu_before, wall_before) = (process_cpu_ns(), Instant::now());
    std::thread::sleep(QUIET_WINDOW);
    let cpu_share = process_cpu_ns().saturating_sub(cpu_before) as f64
        / wall_before.elapsed().as_nanos() as f64;
    assert!(
        cpu_share < QUIET_CPU_SHARE,
        "one quiet connection kept the process at {cpu_share:.2} of a core"
    );
    drop(quiet);

    let stats = wait_for(&|stats| {
        settled(stats) && stats.connections.open == 0 && thread_count() == after_start
    });
    assert_eq!(stats.connections.open, 0, "{stats:?}");
    assert_eq!(stats.connections.active, 0, "{stats:?}");
    assert_eq!(stats.connections.in_flight_requests, 0, "{stats:?}");
    assert_eq!(stats.queue_depth, 0, "{stats:?}");
    let r = stats.requests;
    assert!(r.received > 0, "{r:?}");
    assert_eq!(
        r.received,
        r.completed + r.cancelled + r.failed,
        "every admitted request ends exactly once: {r:?}"
    );
    assert_eq!(r.failed, 0, "{r:?}");
    assert!(r.cancelled > 0, "no disconnect cancelled a request: {r:?}");
    assert_eq!(thread_count(), after_start, "the server's threads changed");

    let cache = engine.cache();
    cache.assert_accounting_consistent();
    assert_eq!(
        cache.raw_entry_count(),
        cache.len(),
        "an in-flight slot leaked"
    );
    assert!(
        stats.cache.evictions > 0,
        "the cache budget never bit: {:?}",
        stats.cache
    );
    server.shutdown();
}
