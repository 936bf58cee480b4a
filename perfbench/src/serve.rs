//! The served workloads, `serve_hot` and `serve_cold`: model selections
//! sent over the wire protocol to an in-process `cvcp_server::Server` on a
//! 2-worker engine.
//!
//! A run has four phases.
//!
//! 1. **Set-up** (`setup_s` is the median of `SETUP_REPS`): build the
//!    engine, start the server, warm the cache by running the warm-up
//!    requests on the engine, and compute their references.  Half the
//!    repetitions run here, the last one serving the phases below, and
//!    half after the capacity phase, so a slow stretch of the host at
//!    start-up does not set the whole figure.
//! 2. **Open loop** for `OPEN_LOOP_SHARE` of `--seconds`: rate × window
//!    arrivals at times drawn uniformly over the window from the seed (a
//!    Poisson process conditioned on its count, so goodput does not
//!    inherit the count's sampling noise).  One generator thread writes
//!    them round-robin over `CONNECTIONS` pipelined connections, and each
//!    latency runs from the request's *scheduled* send time, so a stall is
//!    charged to every request it delays.
//! 3. **Capacity**: `CAPACITY_BATCHES` closed loops, each over one
//!    `client::Connection` that keeps the server's advertised
//!    `max_in_flight` window full for a fixed batch of requests.
//! 4. **Verification**, outside every timed window: each served result is
//!    compared bit-for-bit with
//!    `request.realize()?.select(&Engine::sequential())`.

use crate::replay::{self, Case};
use crate::report::{RunReport, SpanLog};
use crate::stats::{self, derive_seed, Digest};
use crate::window::{ratio, Snapshot, Window};
use cvcp_core::json::Json;
use cvcp_core::{run_selection_request, Algorithm, CvcpSelection, SelectionRequest, SideInfoSpec};
use cvcp_data::rng::SeededRng;
use cvcp_engine::{CacheConfig, Engine, Priority};
use cvcp_server::client::{one_shot, Connection};
use cvcp_server::{RankedSelection, Request, Response, Server, ServerConfig};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine pool workers and server selection workers: the host has two
/// hardware threads.
const ENGINE_WORKERS: usize = 2;
const SERVER_WORKERS: usize = 2;
/// Admission queue and per-connection window, four and two times the
/// server's defaults: at the hot rate the defaults refused requests
/// whenever the host stalled for a few tens of milliseconds, and a
/// workload of the benchmark must not fail.
const QUEUE_DEPTH: usize = 128;
const MAX_IN_FLIGHT: usize = 64;
/// Pipelined connections the open-loop generator spreads arrivals over.
const CONNECTIONS: usize = 2;
const SETUP_REPS: usize = 10;
/// Expected samples per open-loop time slice the tail is read in: p98
/// leaves ten samples beyond it.
const TAIL_SLICE_SAMPLES: f64 = 500.0;
/// Share of `--seconds` given to the open loop.
const OPEN_LOOP_SHARE: f64 = 0.75;
/// How long responses may trail the open-loop window before a request
/// counts as lost.
const DRAIN: Duration = Duration::from_secs(30);
/// The cold cache budget: a few times one paper-sized request's working
/// set, so commits, evictions and slice rebalancing run beside reads.
const COLD_CACHE_BYTES: usize = 16 << 20;
const HOT_POOL: usize = 16;
const HOT_REPLICAS: [&str; 3] = ["iris_like", "zyeast_like", "aloi:0"];
const ZIPF_EXPONENT: f64 = 1.1;
/// The hot label fraction.  FOSC's constraint-satisfaction extraction
/// costs (tree nodes × constraints), and the constraints grow with the
/// square of the labels: at 20% the extraction alone took about half of
/// engine busy time, at 10% the per-request fixed costs dominate.
const HOT_LABELS: f64 = 0.1;
/// Closed-loop capacity batches; the median batch gives `capacity_rps`
/// and `grid_s`.
const CAPACITY_BATCHES: usize = 7;
/// Requests per hot capacity batch: about 0.7 s at the seed build's
/// saturation.
const HOT_CAPACITY: usize = 1500;
const COLD_REPLICAS: [&str; 6] = [
    "iris_like",
    "wine_like",
    "ionosphere_like",
    "ecoli_like",
    "zyeast_like",
    "aloi:0",
];
/// Cold warm-up: one request per (replica × algorithm).
const COLD_WARMUP: usize = 12;
/// Requests per cold capacity batch: two cycles of replica × algorithm.
const COLD_CAPACITY: usize = 24;
/// `serve_cold` checks every third result (by request index) against its
/// reference: a paper-sized reference costs about as much as serving it.
const COLD_CHECK_STRIDE: usize = 3;
/// Wire codes of refusals (back-pressure), each counted as a failure.
const REFUSAL_CODES: [&str; 3] = ["queue_full", "in_flight_limit", "server_busy"];
const PROGRESS_PREFIX: &[u8] = b"{\"type\":\"progress\"";

const SALT_POOL: u64 = 1;
const SALT_ARRIVALS: u64 = 2;
const SALT_OPEN: u64 = 3;
const SALT_WARMUP: u64 = 4;
const SALT_CAPACITY: u64 = 5;
/// The roots of the fixed hot pool and cold request streams.
const HOT_POOL_SEED: u64 = 0x407;
const COLD_STREAM_SEED: u64 = 0xC01D;

/// Which served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Temperature {
    /// Tiny selections from a small pool: every artifact is a cache hit.
    Hot,
    /// Paper-sized selections with fresh seeds under a bounded cache.
    Cold,
}

/// Configuration of one served run.
pub struct Options {
    pub temperature: Temperature,
    pub seed: u64,
    pub seconds: f64,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Latency a correct result must meet to count toward goodput.
    pub limit_ms: f64,
}

/// Shape `i` of the hot pool (index = Zipf rank): 3 folds and
/// `HOT_LABELS` of the objects labelled.
/// The ten likeliest shapes run FOSC MinPts {3, 6} on `iris_like`, the
/// next four FOSC on `aloi:0` and `zyeast_like`, and the two least likely
/// MPCKMeans k {2, 3} on `iris_like`.  Even on cached artifacts FOSC
/// extracts a partition per (MinPts × fold) at the replica's size, and
/// MPCKMeans fits are never cached, so the larger replicas and MPCKMeans
/// are kept rare: on this workload the per-request fixed costs, not the
/// kernels, should dominate.
///
/// The pool is fixed, not drawn from the workload seed: which labels a
/// shape draws moves its cost, and with sixteen shapes that left the
/// capacity spread to the draw.  The seed draws arrivals and Zipf picks.
fn hot_shape(i: usize) -> SelectionRequest {
    let (algorithm, params, dataset) = match i {
        0..=9 => (Algorithm::Fosc, vec![3, 6], HOT_REPLICAS[0]),
        10..=13 => (Algorithm::Fosc, vec![3, 6], HOT_REPLICAS[1 + i % 2]),
        _ => (Algorithm::MpckMeans, vec![2, 3], HOT_REPLICAS[0]),
    };
    SelectionRequest {
        id: String::new(),
        dataset: dataset.to_string(),
        algorithm,
        params,
        side_info: SideInfoSpec::LabelFraction(HOT_LABELS),
        n_folds: 3,
        stratified: true,
        seed: derive_seed(HOT_POOL_SEED, SALT_POOL, i as u64),
        priority: None,
        trace: false,
    }
}

/// Request `i` of a cold stream: replica × algorithm cycle fastest, the
/// side information (labels 10%, constraints, labels 20%, constraints)
/// every twelve requests; default grids, 10 folds, a fresh seed each.
///
/// The streams are fixed, not drawn from the workload seed: a paper-sized
/// selection's cost depends strongly on its data, and a few dozen draws
/// per run left the run-to-run spread to the draw rather than to the
/// system.  The workload seed draws the arrival schedule.
fn cold_request(salt: u64, i: usize) -> SelectionRequest {
    let combos = 2 * COLD_REPLICAS.len();
    let combo = i % combos;
    let algorithm = if combo < COLD_REPLICAS.len() {
        Algorithm::Fosc
    } else {
        Algorithm::MpckMeans
    };
    let side_info = match (i / combos) % 4 {
        0 => SideInfoSpec::LabelFraction(0.1),
        2 => SideInfoSpec::LabelFraction(0.2),
        _ => SideInfoSpec::ConstraintSample {
            pool_fraction: 0.1,
            sample_fraction: 0.2,
        },
    };
    SelectionRequest {
        id: String::new(),
        dataset: COLD_REPLICAS[combo % COLD_REPLICAS.len()].to_string(),
        algorithm,
        params: Vec::new(),
        side_info,
        n_folds: 10,
        stratified: true,
        seed: derive_seed(COLD_STREAM_SEED, salt, i as u64),
        priority: None,
        trace: false,
    }
}

/// Draws pool indices with probability ∝ (rank + 1)^−ZIPF_EXPONENT.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Self {
        let mut total = 0.0;
        Self(
            (0..n)
                .map(|rank| {
                    total += ((rank + 1) as f64).powf(-ZIPF_EXPONENT);
                    total
                })
                .collect(),
        )
    }

    fn draw(&self, rng: &mut SeededRng) -> usize {
        let u = rng.uniform() * self.0[self.0.len() - 1];
        self.0.partition_point(|&c| c <= u).min(self.0.len() - 1)
    }
}

/// Whether result `i` of a phase is compared with its reference: every
/// one on `serve_hot`, a deterministic sample on `serve_cold`.
fn checked(temperature: Temperature, i: usize) -> bool {
    temperature == Temperature::Hot || i.is_multiple_of(COLD_CHECK_STRIDE)
}

/// What determines a request's result: everything but its id, lane and
/// trace flag.
fn result_key(r: &SelectionRequest) -> String {
    format!(
        "{}|{}|{:?}|{:?}|{}|{}|{}",
        r.dataset,
        r.algorithm.name(),
        r.params,
        r.side_info,
        r.n_folds,
        r.stratified,
        r.seed
    )
}

/// The kernel-replay class a request counts under: each hot shape on its
/// own; cold requests by replica × algorithm × side information.
fn replay_class(r: &SelectionRequest, temperature: Temperature) -> String {
    let base = format!(
        "{}/{}/{}",
        r.dataset,
        r.algorithm.name(),
        r.side_info.label()
    );
    match temperature {
        Temperature::Hot => format!("{base}/seed{}", r.seed),
        Temperature::Cold => base,
    }
}

/// A run's inputs, generated from the seed before anything is timed.
struct Inputs {
    /// Requests sent during set-up: the hot pool, or the cold warm-up.
    warmup: Vec<SelectionRequest>,
    /// Open-loop requests with their scheduled offsets, in send order.
    open: Vec<(Duration, SelectionRequest)>,
}

impl Inputs {
    fn generate(opts: &Options, window: Duration, traced: bool) -> Self {
        let n = (opts.rate * window.as_secs_f64()).round().max(1.0) as usize;
        let mut arrivals = SeededRng::new(derive_seed(opts.seed, SALT_ARRIVALS, 0));
        let mut offsets: Vec<f64> = (0..n)
            .map(|_| arrivals.uniform() * window.as_secs_f64())
            .collect();
        offsets.sort_by(f64::total_cmp);
        let (mut warmup, requests): (Vec<SelectionRequest>, Vec<SelectionRequest>) =
            match opts.temperature {
                Temperature::Hot => {
                    let pool: Vec<_> = (0..HOT_POOL).map(hot_shape).collect();
                    let zipf = Zipf::new(HOT_POOL);
                    let mut pick = SeededRng::new(derive_seed(opts.seed, SALT_OPEN, 0));
                    let open = (0..n).map(|_| pool[zipf.draw(&mut pick)].clone()).collect();
                    (pool, open)
                }
                Temperature::Cold => (
                    (0..COLD_WARMUP)
                        .map(|i| cold_request(SALT_WARMUP, i))
                        .collect(),
                    (0..n).map(|i| cold_request(SALT_OPEN, i)).collect(),
                ),
            };
        for r in &mut warmup {
            r.trace = traced;
        }
        let open = offsets
            .into_iter()
            .zip(requests)
            .enumerate()
            .map(|(i, (at, mut r))| {
                r.id = format!("o{i}");
                r.trace = traced;
                (Duration::from_secs_f64(at), r)
            })
            .collect();
        Self { warmup, open }
    }
}

/// A running server and the engine behind it.
struct Live {
    engine: Arc<Engine>,
    server: Server,
}

impl Live {
    fn start(temperature: Temperature) -> io::Result<Live> {
        let cache = match temperature {
            Temperature::Hot => CacheConfig::unbounded(),
            Temperature::Cold => CacheConfig::unbounded().with_max_bytes(COLD_CACHE_BYTES),
        };
        let engine = Arc::new(Engine::with_cache_config(ENGINE_WORKERS, cache));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: QUEUE_DEPTH,
            workers: SERVER_WORKERS,
            default_priority: Priority::Interactive,
            trace_dir: None,
            max_connections: 64,
            max_in_flight: MAX_IN_FLIGHT,
        };
        let server = Server::start(&config, Arc::clone(&engine))?;
        Ok(Live { engine, server })
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server and joins its threads; the engine's pool is joined
    /// when the last handle drops here.
    fn stop(self) {
        self.server.shutdown();
    }
}

/// The terminal response to one request.
enum Outcome {
    Selected {
        selection: RankedSelection,
        profile: Option<Json>,
    },
    Error(String),
}

/// The id and outcome of a terminal response; `None` for progress and
/// uncorrelated events.
fn terminal(response: Response) -> Option<(String, Outcome)> {
    match response {
        Response::Result {
            id,
            selection,
            profile,
        } => Some((id, Outcome::Selected { selection, profile })),
        Response::Error {
            id: Some(id),
            error,
        } => Some((id, Outcome::Error(error.code))),
        _ => None,
    }
}

/// A closed loop's requests, outcomes (by request index) and wall time.
struct ClosedRun {
    requests: Vec<SelectionRequest>,
    outcomes: Vec<Option<Outcome>>,
    elapsed: Duration,
}

/// Sends `next(0)`, `next(1)`, … over one pipelined connection until it
/// returns `None`, keeping the server's advertised window full, and waits
/// for every answer.
fn closed_loop(
    addr: SocketAddr,
    mut next: impl FnMut(usize) -> Option<SelectionRequest>,
) -> io::Result<ClosedRun> {
    let mut conn = Connection::connect(addr)?;
    let window = conn.max_in_flight().max(1);
    let start = Instant::now();
    let mut run = ClosedRun {
        requests: Vec::new(),
        outcomes: Vec::new(),
        elapsed: Duration::ZERO,
    };
    let mut in_flight = 0usize;
    let mut exhausted = false;
    loop {
        while !exhausted && in_flight < window {
            match next(run.requests.len()) {
                Some(mut request) => {
                    request.id = format!("k{}", run.requests.len());
                    conn.send(&request)?;
                    run.requests.push(request);
                    run.outcomes.push(None);
                    in_flight += 1;
                }
                None => exhausted = true,
            }
        }
        if in_flight == 0 {
            break;
        }
        let event = conn.next_event()?;
        if let Response::Error { id: None, error } = &event {
            return Err(io::Error::other(format!(
                "uncorrelated server error: {}: {}",
                error.code, error.message
            )));
        }
        if let Some((id, outcome)) = terminal(event) {
            let slot = id
                .strip_prefix('k')
                .and_then(|i| i.parse::<usize>().ok())
                .and_then(|i| run.outcomes.get_mut(i))
                .ok_or_else(|| io::Error::other(format!("response for unknown id {id:?}")))?;
            *slot = Some(outcome);
            in_flight -= 1;
        }
    }
    run.elapsed = start.elapsed();
    Ok(run)
}

/// The capacity phase: every batch's requests and outcomes in order, and
/// each batch's wall time.
struct Capacity {
    requests: Vec<SelectionRequest>,
    outcomes: Vec<Option<Outcome>>,
    batch_secs: Vec<f64>,
}

/// Runs `CAPACITY_BATCHES` closed loops of `batch` requests each; request
/// `j` of the whole phase is `next(j)`.
fn capacity_batches(
    addr: SocketAddr,
    batch: usize,
    mut next: impl FnMut(usize) -> SelectionRequest,
) -> io::Result<Capacity> {
    let mut all = Capacity {
        requests: Vec::new(),
        outcomes: Vec::new(),
        batch_secs: Vec::with_capacity(CAPACITY_BATCHES),
    };
    for b in 0..CAPACITY_BATCHES {
        let run = closed_loop(addr, |i| (i < batch).then(|| next(b * batch + i)))?;
        all.batch_secs.push(run.elapsed.as_secs_f64());
        all.requests.extend(run.requests);
        all.outcomes.extend(run.outcomes);
    }
    Ok(all)
}

/// Opens a raw connection and negotiates protocol v2, returning its write
/// half and a buffered read half: the open loop sends and receives on
/// separate threads, which `client::Connection` does not split.
fn connect_v2(addr: SocketAddr) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    let mut reader = BufReader::new(writer.try_clone()?);
    let mut hello = Request::Hello { version: 2 }.to_line();
    hello.push('\n');
    writer.write_all(hello.as_bytes())?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    match Response::from_line(&line) {
        Ok(Response::HelloAck { version: 2, .. }) => Ok((writer, reader)),
        other => Err(io::Error::other(format!(
            "v2 negotiation failed: {other:?}"
        ))),
    }
}

/// What the open loop observed, by request index.
struct OpenRun {
    t0: Instant,
    /// Offset from `t0` at which each request was written.
    sent: Vec<Duration>,
    /// Offset of each request's terminal response, and the response.
    done: Vec<Option<(Duration, Outcome)>>,
}

/// Reads one connection's events until `expect` terminal responses have
/// arrived or `deadline` passes; progress events are skipped unparsed.
fn read_terminal(
    mut reader: BufReader<TcpStream>,
    expect: usize,
    t0: Instant,
    deadline: Instant,
) -> Vec<(usize, Duration, Outcome)> {
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(200)));
    let mut out = Vec::with_capacity(expect);
    let mut line = Vec::new();
    while out.len() < expect && Instant::now() < deadline {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if line.ends_with(b"\n") => {
                let at = t0.elapsed();
                if !line.starts_with(PROGRESS_PREFIX) {
                    let event = std::str::from_utf8(&line)
                        .ok()
                        .and_then(|text| Response::from_line(text).ok())
                        .and_then(terminal);
                    if let Some((id, outcome)) = event {
                        if let Some(i) = id.strip_prefix('o').and_then(|i| i.parse().ok()) {
                            out.push((i, at, outcome));
                        }
                    }
                }
                line.clear();
            }
            // A partial line: the rest arrives with a later read.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
    out
}

/// Sends every open-loop request at its scheduled offset and collects the
/// answers, allowing them `DRAIN` beyond the window.
fn open_loop(
    addr: SocketAddr,
    open: &[(Duration, SelectionRequest)],
    window: Duration,
) -> io::Result<OpenRun> {
    let lines: Vec<Vec<u8>> = open
        .iter()
        .map(|(_, r)| {
            let mut line = Request::Select(r.clone()).to_line();
            line.push('\n');
            line.into_bytes()
        })
        .collect();
    let mut writers = Vec::with_capacity(CONNECTIONS);
    let mut readers = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let (writer, reader) = connect_v2(addr)?;
        writers.push(writer);
        readers.push(reader);
    }
    let t0 = Instant::now();
    let deadline = t0 + window + DRAIN;
    let mut sent = Vec::with_capacity(open.len());
    let mut done: Vec<Option<(Duration, Outcome)>> = (0..open.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, reader)| {
                let expect = (open.len() + CONNECTIONS - 1 - c) / CONNECTIONS;
                scope.spawn(move || read_terminal(reader, expect, t0, deadline))
            })
            .collect();
        let mut written = Ok(());
        for (i, ((at, _), line)) in open.iter().zip(&lines).enumerate() {
            if let Some(wait) = (t0 + *at).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if let Err(e) = writers[i % CONNECTIONS].write_all(line) {
                written = Err(e);
                break;
            }
            sent.push(t0.elapsed());
        }
        if written.is_err() {
            // Unblock the readers: nothing more will arrive.
            for writer in &writers {
                let _ = writer.shutdown(Shutdown::Both);
            }
        }
        for handle in handles {
            for (i, at, outcome) in handle.join().expect("response reader panicked") {
                if let Some(slot) = done.get_mut(i) {
                    *slot = Some((at, outcome));
                }
            }
        }
        written
    })?;
    Ok(OpenRun { t0, sent, done })
}

/// Reference selections by [`result_key`].
type References = BTreeMap<String, CvcpSelection>;

/// Computes the references of `requests` not yet in `references`, one
/// after another: `request.realize()?.select(&Engine::sequential())`.
fn compute_references<'a>(
    requests: impl Iterator<Item = &'a SelectionRequest>,
    references: &mut References,
) {
    for r in requests {
        if let Entry::Vacant(slot) = references.entry(result_key(r)) {
            if let Ok(realized) = r.realize() {
                slot.insert(realized.select(&Engine::sequential()));
            }
        }
    }
}

/// A served run after one set-up.
struct SetUp {
    live: Live,
    /// The warm-up requests' results, as the engine computed them.
    warm: Vec<CvcpSelection>,
    references: References,
    secs: f64,
}

/// One timed set-up: a server on a fresh engine, its cache warmed by
/// running `warmup` on the engine, and the references of `warmup`.
fn set_up(temperature: Temperature, warmup: &[SelectionRequest]) -> io::Result<SetUp> {
    let start = Instant::now();
    let live = Live::start(temperature)?;
    // The cache is warmed through the engine itself, not over the wire:
    // set-up times what is computed, not the event loop's wake-ups.
    let warm = warmup
        .iter()
        .map(|r| run_selection_request(&live.engine, r, None, |_| {}))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io::Error::other(format!("warm-up failed: {e}")))?;
    let mut references = References::new();
    compute_references(warmup.iter(), &mut references);
    Ok(SetUp {
        live,
        warm,
        references,
        secs: start.elapsed().as_secs_f64(),
    })
}

/// Bit-for-bit equality of a served result and its reference.
fn same_bits(served: &RankedSelection, reference: &CvcpSelection) -> bool {
    served.best_param == reference.best_param
        && served.best_score.to_bits() == reference.best_score.to_bits()
        && served.evaluations.len() == reference.evaluations.len()
        && served
            .evaluations
            .iter()
            .zip(&reference.evaluations)
            .all(|(s, r)| s.param == r.param && s.score.to_bits() == r.score.to_bits())
}

/// Checks served results against their references and digests the ones
/// that match.
struct Checker {
    references: References,
    digest: Digest,
}

impl Checker {
    fn check(
        &mut self,
        report: &mut RunReport,
        phase: &str,
        request: &SelectionRequest,
        selection: &RankedSelection,
    ) -> bool {
        let key = result_key(request);
        let ok = self
            .references
            .get(&key)
            .is_some_and(|reference| same_bits(selection, reference));
        if ok {
            self.digest.word(selection.best_param as u64);
            for e in &selection.evaluations {
                self.digest.word(e.param as u64);
                self.digest.word(e.score.to_bits());
            }
        } else {
            report.check_failed(format!(
                "{phase} request {} ({key}) differs from its in-process reference",
                request.id
            ));
        }
        ok
    }
}

/// A graph profile's `(wall_us, n_jobs, critical_path_us)`.
fn profile_numbers(profile: &Json) -> Option<(f64, f64, f64)> {
    let number = |key: &str| profile.get(key).and_then(Json::as_f64);
    Some((
        number("wall_us")?,
        number("n_jobs")?,
        number("critical_path_us")?,
    ))
}

/// Runs one served workload.
pub fn run(opts: &Options, traced: bool, spans: Option<&mut SpanLog>) -> io::Result<RunReport> {
    let mut report = RunReport::default();
    let window = Duration::from_secs_f64(opts.seconds * OPEN_LOOP_SHARE);
    let inputs = Inputs::generate(opts, window, traced);

    // 1. Set-up.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept = set_up(opts.temperature, &inputs.warmup)?;
    setup_s.push(kept.secs);
    for _ in 1..SETUP_REPS / 2 {
        kept.live.stop();
        kept = set_up(opts.temperature, &inputs.warmup)?;
        setup_s.push(kept.secs);
    }
    let SetUp {
        live,
        warm,
        references,
        ..
    } = kept;
    let mut checker = Checker {
        references,
        digest: Digest::default(),
    };

    // 2. Open loop.
    let before = Snapshot::take(&live.engine);
    let host_before = stats::host_cpu_ticks();
    let open = open_loop(live.addr(), &inputs.open, window)?;
    let host_after = stats::host_cpu_ticks();
    let after = Snapshot::take(&live.engine);
    let server_stats = match one_shot(live.addr(), &Request::Stats)? {
        Response::Stats(server_stats) => server_stats,
        other => {
            return Err(io::Error::other(format!(
                "unexpected stats answer {other:?}"
            )))
        }
    };

    // 3. Capacity.
    let (batch, mut capacity) = match opts.temperature {
        Temperature::Hot => {
            let zipf = Zipf::new(HOT_POOL);
            let mut pick = SeededRng::new(derive_seed(opts.seed, SALT_CAPACITY, 0));
            let next = |_| inputs.warmup[zipf.draw(&mut pick)].clone();
            (
                HOT_CAPACITY,
                capacity_batches(live.addr(), HOT_CAPACITY, next)?,
            )
        }
        Temperature::Cold => {
            let next = |j| {
                let mut r = cold_request(SALT_CAPACITY, j);
                r.trace = traced;
                r
            };
            (
                COLD_CAPACITY,
                capacity_batches(live.addr(), COLD_CAPACITY, next)?,
            )
        }
    };
    live.stop();
    while setup_s.len() < SETUP_REPS {
        let again = set_up(opts.temperature, &inputs.warmup)?;
        again.live.stop();
        setup_s.push(again.secs);
    }

    // 4. Verification.
    let temperature = opts.temperature;
    let open_sample = inputs
        .open
        .iter()
        .enumerate()
        .filter(|(i, _)| checked(temperature, *i))
        .map(|(_, (_, r))| r);
    let capacity_sample = capacity
        .requests
        .iter()
        .enumerate()
        .filter(|(i, _)| checked(temperature, *i))
        .map(|(_, r)| r);
    compute_references(open_sample.chain(capacity_sample), &mut checker.references);
    for (request, selection) in inputs.warmup.iter().zip(&warm) {
        let served = RankedSelection::from_selection(selection);
        checker.check(&mut report, "warm-up", request, &served);
    }

    let window_s = window.as_secs_f64();
    let penalty_ms = (window + DRAIN).as_secs_f64() * 1e3;
    let mut latencies: Vec<(f64, f64)> = Vec::with_capacity(inputs.open.len());
    let mut good = 0u64;
    let mut failed = 0u64;
    let mut refusals: BTreeMap<String, u64> = BTreeMap::new();
    let mut beyond_graph_ms = Vec::new();
    let mut jobs = Vec::new();
    let mut critical_share = Vec::new();
    let mut classes: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    for (i, ((at, request), result)) in inputs.open.iter().zip(&open.done).enumerate() {
        let ok_ms = match result {
            Some((done, Outcome::Selected { selection, profile })) => {
                let ms = done.saturating_sub(*at).as_secs_f64() * 1e3;
                if let Some((wall_us, n_jobs, critical_us)) =
                    profile.as_ref().and_then(profile_numbers)
                {
                    beyond_graph_ms.push(ms - wall_us / 1e3);
                    jobs.push(n_jobs);
                    critical_share.push(ratio(critical_us, wall_us));
                }
                let ok = !checked(opts.temperature, i)
                    || checker.check(&mut report, "open-loop", request, selection);
                ok.then_some(ms)
            }
            Some((_, Outcome::Error(code))) => {
                *refusals.entry(code.clone()).or_default() += 1;
                None
            }
            None => {
                *refusals.entry("no_response".to_string()).or_default() += 1;
                None
            }
        };
        match ok_ms {
            Some(ms) => {
                good += u64::from(ms <= opts.limit_ms);
                latencies.push((at.as_secs_f64(), ms));
                classes
                    .entry(replay_class(request, opts.temperature))
                    .or_insert((i, 0.0))
                    .1 += 1.0;
            }
            None => {
                failed += 1;
                latencies.push((at.as_secs_f64(), penalty_ms));
            }
        }
    }
    let open_refusals = refusals.clone();

    let mut batch_ok = [0u64; CAPACITY_BATCHES];
    for (i, (request, outcome)) in capacity.requests.iter().zip(&capacity.outcomes).enumerate() {
        let ok = match outcome {
            Some(Outcome::Selected { selection, .. }) => {
                !checked(opts.temperature, i)
                    || checker.check(&mut report, "capacity", request, selection)
            }
            Some(Outcome::Error(code)) => {
                *refusals.entry(code.clone()).or_default() += 1;
                false
            }
            None => false,
        };
        if ok {
            batch_ok[i / batch] += 1;
        } else {
            failed += 1;
        }
    }
    report.attempted = (inputs.open.len() + capacity.requests.len()) as u64;
    report.failed = failed;

    // Latency: the median and the tail per time slice of at least
    // `TAIL_SLICE_SAMPLES` expected samples, each the median over the
    // slices.  Short slices keep a host stall, which delays every request
    // behind it, to the few slices it falls in.
    let expected = opts.rate * window_s;
    let slices = ((expected / TAIL_SLICE_SAMPLES) as usize).clamp(1, 64);
    let tail_percentile = stats::tail_percentile(expected / slices as f64);
    let (mut p50s, mut tails): (Vec<f64>, Vec<f64>) = (0..slices)
        .map(|s| {
            let lo = window_s * s as f64 / slices as f64;
            let hi = window_s * (s + 1) as f64 / slices as f64;
            let mut slice: Vec<f64> = latencies
                .iter()
                .filter(|&&(at, _)| at >= lo && (at < hi || s + 1 == slices))
                .map(|&(_, ms)| ms)
                .collect();
            slice.sort_by(f64::total_cmp);
            (
                stats::quantile_sorted(&slice, 0.5),
                stats::quantile_sorted(&slice, tail_percentile / 100.0),
            )
        })
        .unzip();

    // Generator honesty: how late sends ran, and what was still in flight
    // when the window closed.
    let mut lag: Vec<f64> = open
        .sent
        .iter()
        .zip(&inputs.open)
        .map(|(sent, (at, _))| sent.saturating_sub(*at).as_secs_f64() * 1e3)
        .collect();
    lag.sort_by(f64::total_cmp);
    let lag_p99_ms = stats::quantile_sorted(&lag, 0.99);
    let backlog_end = open
        .done
        .iter()
        .filter(|d| d.as_ref().is_none_or(|(done, _)| *done > window))
        .count();
    if lag_p99_ms > opts.limit_ms {
        report.check_failed(format!(
            "invalid run: the generator fell behind its schedule \
             (lag p99 {lag_p99_ms:.2} ms > limit {} ms)",
            opts.limit_ms
        ));
    }

    report.info("setup_reps_s", setup_s.clone());
    report.end_to_end("setup_s", stats::median(&mut setup_s), "s");
    report.end_to_end("latency_p50_ms", stats::median(&mut p50s), "ms");
    report.end_to_end("latency_tail_ms", stats::median(&mut tails), "ms");
    // Goodput counts until the window closes or the last answer arrives,
    // whichever is later.
    let last_answer = (open.done.iter().flatten())
        .map(|(done, _)| done.as_secs_f64())
        .fold(window_s, f64::max);
    report.end_to_end("goodput_rps", good as f64 / last_answer, "1/s");
    let mut batch_rps: Vec<f64> = batch_ok
        .iter()
        .zip(&capacity.batch_secs)
        .map(|(&ok, &secs)| ok as f64 / secs)
        .collect();
    report.end_to_end("capacity_rps", stats::median(&mut batch_rps), "1/s");
    report.end_to_end("grid_s", stats::median(&mut capacity.batch_secs), "s");
    report.end_to_end("peak_rss_mb", stats::peak_rss_mb(), "MiB");

    report.info(
        "unit_of_latency",
        "one selection, from its scheduled send to its result",
    );
    report.info("tail_percentile", tail_percentile);
    report.info("tail_slices", slices);
    report.info("tail_samples_per_slice", expected / slices as f64);
    report.info("open_loop_requests", inputs.open.len());
    report.info("capacity_requests", capacity.requests.len());
    report.info("capacity_batches", CAPACITY_BATCHES);
    report.info("grid_s_is", "median wall time of a capacity batch");
    report.info("lag_p99_ms", lag_p99_ms);
    report.info(
        "host_steal_share",
        stats::steal_share(host_before, host_after),
    );
    report.info("backlog_end", backlog_end);
    report.info(
        "refusals",
        Json::Obj(
            refusals
                .iter()
                .map(|(code, &n)| (code.clone(), Json::Num(n as f64)))
                .collect(),
        ),
    );
    report.info("output_digest", checker.digest.hex());
    let cache_max_bytes = match opts.temperature {
        Temperature::Hot => Json::Null,
        Temperature::Cold => Json::Num(COLD_CACHE_BYTES as f64),
    };
    report.info(
        "config",
        Json::obj([
            ("engine_workers", Json::Num(ENGINE_WORKERS as f64)),
            ("server_workers", Json::Num(SERVER_WORKERS as f64)),
            ("queue_depth", Json::Num(QUEUE_DEPTH as f64)),
            ("max_in_flight", Json::Num(MAX_IN_FLIGHT as f64)),
            ("connections", Json::Num(CONNECTIONS as f64)),
            ("cache_max_bytes", cache_max_bytes),
            ("rate_rps", Json::Num(opts.rate)),
            ("limit_ms", Json::Num(opts.limit_ms)),
            ("open_loop_s", Json::Num(window_s)),
        ]),
    );
    report.iterations = vec![
        ("setup_reps", SETUP_REPS),
        ("open_loop_requests", inputs.open.len()),
        ("capacity_requests", capacity.requests.len()),
    ];

    if let Some(spans) = spans {
        report.layer("loadgen.lag_p99_ms", lag_p99_ms, "ms");
        report.layer("loadgen.backlog_end", backlog_end as f64, "count");
        let wait = server_stats
            .queue_wait
            .get(Priority::Interactive.lane_index())
            .copied()
            .unwrap_or_default();
        let wait_p50_ms = wait.p50_ns as f64 / 1e6;
        report.layer("server.admission_wait_p50_ms", wait_p50_ms, "ms");
        report.layer(
            "server.admission_wait_p99_ms",
            wait.p99_ns as f64 / 1e6,
            "ms",
        );
        for code in REFUSAL_CODES {
            let refused = open_refusals.get(code).copied().unwrap_or(0);
            report.layer(format!("server.refused.{code}"), refused as f64, "count");
        }
        report.layer(
            "server.overhead_ms",
            stats::median(&mut beyond_graph_ms) - wait_p50_ms,
            "ms",
        );
        report.layer("core.jobs_per_selection", stats::median(&mut jobs), "count");
        report.layer("core.experiment_s.fosc", 0.0, "s");
        report.layer("core.experiment_s.mpck", 0.0, "s");
        report.layer(
            "engine.critical_path_share",
            stats::median(&mut critical_share),
            "share",
        );
        let engine_window = Window::between(&before, &after);
        engine_window.report(&mut report);

        // `SelectionRequest::realize` and the kernels, replayed on one
        // request of every class the open loop served.
        let mut realize_ms = Vec::new();
        let mut cases = Vec::with_capacity(classes.len());
        for (label, &(first, count)) in &classes {
            let request = &inputs.open[first].1;
            for _ in 0..3 {
                let start = Instant::now();
                black_box(request.realize().ok());
                let end = Instant::now();
                spans.record("core/realize", label.clone(), start, end, None);
                realize_ms.push((end - start).as_secs_f64() * 1e3);
            }
            let realized = request
                .realize()
                .map_err(|e| io::Error::other(format!("served request is invalid: {e}")))?;
            cases.push(Case {
                label: label.clone(),
                dataset: realized.dataset,
                algorithm: request.algorithm,
                side: realized.side,
                n_folds: realized.config.n_folds,
                stratified: realized.config.stratified,
                params: realized.params,
                rng: realized.rng,
                selections: count,
                finals_per_selection: 0.0,
            });
        }
        report.layer("core.realize_ms", stats::median(&mut realize_ms), "ms");
        replay::kernel_layers(&cases, &engine_window, spans, &mut report);

        for (i, ((at, _), sent)) in inputs.open.iter().zip(&open.sent).enumerate() {
            let scheduled = open.t0 + *at;
            let end = open.done[i]
                .as_ref()
                .map_or(open.t0 + window + DRAIN, |(done, _)| open.t0 + *done);
            let group = format!("o{i}");
            let parent = spans.record(
                "loadgen/send_to_result",
                group.clone(),
                scheduled,
                end,
                None,
            );
            spans.record(
                "loadgen/schedule_to_send",
                group,
                scheduled,
                open.t0 + *sent,
                Some(parent),
            );
        }
    }
    Ok(report)
}
