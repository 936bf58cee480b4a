//! `loop_cost` — what open connections cost the serving loop.
//!
//! Starts an in-process server (2 workers), opens `--idle N` negotiated
//! v2 connections and leaves them quiet; with `--ping-rate R` adds one
//! more connection that pings R times a second, and with `--sparse M`
//! adds M connections that each ping `--sparse-rate S` times a second
//! (default 8), their phases spread evenly so the loop sees M x S pings
//! a second with a long gap on each connection.  Over a window of
//! `--seconds T` it prints one JSON line: the CPU share of the server's
//! own threads (from `/proc/self/task/*/schedstat`, so Linux only), the
//! round trips of the pinging and of the sparse connections, and the
//! loop's wakes and polls per second when its `stats` report them
//! (`null` otherwise).  The server's threads are the ones that appear
//! while `Server::start` runs; the example's own client threads (one per
//! pinging connection) are not counted.
//!
//! ```text
//! cargo run --release -p cvcp-server --example loop_cost -- \
//!     --idle 500 --ping-rate 200 --seconds 10
//! cargo run --release -p cvcp-server --example loop_cost -- \
//!     --idle 0 --sparse 100 --sparse-rate 8 --seconds 10
//! ```
//!
//! The figures follow the host: compare two builds on the same machine,
//! run after run.

use cvcp_core::json::{Json, ToJson};
use cvcp_core::Engine;
use cvcp_server::client::Connection;
use cvcp_server::{Request, Response, Server, ServerConfig};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// How long the idle connections stay quiet before the window opens.
const SETTLE: Duration = Duration::from_millis(500);
/// Time for the pinging threads to start before the window opens.
const LEAD: Duration = Duration::from_millis(50);
/// Most sparse connections (and client threads) one run may open.
const MAX_SPARSE: usize = 1000;

struct Options {
    idle: usize,
    ping_rate: f64,
    sparse: usize,
    sparse_rate: f64,
    seconds: f64,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        idle: 500,
        ping_rate: 0.0,
        sparse: 0,
        sparse_rate: 8.0,
        seconds: 10.0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<&str, String> {
            i += 1;
            args.get(i)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--idle" => opts.idle = value()?.parse().map_err(|_| "bad --idle")?,
            "--ping-rate" => opts.ping_rate = value()?.parse().map_err(|_| "bad --ping-rate")?,
            "--sparse" => opts.sparse = value()?.parse().map_err(|_| "bad --sparse")?,
            "--sparse-rate" => {
                opts.sparse_rate = value()?.parse().map_err(|_| "bad --sparse-rate")?
            }
            "--seconds" => opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    let window_ok = Duration::try_from_secs_f64(opts.seconds).is_ok_and(|w| !w.is_zero());
    let rate_ok = |rate: f64| rate.is_finite() && rate >= 0.0;
    if !window_ok || !rate_ok(opts.ping_rate) || !rate_ok(opts.sparse_rate) {
        return Err("--seconds must be positive and the rates finite, not negative".to_string());
    }
    if opts.sparse > 0 && opts.sparse_rate == 0.0 {
        return Err("--sparse needs a positive --sparse-rate".to_string());
    }
    // Each sparse connection has its own client thread.
    if opts.sparse > MAX_SPARSE {
        return Err(format!("--sparse takes at most {MAX_SPARSE} connections"));
    }
    Ok(opts)
}

/// This process's thread ids.
fn task_ids() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .filter_map(|task| task.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Nanoseconds the given threads have spent on a CPU.
fn cpu_ns(tasks: &BTreeSet<u64>) -> u64 {
    tasks
        .iter()
        .filter_map(|tid| {
            let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
            text.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// The loop's `(wakes, polls)` counters from a raw `stats` answer, when
/// the server reports them.
fn loop_counters(addr: SocketAddr) -> Option<(f64, f64)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let mut line = Request::Stats.to_line();
    line.push('\n');
    stream.write_all(line.as_bytes()).ok()?;
    let mut answer = String::new();
    BufReader::new(stream).read_line(&mut answer).ok()?;
    let stats = Json::parse(answer.trim()).ok()?;
    let counters = stats.get("event_loop")?;
    let read = |key: &str| counters.get(key)?.as_f64();
    Some((read("wakes")?, read("polls")?))
}

/// Pings at `rate` per second from `first` until `end`; returns the
/// round trips.
fn ping(
    mut conn: Connection,
    rate: f64,
    first: Instant,
    end: Instant,
) -> Result<Vec<Duration>, String> {
    let every = Duration::try_from_secs_f64(1.0 / rate).map_err(|e| format!("ping rate: {e}"))?;
    let mut round_trips = Vec::new();
    let mut next = first;
    while next < end {
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        conn.send_request(&Request::Ping)
            .map_err(|e| format!("ping: {e}"))?;
        match conn.next_event() {
            Ok(Response::Pong) => round_trips.push(sent.elapsed()),
            other => return Err(format!("expected pong, got {other:?}")),
        }
        next += every;
    }
    Ok(round_trips)
}

/// Mean and 90th percentile of some round trips, in milliseconds.
fn round_trip_ms(round_trips: &mut [Duration]) -> (Json, Json) {
    if round_trips.is_empty() {
        return (Json::Null, Json::Null);
    }
    round_trips.sort_unstable();
    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let mean = round_trips.iter().map(ms).sum::<f64>() / round_trips.len() as f64;
    let p90 = ms(&round_trips[(round_trips.len() * 9 / 10).min(round_trips.len() - 1)]);
    (mean.to_json(), p90.to_json())
}

fn run(opts: &Options) -> Result<Json, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        max_connections: opts.idle + opts.sparse + 8,
        ..ServerConfig::default()
    };
    let engine = Arc::new(Engine::sequential());
    let before = task_ids();
    let server = Server::start(&config, engine).map_err(|e| format!("start: {e}"))?;
    let server_tasks: BTreeSet<u64> = task_ids().difference(&before).copied().collect();

    let connect = |what: &str, i: usize| {
        Connection::connect(server.local_addr()).map_err(|e| format!("{what} {i}: {e}"))
    };
    let idle: Vec<Connection> = (0..opts.idle)
        .map(|i| connect("idle", i))
        .collect::<Result<_, _>>()?;
    let sparse: Vec<Connection> = (0..opts.sparse)
        .map(|i| connect("sparse", i))
        .collect::<Result<_, _>>()?;
    std::thread::sleep(SETTLE);

    let window = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now() + LEAD;
    let end = start + window;
    let pinger = if opts.ping_rate > 0.0 {
        let conn = connect("ping", 0)?;
        let rate = opts.ping_rate;
        Some(std::thread::spawn(move || ping(conn, rate, start, end)))
    } else {
        None
    };
    // Phases spread evenly over one period, so the sparse pings reach
    // the loop at an even aggregate rate.
    let spacing = 1.0 / (opts.sparse_rate * opts.sparse.max(1) as f64);
    let sparse: Vec<_> = sparse
        .into_iter()
        .enumerate()
        .map(|(i, conn)| {
            let (rate, first) = (
                opts.sparse_rate,
                start + Duration::from_secs_f64(spacing * i as f64),
            );
            std::thread::spawn(move || ping(conn, rate, first, end))
        })
        .collect();
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let counters_before = loop_counters(server.local_addr());
    let (cpu_before, start) = (cpu_ns(&server_tasks), Instant::now());
    let mut round_trips = match pinger {
        Some(handle) => handle.join().map_err(|_| "pinger panicked")??,
        None => Vec::new(),
    };
    let mut sparse_round_trips = Vec::new();
    for handle in sparse {
        sparse_round_trips.extend(handle.join().map_err(|_| "sparse pinger panicked")??);
    }
    std::thread::sleep(end.saturating_duration_since(Instant::now()));
    let wall = start.elapsed().as_secs_f64();
    let cpu_share = cpu_ns(&server_tasks).saturating_sub(cpu_before) as f64 / 1e9 / wall;
    let counters_after = loop_counters(server.local_addr());
    drop(idle);
    server.shutdown();

    let per_s = |counter: fn((f64, f64)) -> f64| match (counters_before, counters_after) {
        (Some(a), Some(b)) => ((counter(b) - counter(a)) / wall).to_json(),
        _ => Json::Null,
    };
    let pings = round_trips.len();
    let (ping_mean, ping_p90) = round_trip_ms(&mut round_trips);
    let sparse_pings = sparse_round_trips.len();
    let (sparse_mean, sparse_p90) = round_trip_ms(&mut sparse_round_trips);
    Ok(Json::obj([
        ("idle", opts.idle.to_json()),
        ("ping_rate", opts.ping_rate.to_json()),
        ("sparse", opts.sparse.to_json()),
        ("sparse_rate", opts.sparse_rate.to_json()),
        ("seconds", wall.to_json()),
        ("server_threads", server_tasks.len().to_json()),
        ("cpu_share", cpu_share.to_json()),
        ("wakes_per_s", per_s(|c| c.0)),
        ("polls_per_s", per_s(|c| c.1)),
        ("pings", pings.to_json()),
        ("ping_rtt_mean_ms", ping_mean),
        ("ping_rtt_p90_ms", ping_p90),
        ("sparse_pings", sparse_pings.to_json()),
        ("sparse_rtt_mean_ms", sparse_mean),
        ("sparse_rtt_p90_ms", sparse_p90),
    ]))
}

fn main() -> ExitCode {
    let outcome = parse_options().and_then(|opts| run(&opts));
    match outcome {
        Ok(report) => {
            println!("{}", report.compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loop_cost: {e}");
            ExitCode::FAILURE
        }
    }
}
