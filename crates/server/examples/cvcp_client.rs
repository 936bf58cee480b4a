//! `cvcp-client` — drives request round-trips against a running
//! `cvcp-server` (see the `serve` binary in `cvcp-experiments`), built on
//! the persistent [`Connection`] handle from `cvcp_server::client`.
//!
//! Modes:
//!
//! * `--mode select` (default): a thin one-shot wrapper kept for backward
//!   compatibility — connects, sends one model-selection request, prints
//!   the streamed progress events and the final ranked result.  With
//!   `--verify` (default on) the same request is also lowered and run
//!   **in-process** via `select_model_with`, and the two results are
//!   compared **bit-for-bit** — the end-to-end contract the CI smoke job
//!   asserts.
//! * `--mode pipeline`: sends two selections with different seeds
//!   *pipelined on one v2 connection*, demultiplexes their interleaved
//!   responses by id, and verifies each result bit-for-bit against a
//!   fresh one-request-per-connection v1 baseline — the multiplexing
//!   probe the CI smoke job runs.
//! * `--mode bench`: load generator — `--connections N` v2 connections ×
//!   `--requests M` pipelined requests each (window-capped by the
//!   server's advertised `max_in_flight`), reporting sustained
//!   throughput and p50/p99 latency, written to
//!   `target/bench/bench_server.json`.
//! * `--mode cancel`: sends a selection request and immediately drops the
//!   connection, then polls `stats` until the server reports the request
//!   as cancelled — proving client disconnects cancel the job DAG.
//! * `--mode trace`: like `select`, but the request opts into per-job
//!   tracing (`"trace": true`) and the returned critical-path profile is
//!   printed after the ranking.  `--trace` adds the same opt-in to a
//!   plain `select`.
//! * `--mode metrics`: fetches the engine-wide metrics payload (latency
//!   histograms, per-worker counters, cache latencies, queue admission
//!   waits, last traced profile) and prints it as JSON.
//! * `--mode stats` / `--mode ping` / `--mode shutdown`: the
//!   corresponding control requests (plain v1 one-shots).
//!
//! Exit code 0 on success, 1 on verification/protocol failure, 2 on I/O
//! errors.
//!
//! ```text
//! cvcp-client --addr 127.0.0.1:7878 --mode select --algorithm fosc \
//!     --dataset aloi:0 --params 3,6,9,12 --labels 0.2 --folds 5 --seed 42
//! ```
//!
//! `--priority interactive|batch` picks the request's scheduling lane
//! (omitted: the server's default, normally interactive).  Batch requests
//! are overtaken by interactive ones at the server queue and inside the
//! engine's worker pool; the lane never changes results.

use cvcp_core::json::{Json, ToJson};
use cvcp_core::{Algorithm, Engine, Priority, SelectionRequest, SideInfoSpec};
use cvcp_server::client::{one_shot, Connection};
use cvcp_server::{RankedSelection, Request, Response};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Options {
    addr: String,
    mode: String,
    algorithm: Algorithm,
    dataset: String,
    params: Vec<usize>,
    side_info: SideInfoSpec,
    n_folds: usize,
    seed: u64,
    id: String,
    verify: bool,
    threads: usize,
    priority: Option<Priority>,
    trace: bool,
    connections: usize,
    requests: usize,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        addr: std::env::var("CVCP_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_string()),
        mode: "select".to_string(),
        algorithm: Algorithm::Fosc,
        dataset: "aloi:0".to_string(),
        params: Vec::new(),
        side_info: SideInfoSpec::LabelFraction(0.2),
        n_folds: 5,
        seed: 20_140_324,
        id: String::new(),
        verify: true,
        threads: 4,
        priority: None,
        trace: false,
        connections: 2,
        requests: 4,
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
            "--addr" => opts.addr = value()?.to_string(),
            "--mode" => opts.mode = value()?.to_string(),
            "--algorithm" => {
                let name = value()?;
                opts.algorithm = Algorithm::parse(name)
                    .ok_or_else(|| format!("unknown algorithm {name:?} (fosc|mpck)"))?;
            }
            "--dataset" => opts.dataset = value()?.to_string(),
            "--params" => {
                opts.params = value()?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().map_err(|_| "bad params list".to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--labels" => {
                let f: f64 = value()?.parse().map_err(|_| "bad --labels fraction")?;
                opts.side_info = SideInfoSpec::LabelFraction(f);
            }
            "--constraints" => {
                let spec = value()?;
                let (pool, sample) = spec
                    .split_once(',')
                    .ok_or("--constraints expects POOL,SAMPLE")?;
                opts.side_info = SideInfoSpec::ConstraintSample {
                    pool_fraction: pool.trim().parse().map_err(|_| "bad pool fraction")?,
                    sample_fraction: sample.trim().parse().map_err(|_| "bad sample fraction")?,
                };
            }
            "--folds" => opts.n_folds = value()?.parse().map_err(|_| "bad --folds")?,
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--id" => opts.id = value()?.to_string(),
            "--verify" => opts.verify = value()?.parse().map_err(|_| "bad --verify")?,
            "--trace" => opts.trace = true,
            "--threads" => opts.threads = value()?.parse().map_err(|_| "bad --threads")?,
            "--priority" => {
                let name = value()?;
                opts.priority = Some(
                    Priority::parse(name)
                        .ok_or_else(|| format!("unknown priority {name:?} (interactive|batch)"))?,
                );
            }
            "--connections" => {
                opts.connections = value()?.parse().map_err(|_| "bad --connections")?
            }
            "--requests" => opts.requests = value()?.parse().map_err(|_| "bad --requests")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if opts.id.is_empty() {
        opts.id = format!(
            "{}-{}-{}",
            opts.algorithm.name(),
            opts.dataset.replace(':', "_"),
            opts.seed
        );
    }
    Ok(opts)
}

fn selection_request(opts: &Options) -> SelectionRequest {
    SelectionRequest {
        id: opts.id.clone(),
        dataset: opts.dataset.clone(),
        algorithm: opts.algorithm,
        params: opts.params.clone(),
        side_info: opts.side_info,
        n_folds: opts.n_folds,
        stratified: true,
        seed: opts.seed,
        priority: opts.priority,
        trace: opts.trace,
    }
}

/// Pumps events on `conn` until `id`'s terminal response, printing
/// progress when `print` is set.  Events of other ids are ignored (the
/// one-shot paths have none).
fn stream_selection(
    conn: &mut Connection,
    id: &str,
    print: bool,
) -> Result<(RankedSelection, Option<Json>), String> {
    loop {
        match conn.next_event().map_err(|e| format!("read failed: {e}"))? {
            Response::Progress {
                id: event_id,
                param,
                score,
                completed,
                total,
            } if event_id == id && print => {
                println!("progress: param {param} -> {score:.6} ({completed}/{total})");
            }
            Response::Result {
                id: event_id,
                selection,
                profile,
            } if event_id == id => return Ok((selection, profile)),
            Response::Error {
                id: event_id,
                error,
            } if event_id.as_deref() == Some(id) || event_id.is_none() => {
                return Err(format!("server error: {}: {}", error.code, error.message));
            }
            _ => {}
        }
    }
}

/// Runs one selection on a fresh v1 connection — the
/// one-request-per-connection baseline the pipeline mode verifies
/// against.
fn v1_baseline(addr: &str, request: &SelectionRequest) -> Result<RankedSelection, String> {
    let mut conn = Connection::connect_v1(addr).map_err(|e| format!("connect failed: {e}"))?;
    let id = conn
        .send(request)
        .map_err(|e| format!("send failed: {e}"))?;
    stream_selection(&mut conn, &id, false).map(|(selection, _)| selection)
}

fn run_select(opts: &Options) -> Result<(), String> {
    let request = selection_request(opts);
    let mut conn = Connection::connect(&opts.addr).map_err(|e| format!("connect failed: {e}"))?;
    let id = conn
        .send(&request)
        .map_err(|e| format!("send failed: {e}"))?;
    let (served, profile) = stream_selection(&mut conn, &id, true)?;
    println!(
        "result: best {} = {} (score {:.6})",
        request.algorithm.method().parameter_name(),
        served.best_param,
        served.best_score
    );
    for entry in &served.ranking {
        println!("  ranked: param {} score {:.6}", entry.param, entry.score);
    }
    if opts.trace {
        match profile {
            Some(profile) => println!("profile: {}", profile.pretty()),
            None => return Err("traced request returned no profile".to_string()),
        }
    }
    if opts.verify {
        let realized = request
            .realize()
            .map_err(|e| format!("local lowering failed: {e}"))?;
        let local = RankedSelection::from_selection(&realized.select(&Engine::new(opts.threads)));
        verify_bit_identical(&served, &local)?;
        println!("verified: served result is bit-identical to in-process select_model_with");
    }
    Ok(())
}

/// Two selections pipelined on one v2 connection, each verified
/// bit-for-bit against its own one-connection-per-request v1 baseline.
fn run_pipeline(opts: &Options) -> Result<(), String> {
    let mut first = selection_request(opts);
    first.id = "pipe-a".to_string();
    let mut second = selection_request(opts);
    second.id = "pipe-b".to_string();
    // A different seed gives the second request a genuinely different
    // answer stream, so crossed wires could not go unnoticed.
    second.seed = opts.seed.wrapping_add(1);

    let mut conn = Connection::connect(&opts.addr).map_err(|e| format!("connect failed: {e}"))?;
    println!(
        "negotiated v{} (max_in_flight {}, max_frame_bytes {})",
        conn.version(),
        conn.max_in_flight(),
        conn.max_frame_bytes()
    );
    conn.send(&first).map_err(|e| format!("send failed: {e}"))?;
    conn.send(&second)
        .map_err(|e| format!("send failed: {e}"))?;

    let mut results: BTreeMap<String, RankedSelection> = BTreeMap::new();
    let mut progress: BTreeMap<String, usize> = BTreeMap::new();
    while results.len() < 2 {
        match conn.next_event().map_err(|e| format!("read failed: {e}"))? {
            Response::Progress { id, .. } => *progress.entry(id).or_insert(0) += 1,
            Response::Result { id, selection, .. } => {
                println!("result for {id}: best param {}", selection.best_param);
                results.insert(id, selection);
            }
            Response::Error { id, error } => {
                return Err(format!(
                    "server error for {id:?}: {}: {}",
                    error.code, error.message
                ));
            }
            other => return Err(format!("unexpected response: {other:?}")),
        }
    }
    for (request, label) in [(&first, "pipe-a"), (&second, "pipe-b")] {
        let served = results
            .get(label)
            .ok_or_else(|| format!("no result for {label}"))?;
        let baseline = v1_baseline(&opts.addr, request)?;
        verify_bit_identical(served, &baseline)?;
    }
    println!(
        "verified: both pipelined results are bit-identical to per-connection v1 baselines \
         (progress events: {:?})",
        progress
    );
    Ok(())
}

/// Latency/throughput summary of one bench run.
struct BenchOutcome {
    latencies_ms: Vec<f64>,
    errors: usize,
}

/// Drives `--requests` selections over one v2 connection, windowed by
/// the server's advertised in-flight cap, recording per-request
/// send-to-terminal latency.
fn bench_connection(
    addr: &str,
    base: &SelectionRequest,
    conn_index: usize,
    requests: usize,
) -> Result<BenchOutcome, String> {
    let mut conn = Connection::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    let window = conn.max_in_flight().max(1);
    let mut outcome = BenchOutcome {
        latencies_ms: Vec::with_capacity(requests),
        errors: 0,
    };
    let mut sent: BTreeMap<String, Instant> = BTreeMap::new();
    let mut next = 0usize;
    while next < requests || !sent.is_empty() {
        while next < requests && sent.len() < window {
            let mut request = base.clone();
            request.id = format!("bench-c{conn_index}-r{next}");
            let started = Instant::now();
            let id = conn
                .send(&request)
                .map_err(|e| format!("send failed: {e}"))?;
            sent.insert(id, started);
            next += 1;
        }
        match conn.next_event().map_err(|e| format!("read failed: {e}"))? {
            Response::Result { id, .. } => {
                if let Some(started) = sent.remove(&id) {
                    outcome
                        .latencies_ms
                        .push(started.elapsed().as_secs_f64() * 1e3);
                }
            }
            Response::Error { id, error } => {
                outcome.errors += 1;
                match id.and_then(|id| sent.remove(&id)) {
                    Some(_) => {}
                    // An uncorrelated error leaves the window stuck;
                    // treat it as fatal for the run.
                    None => {
                        return Err(format!(
                            "uncorrelated server error: {}: {}",
                            error.code, error.message
                        ))
                    }
                }
            }
            _ => {}
        }
    }
    Ok(outcome)
}

fn percentile_ms(sorted: &[f64], fraction: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * fraction).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `--mode bench`: N connections × M pipelined requests, sustained
/// throughput + latency percentiles, written to
/// `target/bench/bench_server.json`.
fn run_bench(opts: &Options) -> Result<(), String> {
    let mut base = selection_request(opts);
    base.trace = false;
    if base.params.is_empty() {
        base.params = vec![3, 6];
    }
    let started = Instant::now();
    let handles: Vec<_> = (0..opts.connections.max(1))
        .map(|conn_index| {
            let addr = opts.addr.clone();
            let base = base.clone();
            let requests = opts.requests.max(1);
            std::thread::spawn(move || bench_connection(&addr, &base, conn_index, requests))
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    let mut errors = 0usize;
    for handle in handles {
        let outcome = handle.join().map_err(|_| "bench thread panicked")??;
        latencies.extend(outcome.latencies_ms);
        errors += outcome.errors;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let total = opts.connections.max(1) * opts.requests.max(1);
    let completed = latencies.len();
    let throughput = if wall_s > 0.0 {
        completed as f64 / wall_s
    } else {
        0.0
    };
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean = if completed > 0 {
        latencies.iter().sum::<f64>() / completed as f64
    } else {
        0.0
    };
    let report = Json::obj([
        ("connections", opts.connections.max(1).to_json()),
        ("requests_per_connection", opts.requests.max(1).to_json()),
        ("total_requests", total.to_json()),
        ("completed", completed.to_json()),
        ("errors", errors.to_json()),
        ("wall_s", wall_s.to_json()),
        ("throughput_rps", throughput.to_json()),
        (
            "latency_ms",
            Json::obj([
                ("mean", mean.to_json()),
                ("p50", percentile_ms(&latencies, 0.50).to_json()),
                ("p90", percentile_ms(&latencies, 0.90).to_json()),
                ("p99", percentile_ms(&latencies, 0.99).to_json()),
                ("max", latencies.last().copied().unwrap_or(0.0).to_json()),
            ]),
        ),
    ]);
    std::fs::create_dir_all("target/bench").map_err(|e| format!("mkdir target/bench: {e}"))?;
    std::fs::write("target/bench/bench_server.json", report.pretty())
        .map_err(|e| format!("write bench_server.json: {e}"))?;
    println!("{}", report.pretty());
    println!(
        "bench: {completed}/{total} requests over {} connection(s) in {wall_s:.2}s \
         -> {throughput:.1} req/s (p50 {:.1} ms, p99 {:.1} ms)",
        opts.connections.max(1),
        percentile_ms(&latencies, 0.50),
        percentile_ms(&latencies, 0.99),
    );
    if errors > 0 {
        return Err(format!("{errors} request(s) answered with errors"));
    }
    if completed != total {
        return Err(format!("only {completed}/{total} requests completed"));
    }
    Ok(())
}

/// Compares the served and the in-process selections bit-for-bit (float
/// equality via `to_bits`, so even sign/NaN payload differences would
/// fail).
fn verify_bit_identical(served: &RankedSelection, local: &RankedSelection) -> Result<(), String> {
    if served.best_param != local.best_param {
        return Err(format!(
            "best_param mismatch: served {} vs local {}",
            served.best_param, local.best_param
        ));
    }
    if served.best_score.to_bits() != local.best_score.to_bits() {
        return Err(format!(
            "best_score bits mismatch: served {} vs local {}",
            served.best_score, local.best_score
        ));
    }
    for (kind, a, b) in [
        ("ranking", &served.ranking, &local.ranking),
        ("evaluations", &served.evaluations, &local.evaluations),
    ] {
        if a.len() != b.len() {
            return Err(format!(
                "{kind} length mismatch: {} vs {}",
                a.len(),
                b.len()
            ));
        }
        for (x, y) in a.iter().zip(b) {
            if x.param != y.param || x.score.to_bits() != y.score.to_bits() {
                return Err(format!(
                    "{kind} entry mismatch: served ({}, {}) vs local ({}, {})",
                    x.param, x.score, y.param, y.score
                ));
            }
        }
    }
    Ok(())
}

fn cancelled_count(addr: &str) -> Result<u64, String> {
    match one_shot(addr, &Request::Stats).map_err(|e| format!("stats failed: {e}"))? {
        Response::Stats(stats) => Ok(stats.requests.cancelled),
        other => Err(format!("unexpected stats response: {other:?}")),
    }
}

fn run_cancel(opts: &Options) -> Result<(), String> {
    let before = cancelled_count(&opts.addr)?;
    let request = selection_request(opts);
    // Send the request and immediately drop the connection: the server's
    // event loop must cancel the request's DAG on the disconnect.
    {
        let mut conn =
            Connection::connect_v1(&opts.addr).map_err(|e| format!("connect failed: {e}"))?;
        conn.send(&request)
            .map_err(|e| format!("send failed: {e}"))?;
    }
    println!("request sent and connection dropped; polling stats for the cancellation…");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let now = cancelled_count(&opts.addr)?;
        if now > before {
            println!("cancelled count rose {before} -> {now}: DAG cancellation confirmed");
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "server never reported the cancellation (cancelled count stuck at {now})"
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn main() -> ExitCode {
    let mut opts = match parse_options() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("cvcp-client: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.mode.as_str() {
        "select" => run_select(&opts),
        "pipeline" => run_pipeline(&opts),
        "bench" => run_bench(&opts),
        "trace" => {
            opts.trace = true;
            run_select(&opts)
        }
        "cancel" => run_cancel(&opts),
        "metrics" => one_shot(&opts.addr, &Request::Metrics)
            .map_err(|e| format!("metrics failed: {e}"))
            .and_then(|r| match r {
                Response::Metrics(ref metrics) => {
                    println!("{}", r.to_json().pretty());
                    let tasks: u64 = metrics.workers.iter().map(|w| w.tasks).sum();
                    println!(
                        "engine: {} thread(s), {} pool worker(s) | {} job(s) run by workers, \
                         {} by waiting threads, steal ratio {:.3}",
                        metrics.engine_threads,
                        metrics.pool_workers,
                        tasks,
                        metrics.waiting_threads.jobs,
                        metrics.steal_ratio,
                    );
                    Ok(())
                }
                other => Err(format!("unexpected metrics response: {other:?}")),
            }),
        "stats" => one_shot(&opts.addr, &Request::Stats)
            .map_err(|e| format!("stats failed: {e}"))
            .map(|r| match r {
                Response::Stats(ref stats) => {
                    println!("{}", r.to_json().pretty());
                    println!(
                        "cache: hit rate {:.1}%, {} resident entries / {} bytes (peak {} bytes) | \
                         {} evictions ({} bytes)",
                        stats.cache.hit_rate() * 100.0,
                        stats.cache.resident_entries,
                        stats.cache.resident_bytes,
                        stats.cache.peak_resident_bytes,
                        stats.cache.evictions,
                        stats.cache.evicted_bytes,
                    );
                    println!(
                        "queue: {}/{} queued (interactive {}, batch {}) | {} worker(s)",
                        stats.queue_depth,
                        stats.queue_capacity,
                        stats.queue_interactive,
                        stats.queue_batch,
                        stats.workers,
                    );
                    println!(
                        "connections: {} open ({} idle, {} active) | {} request(s) in flight",
                        stats.connections.open,
                        stats.connections.idle,
                        stats.connections.active,
                        stats.connections.in_flight_requests,
                    );
                }
                other => println!("{other:?}"),
            }),
        "ping" => one_shot(&opts.addr, &Request::Ping)
            .map_err(|e| format!("ping failed: {e}"))
            .and_then(|r| match r {
                Response::Pong => {
                    println!("pong");
                    Ok(())
                }
                other => Err(format!("unexpected ping response: {other:?}")),
            }),
        "shutdown" => one_shot(&opts.addr, &Request::Shutdown)
            .map_err(|e| format!("shutdown failed: {e}"))
            .and_then(|r| match r {
                Response::ShutdownAck => {
                    println!("server acknowledged shutdown");
                    Ok(())
                }
                other => Err(format!("unexpected shutdown response: {other:?}")),
            }),
        other => Err(format!("unknown mode {other:?}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cvcp-client: {e}");
            ExitCode::FAILURE
        }
    }
}
