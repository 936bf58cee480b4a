//! The TCP front-end: accept thread, readiness event loop, bounded
//! request queue and selection workers.
//!
//! ## Thread model
//!
//! The server runs exactly `workers + 2` threads regardless of how many
//! clients are connected: one accept thread `cvcp-accept` (blocking
//! `accept`, hands each stream to the loop over a channel), one
//! readiness event loop `cvcp-loop` owning every connection (see
//! [`crate::event_loop`]), and the selection workers `cvcp-worker-<i>`.
//! A selection worker runs its request's job graph itself: it waits for
//! the graph by running the graph's ready jobs, and the engine's pool
//! threads `cvcp-engine-<i>` help through the tokens the graph queues, so
//! an interactive request starts at once on its worker instead of waiting
//! for a pool thread to finish a batch job.  Connections cost buffers,
//! not threads — the property the idle-connections test pins.
//!
//! ## Connection lifecycle
//!
//! A connection's first line selects its protocol version (see
//! [`crate::protocol`] for the matrix).  v1 connections carry **one**
//! request line and its response stream, then close — unchanged from the
//! pre-v2 server.  v2 connections (negotiated via
//! `{"hello":{"version":2}}`) are persistent and pipelined: many
//! requests in flight at once, responses correlated by the echoed
//! `"id"`.  In both versions, disconnect cancels the connection's
//! queued and running requests via their [`CancelToken`]s, so the
//! engine skips every job of their DAGs that has not started yet.
//!
//! ## Admission control
//!
//! `select` requests are validated, then enqueued with
//! [`BoundedQueue::try_push_with`].  A full queue answers `queue_full`
//! *immediately* — the connection is never parked waiting for capacity —
//! so clients see back-pressure as a structured error they can retry,
//! instead of an unbounded stall.  Two more caps guard the front-end
//! itself: `max_connections` (excess connections are refused with
//! `server_busy`) and `max_in_flight` (a v2 connection pipelining past
//! its cap gets `in_flight_limit` errors).

use crate::event_loop::{event_loop, ConnGauges, EventSink, LoopCounters, LoopMsg};
use crate::protocol::{
    ConnectionGauges, EventLoopStats, HistogramSummary, KindLatencyMetrics, MetricsPayload,
    RankedSelection, RequestStats, Response, StatsSnapshot, WaitingMetrics, WireError,
    WorkerMetrics,
};
use crate::queue::{BoundedQueue, PushError};
use cvcp_core::json::Json;
use cvcp_core::trace_export::{graph_profile_json, write_chrome_trace};
use cvcp_core::{
    run_selection_request, run_selection_request_traced, RunRequestError, SelectionRequest,
};
use cvcp_engine::{CancelToken, Engine, GraphProfile, Priority};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Maximum number of queued (admitted but not yet running) requests.
    pub queue_depth: usize,
    /// Number of selection worker threads.  `0` is accepted and means "no
    /// execution at all" — requests queue until rejected — which tests use
    /// to pin admission-control behaviour deterministically.
    pub workers: usize,
    /// The scheduling lane applied to requests that do not carry an
    /// explicit `"priority"` field (default [`Priority::Interactive`]).
    pub default_priority: Priority,
    /// When set, **every** selection runs traced and its Chrome trace
    /// file is written into this directory (`<id>.trace.json`).  `None`
    /// (the default) keeps tracing strictly per-request opt-in via the
    /// `"trace": true` wire field.
    pub trace_dir: Option<PathBuf>,
    /// Maximum simultaneously open connections; further connections are
    /// refused with a `server_busy` error (default 1024).
    pub max_connections: usize,
    /// Maximum requests one v2 connection may have queued or running at
    /// once; pipelining past the cap earns `in_flight_limit` errors
    /// (default 32).
    pub max_in_flight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            queue_depth: 32,
            workers: 2,
            default_priority: Priority::Interactive,
            trace_dir: None,
            max_connections: 1024,
            max_in_flight: 32,
        }
    }
}

impl ServerConfig {
    /// Reads the configuration from the environment:
    ///
    /// * `CVCP_ADDR` — listen address (default `127.0.0.1:7878`);
    /// * `CVCP_QUEUE_DEPTH` — request queue capacity (default 32);
    /// * `CVCP_SERVER_WORKERS` — selection workers (default 2);
    /// * `CVCP_TRACE_DIR` — when set (non-empty), every selection runs
    ///   traced and its Chrome trace file lands in that directory;
    /// * `CVCP_MAX_CONNECTIONS` — simultaneously open connections before
    ///   `server_busy` refusals (default 1024);
    /// * `CVCP_MAX_IN_FLIGHT` — per-connection pipelined-request cap
    ///   before `in_flight_limit` errors (default 32).
    ///
    /// Unset or unparsable variables keep their defaults; the default lane
    /// is not read from the environment (a request picks its lane with
    /// `"priority"`).
    pub fn from_env() -> Self {
        let defaults = Self::default();
        let read_usize = |var: &str, default: usize| -> usize {
            // cvcp: allow(D3, reason = "generic reader helper; the literal CVCP_* names at the call sites are checked")
            std::env::var(var)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(default)
        };
        Self {
            addr: std::env::var("CVCP_ADDR").unwrap_or(defaults.addr),
            queue_depth: read_usize("CVCP_QUEUE_DEPTH", defaults.queue_depth),
            workers: read_usize("CVCP_SERVER_WORKERS", defaults.workers),
            default_priority: defaults.default_priority,
            trace_dir: std::env::var("CVCP_TRACE_DIR")
                .ok()
                .filter(|v| !v.trim().is_empty())
                .map(PathBuf::from),
            max_connections: read_usize("CVCP_MAX_CONNECTIONS", defaults.max_connections),
            max_in_flight: read_usize("CVCP_MAX_IN_FLIGHT", defaults.max_in_flight),
        }
    }
}

/// An admitted request travelling from the event loop to a worker.
struct QueuedJob {
    request: SelectionRequest,
    sink: EventSink,
    cancel: CancelToken,
}

#[derive(Default)]
struct Counters {
    received: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> RequestStats {
        RequestStats {
            received: self.received.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }
}

pub(crate) struct Shared {
    engine: Arc<Engine>,
    queue: BoundedQueue<QueuedJob>,
    counters: Counters,
    workers: usize,
    default_priority: Priority,
    /// Per-connection pipelining cap, enforced by the event loop.
    pub(crate) max_in_flight: usize,
    /// Open-connection cap, enforced by the event loop at registration.
    pub(crate) max_connections: usize,
    /// Connection gauges maintained by the event loop.
    pub(crate) gauges: ConnGauges,
    /// Polling counters maintained by the event loop.
    pub(crate) loop_counters: LoopCounters,
    shutdown: AtomicBool,
    addr: SocketAddr,
    trace_dir: Option<PathBuf>,
    /// The event loop's wakeup channel; kept here to mint the final
    /// [`LoopMsg::Shutdown`] at join time.
    loop_tx: mpsc::Sender<LoopMsg>,
    /// JSON rendering of the most recent traced selection's
    /// [`GraphProfile`], served by the `metrics` endpoint.
    last_profile: Mutex<Option<Json>>,
}

impl Shared {
    pub(crate) fn stats(&self) -> StatsSnapshot {
        let (queue_interactive, queue_batch) = self.queue.lane_depths();
        let open = self.gauges.open.get();
        let active = self.gauges.active.get();
        StatsSnapshot {
            cache: self.engine.cache_stats(),
            queue_depth: queue_interactive + queue_batch,
            queue_interactive,
            queue_batch,
            queue_capacity: self.queue.capacity(),
            workers: self.workers,
            engine_threads: self.engine.n_threads(),
            requests: self.counters.snapshot(),
            queue_wait: self
                .queue
                .admission_wait_snapshots()
                .iter()
                .map(HistogramSummary::from_snapshot)
                .collect(),
            connections: ConnectionGauges {
                open,
                // Gauges are updated independently; clamp so a read
                // between two updates can never report negative idleness.
                idle: open.saturating_sub(active),
                active,
                in_flight_requests: self.gauges.in_flight.get(),
            },
            event_loop: EventLoopStats {
                wakes: self.loop_counters.wakes.load(Ordering::Relaxed),
                polls: self.loop_counters.polls.load(Ordering::Relaxed),
                polls_with_bytes: self.loop_counters.polls_with_bytes.load(Ordering::Relaxed),
            },
        }
    }

    pub(crate) fn metrics(&self) -> MetricsPayload {
        let snapshot = self.engine.metrics_snapshot();
        MetricsPayload {
            engine_threads: self.engine.n_threads(),
            pool_workers: snapshot.workers.len(),
            graphs_submitted: snapshot.graphs_submitted.clone(),
            job_run: snapshot
                .job_run
                .iter()
                .map(HistogramSummary::from_snapshot)
                .collect(),
            graph_queue_wait: snapshot
                .graph_queue_wait
                .iter()
                .map(HistogramSummary::from_snapshot)
                .collect(),
            workers: snapshot
                .workers
                .iter()
                .enumerate()
                .map(|(worker, w)| WorkerMetrics {
                    worker,
                    tasks: w.tasks,
                    busy_ns: w.busy_nanos,
                    steals: w.steals,
                    empty_pickups: w.empty_pickups,
                    parks: w.parks,
                })
                .collect(),
            waiting_threads: WaitingMetrics {
                jobs: snapshot.waiting.jobs,
                busy_ns: snapshot.waiting.busy_nanos,
            },
            steal_ratio: snapshot.steal_ratio(),
            cache_kinds: self
                .engine
                .cache()
                .kind_latency_snapshots()
                .iter()
                .map(|k| KindLatencyMetrics {
                    kind: k.kind.to_string(),
                    get: HistogramSummary::from_snapshot(&k.get),
                    compute: HistogramSummary::from_snapshot(&k.compute),
                })
                .collect(),
            queue_admission_wait: self
                .queue
                .admission_wait_snapshots()
                .iter()
                .map(HistogramSummary::from_snapshot)
                .collect(),
            last_profile: self.last_profile.lock().expect("profile lock").clone(),
        }
    }

    /// Validates and admits one selection.  On success the job is queued
    /// with the given sink and the request's [`CancelToken`] is returned
    /// (for the event loop's in-flight table); on failure the error
    /// response to route back is returned instead.
    pub(crate) fn admit_select(
        &self,
        mut request: SelectionRequest,
        sink: EventSink,
    ) -> Result<CancelToken, Box<Response>> {
        let id = request.id.clone();
        // Reject invalid requests before they occupy a queue slot.
        if let Err(e) = request.validate() {
            return Err(Box::new(Response::Error {
                id: Some(id),
                error: WireError::new("invalid_request", e.to_string()),
            }));
        }
        // Resolve the lane at admission: an explicit request priority
        // wins, otherwise the server's configured default.  The resolved
        // lane is pinned onto the request so the engine lowering queues
        // the job DAG on the same lane the queue admitted it to.
        let priority = request.priority.unwrap_or(self.default_priority);
        request.priority = Some(priority);
        let cancel = CancelToken::new();
        let job = QueuedJob {
            request,
            sink,
            cancel: cancel.clone(),
        };
        match self.queue.try_push_with(job, priority) {
            Ok(()) => {
                self.counters.received.fetch_add(1, Ordering::Relaxed);
                Ok(cancel)
            }
            Err(PushError::Full(_)) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(Box::new(Response::Error {
                    id: Some(id),
                    error: WireError::new(
                        "queue_full",
                        format!(
                            "request queue is at capacity ({}); retry later",
                            self.queue.capacity()
                        ),
                    ),
                }))
            }
            // A closed queue means the server is going away — telling the
            // client to "retry later" (or counting it as back-pressure)
            // would be wrong on both counts.
            Err(PushError::Closed(_)) => Err(Box::new(Response::Error {
                id: Some(id),
                error: WireError::new("shutting_down", "server is shutting down"),
            })),
        }
    }

    /// Initiates shutdown: flips the flag, closes the queue (workers drain
    /// and exit) and pokes the accept loop awake with a loopback connect.
    /// A wildcard bind address (`0.0.0.0` / `::`) is not connectable on
    /// every platform, so fall back to loopback on the bound port.
    pub(crate) fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        let timeout = Duration::from_millis(200);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        if TcpStream::connect_timeout(&wake, timeout).is_err() && wake != self.addr {
            let _ = TcpStream::connect_timeout(&self.addr, timeout);
        }
    }
}

/// A running serving front-end.
///
/// Dropping the handle does **not** stop the server; call
/// [`Server::shutdown`] for a synchronous stop or [`Server::wait`] to
/// block until a client sends the `shutdown` request.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts the accept thread, the event loop
    /// and the worker threads on the given engine.
    pub fn start(config: &ServerConfig, engine: Arc<Engine>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (loop_tx, loop_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            engine,
            queue: BoundedQueue::new(config.queue_depth),
            counters: Counters::default(),
            workers: config.workers,
            default_priority: config.default_priority,
            max_in_flight: config.max_in_flight,
            max_connections: config.max_connections,
            gauges: ConnGauges::default(),
            loop_counters: LoopCounters::default(),
            shutdown: AtomicBool::new(false),
            addr,
            trace_dir: config.trace_dir.clone(),
            loop_tx: loop_tx.clone(),
            last_profile: Mutex::new(None),
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cvcp-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn selection worker: the server cannot serve without it")
            })
            .collect();
        let event = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cvcp-loop".to_string())
                .spawn(move || event_loop(shared, loop_tx, loop_rx))
                .expect("spawn event loop: the server cannot serve without it")
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cvcp-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread: the server cannot serve without it")
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            event: Some(event),
            workers,
        })
    }

    /// The bound address (useful with `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A statistics snapshot — the same payload the `stats` request
    /// returns over the wire.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// Stops the server: no new connections, queued requests are drained
    /// by the workers, then all server threads are joined.
    pub fn shutdown(mut self) {
        self.shared.initiate_shutdown();
        self.join_threads();
    }

    /// Blocks until the server shuts down (via a `shutdown` request or
    /// another handle), then joins all server threads.
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Workers first: they drain the queue and may still be streaming
        // responses through the loop — only once they are done may the
        // loop flush its last buffers and exit.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(event) = self.event.take() {
            let _ = self.shared.loop_tx.send(LoopMsg::Shutdown);
            let _ = event.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Hand the stream to the event loop; if the loop is gone
                // the server is tearing down anyway.
                if shared.loop_tx.send(LoopMsg::Register(stream)).is_err() {
                    return;
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept errors (aborted handshakes, fd
                // exhaustion under a connection flood) are not fatal to
                // the listener, but must not busy-spin the accept thread
                // either — back off briefly before retrying.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let QueuedJob {
            request,
            sink,
            cancel,
        } = job;
        let id = request.id.clone();
        if cancel.is_cancelled() {
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            sink.send(Response::Error {
                id: Some(id),
                error: WireError::new("cancelled", "client disconnected before the request ran"),
            });
            continue;
        }
        let progress_sink = sink.clone();
        let progress_id = id.clone();
        // A request is traced when the client asked for it on the wire or
        // the server is configured with a trace directory.  Tracing never
        // changes the selection itself (pinned by tests), only what is
        // recorded alongside it.
        let traced = request.trace || shared.trace_dir.is_some();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let on_progress = move |p: cvcp_core::SelectionProgress| {
                progress_sink.send(Response::Progress {
                    id: progress_id.clone(),
                    param: p.param,
                    score: p.score,
                    completed: p.completed,
                    total: p.total,
                });
            };
            if traced {
                run_selection_request_traced(
                    &shared.engine,
                    &request,
                    Some(cancel.clone()),
                    on_progress,
                )
            } else {
                run_selection_request(&shared.engine, &request, Some(cancel.clone()), on_progress)
                    .map(|selection| (selection, None))
            }
        }));
        let response = match outcome {
            Ok(Ok((selection, trace))) => {
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                let profile = trace
                    .as_ref()
                    .map(|trace| graph_profile_json(&GraphProfile::from_trace(trace)));
                if let (Some(trace), Some(dir)) = (trace.as_ref(), shared.trace_dir.as_deref()) {
                    if let Err(e) = write_chrome_trace(trace, dir) {
                        eprintln!("cvcp-server: failed to write trace for {id}: {e}");
                    }
                }
                if let Some(profile) = profile.clone() {
                    *shared.last_profile.lock().expect("profile lock") = Some(profile);
                }
                Response::Result {
                    id,
                    selection: RankedSelection::from_selection(&selection),
                    // The profile rides on the wire only when the client
                    // opted in; a server-side trace dir alone should not
                    // change what existing clients receive.
                    profile: if request.trace { profile } else { None },
                }
            }
            Ok(Err(RunRequestError::Cancelled)) => {
                shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    id: Some(id),
                    error: WireError::new("cancelled", "client disconnected; selection cancelled"),
                }
            }
            Ok(Err(RunRequestError::Invalid(e))) => {
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    id: Some(id),
                    error: WireError::new("invalid_request", e.to_string()),
                }
            }
            Err(panic) => {
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "selection panicked".to_string());
                Response::Error {
                    id: Some(id),
                    error: WireError::new("internal", message),
                }
            }
        };
        sink.send(response);
    }
}
