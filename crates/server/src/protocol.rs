//! The newline-delimited JSON wire protocol (v1 and v2).
//!
//! Every message — in either direction — is one JSON object on one line,
//! terminated by `\n`.  Requests carry a `"type"` discriminator
//! (`select` / `stats` / `metrics` / `ping` / `shutdown`); responses
//! mirror it (`progress` / `result` / `error` / `stats` / `metrics` /
//! `pong` / `shutdown_ack` / `hello_ack`).
//! The document model and parser live in [`cvcp_core::json`]; this module
//! only maps between [`Json`] trees and typed messages, in both
//! directions, so the server, the client example and the property tests
//! all share one codec.
//!
//! ## Version negotiation
//!
//! A connection's first line decides its protocol version.  A client that
//! opens with `{"hello":{"version":N}}` negotiates explicitly: the server
//! answers with a `hello_ack` carrying the **granted** version
//! (`min(N, 2)`, i.e. the highest version both sides speak) plus the
//! connection limits (`max_in_flight`, `max_frame_bytes`).  A first line
//! that is an ordinary request implies version 1 — exactly the protocol
//! existing clients speak, unchanged.
//!
//! ## Compatibility matrix
//!
//! | first client line                  | granted | connection semantics |
//! |------------------------------------|---------|----------------------|
//! | any request (no `hello`)           | v1      | one request per connection; the server closes the connection after the terminal response; further client bytes are ignored |
//! | `{"hello":{"version":1}}`          | v1      | `hello_ack` with `"version":1`, then v1 semantics for the one following request |
//! | `{"hello":{"version":2}}` (or any higher version) | v2 | persistent connection: any number of requests, pipelined and interleaved; every request must carry a client-chosen `"id"` (the server assigns `req-<n>` to an absent/empty one) and every `progress` / `result` / `error` echoes it |
//! | `{"hello":{"version":0}}` or a malformed `hello` | — | `unsupported_version` error, then the server closes the connection |
//!
//! Under v2 the connection is full-duplex: responses of different
//! requests interleave in completion order, and `progress` events of
//! concurrently running selections may alternate freely.  The `"id"` echo
//! is the only correlation mechanism — clients must not assume any
//! ordering between events of *different* ids (events of one id keep
//! their order: progress in evaluation order, terminal last).  Disconnect
//! semantics generalize from v1: closing a v2 connection cancels **all**
//! of its queued and in-flight requests.

use cvcp_core::json::{Json, ToJson};
use cvcp_core::{Algorithm, CvcpSelection, SelectionRequest, SideInfoSpec};
use cvcp_engine::obs::HistogramSnapshot;
use cvcp_engine::{CacheStats, Priority};

/// A structured protocol-level failure, sent to clients as an `error`
/// response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable error class (`parse_error`, `invalid_request`,
    /// `unknown_type`, `queue_full`, `shutting_down`, `cancelled`,
    /// `internal`, `frame_too_large`, `in_flight_limit`, `duplicate_id`,
    /// `unsupported_version`, `server_busy`).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error with the given code and message.
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        Self {
            code: code.to_string(),
            message: message.into(),
        }
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Protocol-version negotiation: `{"hello":{"version":N}}`, sent as a
    /// connection's first line.  The server grants `min(N, 2)` via
    /// [`Response::HelloAck`]; a connection that never sends a hello
    /// speaks v1 (see the module-level compatibility matrix).
    Hello {
        /// The highest protocol version the client speaks.
        version: u64,
    },
    /// Run a model selection and stream its progress and result.
    Select(SelectionRequest),
    /// Report cache / queue / request statistics.
    Stats,
    /// Report engine metrics: latency histograms, per-worker counters,
    /// cache latencies and the profile of the last traced graph.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Gracefully shut the server down.
    Shutdown,
}

impl Request {
    /// Parses one request line.  Only *structural* validity is checked
    /// here (well-formed JSON, known type, fields of the right shape);
    /// semantic validation — does the dataset exist, are the fractions in
    /// range — happens in [`SelectionRequest::validate`] on the server.
    pub fn from_line(line: &str) -> Result<Request, WireError> {
        let doc = Json::parse(line.trim())
            .map_err(|e| WireError::new("parse_error", format!("malformed JSON: {e}")))?;
        // The hello opener has no "type" discriminator — `{"hello":{…}}`
        // is the whole message — so it is matched before the type switch.
        if let Some(hello) = doc.get("hello") {
            let version = hello.get("version").and_then(Json::as_u64).ok_or_else(|| {
                WireError::new(
                    "unsupported_version",
                    "hello must carry a non-negative integer \"version\"",
                )
            })?;
            return Ok(Request::Hello { version });
        }
        let kind = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::new("invalid_request", "missing string field \"type\""))?;
        match kind {
            "select" => Ok(Request::Select(selection_request_from_json(&doc)?)),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(WireError::new(
                "unknown_type",
                format!("unknown request type {other:?}"),
            )),
        }
    }

    /// Serialises the request to its JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Hello { version } => {
                Json::obj([("hello", Json::obj([("version", version.to_json())]))])
            }
            Request::Select(req) => selection_request_to_json(req),
            Request::Stats => Json::obj([("type", "stats".to_json())]),
            Request::Metrics => Json::obj([("type", "metrics".to_json())]),
            Request::Ping => Json::obj([("type", "ping".to_json())]),
            Request::Shutdown => Json::obj([("type", "shutdown".to_json())]),
        }
    }

    /// Serialises the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().compact()
    }
}

fn require<'a>(doc: &'a Json, field: &str) -> Result<&'a Json, WireError> {
    doc.get(field)
        .ok_or_else(|| WireError::new("invalid_request", format!("missing field {field:?}")))
}

fn require_str(doc: &Json, field: &str) -> Result<String, WireError> {
    require(doc, field)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| {
            WireError::new(
                "invalid_request",
                format!("field {field:?} must be a string"),
            )
        })
}

fn require_f64(doc: &Json, field: &str) -> Result<f64, WireError> {
    require(doc, field)?.as_f64().ok_or_else(|| {
        WireError::new(
            "invalid_request",
            format!("field {field:?} must be a number"),
        )
    })
}

fn optional_usize(doc: &Json, field: &str, default: usize) -> Result<usize, WireError> {
    match doc.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_usize().ok_or_else(|| {
            WireError::new(
                "invalid_request",
                format!("field {field:?} must be a non-negative integer"),
            )
        }),
    }
}

fn optional_u64(doc: &Json, field: &str, default: u64) -> Result<u64, WireError> {
    match doc.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            WireError::new(
                "invalid_request",
                format!("field {field:?} must be a non-negative integer"),
            )
        }),
    }
}

fn optional_bool(doc: &Json, field: &str, default: bool) -> Result<bool, WireError> {
    match doc.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_bool().ok_or_else(|| {
            WireError::new(
                "invalid_request",
                format!("field {field:?} must be a boolean"),
            )
        }),
    }
}

fn selection_request_from_json(doc: &Json) -> Result<SelectionRequest, WireError> {
    let algorithm_name = require_str(doc, "algorithm")?;
    let algorithm = Algorithm::parse(&algorithm_name).ok_or_else(|| {
        WireError::new(
            "invalid_request",
            format!("unknown algorithm {algorithm_name:?} (expected \"fosc\" or \"mpck\")"),
        )
    })?;
    let params = match doc.get("params") {
        None | Some(Json::Null) => Vec::new(),
        Some(v) => {
            let items = v.as_arr().ok_or_else(|| {
                WireError::new("invalid_request", "field \"params\" must be an array")
            })?;
            items
                .iter()
                .map(|p| {
                    p.as_usize().ok_or_else(|| {
                        WireError::new(
                            "invalid_request",
                            "field \"params\" must contain non-negative integers",
                        )
                    })
                })
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    // The optional scheduling lane: absent (or null) means "let the
    // server apply its configured default" (`ServerConfig::default_priority`,
    // interactive unless the embedding program sets it).
    let priority = match doc.get("priority") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let name = v.as_str().ok_or_else(|| {
                WireError::new("invalid_request", "field \"priority\" must be a string")
            })?;
            Some(Priority::parse(name).ok_or_else(|| {
                WireError::new(
                    "invalid_request",
                    format!("unknown priority {name:?} (expected \"interactive\" or \"batch\")"),
                )
            })?)
        }
    };
    Ok(SelectionRequest {
        id: match doc.get("id") {
            None | Some(Json::Null) => String::new(),
            Some(v) => v.as_str().map(str::to_string).ok_or_else(|| {
                WireError::new("invalid_request", "field \"id\" must be a string")
            })?,
        },
        dataset: require_str(doc, "dataset")?,
        algorithm,
        params,
        side_info: side_info_from_json(require(doc, "side_info")?)?,
        n_folds: optional_usize(doc, "n_folds", 5)?,
        stratified: optional_bool(doc, "stratified", true)?,
        seed: optional_u64(doc, "seed", 0)?,
        priority,
        trace: optional_bool(doc, "trace", false)?,
    })
}

fn selection_request_to_json(req: &SelectionRequest) -> Json {
    let mut fields = vec![
        ("type", "select".to_json()),
        ("id", req.id.to_json()),
        ("dataset", req.dataset.to_json()),
        ("algorithm", req.algorithm.name().to_json()),
        ("params", req.params.to_json()),
        ("side_info", side_info_to_json(&req.side_info)),
        ("n_folds", req.n_folds.to_json()),
        ("stratified", req.stratified.to_json()),
        ("seed", req.seed.to_json()),
    ];
    // Optional on the wire: only an explicitly chosen lane is written, so
    // "absent = server default" round-trips.
    if let Some(priority) = req.priority {
        fields.push(("priority", priority.name().to_json()));
    }
    // Tracing is strictly opt-in; the default (off) is never serialised.
    if req.trace {
        fields.push(("trace", true.to_json()));
    }
    Json::obj(fields)
}

fn side_info_to_json(spec: &SideInfoSpec) -> Json {
    match spec {
        SideInfoSpec::LabelFraction(fraction) => Json::obj([
            ("kind", "labels".to_json()),
            ("fraction", fraction.to_json()),
        ]),
        SideInfoSpec::ConstraintSample {
            pool_fraction,
            sample_fraction,
        } => Json::obj([
            ("kind", "constraints".to_json()),
            ("pool_fraction", pool_fraction.to_json()),
            ("sample_fraction", sample_fraction.to_json()),
        ]),
    }
}

fn side_info_from_json(doc: &Json) -> Result<SideInfoSpec, WireError> {
    let kind = require_str(doc, "kind")?;
    match kind.as_str() {
        "labels" => Ok(SideInfoSpec::LabelFraction(require_f64(doc, "fraction")?)),
        "constraints" => Ok(SideInfoSpec::ConstraintSample {
            pool_fraction: match doc.get("pool_fraction") {
                None | Some(Json::Null) => 0.1,
                Some(v) => v.as_f64().ok_or_else(|| {
                    WireError::new(
                        "invalid_request",
                        "field \"pool_fraction\" must be a number",
                    )
                })?,
            },
            sample_fraction: require_f64(doc, "sample_fraction")?,
        }),
        other => Err(WireError::new(
            "invalid_request",
            format!("unknown side_info kind {other:?}"),
        )),
    }
}

/// One entry of a ranked (or evaluation-ordered) score list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedEntry {
    /// The candidate parameter.
    pub param: usize,
    /// Its CVCP score.
    pub score: f64,
}

/// The final response payload of a selection request.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSelection {
    /// The selected (highest-scoring) parameter.
    pub best_param: usize,
    /// Its score.
    pub best_score: f64,
    /// All candidates, best first (stable on ties, so the paper's
    /// first-wins argmax stays on top).
    pub ranking: Vec<RankedEntry>,
    /// All candidates in the request's evaluation order.
    pub evaluations: Vec<RankedEntry>,
}

impl RankedSelection {
    /// Ranks a [`CvcpSelection`] for the wire.
    pub fn from_selection(selection: &CvcpSelection) -> Self {
        let evaluations: Vec<RankedEntry> = selection
            .evaluations
            .iter()
            .map(|e| RankedEntry {
                param: e.param,
                score: e.score,
            })
            .collect();
        let mut ranking = evaluations.clone();
        // Stable descending sort: ties keep candidate order, matching the
        // selection's first-wins argmax.
        ranking.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Self {
            best_param: selection.best_param,
            best_score: selection.best_score,
            ranking,
            evaluations,
        }
    }
}

/// A latency distribution condensed for the wire: count and the
/// percentile ladder of a [`HistogramSnapshot`], in nanoseconds.  Full
/// bucket arrays stay server-side; the summary is what dashboards need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Mean of the recorded values.
    pub mean_ns: u64,
    /// Median upper bound (log-bucket resolution).
    pub p50_ns: u64,
    /// 90th-percentile upper bound.
    pub p90_ns: u64,
    /// 99th-percentile upper bound.
    pub p99_ns: u64,
    /// Exact maximum recorded value.
    pub max_ns: u64,
}

impl HistogramSummary {
    /// Condenses a snapshot.
    pub fn from_snapshot(snapshot: &HistogramSnapshot) -> Self {
        Self {
            count: snapshot.count(),
            mean_ns: snapshot.mean_nanos(),
            p50_ns: snapshot.p50(),
            p90_ns: snapshot.p90(),
            p99_ns: snapshot.p99(),
            max_ns: snapshot.max_nanos(),
        }
    }
}

fn summary_to_json(s: &HistogramSummary) -> Json {
    Json::obj([
        ("count", s.count.to_json()),
        ("mean_ns", s.mean_ns.to_json()),
        ("p50_ns", s.p50_ns.to_json()),
        ("p90_ns", s.p90_ns.to_json()),
        ("p99_ns", s.p99_ns.to_json()),
        ("max_ns", s.max_ns.to_json()),
    ])
}

fn summary_from_json(doc: &Json) -> Result<HistogramSummary, WireError> {
    Ok(HistogramSummary {
        count: require_u64(doc, "count")?,
        mean_ns: require_u64(doc, "mean_ns")?,
        p50_ns: require_u64(doc, "p50_ns")?,
        p90_ns: require_u64(doc, "p90_ns")?,
        p99_ns: require_u64(doc, "p99_ns")?,
        max_ns: require_u64(doc, "max_ns")?,
    })
}

fn summaries_to_json(summaries: &[HistogramSummary]) -> Json {
    Json::Arr(summaries.iter().map(summary_to_json).collect())
}

fn summaries_from_json(doc: &Json, field: &str) -> Result<Vec<HistogramSummary>, WireError> {
    doc.as_arr()
        .ok_or_else(|| {
            WireError::new(
                "invalid_request",
                format!("field {field:?} must be an array"),
            )
        })?
        .iter()
        .map(summary_from_json)
        .collect()
}

/// One pool worker's counters on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Worker index.
    pub worker: usize,
    /// Jobs run (one per token that still found a ready job).
    pub tasks: u64,
    /// Nanoseconds spent running jobs.
    pub busy_ns: u64,
    /// Jobs run that a different worker had made ready.
    pub steals: u64,
    /// Tokens picked up that found no ready job left.
    pub empty_pickups: u64,
    /// Times the worker parked waiting for work.
    pub parks: u64,
}

/// The jobs threads ran while waiting for their own graphs (the server's
/// selection workers, mostly), on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaitingMetrics {
    /// Jobs run by a thread waiting for their graph.
    pub jobs: u64,
    /// Nanoseconds spent running them.
    pub busy_ns: u64,
}

/// Per-artifact-kind cache latency summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindLatencyMetrics {
    /// Artifact kind name (see `cvcp_engine::cache`).
    pub kind: String,
    /// Latency of cache hits (lookup only).
    pub get: HistogramSummary,
    /// Latency of misses (the artifact computation).
    pub compute: HistogramSummary,
}

/// The payload of a `metrics` response: engine-wide latency
/// distributions, per-worker counters, per-kind cache latencies, the
/// serving queue's admission waits, and the [`cvcp_engine::GraphProfile`]
/// of the most recent traced selection (as its JSON rendering, when one
/// exists).
///
/// Per-lane vectors are indexed by [`Priority::lane_index`]
/// (interactive first).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsPayload {
    /// The engine's thread count.
    pub engine_threads: usize,
    /// Pool workers (0 on a sequential engine — all lanes still count).
    pub pool_workers: usize,
    /// Graphs submitted per lane.
    pub graphs_submitted: Vec<u64>,
    /// Per-job run-time distribution per lane.
    pub job_run: Vec<HistogramSummary>,
    /// Submit-to-first-job-start wait per lane.
    pub graph_queue_wait: Vec<HistogramSummary>,
    /// Per-worker counters, in worker order.
    pub workers: Vec<WorkerMetrics>,
    /// Jobs run by threads waiting for their graphs, beside the workers.
    pub waiting_threads: WaitingMetrics,
    /// Stolen jobs over jobs the workers ran.
    pub steal_ratio: f64,
    /// Cache get/compute latency per artifact kind, in kind order.
    pub cache_kinds: Vec<KindLatencyMetrics>,
    /// Accept-to-dequeue wait of the serving queue per lane.
    pub queue_admission_wait: Vec<HistogramSummary>,
    /// JSON rendering of the last traced graph's profile
    /// (`cvcp_core::trace_export::graph_profile_json`), if any selection
    /// ran traced since startup.
    pub last_profile: Option<Json>,
}

/// Request / lifecycle counters of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestStats {
    /// Select requests admitted to the queue.
    pub received: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests cancelled (client disconnect before or during execution).
    pub cancelled: u64,
    /// Requests rejected because the queue was full.
    pub rejected: u64,
    /// Requests that failed internally (evaluation panic).
    pub failed: u64,
}

/// Point-in-time connection gauges of the serving front-end's event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnectionGauges {
    /// Connections currently open (v1 and v2 alike).
    pub open: usize,
    /// Open connections with no queued or running request — `open` minus
    /// [`ConnectionGauges::active`].
    pub idle: usize,
    /// Open connections with at least one request queued or running.
    pub active: usize,
    /// Requests queued or running across all connections (a v2 connection
    /// can contribute several).
    pub in_flight_requests: usize,
}

/// Polling counters of the serving front-end's event loop (statistics
/// only: relaxed counters since startup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventLoopStats {
    /// Times the loop woke: on a channel message or a poll deadline.
    pub wakes: u64,
    /// Connection service passes; each makes at least one non-blocking
    /// read.
    pub polls: u64,
    /// Service passes that moved bytes in either direction.
    pub polls_with_bytes: u64,
}

/// The payload of a `stats` response.
///
/// On the wire its `cache` object carries the engine's [`CacheStats`]
/// (`hits`, `misses`, `evictions`, `evicted_bytes`, `resident_entries`,
/// `resident_bytes`, `peak_resident_bytes`) plus the derived `hit_rate`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// The engine's artifact-cache counters.
    pub cache: CacheStats,
    /// Currently queued (pending) requests, across both priority lanes.
    pub queue_depth: usize,
    /// Currently queued requests on the interactive lane.
    pub queue_interactive: usize,
    /// Currently queued requests on the batch lane.
    pub queue_batch: usize,
    /// Configured queue capacity (shared across lanes).
    pub queue_capacity: usize,
    /// Accept-to-dequeue wait distribution per lane, in
    /// [`Priority::lane_index`] order (interactive first).
    pub queue_wait: Vec<HistogramSummary>,
    /// Configured worker count.
    pub workers: usize,
    /// The engine's thread count.
    pub engine_threads: usize,
    /// Request lifecycle counters.
    pub requests: RequestStats,
    /// Connection gauges of the readiness loop (open / idle / active
    /// connections, total in-flight requests).
    pub connections: ConnectionGauges,
    /// Polling counters of the readiness loop.
    pub event_loop: EventLoopStats,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One candidate parameter finished.
    Progress {
        /// Echo of the request id.
        id: String,
        /// The finished candidate.
        param: usize,
        /// Its CVCP score.
        score: f64,
        /// Candidates finished so far.
        completed: usize,
        /// Total candidates.
        total: usize,
    },
    /// The final ranked selection.
    Result {
        /// Echo of the request id.
        id: String,
        /// The ranked payload.
        selection: RankedSelection,
        /// The traced run's profile (JSON rendering of
        /// [`cvcp_engine::GraphProfile`]), present only when the request
        /// asked for tracing (`"trace": true`).
        profile: Option<Json>,
    },
    /// A structured failure.
    Error {
        /// Echo of the request id, when one was parsed.
        id: Option<String>,
        /// The failure.
        error: WireError,
    },
    /// Statistics snapshot.
    Stats(StatsSnapshot),
    /// Engine metrics snapshot.
    Metrics(MetricsPayload),
    /// Version-negotiation answer: the granted protocol version and the
    /// connection's limits.
    HelloAck {
        /// The granted protocol version (`min(requested, 2)`).
        version: u64,
        /// Selections this connection may have queued or running at once
        /// (v2; a v1 connection carries one request by construction).
        max_in_flight: usize,
        /// Longest accepted request line, in bytes; longer frames are
        /// rejected with a `frame_too_large` error.
        max_frame_bytes: usize,
    },
    /// Liveness answer.
    Pong,
    /// Shutdown acknowledgement (the listener stops after sending it).
    ShutdownAck,
}

impl Response {
    /// Serialises the response to its JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Progress {
                id,
                param,
                score,
                completed,
                total,
            } => Json::obj([
                ("type", "progress".to_json()),
                ("id", id.to_json()),
                ("param", param.to_json()),
                ("score", score.to_json()),
                ("completed", completed.to_json()),
                ("total", total.to_json()),
            ]),
            Response::Result {
                id,
                selection,
                profile,
            } => {
                let mut fields = vec![
                    ("type", "result".to_json()),
                    ("id", id.to_json()),
                    ("best_param", selection.best_param.to_json()),
                    ("best_score", selection.best_score.to_json()),
                    ("ranking", entries_to_json(&selection.ranking)),
                    ("evaluations", entries_to_json(&selection.evaluations)),
                ];
                if let Some(profile) = profile {
                    fields.push(("profile", profile.clone()));
                }
                Json::obj(fields)
            }
            Response::Error { id, error } => Json::obj([
                ("type", "error".to_json()),
                ("id", id.clone().to_json()),
                ("code", error.code.to_json()),
                ("message", error.message.to_json()),
            ]),
            Response::Stats(stats) => Json::obj([
                ("type", "stats".to_json()),
                (
                    "cache",
                    Json::obj([
                        ("hits", stats.cache.hits.to_json()),
                        ("misses", stats.cache.misses.to_json()),
                        ("hit_rate", stats.cache.hit_rate().to_json()),
                        ("evictions", stats.cache.evictions.to_json()),
                        ("evicted_bytes", stats.cache.evicted_bytes.to_json()),
                        ("resident_entries", stats.cache.resident_entries.to_json()),
                        ("resident_bytes", stats.cache.resident_bytes.to_json()),
                        (
                            "peak_resident_bytes",
                            stats.cache.peak_resident_bytes.to_json(),
                        ),
                    ]),
                ),
                (
                    "queue",
                    Json::obj([
                        ("depth", stats.queue_depth.to_json()),
                        ("interactive_depth", stats.queue_interactive.to_json()),
                        ("batch_depth", stats.queue_batch.to_json()),
                        ("capacity", stats.queue_capacity.to_json()),
                        ("admission_wait", summaries_to_json(&stats.queue_wait)),
                        ("workers", stats.workers.to_json()),
                    ]),
                ),
                (
                    "requests",
                    Json::obj([
                        ("received", stats.requests.received.to_json()),
                        ("completed", stats.requests.completed.to_json()),
                        ("cancelled", stats.requests.cancelled.to_json()),
                        ("rejected", stats.requests.rejected.to_json()),
                        ("failed", stats.requests.failed.to_json()),
                    ]),
                ),
                (
                    "connections",
                    Json::obj([
                        ("open", stats.connections.open.to_json()),
                        ("idle", stats.connections.idle.to_json()),
                        ("active", stats.connections.active.to_json()),
                        (
                            "in_flight_requests",
                            stats.connections.in_flight_requests.to_json(),
                        ),
                    ]),
                ),
                (
                    "event_loop",
                    Json::obj([
                        ("wakes", stats.event_loop.wakes.to_json()),
                        ("polls", stats.event_loop.polls.to_json()),
                        (
                            "polls_with_bytes",
                            stats.event_loop.polls_with_bytes.to_json(),
                        ),
                    ]),
                ),
                (
                    "engine",
                    Json::obj([("threads", stats.engine_threads.to_json())]),
                ),
            ]),
            Response::Metrics(metrics) => {
                let mut engine = vec![
                    ("threads", metrics.engine_threads.to_json()),
                    ("pool_workers", metrics.pool_workers.to_json()),
                    ("graphs_submitted", metrics.graphs_submitted.to_json()),
                    ("job_run", summaries_to_json(&metrics.job_run)),
                    (
                        "graph_queue_wait",
                        summaries_to_json(&metrics.graph_queue_wait),
                    ),
                    ("steal_ratio", metrics.steal_ratio.to_json()),
                    (
                        "workers",
                        Json::Arr(
                            metrics
                                .workers
                                .iter()
                                .map(|w| {
                                    Json::obj([
                                        ("worker", w.worker.to_json()),
                                        ("tasks", w.tasks.to_json()),
                                        ("busy_ns", w.busy_ns.to_json()),
                                        ("steals", w.steals.to_json()),
                                        ("empty_pickups", w.empty_pickups.to_json()),
                                        ("parks", w.parks.to_json()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "waiting_threads",
                        Json::obj([
                            ("jobs", metrics.waiting_threads.jobs.to_json()),
                            ("busy_ns", metrics.waiting_threads.busy_ns.to_json()),
                        ]),
                    ),
                ];
                engine.push((
                    "cache_kinds",
                    Json::Arr(
                        metrics
                            .cache_kinds
                            .iter()
                            .map(|k| {
                                Json::obj([
                                    ("kind", k.kind.to_json()),
                                    ("get", summary_to_json(&k.get)),
                                    ("compute", summary_to_json(&k.compute)),
                                ])
                            })
                            .collect(),
                    ),
                ));
                let mut fields = vec![
                    ("type", "metrics".to_json()),
                    ("engine", Json::obj(engine)),
                    (
                        "queue",
                        Json::obj([(
                            "admission_wait",
                            summaries_to_json(&metrics.queue_admission_wait),
                        )]),
                    ),
                ];
                if let Some(profile) = &metrics.last_profile {
                    fields.push(("last_profile", profile.clone()));
                }
                Json::obj(fields)
            }
            Response::HelloAck {
                version,
                max_in_flight,
                max_frame_bytes,
            } => Json::obj([
                ("type", "hello_ack".to_json()),
                ("version", version.to_json()),
                ("max_in_flight", max_in_flight.to_json()),
                ("max_frame_bytes", max_frame_bytes.to_json()),
            ]),
            Response::Pong => Json::obj([("type", "pong".to_json())]),
            Response::ShutdownAck => Json::obj([("type", "shutdown_ack".to_json())]),
        }
    }

    /// Serialises the response as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().compact()
    }

    /// Parses one response line (the client side of the codec).
    pub fn from_line(line: &str) -> Result<Response, WireError> {
        let doc = Json::parse(line.trim())
            .map_err(|e| WireError::new("parse_error", format!("malformed JSON: {e}")))?;
        let kind = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::new("invalid_request", "missing string field \"type\""))?;
        match kind {
            "progress" => Ok(Response::Progress {
                id: require_str(&doc, "id")?,
                param: require_usize(&doc, "param")?,
                score: require_f64(&doc, "score")?,
                completed: require_usize(&doc, "completed")?,
                total: require_usize(&doc, "total")?,
            }),
            "result" => Ok(Response::Result {
                id: require_str(&doc, "id")?,
                selection: RankedSelection {
                    best_param: require_usize(&doc, "best_param")?,
                    best_score: require_f64(&doc, "best_score")?,
                    ranking: entries_from_json(require(&doc, "ranking")?)?,
                    evaluations: entries_from_json(require(&doc, "evaluations")?)?,
                },
                profile: match doc.get("profile") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.clone()),
                },
            }),
            "error" => Ok(Response::Error {
                id: match doc.get("id") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_str().map(str::to_string).ok_or_else(|| {
                        WireError::new("invalid_request", "field \"id\" must be a string")
                    })?),
                },
                error: WireError {
                    code: require_str(&doc, "code")?,
                    message: require_str(&doc, "message")?,
                },
            }),
            "stats" => {
                let cache = require(&doc, "cache")?;
                let queue = require(&doc, "queue")?;
                let requests = require(&doc, "requests")?;
                let connections = require(&doc, "connections")?;
                let event_loop = require(&doc, "event_loop")?;
                let engine = require(&doc, "engine")?;
                Ok(Response::Stats(StatsSnapshot {
                    cache: CacheStats {
                        hits: require_u64(cache, "hits")?,
                        misses: require_u64(cache, "misses")?,
                        evictions: require_u64(cache, "evictions")?,
                        evicted_bytes: require_u64(cache, "evicted_bytes")?,
                        resident_entries: require_usize(cache, "resident_entries")?,
                        resident_bytes: require_usize(cache, "resident_bytes")?,
                        peak_resident_bytes: require_usize(cache, "peak_resident_bytes")?,
                    },
                    queue_depth: require_usize(queue, "depth")?,
                    queue_interactive: require_usize(queue, "interactive_depth")?,
                    queue_batch: require_usize(queue, "batch_depth")?,
                    queue_capacity: require_usize(queue, "capacity")?,
                    queue_wait: summaries_from_json(
                        require(queue, "admission_wait")?,
                        "admission_wait",
                    )?,
                    workers: require_usize(queue, "workers")?,
                    engine_threads: require_usize(engine, "threads")?,
                    requests: RequestStats {
                        received: require_u64(requests, "received")?,
                        completed: require_u64(requests, "completed")?,
                        cancelled: require_u64(requests, "cancelled")?,
                        rejected: require_u64(requests, "rejected")?,
                        failed: require_u64(requests, "failed")?,
                    },
                    connections: ConnectionGauges {
                        open: require_usize(connections, "open")?,
                        idle: require_usize(connections, "idle")?,
                        active: require_usize(connections, "active")?,
                        in_flight_requests: require_usize(connections, "in_flight_requests")?,
                    },
                    event_loop: EventLoopStats {
                        wakes: require_u64(event_loop, "wakes")?,
                        polls: require_u64(event_loop, "polls")?,
                        polls_with_bytes: require_u64(event_loop, "polls_with_bytes")?,
                    },
                }))
            }
            "metrics" => {
                let engine = require(&doc, "engine")?;
                let queue = require(&doc, "queue")?;
                let workers = engine
                    .get("workers")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| {
                        WireError::new("invalid_request", "field \"workers\" must be an array")
                    })?
                    .iter()
                    .map(|w| {
                        Ok(WorkerMetrics {
                            worker: require_usize(w, "worker")?,
                            tasks: require_u64(w, "tasks")?,
                            busy_ns: require_u64(w, "busy_ns")?,
                            steals: require_u64(w, "steals")?,
                            empty_pickups: require_u64(w, "empty_pickups")?,
                            parks: require_u64(w, "parks")?,
                        })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                let waiting = require(engine, "waiting_threads")?;
                let waiting_threads = WaitingMetrics {
                    jobs: require_u64(waiting, "jobs")?,
                    busy_ns: require_u64(waiting, "busy_ns")?,
                };
                let cache_kinds = engine
                    .get("cache_kinds")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| {
                        WireError::new("invalid_request", "field \"cache_kinds\" must be an array")
                    })?
                    .iter()
                    .map(|k| {
                        Ok(KindLatencyMetrics {
                            kind: require_str(k, "kind")?,
                            get: summary_from_json(require(k, "get")?)?,
                            compute: summary_from_json(require(k, "compute")?)?,
                        })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                let graphs_submitted = engine
                    .get("graphs_submitted")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| {
                        WireError::new(
                            "invalid_request",
                            "field \"graphs_submitted\" must be an array",
                        )
                    })?
                    .iter()
                    .map(|v| {
                        v.as_u64().ok_or_else(|| {
                            WireError::new(
                                "invalid_request",
                                "field \"graphs_submitted\" must contain integers",
                            )
                        })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                Ok(Response::Metrics(MetricsPayload {
                    engine_threads: require_usize(engine, "threads")?,
                    pool_workers: require_usize(engine, "pool_workers")?,
                    graphs_submitted,
                    job_run: summaries_from_json(require(engine, "job_run")?, "job_run")?,
                    graph_queue_wait: summaries_from_json(
                        require(engine, "graph_queue_wait")?,
                        "graph_queue_wait",
                    )?,
                    workers,
                    waiting_threads,
                    steal_ratio: require_f64(engine, "steal_ratio")?,
                    cache_kinds,
                    queue_admission_wait: summaries_from_json(
                        require(queue, "admission_wait")?,
                        "admission_wait",
                    )?,
                    last_profile: match doc.get("last_profile") {
                        None | Some(Json::Null) => None,
                        Some(v) => Some(v.clone()),
                    },
                }))
            }
            "hello_ack" => Ok(Response::HelloAck {
                version: require_u64(&doc, "version")?,
                max_in_flight: require_usize(&doc, "max_in_flight")?,
                max_frame_bytes: require_usize(&doc, "max_frame_bytes")?,
            }),
            "pong" => Ok(Response::Pong),
            "shutdown_ack" => Ok(Response::ShutdownAck),
            other => Err(WireError::new(
                "unknown_type",
                format!("unknown response type {other:?}"),
            )),
        }
    }
}

fn require_usize(doc: &Json, field: &str) -> Result<usize, WireError> {
    require(doc, field)?.as_usize().ok_or_else(|| {
        WireError::new(
            "invalid_request",
            format!("field {field:?} must be a non-negative integer"),
        )
    })
}

fn require_u64(doc: &Json, field: &str) -> Result<u64, WireError> {
    require(doc, field)?.as_u64().ok_or_else(|| {
        WireError::new(
            "invalid_request",
            format!("field {field:?} must be a non-negative integer"),
        )
    })
}

fn entries_to_json(entries: &[RankedEntry]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|e| Json::obj([("param", e.param.to_json()), ("score", e.score.to_json())]))
            .collect(),
    )
}

fn entries_from_json(doc: &Json) -> Result<Vec<RankedEntry>, WireError> {
    let items = doc
        .as_arr()
        .ok_or_else(|| WireError::new("invalid_request", "ranking fields must be arrays"))?;
    items
        .iter()
        .map(|item| {
            Ok(RankedEntry {
                param: require_usize(item, "param")?,
                score: require_f64(item, "score")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> SelectionRequest {
        SelectionRequest {
            id: "req-7".into(),
            dataset: "aloi:3".into(),
            algorithm: Algorithm::MpckMeans,
            params: vec![2, 3, 4],
            side_info: SideInfoSpec::ConstraintSample {
                pool_fraction: 0.1,
                sample_fraction: 0.5,
            },
            n_folds: 5,
            stratified: true,
            seed: 99,
            priority: None,
            trace: false,
        }
    }

    #[test]
    fn select_request_round_trips() {
        let req = Request::Select(sample_request());
        let line = req.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Request::from_line(&line).unwrap(), req);
    }

    #[test]
    fn priority_round_trips_and_rejects_unknown_lanes() {
        // An explicit lane survives the round trip…
        for priority in [Priority::Interactive, Priority::Batch] {
            let mut request = sample_request();
            request.priority = Some(priority);
            let line = Request::Select(request.clone()).to_line();
            assert!(line.contains(&format!("\"priority\":\"{}\"", priority.name())));
            assert_eq!(Request::from_line(&line).unwrap(), Request::Select(request));
        }
        // …absence stays absent (server default applies)…
        let line = Request::Select(sample_request()).to_line();
        assert!(!line.contains("priority"));
        // …and unknown lane names are structured errors.
        let bad = r#"{"type":"select","dataset":"iris_like","algorithm":"fosc","side_info":{"kind":"labels","fraction":0.2},"priority":"turbo"}"#;
        let err = Request::from_line(bad).unwrap_err();
        assert_eq!(err.code, "invalid_request");
        assert!(err.message.contains("turbo"));
    }

    #[test]
    fn hello_round_trips_and_malformed_hello_is_unsupported_version() {
        // The negotiation opener survives the round trip…
        for version in [1u64, 2, 7] {
            let req = Request::Hello { version };
            let line = req.to_line();
            assert_eq!(line, format!("{{\"hello\":{{\"version\":{version}}}}}"));
            assert_eq!(Request::from_line(&line).unwrap(), req);
        }
        // …a version 0 hello parses (the server rejects it at the
        // connection layer, not the codec)…
        assert_eq!(
            Request::from_line(r#"{"hello":{"version":0}}"#).unwrap(),
            Request::Hello { version: 0 }
        );
        // …and a hello without a usable version is a structured error.
        for bad in [
            r#"{"hello":{}}"#,
            r#"{"hello":{"version":"two"}}"#,
            r#"{"hello":{"version":-1}}"#,
            r#"{"hello":true}"#,
        ] {
            let err = Request::from_line(bad).unwrap_err();
            assert_eq!(err.code, "unsupported_version", "for {bad:?}");
        }
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ] {
            assert_eq!(Request::from_line(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn trace_flag_round_trips_and_defaults_off() {
        // Tracing is strictly opt-in: the default is absent on the wire…
        let line = Request::Select(sample_request()).to_line();
        assert!(!line.contains("trace"));
        // …an explicit request round-trips…
        let mut request = sample_request();
        request.trace = true;
        let line = Request::Select(request.clone()).to_line();
        assert!(line.contains("\"trace\":true"));
        assert_eq!(Request::from_line(&line).unwrap(), Request::Select(request));
        // …and non-boolean values are structured errors.
        let bad = r#"{"type":"select","dataset":"iris_like","algorithm":"fosc","side_info":{"kind":"labels","fraction":0.2},"trace":"yes"}"#;
        assert_eq!(Request::from_line(bad).unwrap_err().code, "invalid_request");
    }

    #[test]
    fn missing_fields_are_invalid_not_panics() {
        for bad in [
            "{}",
            r#"{"type":"select"}"#,
            r#"{"type":"select","dataset":"iris_like"}"#,
            r#"{"type":"select","dataset":"iris_like","algorithm":"kmeans","side_info":{"kind":"labels","fraction":0.1}}"#,
            r#"{"type":"select","dataset":5,"algorithm":"fosc","side_info":{"kind":"labels","fraction":0.1}}"#,
            r#"{"type":"select","dataset":"iris_like","algorithm":"fosc","side_info":{"kind":"lab"}}"#,
            r#"{"type":"select","dataset":"iris_like","algorithm":"fosc","side_info":{"kind":"labels","fraction":0.1},"params":[1,-2]}"#,
            r#"{"type":"wat"}"#,
            "not json at all",
        ] {
            let err = Request::from_line(bad).unwrap_err();
            assert!(
                ["parse_error", "invalid_request", "unknown_type"].contains(&err.code.as_str()),
                "unexpected code {} for {bad:?}",
                err.code
            );
        }
    }

    #[test]
    fn optional_fields_take_defaults() {
        let line = r#"{"type":"select","dataset":"iris_like","algorithm":"fosc","side_info":{"kind":"labels","fraction":0.2}}"#;
        let Request::Select(req) = Request::from_line(line).unwrap() else {
            panic!("expected select");
        };
        assert_eq!(req.id, "");
        assert!(req.params.is_empty());
        assert_eq!(req.n_folds, 5);
        assert!(req.stratified);
        assert_eq!(req.seed, 0);
        assert_eq!(req.priority, None);
    }

    #[test]
    fn ranked_selection_sorts_stably_best_first() {
        let selection = CvcpSelection {
            best_param: 6,
            best_score: 0.9,
            evaluations: vec![
                cvcp_core::crossval::ParameterEvaluation {
                    param: 3,
                    score: 0.9,
                    folds: vec![],
                },
                cvcp_core::crossval::ParameterEvaluation {
                    param: 6,
                    score: 0.9,
                    folds: vec![],
                },
                cvcp_core::crossval::ParameterEvaluation {
                    param: 9,
                    score: 0.2,
                    folds: vec![],
                },
            ],
        };
        // NB: best_param above is deliberately the *second* tied candidate
        // to document that ranking order is independent of it.
        let ranked = RankedSelection::from_selection(&selection);
        let order: Vec<usize> = ranked.ranking.iter().map(|e| e.param).collect();
        assert_eq!(
            order,
            vec![3, 6, 9],
            "stable sort keeps tied candidate order"
        );
        assert_eq!(ranked.evaluations.len(), 3);
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Progress {
                id: "a".into(),
                param: 3,
                score: 0.8125,
                completed: 1,
                total: 8,
            },
            Response::Result {
                id: "a".into(),
                selection: RankedSelection {
                    best_param: 9,
                    best_score: 0.75,
                    ranking: vec![RankedEntry {
                        param: 9,
                        score: 0.75,
                    }],
                    evaluations: vec![RankedEntry {
                        param: 9,
                        score: 0.75,
                    }],
                },
                profile: None,
            },
            Response::Result {
                id: "traced".into(),
                selection: RankedSelection {
                    best_param: 3,
                    best_score: 0.5,
                    ranking: vec![RankedEntry {
                        param: 3,
                        score: 0.5,
                    }],
                    evaluations: vec![RankedEntry {
                        param: 3,
                        score: 0.5,
                    }],
                },
                profile: Some(Json::obj([
                    ("graph", "traced".to_json()),
                    ("parallelism", 2.5.to_json()),
                ])),
            },
            Response::Error {
                id: None,
                error: WireError::new("queue_full", "32 requests already queued"),
            },
            Response::Error {
                id: Some("b".into()),
                error: WireError::new("cancelled", "client disconnected"),
            },
            Response::Stats(StatsSnapshot {
                cache: CacheStats {
                    hits: 10,
                    misses: 3,
                    evictions: 1,
                    evicted_bytes: 4096,
                    resident_entries: 2,
                    resident_bytes: 1234,
                    peak_resident_bytes: 5000,
                },
                queue_depth: 1,
                queue_interactive: 1,
                queue_batch: 0,
                queue_capacity: 32,
                queue_wait: vec![
                    HistogramSummary {
                        count: 4,
                        mean_ns: 1500,
                        p50_ns: 1023,
                        p90_ns: 4095,
                        p99_ns: 4095,
                        max_ns: 3999,
                    },
                    HistogramSummary::default(),
                ],
                workers: 2,
                engine_threads: 8,
                requests: RequestStats {
                    received: 5,
                    completed: 3,
                    cancelled: 1,
                    rejected: 1,
                    failed: 0,
                },
                connections: ConnectionGauges {
                    open: 17,
                    idle: 15,
                    active: 2,
                    in_flight_requests: 3,
                },
                event_loop: EventLoopStats {
                    wakes: 62,
                    polls: 31_000,
                    polls_with_bytes: 7,
                },
            }),
            Response::HelloAck {
                version: 2,
                max_in_flight: 32,
                max_frame_bytes: 1 << 20,
            },
            Response::Pong,
            Response::ShutdownAck,
        ];
        for response in responses {
            let line = response.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Response::from_line(&line).unwrap(), response, "{line}");
        }
    }

    #[test]
    fn metrics_response_round_trips() {
        let summary = HistogramSummary {
            count: 12,
            mean_ns: 2048,
            p50_ns: 2047,
            p90_ns: 8191,
            p99_ns: 8191,
            max_ns: 8000,
        };
        for last_profile in [
            None,
            Some(Json::obj([
                ("graph", "req-7".to_json()),
                ("critical_path_us", 1234.5.to_json()),
            ])),
        ] {
            let response = Response::Metrics(MetricsPayload {
                engine_threads: 4,
                pool_workers: 4,
                graphs_submitted: vec![3, 1],
                job_run: vec![summary, HistogramSummary::default()],
                graph_queue_wait: vec![summary, HistogramSummary::default()],
                workers: vec![
                    WorkerMetrics {
                        worker: 0,
                        tasks: 40,
                        busy_ns: 9_000_000,
                        steals: 3,
                        empty_pickups: 11,
                        parks: 7,
                    },
                    WorkerMetrics {
                        worker: 1,
                        tasks: 38,
                        busy_ns: 8_500_000,
                        steals: 5,
                        empty_pickups: 12,
                        parks: 9,
                    },
                ],
                waiting_threads: WaitingMetrics {
                    jobs: 57,
                    busy_ns: 7_250_000,
                },
                steal_ratio: 0.1025390625,
                cache_kinds: vec![KindLatencyMetrics {
                    kind: "pairwise_distances".into(),
                    get: summary,
                    compute: HistogramSummary::default(),
                }],
                queue_admission_wait: vec![summary, HistogramSummary::default()],
                last_profile,
            });
            let line = response.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Response::from_line(&line).unwrap(), response, "{line}");
        }
    }
}
