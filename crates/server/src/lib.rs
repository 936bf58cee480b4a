//! # cvcp-server
//!
//! A network serving front-end over the CVCP execution engine: a std-only
//! TCP server speaking newline-delimited JSON that turns model-selection
//! requests into job DAGs on a shared [`Engine`](cvcp_engine::Engine) and
//! streams per-parameter progress followed by a final ranked selection.
//!
//! The value proposition is the shared engine: every request served by one
//! process multiplexes over one worker pool and one content-keyed
//! [`ArtifactCache`](cvcp_engine::ArtifactCache), so concurrent selections
//! on the same replicas reuse each other's distance matrices, density
//! hierarchies and seeding structures — the serving traffic *is* what
//! makes the cache pay.
//!
//! ## Protocol (one JSON object per line, both directions)
//!
//! | request                        | response stream                           |
//! |--------------------------------|-------------------------------------------|
//! | `{"hello":{"version":2}}`      | `hello_ack` (granted version + limits)     |
//! | `{"type":"select", …}`         | `progress`* then `result` (or `error`)     |
//! | `{"type":"stats"}`             | `stats` (cache, queue, connections,        |
//! |                                | request and event-loop counters)           |
//! | `{"type":"metrics"}`           | `metrics` (latency histograms, workers,    |
//! |                                | cache latencies, last traced profile)      |
//! | `{"type":"ping"}`              | `pong`                                     |
//! | `{"type":"shutdown"}`          | `shutdown_ack`, then the server stops      |
//!
//! A `select` request names a replica (`dataset`), an algorithm family
//! (`fosc` / `mpck`), a candidate grid (`params`), the side-information
//! draw (`side_info`), the fold count and a `seed`.  The streamed result
//! is **bit-identical** to running
//! [`select_model_with`](cvcp_core::select_model_with) in-process on the
//! same request — the contract the smoke tests assert end-to-end.
//!
//! Connections are served by a single readiness event loop rather than a
//! thread each, so open connections cost buffers, not threads.  A
//! connection's first line selects its protocol version (the full matrix
//! lives in [`protocol`]): without a hello it speaks **v1** — one
//! request, one response stream, then the server closes it — exactly
//! what pre-v2 clients expect.  After `{"hello":{"version":2}}` it is
//! **v2**: persistent and pipelined, any number of requests in flight at
//! once (up to `CVCP_MAX_IN_FLIGHT`), responses correlated by their
//! echoed `"id"`.  The [`client::Connection`] handle wraps the client
//! side of both.
//!
//! In either version, disconnecting while selections are queued or
//! running cancels their job DAGs (observable in the `stats` counters);
//! a full request queue answers `queue_full` immediately instead of
//! blocking.
//!
//! Requests may carry an optional `"priority"` field (`"interactive"` /
//! `"batch"`, default interactive): the request queue and the engine's
//! worker pool both drain the interactive lane first, so a
//! latency-sensitive selection overtakes queued batch work — at the queue
//! *and* at the job level, while a batch graph is already in flight.  The
//! lane never changes results.
//!
//! Requests may also carry `"trace": true` to run traced: the `result`
//! then includes a `"profile"` object (critical path, per-worker
//! occupancy, steal ratio), and when the server was started with
//! `CVCP_TRACE_DIR` a Chrome `trace_event` file named after the request
//! id is written there.  Tracing never changes the selection itself.
//!
//! ```no_run
//! use cvcp_engine::Engine;
//! use cvcp_server::{Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::new(4));
//! let server = Server::start(&ServerConfig::from_env(), engine).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.wait(); // until a client sends {"type":"shutdown"}
//! ```

#![warn(missing_docs)]

pub mod client;
mod event_loop;
pub mod protocol;
pub mod queue;
mod server;

pub use client::Connection;
pub use protocol::{
    ConnectionGauges, EventLoopStats, HistogramSummary, KindLatencyMetrics, MetricsPayload,
    RankedEntry, RankedSelection, Request, RequestStats, Response, StatsSnapshot, WaitingMetrics,
    WireError, WorkerMetrics,
};
pub use queue::{BoundedQueue, PushError};
pub use server::{Server, ServerConfig};
