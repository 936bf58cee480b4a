//! # cvcp-engine
//!
//! A deterministic, cache-aware parallel execution engine for CVCP model
//! selection (and any similarly shaped grid workload).
//!
//! CVCP scores every candidate parameter by n-fold cross-validation over
//! side information — an embarrassingly parallel grid of (parameter × fold
//! × replica) jobs that shares expensive intermediates (pairwise distance
//! matrices, per-`MinPts` density hierarchies, fold closures) across most
//! of the grid.  This crate provides the three pieces that turn that grid
//! into hardware-speed throughput:
//!
//! * [`Engine`] — [`Engine::run_graph`] is the one way to run a graph: the
//!   calling thread runs the graph's ready jobs, keeping one for itself
//!   and queueing a token for each of the rest, and a thread pool over
//!   `std::thread` helps by pulling tokens from one locked two-lane queue
//!   (interactive before batch, FIFO within a lane).  One thread means the
//!   calling thread runs the whole graph, in ascending job order (the
//!   sequential path).  The engine hands jobs no randomness: a job that
//!   needs it derives its stream from its own inputs, so any thread count
//!   produces **bit-identical results**.
//! * [`JobGraph`] — a request is modelled as a job DAG: artifact jobs feed
//!   evaluation jobs feed a reduction job.  Failed jobs skip their
//!   dependents without poisoning the pool; a graph is cancelled through
//!   the [`CancelToken`] bound to it.
//! * [`ArtifactCache`] — a content-keyed, concurrency-deduplicated store so
//!   each artifact is computed once and shared (`Arc`) across folds,
//!   trials and concurrent requests.  It also holds the data-set replicas
//!   that served requests name, keyed by the data set a name resolves to
//!   and the seed ([`ArtifactKey::Replica`]).  One lock guards an O(1) slab LRU,
//!   and a [`CacheConfig`] bounds the resident bytes/entries, so long-lived
//!   serving engines run within a fixed memory budget without ever
//!   changing results.
//!
//! Graphs run concurrently over one pool, each also on its own waiting
//! thread; the serving front-end multiplexes its selection requests this
//! way, one selection worker per running request.
//!
//! ```
//! use cvcp_engine::{Engine, JobGraph};
//!
//! let engine = Engine::new(4);
//! let mut graph: JobGraph<f64> = JobGraph::new();
//! let artifact = graph.add_job(&[], |_ctx| 21.0);
//! graph.add_job(&[artifact], |ctx| {
//!     // dependencies are guaranteed to have run; the context carries the
//!     // engine's artifact cache
//!     let _cache = ctx.cache();
//!     2.0
//! });
//! let values = engine.run_graph(graph).expect_all("demo");
//! assert_eq!(values[0] * values[1], 42.0);
//! ```

#![warn(missing_docs)]

pub mod cache;
mod engine;
pub mod graph;
mod pool;

pub use cache::{
    fingerprint_matrix, ArtifactCache, ArtifactKey, ArtifactSize, CacheConfig, CacheStats,
    Fingerprint, FingerprintBuilder, KindLatencySnapshot,
};
pub use engine::Engine;
pub use graph::{CancelToken, GraphResult, JobCtx, JobGraph, JobId, JobOutcome, Priority, N_LANES};

// The observability vocabulary (histograms, metrics snapshots, traces,
// profiles) is re-exported whole so downstream crates need no direct
// `cvcp-obs` dependency.
pub use cvcp_obs as obs;
pub use cvcp_obs::{
    EngineMetrics, GraphProfile, GraphTrace, HistogramSnapshot, JobSpan, MetricsSnapshot,
    SpanRecorder, WaitingSnapshot, WorkerOccupancy, WorkerSnapshot,
};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cache::{ArtifactCache, ArtifactKey, ArtifactSize, CacheConfig};
    pub use crate::engine::Engine;
    pub use crate::graph::{CancelToken, JobCtx, JobGraph, Priority};
}
