//! # cvcp-obs
//!
//! Std-only observability primitives for the CVCP execution engine: the
//! instruments that make "4 workers are slower than 1" diagnosable instead
//! of mysterious.
//!
//! Three layers, cheapest first:
//!
//! * [`LogHistogram`] / [`HistogramSnapshot`] — always-on, lock-free
//!   log-bucketed latency histograms with deterministic merge and
//!   p50/p90/p99 queries;
//! * [`EngineMetrics`] — the engine-wide registry of those histograms plus
//!   per-worker busy/steal/park counters, shared by the pool, the graph
//!   executor, and the serving front-end's `metrics` endpoint;
//! * [`SpanRecorder`] / [`GraphTrace`] / [`GraphProfile`] — opt-in
//!   per-graph span recording into lock-light per-worker buffers, and the
//!   critical-path + utilization analysis computed from the result.
//!
//! This crate sits *below* `cvcp-engine` in the dependency order and has
//! no dependencies of its own; anything that needs JSON rendering (Chrome
//! `trace_event` export, wire payloads) lives upstream in `cvcp-core` and
//! `cvcp-server`, next to the workspace's in-tree JSON emitter.
//!
//! Everything here is timing-only: no instrument reads or advances any
//! RNG stream (jobs derive theirs from their own inputs), so enabling
//! metrics or tracing can never change a selection result.

pub mod hist;
pub mod lock_rank;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use hist::{HistogramSnapshot, LogHistogram, N_BUCKETS};
pub use lock_rank::{LockRank, RankedCondvar, RankedMutex, RankedMutexGuard};
pub use metrics::{EngineMetrics, Gauge, MetricsSnapshot, WaitingSnapshot, WorkerSnapshot};
pub use profile::{GraphProfile, WorkerOccupancy};
pub use trace::{GraphTrace, JobSpan, SpanRecorder};
