//! `serve` — the CVCP model-selection server.
//!
//! Binds `CVCP_ADDR` (default `127.0.0.1:7878`) and serves newline-
//! delimited JSON selection requests over one shared, cache-bounded
//! engine, configured through the same environment knobs as the
//! experiment binaries:
//!
//! * `CVCP_THREADS` — engine worker threads (default: hardware);
//! * `CVCP_CACHE_MAX_MB` / `CVCP_CACHE_MAX_ENTRIES` — artifact-cache
//!   budget (default: unbounded);
//! * `CVCP_ADDR` — listen address;
//! * `CVCP_QUEUE_DEPTH` — request queue capacity (default 32);
//! * `CVCP_SERVER_WORKERS` — concurrent selection workers (default 2);
//! * `CVCP_DEFAULT_PRIORITY` — scheduling lane for requests without an
//!   explicit `"priority"` field: `interactive` (default) or `batch`;
//! * `CVCP_MAX_CONNECTIONS` — open-connection cap; connections beyond it
//!   are refused with `server_busy` (default 1024);
//! * `CVCP_MAX_IN_FLIGHT` — per-connection pipelining cap for v2
//!   connections, advertised in the `hello_ack` (default 32);
//! * `CVCP_TRACE_DIR` — when set, every served selection runs traced and
//!   its Chrome `trace_event` file (`<request-id>.trace.json`, loadable
//!   in Perfetto / `about:tracing`) is written into that directory.
//!
//! Connections are served by a single readiness event loop: clients that
//! open with `{"hello":{"version":2}}` get a persistent, pipelined
//! connection (responses correlated by request id); clients that send a
//! bare request speak the original one-request-per-connection v1.
//!
//! Drive it with the `cvcp-client` example of `cvcp-server`, e.g.:
//!
//! ```text
//! cargo run --release -p cvcp-experiments --bin serve &
//! cargo run --release -p cvcp-server --example cvcp-client -- \
//!     --mode select --algorithm fosc --dataset aloi:0 --params 3,6,9
//! ```
//!
//! The process runs until a client sends `{"type":"shutdown"}`.

use cvcp_experiments::engine_from_env;
use cvcp_server::{Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let engine = Arc::new(engine_from_env());
    let config = ServerConfig::from_env();
    let server = match Server::start(&config, Arc::clone(&engine)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "cvcp-server listening on {} ({} engine threads, {} workers, queue depth {}, \
         default priority {})",
        server.local_addr(),
        engine.n_threads(),
        config.workers,
        config.queue_depth,
        config.default_priority.name(),
    );
    println!(
        "protocol: v1 (one-shot) and v2 (pipelined); up to {} connections, \
         {} in-flight requests per v2 connection",
        config.max_connections, config.max_in_flight,
    );
    let cache = engine.cache().config();
    match (cache.max_bytes, cache.max_entries) {
        (None, None) => println!("artifact cache: unbounded"),
        (bytes, entries) => println!(
            "artifact cache: max_bytes={} max_entries={}",
            bytes.map_or("-".to_string(), |b| format!("{}MiB", b / (1024 * 1024))),
            entries.map_or("-".to_string(), |e| e.to_string()),
        ),
    }
    if let Some(dir) = &config.trace_dir {
        println!(
            "tracing: every selection traced, files under {}",
            dir.display()
        );
    }
    server.wait();
    println!("cvcp-server shut down");
    ExitCode::SUCCESS
}
