//! The event loop's poll budget, read from its `stats` counters: quiet
//! connections are polled at the slow rate, and one busy connection does
//! not make the loop poll the quiet ones faster.
//!
//! The bounds are upper bounds only: a loaded host polls less, not more.

use cvcp_core::Engine;
use cvcp_server::client::Connection;
use cvcp_server::{EventLoopStats, Request, Response, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUIET_CONNECTIONS: usize = 500;
/// Longer than a connection takes to back off to the slowest poll rate.
const SETTLE: Duration = Duration::from_millis(300);
const WINDOW: Duration = Duration::from_secs(1);
const PING_EVERY: Duration = Duration::from_millis(5);
/// Polls per quiet connection per second; the slow tick gives 62.5.
const QUIET_POLLS_PER_S: f64 = 100.0;
/// Polls per second one busy connection may add.
const BUSY_POLLS_PER_S: f64 = 10_000.0;

/// Polls per second between two counter readings.
fn poll_rate(before: EventLoopStats, after: EventLoopStats, elapsed: Duration) -> f64 {
    (after.polls - before.polls) as f64 / elapsed.as_secs_f64()
}

#[test]
fn quiet_connections_are_polled_at_the_slow_rate() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_connections: QUIET_CONNECTIONS + 8,
        ..ServerConfig::default()
    };
    let server = Server::start(&config, Arc::new(Engine::sequential())).expect("bind loopback");
    let quiet: Vec<Connection> = (0..QUIET_CONNECTIONS)
        .map(|i| {
            Connection::connect(server.local_addr())
                .unwrap_or_else(|e| panic!("handshake {i} failed: {e}"))
        })
        .collect();
    std::thread::sleep(SETTLE);

    let (before, start) = (server.stats().event_loop, Instant::now());
    std::thread::sleep(WINDOW);
    let (after, elapsed) = (server.stats().event_loop, start.elapsed());
    let rate = poll_rate(before, after, elapsed);
    let bound = QUIET_POLLS_PER_S * QUIET_CONNECTIONS as f64;
    assert!(
        rate <= bound,
        "{QUIET_CONNECTIONS} quiet connections were polled {rate:.0} times a second \
         (bound {bound:.0}; {before:?} -> {after:?})"
    );

    // One more connection pings every 5 ms: each ping is answered, and
    // the quiet connections are still polled at the slow rate.  They have
    // been quiet for SETTLE + WINDOW by now, longer than the second after
    // which the loop no longer polls a connection with the busy ones.
    let mut busy = Connection::connect(server.local_addr()).expect("v2 handshake");
    let (before, start) = (server.stats().event_loop, Instant::now());
    let mut pings = 0;
    while start.elapsed() < WINDOW {
        busy.send_request(&Request::Ping).expect("send ping");
        assert_eq!(busy.next_event().expect("read pong"), Response::Pong);
        pings += 1;
        let next = start + PING_EVERY * pings;
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
    }
    let (after, elapsed) = (server.stats().event_loop, start.elapsed());
    let rate = poll_rate(before, after, elapsed);
    let bound = QUIET_POLLS_PER_S * (QUIET_CONNECTIONS + 1) as f64 + BUSY_POLLS_PER_S;
    assert!(
        rate <= bound,
        "one connection pinging every {PING_EVERY:?} raised the loop to {rate:.0} polls \
         a second (bound {bound:.0}; {before:?} -> {after:?})"
    );
    assert!(pings >= 100, "only {pings} pings in {WINDOW:?}");

    drop(quiet);
    drop(busy);
    server.shutdown();
}
