//! The readiness-based serving loop: one thread owning every client
//! connection.
//!
//! ## Why a loop
//!
//! The previous front-end spawned one OS thread per connection plus a
//! disconnect-watcher thread per in-flight request: idle clients cost
//! threads, and the ROADMAP's serving ambitions die at the thread table
//! long before the engine saturates.  This module replaces that with a
//! single event loop owning **all** connections: non-blocking sockets,
//! per-connection read/write buffers with incremental newline framing,
//! and a registration channel fed by the accept thread.  A connection
//! costs a socket and two buffers — never a thread — so thousands of
//! idle connections are free.
//!
//! ## How it wakes
//!
//! The loop multiplexes over its [`LoopMsg`] channel with `recv_timeout`.
//! Channel traffic (new connections from the accept thread, responses
//! from workers) wakes it at once; client bytes are noticed when their
//! connection is next polled.  Each connection keeps its own schedule: a
//! connection quiet for time `q` (no bytes moved in either direction) is
//! polled again after `q / 8`, clamped to [`POLL_MIN`]–[`POLL_MAX`].  A
//! connection whose requests come less than about 800 µs apart is
//! therefore noticed within about 100 µs, and one that has been quiet for
//! 128 ms would be polled every 16 ms.
//!
//! Two loop-wide ticks cap that wait, so that connections share wakes:
//!
//! - The busy tick caps every connection that moved bytes within the last
//!   [`WARM`].  It comes [`POLL_BUSY`] after bytes last moved on any
//!   connection and backs off with the loop's quiet time to [`POLL_MAX`].
//!   While traffic flows, a connection that sends now and then is thus
//!   polled every millisecond or two, as one loop-wide tick would poll
//!   it; without the cap, many connections each sending a few times a
//!   second would wait about 8 ms apiece.
//! - The slow tick caps every other connection: it moves [`POLL_MAX`]
//!   ahead each time it passes, so however many connections sit idle,
//!   they share one wake per 16 ms, however busy the loop is.
//!
//! Each wake services only the connections that are due, so one busy
//! connection does not make the loop poll the idle ones faster.  The
//! trade-off is the [`WARM`] horizon: a connection quiet for longer than
//! a second waits for the slow tick, up to 16 ms, even while others keep
//! the loop busy.  A worker's response makes its connection due at once,
//! so it is written in the wake that received it; with no connection open
//! the loop blocks on the channel alone.
//!
//! Two other designs were rejected.  Readiness notification
//! (`epoll`/`kqueue`) needs FFI, and the workspace forbids `unsafe`
//! (rule L1).  A blocking reader thread per connection would make each
//! connection cost a thread, which is what the idle-connections test
//! pins against.
//!
//! ## Connection state machine
//!
//! A connection's first line selects its protocol version (see
//! [`crate::protocol`] for the compatibility matrix).  v1 connections
//! carry one request and close after its terminal response; v2
//! connections are persistent and pipelined — every admitted `select` is
//! keyed by a loop-assigned sequence number, workers report back through
//! an [`EventSink`] carrying that key, and the loop routes each event to
//! its connection's write buffer.  Disconnect (EOF, reset, write
//! failure) cancels every queued or running request of that connection
//! via its [`cvcp_engine::CancelToken`]s.
//!
//! An oversized frame (longer than [`MAX_FRAME_BYTES`] without a
//! newline) is answered with a structured `frame_too_large` error; the
//! loop then *discards* bytes up to the next newline so a v2 connection
//! survives the bad frame with its other in-flight requests intact.
//! Malformed JSON mid-pipeline likewise earns an `error` response
//! without touching the connection's other requests.
//!
//! The loop owns all per-connection state exclusively — it takes no
//! locks beyond the channel's own internals, so no lock-rank
//! registration is needed (the shared state it touches is atomics, the
//! admission queue and the existing profile mutex via
//! [`Shared::metrics`]).

use crate::protocol::{Request, Response, WireError};
use crate::server::Shared;
use cvcp_engine::obs::Gauge;
use cvcp_engine::CancelToken;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Longest accepted request line, in bytes; longer frames are rejected
/// with a `frame_too_large` error and discarded up to the next newline.
pub(crate) const MAX_FRAME_BYTES: usize = 1 << 20;

/// Highest wire-protocol version this server speaks (granted to any
/// client that says hello with this version or higher).
pub(crate) const PROTOCOL_VERSION: u64 = 2;

/// Shortest wait before a connection is polled again: the wait of one
/// that just moved bytes.
const POLL_MIN: Duration = Duration::from_micros(100);

/// Longest wait before a connection is polled again, and the period of
/// the slow tick that quiet connections share.
const POLL_MAX: Duration = Duration::from_millis(16);

/// The busy tick's wait right after bytes moved on any connection.
const POLL_BUSY: Duration = Duration::from_millis(1);

/// How long after its bytes last moved a connection is still capped at
/// the busy tick rather than the slow one.
const WARM: Duration = Duration::from_secs(1);

/// A connection quiet for time `q` is polled again after `q / QUIET_DIVISOR`.
const QUIET_DIVISOR: u32 = 8;

/// Read granularity per `read` call.
const READ_CHUNK: usize = 8 << 10;

/// Cap on `read` calls per connection per poll, so one fire-hose client
/// cannot starve its siblings within an iteration.
const MAX_READS_PER_POLL: usize = 32;

/// Messages multiplexed onto the loop's wakeup channel.
pub(crate) enum LoopMsg {
    /// A freshly accepted connection, handed over by the accept thread.
    Register(TcpStream),
    /// A progress or terminal response from a worker, keyed by the
    /// connection and request sequence number the loop assigned.
    Event {
        /// The owning connection's loop-assigned id.
        conn: u64,
        /// The request's loop-assigned sequence number.
        seq: u64,
        /// The response to route onto that connection (boxed: stats and
        /// metrics payloads dwarf the other variants).
        response: Box<Response>,
    },
    /// Final stop: flush what can be flushed and exit (sent after the
    /// workers have drained and joined).
    Shutdown,
}

/// A worker's handle for reporting one admitted request's responses back
/// to the event loop, which routes them to the owning connection (or
/// drops them if that connection is gone).
#[derive(Clone)]
pub(crate) struct EventSink {
    tx: mpsc::Sender<LoopMsg>,
    conn: u64,
    seq: u64,
}

impl EventSink {
    /// Sends one response toward the owning connection.  Errors (the
    /// loop has exited) are ignored — there is nobody left to tell.
    pub(crate) fn send(&self, response: Response) {
        let _ = self.tx.send(LoopMsg::Event {
            conn: self.conn,
            seq: self.seq,
            response: Box::new(response),
        });
    }
}

/// The per-connection gauges the loop maintains (wait-free atomics; read
/// by [`Shared::stats`]).
#[derive(Debug, Default)]
pub(crate) struct ConnGauges {
    /// Connections currently open.
    pub(crate) open: Gauge,
    /// Connections with at least one request queued or running.
    pub(crate) active: Gauge,
    /// Requests queued or running, across all connections.
    pub(crate) in_flight: Gauge,
}

/// The loop's polling counters: statistics only (Relaxed atomics, added
/// to once per wake; read by [`Shared::stats`]).
#[derive(Debug, Default)]
pub(crate) struct LoopCounters {
    /// Times the loop woke: on a channel message or a poll deadline.
    pub(crate) wakes: AtomicU64,
    /// Connection service passes.
    pub(crate) polls: AtomicU64,
    /// Service passes that moved bytes.
    pub(crate) polls_with_bytes: AtomicU64,
}

/// One queued-or-running request of a connection.
struct InFlight {
    /// The wire id echoed on its responses (used for duplicate checks).
    id: String,
    /// Fired when the connection goes away.
    cancel: CancelToken,
}

/// One connection's entire state, owned exclusively by the loop.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet framed into lines.
    read_buf: Vec<u8>,
    /// Bytes queued for the client; `written` of them are already sent.
    write_buf: Vec<u8>,
    written: usize,
    /// 0 until the first line decides it; then 1 or 2.
    version: u8,
    /// v1 only: the connection's one request has been dispatched, all
    /// further input is ignored (v1 clients have nothing more to say).
    v1_consumed: bool,
    /// Discarding an oversized frame: drop bytes up to the next newline.
    discarding: bool,
    /// Close once `write_buf` is fully flushed (v1 terminal response,
    /// negotiation failure, shutdown ack).
    close_after_flush: bool,
    /// Counter behind server-assigned `req-<n>` ids (v2 requests that
    /// arrive with an absent/empty id).
    auto_id: u64,
    /// Queued-or-running requests, keyed by loop sequence number.
    in_flight: BTreeMap<u64, InFlight>,
    /// When bytes last moved in either direction.
    last_active: Instant,
    /// When its own quiet-time schedule polls it next; a loop-wide tick
    /// may come first (see [`Schedule::due_at`]).
    next_poll: Instant,
}

/// The loop-wide ticks that cap each connection's own poll schedule.
#[derive(Debug)]
struct Schedule {
    /// When bytes last moved on any connection.
    last_active: Instant,
    /// The cap for connections that moved bytes within [`WARM`].
    busy_tick: Instant,
    /// The cap for every other connection.
    slow_tick: Instant,
}

impl Schedule {
    fn new(now: Instant) -> Schedule {
        Schedule {
            last_active: now,
            busy_tick: now + POLL_MAX,
            slow_tick: now + POLL_MAX,
        }
    }

    /// A connection's own next poll after a service pass at `now`: a
    /// connection quiet since `last_active` waits an eighth of that.
    fn own_poll(now: Instant, last_active: Instant) -> Instant {
        now + (now.duration_since(last_active) / QUIET_DIVISOR).clamp(POLL_MIN, POLL_MAX)
    }

    /// When a connection is due: its own next poll or its tick,
    /// whichever comes first.
    fn due_at(&self, now: Instant, last_active: Instant, next_poll: Instant) -> Instant {
        let tick = if now.duration_since(last_active) < WARM {
            self.busy_tick
        } else {
            self.slow_tick
        };
        next_poll.min(tick)
    }

    /// Moves the ticks on after a service pass at `now`; `moved` says
    /// whether bytes moved on any connection.  The busy tick comes
    /// [`POLL_BUSY`] after bytes moved and then backs off with the loop's
    /// quiet time, never past the slow tick, so a quiet loop wakes once
    /// per [`POLL_MAX`].
    fn advance(&mut self, now: Instant, moved: bool) {
        if moved {
            self.last_active = now;
        }
        if self.slow_tick <= now {
            self.slow_tick = now + POLL_MAX;
        }
        let wait = now
            .duration_since(self.last_active)
            .clamp(POLL_BUSY, POLL_MAX);
        let busy = (now + wait).min(self.slow_tick);
        self.busy_tick = if self.busy_tick <= now {
            busy
        } else {
            self.busy_tick.min(busy)
        };
    }
}

struct LoopState {
    shared: Arc<Shared>,
    /// Kept to mint [`EventSink`]s for admitted requests.
    tx: mpsc::Sender<LoopMsg>,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    next_seq: u64,
    schedule: Schedule,
}

/// Runs the serving loop until a [`LoopMsg::Shutdown`] arrives.
pub(crate) fn event_loop(
    shared: Arc<Shared>,
    tx: mpsc::Sender<LoopMsg>,
    rx: mpsc::Receiver<LoopMsg>,
) {
    let mut state = LoopState {
        shared,
        tx,
        conns: BTreeMap::new(),
        next_conn: 0,
        next_seq: 0,
        schedule: Schedule::new(Instant::now()),
    };
    'run: loop {
        let now = Instant::now();
        let next_due = state
            .conns
            .values()
            .map(|c| state.schedule.due_at(now, c.last_active, c.next_poll))
            .min();
        let received = match next_due {
            // With no connection open only the channel can make work.
            None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            Some(due) => rx.recv_timeout(due.saturating_duration_since(now)),
        };
        match received {
            Ok(msg) => {
                if state.handle_msg(msg) {
                    break 'run;
                }
                // Drain whatever else is already queued before polling
                // sockets, so a burst of worker events is batched into
                // one write pass.
                while let Ok(msg) = rx.try_recv() {
                    if state.handle_msg(msg) {
                        break 'run;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break 'run,
        }
        state.poll_due(Instant::now());
    }
    state.shutdown_flush();
}

impl LoopState {
    /// Services the connections that are due, schedules each one's next
    /// poll from how long it has been quiet, and moves the ticks on.
    fn poll_due(&mut self, now: Instant) {
        let due: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| self.schedule.due_at(now, c.last_active, c.next_poll) <= now)
            .map(|(&id, _)| id)
            .collect();
        let mut with_bytes = 0;
        for &id in &due {
            let moved = self.service(id);
            with_bytes += u64::from(moved);
            if let Some(conn) = self.conns.get_mut(&id) {
                if moved {
                    conn.last_active = now;
                }
                conn.next_poll = Schedule::own_poll(now, conn.last_active);
            }
        }
        self.schedule.advance(now, with_bytes > 0);
        let counters = &self.shared.loop_counters;
        counters.wakes.fetch_add(1, Ordering::Relaxed);
        counters
            .polls
            .fetch_add(due.len() as u64, Ordering::Relaxed);
        counters
            .polls_with_bytes
            .fetch_add(with_bytes, Ordering::Relaxed);
    }

    /// Applies one channel message; `true` means "stop the loop".
    fn handle_msg(&mut self, msg: LoopMsg) -> bool {
        match msg {
            LoopMsg::Shutdown => true,
            LoopMsg::Register(stream) => {
                self.register(stream);
                false
            }
            LoopMsg::Event {
                conn,
                seq,
                response,
            } => {
                self.handle_event(conn, seq, *response);
                false
            }
        }
    }

    /// Adopts a connection from the accept thread (or refuses it with
    /// `server_busy` when the connection cap is reached).
    fn register(&mut self, stream: TcpStream) {
        if self.conns.len() >= self.shared.max_connections {
            let error = Response::Error {
                id: None,
                error: WireError::new(
                    "server_busy",
                    format!(
                        "connection limit ({}) reached; retry later",
                        self.shared.max_connections
                    ),
                ),
            };
            let mut line = error.to_line();
            line.push('\n');
            // The stream is still blocking here; bound the courtesy
            // write so a non-reading client cannot stall the loop.
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
            let _ = stream.write_all(line.as_bytes());
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // One-line responses should not sit in Nagle's buffer.
        let _ = stream.set_nodelay(true);
        let id = self.next_conn;
        self.next_conn += 1;
        let now = Instant::now();
        self.conns.insert(
            id,
            Conn {
                stream,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                written: 0,
                version: 0,
                v1_consumed: false,
                discarding: false,
                close_after_flush: false,
                auto_id: 0,
                in_flight: BTreeMap::new(),
                last_active: now,
                // Due at once: its hello may already be waiting.
                next_poll: now,
            },
        );
        self.shared.gauges.open.inc();
    }

    /// Routes one worker response onto its connection (dropped when the
    /// connection disconnected in the meantime) and makes the connection
    /// due, so the response is written in this wake.
    fn handle_event(&mut self, conn_id: u64, seq: u64, response: Response) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        conn.next_poll = Instant::now();
        let terminal = matches!(response, Response::Result { .. } | Response::Error { .. });
        if terminal {
            if conn.in_flight.remove(&seq).is_none() {
                // Stale event for a request this connection no longer
                // tracks; nothing to route.
                return;
            }
            self.shared.gauges.in_flight.dec();
            if conn.in_flight.is_empty() {
                self.shared.gauges.active.dec();
            }
            if conn.version == 1 {
                // v1 contract: the connection closes after its one
                // request's terminal response.
                conn.close_after_flush = true;
            }
        }
        self.push_response(conn_id, &response);
    }

    /// One service pass over a connection: read, frame, dispatch, flush.
    /// Returns whether bytes moved (for the connection's poll schedule).
    fn service(&mut self, id: u64) -> bool {
        let mut worked = false;
        let mut disconnected = false;
        if let Some(conn) = self.conns.get_mut(&id) {
            let mut chunk = [0u8; READ_CHUNK];
            for _ in 0..MAX_READS_PER_POLL {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        disconnected = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        worked = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        disconnected = true;
                        break;
                    }
                }
            }
        }
        if disconnected {
            // EOF or reset: the client is gone — but frames it completed
            // before closing are still dispatched first, because a client
            // may legitimately write a request and close without waiting.
            // The disconnect then cancels whatever those frames started
            // (same semantics v1's disconnect watcher had, generalized to
            // every in-flight request).
            self.extract_frames(id);
            self.close_conn(id);
            return true;
        }
        if self.extract_frames(id) {
            worked = true;
        }
        if self.flush(id) {
            worked = true;
        }
        worked
    }

    /// Splits the read buffer into newline frames and dispatches each.
    fn extract_frames(&mut self, id: u64) -> bool {
        let mut worked = false;
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return worked;
            };
            if conn.close_after_flush {
                // A closing connection accepts no further input.
                conn.read_buf.clear();
                return worked;
            }
            let Some(pos) = conn.read_buf.iter().position(|&b| b == b'\n') else {
                if conn.read_buf.len() > MAX_FRAME_BYTES {
                    let first_overflow = !conn.discarding;
                    conn.read_buf.clear();
                    conn.discarding = true;
                    if first_overflow {
                        worked = true;
                        self.reject_oversized_frame(id);
                    }
                }
                return worked;
            };
            let line: Vec<u8> = conn.read_buf.drain(..=pos).collect();
            if std::mem::take(&mut conn.discarding) {
                // The tail of an already-rejected oversized frame.
                continue;
            }
            worked = true;
            if line.len() > MAX_FRAME_BYTES {
                self.reject_oversized_frame(id);
                continue;
            }
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            self.dispatch_line(id, &text);
        }
    }

    /// Answers an oversized frame with `frame_too_large`.  A v1 (or
    /// not-yet-negotiated) connection closes — it had exactly one frame
    /// to get right; a v2 connection survives with its other in-flight
    /// requests untouched.
    fn reject_oversized_frame(&mut self, id: u64) {
        let close = match self.conns.get_mut(&id) {
            Some(conn) => {
                if conn.version == 0 {
                    conn.version = 1;
                }
                conn.version == 1
            }
            None => return,
        };
        self.push_response(
            id,
            &Response::Error {
                id: None,
                error: WireError::new(
                    "frame_too_large",
                    format!("request line exceeds {MAX_FRAME_BYTES} bytes"),
                ),
            },
        );
        if close {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.close_after_flush = true;
            }
        }
    }

    /// Parses one frame and applies the per-version state machine.
    fn dispatch_line(&mut self, id: u64, line: &str) {
        let Some(version) = self.conns.get(&id).map(|c| c.version) else {
            return;
        };
        let parsed = Request::from_line(line);
        match version {
            // The first line decides the connection's protocol version.
            0 => match parsed {
                Ok(Request::Hello { version: requested }) => {
                    let granted = requested.min(PROTOCOL_VERSION);
                    if granted == 0 {
                        self.push_response(
                            id,
                            &Response::Error {
                                id: None,
                                error: WireError::new(
                                    "unsupported_version",
                                    "protocol version 0 does not exist; \
                                     say hello with version 1 or 2",
                                ),
                            },
                        );
                        self.set_close_after_flush(id);
                        return;
                    }
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.version = granted as u8;
                    }
                    self.push_response(
                        id,
                        &Response::HelloAck {
                            version: granted,
                            max_in_flight: self.shared.max_in_flight,
                            max_frame_bytes: MAX_FRAME_BYTES,
                        },
                    );
                }
                Err(error) if error.code == "unsupported_version" => {
                    self.push_response(id, &Response::Error { id: None, error });
                    self.set_close_after_flush(id);
                }
                // An ordinary request as the first line: v1 semantics,
                // exactly what pre-v2 clients speak.
                Ok(request) => {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.version = 1;
                        conn.v1_consumed = true;
                    }
                    self.dispatch_request(id, request);
                }
                Err(error) => {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.version = 1;
                    }
                    self.push_response(id, &Response::Error { id: None, error });
                    self.set_close_after_flush(id);
                }
            },
            1 => {
                if self.conns.get(&id).is_some_and(|c| c.v1_consumed) {
                    // v1 clients have nothing more to say after their one
                    // request; stray bytes are ignored (pre-v2 behavior).
                    return;
                }
                match parsed {
                    Ok(Request::Hello { .. }) => {
                        self.push_response(
                            id,
                            &Response::Error {
                                id: None,
                                error: WireError::new(
                                    "invalid_request",
                                    "hello must be a connection's first line",
                                ),
                            },
                        );
                        self.set_close_after_flush(id);
                    }
                    Ok(request) => {
                        if let Some(conn) = self.conns.get_mut(&id) {
                            conn.v1_consumed = true;
                        }
                        self.dispatch_request(id, request);
                    }
                    Err(error) => {
                        self.push_response(id, &Response::Error { id: None, error });
                        self.set_close_after_flush(id);
                    }
                }
            }
            // v2: persistent and pipelined.  A bad frame earns an error
            // response but never takes down the connection's other
            // in-flight requests.
            _ => match parsed {
                Ok(Request::Hello { .. }) => {
                    self.push_response(
                        id,
                        &Response::Error {
                            id: None,
                            error: WireError::new(
                                "invalid_request",
                                "hello must be a connection's first line",
                            ),
                        },
                    );
                }
                Ok(request) => self.dispatch_request(id, request),
                Err(error) => {
                    self.push_response(id, &Response::Error { id: None, error });
                }
            },
        }
    }

    /// Executes one non-hello request in the context of its connection.
    fn dispatch_request(&mut self, id: u64, request: Request) {
        match request {
            // Hellos are consumed by `dispatch_line`; one reaching here
            // would be a state-machine bug, answered defensively.
            Request::Hello { .. } => {
                self.push_response(
                    id,
                    &Response::Error {
                        id: None,
                        error: WireError::new(
                            "invalid_request",
                            "hello must be a connection's first line",
                        ),
                    },
                );
            }
            Request::Ping => {
                self.push_response(id, &Response::Pong);
                self.close_v1_after_control(id);
            }
            Request::Stats => {
                let stats = self.shared.stats();
                self.push_response(id, &Response::Stats(stats));
                self.close_v1_after_control(id);
            }
            Request::Metrics => {
                let metrics = self.shared.metrics();
                self.push_response(id, &Response::Metrics(metrics));
                self.close_v1_after_control(id);
            }
            Request::Shutdown => {
                self.push_response(id, &Response::ShutdownAck);
                self.set_close_after_flush(id);
                // Push the ack toward the client before the teardown
                // races it.
                self.flush(id);
                self.shared.initiate_shutdown();
            }
            Request::Select(request) => self.dispatch_select(id, request),
        }
    }

    /// Admits one selection: v2 id assignment and per-connection caps,
    /// then queue admission via [`Shared::admit_select`].
    fn dispatch_select(&mut self, id: u64, mut request: cvcp_core::SelectionRequest) {
        let version = match self.conns.get(&id) {
            Some(conn) => conn.version,
            None => return,
        };
        if version >= 2 {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            // v2 responses are correlated by id alone, so every request
            // gets one: the server assigns `req-<n>` when the client
            // didn't choose.
            if request.id.is_empty() {
                conn.auto_id += 1;
                request.id = format!("req-{}", conn.auto_id);
            }
            if conn.in_flight.len() >= self.shared.max_in_flight {
                let error = Response::Error {
                    id: Some(request.id),
                    error: WireError::new(
                        "in_flight_limit",
                        format!(
                            "connection already has {} requests in flight (cap {})",
                            conn.in_flight.len(),
                            self.shared.max_in_flight
                        ),
                    ),
                };
                self.push_response(id, &error);
                return;
            }
            if conn.in_flight.values().any(|f| f.id == request.id) {
                let error = Response::Error {
                    id: Some(request.id.clone()),
                    error: WireError::new(
                        "duplicate_id",
                        format!(
                            "id {:?} is already in flight on this connection",
                            request.id
                        ),
                    ),
                };
                self.push_response(id, &error);
                return;
            }
        }
        let wire_id = request.id.clone();
        let seq = self.next_seq;
        self.next_seq += 1;
        let sink = EventSink {
            tx: self.tx.clone(),
            conn: id,
            seq,
        };
        match self.shared.admit_select(request, sink) {
            Ok(cancel) => {
                let Some(conn) = self.conns.get_mut(&id) else {
                    // The connection vanished between frame and
                    // admission (cannot happen single-threaded, but a
                    // dangling request must still be cancelled).
                    cancel.cancel();
                    return;
                };
                conn.in_flight.insert(
                    seq,
                    InFlight {
                        id: wire_id,
                        cancel,
                    },
                );
                self.shared.gauges.in_flight.inc();
                if conn.in_flight.len() == 1 {
                    self.shared.gauges.active.inc();
                }
            }
            Err(response) => {
                self.push_response(id, &response);
                self.close_v1_after_control(id);
            }
        }
    }

    /// Appends one response line to a connection's write buffer.
    fn push_response(&mut self, id: u64, response: &Response) {
        if let Some(conn) = self.conns.get_mut(&id) {
            let mut line = response.to_line();
            line.push('\n');
            conn.write_buf.extend_from_slice(line.as_bytes());
        }
    }

    fn set_close_after_flush(&mut self, id: u64) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.close_after_flush = true;
        }
    }

    /// v1 closes after any synchronously answered request (control
    /// responses and admission failures); v2 stays open.
    fn close_v1_after_control(&mut self, id: u64) {
        if let Some(conn) = self.conns.get_mut(&id) {
            if conn.version == 1 {
                conn.close_after_flush = true;
            }
        }
    }

    /// Writes as much buffered output as the socket accepts right now.
    /// Returns whether bytes moved.  Closes the connection on write
    /// failure or once a `close_after_flush` buffer drains.
    fn flush(&mut self, id: u64) -> bool {
        let mut worked = false;
        let mut dead = false;
        let mut close = false;
        if let Some(conn) = self.conns.get_mut(&id) {
            while conn.written < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.written..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.written += n;
                        worked = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if conn.written == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.written = 0;
                close = conn.close_after_flush;
            } else if conn.written > (64 << 10) {
                // Reclaim the already-sent prefix of a large buffer.
                conn.write_buf.drain(..conn.written);
                conn.written = 0;
            }
        }
        if dead || close {
            self.close_conn(id);
        }
        worked
    }

    /// Removes a connection: cancels everything it still has in flight
    /// and settles the gauges.  Dropping the stream closes the socket.
    fn close_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        if !conn.in_flight.is_empty() {
            self.shared.gauges.active.dec();
        }
        for flight in conn.in_flight.values() {
            flight.cancel.cancel();
            self.shared.gauges.in_flight.dec();
        }
        self.shared.gauges.open.dec();
    }

    /// Final teardown: best-effort blocking flush of pending output,
    /// then every connection is closed.
    fn shutdown_flush(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.get_mut(&id) {
                let pending = conn.written < conn.write_buf.len();
                if pending
                    && conn.stream.set_nonblocking(false).is_ok()
                    && conn
                        .stream
                        .set_write_timeout(Some(Duration::from_millis(200)))
                        .is_ok()
                {
                    let buf: Vec<u8> = conn.write_buf.split_off(conn.written);
                    conn.written = 0;
                    conn.write_buf.clear();
                    let _ = conn.stream.write_all(&buf);
                }
            }
            self.close_conn(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_connection_backs_off_with_its_own_quiet_time() {
        let now = Instant::now() + 10 * WARM;
        assert_eq!(Schedule::own_poll(now, now), now + POLL_MIN);
        assert_eq!(Schedule::own_poll(now, now - 8 * MS), now + MS);
        assert_eq!(Schedule::own_poll(now, now - 128 * MS), now + POLL_MAX);
        assert_eq!(Schedule::own_poll(now, now - WARM), now + POLL_MAX);
    }

    #[test]
    fn while_bytes_flow_a_recent_connection_waits_for_the_busy_tick_only() {
        let start = Instant::now() + 10 * WARM;
        let mut schedule = Schedule::new(start);
        // Bytes moved on some connection just now.
        let now = start + MS / 2;
        schedule.advance(now, true);
        // A connection that last sent 125 ms ago would wait 15.6 ms on
        // its own schedule; the busy tick polls it within POLL_BUSY.
        let sparse = now - 125 * MS;
        let own = Schedule::own_poll(now, sparse);
        assert_eq!(schedule.due_at(now, sparse, own), now + POLL_BUSY);
        // A connection quiet for longer than WARM waits for the slow tick.
        let idle = now - 2 * WARM;
        let own = Schedule::own_poll(now, idle);
        assert_eq!(schedule.due_at(now, idle, own), start + POLL_MAX);
        // A connection that just moved bytes keeps its faster own poll.
        let own = Schedule::own_poll(now, now);
        assert_eq!(schedule.due_at(now, now, own), now + POLL_MIN);
    }

    #[test]
    fn the_busy_tick_backs_off_to_the_slow_tick_once_the_loop_is_quiet() {
        let start = Instant::now() + 10 * WARM;
        let mut schedule = Schedule::new(start);
        schedule.advance(start, true);
        // Empty passes at each busy tick: the wait grows with the loop's
        // quiet time until the busy tick is the slow tick.
        let mut waits = Vec::new();
        let mut now = start;
        for _ in 0..12 {
            let next = schedule.busy_tick;
            waits.push(next - now);
            now = next;
            schedule.advance(now, false);
        }
        assert_eq!(&waits[..4], &[MS, MS, 2 * MS, 4 * MS]);
        assert!(waits.iter().all(|&w| w <= POLL_MAX), "{waits:?}");
        assert_eq!(schedule.busy_tick, schedule.slow_tick);
        assert_eq!(schedule.slow_tick - now, POLL_MAX);
        // New bytes pull the busy tick back in at once.
        let now = now + MS;
        schedule.advance(now, true);
        assert_eq!(schedule.busy_tick, now + POLL_BUSY);
    }
}
