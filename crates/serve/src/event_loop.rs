//! The readiness event loop: per-connection state machines multiplexed
//! over `lotus_net::Poller` (DESIGN.md §14).
//!
//! One acceptor thread owns the listener and the connection quota; a
//! small set of event-loop threads each own a poller, a timer wheel,
//! and the connections handed to them round-robin. A connection's life
//! is a state machine:
//!
//! ```text
//!   read-accumulate ──► incremental parse ──► dispatch
//!        ▲   (pause: inflight/backlog quota)     │ inline or pool
//!        │                                       ▼
//!   write-drain ◄── in-order reassembly ◄── completion queue
//!   (partial-write resume via EPOLLOUT)
//! ```
//!
//! Pipelining: a client may send many frames without waiting; each
//! request gets a per-connection sequence number at parse time and
//! responses are flushed strictly in that order, whatever order the
//! worker pool finishes them in. Backpressure is quota-based, never an
//! error: once `max_inflight` requests are outstanding (or the write
//! backlog passes [`WRITE_BACKLOG_CAP`]) the loop simply stops reading
//! that socket until completions drain it.
//!
//! Error taxonomy (unchanged from the blocking daemon): framing damage
//! → typed `protocol` error then close (the stream cannot be
//! resynchronized); a CRC-valid frame that does not decode → typed
//! `bad_request`, connection stays open; EOF between frames → silent
//! close. Idle and slow-loris connections are evicted by the
//! [`TimerWheel`] once they make no read progress for the configured
//! idle timeout with nothing in flight.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lotus_net::{Event, Events, Interest, Poller, Token, Waker};
use lotus_telemetry::{counters, Counter};

use crate::proto::{frame_response, try_parse_frame, ErrorKind, FrameProgress, Request, Response};
use crate::server::{
    overloaded_response, request_deadline, run_inline, run_pooled, LoopCounters, ServeConfig,
    ServerState,
};
use crate::timer::TimerWheel;

/// Waker token on every poller (acceptor and loops).
const WAKER_TOKEN: u64 = 0;
/// Listener token on the acceptor's poller.
const LISTENER_TOKEN: u64 = 1;
/// First token handed to a connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Per-connection cap on buffered response bytes before the loop stops
/// reading more requests from that socket (slow-reader backpressure).
const WRITE_BACKLOG_CAP: usize = 8 << 20;

/// Timer-wheel slot width; idle timeouts fire at most one slot late.
const WHEEL_GRANULARITY: Duration = Duration::from_millis(25);
/// Timer-wheel slots (one revolution = 256 × 25 ms = 6.4 s).
const WHEEL_SLOTS: usize = 256;

/// Upper bound on one poller wait, so loops re-check shutdown and
/// incoming queues even with an empty timer wheel.
const MAX_WAIT: Duration = Duration::from_millis(500);

/// How long a drain waits for in-flight responses to flush before
/// force-closing the stragglers.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Resolved network configuration (zeros replaced by defaults).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetConfig {
    pub(crate) event_threads: usize,
    pub(crate) max_conns: usize,
    pub(crate) max_inflight: usize,
    pub(crate) idle_timeout: Duration,
}

impl NetConfig {
    /// Applies defaults to the user-facing [`ServeConfig`] fields.
    pub(crate) fn resolve(config: &ServeConfig) -> NetConfig {
        let event_threads = if config.event_threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| (p.get() / 4).clamp(1, 4))
        } else {
            config.event_threads
        };
        NetConfig {
            event_threads,
            max_conns: if config.max_conns == 0 {
                4096
            } else {
                config.max_conns
            },
            max_inflight: if config.max_inflight == 0 {
                64
            } else {
                config.max_inflight
            },
            idle_timeout: if config.idle_timeout.is_zero() {
                Duration::from_secs(60)
            } else {
                config.idle_timeout
            },
        }
    }
}

/// A finished pool job's response, routed back to the owning loop.
struct Completion {
    token: u64,
    seq: u64,
    frame: Vec<u8>,
}

/// The cross-thread face of one event loop: the acceptor pushes
/// sockets into `incoming`, pool workers push into `completions`, and
/// both wake the loop's poller afterwards.
struct LoopShared {
    incoming: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    waker: Arc<Waker>,
    /// This loop's always-on activity counters (readiness events and
    /// wakeups), published per thread through `Stats`.
    counters: Arc<LoopCounters>,
}

impl LoopShared {
    fn push_completion(&self, completion: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(completion);
        self.waker.wake();
    }
}

/// Spawns the event-loop threads and the acceptor/orchestrator thread;
/// returns the orchestrator handle (joining it means the daemon's
/// network side has fully shut down and the pool is drained).
///
/// # Errors
/// Returns the OS error when a poller, waker, or thread cannot be
/// created.
pub(crate) fn start(
    listener: TcpListener,
    state: Arc<ServerState>,
    config: NetConfig,
) -> std::io::Result<JoinHandle<()>> {
    let mut loops: Vec<Arc<LoopShared>> = Vec::with_capacity(config.event_threads);
    let mut loop_handles = Vec::with_capacity(config.event_threads);
    for i in 0..config.event_threads {
        let poller = Poller::new()?;
        let waker = Arc::new(poller.waker(Token(WAKER_TOKEN))?);
        let loop_counters = Arc::new(LoopCounters::default());
        let shared = Arc::new(LoopShared {
            incoming: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker: Arc::clone(&waker),
            counters: Arc::clone(&loop_counters),
        });
        state.net.add_waker(waker);
        state.net.add_loop_counters(loop_counters);
        loops.push(Arc::clone(&shared));
        let loop_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name(format!("lotus-serve-loop-{i}"))
            .spawn(move || event_loop(&poller, &shared, &loop_state, config))?;
        loop_handles.push(handle);
    }

    let accept_poller = Poller::new()?;
    accept_poller.register(listener.as_raw_fd(), Token(LISTENER_TOKEN), Interest::READ)?;
    let accept_waker = Arc::new(accept_poller.waker(Token(WAKER_TOKEN))?);
    state.net.add_waker(accept_waker);

    std::thread::Builder::new()
        .name("lotus-serve-accept".to_string())
        .spawn(move || {
            accept_loop(&accept_poller, &listener, &loops, &state, config);
            // Park the acceptor: close the listening socket before the
            // loops drain, so new connects are refused immediately.
            let _ = accept_poller.deregister(listener.as_raw_fd());
            drop(listener);
            for shared in &loops {
                shared.waker.wake();
            }
            for handle in loop_handles {
                let _ = handle.join();
            }
            // Loops are gone: no submitter is left, drain the pool.
            state.pool().shutdown();
        })
}

/// Accepts until drain: quota check, nonblocking setup, round-robin
/// handoff to the loops.
fn accept_loop(
    poller: &Poller,
    listener: &TcpListener,
    loops: &[Arc<LoopShared>],
    state: &Arc<ServerState>,
    config: NetConfig,
) {
    let mut events = Events::with_capacity(8);
    let mut next_loop = 0usize;
    while !state.shutdown_token().is_cancelled() {
        let _ = poller.wait(&mut events, Some(MAX_WAIT));
        if state.shutdown_token().is_cancelled() {
            break;
        }
        loop {
            // accept4(SOCK_NONBLOCK) where available: the socket is born
            // nonblocking, so there is no accept-then-configure window.
            match lotus_net::accept_nonblocking(listener) {
                Ok(Some(stream)) => {
                    if state.net.conns_open.load(Ordering::Relaxed) >= config.max_conns as u64 {
                        refuse_over_quota(stream, state);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    state.net.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    state.net.conns_open.fetch_add(1, Ordering::Relaxed);
                    counters::incr(Counter::ConnsAccepted);
                    let shared = &loops[next_loop % loops.len()];
                    next_loop = next_loop.wrapping_add(1);
                    shared
                        .incoming
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(stream);
                    shared.waker.wake();
                }
                Ok(None) => break,
                // Transient accept failures (EMFILE, ECONNABORTED...):
                // back off to the poller instead of spinning. EINTR is
                // retried inside accept_nonblocking.
                Err(_) => break,
            }
        }
    }
}

/// Over the connection quota: a best-effort `Overloaded` frame, then
/// close. Ties the quota into the same accounting admission control
/// uses, so operators see one signal for both.
fn refuse_over_quota(stream: TcpStream, state: &Arc<ServerState>) {
    let response = overloaded_response(state);
    if stream.set_nonblocking(true).is_ok() {
        if let Ok(frame) = frame_response(&response) {
            let _ = (&stream).write(&frame);
        }
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed received bytes (read-accumulate buffer).
    read_buf: Vec<u8>,
    /// Encoded frames ready to write, in flush order.
    out: Vec<u8>,
    /// How much of `out` has reached the socket (partial-write resume).
    out_pos: usize,
    /// Completed responses waiting for earlier sequence numbers.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Next sequence number to assign at parse time.
    next_seq: u64,
    /// Next sequence number to append to `out`.
    next_to_flush: u64,
    /// Pool jobs outstanding for this connection.
    inflight: usize,
    /// Timer generation; bumped on every read progress, so stale wheel
    /// entries can never evict a live connection.
    gen: u64,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// No more reads: EOF, framing damage, or drain.
    read_closed: bool,
    /// Close once everything queued has flushed (damage or `Draining`).
    close_after_flush: bool,
    /// Transport died; drop without flushing.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: BTreeMap::new(),
            next_seq: 0,
            next_to_flush: 0,
            inflight: 0,
            gen: 0,
            interest: Interest::READ,
            read_closed: false,
            close_after_flush: false,
            dead: false,
        }
    }

    /// Bytes queued toward the socket but not yet written.
    fn backlog(&self) -> usize {
        (self.out.len() - self.out_pos) + self.pending.values().map(Vec::len).sum::<usize>()
    }

    /// Whether the loop should stop pulling bytes off this socket.
    fn paused(&self, config: &NetConfig) -> bool {
        self.inflight >= config.max_inflight || self.backlog() > WRITE_BACKLOG_CAP
    }

    /// Nothing left to do: every accepted request answered and flushed.
    fn finished(&self) -> bool {
        self.dead
            || ((self.read_closed || self.close_after_flush)
                && self.inflight == 0
                && self.pending.is_empty()
                && self.out_pos == self.out.len())
    }

    /// Truly idle: safe for the timer wheel to evict.
    fn idle(&self) -> bool {
        self.inflight == 0 && self.pending.is_empty() && self.out_pos == self.out.len()
    }
}

/// Encodes a response into a complete frame; encoding failures (a
/// message overflowing its length prefix — not reachable from our own
/// responses) degrade to a generic error frame rather than a panic.
fn encode_frame(response: &Response) -> Vec<u8> {
    frame_response(response).unwrap_or_else(|_| {
        frame_response(&Response::error(
            ErrorKind::WorkerPanic,
            "response encoding failed",
        ))
        .unwrap_or_default()
    })
}

/// The loop proper: owns its poller, wheel, and connection table.
#[allow(clippy::too_many_lines)]
fn event_loop(
    poller: &Poller,
    shared: &Arc<LoopShared>,
    state: &Arc<ServerState>,
    config: NetConfig,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut wheel = TimerWheel::new(WHEEL_GRANULARITY, WHEEL_SLOTS, Instant::now());
    let mut events = Events::with_capacity(256);
    let mut fired: Vec<(u64, u64)> = Vec::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut draining_since: Option<Instant> = None;

    loop {
        let timeout = wheel
            .next_deadline(Instant::now())
            .map_or(MAX_WAIT, |d| d.min(MAX_WAIT));
        let _ = poller.wait(&mut events, Some(timeout));
        counters::incr(Counter::LoopWakeups);
        counters::add(Counter::ReadinessEvents, events.len() as u64);
        shared.counters.loop_wakeups.fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .readiness_events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        let now = Instant::now();

        // 1. Readiness events for existing connections.
        for event in &events {
            let Event {
                token: Token(token),
                readable,
                writable,
                closed,
            } = *event;
            if token == WAKER_TOKEN {
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if writable || closed {
                flush_out(conn);
            }
            if readable || closed {
                pump_reads(conn, token, shared, state, &config, &mut wheel, now);
            }
            refresh(poller, token, conn);
        }

        // 2. Adopt connections handed over by the acceptor.
        let adopted: Vec<TcpStream> = shared
            .incoming
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for stream in adopted {
            let token = next_token;
            next_token += 1;
            let mut conn = Conn::new(stream);
            if poller
                .register(conn.stream.as_raw_fd(), Token(token), conn.interest)
                .is_err()
            {
                state.net.conns_open.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            wheel.arm(now, config.idle_timeout, token, conn.gen);
            // Bytes may have arrived before registration; with a
            // level-triggered poller a missed edge costs nothing, but
            // serving them now saves one wait.
            pump_reads(&mut conn, token, shared, state, &config, &mut wheel, now);
            refresh(poller, token, &mut conn);
            conns.insert(token, conn);
        }

        // 3. Completions from the worker pool: reassemble in order.
        let completed: Vec<Completion> = shared
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for completion in completed {
            let Some(conn) = conns.get_mut(&completion.token) else {
                continue; // connection died before its response finished
            };
            conn.inflight -= 1;
            queue_frame(conn, completion.seq, completion.frame);
            // The inflight quota may have paused parsing mid-buffer;
            // resume from the already-buffered bytes.
            process_frames(conn, completion.token, shared, state, &config);
            flush_out(conn);
            refresh(poller, completion.token, conn);
        }

        // 4. Timer wheel: evict idle / slow-loris connections.
        wheel.advance(now, &mut fired);
        for (token, gen) in fired.drain(..) {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if conn.gen != gen {
                continue; // stale entry; the connection made progress
            }
            if conn.idle() && !conn.read_closed {
                // No read progress for a full idle timeout and nothing
                // owed: evict silently (slow-loris sockets land here
                // with a half-received frame in read_buf).
                conn.dead = true;
            } else {
                // Still working (long count, slow flush): re-arm.
                conn.gen += 1;
                wheel.arm(now, config.idle_timeout, token, conn.gen);
            }
        }

        // 5. Drain transition: stop reading everywhere, flush, close.
        if state.shutdown_token().is_cancelled() {
            if draining_since.is_none() {
                draining_since = Some(now);
                for conn in conns.values_mut() {
                    conn.read_closed = true;
                }
            }
            if draining_since.is_some_and(|since| now.duration_since(since) > DRAIN_GRACE) {
                for conn in conns.values_mut() {
                    conn.dead = true;
                }
            }
        }

        // 6. Close finished connections.
        conns.retain(|token, conn| {
            if conn.finished() {
                let _ = poller.deregister(conn.stream.as_raw_fd());
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                let _ = token;
                state.net.conns_open.fetch_sub(1, Ordering::Relaxed);
                false
            } else {
                true
            }
        });

        if draining_since.is_some() && conns.is_empty() {
            let empty = shared
                .incoming
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty();
            if empty {
                break;
            }
        }
    }
}

/// Re-registers the connection's interest set when it changed:
/// readable while not paused/closed, writable while bytes are queued.
fn refresh(poller: &Poller, token: u64, conn: &mut Conn) {
    if conn.dead {
        return;
    }
    let want = Interest {
        readable: !conn.read_closed,
        writable: conn.out_pos < conn.out.len(),
    };
    if want != conn.interest {
        if poller
            .reregister(conn.stream.as_raw_fd(), Token(token), want)
            .is_err()
        {
            conn.dead = true;
            return;
        }
        conn.interest = want;
    }
}

/// Drains the socket into `read_buf` until `WouldBlock`, EOF, or a
/// quota pause, parsing frames as they complete.
fn pump_reads(
    conn: &mut Conn,
    token: u64,
    shared: &Arc<LoopShared>,
    state: &Arc<ServerState>,
    config: &NetConfig,
    wheel: &mut TimerWheel,
    now: Instant,
) {
    let mut chunk = [0u8; 16 * 1024];
    while !conn.read_closed && !conn.dead && !conn.paused(config) {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                // EOF: between frames this is a clean close; mid-frame
                // the truncated remainder in read_buf is unanswerable
                // and simply dropped. In-flight responses still flush
                // (half-close support).
                conn.read_closed = true;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                // Read progress: re-arm the idle timer.
                conn.gen += 1;
                wheel.arm(now, config.idle_timeout, token, conn.gen);
                process_frames(conn, token, shared, state, config);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => conn.dead = true,
        }
    }
    flush_out(conn);
}

/// Parses every complete frame out of `read_buf` (respecting the
/// inflight quota) and dispatches each request.
fn process_frames(
    conn: &mut Conn,
    token: u64,
    shared: &Arc<LoopShared>,
    state: &Arc<ServerState>,
    config: &NetConfig,
) {
    while !conn.read_closed && !conn.dead && conn.inflight < config.max_inflight {
        match try_parse_frame(&conn.read_buf) {
            FrameProgress::Incomplete => break,
            FrameProgress::Damaged(e) => {
                // The stream cannot be resynchronized: answer with a
                // typed protocol error, then close after flushing.
                let seq = conn.next_seq;
                conn.next_seq += 1;
                queue_frame(
                    conn,
                    seq,
                    encode_frame(&Response::error(ErrorKind::Protocol, e.to_string())),
                );
                conn.read_buf.clear();
                conn.read_closed = true;
                conn.close_after_flush = true;
            }
            FrameProgress::Frame { payload, consumed } => {
                conn.read_buf.drain(..consumed);
                let seq = conn.next_seq;
                conn.next_seq += 1;
                match Request::decode(&payload) {
                    Err(e) => {
                        // CRC-valid but undecodable: the stream is still
                        // synchronized — answer and keep the connection.
                        queue_frame(
                            conn,
                            seq,
                            encode_frame(&Response::error(ErrorKind::BadRequest, e.to_string())),
                        );
                    }
                    Ok(request) => dispatch(conn, token, seq, request, shared, state),
                }
            }
        }
    }
}

/// Routes one decoded request: fast admin inline on the loop thread,
/// everything else through the bounded pool.
fn dispatch(
    conn: &mut Conn,
    token: u64,
    seq: u64,
    request: Request,
    shared: &Arc<LoopShared>,
    state: &Arc<ServerState>,
) {
    if let Some(response) = run_inline(&request, state) {
        let draining = matches!(response, Response::Draining);
        queue_frame(conn, seq, encode_frame(&response));
        if draining {
            // The drain reply is this connection's last frame; frames
            // already parsed behind it still get ShuttingDown below.
            conn.read_closed = true;
            conn.close_after_flush = true;
        }
        return;
    }
    if state.shutdown_token().is_cancelled() {
        queue_frame(
            conn,
            seq,
            encode_frame(&Response::error(
                ErrorKind::ShuttingDown,
                "daemon is draining",
            )),
        );
        return;
    }
    // Deadline fixed at admission: queueing time counts against it.
    let deadline = request_deadline(&request);
    let job_state = Arc::clone(state);
    let job_shared = Arc::clone(shared);
    let submitted = state.pool().try_submit(Box::new(move || {
        let response = run_pooled(&request, deadline, &job_state);
        job_shared.push_completion(Completion {
            token,
            seq,
            frame: encode_frame(&response),
        });
    }));
    if submitted {
        conn.inflight += 1;
    } else {
        queue_frame(conn, seq, encode_frame(&overloaded_response(state)));
    }
}

/// Inserts a completed response and appends every now-contiguous
/// response to the write buffer (in-order pipelining guarantee).
fn queue_frame(conn: &mut Conn, seq: u64, frame: Vec<u8>) {
    conn.pending.insert(seq, frame);
    while let Some(frame) = conn.pending.remove(&conn.next_to_flush) {
        conn.out.extend_from_slice(&frame);
        conn.next_to_flush += 1;
    }
}

/// Writes as much of `out` as the socket accepts; a short write leaves
/// `out_pos` mid-buffer and the poller's writable event resumes it.
fn flush_out(conn: &mut Conn) {
    if conn.dead {
        return;
    }
    while conn.out_pos < conn.out.len() {
        match (&conn.stream).write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                counters::incr(Counter::PartialWrites);
                return;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
}
