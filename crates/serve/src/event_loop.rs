//! The readiness event loop: per-connection state machines multiplexed
//! over `lotus_net::Poller` (DESIGN.md §14), shared by every LSRV
//! frontend — the serve daemon and the cluster coordinator each plug a
//! [`Handler`] into it.
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
//! backlog passes 8 MiB) the loop stops polling that
//! socket for readability until completions drain it.
//!
//! Error taxonomy: framing damage → typed `protocol` error then close
//! (the stream cannot be resynchronized); a CRC-valid frame that does
//! not decode → typed `bad_request`, connection stays open; EOF between
//! frames → silent close. Idle and slow-loris connections are evicted
//! by the timer wheel once they make no read progress for the
//! configured idle timeout with nothing in flight.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lotus_net::{Event, Events, Interest, Poller, Token, Waker};
use lotus_resilience::{CancelToken, Deadline};

use crate::conn::{Flush, FramedConn};
use crate::metrics::{Metrics, Row};
use crate::pool::WorkerPool;
use crate::proto::{
    frame_response, ErrorKind, LoopStat, Request, Response, StatsReply, NO_DEADLINE,
};
use crate::server::ServeConfig;
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

/// Bytes read from one socket per readiness event; the rest waits for
/// the next (level-triggered) event, so one flooding client cannot
/// starve its loop neighbours or outrun the inflight quota.
const READ_BUDGET: usize = 64 * 1024;

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

/// What a frontend plugs into the loop: where each request runs.
pub trait Handler: Send + Sync + 'static {
    /// The engine (pool, quotas, shutdown) serving this handler.
    fn engine(&self) -> &Engine;

    /// Answers a request cheap enough to run on a loop thread, or
    /// `None` to send it through the worker pool.
    fn inline(&self, request: &Request) -> Option<Response>;

    /// Runs a pool-bound request on a worker thread. Must not unwind: a
    /// panic would strand the connection's reply slot, so
    /// implementations isolate their work.
    fn pooled(&self, request: &Request, deadline: Option<Deadline>) -> Response;
}

/// Resolved network configuration (zeros replaced by defaults).
#[derive(Debug, Clone, Copy)]
struct NetConfig {
    event_threads: usize,
    max_conns: usize,
    max_inflight: usize,
    idle_timeout: Duration,
}

/// The serving plumbing a frontend owns: the bounded worker pool,
/// connection quotas, the server's counter table, and the shutdown
/// token whose cancellation drains every loop.
#[derive(Debug)]
pub struct Engine {
    pool: WorkerPool,
    shutdown: CancelToken,
    config: NetConfig,
    metrics: Arc<Metrics>,
    /// Every loop, in loop-index order: woken together with the
    /// acceptor so a drain interrupts every blocked wait immediately,
    /// and read by `Stats` so a hot loop is visible, not averaged away.
    loops: Mutex<Vec<Arc<LoopShared>>>,
    acceptor: OnceLock<Waker>,
}

impl Engine {
    /// Sizes an engine from `config`'s pool and network fields, zeros
    /// replaced by defaults: workers = `rayon::current_num_threads()`,
    /// queue = 4 × workers, event threads = cores/4 (1–4), 4096
    /// connections, 64 in flight per connection, 60 s idle timeout.
    /// The engine creates its server's [`Metrics`] table.
    ///
    /// # Errors
    /// Returns the OS error when a worker thread cannot be spawned.
    pub fn new(config: &ServeConfig) -> std::io::Result<Engine> {
        let or = |value: usize, default: usize| if value == 0 { default } else { value };
        let workers = or(config.workers, rayon::current_num_threads());
        let net = NetConfig {
            event_threads: or(
                config.event_threads,
                std::thread::available_parallelism().map_or(1, |p| (p.get() / 4).clamp(1, 4)),
            ),
            max_conns: or(config.max_conns, 4096),
            max_inflight: or(config.max_inflight, 64),
            idle_timeout: if config.idle_timeout.is_zero() {
                Duration::from_secs(60)
            } else {
                config.idle_timeout
            },
        };
        let metrics = Arc::new(Metrics::default());
        Ok(Engine {
            pool: WorkerPool::with_metrics(
                workers,
                or(config.queue_capacity, workers * 4),
                Arc::clone(&metrics),
            )?,
            shutdown: CancelToken::new(),
            config: net,
            metrics,
            loops: Mutex::new(Vec::new()),
            acceptor: OnceLock::new(),
        })
    }

    /// Whether a drain has begun.
    #[must_use]
    pub(crate) fn is_draining(&self) -> bool {
        self.shutdown.is_cancelled()
    }

    /// Starts a graceful drain: cancels the shutdown token and wakes
    /// every poller so the acceptor parks and the loops begin flushing
    /// in-flight responses. Idempotent.
    pub fn begin_drain(&self) {
        self.shutdown.cancel();
        if let Some(waker) = self.acceptor.get() {
            waker.wake();
        }
        for shared in self.loops() {
            shared.waker.wake();
        }
    }

    /// The server's counter table, shared with the pool and handed by
    /// the frontend to its other layers.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// A `Stats` reply from the counter table, the pool's shape and the
    /// per-loop activity. The registry's fields (`graphs`,
    /// `resident_bytes`, `budget_bytes`) stay zero for the frontend to
    /// fill.
    #[must_use]
    pub fn stats(&self) -> StatsReply {
        let m = &self.metrics;
        StatsReply {
            requests_served: m.served(),
            overloaded: m.overloaded(),
            deadline_expired: m.deadline_expired(),
            cache_hits: m.cache_hits(),
            cache_misses: m.cache_misses(),
            panics: m.panics(),
            workers: self.pool.workers() as u32,
            queue_capacity: self.pool.capacity() as u32,
            snapshot_writes: m.snapshot_writes(),
            journal_appends: m.journal_appends(),
            journal_replays: m.journal_replays(),
            recovery_quarantined: m.recovery_quarantined(),
            recovery_ms: m.recovery_ms(),
            conns_accepted: m.conns_accepted(),
            conns_open: m.conns_open(),
            event_threads: self.config.event_threads as u32,
            loop_stats: self
                .loops()
                .iter()
                .map(|l| LoopStat {
                    readiness_events: l.readiness_events.get(),
                    loop_wakeups: l.loop_wakeups.get(),
                })
                .collect(),
            ..StatsReply::default()
        }
    }

    /// Records a refused admission (full queue or connection quota) and
    /// builds the `Overloaded` response.
    fn refuse(&self) -> Response {
        self.metrics.overloaded.incr();
        Response::error(ErrorKind::Overloaded, "request queue is full")
    }

    fn loops(&self) -> Vec<Arc<LoopShared>> {
        self.loops
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn close_conn(&self) {
        self.metrics.conns_open.decr();
    }
}

/// The deadline a request carries, fixed at admission so queueing time
/// counts against it; a batch takes its tightest member's.
#[must_use]
pub fn request_deadline(request: &Request) -> Option<Deadline> {
    let ms = match request {
        Request::Count { deadline_ms, .. }
        | Request::PerVertex { deadline_ms, .. }
        | Request::KClique { deadline_ms, .. }
        | Request::ShardCount { deadline_ms, .. }
        | Request::ShardPerVertex { deadline_ms, .. } => *deadline_ms,
        Request::Batch(items) => items
            .iter()
            .filter_map(|item| match item {
                Request::Count { deadline_ms, .. }
                | Request::PerVertex { deadline_ms, .. }
                | Request::KClique { deadline_ms, .. } => Some(*deadline_ms),
                _ => None,
            })
            .min()
            .unwrap_or(NO_DEADLINE),
        _ => NO_DEADLINE,
    };
    (ms != NO_DEADLINE).then(|| Deadline::after(Duration::from_millis(ms)))
}

/// A finished pool job's response, routed back to the owning loop.
#[derive(Debug)]
struct Completion {
    token: u64,
    seq: u64,
    frame: Vec<u8>,
}

/// The cross-thread face of one event loop: the acceptor pushes
/// sockets into `incoming`, pool workers push into `completions`, and
/// both wake the loop's poller afterwards. The loop's always-on
/// activity counters are its `LoopStat` row in the stats reply.
#[derive(Debug)]
struct LoopShared {
    incoming: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    readiness_events: Row,
    loop_wakeups: Row,
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

/// Spawns the event-loop threads and the acceptor/orchestrator thread
/// serving `handler` on `listener`; returns the orchestrator handle
/// (joining it means the network side has fully shut down and the pool
/// is drained).
///
/// # Errors
/// Returns the OS error when a poller, waker, or thread cannot be
/// created.
pub fn start<H: Handler>(
    listener: TcpListener,
    handler: Arc<H>,
) -> std::io::Result<JoinHandle<()>> {
    let engine = handler.engine();
    let mut loop_handles = Vec::with_capacity(engine.config.event_threads);
    for i in 0..engine.config.event_threads {
        let poller = Poller::new()?;
        let shared = Arc::new(LoopShared {
            incoming: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker: poller.waker(Token(WAKER_TOKEN))?,
            readiness_events: Row::default(),
            loop_wakeups: Row::default(),
        });
        engine
            .loops
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&shared));
        let loop_handler = Arc::clone(&handler);
        let handle = std::thread::Builder::new()
            .name(format!("lotus-serve-loop-{i}"))
            .spawn(move || event_loop(&poller, &shared, &loop_handler))?;
        loop_handles.push(handle);
    }

    let accept_poller = Poller::new()?;
    accept_poller.register(listener.as_raw_fd(), Token(LISTENER_TOKEN), Interest::READ)?;
    let _ = engine
        .acceptor
        .set(accept_poller.waker(Token(WAKER_TOKEN))?);
    let loops = engine.loops();

    std::thread::Builder::new()
        .name("lotus-serve-accept".to_string())
        .spawn(move || {
            let engine = handler.engine();
            accept_loop(&accept_poller, &listener, &loops, engine);
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
            engine.pool.shutdown();
        })
}

/// Accepts until drain: quota check, nonblocking setup, round-robin
/// handoff to the loops.
fn accept_loop(
    poller: &Poller,
    listener: &TcpListener,
    loops: &[Arc<LoopShared>],
    engine: &Engine,
) {
    let mut events = Events::with_capacity(8);
    let mut next_loop = 0usize;
    while !engine.is_draining() {
        let _ = poller.wait(&mut events, Some(MAX_WAIT));
        if engine.is_draining() {
            break;
        }
        loop {
            // accept4(SOCK_NONBLOCK) where available: the socket is born
            // nonblocking, so there is no accept-then-configure window.
            match lotus_net::accept_nonblocking(listener) {
                Ok(Some(stream)) => {
                    if engine.metrics.conns_open() >= engine.config.max_conns as u64 {
                        refuse_over_quota(&stream, engine);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    engine.metrics.conns_accepted.incr();
                    engine.metrics.conns_open.incr();
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
fn refuse_over_quota(mut stream: &TcpStream, engine: &Engine) {
    let response = engine.refuse();
    if stream.set_nonblocking(true).is_ok() {
        let _ = stream.write(&encode_frame(&response));
    }
}

/// One connection's state machine: the framed socket plus the
/// daemon-side pipelining and lifecycle state.
struct Conn {
    io: FramedConn,
    /// Completed responses waiting for earlier sequence numbers.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Next sequence number to assign at parse time.
    next_seq: u64,
    /// Next sequence number to append to the out buffer.
    next_to_flush: u64,
    /// Pool jobs outstanding for this connection.
    inflight: usize,
    /// When the socket last yielded bytes: the idle timer's one wheel
    /// entry is re-armed from here when it fires.
    last_read: Instant,
    /// The peer half-closed: buffered frames are still answered.
    eof: bool,
    /// No more parsing: framing damage, a `Drain` reply, or shutdown.
    read_closed: bool,
    /// Transport died; drop without flushing.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            io: FramedConn::new(stream),
            pending: BTreeMap::new(),
            next_seq: 0,
            next_to_flush: 0,
            inflight: 0,
            last_read: now,
            eof: false,
            read_closed: false,
            dead: false,
        }
    }

    /// Bytes queued toward the socket but not yet written.
    fn backlog(&self) -> usize {
        self.io.unflushed() + self.pending.values().map(Vec::len).sum::<usize>()
    }

    /// Whether the loop should stop pulling bytes off this socket.
    fn paused(&self, config: &NetConfig) -> bool {
        self.inflight >= config.max_inflight || self.backlog() > WRITE_BACKLOG_CAP
    }

    /// Whether the socket should be read at all right now.
    fn wants_read(&self, config: &NetConfig) -> bool {
        !self.read_closed && !self.eof && !self.dead && !self.paused(config)
    }

    /// Nothing owed: no job in flight, every response flushed.
    fn idle(&self) -> bool {
        self.inflight == 0 && self.pending.is_empty() && self.io.unflushed() == 0
    }

    /// Nothing left to do: every accepted request answered and flushed.
    fn finished(&self) -> bool {
        self.dead || ((self.read_closed || self.eof) && self.idle())
    }

    fn flush(&mut self, metrics: &Metrics) {
        if self.dead {
            return;
        }
        match self.io.flush() {
            Flush::Done => {}
            Flush::Blocked => metrics.partial_writes.incr(),
            Flush::Failed => self.dead = true,
        }
    }

    /// Re-registers the interest set: readable while reads are wanted,
    /// writable while bytes are queued.
    fn refresh(&mut self, poller: &Poller, token: u64, config: &NetConfig) {
        if self.dead {
            return;
        }
        let readable = self.wants_read(config);
        if self
            .io
            .sync_interest(poller, Token(token), readable)
            .is_err()
        {
            self.dead = true;
        }
    }

    /// Inserts a completed response and appends every now-contiguous
    /// response to the out buffer (in-order pipelining guarantee).
    fn queue_frame(&mut self, seq: u64, frame: Vec<u8>) {
        self.pending.insert(seq, frame);
        while let Some(frame) = self.pending.remove(&self.next_to_flush) {
            self.io.queue(&frame);
            self.next_to_flush += 1;
        }
    }

    /// Answers the next sequence number directly (no pool round trip).
    fn answer(&mut self, response: &Response) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue_frame(seq, encode_frame(response));
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

/// The per-loop view the dispatch helpers need.
struct LoopCtx<'a, H: Handler> {
    shared: &'a Arc<LoopShared>,
    handler: &'a Arc<H>,
    config: NetConfig,
}

/// The loop proper: owns its poller, wheel, and connection table.
fn event_loop<H: Handler>(poller: &Poller, shared: &Arc<LoopShared>, handler: &Arc<H>) {
    let engine = handler.engine();
    let ctx = LoopCtx {
        shared,
        handler,
        config: engine.config,
    };
    let config = &ctx.config;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut wheel = TimerWheel::new(WHEEL_GRANULARITY, WHEEL_SLOTS, Instant::now());
    let mut events = Events::with_capacity(256);
    let mut fired: Vec<u64> = Vec::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut draining_since: Option<Instant> = None;

    loop {
        let timeout = wheel
            .next_deadline(Instant::now())
            .map_or(MAX_WAIT, |d| d.min(MAX_WAIT));
        let _ = poller.wait(&mut events, Some(timeout));
        shared.loop_wakeups.incr();
        shared.readiness_events.add(events.len() as u64);
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
                conn.flush(&engine.metrics);
            }
            if readable || closed {
                pump_reads(conn, token, &ctx, now);
            }
            conn.refresh(poller, token, config);
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
            let mut conn = Conn::new(stream, now);
            if conn
                .io
                .register(poller, Token(token), Interest::READ)
                .is_err()
            {
                engine.close_conn();
                continue;
            }
            wheel.arm(now, config.idle_timeout, token);
            // Bytes may have arrived before registration; with a
            // level-triggered poller a missed edge costs nothing, but
            // serving them now saves one wait.
            pump_reads(&mut conn, token, &ctx, now);
            conn.refresh(poller, token, config);
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
            conn.queue_frame(completion.seq, completion.frame);
            // The inflight quota may have paused parsing mid-buffer;
            // resume from the already-buffered bytes.
            process_frames(conn, completion.token, &ctx);
            conn.flush(&engine.metrics);
            conn.refresh(poller, completion.token, config);
        }

        // 4. Timer wheel: evict idle / slow-loris connections.
        wheel.advance(now, &mut fired);
        for token in fired.drain(..) {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let evictable = conn.idle() && !conn.read_closed;
            match idle_rearm(conn.last_read, now, config.idle_timeout, evictable) {
                Some(after) => wheel.arm(now, after, token),
                // No read progress for a full idle timeout and nothing
                // owed: evict silently (slow-loris sockets land here
                // with a half-received frame buffered).
                None => conn.dead = true,
            }
        }

        // 5. Drain transition: stop reading everywhere, flush, close.
        if engine.is_draining() {
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
        conns.retain(|_, conn| {
            if conn.finished() {
                conn.io.deregister(poller);
                let _ = conn.io.stream().shutdown(std::net::Shutdown::Both);
                engine.close_conn();
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

/// What a connection's idle entry does when it fires: `Some(after)`
/// re-arms it that far ahead, `None` evicts the connection. A read since
/// the entry was armed moves the deadline to `read + timeout`, the last
/// read's; a connection quiet for a whole timeout is evicted when
/// `evictable`, and re-armed for a full timeout while it owes responses.
fn idle_rearm(read: Instant, now: Instant, timeout: Duration, evictable: bool) -> Option<Duration> {
    let quiet = now.saturating_duration_since(read);
    match timeout.checked_sub(quiet) {
        Some(left) if !left.is_zero() => Some(left),
        _ if evictable => None,
        _ => Some(timeout),
    }
}

/// Reads up to [`READ_BUDGET`] bytes off the socket, parses the frames
/// that completed, and flushes whatever got answered inline.
fn pump_reads<H: Handler>(conn: &mut Conn, token: u64, ctx: &LoopCtx<'_, H>, now: Instant) {
    if conn.wants_read(&ctx.config) {
        match conn.io.fill(READ_BUDGET) {
            Ok(inbound) => {
                if inbound.bytes > 0 {
                    conn.last_read = now;
                }
                // EOF: buffered frames are still answered; a truncated
                // remainder is unanswerable and simply dropped, and
                // in-flight responses still flush (half-close support).
                conn.eof |= inbound.eof;
                process_frames(conn, token, ctx);
            }
            Err(_) => conn.dead = true,
        }
    }
    conn.flush(&ctx.handler.engine().metrics);
}

/// Parses every complete buffered frame (respecting the inflight
/// quota) and dispatches each request.
fn process_frames<H: Handler>(conn: &mut Conn, token: u64, ctx: &LoopCtx<'_, H>) {
    while !conn.read_closed && !conn.dead && conn.inflight < ctx.config.max_inflight {
        match conn.io.next_frame() {
            None => break,
            Some(Err(e)) => {
                // The stream cannot be resynchronized: answer with a
                // typed protocol error, then close after flushing.
                conn.answer(&Response::error(ErrorKind::Protocol, e.to_string()));
                conn.read_closed = true;
            }
            Some(Ok(payload)) => match Request::decode(&payload) {
                // CRC-valid but undecodable: the stream is still
                // synchronized — answer and keep the connection.
                Err(e) => conn.answer(&Response::error(ErrorKind::BadRequest, e.to_string())),
                Ok(request) => dispatch(conn, token, request, ctx),
            },
        }
    }
}

/// Routes one decoded request: the handler's inline answers on the
/// loop thread, everything else through the bounded pool.
fn dispatch<H: Handler>(conn: &mut Conn, token: u64, request: Request, ctx: &LoopCtx<'_, H>) {
    let engine = ctx.handler.engine();
    if let Some(response) = ctx.handler.inline(&request) {
        conn.answer(&response);
        if matches!(response, Response::Draining) {
            // The drain reply is this connection's last frame.
            conn.read_closed = true;
        }
        return;
    }
    if engine.is_draining() {
        conn.answer(&Response::error(
            ErrorKind::ShuttingDown,
            "daemon is draining",
        ));
        return;
    }
    let seq = conn.next_seq;
    conn.next_seq += 1;
    // Deadline fixed at admission: queueing time counts against it.
    let deadline = request_deadline(&request);
    let job_handler = Arc::clone(ctx.handler);
    let job_shared = Arc::clone(ctx.shared);
    let submitted = engine.pool.try_submit(Box::new(move || {
        let response = job_handler.pooled(&request, deadline);
        job_shared.push_completion(Completion {
            token,
            seq,
            frame: encode_frame(&response),
        });
    }));
    if submitted {
        conn.inflight += 1;
    } else {
        conn.queue_frame(seq, encode_frame(&engine.refuse()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connection that reads every 10 ms keeps one wheel entry, and is
    /// evicted one timeout after its last read, never before.
    #[test]
    fn one_idle_entry_per_connection_fires_from_the_last_read() {
        let start = Instant::now();
        let timeout = Duration::from_millis(200);
        let mut wheel = TimerWheel::new(Duration::from_millis(5), 16, start);
        wheel.arm(start, timeout, 7);
        let (mut last_read, mut fired, mut evicted) = (start, Vec::new(), None);
        for step in 1..=200u64 {
            let now = start + Duration::from_millis(10 * step);
            // Reads for one second, then silence.
            if step <= 100 {
                last_read = now;
            }
            wheel.advance(now, &mut fired);
            for token in fired.drain(..) {
                assert_eq!(token, 7);
                match idle_rearm(last_read, now, timeout, true) {
                    Some(after) => wheel.arm(now, after, token),
                    None => evicted = evicted.or(Some(now)),
                }
            }
            assert!(wheel.armed() <= 1, "step {step}: {} entries", wheel.armed());
        }
        let quiet = evicted.expect("never evicted").duration_since(last_read);
        assert!(quiet >= timeout, "evicted {quiet:?} after the last read");
        assert!(quiet <= timeout + Duration::from_millis(20), "{quiet:?}");
    }

    #[test]
    fn a_quiet_connection_that_owes_responses_is_re_armed() {
        let last_read = Instant::now();
        let timeout = Duration::from_secs(60);
        let later = |s| last_read + Duration::from_secs(s);
        assert_eq!(
            idle_rearm(last_read, later(20), timeout, true),
            Some(later(60) - later(20))
        );
        assert_eq!(idle_rearm(last_read, later(60), timeout, true), None);
        assert_eq!(
            idle_rearm(last_read, later(61), timeout, false),
            Some(timeout)
        );
    }
}
