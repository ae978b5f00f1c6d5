//! The serve daemon: startup, durability, and the request [`Handler`]
//! it plugs into the shared event loop.
//!
//! Architecture (DESIGN.md §11 / §14):
//!
//! - The [`event_loop`] owns the sockets: one acceptor thread enforces
//!   the connection quota and hands sockets round-robin to a small set
//!   of loop threads (`--event-threads`), each running nonblocking
//!   per-connection state machines with in-order pipelining.
//! - Fast admin requests (`Ping`, `Stats`, `EvictGraph`, `Drain`,
//!   `ShardStat`) run inline on the loop; everything else (`Count`,
//!   `PerVertex`, `KClique`, `Batch`, and `LoadGraph`, whose
//!   preprocessing can take seconds) passes through the engine's
//!   bounded worker pool: a full queue yields an explicit `Overloaded`
//!   response (admission control), never a hang.
//! - Every work request carries a [`Deadline`] fixed at admission; jobs
//!   re-check it at dequeue and counting kernels poll it via their
//!   [`RunGuard`], so a `0 ms` deadline reliably returns
//!   `DeadlineExpired` without killing anything.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lotus_core::kclique::{count_kcliques, count_oriented_kcliques};
use lotus_core::{per_vertex::count_per_vertex, CountError, LotusCounter};
use lotus_graph::UndirectedCsr;
use lotus_resilience::{isolate, Deadline, MemoryBudget, RunGuard, StopReason};
use lotus_telemetry::{Span, SpanId};

use crate::event_loop::{self, request_deadline, Engine, Handler};
use crate::metrics::Metrics;
use crate::proto::{ErrorKind, Request, Response, StatsReply, MAX_CLIQUE_K, MAX_PER_VERTEX_SPAN};
use crate::recovery::RecoveryReport;
use crate::registry::{PreparedGraph, Registry, RegistryError};
use crate::shards::{self, ShardStore};
use crate::store::{DurableStore, StoreError};

/// How often the checkpoint thread re-checks shutdown between sleeps.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Address to bind (no port), e.g. `127.0.0.1`.
    pub bind: String,
    /// TCP port; `0` asks the OS for an ephemeral port (the bound port
    /// is in [`ServerHandle::addr`]).
    pub port: u16,
    /// Worker threads; `0` means `rayon::current_num_threads()`.
    pub workers: usize,
    /// Bounded queue slots; `0` means `4 × workers`.
    pub queue_capacity: usize,
    /// Registry memory budget.
    pub budget: MemoryBudget,
    /// Graphs to load before accepting connections: `(name, spec)`.
    pub preload: Vec<(String, String)>,
    /// Durability directory; `None` runs fully in-memory (the previous
    /// behavior). With a data dir, startup recovers snapshots + journal
    /// and explicit registrations persist crash-safely (DESIGN.md §13).
    pub data_dir: Option<PathBuf>,
    /// How often the checkpoint thread compacts the journal and GCs
    /// orphan snapshots; `None` disables periodic checkpoints (one still
    /// runs at shutdown). Ignored without a data dir.
    pub snapshot_interval: Option<Duration>,
    /// Event-loop threads multiplexing connections; `0` picks a small
    /// default from the machine's parallelism (1–4).
    pub event_threads: usize,
    /// Connection quota: sockets accepted past this are answered with a
    /// best-effort `Overloaded` frame and closed. `0` means the default
    /// (4096).
    pub max_conns: usize,
    /// Idle / slow-loris timeout: a connection that makes no read
    /// progress for this long (and has nothing in flight) is evicted by
    /// the timer wheel. `Duration::ZERO` means the default (60 s).
    pub idle_timeout: Duration,
    /// Per-connection pipelining cap: the loop stops reading more
    /// frames from a connection once this many of its requests are in
    /// flight (backpressure, not an error). `0` means the default (64).
    pub max_inflight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: "127.0.0.1".to_string(),
            port: 0,
            workers: 0,
            queue_capacity: 0,
            budget: MemoryBudget::from_bytes(512 << 20),
            preload: Vec::new(),
            data_dir: None,
            snapshot_interval: None,
            event_threads: 0,
            max_conns: 0,
            idle_timeout: Duration::ZERO,
            max_inflight: 0,
        }
    }
}

/// Shared daemon state: registry, engine (pool, counters, shutdown),
/// durability.
pub struct ServerState {
    registry: Registry,
    engine: Engine,
    store: Option<Arc<DurableStore>>,
    recovery: Option<RecoveryReport>,
    shards: ShardStore,
}

impl ServerState {
    /// The graph registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shard-subgraph store (cluster tier, DESIGN.md §16).
    #[must_use]
    pub fn shards(&self) -> &ShardStore {
        &self.shards
    }

    /// The daemon's always-on counter table.
    #[must_use]
    pub fn stats(&self) -> &Metrics {
        self.engine.metrics()
    }

    /// The durable store, when the daemon runs with a data dir.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<DurableStore>> {
        self.store.as_ref()
    }

    /// What startup recovery did, when the daemon runs with a data dir.
    #[must_use]
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Assembles the wire-level stats reply: the engine's, plus the
    /// registry's occupancy.
    #[must_use]
    pub fn stats_reply(&self) -> StatsReply {
        StatsReply {
            graphs: self.registry.len() as u32,
            resident_bytes: self.registry.resident_bytes(),
            budget_bytes: self.registry.budget_bytes(),
            ..self.engine.stats()
        }
    }
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("registry", &self.registry)
            .field("engine", &self.engine)
            .finish()
    }
}

/// Handle to a running daemon.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    checkpoint: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port `0` to the real ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared daemon state (registry + stats), for in-process tests
    /// and embedding.
    #[must_use]
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Requests shutdown (same path as a `Drain` request). Returns
    /// immediately; use [`ServerHandle::wait`] to join.
    pub fn shutdown(&self) {
        self.state.engine.begin_drain();
    }

    /// Blocks until the daemon exits (accept loop joined, connections
    /// closed, worker pool drained, final checkpoint written).
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.checkpoint.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.engine.begin_drain();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.checkpoint.take() {
            let _ = handle.join();
        }
    }
}

/// A daemon startup failure.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listener failed.
    Bind(std::io::Error),
    /// Spawning the worker pool failed.
    Workers(std::io::Error),
    /// A `--preload` graph failed to load.
    Preload {
        /// Registry key that failed.
        name: String,
        /// The underlying registry error.
        error: RegistryError,
    },
    /// Opening the durable store (or running recovery) failed.
    Durability(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "binding listener: {e}"),
            ServeError::Workers(e) => write!(f, "spawning worker pool: {e}"),
            ServeError::Preload { name, error } => {
                write!(f, "preloading `{name}`: {error}")
            }
            ServeError::Durability(e) => write!(f, "opening durable store: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Binds the listener, recovers durable state, preloads graphs, and
/// spawns the accept loop (plus the checkpoint thread when a data dir
/// is configured).
///
/// # Errors
/// Returns [`ServeError::Bind`] when the address cannot be bound,
/// [`ServeError::Durability`] when the data dir cannot be opened, and
/// [`ServeError::Preload`] when a preload graph fails to load.
pub fn spawn(config: ServeConfig) -> Result<ServerHandle, ServeError> {
    // The engine owns the counter table every other layer counts into.
    let engine = Engine::new(&config).map_err(ServeError::Workers)?;
    let metrics = Arc::clone(engine.metrics());
    // Durability next: recovery must finish before anything is served
    // so the registry starts from exactly the last durably acknowledged
    // state (damaged files quarantined, never fatal).
    let mut recovered_graphs = Vec::new();
    let mut store = None;
    let mut recovery = None;
    if let Some(data_dir) = &config.data_dir {
        let (opened, recovered_state) =
            DurableStore::open_with_metrics(data_dir, Arc::clone(&metrics))
                .map_err(ServeError::Durability)?;
        store = Some(Arc::new(opened));
        recovery = Some(recovered_state.report);
        recovered_graphs = recovered_state.graphs;
    }

    let state = Arc::new(ServerState {
        registry: Registry::with_metrics(config.budget, metrics),
        engine,
        store,
        recovery,
        shards: ShardStore::new(),
    });
    if let Some(store) = &state.store {
        // LRU evictions happen inside Registry::load, invisible to
        // dispatch; the hook journals the durable ones so the manifest
        // never resurrects a graph the budget pushed out.
        let hook_store = Arc::clone(store);
        state.registry.set_evict_hook(move |name| {
            let _ = hook_store.record_evict(name);
        });
    }
    for recovered in recovered_graphs {
        // Snapshots hold the canonical edge list; preprocessing is
        // deterministic, so the rebuilt counts are bit-identical.
        let graph = UndirectedCsr::from_canonical_edges(&recovered.edges);
        let prepared = Arc::new(PreparedGraph::new(&recovered.name, graph));
        if let Err(error) = state.registry.insert_prepared(prepared) {
            return Err(ServeError::Preload {
                name: recovered.name,
                error,
            });
        }
    }
    for (name, spec) in &config.preload {
        let (prepared, _evicted) =
            state
                .registry
                .load(name, spec)
                .map_err(|error| ServeError::Preload {
                    name: name.clone(),
                    error,
                })?;
        if let Some(store) = &state.store {
            store
                .record_register(name, spec, &prepared.graph)
                .map_err(ServeError::Durability)?;
        }
    }
    let listener =
        TcpListener::bind((config.bind.as_str(), config.port)).map_err(ServeError::Bind)?;
    let addr = listener.local_addr().map_err(ServeError::Bind)?;
    listener.set_nonblocking(true).map_err(ServeError::Bind)?;

    let accept = event_loop::start(listener, Arc::clone(&state)).map_err(ServeError::Bind)?;

    let mut checkpoint = None;
    if state.store.is_some() {
        let ckpt_state = Arc::clone(&state);
        let interval = config.snapshot_interval;
        checkpoint = std::thread::Builder::new()
            .name("lotus-serve-checkpoint".to_string())
            .spawn(move || checkpoint_loop(&ckpt_state, interval))
            .ok();
    }

    Ok(ServerHandle {
        addr,
        state,
        accept: Some(accept),
        checkpoint,
    })
}

/// Periodically compacts the journal and GCs orphan snapshots; always
/// runs one final checkpoint at shutdown so a clean exit leaves a
/// single-record journal behind.
fn checkpoint_loop(state: &ServerState, interval: Option<Duration>) {
    let mut last = Instant::now();
    while !state.engine.is_draining() {
        std::thread::sleep(POLL_INTERVAL);
        if let Some(every) = interval {
            if last.elapsed() >= every {
                if let Some(store) = &state.store {
                    let _ = store.checkpoint();
                }
                last = Instant::now();
            }
        }
    }
    if let Some(store) = &state.store {
        let _ = store.checkpoint();
    }
}

impl Handler for ServerState {
    fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Handles a request cheap enough to run inline on an event-loop
    /// thread: `Ping`, `Stats`, `EvictGraph`, `Drain`, `ShardStat`.
    /// Returns `None` for everything that must go through the worker
    /// pool (`LoadGraph`'s preprocessing can take seconds, so it is
    /// pool-bound too — a stalled loop thread would stall every
    /// connection it owns).
    fn inline(&self, request: &Request) -> Option<Response> {
        match request {
            Request::Ping => Some(Response::Pong),
            Request::Stats => Some(Response::Stats(self.stats_reply())),
            Request::EvictGraph { name } => {
                // A coordinator fans EvictGraph to its shards, so the
                // shard store must honor it too — either copy counts.
                let shard_existed = self.shards.evict(name);
                let existed = self.registry.evict(name) || shard_existed;
                if let Some(store) = self.store() {
                    if let Err(e) = store.record_evict(name) {
                        return Some(Response::error(
                            ErrorKind::DurabilityFailed,
                            format!("`{name}` evicted but the journal append failed: {e}"),
                        ));
                    }
                }
                Some(Response::Evicted { existed })
            }
            Request::Drain => {
                self.engine.begin_drain();
                Some(Response::Draining)
            }
            Request::ShardStat => {
                let (graphs, owned_vertices, entries, ghost_entries) = self.shards.stat();
                Some(Response::ShardStat {
                    graphs,
                    owned_vertices,
                    entries,
                    ghost_entries,
                })
            }
            Request::ShardJoin { .. } => Some(Response::error(
                ErrorKind::BadRequest,
                "ShardJoin is a coordinator request; this is a shard/serve daemon",
            )),
            _ => None,
        }
    }

    /// Runs a pool-bound request on a worker thread: panic-isolated,
    /// span-wrapped, outcome-counted. The deadline was fixed at
    /// admission, so queueing time counts against it — a `0 ms`
    /// deadline expires before the job even dequeues.
    fn pooled(&self, request: &Request, deadline: Option<Deadline>) -> Response {
        let _span = Span::enter(SpanId::ServeRequest);
        if let Request::LoadGraph { name, spec } = request {
            // Registry loads run their own isolation inside the kernels;
            // counting stats are not bumped for admin requests.
            return run_load_graph(name, spec, self);
        }
        if let Request::ShardLoad {
            name,
            spec,
            parts,
            index,
        } = request
        {
            // Placement, like LoadGraph, is admin work: the transient
            // full build can take seconds, so it is pool-bound but not
            // counted against the serving stats.
            return isolate(|| shards::run_shard_load(self.shards(), name, spec, *parts, *index))
                .unwrap_or_else(|panic| {
                    self.stats().panics.incr();
                    Response::error(ErrorKind::WorkerPanic, panic.message)
                });
        }
        let response = isolate(|| execute_work(request, deadline, self)).unwrap_or_else(|panic| {
            self.stats().panics.incr();
            Response::error(ErrorKind::WorkerPanic, panic.message)
        });
        record_outcome(&response, self);
        response
    }
}

fn run_load_graph(name: &str, spec: &str, state: &ServerState) -> Response {
    match state.registry.load(name, spec) {
        Ok((prepared, evicted)) => {
            // Persist only after the load succeeded; a durability
            // failure is reported (the graph still serves from RAM,
            // but the client must know it is not crash-safe).
            if let Some(store) = state.store() {
                if let Err(e) = store.record_register(name, spec, &prepared.graph) {
                    return Response::error(
                        ErrorKind::DurabilityFailed,
                        format!("`{name}` loaded but not persisted: {e}"),
                    );
                }
            }
            Response::Loaded {
                vertices: prepared.graph.num_vertices(),
                edges: prepared.graph.num_edges(),
                bytes: prepared.bytes,
                evicted,
            }
        }
        Err(e) => registry_error_response(&e),
    }
}

/// Bumps the served / deadline-expired stats for a completed work
/// response (batches count once, by their worst member).
fn record_outcome(response: &Response, state: &ServerState) {
    let kind = match response {
        Response::Batch(items) => items.iter().find_map(|r| match r {
            Response::Error { kind, .. } => Some(*kind),
            _ => None,
        }),
        Response::Error { kind, .. } => Some(*kind),
        _ => None,
    };
    match kind {
        None => state.stats().served.incr(),
        Some(ErrorKind::DeadlineExpired) => state.stats().deadline_expired.incr(),
        Some(_) => {}
    }
}

/// Executes a work request on a worker thread.
fn execute_work(request: &Request, deadline: Option<Deadline>, state: &ServerState) -> Response {
    if deadline.is_some_and(|d| d.expired()) {
        return Response::error(
            ErrorKind::DeadlineExpired,
            "deadline expired before execution",
        );
    }
    match request {
        Request::Count { name, .. } => run_count(name, deadline, state),
        Request::PerVertex {
            name, start, end, ..
        } => run_per_vertex(name, *start, *end, deadline, state),
        Request::KClique { name, k, .. } => run_kclique(name, *k, deadline, state),
        Request::ShardCount { name, .. } => shards::run_shard_count(state.shards(), name, deadline),
        Request::ShardPerVertex {
            name, start, end, ..
        } => shards::run_shard_per_vertex(state.shards(), name, *start, *end, deadline),
        Request::Batch(items) => Response::Batch(
            items
                .iter()
                .map(|item| match item {
                    Request::Ping => Response::Pong,
                    Request::Stats => Response::Stats(state.stats_reply()),
                    Request::Count { .. } | Request::PerVertex { .. } | Request::KClique { .. } => {
                        execute_work(item, request_deadline(item), state)
                    }
                    _ => Response::error(
                        ErrorKind::BadRequest,
                        "admin requests are not allowed inside a batch",
                    ),
                })
                .collect(),
        ),
        _ => Response::error(ErrorKind::BadRequest, "not a work request"),
    }
}

fn run_count(name: &str, deadline: Option<Deadline>, state: &ServerState) -> Response {
    let (prepared, cached) = match state.registry.get_or_load(name) {
        Ok(found) => found,
        Err(e) => return registry_error_response(&e),
    };
    let start = Instant::now();
    count_triangles(&prepared, deadline, state, |triangles| Response::Count {
        triangles,
        cached,
        wall_micros: start.elapsed().as_micros() as u64,
    })
}

/// Counts the triangles of a resident graph under the request's
/// deadline and answers with `reply(triangles)`; an interrupted or
/// panicked count answers with an error.
fn count_triangles(
    prepared: &PreparedGraph,
    deadline: Option<Deadline>,
    state: &ServerState,
    reply: impl FnOnce(u64) -> Response,
) -> Response {
    let mut guard = RunGuard::unlimited();
    if let Some(d) = deadline {
        guard = guard.with_deadline(d);
    }
    let counter = LotusCounter::new(prepared.config);
    match counter.count_prepared_guarded(&prepared.lotus, &guard) {
        Ok(result) => reply(result.total()),
        Err(CountError::Interrupted { reason, .. }) => match reason {
            StopReason::DeadlineExpired => {
                Response::error(ErrorKind::DeadlineExpired, "deadline expired mid-count")
            }
            StopReason::Cancelled => Response::error(ErrorKind::Cancelled, "count cancelled"),
        },
        Err(CountError::PhasePanic { message, phase, .. }) => {
            state.stats().panics.incr();
            Response::error(
                ErrorKind::WorkerPanic,
                format!("phase {phase:?} panicked: {message}"),
            )
        }
    }
}

fn run_per_vertex(
    name: &str,
    start: u32,
    end: u32,
    deadline: Option<Deadline>,
    state: &ServerState,
) -> Response {
    let (prepared, _cached) = match state.registry.get_or_load(name) {
        Ok(found) => found,
        Err(e) => return registry_error_response(&e),
    };
    let n = prepared.graph.num_vertices();
    // (0, 0) means "from the start": the span cap still applies.
    let (start, end) = if start == 0 && end == 0 {
        (0, n.min(MAX_PER_VERTEX_SPAN))
    } else {
        (start, end.min(n))
    };
    if start > end {
        return Response::error(
            ErrorKind::BadRequest,
            format!("range start {start} is past end {end}"),
        );
    }
    if end - start > MAX_PER_VERTEX_SPAN {
        return Response::error(
            ErrorKind::BadRequest,
            format!(
                "range of {} vertices exceeds the {MAX_PER_VERTEX_SPAN}-vertex cap",
                end - start
            ),
        );
    }
    if deadline.is_some_and(|d| d.expired()) {
        return Response::error(
            ErrorKind::DeadlineExpired,
            "deadline expired before counting",
        );
    }
    let counts = count_per_vertex(&prepared.lotus);
    Response::PerVertex {
        start,
        counts: counts[start as usize..end as usize].to_vec(),
    }
}

fn run_kclique(name: &str, k: u32, deadline: Option<Deadline>, state: &ServerState) -> Response {
    if k == 0 || k > MAX_CLIQUE_K {
        return Response::error(
            ErrorKind::BadRequest,
            format!("clique size {k} outside 1..={MAX_CLIQUE_K}"),
        );
    }
    let (prepared, _cached) = match state.registry.get_or_load(name) {
        Ok(found) => found,
        Err(e) => return registry_error_response(&e),
    };
    let reply = |cliques| Response::KClique { k, cliques };
    match k {
        1 | 2 => reply(count_kcliques(&prepared.graph, k as usize)),
        // Triangles are 3-cliques: the resident LOTUS graph counts them.
        3 => count_triangles(&prepared, deadline, state, reply),
        _ if deadline.is_some_and(|d| d.expired()) => Response::error(
            ErrorKind::DeadlineExpired,
            "deadline expired before counting",
        ),
        _ => reply(count_oriented_kcliques(&prepared.cliques, k as usize)),
    }
}

fn registry_error_response(e: &RegistryError) -> Response {
    let kind = match e {
        RegistryError::NotFound(_) => ErrorKind::NotFound,
        RegistryError::BadSpec(_) | RegistryError::OverBudget { .. } => ErrorKind::BadRequest,
    };
    Response::error(kind, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServerState {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        ServerState {
            registry: Registry::new(config.budget),
            engine: Engine::new(&config).expect("engine"),
            store: None,
            recovery: None,
            shards: ShardStore::new(),
        }
    }

    /// A 3-clique request is a guarded triangle count: an expired
    /// deadline stops it inside the counting driver.
    #[test]
    fn an_expired_deadline_stops_a_served_triangle_clique_count() {
        let state = state();
        let expired = Some(Deadline::after(Duration::ZERO));
        match run_kclique("rmat:8:8:11", 3, expired, &state) {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::DeadlineExpired, "{message}");
                assert!(message.contains("mid-count"), "{message}");
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        let unlimited = run_kclique("rmat:8:8:11", 3, None, &state);
        let count = run_count("rmat:8:8:11", None, &state);
        match (unlimited, count) {
            (Response::KClique { k: 3, cliques }, Response::Count { triangles, .. }) => {
                assert_eq!(cliques, triangles);
            }
            other => panic!("unexpected replies {other:?}"),
        }
    }
}
