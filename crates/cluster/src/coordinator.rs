//! The cluster coordinator daemon (DESIGN.md §16).
//!
//! An LSRV front-end that owns the shard map and answers the same wire
//! protocol as a single `lotus-serve` daemon — clients do not change.
//! It runs on the daemon's own event loop ([`lotus_serve::event_loop`]):
//! `Ping`/`Stats`/`Drain` answer inline on a loop thread, and everything
//! that touches the fleet or the journal runs panic-isolated on the
//! bounded worker pool, so the coordinator shares the daemon's quotas,
//! idle eviction, pipelining, drain grace and admission control. Graph
//! queries fan out to every shard holding a partition (over the
//! pipelined [`crate::fleet`]), and per-shard answers merge into one
//! exact result:
//!
//! * `Count` → `ShardCount` to shards `0..parts`; triangles **sum**
//!   (each triangle is owned by exactly one shard — the one whose
//!   vertex range contains its apex).
//! * `PerVertex` → `ShardPerVertex`; counts sum **element-wise**.
//! * `LoadGraph` → `ShardLoad` with `(parts = fleet size, index = i)`;
//!   the placement is journaled through the PR-7 durable store before
//!   the client sees `Loaded`.
//! * `EvictGraph` → fan + journaled un-placement.
//! * `ShardJoin` / `ShardStat` — fleet membership and merged occupancy.
//!
//! A slow or dead shard resolves to a typed
//! [`ErrorKind::ShardUnavailable`] within the request deadline — never
//! a hang. With [`ClusterConfig::allow_partial`] the coordinator
//! instead degrades `Count` to a partial sum over the live shards
//! (marked `cached: false`; see DESIGN.md §16 for why this is off by
//! default).
//!
//! Lock discipline (PR-9): the map (`cluster.map`), fleet
//! (`cluster.fleet`) and journal (`cluster.journal`) mutexes are all
//! [`TracedMutex`]es and are **never nested** — every dispatch clones
//! what it needs from the map, releases it, fans out, then re-acquires
//! to record the outcome. No ordering edges, no cycles.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lotus_resilience::retry::RetryPolicy;
use lotus_resilience::{isolate, Deadline};
use lotus_serve::event_loop::{self, request_deadline, Engine, Handler};
use lotus_serve::journal::{read_journal, Journal, JournalRecord};
use lotus_serve::proto::{ErrorKind, Request, Response, StatsReply, MAX_BATCH};
use lotus_serve::ServeConfig;
use lotus_telemetry::counters::{self, Counter};
use lotus_telemetry::sync::{TracedGuard, TracedMutex};

use crate::fleet::{Fleet, FleetError, ShardCall};
use crate::map::ShardMap;

/// File name of the coordinator's shard-map journal inside
/// [`ClusterConfig::data_dir`].
pub const CLUSTER_JOURNAL: &str = "cluster.journal";

/// Queue slots of the coordinator's worker pool: one connection's full
/// pipelining window (the engine's default `max_inflight`). A queued
/// fan-out waits on shards behind the fleet mutex rather than holding a
/// core, so the daemon's 4 × workers default would refuse a single
/// pipelining client on a small machine. Every other figure is the
/// daemon's default.
const QUEUE_CAPACITY: usize = 64;

/// Coordinator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Address to bind (no port), e.g. `127.0.0.1`.
    pub bind: String,
    /// TCP port; `0` asks the OS for an ephemeral port.
    pub port: u16,
    /// Initial shard endpoints (`host:port`), joined before accepting
    /// connections. More shards may `ShardJoin` later.
    pub shards: Vec<String>,
    /// Durability directory for the shard-map journal; `None` keeps the
    /// map in memory only.
    pub data_dir: Option<PathBuf>,
    /// Fan-out deadline applied when a request carries none.
    pub default_deadline: Duration,
    /// Degraded mode: answer `Count` with a partial sum over live
    /// shards instead of `ShardUnavailable` when some shards fail.
    pub allow_partial: bool,
    /// Seed for the deterministic connect-retry backoff schedule.
    pub retry_seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            bind: "127.0.0.1".to_string(),
            port: 0,
            shards: Vec::new(),
            data_dir: None,
            default_deadline: Duration::from_secs(10),
            allow_partial: false,
            retry_seed: 0x10705,
        }
    }
}

/// Coordinator startup failure.
#[derive(Debug)]
pub enum ClusterError {
    /// Socket setup failed.
    Io(std::io::Error),
    /// The shard-map journal could not be read or opened.
    Journal(std::io::Error),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "coordinator socket error: {e}"),
            ClusterError::Journal(e) => write!(f, "shard-map journal error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Always-on coordinator counters (relaxed atomics, mirrored into
/// `lotus_telemetry::counters` in armed builds).
#[derive(Debug, Default)]
pub struct ClusterStats {
    served: AtomicU64,
    fanout_calls: AtomicU64,
    shard_failures: AtomicU64,
    partial_answers: AtomicU64,
}

impl ClusterStats {
    /// Requests answered (any outcome).
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Individual shard calls fanned out.
    #[must_use]
    pub fn fanout_calls(&self) -> u64 {
        self.fanout_calls.load(Ordering::Relaxed)
    }

    /// Shard calls that resolved to an error (dead/slow/desynced).
    #[must_use]
    pub fn shard_failures(&self) -> u64 {
        self.shard_failures.load(Ordering::Relaxed)
    }

    /// Degraded partial `Count` answers returned.
    #[must_use]
    pub fn partial_answers(&self) -> u64 {
        self.partial_answers.load(Ordering::Relaxed)
    }
}

/// Shared coordinator state (map + fleet + journal + counters + the
/// serving engine).
#[derive(Debug)]
pub struct ClusterState {
    config: ClusterConfig,
    map: TracedMutex<ShardMap>,
    fleet: TracedMutex<Fleet>,
    journal: Option<TracedMutex<Journal>>,
    stats: ClusterStats,
    engine: Engine,
    /// Milliseconds the startup map-journal replay took (0 without a
    /// data dir).
    recovery_ms: u64,
    /// Map-journal records that replay read.
    journal_replays: u64,
}

impl ClusterState {
    /// Coordinator counters.
    #[must_use]
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Requests shutdown: the acceptor parks, and the loops flush every
    /// accepted request and close.
    pub fn begin_drain(&self) {
        self.engine.begin_drain();
    }

    fn lock_map(&self) -> TracedGuard<'_, ShardMap> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_fleet(&self) -> TracedGuard<'_, Fleet> {
        self.fleet
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends one record to the shard-map journal (fsynced per append,
    /// same guarantee as the PR-7 registry manifest). Journal I/O
    /// failures are surfaced to the caller so admin replies can report
    /// them instead of claiming durability that did not happen.
    fn journal_append(&self, record: &JournalRecord) -> Result<(), std::io::Error> {
        let Some(journal) = self.journal.as_ref() else {
            return Ok(());
        };
        journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .append(record)
    }

    /// Fans `calls` out through the fleet under one deadline.
    fn fan_out(
        &self,
        calls: &[ShardCall],
        deadline: Deadline,
    ) -> Vec<Result<Response, FleetError>> {
        self.stats
            .fanout_calls
            .fetch_add(calls.len() as u64, Ordering::Relaxed);
        counters::add(Counter::ClusterFanoutCalls, calls.len() as u64);
        let replies = self.lock_fleet().broadcast(calls, deadline);
        let failures = replies.iter().filter(|r| r.is_err()).count() as u64;
        if failures > 0 {
            self.stats
                .shard_failures
                .fetch_add(failures, Ordering::Relaxed);
            counters::add(Counter::ClusterShardFailures, failures);
        }
        replies
    }

    /// The request's admission deadline, or the configured fan-out
    /// default when it carries none.
    fn effective_deadline(&self, deadline: Option<Deadline>) -> Deadline {
        deadline.unwrap_or_else(|| Deadline::after(self.config.default_deadline))
    }

    /// Answers one request and counts it.
    fn answer(&self, request: &Request, deadline: Option<Deadline>) -> Response {
        let response = dispatch(self, request, deadline);
        self.stats.served.fetch_add(1, Ordering::Relaxed);
        response
    }
}

impl Handler for ClusterState {
    fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Requests that touch neither the fleet nor the journal.
    fn inline(&self, request: &Request) -> Option<Response> {
        let cheap = matches!(
            request,
            Request::Ping
                | Request::Stats
                | Request::Drain
                | Request::KClique { .. }
                | Request::ShardLoad { .. }
                | Request::ShardCount { .. }
                | Request::ShardPerVertex { .. }
        );
        cheap.then(|| self.answer(request, None))
    }

    /// Fan-outs and journaled map changes, panic-isolated so a fault
    /// still answers its connection.
    fn pooled(&self, request: &Request, deadline: Option<Deadline>) -> Response {
        isolate(|| self.answer(request, deadline))
            .unwrap_or_else(|panic| Response::error(ErrorKind::WorkerPanic, panic.message))
    }
}

/// Handle to a running coordinator.
#[derive(Debug)]
pub struct CoordinatorHandle {
    addr: SocketAddr,
    state: Arc<ClusterState>,
    accept: Option<JoinHandle<()>>,
}

impl CoordinatorHandle {
    /// The bound address (port `0` resolved).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared coordinator state, for tests and embedding.
    #[must_use]
    pub fn state(&self) -> &Arc<ClusterState> {
        &self.state
    }

    /// Requests shutdown (same path as a `Drain` request).
    pub fn shutdown(&self) {
        self.state.begin_drain();
    }

    /// Blocks until the coordinator exits: acceptor parked, every
    /// accepted request answered, connections closed, pool drained.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CoordinatorHandle {
    fn drop(&mut self) {
        self.state.begin_drain();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Starts a coordinator: recovers the shard map from the journal (if a
/// data dir is configured), registers the configured shard endpoints,
/// binds, and starts the event loop with the daemon's default sizing
/// but a 64-slot queue.
///
/// # Errors
/// [`ClusterError::Journal`] when the journal cannot be read or opened;
/// [`ClusterError::Io`] when the listener cannot bind or the loop's
/// threads cannot start.
pub fn spawn(config: ClusterConfig) -> Result<CoordinatorHandle, ClusterError> {
    let mut map = ShardMap::new();
    let mut journal = None;
    let (mut recovery_ms, mut journal_replays) = (0, 0);
    if let Some(dir) = config.data_dir.as_ref() {
        std::fs::create_dir_all(dir).map_err(ClusterError::Journal)?;
        let path = dir.join(CLUSTER_JOURNAL);
        if path.exists() {
            let replay = Instant::now();
            let readout = read_journal(&path).map_err(ClusterError::Journal)?;
            journal_replays = readout.records.len() as u64;
            let (recovered, errors) = ShardMap::from_entries(&readout.fold());
            // Per-entry damage is tolerated (the map degrades), but it
            // is not silent: counted for the operator.
            counters::add(Counter::ClusterMapRecoveryErrors, errors.len() as u64);
            map = recovered;
            recovery_ms = replay.elapsed().as_millis() as u64;
        }
        journal = Some(TracedMutex::new(
            "cluster.journal",
            Journal::open(&path).map_err(ClusterError::Journal)?,
        ));
    }

    let retry = RetryPolicy::serve_default(config.retry_seed);
    let mut fleet = Fleet::new(map.endpoints(), retry);
    // Configured endpoints join after recovered ones; re-listing a
    // recovered endpoint is a no-op.
    let mut join_records = Vec::new();
    for addr in &config.shards {
        if let Some((_index, (key, value))) = map.join(addr) {
            fleet.push_endpoint(addr);
            join_records.push(JournalRecord::Register {
                name: key,
                spec: value,
            });
        }
    }

    let state = Arc::new(ClusterState {
        config,
        map: TracedMutex::new("cluster.map", map),
        fleet: TracedMutex::new("cluster.fleet", fleet),
        journal,
        stats: ClusterStats::default(),
        engine: Engine::new(&ServeConfig {
            queue_capacity: QUEUE_CAPACITY,
            ..ServeConfig::default()
        })
        .map_err(ClusterError::Io)?,
        recovery_ms,
        journal_replays,
    });
    for record in &join_records {
        state
            .journal_append(record)
            .map_err(ClusterError::Journal)?;
    }

    let listener = TcpListener::bind((state.config.bind.as_str(), state.config.port))
        .map_err(ClusterError::Io)?;
    let addr = listener.local_addr().map_err(ClusterError::Io)?;
    listener.set_nonblocking(true).map_err(ClusterError::Io)?;

    let accept = event_loop::start(listener, Arc::clone(&state)).map_err(ClusterError::Io)?;

    Ok(CoordinatorHandle {
        addr,
        state,
        accept: Some(accept),
    })
}

/// Routes one request to its cluster semantics.
fn dispatch(state: &ClusterState, request: &Request, deadline: Option<Deadline>) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(coordinator_stats(state)),
        Request::Count { name, .. } => run_count(state, name, deadline),
        Request::PerVertex {
            name, start, end, ..
        } => run_per_vertex(state, name, *start, *end, deadline),
        Request::KClique { .. } => Response::error(
            ErrorKind::BadRequest,
            "k-clique queries are not supported in cluster mode (DESIGN.md §16)",
        ),
        Request::LoadGraph { name, spec } => run_load(state, name, spec),
        Request::EvictGraph { name } => run_evict(state, name),
        Request::Drain => {
            state.begin_drain();
            Response::Draining
        }
        Request::Batch(items) => run_batch(state, items),
        Request::ShardJoin { addr } => run_join(state, addr),
        Request::ShardStat => run_fleet_stat(state),
        Request::ShardLoad { .. } | Request::ShardCount { .. } | Request::ShardPerVertex { .. } => {
            Response::error(
                ErrorKind::BadRequest,
                "shard-internal request sent to the coordinator",
            )
        }
    }
}

/// `Count`: fan `ShardCount` to the placement's shards and sum.
fn run_count(state: &ClusterState, name: &str, deadline: Option<Deadline>) -> Response {
    let Some(placement) = state.lock_map().placement(name).cloned() else {
        return placement_not_found(name);
    };
    let deadline = state.effective_deadline(deadline);
    let started = Instant::now();
    let calls: Vec<ShardCall> = (0..placement.parts as usize)
        .map(|shard| {
            (
                shard,
                Request::ShardCount {
                    name: name.to_string(),
                    deadline_ms: remaining_ms(deadline),
                },
            )
        })
        .collect();
    let replies = state.fan_out(&calls, deadline);

    let mut total = 0u64;
    let mut live = 0u32;
    let mut failures = Vec::new();
    for (shard, reply) in replies.iter().enumerate() {
        match reply {
            Ok(Response::Count { triangles, .. }) => {
                total += triangles;
                live += 1;
            }
            Ok(other) => failures.push(describe_shard_reply(shard, other)),
            Err(e) => failures.push(format!("shard {shard}: {e}")),
        }
    }
    if failures.is_empty() {
        return Response::Count {
            triangles: total,
            cached: true,
            wall_micros: started.elapsed().as_micros() as u64,
        };
    }
    if state.config.allow_partial && live > 0 {
        state.stats.partial_answers.fetch_add(1, Ordering::Relaxed);
        counters::add(Counter::ClusterPartialAnswers, 1);
        // Degraded mode: a partial sum over the live shards, flagged
        // `cached: false` so callers can tell it from an exact answer.
        return Response::Count {
            triangles: total,
            cached: false,
            wall_micros: started.elapsed().as_micros() as u64,
        };
    }
    shard_unavailable(&failures)
}

/// `PerVertex`: fan `ShardPerVertex` and sum element-wise. Every shard
/// resolves the default `(0, 0)` window identically (the shard CSR
/// keeps full vertex width), so windows always line up.
fn run_per_vertex(
    state: &ClusterState,
    name: &str,
    start: u32,
    end: u32,
    deadline: Option<Deadline>,
) -> Response {
    let Some(placement) = state.lock_map().placement(name).cloned() else {
        return placement_not_found(name);
    };
    let deadline = state.effective_deadline(deadline);
    let calls: Vec<ShardCall> = (0..placement.parts as usize)
        .map(|shard| {
            (
                shard,
                Request::ShardPerVertex {
                    name: name.to_string(),
                    start,
                    end,
                    deadline_ms: remaining_ms(deadline),
                },
            )
        })
        .collect();
    let replies = state.fan_out(&calls, deadline);

    let mut merged: Option<(u32, Vec<u64>)> = None;
    let mut failures = Vec::new();
    for (shard, reply) in replies.iter().enumerate() {
        match reply {
            Ok(Response::PerVertex { start, counts }) => match merged.as_mut() {
                None => merged = Some((*start, counts.clone())),
                Some((mstart, acc)) => {
                    if *mstart != *start || acc.len() != counts.len() {
                        failures.push(format!(
                            "shard {shard}: window mismatch ({start}+{} vs {mstart}+{})",
                            counts.len(),
                            acc.len()
                        ));
                        continue;
                    }
                    for (a, c) in acc.iter_mut().zip(counts) {
                        *a += c;
                    }
                }
            },
            Ok(other) => failures.push(describe_shard_reply(shard, other)),
            Err(e) => failures.push(format!("shard {shard}: {e}")),
        }
    }
    match (failures.is_empty(), merged) {
        (true, Some((start, counts))) => Response::PerVertex { start, counts },
        (true, None) => Response::error(ErrorKind::BadRequest, "placement has no shards"),
        (false, _) => shard_unavailable(&failures),
    }
}

/// `LoadGraph`: place the graph across the whole current fleet. All
/// shards must load; the placement is journaled before the reply.
fn run_load(state: &ClusterState, name: &str, spec: &str) -> Response {
    let parts = state.lock_map().endpoints().len() as u32;
    if parts == 0 {
        return Response::error(
            ErrorKind::BadRequest,
            "no shards have joined the coordinator",
        );
    }
    let deadline = Deadline::after(state.config.default_deadline);
    let calls: Vec<ShardCall> = (0..parts as usize)
        .map(|shard| {
            (
                shard,
                Request::ShardLoad {
                    name: name.to_string(),
                    spec: spec.to_string(),
                    parts,
                    index: shard as u32,
                },
            )
        })
        .collect();
    let replies = state.fan_out(&calls, deadline);

    let mut vertices = 0u32;
    let mut edges = 0u64;
    let mut bytes = 0u64;
    let mut failures = Vec::new();
    for (shard, reply) in replies.iter().enumerate() {
        match reply {
            Ok(Response::Loaded {
                vertices: v,
                edges: e,
                bytes: b,
                ..
            }) => {
                vertices += v;
                edges += e;
                bytes += b;
            }
            Ok(other) => failures.push(describe_shard_reply(shard, other)),
            Err(e) => failures.push(format!("shard {shard}: {e}")),
        }
    }
    if !failures.is_empty() {
        // Partial placements are never recorded: shards that did load
        // keep a harmless orphan subgraph the next successful LoadGraph
        // overwrites, but the map stays truthful.
        return shard_unavailable(&failures);
    }
    let (key, value) = state.lock_map().place(name, spec, parts);
    if let Err(e) = state.journal_append(&JournalRecord::Register {
        name: key,
        spec: value,
    }) {
        return Response::error(
            ErrorKind::DurabilityFailed,
            format!("placement loaded but journal append failed: {e}"),
        );
    }
    Response::Loaded {
        vertices,
        edges,
        bytes,
        evicted: 0,
    }
}

/// `EvictGraph`: drop the placement everywhere it lives, then unrecord.
fn run_evict(state: &ClusterState, name: &str) -> Response {
    let Some(placement) = state.lock_map().placement(name).cloned() else {
        return Response::Evicted { existed: false };
    };
    let deadline = Deadline::after(state.config.default_deadline);
    let calls: Vec<ShardCall> = (0..placement.parts as usize)
        .map(|shard| {
            (
                shard,
                Request::EvictGraph {
                    name: name.to_string(),
                },
            )
        })
        .collect();
    // Best-effort fan-out: a dead shard cannot hold the eviction of the
    // map entry hostage — its copy dies with its process anyway.
    let _ = state.fan_out(&calls, deadline);
    let evict_key = state.lock_map().unplace(name);
    if let Some(key) = evict_key {
        if let Err(e) = state.journal_append(&JournalRecord::Evict { name: key }) {
            return Response::error(
                ErrorKind::DurabilityFailed,
                format!("evicted but journal append failed: {e}"),
            );
        }
    }
    Response::Evicted { existed: true }
}

/// `ShardJoin`: append the endpoint to the fleet (idempotent) and
/// journal the membership.
fn run_join(state: &ClusterState, addr: &str) -> Response {
    let joined = state.lock_map().join(addr);
    let shards;
    if let Some((_index, (key, value))) = joined {
        state.lock_fleet().push_endpoint(addr);
        shards = state.lock_map().endpoints().len() as u32;
        if let Err(e) = state.journal_append(&JournalRecord::Register {
            name: key,
            spec: value,
        }) {
            return Response::error(
                ErrorKind::DurabilityFailed,
                format!("joined but journal append failed: {e}"),
            );
        }
    } else {
        shards = state.lock_map().endpoints().len() as u32;
    }
    Response::ShardJoined { shards }
}

/// `ShardStat` on the coordinator: merged occupancy across the fleet.
fn run_fleet_stat(state: &ClusterState) -> Response {
    let parts = state.lock_map().endpoints().len();
    if parts == 0 {
        return Response::ShardStat {
            graphs: 0,
            owned_vertices: 0,
            entries: 0,
            ghost_entries: 0,
        };
    }
    let deadline = Deadline::after(state.config.default_deadline);
    let calls: Vec<ShardCall> = (0..parts)
        .map(|shard| (shard, Request::ShardStat))
        .collect();
    let replies = state.fan_out(&calls, deadline);
    let mut graphs = 0u32;
    let mut owned = 0u64;
    let mut entries = 0u64;
    let mut ghosts = 0u64;
    let mut failures = Vec::new();
    for (shard, reply) in replies.iter().enumerate() {
        match reply {
            Ok(Response::ShardStat {
                graphs: g,
                owned_vertices: o,
                entries: e,
                ghost_entries: gh,
            }) => {
                graphs = graphs.max(*g);
                owned += o;
                entries += e;
                ghosts += gh;
            }
            Ok(other) => failures.push(describe_shard_reply(shard, other)),
            Err(e) => failures.push(format!("shard {shard}: {e}")),
        }
    }
    if failures.is_empty() {
        Response::ShardStat {
            graphs,
            owned_vertices: owned,
            entries,
            ghost_entries: ghosts,
        }
    } else {
        shard_unavailable(&failures)
    }
}

/// `Batch`: sequential evaluation of the non-admin sub-requests the
/// coordinator supports. Admin and nested batches answer per-item
/// typed errors, same shape as single-node batching.
fn run_batch(state: &ClusterState, items: &[Request]) -> Response {
    if items.len() > MAX_BATCH {
        return Response::error(
            ErrorKind::BadRequest,
            format!("batch of {} exceeds the {MAX_BATCH} cap", items.len()),
        );
    }
    let responses = items
        .iter()
        .map(|item| match item {
            Request::Ping
            | Request::Stats
            | Request::Count { .. }
            | Request::PerVertex { .. }
            | Request::ShardStat => dispatch(state, item, request_deadline(item)),
            _ => Response::error(
                ErrorKind::BadRequest,
                "only Ping/Stats/Count/PerVertex/ShardStat may be batched on a coordinator",
            ),
        })
        .collect();
    Response::Batch(responses)
}

/// The coordinator's own `Stats` reply: map occupancy, coordinator
/// counters, the map-journal replay, and the engine's connection, loop
/// and admission figures. Registry and snapshot fields stay zero — there
/// is no registry here, and honest zeros beat fabricated numbers.
fn coordinator_stats(state: &ClusterState) -> StatsReply {
    let (graphs, shards) = {
        let map = state.lock_map();
        (map.graphs() as u32, map.endpoints().len() as u32)
    };
    StatsReply {
        graphs,
        requests_served: state.stats.served(),
        // The worker-count slot carries the fleet size: `loadgen
        // --cluster` reads it as the shard count (DESIGN.md §16.5).
        workers: shards,
        recovery_ms: state.recovery_ms,
        journal_replays: state.journal_replays,
        ..state.engine.stats()
    }
}

fn placement_not_found(name: &str) -> Response {
    Response::error(
        ErrorKind::NotFound,
        format!("no cluster placement for `{name}` (LoadGraph it first)"),
    )
}

fn shard_unavailable(failures: &[String]) -> Response {
    Response::error(ErrorKind::ShardUnavailable, failures.join("; "))
}

fn describe_shard_reply(shard: usize, reply: &Response) -> String {
    match reply {
        Response::Error { kind, message } => {
            format!("shard {shard}: {} ({message})", kind.name())
        }
        other => format!("shard {shard}: unexpected reply {other:?}"),
    }
}

fn remaining_ms(deadline: Deadline) -> u64 {
    let ms = deadline.remaining().as_millis();
    if ms == 0 {
        1
    } else {
        ms.min(u128::from(u64::MAX - 1)) as u64
    }
}
