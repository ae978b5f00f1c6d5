//! `lotus-serve`: the graph query service of the LOTUS workspace.
//!
//! A dependency-free `std::net` TCP daemon that serves triangle and
//! clique queries over fully preprocessed LOTUS graphs:
//!
//! - [`proto`] — the length-prefixed binary wire protocol (magic +
//!   version + CRC32 trailer, untrusted-length hardening shared with
//!   `lotus_graph::io`). Every message is declared once in its message
//!   table, which generates the type, the encoder, the decoder and the
//!   JSON form.
//! - [`conn`] — the framed nonblocking connection (read-accumulate,
//!   frame parse, partial-write resume, poller interest) every LSRV
//!   socket runs on: the daemon's, loadgen's, and the coordinator's
//!   shard links.
//! - [`event_loop`] — the readiness engine: acceptor, event loops,
//!   bounded worker pool and quotas, generic over a request
//!   [`event_loop::Handler`]; the daemon and the cluster coordinator
//!   each implement one.
//! - [`registry`] — the preprocessed-graph registry: load/build once,
//!   serve many times, LRU-evicted against a
//!   `lotus_resilience::MemoryBudget`.
//! - [`pool`] — the bounded worker pool behind admission control.
//! - [`server`] — the daemon itself: startup, durability, request
//!   dispatch, per-request deadlines, panic isolation.
//! - [`client`] — a minimal blocking client.
//! - [`loadgen`] — the multiplexed load generator measuring request
//!   latency percentiles for the BENCH `serve` section.
//! - [`journal`], [`store`], [`recovery`] — the durability layer: the
//!   manifest journal (decoded with the protocol's bounds-checked
//!   cursor), graph snapshots, and startup recovery.
//!
//! The daemon speaks fourteen request types — `Ping`, `Stats`, `Count`,
//! `PerVertex`, `KClique`, `Batch`, the admin `LoadGraph` /
//! `EvictGraph` / `Drain`, and the cluster tier's `ShardLoad` /
//! `ShardCount` / `ShardPerVertex` / `ShardJoin` / `ShardStat` — and
//! always answers with a structured [`proto::Response`] (twelve
//! response types, ten [`ErrorKind`]s), including typed errors for
//! overload, expired deadlines, and isolated worker panics. See
//! DESIGN.md §11 and §14.

pub mod client;
pub mod conn;
pub mod event_loop;
pub mod journal;
pub mod loadgen;
pub(crate) mod mux;
pub mod pool;
pub mod proto;
pub mod recovery;
pub mod registry;
pub mod server;
pub mod shards;
pub mod store;
pub mod timer;

pub use client::Client;
pub use journal::{Journal, JournalRecord};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use proto::{ErrorKind, LoopStat, ProtoError, Request, Response, StatsReply};
pub use recovery::{recover, RecoveredState, RecoveryReport};
pub use registry::{GraphSpec, PreparedGraph, Registry, RegistryError};
pub use server::{spawn, ServeConfig, ServeError, ServeStats, ServerHandle, ServerState};
pub use shards::{ShardStore, StoredShard};
pub use store::{DurableStore, StoreError};
