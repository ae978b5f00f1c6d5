//! `lotus-cluster`: the sharded counting fleet of the LOTUS workspace
//! (DESIGN.md §16).
//!
//! One coordinator daemon owns the **shard map** — which shard daemons
//! exist and which of them hold each graph — and speaks the same LSRV
//! wire protocol as a single `lotus-serve` daemon, so existing clients
//! (CLI, loadgen, tests) point at a coordinator unchanged. Each shard
//! daemon is an ordinary `lotus-serve` process answering the `Shard*`
//! requests: it builds its graph from the deterministic spec, keeps
//! only its edge-balanced `lotus_graph::shard` partition (owned
//! forward columns plus ghost columns), and counts the triangles whose
//! apex it owns. Per-shard answers **sum** to the exact single-node
//! result — bit-identical, not approximate.
//!
//! Modules:
//!
//! * [`map`] — the shard map, journaled through the PR-7 durable-store
//!   record format (`Register`/`Evict`/`Checkpoint` over last-wins
//!   `(key, value)` pairs).
//! * [`fleet`] — the fan-out engine: one multiplexed nonblocking
//!   connection per shard, pipelined requests, one long-lived poller,
//!   deadlines.
//! * [`coordinator`] — the daemon: a request handler on the serve
//!   daemon's event loop, dispatch, merge logic, typed
//!   `ShardUnavailable` on slow/dead shards, optional degraded partial
//!   counts.

pub mod coordinator;
pub mod fleet;
pub mod map;

pub use coordinator::{
    spawn, ClusterConfig, ClusterError, ClusterState, ClusterStats, CoordinatorHandle,
    CLUSTER_JOURNAL,
};
pub use fleet::{Fleet, FleetError, ShardCall};
pub use map::{MapEntryError, Placement, ShardMap};
