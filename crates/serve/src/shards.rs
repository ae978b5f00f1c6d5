//! Shard-side execution for the cluster tier (DESIGN.md §16).
//!
//! A shard daemon is an ordinary `lotus-serve` process that additionally
//! answers the `Shard*` protocol messages: `ShardLoad` builds the graph
//! from its deterministic spec, extracts this shard's edge-balanced
//! partition (owned forward columns plus ghost columns, see
//! [`lotus_graph::shard`]), and retains **only** the subgraph;
//! `ShardCount` / `ShardPerVertex` answer apex-restricted queries whose
//! sums across the fleet are exact; `ShardStat` reports occupancy.
//!
//! The shard store is deliberately separate from the [`crate::registry`]:
//! shard subgraphs are placed by the coordinator, not demand-loaded, and
//! they are not budget-evicted behind the coordinator's back (the
//! coordinator's shard map must stay authoritative about placement).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use lotus_graph::partition::{edge_balanced, VertexRange};
use lotus_graph::ShardSubgraph;
use lotus_resilience::Deadline;
use lotus_telemetry::sync::{TracedGuard, TracedMutex};

use crate::proto::{ErrorKind, Response, MAX_PER_VERTEX_SPAN};
use crate::registry::{build_graph, GraphSpec};

/// Most shards a single graph may be split across; bounds the transient
/// planner work a hostile `ShardLoad` can request.
pub const MAX_SHARD_PARTS: u32 = 4096;

/// One resident shard subgraph plus the placement that produced it.
#[derive(Debug)]
pub struct StoredShard {
    /// Deterministic spec the graph was built from.
    pub spec: String,
    /// Total shards the graph is split across.
    pub parts: u32,
    /// This daemon's partition index.
    pub index: u32,
    /// The extracted subgraph (owned + ghost forward columns).
    pub subgraph: ShardSubgraph,
}

/// The shard daemon's store of extracted subgraphs, keyed by graph name.
#[derive(Debug)]
pub struct ShardStore {
    inner: TracedMutex<HashMap<String, Arc<StoredShard>>>,
}

impl Default for ShardStore {
    fn default() -> Self {
        ShardStore::new()
    }
}

impl ShardStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> ShardStore {
        ShardStore {
            inner: TracedMutex::new("serve.shards.inner", HashMap::new()),
        }
    }

    fn lock(&self) -> TracedGuard<'_, HashMap<String, Arc<StoredShard>>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Resident shard subgraphs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the store holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Looks up a resident shard subgraph.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<StoredShard>> {
        self.lock().get(name).cloned()
    }

    /// Inserts (or replaces) a shard subgraph under `name`.
    pub fn insert(&self, name: &str, shard: StoredShard) {
        self.lock().insert(name.to_string(), Arc::new(shard));
    }

    /// Drops the shard subgraph stored under `name`.
    pub fn evict(&self, name: &str) -> bool {
        self.lock().remove(name).is_some()
    }

    /// Occupancy summary for `ShardStat`: `(graphs, owned_vertices,
    /// entries, ghost_entries)` summed over resident subgraphs.
    #[must_use]
    pub fn stat(&self) -> (u32, u64, u64, u64) {
        let map = self.lock();
        let mut owned = 0u64;
        let mut entries = 0u64;
        let mut ghosts = 0u64;
        for shard in map.values() {
            owned += u64::from(shard.subgraph.owned().len());
            entries += shard.subgraph.num_entries();
            ghosts += shard.subgraph.ghost_entries();
        }
        (map.len() as u32, owned, entries, ghosts)
    }
}

/// Executes `ShardLoad`: builds the graph from `spec`, extracts
/// edge-balanced partition `index` of `parts` over the forward
/// orientation, and stores the subgraph under `name`. The full graph is
/// transient; only the subgraph stays resident.
pub(crate) fn run_shard_load(
    store: &ShardStore,
    name: &str,
    spec: &str,
    parts: u32,
    index: u32,
) -> Response {
    if parts == 0 || parts > MAX_SHARD_PARTS {
        return Response::error(
            ErrorKind::BadRequest,
            format!("shard parts {parts} outside 1..={MAX_SHARD_PARTS}"),
        );
    }
    if index >= parts {
        return Response::error(
            ErrorKind::BadRequest,
            format!("shard index {index} out of range for {parts} parts"),
        );
    }
    let parsed = match GraphSpec::parse(spec) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(ErrorKind::BadRequest, e),
    };
    let graph = match build_graph(&parsed) {
        Ok(graph) => graph,
        Err(e) => return Response::error(ErrorKind::BadRequest, e.to_string()),
    };
    let forward = graph.forward_graph();
    let ranges = edge_balanced(&forward, parts as usize);
    let subgraph = ShardSubgraph::extract(&forward, ranges[index as usize]);
    let reply = Response::Loaded {
        vertices: subgraph.owned().len(),
        edges: subgraph.num_entries(),
        bytes: subgraph.topology_bytes(),
        evicted: 0,
    };
    store.insert(
        name,
        StoredShard {
            spec: spec.to_string(),
            parts,
            index,
            subgraph,
        },
    );
    reply
}

/// Executes `ShardCount`: apex-restricted triangle count of the stored
/// subgraph (exact when summed across all `parts` shards).
pub(crate) fn run_shard_count(
    store: &ShardStore,
    name: &str,
    deadline: Option<Deadline>,
) -> Response {
    let Some(shard) = store.get(name) else {
        return shard_not_found(name);
    };
    if deadline.is_some_and(|d| d.expired()) {
        return Response::error(
            ErrorKind::DeadlineExpired,
            "deadline expired before counting",
        );
    }
    let start = Instant::now();
    let triangles = shard.subgraph.count_owned_triangles();
    Response::Count {
        triangles,
        cached: true,
        wall_micros: start.elapsed().as_micros() as u64,
    }
}

/// Executes `ShardPerVertex`: this shard's contribution to per-vertex
/// counts over `[start, end)` (element-wise sums across shards are
/// exact). The same span cap as single-node `PerVertex` applies.
pub(crate) fn run_shard_per_vertex(
    store: &ShardStore,
    name: &str,
    start: u32,
    end: u32,
    deadline: Option<Deadline>,
) -> Response {
    let Some(shard) = store.get(name) else {
        return shard_not_found(name);
    };
    let n = shard.subgraph.num_vertices();
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
    let counts = shard.subgraph.per_vertex_owned(VertexRange { start, end });
    Response::PerVertex { start, counts }
}

fn shard_not_found(name: &str) -> Response {
    Response::error(
        ErrorKind::NotFound,
        format!("no shard subgraph stored under `{name}`"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::NO_DEADLINE;
    use std::time::Duration;

    fn deadline(ms: u64) -> Option<Deadline> {
        (ms != NO_DEADLINE).then(|| Deadline::after(Duration::from_millis(ms)))
    }

    #[test]
    fn shard_loads_sum_to_single_node_count() {
        let spec = "rmat:9:8:7";
        let store = ShardStore::new();
        // Single-node reference: one shard holding the whole graph.
        let whole = run_shard_load(&store, "whole", spec, 1, 0);
        assert!(matches!(whole, Response::Loaded { .. }), "{whole:?}");
        let Response::Count {
            triangles: expected,
            ..
        } = run_shard_count(&store, "whole", deadline(NO_DEADLINE))
        else {
            panic!("reference count failed");
        };
        let mut total = 0u64;
        for index in 0..3 {
            let name = format!("part{index}");
            let loaded = run_shard_load(&store, &name, spec, 3, index);
            assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");
            let Response::Count { triangles, .. } =
                run_shard_count(&store, &name, deadline(NO_DEADLINE))
            else {
                panic!("shard count failed");
            };
            total += triangles;
        }
        assert_eq!(total, expected);
        let (graphs, owned, entries, _ghosts) = store.stat();
        assert_eq!(graphs, 4);
        assert!(owned > 0 && entries > 0);
    }

    #[test]
    fn shard_per_vertex_sums_to_single_node() {
        let spec = "er:400:2400:5";
        let store = ShardStore::new();
        run_shard_load(&store, "whole", spec, 1, 0);
        let Response::PerVertex {
            counts: expected, ..
        } = run_shard_per_vertex(&store, "whole", 0, 400, deadline(NO_DEADLINE))
        else {
            panic!("reference per-vertex failed");
        };
        let mut summed = vec![0u64; expected.len()];
        for index in 0..4 {
            let name = format!("p{index}");
            run_shard_load(&store, &name, spec, 4, index);
            let Response::PerVertex { counts, .. } =
                run_shard_per_vertex(&store, &name, 0, 400, deadline(NO_DEADLINE))
            else {
                panic!("shard per-vertex failed");
            };
            for (acc, c) in summed.iter_mut().zip(counts) {
                *acc += c;
            }
        }
        assert_eq!(summed, expected);
    }

    #[test]
    fn bad_placements_and_lookups_are_typed() {
        let store = ShardStore::new();
        assert!(matches!(
            run_shard_load(&store, "g", "rmat:6:8:1", 0, 0),
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            }
        ));
        assert!(matches!(
            run_shard_load(&store, "g", "rmat:6:8:1", 2, 2),
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            }
        ));
        assert!(matches!(
            run_shard_load(&store, "g", "not-a-spec", 2, 0),
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            }
        ));
        assert!(matches!(
            run_shard_count(&store, "missing", deadline(NO_DEADLINE)),
            Response::Error {
                kind: ErrorKind::NotFound,
                ..
            }
        ));
        run_shard_load(&store, "g", "rmat:6:8:1", 2, 0);
        assert!(matches!(
            run_shard_count(&store, "g", deadline(0)),
            Response::Error {
                kind: ErrorKind::DeadlineExpired,
                ..
            }
        ));
        assert!(store.evict("g"));
        assert!(!store.evict("g"));
    }
}
