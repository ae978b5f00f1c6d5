//! The preprocessed-graph registry: load/build once, serve many times.
//!
//! Every query names a graph; the registry resolves the name to a fully
//! preprocessed [`PreparedGraph`] (CSR topology plus the LOTUS
//! structures of Algorithm 2) built exactly once and shared by `Arc`.
//! Resident graphs are charged by their topology bytes against a
//! `lotus_resilience::MemoryBudget`; when an insert would exceed the
//! budget, least-recently-used graphs are evicted until it fits. A graph
//! larger than the whole budget is refused with a typed error rather
//! than evicting everything for nothing.

use lotus_telemetry::sync::{TracedGuard, TracedMutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

use lotus_core::kclique::orient;
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::{LotusConfig, LotusGraph};
use lotus_gen::{ErdosRenyi, Rmat};
use lotus_graph::io::{load_binary, load_edge_list_text};
use lotus_graph::{Csr, UndirectedCsr};
use lotus_resilience::MemoryBudget;
use lotus_telemetry::{counters, Counter};

/// A graph the registry has fully prepared for serving.
#[derive(Debug)]
pub struct PreparedGraph {
    /// Registry key the graph is stored under.
    pub name: String,
    /// The undirected simple graph.
    pub graph: UndirectedCsr,
    /// The preprocessed LOTUS structures (H2H, HE, NHE, relabeling).
    pub lotus: LotusGraph,
    /// Configuration the structures were built with.
    pub config: LotusConfig,
    /// The forward orientation `KClique` requests with k ≥ 4 enumerate.
    pub cliques: Csr<u32>,
    /// Bytes charged against the registry budget (CSR + LOTUS topology
    /// + clique orientation).
    pub bytes: u64,
}

impl PreparedGraph {
    /// Prepares `graph` to be served as `name`: the LOTUS structures of
    /// Algorithm 2 under [`LotusConfig::auto`], the clique orientation
    /// built from them, and the bytes all three charge.
    #[must_use]
    pub fn new(name: &str, graph: UndirectedCsr) -> PreparedGraph {
        let config = LotusConfig::auto(&graph);
        let lotus = build_lotus_graph(&graph, &config);
        let cliques = orient(&lotus);
        let bytes = graph.topology_bytes() + lotus.topology_bytes() + cliques.topology_bytes();
        PreparedGraph {
            name: name.to_string(),
            graph,
            lotus,
            config,
            cliques,
            bytes,
        }
    }
}

/// How a graph may be sourced, parsed from the wire spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSpec {
    /// `path:<file>` — load from disk; `.lotg` means the v2 binary
    /// format, anything else the text edge-list format.
    Path(String),
    /// `rmat:<scale>:<edge_factor>:<seed>` — Graph500 R-MAT.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Sampled edges per vertex.
        edge_factor: u32,
        /// Generator seed.
        seed: u64,
    },
    /// `er:<n>:<m>:<seed>` — Erdős–Rényi `G(n, m)`.
    Er {
        /// Vertex count.
        n: u32,
        /// Sampled edge count.
        m: u64,
        /// Generator seed.
        seed: u64,
    },
}

impl GraphSpec {
    /// Parses a spec string (`path:...`, `rmat:s:ef:seed`, `er:n:m:seed`).
    ///
    /// # Errors
    /// Returns a human-readable description of what failed to parse.
    pub fn parse(spec: &str) -> Result<GraphSpec, String> {
        let (kind, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("spec `{spec}` has no `kind:` prefix"))?;
        match kind {
            "path" => {
                if rest.is_empty() {
                    return Err("path spec has an empty file name".into());
                }
                Ok(GraphSpec::Path(rest.to_string()))
            }
            "rmat" => {
                let parts: Vec<&str> = rest.split(':').collect();
                if parts.len() != 3 {
                    return Err(format!("rmat spec `{spec}` wants rmat:scale:ef:seed"));
                }
                let scale: u32 = parse_field(parts[0], "scale")?;
                if scale == 0 || scale > 24 {
                    return Err(format!("rmat scale {scale} outside 1..=24"));
                }
                let edge_factor: u32 = parse_field(parts[1], "edge_factor")?;
                if edge_factor == 0 || edge_factor > 64 {
                    return Err(format!("rmat edge_factor {edge_factor} outside 1..=64"));
                }
                Ok(GraphSpec::Rmat {
                    scale,
                    edge_factor,
                    seed: parse_field(parts[2], "seed")?,
                })
            }
            "er" => {
                let parts: Vec<&str> = rest.split(':').collect();
                if parts.len() != 3 {
                    return Err(format!("er spec `{spec}` wants er:n:m:seed"));
                }
                let n: u32 = parse_field(parts[0], "n")?;
                if !(2..=(1 << 24)).contains(&n) {
                    return Err(format!("er n {n} outside 2..=2^24"));
                }
                let m: u64 = parse_field(parts[1], "m")?;
                if m > (1 << 28) {
                    return Err(format!("er m {m} exceeds 2^28"));
                }
                Ok(GraphSpec::Er {
                    n,
                    m,
                    seed: parse_field(parts[2], "seed")?,
                })
            }
            other => Err(format!(
                "unknown spec kind `{other}` (expected path, rmat, or er)"
            )),
        }
    }
}

fn parse_field<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("cannot parse {what} from `{s}`"))
}

/// A registry operation failure.
#[derive(Debug)]
pub enum RegistryError {
    /// The name is not resident and is not a parseable spec.
    NotFound(String),
    /// The spec string did not parse or the source failed to load.
    BadSpec(String),
    /// The graph alone exceeds the whole memory budget.
    OverBudget {
        /// Bytes the graph would charge.
        need: u64,
        /// The registry's total budget.
        budget: u64,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NotFound(name) => {
                write!(f, "graph `{name}` is not loaded and is not a spec")
            }
            RegistryError::BadSpec(m) => write!(f, "bad graph spec: {m}"),
            RegistryError::OverBudget { need, budget } => write!(
                f,
                "graph needs {need} bytes but the registry budget is {budget}"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

struct Entry {
    prepared: Arc<PreparedGraph>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<String, Entry>,
    /// Logical LRU clock, bumped on every touch.
    clock: u64,
    resident: u64,
}

/// Observer invoked with each name the LRU loop evicts (used by the
/// durability layer to journal evictions it would otherwise never see).
type EvictHook = Arc<dyn Fn(&str) + Send + Sync>;

/// The graph registry: name → prepared graph, LRU-evicted against a
/// byte budget. All methods are callable from any worker thread.
pub struct Registry {
    inner: TracedMutex<Inner>,
    budget: MemoryBudget,
    hits: AtomicU64,
    misses: AtomicU64,
    evict_hook: TracedMutex<Option<EvictHook>>,
}

impl Registry {
    /// Creates a registry bounded by `budget`.
    #[must_use]
    pub fn new(budget: MemoryBudget) -> Registry {
        Registry {
            inner: TracedMutex::new("serve.registry.inner", Inner::default()),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evict_hook: TracedMutex::new("serve.registry.evict_hook", None),
        }
    }

    /// Installs the hook fired (outside the registry lock) for every
    /// name the LRU loop evicts to make room. Explicit [`Registry::evict`]
    /// calls and same-name replacements do *not* fire it — their callers
    /// already know the name.
    pub fn set_evict_hook(&self, hook: impl Fn(&str) + Send + Sync + 'static) {
        *self
            .evict_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(hook));
    }

    fn fire_evict_hook(&self, names: &[String]) {
        if names.is_empty() {
            return;
        }
        let hook = self
            .evict_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(hook) = hook {
            for name in names {
                hook(name);
            }
        }
    }

    /// The registry's byte budget.
    #[must_use]
    pub fn budget_bytes(&self) -> u64 {
        self.budget.bytes()
    }

    /// Bytes currently charged by resident graphs.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.lock().resident
    }

    /// Number of resident graphs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no graphs are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits since start.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (loads/builds) since start.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn lock(&self) -> TracedGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves `name` to a prepared graph: a cache hit bumps the LRU
    /// clock; a miss tries to interpret `name` itself as a spec and
    /// build it (so `Count { name: "rmat:9:8:7" }` works without a prior
    /// `LoadGraph`).
    ///
    /// # Errors
    /// [`RegistryError::NotFound`] when the name is neither resident nor
    /// a spec; the spec/build errors of [`Registry::load`] otherwise.
    pub fn get_or_load(&self, name: &str) -> Result<(Arc<PreparedGraph>, bool), RegistryError> {
        if let Some(prepared) = self.touch(name) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            counters::incr(Counter::RegistryHits);
            return Ok((prepared, true));
        }
        // Miss: only a spec-shaped name can be built on demand.
        if GraphSpec::parse(name).is_err() {
            return Err(RegistryError::NotFound(name.to_string()));
        }
        let (prepared, _evicted) = self.load(name, name)?;
        Ok((prepared, false))
    }

    /// Looks up a resident graph and bumps its LRU clock.
    fn touch(&self, name: &str) -> Option<Arc<PreparedGraph>> {
        let mut inner = self.lock();
        let clock = inner.clock + 1;
        inner.clock = clock;
        inner.map.get_mut(name).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.prepared)
        })
    }

    /// Loads/builds `spec` and inserts it under `name`, evicting LRU
    /// graphs as needed. Returns the prepared graph and how many
    /// residents were evicted. Building happens *outside* the registry
    /// lock; a concurrent load of the same name keeps whichever insert
    /// lands last.
    ///
    /// # Errors
    /// [`RegistryError::BadSpec`] when the spec does not parse or its
    /// source fails to load; [`RegistryError::OverBudget`] when the
    /// graph alone exceeds the whole budget.
    pub fn load(&self, name: &str, spec: &str) -> Result<(Arc<PreparedGraph>, u32), RegistryError> {
        let parsed = GraphSpec::parse(spec).map_err(RegistryError::BadSpec)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        counters::incr(Counter::RegistryMisses);
        let prepared = Arc::new(PreparedGraph::new(name, build_graph(&parsed)?));
        let evicted = self.insert_prepared(Arc::clone(&prepared))?;
        Ok((prepared, evicted))
    }

    /// Inserts an externally prepared graph (recovery re-inserting a
    /// snapshot, or the build half of [`Registry::load`]), evicting LRU
    /// residents as needed. Returns how many were evicted; the evict
    /// hook fires for each, outside the lock.
    ///
    /// # Errors
    /// [`RegistryError::OverBudget`] when the graph alone exceeds the
    /// whole budget.
    pub fn insert_prepared(&self, prepared: Arc<PreparedGraph>) -> Result<u32, RegistryError> {
        let bytes = prepared.bytes;
        if !self.budget.fits(bytes) {
            return Err(RegistryError::OverBudget {
                need: bytes,
                budget: self.budget.bytes(),
            });
        }
        let name = prepared.name.clone();
        let mut evicted_names = Vec::new();

        let mut inner = self.lock();
        // Replacing a resident entry under the same name frees its bytes
        // first so the eviction loop sees the true resident total.
        if let Some(old) = inner.map.remove(&name) {
            inner.resident -= old.prepared.bytes;
        }
        while inner.resident + bytes > self.budget.bytes() {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(key) = lru else { break };
            if let Some(old) = inner.map.remove(&key) {
                inner.resident -= old.prepared.bytes;
                evicted_names.push(key);
            }
        }
        let clock = inner.clock + 1;
        inner.clock = clock;
        inner.resident += bytes;
        inner.map.insert(
            name,
            Entry {
                prepared,
                last_used: clock,
            },
        );
        drop(inner);

        self.fire_evict_hook(&evicted_names);
        Ok(u32::try_from(evicted_names.len()).unwrap_or(u32::MAX))
    }

    /// Drops a resident graph; returns whether it existed.
    pub fn evict(&self, name: &str) -> bool {
        let mut inner = self.lock();
        if let Some(old) = inner.map.remove(name) {
            inner.resident -= old.prepared.bytes;
            true
        } else {
            false
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("graphs", &self.len())
            .field("resident_bytes", &self.resident_bytes())
            .field("budget_bytes", &self.budget_bytes())
            .finish()
    }
}

pub(crate) fn build_graph(spec: &GraphSpec) -> Result<UndirectedCsr, RegistryError> {
    match spec {
        GraphSpec::Path(path) => {
            let el = if path.ends_with(".lotg") {
                load_binary(path)
            } else {
                load_edge_list_text(path)
            }
            .map_err(|e| RegistryError::BadSpec(format!("loading `{path}`: {e}")))?;
            Ok(UndirectedCsr::from_canonical_edges(&el))
        }
        GraphSpec::Rmat {
            scale,
            edge_factor,
            seed,
        } => Ok(Rmat::new(*scale, *edge_factor).generate(*seed)),
        GraphSpec::Er { n, m, seed } => Ok(ErdosRenyi::new(*n, *m).generate(*seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn big_budget() -> MemoryBudget {
        MemoryBudget::from_bytes(1 << 30)
    }

    #[test]
    fn spec_grammar() {
        assert_eq!(
            GraphSpec::parse("rmat:9:8:7"),
            Ok(GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
                seed: 7
            })
        );
        assert_eq!(
            GraphSpec::parse("er:100:400:1"),
            Ok(GraphSpec::Er {
                n: 100,
                m: 400,
                seed: 1
            })
        );
        assert_eq!(
            GraphSpec::parse("path:data/web.lotg"),
            Ok(GraphSpec::Path("data/web.lotg".into()))
        );
        assert!(GraphSpec::parse("plain-name").is_err());
        assert!(GraphSpec::parse("rmat:9:8").is_err());
        assert!(GraphSpec::parse("rmat:0:8:7").is_err());
        assert!(GraphSpec::parse("rmat:40:8:7").is_err());
        assert!(GraphSpec::parse("er:1:10:1").is_err());
        assert!(GraphSpec::parse("zzz:1").is_err());
        assert!(GraphSpec::parse("path:").is_err());
    }

    #[test]
    fn load_then_hit() {
        let reg = Registry::new(big_budget());
        let (first, evicted) = reg.load("g", "rmat:6:4:1").unwrap();
        assert_eq!(evicted, 0);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.resident_bytes(), first.bytes);

        let (again, cached) = reg.get_or_load("g").unwrap();
        assert!(cached);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(reg.hits(), 1);
        assert_eq!(reg.misses(), 1);
    }

    #[test]
    fn spec_shaped_name_builds_on_demand() {
        let reg = Registry::new(big_budget());
        let (g, cached) = reg.get_or_load("rmat:6:4:1").unwrap();
        assert!(!cached);
        assert!(g.graph.num_vertices() <= 64);
        let (_, cached) = reg.get_or_load("rmat:6:4:1").unwrap();
        assert!(cached);
    }

    #[test]
    fn unknown_plain_name_is_not_found() {
        let reg = Registry::new(big_budget());
        assert!(matches!(
            reg.get_or_load("nope"),
            Err(RegistryError::NotFound(_))
        ));
        assert_eq!(reg.misses(), 0);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let reg = Registry::new(big_budget());
        let (a, _) = reg.load("a", "rmat:7:4:1").unwrap();
        let (b, _) = reg.load("b", "rmat:7:4:2").unwrap();
        // A budget fitting both plus a sliver of headroom; the third
        // insert must evict the least-recently-used.
        let per = a.bytes.max(b.bytes);
        let reg = Registry::new(MemoryBudget::from_bytes(per * 2 + per / 2));
        reg.load("a", "rmat:7:4:1").unwrap();
        reg.load("b", "rmat:7:4:2").unwrap();
        assert_eq!(reg.len(), 2);
        // Touch `a` so `b` is the LRU victim.
        reg.get_or_load("a").unwrap();
        let (_, evicted) = reg.load("c", "rmat:7:4:3").unwrap();
        assert!(evicted >= 1);
        assert!(reg.resident_bytes() <= reg.budget_bytes());
        assert!(reg.get_or_load("a").unwrap().1, "a should have survived");
        assert!(matches!(
            reg.get_or_load("b"),
            Err(RegistryError::NotFound(_))
        ));
    }

    #[test]
    fn graph_larger_than_budget_is_refused() {
        let reg = Registry::new(MemoryBudget::from_bytes(64));
        let err = reg.load("g", "rmat:6:4:1").unwrap_err();
        assert!(matches!(err, RegistryError::OverBudget { .. }), "{err}");
        assert!(reg.is_empty());
    }

    #[test]
    fn reload_same_name_replaces_without_double_charge() {
        let reg = Registry::new(big_budget());
        reg.load("g", "rmat:6:4:1").unwrap();
        let before = reg.resident_bytes();
        reg.load("g", "rmat:6:4:2").unwrap();
        assert_eq!(reg.len(), 1);
        // Same generator shape: replacement stays in the same ballpark
        // instead of doubling.
        assert!(reg.resident_bytes() < before * 2);
    }

    #[test]
    fn evict_hook_sees_lru_victims_but_not_explicit_evicts() {
        let (a, _) = Registry::new(big_budget()).load("a", "rmat:7:4:1").unwrap();
        let per = a.bytes;
        let reg = Registry::new(MemoryBudget::from_bytes(per * 2 + per / 2));
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&seen);
        reg.set_evict_hook(move |name| {
            sink.lock().unwrap().push(name.to_string());
        });
        reg.load("a", "rmat:7:4:1").unwrap();
        reg.load("b", "rmat:7:4:1").unwrap();
        reg.get_or_load("b").unwrap();
        // `a` is LRU; inserting `c` must evict it through the hook.
        reg.load("c", "rmat:7:4:1").unwrap();
        assert_eq!(seen.lock().unwrap().as_slice(), ["a".to_string()]);
        // Explicit evicts bypass the hook: callers know the name.
        assert!(reg.evict("b"));
        assert_eq!(seen.lock().unwrap().len(), 1);
        // Same-name replacement is not an eviction either.
        reg.load("c", "rmat:7:4:2").unwrap();
        assert_eq!(seen.lock().unwrap().len(), 1);
    }

    #[test]
    fn insert_prepared_rejects_oversized_graphs() {
        let reg = Registry::new(big_budget());
        let (g, _) = reg.load("g", "rmat:6:4:1").unwrap();
        let small = Registry::new(MemoryBudget::from_bytes(64));
        assert!(matches!(
            small.insert_prepared(g),
            Err(RegistryError::OverBudget { .. })
        ));
    }

    #[test]
    fn evict_reports_existence() {
        let reg = Registry::new(big_budget());
        reg.load("g", "rmat:6:4:1").unwrap();
        assert!(reg.evict("g"));
        assert!(!reg.evict("g"));
        assert_eq!(reg.resident_bytes(), 0);
    }
}
