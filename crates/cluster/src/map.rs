//! The coordinator's shard map: which shard daemons exist and which of
//! them hold each graph (DESIGN.md §16).
//!
//! The map is journaled through the PR-7 durable-store primitives
//! ([`lotus_serve::journal`]) without any new record types: every fact
//! is a last-wins `(key, value)` pair, so `Register` / `Evict` /
//! `Checkpoint` replay reconstructs it exactly.
//!
//! * `shard:<index>` → `<host:port>` — a fleet endpoint, in join order.
//!   Endpoints are append-only; index `i` is shard `i` forever (a
//!   restarted daemon re-joins under its old address).
//! * `graph:<name>` → `<parts>|<spec>` — a placement: the graph built
//!   from `spec` is split `parts` ways across shards `0..parts` (the
//!   fleet prefix at load time). Shards that join later never dilute an
//!   existing placement — fan-out must hit exactly the shards that hold
//!   partitions, or sums would be wrong.
//!
//! The `|` separator is safe because graph specs (`rmat:...`,
//! `er:...`, `path:...`) never contain it.

use std::collections::BTreeMap;
use std::fmt;

/// Where one graph lives: its deterministic spec and how many shards
/// (always the fleet prefix `0..parts`) hold a partition of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Deterministic graph spec every shard built its partition from.
    pub spec: String,
    /// Partition count; shard `i < parts` holds edge-balanced part `i`.
    pub parts: u32,
}

/// The in-memory shard map (endpoints + placements). Persistence is the
/// caller's job: mutators return the journal `(key, value)` pair to
/// append, and [`ShardMap::from_entries`] rebuilds the map from a
/// journal readout's folded pairs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ShardMap {
    endpoints: Vec<String>,
    placements: BTreeMap<String, Placement>,
}

/// A malformed journal entry encountered while rebuilding the map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapEntryError {
    /// The offending journal key.
    pub key: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for MapEntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard-map entry `{}`: {}", self.key, self.reason)
    }
}

impl ShardMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> ShardMap {
        ShardMap::default()
    }

    /// Rebuilds a map from folded journal pairs (the output of
    /// [`lotus_serve::journal::JournalReadout::fold`]). Unknown key
    /// prefixes and malformed values are collected, not fatal — the
    /// journal survives crashes, so recovery degrades per-entry.
    #[must_use]
    pub fn from_entries(entries: &[(String, String)]) -> (ShardMap, Vec<MapEntryError>) {
        let mut map = ShardMap::new();
        let mut errors = Vec::new();
        let mut shards: BTreeMap<u32, String> = BTreeMap::new();
        for (key, value) in entries {
            if let Some(index) = key.strip_prefix("shard:") {
                match index.parse::<u32>() {
                    Ok(index) => {
                        shards.insert(index, value.clone());
                    }
                    Err(_) => errors.push(MapEntryError {
                        key: key.clone(),
                        reason: "shard index is not a u32".to_string(),
                    }),
                }
            } else if let Some(name) = key.strip_prefix("graph:") {
                match parse_placement(value) {
                    Ok(placement) => {
                        map.placements.insert(name.to_string(), placement);
                    }
                    Err(reason) => errors.push(MapEntryError {
                        key: key.clone(),
                        reason,
                    }),
                }
            } else {
                errors.push(MapEntryError {
                    key: key.clone(),
                    reason: "unknown key prefix".to_string(),
                });
            }
        }
        // Endpoints must be the dense prefix 0..n — a gap means a lost
        // join record, and placements past the gap would misroute.
        for (want, (index, addr)) in shards.into_iter().enumerate() {
            if index as usize != want {
                errors.push(MapEntryError {
                    key: format!("shard:{index}"),
                    reason: format!("gap in shard indices (expected {want})"),
                });
                break;
            }
            map.endpoints.push(addr);
        }
        // A placement that references shards beyond the recovered fleet
        // cannot be served; drop it rather than return wrong sums.
        let fleet = map.endpoints.len() as u32;
        map.placements.retain(|name, p| {
            let fits = p.parts <= fleet;
            if !fits {
                errors.push(MapEntryError {
                    key: format!("graph:{name}"),
                    reason: format!("placement needs {} shards, fleet has {fleet}", p.parts),
                });
            }
            fits
        });
        (map, errors)
    }

    /// The journal pairs that reproduce this map (checkpoint payload).
    #[must_use]
    pub fn to_entries(&self) -> Vec<(String, String)> {
        let mut entries = Vec::new();
        for (index, addr) in self.endpoints.iter().enumerate() {
            entries.push((format!("shard:{index}"), addr.clone()));
        }
        for (name, p) in &self.placements {
            entries.push((format!("graph:{name}"), encode_placement(p)));
        }
        entries
    }

    /// Fleet endpoints in join order.
    #[must_use]
    pub fn endpoints(&self) -> &[String] {
        &self.endpoints
    }

    /// Registered placements.
    #[must_use]
    pub fn placement(&self, name: &str) -> Option<&Placement> {
        self.placements.get(name)
    }

    /// How many graphs have placements.
    #[must_use]
    pub fn graphs(&self) -> usize {
        self.placements.len()
    }

    /// Registers a shard endpoint. Returns `Some((index, journal
    /// pair))` when the address is new, `None` when it was already
    /// registered (re-join after a daemon restart is idempotent).
    pub fn join(&mut self, addr: &str) -> Option<(u32, (String, String))> {
        if self.endpoints.iter().any(|a| a == addr) {
            return None;
        }
        let index = self.endpoints.len() as u32;
        self.endpoints.push(addr.to_string());
        Some((index, (format!("shard:{index}"), addr.to_string())))
    }

    /// Records a placement over the current fleet prefix. Returns the
    /// journal pair to append.
    pub fn place(&mut self, name: &str, spec: &str, parts: u32) -> (String, String) {
        let placement = Placement {
            spec: spec.to_string(),
            parts,
        };
        let value = encode_placement(&placement);
        self.placements.insert(name.to_string(), placement);
        (format!("graph:{name}"), value)
    }

    /// Drops a placement. Returns the journal key to `Evict` when the
    /// graph had one.
    pub fn unplace(&mut self, name: &str) -> Option<String> {
        self.placements
            .remove(name)
            .map(|_| format!("graph:{name}"))
    }
}

fn encode_placement(p: &Placement) -> String {
    format!("{}|{}", p.parts, p.spec)
}

fn parse_placement(value: &str) -> Result<Placement, String> {
    let Some((parts, spec)) = value.split_once('|') else {
        return Err("missing `parts|spec` separator".to_string());
    };
    let parts: u32 = parts
        .parse()
        .map_err(|_| "placement parts is not a u32".to_string())?;
    if parts == 0 {
        return Err("placement parts is zero".to_string());
    }
    Ok(Placement {
        spec: spec.to_string(),
        parts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_journal_entries() {
        let mut map = ShardMap::new();
        assert!(map.join("127.0.0.1:7001").is_some());
        assert!(map.join("127.0.0.1:7002").is_some());
        assert!(
            map.join("127.0.0.1:7001").is_none(),
            "re-join is idempotent"
        );
        map.place("g", "rmat:9:8:7", 2);
        map.place("h", "er:100:300:1", 1);
        let (rebuilt, errors) = ShardMap::from_entries(&map.to_entries());
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(rebuilt, map);
        assert_eq!(rebuilt.endpoints().len(), 2);
        assert_eq!(rebuilt.placement("g").map(|p| p.parts), Some(2));
    }

    #[test]
    fn unplace_returns_the_evict_key() {
        let mut map = ShardMap::new();
        map.place("g", "rmat:6:8:1", 1);
        assert_eq!(map.unplace("g"), Some("graph:g".to_string()));
        assert_eq!(map.unplace("g"), None);
        assert_eq!(map.graphs(), 0);
    }

    #[test]
    fn recovery_degrades_per_entry() {
        let entries = vec![
            ("shard:0".to_string(), "127.0.0.1:7001".to_string()),
            ("shard:x".to_string(), "bad".to_string()),
            ("graph:ok".to_string(), "1|rmat:6:8:1".to_string()),
            ("graph:bad".to_string(), "no-separator".to_string()),
            ("graph:wide".to_string(), "9|rmat:6:8:1".to_string()),
            ("mystery:k".to_string(), "v".to_string()),
        ];
        let (map, errors) = ShardMap::from_entries(&entries);
        assert_eq!(map.endpoints().len(), 1);
        assert!(map.placement("ok").is_some());
        assert!(map.placement("bad").is_none());
        assert!(
            map.placement("wide").is_none(),
            "placement wider than the fleet must not survive recovery"
        );
        assert_eq!(errors.len(), 4, "{errors:?}");
    }

    #[test]
    fn shard_index_gap_truncates_the_fleet() {
        let entries = vec![
            ("shard:0".to_string(), "a:1".to_string()),
            ("shard:2".to_string(), "c:3".to_string()),
        ];
        let (map, errors) = ShardMap::from_entries(&entries);
        assert_eq!(map.endpoints(), ["a:1".to_string()]);
        assert!(errors.iter().any(|e| e.key == "shard:2"));
    }
}
