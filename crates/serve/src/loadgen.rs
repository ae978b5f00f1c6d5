//! The load-generator harness: N connections × M requests with a
//! seeded mix, measuring per-request latency.
//!
//! `lotus loadgen` drives this against a running daemon and renders the
//! report as the BENCH-schema `serve` section (EXPERIMENTS.md). The mix
//! is deterministic per `(seed, connection index)`, so two runs against
//! equivalent daemons issue identical request streams. Every connection
//! runs on the multiplexed driver in `mux`.

use lotus_resilience::RetryPolicy;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::client::Client;
use crate::proto::{Request, Response, NO_DEADLINE};

/// Registry key loadgen stores its target graph under.
pub const LOADGEN_GRAPH: &str = "loadgen";

/// Load-generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests: usize,
    /// Mix seed; each connection derives its own stream from it.
    pub seed: u64,
    /// Spec of the graph to load and query (see `registry::GraphSpec`).
    pub graph: String,
    /// Deadline attached to every counting request ([`NO_DEADLINE`] for
    /// none).
    pub deadline_ms: u64,
    /// Retry schedule for `Overloaded` rejections and transient connect
    /// failures. Every retried attempt's latency is still recorded and
    /// retries are counted separately, so percentiles stay honest.
    pub retry: RetryPolicy,
    /// In-flight requests per connection (pipelining depth). `1` is
    /// request/response lockstep.
    pub pipeline: usize,
    /// The target is a cluster coordinator: swap the k-clique slice of
    /// the mix for queries the coordinator can fan out (cluster mode
    /// rejects `KClique`, see DESIGN.md §16).
    pub cluster: bool,
}

impl LoadgenConfig {
    /// The fixed `ci` suite: small enough for a smoke job, large enough
    /// to exercise batching, caching, and every request type.
    #[must_use]
    pub fn ci_suite(addr: &str) -> LoadgenConfig {
        LoadgenConfig {
            addr: addr.to_string(),
            connections: 4,
            requests: 50,
            seed: 42,
            graph: "rmat:9:8:7".to_string(),
            deadline_ms: NO_DEADLINE,
            retry: RetryPolicy::serve_default(42),
            pipeline: 1,
            cluster: false,
        }
    }
}

/// Aggregated measurements of one loadgen run.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Connections driven.
    pub connections: usize,
    /// Requests issued in total.
    pub sent: u64,
    /// Successful responses.
    pub ok: u64,
    /// `Overloaded` rejections.
    pub overloaded: u64,
    /// `DeadlineExpired` responses.
    pub deadline_expired: u64,
    /// Any other error response.
    pub errors: u64,
    /// Retried attempts (overload backoff / reconnects) — *not* counted
    /// in `sent`, but their latencies are in `latencies_us`.
    pub retries: u64,
    /// Per-attempt latencies in microseconds, sorted ascending (retried
    /// attempts included).
    pub latencies_us: Vec<u64>,
    /// Wall time of the whole run in milliseconds.
    pub wall_ms: u64,
    /// Peak concurrently open connections during the run.
    pub open_conns: u64,
    /// Best completion rate sustained over any 1 s sliding window
    /// (equals the overall rate for sub-second runs).
    pub max_sustained_rps: f64,
}

impl LoadgenReport {
    /// The `p`-th latency percentile in microseconds (0 when empty).
    #[must_use]
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        // Nearest-rank: the smallest latency ≥ p percent of the sample.
        let rank = (p / 100.0 * self.latencies_us.len() as f64).ceil() as usize;
        self.latencies_us[rank.saturating_sub(1).min(self.latencies_us.len() - 1)]
    }

    /// Requests per second over the whole run.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_ms == 0 {
            return 0.0;
        }
        self.sent as f64 / (self.wall_ms as f64 / 1e3)
    }
}

/// Runs the load generator to completion.
///
/// # Errors
/// Returns a human-readable message when the daemon is unreachable or
/// the warm-up `LoadGraph` is refused; individual request failures are
/// *measurements* (counted in the report), not errors.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    // Warm the registry so the measured stream hits a resident graph.
    // A daemon mid-restart answers after a short backoff instead of
    // failing the whole run.
    let (mut admin, _retries) = Client::connect_with_retry(config.addr.as_str(), &config.retry)
        .map_err(|e| format!("connecting to {}: {e}", config.addr))?;
    let loaded = admin
        .call(&Request::LoadGraph {
            name: LOADGEN_GRAPH.to_string(),
            spec: config.graph.clone(),
        })
        .map_err(|e| format!("loading `{}`: {e}", config.graph))?;
    let vertices = match loaded {
        Response::Loaded { vertices, .. } => vertices,
        Response::Error { kind, message } => {
            return Err(format!(
                "daemon refused `{}`: {} ({message})",
                config.graph,
                kind.name()
            ))
        }
        other => return Err(format!("unexpected reply to LoadGraph: {other:?}")),
    };

    crate::mux::run(config, vertices)
}

/// The seeded request mix: mostly counts, a slice of per-vertex and
/// clique queries, a sprinkle of pings and stats, and the occasional
/// two-element batch.
pub(crate) fn pick_request(rng: &mut SmallRng, config: &LoadgenConfig, vertices: u32) -> Request {
    let name = LOADGEN_GRAPH.to_string();
    let roll = rng.gen_range(0..100u32);
    if roll < 60 {
        Request::Count {
            name,
            deadline_ms: config.deadline_ms,
        }
    } else if roll < 75 {
        let start = rng.gen_range(0..vertices.max(1));
        Request::PerVertex {
            name,
            start,
            end: start.saturating_add(64).min(vertices),
            deadline_ms: config.deadline_ms,
        }
    } else if roll < 85 {
        // Cluster mode cannot fan k-clique out (per-shard sums would
        // be inexact); substitute a count. `k` is drawn either way so
        // one seed yields the same downstream schedule in both modes.
        let k = rng.gen_range(3..5u32);
        if config.cluster {
            Request::Count {
                name,
                deadline_ms: config.deadline_ms,
            }
        } else {
            Request::KClique {
                name,
                k,
                deadline_ms: config.deadline_ms,
            }
        }
    } else if roll < 92 {
        let second = if config.cluster {
            Request::Ping
        } else {
            Request::KClique {
                name: name.clone(),
                k: 3,
                deadline_ms: config.deadline_ms,
            }
        };
        Request::Batch(vec![
            Request::Count {
                name,
                deadline_ms: config.deadline_ms,
            },
            second,
        ])
    } else if roll < 96 {
        Request::Stats
    } else {
        Request::Ping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentiles_of_sorted_latencies() {
        let report = LoadgenReport {
            latencies_us: (1..=100).collect(),
            sent: 100,
            wall_ms: 2000,
            ..LoadgenReport::default()
        };
        assert_eq!(report.percentile_us(50.0), 50);
        assert_eq!(report.percentile_us(99.0), 99);
        assert_eq!(report.percentile_us(0.0), 1);
        assert_eq!(report.percentile_us(100.0), 100);
        assert!((report.throughput_rps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_safe() {
        let report = LoadgenReport::default();
        assert_eq!(report.percentile_us(99.0), 0);
        assert!(report.throughput_rps().abs() < 1e-9);
    }

    #[test]
    fn mix_is_deterministic_per_seed() {
        let config = LoadgenConfig::ci_suite("127.0.0.1:1");
        let stream = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..32)
                .map(|_| pick_request(&mut rng, &config, 512))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn ci_suite_shape() {
        let config = LoadgenConfig::ci_suite("x:1");
        assert_eq!(config.connections, 4);
        assert_eq!(config.requests, 50);
        assert_eq!(config.graph, "rmat:9:8:7");
        assert_eq!(config.deadline_ms, NO_DEADLINE);
    }
}
