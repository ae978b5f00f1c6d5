//! Seeded open-loop arrival schedules and the request mix.
//!
//! Arrivals form a Poisson process: independent users, so the next send
//! time never depends on a reply. The mix is the `loadgen` mix rebuilt
//! from public `proto::Request` constructors, with the same cluster
//! substitutions as `loadgen --cluster`.

use std::time::Duration;

use lotus_serve::proto::{Request, NO_DEADLINE};

/// Registry key the benchmark loads its served graph under.
pub const GRAPH: &str = "g";

/// SplitMix64: a small seeded generator whose stream is fixed by the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The request types of the mix, for per-type latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `Count`, 60% (plus the k-clique slice on a coordinator).
    Count,
    /// `PerVertex` over a 64-vertex window, 15%.
    PerVertex,
    /// `KClique` with k in {3, 4}, 10%.
    KClique,
    /// `Batch` of a count and a 3-clique (a ping on a coordinator), 7%.
    Batch,
    /// `Stats`, 4%.
    Stats,
    /// `Ping`, 4%.
    Ping,
}

impl Kind {
    /// Metric-name stem.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Count => "count",
            Kind::PerVertex => "per_vertex",
            Kind::KClique => "kclique",
            Kind::Batch => "batch",
            Kind::Stats => "stats",
            Kind::Ping => "ping",
        }
    }
}

/// Draws one request of the mix. `vertices` bounds the per-vertex window;
/// `cluster` applies the coordinator substitutions.
pub fn pick(rng: &mut Rng, vertices: u32, cluster: bool) -> (Kind, Request) {
    let name = GRAPH.to_string();
    let count = |name: String| Request::Count {
        name,
        deadline_ms: NO_DEADLINE,
    };
    let roll = rng.below(100);
    if roll < 60 {
        (Kind::Count, count(name))
    } else if roll < 75 {
        let start = rng.below(u64::from(vertices.max(1))) as u32;
        let request = Request::PerVertex {
            name,
            start,
            end: start.saturating_add(64).min(vertices),
            deadline_ms: NO_DEADLINE,
        };
        (Kind::PerVertex, request)
    } else if roll < 85 {
        // `k` is drawn either way so both modes share one schedule.
        let k = 3 + rng.below(2) as u32;
        if cluster {
            (Kind::Count, count(name))
        } else {
            let request = Request::KClique {
                name,
                k,
                deadline_ms: NO_DEADLINE,
            };
            (Kind::KClique, request)
        }
    } else if roll < 92 {
        let second = if cluster {
            Request::Ping
        } else {
            Request::KClique {
                name: name.clone(),
                k: 3,
                deadline_ms: NO_DEADLINE,
            }
        };
        (Kind::Batch, Request::Batch(vec![count(name), second]))
    } else if roll < 96 {
        (Kind::Stats, Request::Stats)
    } else {
        (Kind::Ping, Request::Ping)
    }
}

/// One planned send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    /// Intended send time, from the start of the segment.
    pub at: Duration,
    /// Request type.
    pub kind: Kind,
    /// The request.
    pub request: Request,
}

/// The arrivals of one segment: Poisson at `rate` per second for
/// `length`, drawn from `seed` and the segment's `salt`.
#[must_use]
pub fn plan(
    seed: u64,
    salt: u64,
    rate: f64,
    length: Duration,
    vertices: u32,
    cluster: bool,
) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut out = Vec::new();
    let mut t = 0.0;
    let end = length.as_secs_f64();
    loop {
        t += -rng.unit().ln() / rate;
        if t >= end {
            return out;
        }
        let (kind, request) = pick(&mut rng, vertices, cluster);
        out.push(Planned {
            at: Duration::from_secs_f64(t),
            kind,
            request,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_seed() {
        let a = plan(7, 1, 500.0, Duration::from_secs(2), 512, false);
        let b = plan(7, 1, 500.0, Duration::from_secs(2), 512, false);
        assert_eq!(a, b);
        let other_seed = plan(8, 1, 500.0, Duration::from_secs(2), 512, false);
        assert_ne!(a, other_seed);
        let other_segment = plan(7, 2, 500.0, Duration::from_secs(2), 512, false);
        assert_ne!(a, other_segment);
        // Arrival times ascend and the count is near rate * length.
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!((900..1100).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn cluster_mode_keeps_arrival_times() {
        let single = plan(3, 4, 800.0, Duration::from_secs(1), 512, false);
        let cluster = plan(3, 4, 800.0, Duration::from_secs(1), 512, true);
        assert_eq!(single.len(), cluster.len());
        for (s, c) in single.iter().zip(&cluster) {
            assert_eq!(s.at, c.at);
            assert!(!matches!(c.request, Request::KClique { .. }));
            if let Request::Batch(items) = &c.request {
                assert!(items.iter().all(|r| !matches!(r, Request::KClique { .. })));
            }
        }
    }

    #[test]
    fn mix_proportions_match_loadgen() {
        let mut rng = Rng::new(42);
        let n = 200_000;
        let mut seen = std::collections::BTreeMap::new();
        for _ in 0..n {
            *seen.entry(pick(&mut rng, 512, false).0).or_insert(0u32) += 1;
        }
        let want = [
            (Kind::Count, 0.60),
            (Kind::PerVertex, 0.15),
            (Kind::KClique, 0.10),
            (Kind::Batch, 0.07),
            (Kind::Stats, 0.04),
            (Kind::Ping, 0.04),
        ];
        for (kind, share) in want {
            let got = f64::from(seen[&kind]) / f64::from(n);
            assert!((got - share).abs() < 0.005, "{kind:?}: {got} vs {share}");
        }
    }

    #[test]
    fn per_vertex_windows_stay_in_range() {
        let mut rng = Rng::new(9);
        for _ in 0..10_000 {
            if let (_, Request::PerVertex { start, end, .. }) = pick(&mut rng, 100, false) {
                assert!(start < end && end <= 100 && end - start <= 64);
            }
        }
    }
}
