//! `count-skewed` and `count-flat`: one LOTUS count at a time, in
//! process, on a graph far larger than the L2 cache.

use std::time::{Duration, Instant};

use lotus_algos::forward::ForwardCounter;
use lotus_core::count::{count_hnn_phase, count_hub_phase, count_nnn_phase};
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::tiling::make_tiles;
use lotus_core::{LotusConfig, LotusCounter};
use lotus_gen::{ErdosRenyi, Rmat};
use lotus_graph::{DegreeStats, EdgeList, UndirectedCsr};
use lotus_telemetry::counters::{self, Counter, CounterSnapshot};
use lotus_telemetry::json::Json;

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

const MB: f64 = (1u64 << 20) as f64;

/// The input graph of a counting workload.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// R-MAT, scale 18, edge factor 16, Graph500 parameters.
    Skewed,
    /// Erdős–Rényi G(n = 2^18, m = 2^22).
    Flat,
}

impl Input {
    fn edges(self, seed: u64) -> EdgeList {
        match self {
            Input::Skewed => Rmat::new(18, 16).generate_edges(seed),
            Input::Flat => ErdosRenyi::new(1 << 18, 1 << 22).generate_edges(seed),
        }
    }

    fn spec(self, seed: u64) -> String {
        match self {
            Input::Skewed => format!("rmat:18:16:{seed}"),
            Input::Flat => format!("er:{}:{}:{seed}", 1u32 << 18, 1u64 << 22),
        }
    }
}

/// Graph generation plus CSR build, timed apart.
fn set_up(input: Input, seed: u64, tracer: &Tracer) -> (UndirectedCsr, Duration, Duration) {
    let ((graph, gen, build), _) = tracer.span("setup", None, |id| {
        let (edges, gen) = tracer.span("gen.generate", Some(id), |_| input.edges(seed));
        let (graph, build) = tracer.span("graph.build_csr", Some(id), |_| {
            UndirectedCsr::from_canonical_edges(&edges)
        });
        (graph, gen, build)
    });
    (graph, gen, build)
}

/// Per-phase times and triangle counts of one traced count.
pub struct PhaseRun {
    preprocess: f64,
    tiling: f64,
    hub: f64,
    hnn: f64,
    nnn: f64,
    triangles: [u64; 4],
    topology_bytes: u64,
    counters: CounterSnapshot,
}

impl PhaseRun {
    /// Triangles found by all phases.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.triangles.iter().sum()
    }

    /// Preprocess plus the three phases, in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.preprocess + self.hub + self.hnn + self.nnn
    }
}

/// One count through the public phase entry points, each call a span.
/// Resets the telemetry counters, and snapshots them after the count.
pub fn traced_count(graph: &UndirectedCsr, config: &LotusConfig, tracer: &Tracer) -> PhaseRun {
    counters::reset();
    let (run, _) = tracer.span("core.count", None, |id| {
        let (lg, pre) = tracer.span("core.preprocess", Some(id), |_| {
            build_lotus_graph(graph, config)
        });
        let (((hhh, hhn), tiling), hub) = tracer.span("core.hhh_hhn", Some(id), |hub_id| {
            let (tiles, tiling) = tracer.span("core.tiling", Some(hub_id), |_| {
                make_tiles(
                    &lg.he,
                    config.tiling_threshold,
                    config.partitions_per_vertex,
                )
            });
            let (pairs, _) = tracer.span("core.hub_pairs", Some(hub_id), |_| {
                count_hub_phase(&lg, &tiles)
            });
            (pairs, tiling)
        });
        let (hnn, hnn_t) = tracer.span("core.hnn", Some(id), |_| count_hnn_phase(&lg));
        let (nnn, nnn_t) = tracer.span("core.nnn", Some(id), |_| count_nnn_phase(&lg));
        PhaseRun {
            preprocess: pre.as_secs_f64(),
            tiling: tiling.as_secs_f64(),
            hub: hub.as_secs_f64(),
            hnn: hnn_t.as_secs_f64(),
            nnn: nnn_t.as_secs_f64(),
            triangles: [hhh, hhn, hnn, nnn],
            topology_bytes: lg.topology_bytes(),
            counters: CounterSnapshot::default(),
        }
    });
    PhaseRun {
        counters: counters::snapshot(),
        ..run
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Runs a counting workload for about `seconds` of counting.
pub fn run(
    input: Input,
    seed: u64,
    seconds: f64,
    setups: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let config = LotusConfig::default();
    // setup_s comes from the plain run; the traced run sets up once.
    let setups = if tracer.enabled() { 1 } else { setups };
    let (graph, gen, build) = set_up(input, seed, tracer);
    let mut setup_s = vec![(gen + build).as_secs_f64()];

    out.describe("graph.spec", Json::Str(input.spec(seed)));
    describe_graph(&graph, out);
    out.describe(
        "lotus.hubs",
        Json::Int(i64::from(config.resolved_hub_count(graph.num_vertices()))),
    );
    out.describe("threads", Json::Int(crate::env::nproc() as i64));

    // The answer every count must give: an independent Forward count.
    // The traced run counts GAP-style (with degree ordering), the
    // baseline of Table 5, and times it.
    let forward = ForwardCounter::new().with_relabel(tracer.enabled());
    let (forward, gap) = tracer.span("algos.forward", None, |_| forward.count(&graph));
    let expected = forward.triangles;
    out.describe("graph.triangles", Json::Int(expected as i64));

    let mut count_s = Vec::new();
    let mut phases: Vec<PhaseRun> = Vec::new();
    let window = Instant::now();
    while count_s.is_empty() || window.elapsed().as_secs_f64() < seconds {
        let total = if tracer.enabled() {
            let run = traced_count(&graph, &config, tracer);
            let total = run.total();
            count_s.push(run.seconds());
            phases.push(run);
            total
        } else {
            let (result, took) = tracer.span("core.count", None, |_| {
                LotusCounter::new(config).count(&graph)
            });
            count_s.push(took.as_secs_f64());
            result.total()
        };
        out.attempted += 1;
        if total != expected {
            out.failed += 1;
        }
        out.check(total == expected, || {
            format!("LOTUS counted {total} triangles, Forward {expected}")
        });
    }
    let count = median(&count_s).unwrap_or_default();
    let edges = graph.num_edges();
    let layers = (!phases.is_empty())
        .then(|| CoreLayers::measure(&graph, gen, build, gap.as_secs_f64(), phases));
    drop(graph);

    for _ in 1..setups {
        let (again, gen, build) = set_up(input, seed, tracer);
        out.check(again.num_edges() == edges, || {
            "setup is not deterministic".to_string()
        });
        setup_s.push((gen + build).as_secs_f64());
    }

    out.put(
        "setup_s",
        median(&setup_s).unwrap_or_default(),
        setup_s.len(),
    );
    out.put("p50_ms", count * 1e3, count_s.len());
    out.put("goodput_per_s", edges as f64 / count, count_s.len());
    out.put("peak_rss_mb", peak_rss_mb(), 1);
    if let Some(layers) = layers {
        layers.put(out);
    }
}

/// Records the descriptors of the graph a workload counts or serves.
pub fn describe_graph(graph: &UndirectedCsr, out: &mut Outcome) {
    let degrees = DegreeStats::of(graph);
    out.describe("graph.vertices", Json::Int(i64::from(graph.num_vertices())));
    out.describe("graph.edges", Json::Int(graph.num_edges() as i64));
    out.describe("graph.max_degree", Json::Int(i64::from(degrees.max_degree)));
    out.describe(
        "graph.csr_mb",
        Json::Float(graph.topology_bytes() as f64 / MB),
    );
}

/// The per-layer figures below the request path, which every workload's
/// traced run reports: the graph, its generation and build, and LOTUS
/// counts split into phases, with the armed work counters.
pub struct CoreLayers {
    gen_s: f64,
    build_s: f64,
    degrees: DegreeStats,
    csr_mb: f64,
    gap_s: f64,
    phases: Vec<PhaseRun>,
}

impl CoreLayers {
    /// The figures of `graph`, built in `gen` + `build`, counted
    /// GAP-style in `gap_s` and by LOTUS in `phases`.
    ///
    /// # Panics
    /// Panics if `phases` is empty.
    #[must_use]
    pub fn measure(
        graph: &UndirectedCsr,
        gen: Duration,
        build: Duration,
        gap_s: f64,
        phases: Vec<PhaseRun>,
    ) -> CoreLayers {
        assert!(!phases.is_empty(), "at least one traced count");
        CoreLayers {
            gen_s: gen.as_secs_f64(),
            build_s: build.as_secs_f64(),
            degrees: DegreeStats::of(graph),
            csr_mb: graph.topology_bytes() as f64 / MB,
            gap_s,
            phases,
        }
    }

    /// Adds every metric of this group to `out`.
    pub fn put(&self, out: &mut Outcome) {
        let n = self.phases.len();
        let med = |f: fn(&PhaseRun) -> f64| {
            median(&self.phases.iter().map(f).collect::<Vec<_>>()).unwrap_or_default()
        };
        let count = med(PhaseRun::seconds);
        let last = self.phases.last().expect("at least one count ran");
        let c = &last.counters;
        let d = &self.degrees;
        out.put("gen.generate_s", self.gen_s, 1);
        out.put("graph.build_s", self.build_s, 1);
        out.put("graph.vertices", f64::from(d.num_vertices), 1);
        out.put("graph.edges", d.num_edges as f64, 1);
        out.put("graph.csr_mb", self.csr_mb, 1);
        out.put(
            "graph.skew",
            d.mean_degree / f64::from(d.median_degree.max(1)),
            1,
        );
        out.put("core.preprocess_s", med(|p| p.preprocess), n);
        out.put("core.topology_mb", last.topology_bytes as f64 / MB, 1);
        out.put("core.hhh_hhn_s", med(|p| p.hub), n);
        out.put("core.tiling_s", med(|p| p.tiling), n);
        out.put("core.hnn_s", med(|p| p.hnn), n);
        out.put("core.nnn_s", med(|p| p.nnn), n);
        out.put("core.preprocess_share", med(|p| p.preprocess) / count, n);
        out.put("core.nnn_share", med(|p| p.nnn) / count, n);
        out.put("core.triangles.hhh", last.triangles[0] as f64, 1);
        out.put("core.triangles.hhn", last.triangles[1] as f64, 1);
        out.put("core.triangles.hnn", last.triangles[2] as f64, 1);
        out.put("core.triangles.nnn", last.triangles[3] as f64, 1);
        out.put(
            "algos.intersections",
            c.get(Counter::Intersections) as f64,
            1,
        );
        out.put("algos.merge_steps", c.get(Counter::MergeSteps) as f64, 1);
        out.put(
            "algos.fruitless_frac",
            ratio(
                c.get(Counter::FruitlessIntersections),
                c.get(Counter::Intersections),
            ),
            1,
        );
        out.put("core.h2h_probes", c.get(Counter::H2hProbes) as f64, 1);
        out.put(
            "core.h2h_hit_frac",
            ratio(c.get(Counter::H2hHits), c.get(Counter::H2hProbes)),
            1,
        );
        out.put("core.tile_visits", c.get(Counter::TileVisits) as f64, 1);
        out.put("par.steals", c.get(Counter::PoolSteals) as f64, 1);
        out.put("par.parks", c.get(Counter::PoolParks) as f64, 1);
        out.put("algos.gap_s", self.gap_s, 1);
        out.put("algos.gap_over_lotus", self.gap_s / count, n);
        out.put("trace.phase_sum_s", count, n);
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
