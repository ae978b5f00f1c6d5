//! `serve-mix`: an in-process daemon serving the `loadgen` mix under
//! open-loop and closed-loop load. Its traced run also measures a
//! coordinator in front of two shard daemons.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use lotus_algos::forward::{forward_count, per_vertex_counts, ForwardCounter};
use lotus_cluster::{ClusterConfig, CoordinatorHandle};
use lotus_core::kclique::count_kcliques;
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::{LotusConfig, LotusCounter};
use lotus_gen::Rmat;
use lotus_graph::UndirectedCsr;
use lotus_resilience::MemoryBudget;
use lotus_serve::proto::{Request, Response, StatsReply, NO_DEADLINE};
use lotus_serve::{Client, Registry, ServeConfig, ServerHandle};
use lotus_telemetry::json::Json;

use crate::count::{self, CoreLayers};
use crate::openloop::{self, Fate, Saturation, Segment};
use crate::report::Outcome;
use crate::schedule::{plan, Kind, GRAPH};
use crate::stats::{median, Sample};
use crate::trace::Tracer;

/// The served graph, as the daemon's registry spec.
pub const SPEC: &str = "rmat:9:8:7";

/// What sits behind the socket requests go to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// One `lotus serve` daemon.
    Single,
    /// A coordinator in front of two shard daemons.
    Cluster,
}

/// Offered rates, calibrated once on the reference machine (see
/// README.md) and frozen so every commit is measured at the same load.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Rate at which `p50_ms` and `load.p99_ms` are taken.
    pub reference: f64,
    /// Rate at which `load.goodput_rps` and `load.shed_frac` are taken.
    pub overload: f64,
    /// The fixed ladder `knee_rps` is searched on, ascending.
    pub ladder: &'static [f64],
    /// The p99 limit a ladder step must meet.
    pub p99_limit_ms: f64,
}

/// The offered rates of `serve-mix`.
pub const RATES: Rates = Rates {
    reference: 400.0,
    overload: 6000.0,
    ladder: &[500.0, 1000.0, 1500.0, 2000.0, 2500.0],
    p99_limit_ms: 10.0,
};

/// Requests each connection of the closed-loop segment keeps in flight.
/// With `nproc` connections that is `4 * nproc`, below the `nproc`
/// workers plus the `4 * nproc` queue slots of a default daemon, so the
/// segment never triggers shedding.
const WINDOW: usize = 4;

/// Rate the closed-loop segment's request list is drawn at: only its
/// order and mix matter. A deployment faster than this runs out of
/// requests early, which shortens the segment but not the rate measured.
const SATURATION_PLAN_RATE: f64 = 10_000.0;

/// In-process answers for [`SPEC`], computed without the daemon.
struct Expected {
    graph: UndirectedCsr,
    triangles: u64,
    per_vertex: Vec<u64>,
    four_cliques: u64,
}

impl Expected {
    fn new() -> Expected {
        let graph = Rmat::new(9, 8).generate(7);
        Expected {
            triangles: forward_count(&graph),
            per_vertex: per_vertex_counts(&graph),
            four_cliques: count_kcliques(&graph, 4),
            graph,
        }
    }

    /// Whether `reply` is the right answer to `request`.
    fn check(&self, request: &Request, reply: &Response) -> bool {
        match (request, reply) {
            (Request::Ping, Response::Pong) | (Request::Stats, Response::Stats(_)) => true,
            (Request::Count { .. }, Response::Count { triangles, .. }) => {
                *triangles == self.triangles
            }
            (Request::PerVertex { start, end, .. }, Response::PerVertex { start: s, counts }) => {
                s == start && counts[..] == self.per_vertex[*start as usize..*end as usize]
            }
            (Request::KClique { k, .. }, Response::KClique { k: got, cliques }) => {
                k == got
                    && *cliques
                        == match k {
                            3 => self.triangles,
                            4 => self.four_cliques,
                            _ => return false,
                        }
            }
            (Request::Batch(items), Response::Batch(replies)) => {
                items.len() == replies.len()
                    && items.iter().zip(replies).all(|(q, r)| self.check(q, r))
            }
            _ => false,
        }
    }
}

/// A running daemon or cluster.
struct Deployment {
    addr: SocketAddr,
    daemons: Vec<ServerHandle>,
    coordinator: Option<CoordinatorHandle>,
}

impl Deployment {
    fn start(target: Target, workers: usize) -> Result<Deployment, String> {
        let daemon = || {
            lotus_serve::spawn(ServeConfig {
                workers,
                event_threads: 1,
                ..ServeConfig::default()
            })
            .map_err(|e| format!("starting daemon: {e}"))
        };
        match target {
            Target::Single => {
                let d = daemon()?;
                Ok(Deployment {
                    addr: d.addr(),
                    daemons: vec![d],
                    coordinator: None,
                })
            }
            Target::Cluster => {
                let daemons = vec![daemon()?, daemon()?];
                let coordinator = lotus_cluster::spawn(ClusterConfig {
                    shards: daemons.iter().map(|d| d.addr().to_string()).collect(),
                    ..ClusterConfig::default()
                })
                .map_err(|e| format!("starting coordinator: {e}"))?;
                Ok(Deployment {
                    addr: coordinator.addr(),
                    daemons,
                    coordinator: Some(coordinator),
                })
            }
        }
    }

    fn stop(self) {
        if let Some(c) = self.coordinator {
            c.shutdown();
            c.wait();
        }
        for d in self.daemons {
            d.shutdown();
            d.wait();
        }
    }
}

fn call(client: &mut Client, request: &Request) -> Result<Response, String> {
    client
        .call(request)
        .map_err(|e| format!("{request:?}: {e}"))
}

fn stats(client: &mut Client) -> Result<StatsReply, String> {
    match call(client, &Request::Stats)? {
        Response::Stats(s) => Ok(s),
        other => Err(format!("Stats answered {other:?}")),
    }
}

/// Daemon start, `LoadGraph` (a `ShardLoad` per shard behind a
/// coordinator) and a closed-loop warm-up whose answers are checked.
fn set_up(
    target: Target,
    seed: u64,
    expected: &Expected,
    out: &mut Outcome,
) -> Result<Deployment, String> {
    let deployment = Deployment::start(target, crate::env::nproc())?;
    let mut client = Client::connect(deployment.addr).map_err(|e| e.to_string())?;
    let load = Request::LoadGraph {
        name: GRAPH.to_string(),
        spec: SPEC.to_string(),
    };
    match call(&mut client, &load)? {
        Response::Loaded { .. } => {}
        other => return Err(format!("LoadGraph answered {other:?}")),
    }
    let vertices = expected.graph.num_vertices();
    for p in plan(
        seed,
        0,
        2000.0,
        Duration::from_millis(100),
        vertices,
        target == Target::Cluster,
    ) {
        let reply = call(&mut client, &p.request)?;
        out.check(expected.check(&p.request, &reply), || {
            format!("warm-up: {:?} answered {reply:?}", p.request)
        });
    }
    Ok(deployment)
}

/// Closed-loop latency of `request` on a fresh connection to `addr`.
fn closed_loop_ms(
    addr: SocketAddr,
    request: &Request,
    n: usize,
    mut check: impl FnMut(&Response) -> bool,
) -> Result<Sample, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut ms = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let reply = call(&mut client, request)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !check(&reply) {
            return Err(format!("{request:?} answered {reply:?}"));
        }
    }
    Ok(Sample::new(ms))
}

/// Median wall time of `f`, in µs per call, over `rounds` rounds of
/// `per_round` calls.
fn micros_per_call(rounds: usize, per_round: usize, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_round {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / per_round as f64
        })
        .collect();
    median(&per).unwrap_or_default()
}

/// The segments of one run, in order.
struct Segments {
    reference: Segment,
    overload: Segment,
    ladder: Vec<Segment>,
    saturation: Saturation,
}

impl Segments {
    fn all(&self) -> impl Iterator<Item = &Segment> {
        [&self.reference, &self.overload]
            .into_iter()
            .chain(&self.ladder)
    }
}

fn drive(
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    expected: &Expected,
    tracer: &Tracer,
) -> Result<Segments, String> {
    let rates = RATES;
    let vertices = expected.graph.num_vertices();
    let check = |q: &Request, r: &Response| expected.check(q, r);
    let segment = |name: &str, salt: u64, rate: f64, share: f64| -> Result<Segment, String> {
        let length = Duration::from_secs_f64(seconds * share);
        let schedule = plan(seed, salt, rate, length, vertices, false);
        let (segment, _) = tracer.span(name, None, |id| {
            openloop::run(
                addr,
                crate::env::nproc(),
                &schedule,
                rate,
                length,
                &check,
                tracer,
                Some(id),
            )
        });
        // Let the daemon settle before the next segment.
        std::thread::sleep(Duration::from_millis(100));
        segment.map_err(|e| format!("{name}: {e}"))
    };
    let reference = segment("load.reference", 1, rates.reference, 0.35)?;
    let overload = segment("load.overload", 2, rates.overload, 0.15)?;
    let step = 0.15 / rates.ladder.len() as f64;
    let ladder = rates
        .ladder
        .iter()
        .enumerate()
        .map(|(i, &rate)| segment("load.ladder", 10 + i as u64, rate, step))
        .collect::<Result<_, _>>()?;
    let length = Duration::from_secs_f64(seconds * 0.35);
    let schedule = plan(seed, 3, SATURATION_PLAN_RATE, length, vertices, false);
    let (saturation, _) = tracer.span("load.saturation", None, |_| {
        openloop::closed_loop(
            addr,
            crate::env::nproc(),
            WINDOW,
            &schedule,
            length,
            &check,
        )
    });
    Ok(Segments {
        reference,
        overload,
        ladder,
        saturation: saturation.map_err(|e| format!("load.saturation: {e}"))?,
    })
}

/// Runs `serve-mix`. Its traced run also measures the cluster layer, on
/// a coordinator in front of two shard daemons.
///
/// # Errors
/// Returns a description of a daemon that could not be started or
/// reached; wrong answers are recorded in `out` instead.
pub fn run(
    seed: u64,
    seconds: f64,
    setups: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let expected = Expected::new();
    let rates = RATES;
    let workers = crate::env::nproc();
    out.describe("graph.spec", Json::Str(SPEC.to_string()));
    crate::count::describe_graph(&expected.graph, out);
    out.describe("graph.triangles", Json::Int(expected.triangles as i64));
    out.describe(
        "daemon",
        Json::Str(format!(
            "serve: {workers} workers, 1 event loop, default queue; traced run only: \
             coordinator + 2 shard daemons like it"
        )),
    );
    out.describe("load.connections", Json::Int(workers as i64));
    out.describe(
        "load.rates",
        Json::Str(format!(
            "reference {} /s, overload {} /s, ladder {:?} /s, p99 limit {} ms",
            rates.reference, rates.overload, rates.ladder, rates.p99_limit_ms
        )),
    );

    let mut setup_s = Vec::new();
    let mut deployment = None;
    for _ in 0..setups {
        if let Some(previous) = deployment.take() {
            Deployment::stop(previous);
        }
        let (d, took) = tracer.span("setup", None, |_| set_up(Target::Single, seed, &expected, out));
        deployment = Some(d?);
        setup_s.push(took.as_secs_f64());
    }
    let deployment = deployment.ok_or("no set-up ran")?;
    let addr = deployment.addr;
    let mut admin = Client::connect(addr).map_err(|e| e.to_string())?;
    let before = stats(&mut admin)?;

    let segments = drive(addr, seed, seconds, &expected, tracer)?;

    let after = stats(&mut admin)?;
    // Failed: wrong answers and error replies other than `overloaded`.
    // Shed and timed-out requests are what load.shed_frac and the latency
    // figures measure, not failures of the operation.
    for s in segments.all() {
        out.attempted += s.attempted() as u64;
        out.failed += (s.with_fate(Fate::Refused) + s.with_fate(Fate::Wrong)) as u64;
        let wrong = s.with_fate(Fate::Wrong);
        out.check(wrong == 0, || {
            format!("{wrong} wrong answers at {} /s", s.rate)
        });
    }
    let saturation = &segments.saturation;
    out.attempted += saturation.attempted as u64;
    out.failed += (saturation.refused + saturation.wrong) as u64;
    out.check(saturation.wrong == 0, || {
        format!("{} wrong answers in closed loop", saturation.wrong)
    });

    out.put(
        "setup_s",
        median(&setup_s).unwrap_or_default(),
        setup_s.len(),
    );
    let reference = &segments.reference;
    let overload = &segments.overload;
    out.put("p50_ms", reference.pct_ms(50.0), reference.attempted());
    out.put("goodput_per_s", saturation.goodput(), saturation.ok);
    out.put("load.goodput_rps", overload.goodput(), overload.attempted());
    out.put("load.p99_ms", reference.pct_ms(99.0), reference.attempted());
    out.put("load.shed_frac", overload.shed_frac(), overload.attempted());
    out.put(
        "load.knee_rps",
        openloop::knee(&segments.ladder, rates.p99_limit_ms),
        segments.ladder.iter().map(Segment::attempted).sum(),
    );
    out.describe(
        "ladder",
        Json::Arr(
            segments
                .ladder
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("rate".into(), Json::Float(s.rate)),
                        ("goodput".into(), Json::Float(s.goodput())),
                        ("shed_frac".into(), Json::Float(s.shed_frac())),
                        ("p99_ms".into(), Json::Float(s.pct_ms(99.0))),
                        ("meets".into(), Json::Bool(s.meets(rates.p99_limit_ms))),
                    ])
                })
                .collect(),
        ),
    );
    out.put("peak_rss_mb", crate::count::peak_rss_mb(), 1);
    if tracer.enabled() {
        layers(&expected, &segments, (&before, &after), out)?;
        cluster_layers(seed, &expected, out)?;
        core_layers(tracer, out);
    }
    drop(admin);
    deployment.stop();
    Ok(())
}

/// Per-layer figures of the traced run.
fn layers(
    expected: &Expected,
    segments: &Segments,
    (before, after): (&StatsReply, &StatsReply),
    out: &mut Outcome,
) -> Result<(), String> {
    let attempted: usize = segments.all().map(Segment::attempted).sum();
    let per_req = |n: u64| n as f64 / attempted.max(1) as f64;

    let lag = Sample::new(segments.reference.lag_ms.clone());
    out.put(
        "load.lag_p99_ms",
        lag.pct(99.0).unwrap_or(f64::NAN),
        lag.len(),
    );

    let config = LotusConfig::auto(&expected.graph);
    let lg = build_lotus_graph(&expected.graph, &config);
    let counter = LotusCounter::new(config);
    let prepared_us = micros_per_call(9, 200, || {
        std::hint::black_box(counter.count_prepared(std::hint::black_box(&lg)));
    });
    out.put("core.count_prepared_us", prepared_us, 9);
    for (kind, name) in [
        (Kind::Ping, "serve.ping_p50_ms"),
        (Kind::Count, "serve.count_p50_ms"),
        (Kind::PerVertex, "serve.per_vertex_p50_ms"),
        (Kind::KClique, "serve.kclique_p50_ms"),
        (Kind::Batch, "serve.batch_p50_ms"),
    ] {
        let s = segments.reference.latency_of(kind);
        out.put(name, s.pct(50.0).unwrap_or(f64::NAN), s.len());
    }
    let count_p50 = segments.reference.latency_of(Kind::Count);
    out.put(
        "serve.count_overhead_ms",
        count_p50.pct(50.0).unwrap_or(f64::NAN) - prepared_us / 1e3,
        count_p50.len(),
    );
    let loops = |s: &StatsReply| {
        s.loop_stats.iter().fold((0, 0), |(w, r), l| {
            (w + l.loop_wakeups, r + l.readiness_events)
        })
    };
    let (w0, r0) = loops(before);
    let (w1, r1) = loops(after);
    out.put("serve.loop_wakeups_per_req", per_req(w1 - w0), attempted);
    out.put(
        "serve.readiness_events_per_req",
        per_req(r1 - r0),
        attempted,
    );
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    out.put(
        "registry.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );

    // proto: encode and decode every frame of the reference mix,
    // requests and the replies the daemon should give.
    let schedule = plan(
        1,
        1,
        2000.0,
        Duration::from_millis(250),
        expected.graph.num_vertices(),
        false,
    );
    let frames: Vec<(Request, Response)> = schedule
        .iter()
        .map(|p| (p.request.clone(), reply_for(expected, &p.request)))
        .collect();
    let n = 2 * frames.len();
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .map(|(q, r)| {
            (
                q.encode().expect("encode request"),
                r.encode().expect("encode reply"),
            )
        })
        .collect();
    let encode_us = micros_per_call(9, 1, || {
        for (q, r) in &frames {
            let _ = std::hint::black_box((q.encode(), r.encode()));
        }
    }) / n as f64;
    let decode_us = micros_per_call(9, 1, || {
        for (q, r) in &encoded {
            let _ = std::hint::black_box((Request::decode(q), Response::decode(r)));
        }
    }) / n as f64;
    out.put("proto.encode_us", encode_us, 9);
    out.put("proto.decode_us", decode_us, 9);

    // registry: a get_or_load hit on a resident graph.
    let registry = Registry::new(MemoryBudget::from_bytes(512 << 20));
    registry.load(GRAPH, SPEC).map_err(|e| e.to_string())?;
    out.put(
        "registry.lookup_us",
        micros_per_call(9, 10_000, || {
            std::hint::black_box(
                registry
                    .get_or_load(GRAPH)
                    .map(|(g, hit)| (g.bytes, hit))
                    .ok(),
            );
        }),
        9,
    );
    Ok(())
}

/// The cluster layer: a coordinator in front of two shard daemons like
/// the served one, set up as `serve-mix` is, then closed-loop Counts
/// through the coordinator and ShardCounts straight to each shard.
fn cluster_layers(seed: u64, expected: &Expected, out: &mut Outcome) -> Result<(), String> {
    let deployment = set_up(Target::Cluster, seed, expected, out)?;
    let coordinator = deployment.coordinator.as_ref().ok_or("no coordinator")?;
    let cs = coordinator.state().stats();
    let (calls0, failures0) = (cs.fanout_calls(), cs.shard_failures());
    let count = Request::Count {
        name: GRAPH.to_string(),
        deadline_ms: NO_DEADLINE,
    };
    let n = 300;
    let via = closed_loop_ms(deployment.addr, &count, n, |r| expected.check(&count, r))?;
    let shard_count = Request::ShardCount {
        name: GRAPH.to_string(),
        deadline_ms: NO_DEADLINE,
    };
    let mut owned = 0;
    let mut slowest = 0.0f64;
    for d in &deployment.daemons {
        let mut got = 0;
        let s = closed_loop_ms(d.addr(), &shard_count, n, |r| match r {
            Response::Count { triangles, .. } => {
                got = *triangles;
                true
            }
            _ => false,
        })?;
        owned += got;
        slowest = slowest.max(s.pct(50.0).unwrap_or(f64::NAN));
    }
    out.check(owned == expected.triangles, || {
        format!(
            "shards own {owned} triangles, single node counts {}",
            expected.triangles
        )
    });
    let via_p50 = via.pct(50.0).unwrap_or(f64::NAN);
    out.put("cluster.count_p50_ms", via_p50, n);
    out.put("cluster.shard_count_p50_ms", slowest, n);
    out.put("cluster.fanout_overhead_ms", via_p50 - slowest, n);
    let cs = coordinator.state().stats();
    out.put(
        "cluster.fanout_calls_per_req",
        (cs.fanout_calls() - calls0) as f64 / n as f64,
        n,
    );
    out.put(
        "cluster.shard_failures",
        (cs.shard_failures() - failures0) as f64,
        n,
    );
    deployment.stop();
    Ok(())
}

/// The layers below the request path, for the served graph, in process:
/// what `LoadGraph` builds and what a worker runs for a Count. It runs
/// after every Stats read, since a traced count resets the telemetry
/// counters.
fn core_layers(tracer: &Tracer, out: &mut Outcome) {
    let t = Instant::now();
    let edges = Rmat::new(9, 8).generate_edges(7);
    let gen = t.elapsed();
    let t = Instant::now();
    let graph = UndirectedCsr::from_canonical_edges(&edges);
    let build = t.elapsed();
    let gap = micros_per_call(9, 20, || {
        std::hint::black_box(ForwardCounter::new().with_relabel(true).count(&graph));
    }) / 1e6;
    let config = LotusConfig::auto(&graph);
    let phases = (0..101)
        .map(|_| count::traced_count(&graph, &config, tracer))
        .collect();
    CoreLayers::measure(&graph, gen, build, gap, phases).put(out);
}

/// The reply the daemon should give to `request`.
fn reply_for(expected: &Expected, request: &Request) -> Response {
    match request {
        Request::Count { .. } => Response::Count {
            triangles: expected.triangles,
            cached: true,
            wall_micros: 10,
        },
        Request::PerVertex { start, end, .. } => Response::PerVertex {
            start: *start,
            counts: expected.per_vertex[*start as usize..*end as usize].to_vec(),
        },
        Request::KClique { k, .. } => Response::KClique {
            k: *k,
            cliques: if *k == 3 {
                expected.triangles
            } else {
                expected.four_cliques
            },
        },
        Request::Batch(items) => {
            Response::Batch(items.iter().map(|q| reply_for(expected, q)).collect())
        }
        Request::Stats => Response::Stats(StatsReply::default()),
        _ => Response::Pong,
    }
}
