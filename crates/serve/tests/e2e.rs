//! End-to-end daemon test (the acceptance scenario of the serve issue):
//! an in-process daemon on an ephemeral port, concurrent clients of
//! every request type cross-checked against direct library calls, a
//! registry cache-hit assertion, a 0 ms deadline, and a clean drain.

use std::sync::Arc;
use std::time::Duration;

use lotus_core::kclique::count_kcliques;
use lotus_core::per_vertex::count_per_vertex;
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::LotusConfig;
use lotus_gen::Rmat;
use lotus_resilience::MemoryBudget;
use lotus_serve::proto::{ErrorKind, Request, Response, NO_DEADLINE};
use lotus_serve::{spawn, Client, ServeConfig};

const GRAPH_SPEC: &str = "rmat:8:8:11";

fn test_config() -> ServeConfig {
    ServeConfig {
        workers: 4,
        queue_capacity: 64,
        budget: MemoryBudget::from_bytes(256 << 20),
        ..ServeConfig::default()
    }
}

/// Direct library answers for the same spec the daemon builds.
struct Expected {
    triangles: u64,
    per_vertex: Vec<u64>,
    cliques4: u64,
}

fn expected() -> Expected {
    let graph = Rmat::new(8, 8).generate(11);
    let config = LotusConfig::auto(&graph);
    let lg = build_lotus_graph(&graph, &config);
    let per_vertex = count_per_vertex(&lg);
    let triangles = per_vertex.iter().sum::<u64>() / 3;
    Expected {
        triangles,
        per_vertex,
        cliques4: count_kcliques(&graph, 4),
    }
}

#[test]
fn daemon_end_to_end() {
    let handle = spawn(test_config()).expect("daemon should start");
    let addr = handle.addr();
    let want = expected();

    // Load the graph once via the admin path.
    let mut admin = Client::connect(addr).expect("connect");
    match admin
        .call(&Request::LoadGraph {
            name: "g".into(),
            spec: GRAPH_SPEC.into(),
        })
        .expect("load")
    {
        Response::Loaded {
            vertices, edges, ..
        } => {
            assert_eq!(vertices, 256);
            assert!(edges > 0);
        }
        other => panic!("unexpected LoadGraph reply: {other:?}"),
    }

    // Concurrent clients: 2× Count, 1× PerVertex, 1× KClique, plus a
    // batch — at least four client threads hammering the same graph.
    let want = Arc::new(want);
    let mut clients = Vec::new();
    for i in 0..5 {
        let want = Arc::clone(&want);
        clients.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .set_timeout(Some(Duration::from_secs(60)))
                .expect("timeout");
            match i {
                0 | 1 => {
                    let reply = client
                        .call(&Request::Count {
                            name: "g".into(),
                            deadline_ms: NO_DEADLINE,
                        })
                        .expect("count");
                    match reply {
                        Response::Count { triangles, .. } => {
                            assert_eq!(triangles, want.triangles);
                        }
                        other => panic!("unexpected Count reply: {other:?}"),
                    }
                }
                2 => {
                    let reply = client
                        .call(&Request::PerVertex {
                            name: "g".into(),
                            start: 16,
                            end: 80,
                            deadline_ms: NO_DEADLINE,
                        })
                        .expect("per-vertex");
                    match reply {
                        Response::PerVertex { start, counts } => {
                            assert_eq!(start, 16);
                            assert_eq!(counts, want.per_vertex[16..80].to_vec());
                        }
                        other => panic!("unexpected PerVertex reply: {other:?}"),
                    }
                }
                3 => {
                    let reply = client
                        .call(&Request::KClique {
                            name: "g".into(),
                            k: 4,
                            deadline_ms: NO_DEADLINE,
                        })
                        .expect("kclique");
                    match reply {
                        Response::KClique { k, cliques } => {
                            assert_eq!(k, 4);
                            assert_eq!(cliques, want.cliques4);
                        }
                        other => panic!("unexpected KClique reply: {other:?}"),
                    }
                }
                _ => {
                    let reply = client
                        .call(&Request::Batch(vec![
                            Request::Ping,
                            Request::Count {
                                name: "g".into(),
                                deadline_ms: NO_DEADLINE,
                            },
                        ]))
                        .expect("batch");
                    match reply {
                        Response::Batch(items) => {
                            assert_eq!(items.len(), 2);
                            assert_eq!(items[0], Response::Pong);
                            match &items[1] {
                                Response::Count { triangles, .. } => {
                                    assert_eq!(*triangles, want.triangles);
                                }
                                other => panic!("unexpected batched Count: {other:?}"),
                            }
                        }
                        other => panic!("unexpected Batch reply: {other:?}"),
                    }
                }
            }
        }));
    }
    for client in clients {
        client.join().expect("client thread");
    }

    // A Count on the loaded graph is a registry cache hit: the prepared
    // structures were built exactly once (by LoadGraph).
    let reply = admin
        .call(&Request::Count {
            name: "g".into(),
            deadline_ms: NO_DEADLINE,
        })
        .expect("cached count");
    match reply {
        Response::Count {
            triangles, cached, ..
        } => {
            assert_eq!(triangles, want.triangles);
            assert!(cached, "count on a loaded graph must hit the registry");
        }
        other => panic!("unexpected Count reply: {other:?}"),
    }

    // The wire stats and the in-process state agree: exactly one build
    // (the LoadGraph) and a hit per served counting request.
    let stats = match admin.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected Stats reply: {other:?}"),
    };
    assert_eq!(stats.graphs, 1);
    assert_eq!(stats.cache_misses, 1, "only LoadGraph should build");
    assert!(stats.cache_hits >= 5, "served counts must hit the cache");
    assert!(stats.requests_served >= 6);
    assert_eq!(stats.deadline_expired, 0);
    assert_eq!(stats.panics, 0);
    let state = handle.state();
    assert_eq!(state.registry().hits(), stats.cache_hits);
    assert_eq!(state.registry().misses(), 1);

    // The wire figures are read from the daemon's one counter table, in
    // every build.
    let table = state.stats();
    assert_eq!(table.cache_hits(), stats.cache_hits);
    assert_eq!(table.cache_misses(), 1);
    assert_eq!(table.served(), stats.requests_served);

    // A 0 ms deadline expires before execution — a structured error,
    // not a hang, and the daemon survives it.
    let reply = admin
        .call(&Request::Count {
            name: "g".into(),
            deadline_ms: 0,
        })
        .expect("deadline call");
    assert!(
        matches!(
            reply,
            Response::Error {
                kind: ErrorKind::DeadlineExpired,
                ..
            }
        ),
        "0 ms deadline must expire, got {reply:?}"
    );
    assert_eq!(admin.call(&Request::Ping).expect("ping"), Response::Pong);
    let stats = match admin.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected Stats reply: {other:?}"),
    };
    assert_eq!(stats.deadline_expired, 1);

    // Unknown graph name (not a spec): typed NotFound.
    let reply = admin
        .call(&Request::Count {
            name: "missing".into(),
            deadline_ms: NO_DEADLINE,
        })
        .expect("not-found call");
    assert!(matches!(
        reply,
        Response::Error {
            kind: ErrorKind::NotFound,
            ..
        }
    ));

    // Evict, then drain: the daemon acknowledges and exits cleanly.
    assert_eq!(
        admin
            .call(&Request::EvictGraph { name: "g".into() })
            .expect("evict"),
        Response::Evicted { existed: true }
    );
    assert_eq!(
        admin.call(&Request::Drain).expect("drain"),
        Response::Draining
    );
    handle.wait();
}

#[test]
fn preload_and_spec_named_queries() {
    let config = ServeConfig {
        preload: vec![("warm".into(), "er:128:512:3".into())],
        ..test_config()
    };
    let handle = spawn(config).expect("daemon should start");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The preloaded graph is resident before the first request.
    let reply = client
        .call(&Request::Count {
            name: "warm".into(),
            deadline_ms: NO_DEADLINE,
        })
        .expect("count");
    assert!(
        matches!(reply, Response::Count { cached: true, .. }),
        "preloaded graph must be a cache hit, got {reply:?}"
    );

    // A spec-shaped name builds on demand, then caches.
    let reply = client
        .call(&Request::Count {
            name: "rmat:6:4:5".into(),
            deadline_ms: NO_DEADLINE,
        })
        .expect("spec count");
    assert!(matches!(reply, Response::Count { cached: false, .. }));
    let reply = client
        .call(&Request::Count {
            name: "rmat:6:4:5".into(),
            deadline_ms: NO_DEADLINE,
        })
        .expect("spec count again");
    assert!(matches!(reply, Response::Count { cached: true, .. }));

    handle.shutdown();
    handle.wait();
}

#[test]
fn overload_is_reported_not_hung() {
    // One worker, one queue slot: with the worker busy and the slot
    // taken, the third concurrent request must be refused immediately.
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..test_config()
    };
    let handle = spawn(config).expect("daemon should start");
    let addr = handle.addr();
    let mut admin = Client::connect(addr).expect("connect");
    admin
        .call(&Request::LoadGraph {
            name: "g".into(),
            spec: "rmat:9:16:3".into(),
        })
        .expect("load");

    let mut clients = Vec::new();
    for _ in 0..8 {
        clients.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .set_timeout(Some(Duration::from_secs(60)))
                .expect("timeout");
            let reply = client
                .call(&Request::Count {
                    name: "g".into(),
                    deadline_ms: NO_DEADLINE,
                })
                .expect("count");
            matches!(
                reply,
                Response::Error {
                    kind: ErrorKind::Overloaded,
                    ..
                }
            )
        }));
    }
    let overloaded = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .filter(|&was_overloaded| was_overloaded)
        .count();
    // Scheduling decides the exact number, but stats must agree with
    // whatever the clients observed, and every request got an answer.
    let stats = match admin.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected Stats reply: {other:?}"),
    };
    assert_eq!(stats.overloaded, overloaded as u64);
    assert_eq!(stats.requests_served + stats.overloaded, 8);

    handle.shutdown();
    handle.wait();
}
