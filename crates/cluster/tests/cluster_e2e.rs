//! End-to-end cluster acceptance: a coordinator fronting three real
//! `lotus-serve` shard daemons over loopback TCP.
//!
//! The load-bearing assertions (ISSUE acceptance):
//! * sharded `Count` / `PerVertex` are **bit-identical** to the
//!   single-node answers for both R-MAT and ER seeds;
//! * killing a shard yields a typed `ShardUnavailable` error within
//!   the request deadline — not a hang;
//! * the degraded partial mode (flagged on) answers with a partial sum
//!   marked `cached: false`;
//! * the shard map journal survives a coordinator restart.

use std::time::{Duration, Instant};

use lotus_cluster::{spawn as spawn_coordinator, ClusterConfig, CoordinatorHandle};
use lotus_serve::proto::{ErrorKind, Request, Response, NO_DEADLINE};
use lotus_serve::{spawn as spawn_serve, Client, ServeConfig, ServerHandle};

fn shard_daemon() -> ServerHandle {
    spawn_serve(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServeConfig::default()
    })
    .expect("spawn shard daemon")
}

fn coordinator_for(shards: &[&ServerHandle], allow_partial: bool) -> CoordinatorHandle {
    spawn_coordinator(ClusterConfig {
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        default_deadline: Duration::from_secs(10),
        allow_partial,
        ..ClusterConfig::default()
    })
    .expect("spawn coordinator")
}

fn count(client: &mut Client, name: &str, deadline_ms: u64) -> Response {
    client
        .call(&Request::Count {
            name: name.to_string(),
            deadline_ms,
        })
        .expect("count call")
}

fn single_node_reference(spec: &str) -> (u64, Vec<u64>) {
    let single = shard_daemon();
    let mut client = Client::connect(single.addr()).expect("connect single");
    let loaded = client
        .call(&Request::LoadGraph {
            name: "ref".to_string(),
            spec: spec.to_string(),
        })
        .expect("load single");
    assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");
    let Response::Count { triangles, .. } = count(&mut client, "ref", NO_DEADLINE) else {
        panic!("single-node count failed");
    };
    let Response::PerVertex { counts, .. } = client
        .call(&Request::PerVertex {
            name: "ref".to_string(),
            start: 0,
            end: 0,
            deadline_ms: NO_DEADLINE,
        })
        .expect("single per-vertex")
    else {
        panic!("single-node per-vertex failed");
    };
    single.shutdown();
    (triangles, counts)
}

#[test]
fn sharded_answers_are_bit_identical_to_single_node() {
    let shards = [shard_daemon(), shard_daemon(), shard_daemon()];
    let coordinator = coordinator_for(&[&shards[0], &shards[1], &shards[2]], false);
    let mut client = Client::connect(coordinator.addr()).expect("connect coordinator");

    for spec in ["rmat:9:8:7", "er:400:2400:5"] {
        let (expected_count, expected_pv) = single_node_reference(spec);
        let name = format!("g-{spec}");
        let loaded = client
            .call(&Request::LoadGraph {
                name: name.clone(),
                spec: spec.to_string(),
            })
            .expect("cluster load");
        assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");

        let Response::Count {
            triangles, cached, ..
        } = count(&mut client, &name, NO_DEADLINE)
        else {
            panic!("cluster count failed for {spec}");
        };
        assert_eq!(
            triangles, expected_count,
            "sharded Count must be exact ({spec})"
        );
        assert!(cached, "a full fan-out answer is not partial");

        let Response::PerVertex { start, counts } = client
            .call(&Request::PerVertex {
                name: name.clone(),
                start: 0,
                end: 0,
                deadline_ms: NO_DEADLINE,
            })
            .expect("cluster per-vertex")
        else {
            panic!("cluster per-vertex failed for {spec}");
        };
        assert_eq!(start, 0);
        assert_eq!(
            counts, expected_pv,
            "sharded PerVertex must be exact ({spec})"
        );
    }

    // Merged fleet occupancy reflects both placements on all 3 shards.
    let Response::ShardStat {
        graphs,
        owned_vertices,
        entries,
        ..
    } = client.call(&Request::ShardStat).expect("fleet stat")
    else {
        panic!("fleet stat failed");
    };
    assert_eq!(graphs, 2);
    assert!(owned_vertices > 0 && entries > 0);

    coordinator.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn killed_shard_yields_typed_error_within_deadline() {
    let a = shard_daemon();
    let b = shard_daemon();
    let victim = shard_daemon();
    let coordinator = coordinator_for(&[&a, &b, &victim], false);
    let mut client = Client::connect(coordinator.addr()).expect("connect coordinator");

    let loaded = client
        .call(&Request::LoadGraph {
            name: "g".to_string(),
            spec: "rmat:8:8:3".to_string(),
        })
        .expect("cluster load");
    assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");

    // Kill one shard daemon outright, then query with a deadline.
    victim.shutdown();
    victim.wait();

    let started = Instant::now();
    let reply = count(&mut client, "g", 3_000);
    let elapsed = started.elapsed();
    let Response::Error { kind, message } = reply else {
        panic!("expected a typed error, got {reply:?}");
    };
    assert_eq!(
        kind,
        ErrorKind::ShardUnavailable,
        "kind was {kind:?} ({message})"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "typed error must arrive within the deadline, took {elapsed:?}"
    );
    // The two live shards still answer the fleet stat fan-out is not
    // required to — but a fresh Count after a reload still works if the
    // dead shard is replaced. Here we only assert the coordinator
    // itself stayed up:
    assert!(matches!(
        client.call(&Request::Ping).expect("ping after failure"),
        Response::Pong
    ));

    coordinator.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn partial_mode_degrades_instead_of_failing() {
    let a = shard_daemon();
    let b = shard_daemon();
    let victim = shard_daemon();
    let coordinator = coordinator_for(&[&a, &b, &victim], true);
    let mut client = Client::connect(coordinator.addr()).expect("connect coordinator");

    let (expected, _) = single_node_reference("rmat:8:8:3");
    client
        .call(&Request::LoadGraph {
            name: "g".to_string(),
            spec: "rmat:8:8:3".to_string(),
        })
        .expect("cluster load");

    victim.shutdown();
    victim.wait();

    let Response::Count {
        triangles, cached, ..
    } = count(&mut client, "g", 3_000)
    else {
        panic!("partial mode must still answer Count");
    };
    assert!(!cached, "a partial answer must be flagged");
    assert!(
        triangles <= expected,
        "partial sum {triangles} cannot exceed the exact count {expected}"
    );
    assert!(coordinator.state().stats().partial_answers() >= 1);

    coordinator.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn shard_join_extends_the_fleet_for_new_placements() {
    let a = shard_daemon();
    let b = shard_daemon();
    let c = shard_daemon();
    let coordinator = coordinator_for(&[&a, &b], false);
    let mut client = Client::connect(coordinator.addr()).expect("connect coordinator");

    let Response::ShardJoined { shards } = client
        .call(&Request::ShardJoin {
            addr: c.addr().to_string(),
        })
        .expect("join")
    else {
        panic!("join failed");
    };
    assert_eq!(shards, 3);
    // Joining the same endpoint again is idempotent.
    let Response::ShardJoined { shards } = client
        .call(&Request::ShardJoin {
            addr: c.addr().to_string(),
        })
        .expect("re-join")
    else {
        panic!("re-join failed");
    };
    assert_eq!(shards, 3);

    let (expected, _) = single_node_reference("er:300:1500:9");
    client
        .call(&Request::LoadGraph {
            name: "g".to_string(),
            spec: "er:300:1500:9".to_string(),
        })
        .expect("cluster load");
    let Response::Count { triangles, .. } = count(&mut client, "g", NO_DEADLINE) else {
        panic!("count failed");
    };
    assert_eq!(triangles, expected);

    coordinator.shutdown();
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

#[test]
fn shard_map_journal_survives_coordinator_restart() {
    let dir = std::env::temp_dir().join(format!(
        "lotus-cluster-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let a = shard_daemon();
    let b = shard_daemon();
    let (expected, _) = single_node_reference("rmat:8:8:11");

    let first = spawn_coordinator(ClusterConfig {
        shards: vec![a.addr().to_string(), b.addr().to_string()],
        data_dir: Some(dir.clone()),
        ..ClusterConfig::default()
    })
    .expect("spawn first coordinator");
    {
        let mut client = Client::connect(first.addr()).expect("connect first");
        client
            .call(&Request::LoadGraph {
                name: "g".to_string(),
                spec: "rmat:8:8:11".to_string(),
            })
            .expect("load");
    }
    first.shutdown();
    first.wait();

    // Restart with an empty shard list: endpoints and the placement
    // must both come back from the journal.
    let second = spawn_coordinator(ClusterConfig {
        shards: Vec::new(),
        data_dir: Some(dir.clone()),
        ..ClusterConfig::default()
    })
    .expect("spawn second coordinator");
    let mut client = Client::connect(second.addr()).expect("connect second");
    let Response::Count { triangles, .. } = count(&mut client, "g", NO_DEADLINE) else {
        panic!("recovered coordinator could not serve the placement");
    };
    assert_eq!(triangles, expected);

    second.shutdown();
    a.shutdown();
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
