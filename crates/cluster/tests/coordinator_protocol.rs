//! Coordinator protocol suite: the coordinator runs on the serve
//! daemon's event loop, so it owes clients the same connection
//! contract — in-order pipelining, `bad_request` without a close for a
//! CRC-valid but undecodable frame, drain that answers everything it
//! accepted, and the engine's connection and loop figures in `Stats`,
//! whose recovery fields describe the map-journal replay.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use lotus_cluster::{
    spawn as spawn_coordinator, ClusterConfig, CoordinatorHandle, CLUSTER_JOURNAL,
};
use lotus_serve::journal::read_journal;
use lotus_serve::proto::{
    read_response, write_frame, write_request, ErrorKind, Request, Response, StatsReply,
    NO_DEADLINE,
};
use lotus_serve::{spawn as spawn_serve, Client, ServeConfig, ServerHandle};

const SPEC: &str = "rmat:8:8:3";

fn shard_daemon(idle_timeout: Duration) -> ServerHandle {
    spawn_serve(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        idle_timeout,
        ..ServeConfig::default()
    })
    .expect("spawn shard daemon")
}

/// Two shards and a coordinator with `g` placed on both.
fn cluster(shard_idle: Duration) -> (Vec<ServerHandle>, CoordinatorHandle) {
    let shards = vec![shard_daemon(shard_idle), shard_daemon(shard_idle)];
    let coordinator = spawn_coordinator(ClusterConfig {
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        ..ClusterConfig::default()
    })
    .expect("spawn coordinator");
    let mut client = Client::connect(coordinator.addr()).expect("connect coordinator");
    let loaded = client
        .call(&Request::LoadGraph {
            name: "g".into(),
            spec: SPEC.into(),
        })
        .expect("cluster load");
    assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");
    (shards, coordinator)
}

fn single_node_count() -> u64 {
    let single = shard_daemon(Duration::ZERO);
    let mut client = Client::connect(single.addr()).expect("connect single");
    match client.call(&count()).expect("single count") {
        Response::Count { triangles, .. } => triangles,
        other => panic!("single-node count failed: {other:?}"),
    }
}

fn count() -> Request {
    Request::Count {
        name: SPEC.into(),
        deadline_ms: NO_DEADLINE,
    }
}

fn count_g() -> Request {
    Request::Count {
        name: "g".into(),
        deadline_ms: NO_DEADLINE,
    }
}

fn raw_connect(coordinator: &CoordinatorHandle) -> TcpStream {
    let stream = TcpStream::connect(coordinator.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    stream
}

fn encode(request: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    write_request(&mut wire, request).expect("encode");
    wire
}

fn stop(shards: Vec<ServerHandle>, coordinator: CoordinatorHandle) {
    coordinator.shutdown();
    coordinator.wait();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn pipelined_counts_come_back_in_order_and_exact() {
    let expected = single_node_count();
    let (shards, coordinator) = cluster(Duration::ZERO);
    let mut stream = raw_connect(&coordinator);
    // 16 Counts with a Ping after every fourth: the Pings answer inline
    // on the loop while the Counts run on the pool, so in-order replies
    // prove the per-connection reassembly.
    let mut wire = Vec::new();
    for i in 0..16 {
        wire.extend_from_slice(&encode(&count_g()));
        if i % 4 == 3 {
            wire.extend_from_slice(&encode(&Request::Ping));
        }
    }
    stream.write_all(&wire).expect("write");
    for i in 0..16 {
        match read_response(&mut stream).expect("pipelined count") {
            Response::Count {
                triangles, cached, ..
            } => {
                assert_eq!(triangles, expected, "count {i}");
                assert!(cached, "count {i} is a full fan-out");
            }
            other => panic!("expected Count {i}, got {other:?}"),
        }
        if i % 4 == 3 {
            assert_eq!(read_response(&mut stream).expect("pong"), Response::Pong);
        }
    }
    stop(shards, coordinator);
}

#[test]
fn undecodable_frame_is_bad_request_and_the_connection_survives() {
    let (shards, coordinator) = cluster(Duration::ZERO);
    let mut stream = raw_connect(&coordinator);
    let mut wire = encode(&Request::Ping);
    write_frame(&mut wire, &[0xEE, 9, 9, 9]).expect("frame");
    wire.extend_from_slice(&encode(&count_g()));
    stream.write_all(&wire).expect("write");

    assert_eq!(read_response(&mut stream).expect("pong"), Response::Pong);
    match read_response(&mut stream).expect("second response") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert!(matches!(
        read_response(&mut stream).expect("count after the bad frame"),
        Response::Count { .. }
    ));
    // Still synchronized: the same connection keeps serving.
    stream.write_all(&encode(&Request::Ping)).expect("write");
    assert_eq!(read_response(&mut stream).expect("pong"), Response::Pong);
    stop(shards, coordinator);
}

#[test]
fn drain_under_load_answers_every_accepted_request_then_closes() {
    let (shards, coordinator) = cluster(Duration::ZERO);
    let mut stream = raw_connect(&coordinator);
    let mut wire = Vec::new();
    for _ in 0..8 {
        wire.extend_from_slice(&encode(&count_g()));
    }
    wire.extend_from_slice(&encode(&Request::Drain));
    stream.write_all(&wire).expect("write");

    for i in 0..8 {
        match read_response(&mut stream).expect("pipelined count") {
            Response::Count { triangles, .. } => assert!(triangles > 0, "count {i}"),
            other => panic!("expected Count {i}, got {other:?}"),
        }
    }
    assert_eq!(
        read_response(&mut stream).expect("drain ack"),
        Response::Draining
    );
    coordinator.wait();
    let mut probe = [0u8; 1];
    match std::io::Read::read(&mut stream, &mut probe) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("unexpected bytes after drain"),
    }
    assert!(
        TcpStream::connect_timeout(&stream.peer_addr().expect("addr"), Duration::from_secs(1))
            .is_err(),
        "a drained coordinator refuses new connections"
    );
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn stats_report_the_engine() {
    let (shards, coordinator) = cluster(Duration::ZERO);
    let mut held = Client::connect(coordinator.addr()).expect("connect");
    assert_eq!(held.call(&Request::Ping).expect("ping"), Response::Pong);
    let mut client = Client::connect(coordinator.addr()).expect("connect");
    let stats = match client.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected Stats reply: {other:?}"),
    };
    assert!(stats.event_threads >= 1);
    assert_eq!(stats.loop_stats.len(), stats.event_threads as usize);
    assert!(stats.conns_open >= 2, "{} open", stats.conns_open);
    assert!(
        stats.conns_accepted >= 3,
        "{} accepted",
        stats.conns_accepted
    );
    assert!(stats.queue_capacity >= 1);
    assert_eq!(stats.workers, 2, "the worker slot carries the fleet size");
    assert_eq!(stats.graphs, 1);
    stop(shards, coordinator);
}

fn stats_of(coordinator: &CoordinatorHandle) -> StatsReply {
    let mut client = Client::connect(coordinator.addr()).expect("connect");
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected Stats reply: {other:?}"),
    }
}

#[test]
fn stats_report_the_map_journal_replay_not_the_uptime() {
    // Without a data dir nothing is replayed, however long the
    // coordinator has been up.
    let bare = spawn_coordinator(ClusterConfig::default()).expect("spawn coordinator");
    std::thread::sleep(Duration::from_millis(50));
    let stats = stats_of(&bare);
    assert_eq!(stats.recovery_ms, 0, "uptime is not recovery time");
    assert_eq!(stats.journal_replays, 0);
    bare.shutdown();
    bare.wait();

    // A restart on a data dir replays every map record the first run
    // journaled: two shard joins and one placement at least.
    let dir = std::env::temp_dir().join(format!("lotus-coord-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = vec![shard_daemon(Duration::ZERO), shard_daemon(Duration::ZERO)];
    let first = spawn_coordinator(ClusterConfig {
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        data_dir: Some(dir.clone()),
        ..ClusterConfig::default()
    })
    .expect("spawn first coordinator");
    let mut client = Client::connect(first.addr()).expect("connect first");
    let loaded = client
        .call(&Request::LoadGraph {
            name: "g".into(),
            spec: SPEC.into(),
        })
        .expect("cluster load");
    assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");
    drop(client);
    stop(shards, first);
    let records = read_journal(dir.join(CLUSTER_JOURNAL))
        .expect("read map journal")
        .records
        .len() as u64;
    assert!(records >= 3, "{records} map records");

    let second = spawn_coordinator(ClusterConfig {
        data_dir: Some(dir.clone()),
        ..ClusterConfig::default()
    })
    .expect("spawn second coordinator");
    assert_eq!(stats_of(&second).journal_replays, records);
    second.shutdown();
    second.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_shard_links_closed_by_the_shard_are_redialed() {
    // Shards evict idle connections after 200 ms, the coordinator's
    // links included; the next fan-out must re-dial, not fail.
    let (shards, coordinator) = cluster(Duration::from_millis(200));
    let mut client = Client::connect(coordinator.addr()).expect("connect");
    let first = client.call(&count_g()).expect("first count");
    assert!(matches!(first, Response::Count { .. }), "{first:?}");
    std::thread::sleep(Duration::from_millis(600));
    let second = client.call(&count_g()).expect("second count");
    assert_eq!(triangles_of(&first), triangles_of(&second));
    stop(shards, coordinator);
}

fn triangles_of(response: &Response) -> u64 {
    match response {
        Response::Count { triangles, .. } => *triangles,
        other => panic!("expected Count, got {other:?}"),
    }
}
