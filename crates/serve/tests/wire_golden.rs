//! Golden wire fixtures: the exact payload bytes of every LSRV request
//! and response variant, every `ErrorKind`, the `lotus query` JSON text
//! of every response, and one encoded record of each journal kind.
//!
//! Any codec change that alters a byte or a JSON character fails here,
//! so the protocol can be refactored freely as long as these hold. The
//! decoder robustness checks run over the same fixtures: every strict
//! prefix of a payload is an error (never a panic, never `Ok`), one
//! trailing byte is `Malformed`, and tag 200 is `UnknownTag`.

use std::path::PathBuf;

use lotus_serve::journal::{Journal, JournalRecord};
use lotus_serve::proto::{
    ErrorKind, LoopStat, ProtoError, Request, Response, StatsReply, NO_DEADLINE,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

/// Every request variant with its pinned payload.
fn request_fixtures() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Ping, "00"),
        (Request::Stats, "01"),
        (
            Request::Count {
                name: "g".into(),
                deadline_ms: NO_DEADLINE,
            },
            "02010067ffffffffffffffff",
        ),
        (
            Request::PerVertex {
                name: "graph-ü".into(),
                start: 5,
                end: 0x0102_0304,
                deadline_ms: 250,
            },
            "03080067726170682dc3bc0500000004030201fa00000000000000",
        ),
        (
            Request::KClique {
                name: "g".into(),
                k: 4,
                deadline_ms: 0,
            },
            "04010067040000000000000000000000",
        ),
        (
            Request::LoadGraph {
                name: "ci".into(),
                spec: "rmat:9:8:7".into(),
            },
            "05020063690a00726d61743a393a383a37",
        ),
        (Request::EvictGraph { name: "ci".into() }, "0602006369"),
        (Request::Drain, "07"),
        (
            Request::Batch(vec![
                Request::Ping,
                Request::Count {
                    name: "g".into(),
                    deadline_ms: 9,
                },
            ]),
            "08020001000000000c000000020100670900000000000000",
        ),
        (
            Request::ShardLoad {
                name: "ci".into(),
                spec: "rmat:9:8:7".into(),
                parts: 3,
                index: 2,
            },
            "09020063690a00726d61743a393a383a370300000002000000",
        ),
        (
            Request::ShardCount {
                name: "ci".into(),
                deadline_ms: 0x0102_0304_0506_0708,
            },
            "0a020063690807060504030201",
        ),
        (
            Request::ShardPerVertex {
                name: "ci".into(),
                start: 0,
                end: 128,
                deadline_ms: NO_DEADLINE,
            },
            "0b020063690000000080000000ffffffffffffffff",
        ),
        (
            Request::ShardJoin {
                addr: "127.0.0.1:9001".into(),
            },
            "0c0e003132372e302e302e313a39303031",
        ),
        (Request::ShardStat, "0d"),
    ]
}

fn stats(loop_stats: Vec<LoopStat>) -> StatsReply {
    StatsReply {
        graphs: 2,
        resident_bytes: 1024,
        budget_bytes: 1 << 20,
        requests_served: 10,
        overloaded: 1,
        deadline_expired: 2,
        cache_hits: 7,
        cache_misses: 3,
        panics: 0,
        workers: 4,
        queue_capacity: 64,
        snapshot_writes: 6,
        journal_appends: 8,
        journal_replays: 5,
        recovery_quarantined: 1,
        recovery_ms: 17,
        conns_accepted: 100,
        conns_open: 12,
        event_threads: 2,
        loop_stats,
    }
}

/// Every response variant (and every `ErrorKind`) with its pinned
/// payload and `to_json().pretty()` text.
fn response_fixtures() -> Vec<(Response, &'static str, &'static str)> {
    let mut fixtures = vec![
        (Response::Pong, "00", r#"{
  "pong": true
}
"#),
        (
            Response::Stats(stats(Vec::new())),
            "0102000000000400000000000000001000000000000a000000000000000100000000000000020000000000000007000000000000000300000000000000000000000000000004000000400000000600000000000000080000000000000005000000000000000100000000000000110000000000000064000000000000000c00000000000000020000000000",
            r#"{
  "graphs": 2,
  "resident_bytes": 1024,
  "budget_bytes": 1048576,
  "requests_served": 10,
  "overloaded": 1,
  "deadline_expired": 2,
  "cache_hits": 7,
  "cache_misses": 3,
  "panics": 0,
  "workers": 4,
  "queue_capacity": 64,
  "snapshot_writes": 6,
  "journal_appends": 8,
  "journal_replays": 5,
  "recovery_quarantined": 1,
  "recovery_ms": 17,
  "conns_accepted": 100,
  "conns_open": 12,
  "event_threads": 2,
  "loop_stats": []
}
"#,
        ),
        (
            Response::Stats(stats(vec![
                LoopStat {
                    readiness_events: 40,
                    loop_wakeups: 19,
                },
                LoopStat {
                    readiness_events: 60,
                    loop_wakeups: 23,
                },
            ])),
            "0102000000000400000000000000001000000000000a000000000000000100000000000000020000000000000007000000000000000300000000000000000000000000000004000000400000000600000000000000080000000000000005000000000000000100000000000000110000000000000064000000000000000c00000000000000020000000200280000000000000013000000000000003c000000000000001700000000000000",
            r#"{
  "graphs": 2,
  "resident_bytes": 1024,
  "budget_bytes": 1048576,
  "requests_served": 10,
  "overloaded": 1,
  "deadline_expired": 2,
  "cache_hits": 7,
  "cache_misses": 3,
  "panics": 0,
  "workers": 4,
  "queue_capacity": 64,
  "snapshot_writes": 6,
  "journal_appends": 8,
  "journal_replays": 5,
  "recovery_quarantined": 1,
  "recovery_ms": 17,
  "conns_accepted": 100,
  "conns_open": 12,
  "event_threads": 2,
  "loop_stats": [
    {
      "readiness_events": 40,
      "loop_wakeups": 19
    },
    {
      "readiness_events": 60,
      "loop_wakeups": 23
    }
  ]
}
"#,
        ),
        (
            Response::Count {
                triangles: 123_456,
                cached: true,
                wall_micros: 42,
            },
            "0240e2010000000000012a00000000000000",
            r#"{
  "triangles": 123456,
  "cached": true,
  "wall_micros": 42
}
"#,
        ),
        (
            Response::PerVertex {
                start: 3,
                counts: vec![0, 5, 17, 1 << 40],
            },
            "0303000000040000000000000000000000050000000000000011000000000000000000000000010000",
            r#"{
  "start": 3,
  "counts": [
    0,
    5,
    17,
    1099511627776
  ]
}
"#,
        ),
        (
            Response::KClique { k: 5, cliques: 99 },
            "04050000006300000000000000",
            r#"{
  "k": 5,
  "cliques": 99
}
"#,
        ),
        (
            Response::Loaded {
                vertices: 512,
                edges: 4096,
                bytes: 123_456,
                evicted: 1,
            },
            "0500020000001000000000000040e201000000000001000000",
            r#"{
  "loaded": true,
  "vertices": 512,
  "edges": 4096,
  "bytes": 123456,
  "evicted": 1
}
"#,
        ),
        (
            Response::Evicted { existed: true },
            "0601",
            r#"{
  "evicted": true
}
"#,
        ),
        (
            Response::Evicted { existed: false },
            "0600",
            r#"{
  "evicted": false
}
"#,
        ),
        (Response::Draining, "07", r#"{
  "draining": true
}
"#),
        (
            Response::ShardJoined { shards: 3 },
            "0a03000000",
            r#"{
  "joined": true,
  "shards": 3
}
"#,
        ),
        (
            Response::ShardStat {
                graphs: 1,
                owned_vertices: 171,
                entries: 2048,
                ghost_entries: 301,
            },
            "0b01000000ab0000000000000000080000000000002d01000000000000",
            r#"{
  "shard_graphs": 1,
  "owned_vertices": 171,
  "entries": 2048,
  "ghost_entries": 301
}
"#,
        ),
        (
            Response::Batch(vec![
                Response::Pong,
                Response::Count {
                    triangles: 7,
                    cached: false,
                    wall_micros: 3,
                },
                Response::error(ErrorKind::NotFound, "x"),
            ]),
            "080300010000000012000000020700000000000000000300000000000000050000000902010078",
            r#"{
  "batch": [
    {
      "pong": true
    },
    {
      "triangles": 7,
      "cached": false,
      "wall_micros": 3
    },
    {
      "error": "not_found",
      "message": "x"
    }
  ]
}
"#,
        ),
    ];
    let kinds = [
        (
            ErrorKind::Protocol,
            "09000300776879",
            r#"{
  "error": "protocol",
  "message": "why"
}
"#,
        ),
        (
            ErrorKind::BadRequest,
            "09010300776879",
            r#"{
  "error": "bad_request",
  "message": "why"
}
"#,
        ),
        (
            ErrorKind::NotFound,
            "09020300776879",
            r#"{
  "error": "not_found",
  "message": "why"
}
"#,
        ),
        (
            ErrorKind::Overloaded,
            "09030300776879",
            r#"{
  "error": "overloaded",
  "message": "why"
}
"#,
        ),
        (
            ErrorKind::DeadlineExpired,
            "09040300776879",
            r#"{
  "error": "deadline_expired",
  "message": "why"
}
"#,
        ),
        (
            ErrorKind::Cancelled,
            "09050300776879",
            r#"{
  "error": "cancelled",
  "message": "why"
}
"#,
        ),
        (
            ErrorKind::WorkerPanic,
            "09060300776879",
            r#"{
  "error": "worker_panic",
  "message": "why"
}
"#,
        ),
        (
            ErrorKind::ShuttingDown,
            "09070300776879",
            r#"{
  "error": "shutting_down",
  "message": "why"
}
"#,
        ),
        (
            ErrorKind::DurabilityFailed,
            "09080300776879",
            r#"{
  "error": "durability_failed",
  "message": "why"
}
"#,
        ),
        (
            ErrorKind::ShardUnavailable,
            "09090300776879",
            r#"{
  "error": "shard_unavailable",
  "message": "why"
}
"#,
        ),
    ];
    for (kind, payload, json) in kinds {
        fixtures.push((Response::error(kind, "why"), payload, json));
    }
    fixtures
}

/// One record of each journal kind with its pinned frame (length,
/// payload and CRC, after the 8-byte file header).
fn journal_fixtures() -> Vec<(JournalRecord, &'static str)> {
    vec![
        (
            JournalRecord::Register {
                name: "a".into(),
                spec: "rmat:6:4:1".into(),
            },
            "140000000101000000610a000000726d61743a363a343a31a0512e36",
        ),
        (
            JournalRecord::Evict { name: "a".into() },
            "0600000002010000006144c189a4",
        ),
        (
            JournalRecord::Checkpoint {
                entries: vec![
                    ("b".into(), "er:100:400:1".into()),
                    ("c".into(), "rmat:6:4:2".into()),
                ],
            },
            "2d000000030200000001000000620c00000065723a3130303a3430303a3101000000630a000000726d61743a363a343a324567024f",
        ),
    ]
}

#[test]
fn request_payloads_are_pinned() {
    for (req, payload) in request_fixtures() {
        assert_eq!(hex(&req.encode().unwrap()), payload, "{req:?}");
        assert_eq!(Request::decode(&unhex(payload)).unwrap(), req);
    }
}

#[test]
fn response_payloads_and_json_are_pinned() {
    for (resp, payload, json) in response_fixtures() {
        assert_eq!(hex(&resp.encode().unwrap()), payload, "{resp:?}");
        assert_eq!(Response::decode(&unhex(payload)).unwrap(), resp);
        assert_eq!(resp.to_json().pretty(), json, "{resp:?}");
    }
}

#[test]
fn error_kind_names_are_pinned() {
    let names: Vec<&str> = response_fixtures()
        .iter()
        .filter_map(|(resp, _, _)| match resp {
            Response::Error { kind, .. } => Some(kind.name()),
            _ => None,
        })
        .collect();
    assert_eq!(
        names,
        [
            "protocol",
            "bad_request",
            "not_found",
            "overloaded",
            "deadline_expired",
            "cancelled",
            "worker_panic",
            "shutting_down",
            "durability_failed",
            "shard_unavailable",
        ]
    );
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lotus-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn journal_records_are_pinned() {
    let dir = tmp_dir("journal");
    for (i, (record, frame)) in journal_fixtures().into_iter().enumerate() {
        let path = dir.join(format!("j{i}.lotj"));
        let mut journal = Journal::open(&path).unwrap();
        journal.append(&record).unwrap();
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(hex(&bytes[..8]), "4c4f544a01000000", "journal header");
        assert_eq!(hex(&bytes[8..]), frame, "{record:?}");
        let readout = lotus_serve::journal::read_journal(&path).unwrap();
        assert_eq!(readout.damage, None);
        assert_eq!(readout.records, vec![record]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every strict prefix of a valid payload is an error, one trailing
/// byte is `Malformed`, and the same payload under tag 200 is
/// `UnknownTag`.
fn check_decoder<T: std::fmt::Debug>(payload: &[u8], decode: fn(&[u8]) -> Result<T, ProtoError>) {
    for cut in 0..payload.len() {
        let outcome = decode(&payload[..cut]);
        assert!(
            outcome.is_err(),
            "prefix of {cut}/{} bytes of {} decoded to {outcome:?}",
            payload.len(),
            hex(payload)
        );
    }
    let mut long = payload.to_vec();
    long.push(0);
    let outcome = decode(&long);
    assert!(
        matches!(outcome, Err(ProtoError::Malformed(_))),
        "trailing byte after {} gave {outcome:?}",
        hex(payload)
    );
    let mut retagged = payload.to_vec();
    retagged[0] = 200;
    let outcome = decode(&retagged);
    assert!(
        matches!(outcome, Err(ProtoError::UnknownTag(200))),
        "tag 200 on {} gave {outcome:?}",
        hex(payload)
    );
}

#[test]
fn decoders_reject_prefixes_trailing_bytes_and_unknown_tags() {
    for (_, payload) in request_fixtures() {
        check_decoder(&unhex(payload), Request::decode);
    }
    for (_, payload, _) in response_fixtures() {
        check_decoder(&unhex(payload), Response::decode);
    }
}
