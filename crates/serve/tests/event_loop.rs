//! Event-loop protocol suite: the readiness daemon's state machines
//! under adversarial delivery — byte-at-a-time frames, pipelined
//! batches with damage mid-stream, slow-loris idlers, EOF mid-frame,
//! and drain under load. Every test asserts the daemon stays healthy
//! (or drains completely) afterwards.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use lotus_resilience::MemoryBudget;
use lotus_serve::proto::{
    read_response, write_frame, write_request, ErrorKind, Request, Response, NO_DEADLINE,
};
use lotus_serve::{spawn, Client, ServeConfig, ServerHandle};

fn base_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 32,
        budget: MemoryBudget::from_bytes(64 << 20),
        event_threads: 2,
        ..ServeConfig::default()
    }
}

fn start_daemon(config: ServeConfig) -> ServerHandle {
    spawn(config).expect("daemon should start")
}

fn raw_connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    stream
}

/// The daemon is alive: a fresh connection answers a Ping.
fn assert_daemon_healthy(handle: &ServerHandle) {
    let mut client = Client::connect(handle.addr()).expect("fresh connection");
    assert_eq!(client.call(&Request::Ping).expect("ping"), Response::Pong);
}

fn encode(request: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    write_request(&mut wire, request).expect("encode");
    wire
}

#[test]
fn byte_at_a_time_delivery_still_parses() {
    let handle = start_daemon(base_config());
    let mut stream = raw_connect(&handle);
    // Trickle a whole Ping frame one byte per write, with flushes, so
    // the daemon sees every possible partial-frame boundary.
    for byte in encode(&Request::Ping) {
        stream.write_all(&[byte]).expect("write");
        stream.flush().expect("flush");
    }
    assert_eq!(read_response(&mut stream).expect("pong"), Response::Pong);
    // Two interleaved trickled frames on the same connection.
    let wire = encode(&Request::Stats);
    let (a, b) = wire.split_at(wire.len() / 2);
    stream.write_all(a).expect("write");
    stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(b).expect("write");
    assert!(matches!(
        read_response(&mut stream).expect("stats"),
        Response::Stats(_)
    ));
    assert_daemon_healthy(&handle);
    handle.shutdown();
    handle.wait();
}

#[test]
fn pipelined_batch_with_damage_mid_stream_answers_in_order() {
    let handle = start_daemon(base_config());
    let mut admin = Client::connect(handle.addr()).expect("connect");
    admin
        .call(&Request::LoadGraph {
            name: "g".into(),
            spec: "rmat:8:8:5".into(),
        })
        .expect("load");

    // One write carrying three frames: a valid Count, a CRC-valid frame
    // whose payload is garbage (unknown tag), and a valid Ping. The
    // contract: three responses, in order, and the connection survives
    // because the framing layer never lost sync.
    let mut stream = raw_connect(&handle);
    let mut wire = encode(&Request::Count {
        name: "g".into(),
        deadline_ms: NO_DEADLINE,
    });
    write_frame(&mut wire, &[0xEE, 9, 9, 9]).expect("frame");
    wire.extend_from_slice(&encode(&Request::Ping));
    stream.write_all(&wire).expect("write");
    stream.flush().expect("flush");

    match read_response(&mut stream).expect("first response") {
        Response::Count { triangles, .. } => assert!(triangles > 0),
        other => panic!("expected Count first, got {other:?}"),
    }
    match read_response(&mut stream).expect("second response") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("expected BadRequest second, got {other:?}"),
    }
    assert_eq!(
        read_response(&mut stream).expect("third response"),
        Response::Pong
    );

    // Still synchronized: the same connection keeps serving.
    stream.write_all(&encode(&Request::Ping)).expect("write");
    assert_eq!(read_response(&mut stream).expect("pong"), Response::Pong);
    assert_daemon_healthy(&handle);
    handle.shutdown();
    handle.wait();
}

#[test]
fn deep_pipeline_of_counts_comes_back_in_order() {
    let handle = start_daemon(base_config());
    let mut admin = Client::connect(handle.addr()).expect("connect");
    admin
        .call(&Request::LoadGraph {
            name: "g".into(),
            spec: "rmat:8:8:5".into(),
        })
        .expect("load");
    let mut stream = raw_connect(&handle);
    // 16 pipelined PerVertex requests with distinct starts; the starts
    // echoed back prove per-connection response ordering.
    let mut wire = Vec::new();
    for i in 0..16u32 {
        wire.extend_from_slice(&encode(&Request::PerVertex {
            name: "g".into(),
            start: i,
            end: i + 1,
            deadline_ms: NO_DEADLINE,
        }));
    }
    stream.write_all(&wire).expect("write");
    for i in 0..16u32 {
        match read_response(&mut stream).expect("pipelined response") {
            Response::PerVertex { start, .. } => assert_eq!(start, i),
            other => panic!("expected PerVertex {i}, got {other:?}"),
        }
    }
    handle.shutdown();
    handle.wait();
}

#[test]
fn slow_loris_connections_are_evicted_active_ones_are_not() {
    let config = ServeConfig {
        idle_timeout: Duration::from_millis(200),
        ..base_config()
    };
    let handle = start_daemon(config);

    // The loris: a partial frame, then silence.
    let mut loris = raw_connect(&handle);
    loris.write_all(b"LS").expect("write");
    loris.flush().expect("flush");

    // An active client keeps pinging through the loris's timeout window
    // — activity must keep *it* alive while the idler is evicted.
    let mut active = Client::connect(handle.addr()).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut evicted = false;
    while Instant::now() < deadline {
        assert_eq!(active.call(&Request::Ping).expect("ping"), Response::Pong);
        // Probing the loris socket: eviction surfaces as EOF or reset;
        // a read timeout means it is (wrongly) still open.
        let mut probe = [0u8; 1];
        match std::io::Read::read(&mut loris, &mut probe) {
            Ok(0) => {
                evicted = true;
                break;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                evicted = true;
                break;
            }
            Ok(_) => panic!("loris got unsolicited bytes"),
        }
    }
    assert!(evicted, "idle partial-frame connection was never evicted");
    // The active connection survived the whole window.
    assert_eq!(active.call(&Request::Ping).expect("ping"), Response::Pong);
    handle.shutdown();
    handle.wait();
}

#[test]
fn eof_and_aborts_mid_frame_leave_the_daemon_healthy() {
    let handle = start_daemon(base_config());
    // Clean EOF mid-frame.
    {
        let mut stream = raw_connect(&handle);
        stream.write_all(b"LSRV\x01\x00\x00\x00").expect("write");
    }
    // Connect and say nothing at all.
    {
        let _silent = raw_connect(&handle);
    }
    // EOF exactly between the header and the declared payload.
    {
        let mut stream = raw_connect(&handle);
        let wire = encode(&Request::Ping);
        stream.write_all(&wire[..12]).expect("write");
    }
    assert_daemon_healthy(&handle);
    handle.shutdown();
    handle.wait();
}

#[test]
fn drain_under_load_answers_every_accepted_request_in_order() {
    let handle = start_daemon(base_config());
    let mut admin = Client::connect(handle.addr()).expect("connect");
    admin
        .call(&Request::LoadGraph {
            name: "g".into(),
            spec: "rmat:8:8:5".into(),
        })
        .expect("load");

    // One write: 8 Counts then a Drain, all pipelined. The daemon must
    // answer all nine in order — work accepted before the drain is
    // flushed, not dropped — then close.
    let mut stream = raw_connect(&handle);
    let mut wire = Vec::new();
    for _ in 0..8 {
        wire.extend_from_slice(&encode(&Request::Count {
            name: "g".into(),
            deadline_ms: NO_DEADLINE,
        }));
    }
    wire.extend_from_slice(&encode(&Request::Drain));
    stream.write_all(&wire).expect("write");
    stream.flush().expect("flush");

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
    // The daemon drains fully: loops flush, close, and the process's
    // serving threads exit.
    handle.wait();
    // And the socket is actually closed from the daemon side.
    let mut probe = [0u8; 1];
    match std::io::Read::read(&mut stream, &mut probe) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("unexpected bytes after drain"),
    }
}

#[test]
fn stats_report_event_loop_shape() {
    let config = ServeConfig {
        event_threads: 3,
        ..base_config()
    };
    let handle = start_daemon(config);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stats = match client.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected Stats reply: {other:?}"),
    };
    assert_eq!(stats.event_threads, 3);
    assert!(stats.conns_accepted >= 1);
    assert!(stats.conns_open >= 1);
    handle.shutdown();
    handle.wait();
}

#[test]
fn a_stalled_reader_blocks_a_write_and_the_table_counts_it() {
    // A queue deep enough that no pipelined request is refused.
    let handle = start_daemon(ServeConfig {
        queue_capacity: 256,
        ..base_config()
    });
    // 256 replies of 8,192 counts: 16 MiB, more than the loopback socket
    // buffers hold for a client that does not read.
    let request = encode(&Request::PerVertex {
        name: "rmat:13:8:5".into(),
        start: 0,
        end: 0,
        deadline_ms: NO_DEADLINE,
    });
    let mut stream = raw_connect(&handle);
    stream.write_all(&request.repeat(256)).expect("write");
    let (table, waited) = (handle.state().stats(), Instant::now());
    while table.partial_writes() == 0 {
        assert!(waited.elapsed() < Duration::from_secs(60), "never blocked");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The blocked writes resume: every reply arrives whole.
    for i in 0..256 {
        match read_response(&mut stream).expect("reply") {
            Response::PerVertex { counts, .. } => assert_eq!(counts.len(), 1 << 13, "{i}"),
            other => panic!("expected PerVertex {i}, got {other:?}"),
        }
    }
    assert_daemon_healthy(&handle);
}
