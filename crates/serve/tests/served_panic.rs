//! A served `Count` whose counting phase panics answers `WorkerPanic`
//! and counts the panic once. Requires `--features fault-injection`,
//! which arms core's phase fault points.

#![cfg(feature = "fault-injection")]

use lotus_resilience::fault::{arm, reset, FaultKind};
use lotus_serve::proto::{ErrorKind, Request, Response, NO_DEADLINE};
use lotus_serve::{spawn, Client, ServeConfig};

fn panics(client: &mut Client) -> u64 {
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats.panics,
        other => panic!("unexpected Stats reply: {other:?}"),
    }
}

#[test]
fn a_panicking_phase_answers_worker_panic_and_counts_once() {
    let handle = spawn(ServeConfig::default()).expect("spawn daemon");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let count = Request::Count {
        name: "rmat:7:8:1".into(),
        deadline_ms: NO_DEADLINE,
    };
    // Build the graph unarmed, so the armed request only counts.
    let warm = client.call(&count).expect("unarmed count");
    assert!(matches!(warm, Response::Count { .. }), "{warm:?}");
    let before = panics(&mut client);

    arm("core.phase.nnn", FaultKind::Panic, 1);
    let reply = client.call(&count).expect("armed count");
    reset();
    match reply {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::WorkerPanic, "{message}");
            assert!(message.contains("Nnn"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert_eq!(panics(&mut client), before + 1);
    let after = client.call(&count).expect("count after the panic");
    assert!(matches!(after, Response::Count { .. }), "{after:?}");
}
