//! Served `KClique` answers: k = 3 is the resident graph's triangle
//! count, k ≥ 4 enumerates the clique orientation built when the graph
//! was loaded, and both equal the library's answers.

use lotus_core::kclique::count_kcliques;
use lotus_gen::{ErdosRenyi, Rmat};
use lotus_serve::proto::{ErrorKind, Request, Response, NO_DEADLINE};
use lotus_serve::{spawn, Client, ServeConfig};

fn call(client: &mut Client, request: Request) -> Response {
    client.call(&request).expect("reply")
}

fn kclique(name: &str, k: u32, deadline_ms: u64) -> Request {
    Request::KClique {
        name: name.into(),
        k,
        deadline_ms,
    }
}

#[test]
fn served_kcliques_match_count_and_the_library() {
    let handle = spawn(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("daemon should start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let graphs = [
        ("rmat:8:8:11", Rmat::new(8, 8).generate(11)),
        ("er:300:3000:5", ErdosRenyi::new(300, 3000).generate(5)),
    ];
    for (spec, graph) in &graphs {
        let count = Request::Count {
            name: (*spec).into(),
            deadline_ms: NO_DEADLINE,
        };
        let Response::Count { triangles, .. } = call(&mut client, count) else {
            panic!("{spec}: Count failed");
        };
        assert!(triangles > 0, "{spec}");
        for (k, want) in [
            (3, triangles),
            (4, count_kcliques(graph, 4)),
            (5, count_kcliques(graph, 5)),
        ] {
            let reply = call(&mut client, kclique(spec, k, NO_DEADLINE));
            assert_eq!(
                reply,
                Response::KClique { k, cliques: want },
                "{spec} k {k}"
            );
        }
        match call(&mut client, kclique(spec, 3, 0)) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::DeadlineExpired),
            other => panic!("{spec}: expected DeadlineExpired, got {other:?}"),
        }
    }
    handle.shutdown();
    handle.wait();
}
