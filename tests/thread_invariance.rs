//! Counts must not depend on how many threads share the work: the
//! per-type split (not only the total) is identical on 1, 2 and 4
//! threads, for the plain, guarded and fused-phase paths.

use lotus::core::preprocess::build_lotus_graph;
use lotus::core::stats::LotusStats;
use lotus::gen::erdos_renyi::ErdosRenyi;
use lotus::gen::rmat::Rmat;
use lotus::prelude::*;
use lotus_resilience::RunGuard;
use rayon::ThreadPoolBuilder;
use std::sync::{Mutex, PoisonError};

/// The thread limit `install` sets is process-wide: tests in this binary
/// take turns so each runs on the thread count it asks for.
static LIMIT: Mutex<()> = Mutex::new(());

/// Plain and guarded per-type counts of `graph` on `threads` threads.
fn stats_on(graph: &UndirectedCsr, config: LotusConfig, threads: usize) -> [LotusStats; 2] {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool builder never fails");
    pool.install(|| {
        let counter = LotusCounter::new(config);
        let plain = counter.count(graph).stats;
        let lg = build_lotus_graph(graph, &config);
        let guarded = counter
            .count_prepared_guarded(&lg, &RunGuard::unlimited())
            .expect("an unlimited guard never stops a count")
            .stats;
        [plain, guarded]
    })
}

fn assert_thread_invariant(name: &str, graph: &UndirectedCsr, config: LotusConfig) {
    let _turn = LIMIT.lock().unwrap_or_else(PoisonError::into_inner);
    let [want, guarded] = stats_on(graph, config, 1);
    assert_eq!(guarded, want, "{name}: guarded count on 1 thread");
    assert_eq!(want.total(), forward_count(graph), "{name}: total");
    for threads in [2, 4] {
        let [plain, guarded] = stats_on(graph, config, threads);
        assert_eq!(plain, want, "{name}: plain count on {threads} threads");
        assert_eq!(guarded, want, "{name}: guarded count on {threads} threads");
    }
}

// Both graphs have well over `2 × 1024` vertices, so every counting and
// preprocessing loop is cut into several pool chunks on 2 and 4 threads.

#[test]
fn rmat_counts_are_thread_invariant() {
    let graph = Rmat::new(13, 8).generate(7);
    assert_thread_invariant("rmat", &graph, LotusConfig::default());
    assert_thread_invariant(
        "rmat fused",
        &graph,
        LotusConfig::default().with_fused_phases(true),
    );
}

#[test]
fn erdos_renyi_counts_are_thread_invariant() {
    let graph = ErdosRenyi::new(1 << 13, 1 << 16).generate(11);
    assert_thread_invariant("erdos-renyi", &graph, LotusConfig::default());
    assert_thread_invariant(
        "erdos-renyi fused",
        &graph,
        LotusConfig::default().with_fused_phases(true),
    );
}
