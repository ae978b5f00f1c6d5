//! Observability-layer integration: the LOTUS pipeline records spans,
//! work counters, and the degrade path when built with `--features
//! telemetry`, and records nothing at all without it.
//!
//! Global telemetry state is shared, so the feature-on checks run as one
//! sequential test body.

use lotus_core::count::LotusCounter;
#[cfg(feature = "telemetry")]
use lotus_core::count::{count_hnn_phase, count_hub_phase, count_nnn_phase};
#[cfg(feature = "telemetry")]
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::resilient::count_with_budget;
#[cfg(feature = "telemetry")]
use lotus_core::tiling::{make_tiles, Tile};
use lotus_core::{HubCount, LotusConfig};
use lotus_resilience::{CancelToken, MemoryBudget, RunGuard};
#[cfg(not(feature = "telemetry"))]
use lotus_telemetry::counters;
use lotus_telemetry::{span, Counter, SpanId};

fn cfg(hubs: u32) -> LotusConfig {
    LotusConfig::default().with_hub_count(HubCount::Fixed(hubs))
}

#[test]
#[cfg(feature = "telemetry")]
fn pipeline_records_spans_counters_and_degrade_path() {
    let g = lotus_gen::Rmat::new(10, 8).generate(42);

    // A full run populates every phase span and the kernel counters.
    lotus_telemetry::reset();
    let result = LotusCounter::new(cfg(64)).count(&g);
    assert!(result.total() > 0);
    let snap = lotus_telemetry::snapshot();
    for id in [SpanId::Preprocess, SpanId::HhhHhn, SpanId::Hnn, SpanId::Nnn] {
        assert_eq!(snap.spans.get(id).entries, 1, "span {id} entered once");
    }
    // Span wall time tracks the breakdown's own measurement.
    assert!(snap.spans.get(SpanId::Nnn).nanos > 0);
    assert!(snap.counters.get(Counter::Intersections) > 0);
    // Both non-hub phases probe bitmaps, and the graph is narrower than
    // the NNN window, so nothing merge-joins.
    assert!(snap.counters.get(Counter::BitmapProbes) > 0);
    assert_eq!(snap.counters.get(Counter::MergeSteps), 0);
    assert!(snap.counters.get(Counter::TileVisits) > 0);
    assert!(
        snap.counters.get(Counter::H2hProbes) >= snap.counters.get(Counter::H2hHits),
        "probes bound hits"
    );
    // Phase-1 hits are exactly the hub-pair triangles found.
    assert_eq!(
        snap.counters.get(Counter::H2hHits),
        result.stats.hhh + result.stats.hhn
    );
    assert_eq!(snap.degrade, None);

    // The degrade path is recorded and the fallback driver is spanned.
    lotus_telemetry::reset();
    let budget = MemoryBudget::from_bytes(16);
    let r = count_with_budget(&cfg(64), &g, &budget, &RunGuard::unlimited()).unwrap();
    assert!(r.degraded.is_some());
    let snap = lotus_telemetry::snapshot();
    assert_eq!(snap.counters.get(Counter::DegradedRuns), 1);
    assert_eq!(snap.spans.get(SpanId::Fallback).entries, 1);
    let degrade = span::last_degrade().expect("degrade recorded");
    assert!(degrade.contains("forward-hashed"), "{degrade}");

    // Spans survive cooperative cancellation: the preprocessing span is
    // still recorded even though the run was interrupted inside it.
    lotus_telemetry::reset();
    let token = CancelToken::new();
    token.cancel();
    let guard = RunGuard::unlimited().with_cancel(token);
    let err = LotusCounter::new(cfg(64)).count_guarded(&g, &guard);
    assert!(err.is_err());
    let snap = lotus_telemetry::snapshot();
    assert_eq!(snap.spans.get(SpanId::Preprocess).entries, 1);
    assert_eq!(snap.counters.get(Counter::GuardStops), 1);

    // Phase 1 records what the per-pair probe loop recorded, whichever
    // path each row takes: one tile visit per tile, one H2H probe per
    // hub pair the tiles cover, and one hit per connected pair. Tiles
    // split above a low threshold start in the middle of their lists.
    let lg = build_lotus_graph(&g, &cfg(64));
    let tiles = make_tiles(&lg.he, 8, 4);
    assert!(tiles.iter().any(|t| t.begin > 0));
    lotus_telemetry::reset();
    let (hhh, hhn) = count_hub_phase(&lg, &tiles);
    assert!(hhh > 0 && hhn > 0);
    let snap = lotus_telemetry::snapshot();
    assert_eq!(
        snap.counters.get(Counter::H2hProbes),
        tiles.iter().map(Tile::work).sum::<u64>()
    );
    assert_eq!(snap.counters.get(Counter::H2hHits), hhh + hhn);
    assert_eq!(snap.counters.get(Counter::TileVisits), tiles.len() as u64);

    // The HNN bitmap kernel records what the merge join recorded: one
    // intersection per non-hub edge (v, u) with a non-empty HE(v),
    // fruitless when it closes no triangle. It takes no merge step and
    // probes every HE(u) entry once.
    let (mut pairs, mut fruitless, mut probes, mut hnn) = (0u64, 0u64, 0u64, 0u64);
    for v in 0..lg.num_vertices() {
        let he_v = lg.hub_neighbors(v);
        if he_v.is_empty() {
            continue;
        }
        for &u in lg.nonhub_neighbors(v) {
            let he_u = lg.hub_neighbors(u);
            let common = he_u.iter().filter(|h| he_v.contains(h)).count() as u64;
            pairs += 1;
            fruitless += u64::from(common == 0);
            probes += he_u.len() as u64;
            hnn += common;
        }
    }
    assert!(hnn > 0 && probes > 0);
    lotus_telemetry::reset();
    assert_eq!(count_hnn_phase(&lg), hnn);
    let snap = lotus_telemetry::snapshot();
    assert_eq!(snap.counters.get(Counter::Intersections), pairs);
    assert_eq!(
        snap.counters.get(Counter::FruitlessIntersections),
        fruitless
    );
    assert_eq!(snap.counters.get(Counter::MergeSteps), 0);
    assert_eq!(snap.counters.get(Counter::BitmapProbes), probes);

    // So does the NNN window kernel: one intersection per non-hub edge
    // (v, u), fruitless when it closes no triangle, one bitmap probe per
    // NHE(u) entry and no merge step. The graph has fewer vertices than
    // the window has bits, so every vertex takes the bitmap path.
    let (mut pairs, mut fruitless, mut probes, mut nnn) = (0u64, 0u64, 0u64, 0u64);
    for v in 0..lg.num_vertices() {
        let nhe_v = lg.nonhub_neighbors(v);
        for &u in nhe_v {
            let nhe_u = lg.nonhub_neighbors(u);
            let common = nhe_u.iter().filter(|w| nhe_v.contains(w)).count() as u64;
            pairs += 1;
            fruitless += u64::from(common == 0);
            probes += nhe_u.len() as u64;
            nnn += common;
        }
    }
    assert!(nnn > 0 && fruitless > 0);
    lotus_telemetry::reset();
    assert_eq!(count_nnn_phase(&lg), nnn);
    let snap = lotus_telemetry::snapshot();
    assert_eq!(snap.counters.get(Counter::Intersections), pairs);
    assert_eq!(
        snap.counters.get(Counter::FruitlessIntersections),
        fruitless
    );
    assert_eq!(snap.counters.get(Counter::MergeSteps), 0);
    assert_eq!(snap.counters.get(Counter::BitmapProbes), probes);
    lotus_telemetry::reset();
}

#[test]
#[cfg(not(feature = "telemetry"))]
fn pipeline_records_nothing_without_the_feature() {
    let g = lotus_gen::Rmat::new(9, 8).generate(42);
    let result = LotusCounter::new(cfg(64)).count(&g);
    assert!(result.total() > 0);
    let budget = MemoryBudget::from_bytes(16);
    count_with_budget(&cfg(64), &g, &budget, &RunGuard::unlimited()).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let _ = LotusCounter::new(cfg(64)).count_guarded(&g, &RunGuard::unlimited().with_cancel(token));

    // Instrumentation compiled to no-ops: nothing was recorded.
    let snap = lotus_telemetry::snapshot();
    assert!(snap.counters.is_zero());
    assert!(SpanId::ALL
        .iter()
        .all(|&id| snap.spans.get(id).entries == 0));
    assert_eq!(span::last_degrade(), None);
    assert!(!lotus_telemetry::enabled());
    let _ = counters::get(Counter::Intersections);
}
