//! Randomized property tests for the LOTUS core data structures
//! (deterministic seeded cases; failures name the seed).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lotus_algos::intersect::count_merge;
use lotus_core::blocking::count_hnn_blocked;
use lotus_core::config::{HubCount, LotusConfig};
use lotus_core::count::{count_hnn_phase, count_nnn_phase, LotusCounter};
use lotus_core::h2h::{pair_bit_index, TriBitArray, TriBitArrayBuilder};
use lotus_core::kclique::count_kcliques;
use lotus_core::per_vertex::count_per_vertex;
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::LotusGraph;
use lotus_graph::{EdgeList, UndirectedCsr};
use lotus_resilience::RunGuard;

const CASES: u64 = 64;

fn raw_edges(rng: &mut SmallRng, max_v: u32, max_e: usize) -> Vec<(u32, u32)> {
    let count = rng.gen_range(0..max_e);
    (0..count)
        .map(|_| (rng.gen_range(0..max_v), rng.gen_range(0..max_v)))
        .collect()
}

fn graph_of(pairs: Vec<(u32, u32)>, n: u32) -> UndirectedCsr {
    let mut el = EdgeList::from_pairs_with_vertices(pairs, n);
    el.canonicalize();
    UndirectedCsr::from_canonical_edges(&el)
}

/// The triangular pair index is a bijection onto `0..n(n-1)/2`.
#[test]
fn pair_index_bijective() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(2..80u32);
        let mut seen = std::collections::HashSet::new();
        for h1 in 1..n {
            for h2 in 0..h1 {
                let idx = pair_bit_index(h1, h2);
                assert!(idx < TriBitArray::bit_len(n), "n {n}");
                assert!(seen.insert(idx), "n {n} pair ({h1}, {h2})");
            }
        }
    }
}

/// Concurrent builder and sequential array agree bit-for-bit.
#[test]
fn builder_matches_sequential() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs = raw_edges(&mut rng, 32, 120);
        let mut seq = TriBitArray::new(32);
        let par = TriBitArrayBuilder::new(32);
        for (a, b) in pairs {
            if a != b {
                seq.set(a, b);
                par.set(a, b);
            }
        }
        let par = par.freeze();
        assert_eq!(par.bits_set(), seq.bits_set(), "seed {seed}");
        for h1 in 1..32u32 {
            for h2 in 0..h1 {
                assert_eq!(
                    par.is_set(h1, h2),
                    seq.is_set(h1, h2),
                    "seed {seed} ({h1}, {h2})"
                );
            }
        }
    }
}

/// Per-vertex LOTUS counts match the Forward-based per-vertex counts for
/// any hub count, and sum to 3T.
#[test]
fn per_vertex_matches_baseline() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = graph_of(raw_edges(&mut rng, 40, 160), 40);
        let hubs = rng.gen_range(0..40u32);
        let cfg = LotusConfig::default().with_hub_count(HubCount::Fixed(hubs));
        let lg = build_lotus_graph(&g, &cfg);
        let got = count_per_vertex(&lg);
        let want = lotus_algos::forward::per_vertex_counts(&g);
        assert_eq!(got, want, "seed {seed} hubs {hubs}");
        let total = LotusCounter::new(cfg).count(&g).total();
        assert_eq!(got.iter().sum::<u64>(), 3 * total, "seed {seed}");
    }
}

/// The paper's HNN phase: merge-join HE(v) with HE(u) over every
/// non-hub edge `(v, u)`. The reference the bitmap kernel must match.
fn merge_hnn(lg: &LotusGraph) -> u64 {
    (0..lg.num_vertices())
        .flat_map(|v| {
            let he_v = lg.hub_neighbors(v);
            lg.nonhub_neighbors(v)
                .iter()
                .map(move |&u| count_merge(he_v, lg.hub_neighbors(u)))
        })
        .sum()
}

/// Every HNN path (plain, guarded, fused, blocked in `2^block_bits`
/// vertex blocks, per-vertex) agrees with the merge reference on `g`
/// with `hubs` hubs.
fn assert_hnn_paths_agree(g: &UndirectedCsr, hubs: u32, block_bits: &[u32], what: &str) {
    let cfg = LotusConfig::default().with_hub_count(HubCount::Fixed(hubs));
    let lg = build_lotus_graph(g, &cfg);
    let want = merge_hnn(&lg);
    assert_eq!(count_hnn_phase(&lg), want, "{what} hubs {hubs}: plain");
    let guarded = LotusCounter::new(cfg)
        .count_prepared_guarded(&lg, &RunGuard::unlimited())
        .expect("an unlimited guard never stops a count");
    assert_eq!(guarded.stats.hnn, want, "{what} hubs {hubs}: guarded");
    let fused = LotusCounter::new(cfg.with_fused_phases(true)).count_prepared(&lg);
    assert_eq!(fused.stats.hnn, want, "{what} hubs {hubs}: fused");
    for &bits in block_bits {
        assert_eq!(
            count_hnn_blocked(&lg, bits),
            want,
            "{what} hubs {hubs}: blocked, {bits} bits"
        );
    }
    assert_eq!(
        count_per_vertex(&lg),
        lotus_algos::forward::per_vertex_counts(g),
        "{what} hubs {hubs}: per vertex"
    );
}

/// Blocked HNN equals the merge reference and the plain phase for
/// arbitrary block sizes.
#[test]
fn blocked_hnn_matches() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = graph_of(raw_edges(&mut rng, 48, 160), 48);
        let hubs = rng.gen_range(0..48u32);
        let bits = rng.gen_range(1..8u32);
        let cfg = LotusConfig::default().with_hub_count(HubCount::Fixed(hubs));
        let lg = build_lotus_graph(&g, &cfg);
        let want = merge_hnn(&lg);
        assert_eq!(
            count_hnn_blocked(&lg, bits),
            want,
            "seed {seed} hubs {hubs} bits {bits}"
        );
        assert_eq!(count_hnn_phase(&lg), want, "seed {seed} hubs {hubs}");
    }
}

/// The hub bitmap's word boundaries (hub IDs 63, 64 and 127) and the
/// degenerate hub counts 0 and 1 on every HNN path.
#[test]
fn hnn_paths_match_merge_reference() {
    for seed in 0..4u64 {
        let rmat = lotus_gen::Rmat::new(9, 8).generate(seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let random = graph_of(raw_edges(&mut rng, 300, 3000), 300);
        for hubs in [0u32, 1, 63, 64, 65, 128] {
            let bits = [1, 6, 31];
            assert_hnn_paths_agree(&rmat, hubs, &bits, &format!("rmat seed {seed}"));
            assert_hnn_paths_agree(&random, hubs, &bits, &format!("random seed {seed}"));
        }
    }
}

/// With the paper's 2¹⁶ hubs the bitmap's last bit, hub 65535, closes
/// HNN triangles. The graph is the circulant `C_n(1, 2)`: every vertex
/// has degree 4, so the relabeling keeps IDs, and hub 65535 forms the
/// HNN triangle `(65535, 65536, 65537)`.
#[test]
fn hnn_uses_the_last_hub_bit() {
    let n = (1u32 << 16) + 64;
    let pairs = (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + 2) % n)]);
    let g = graph_of(pairs.collect(), n);
    let lg = build_lotus_graph(
        &g,
        &LotusConfig::default().with_hub_count(HubCount::Fixed(1 << 16)),
    );
    assert_eq!(lg.hub_count, 1 << 16);
    let last = u16::MAX;
    let closes_hnn = (0..n).any(|v| {
        lg.hub_neighbors(v).contains(&last)
            && lg
                .nonhub_neighbors(v)
                .iter()
                .any(|&u| lg.hub_neighbors(u).contains(&last))
    });
    assert!(closes_hnn, "hub {last} closes no HNN triangle");
    // Blocks of 2^14 vertices: one boundary falls right after hub 65535.
    assert_hnn_paths_agree(&g, 1 << 16, &[14, 31], "circulant");
}

/// The paper's NNN phase: merge-join NHE(v) with NHE(u) over every
/// non-hub edge `(v, u)`. The reference the NNN window kernel must match.
fn merge_nnn(lg: &LotusGraph) -> u64 {
    (0..lg.num_vertices())
        .flat_map(|v| {
            let nhe_v = lg.nonhub_neighbors(v);
            nhe_v
                .iter()
                .map(move |&u| count_merge(nhe_v, lg.nonhub_neighbors(u)))
        })
        .sum()
}

/// Every NNN path (plain, guarded, fused, per-vertex) agrees with the
/// merge reference on `g` with `hubs` hubs. (The window is 2¹⁸ bits, so
/// these graphs take the bitmap path on every vertex; the lotus-core unit
/// tests repeat the check with a one-word window, which also drives the
/// merge fallback.)
fn assert_nnn_paths_agree(g: &UndirectedCsr, hubs: u32, what: &str) {
    let cfg = LotusConfig::default().with_hub_count(HubCount::Fixed(hubs));
    let lg = build_lotus_graph(g, &cfg);
    let want = merge_nnn(&lg);
    assert_eq!(count_nnn_phase(&lg), want, "{what} hubs {hubs}: plain");
    assert_eq!(
        LotusCounter::new(cfg).count_prepared(&lg).stats.nnn,
        want,
        "{what} hubs {hubs}: count"
    );
    let guarded = LotusCounter::new(cfg)
        .count_prepared_guarded(&lg, &RunGuard::unlimited())
        .expect("an unlimited guard never stops a count");
    assert_eq!(guarded.stats.nnn, want, "{what} hubs {hubs}: guarded");
    let fused = LotusCounter::new(cfg.with_fused_phases(true)).count_prepared(&lg);
    assert_eq!(fused.stats.nnn, want, "{what} hubs {hubs}: fused");
    assert_eq!(
        count_per_vertex(&lg),
        lotus_algos::forward::per_vertex_counts(g),
        "{what} hubs {hubs}: per vertex"
    );
}

/// The NNN window kernel matches the merge join on skewed and flat
/// graphs, with no hubs, one, and the window's word boundaries shifted by
/// 64 and 128 hubs.
#[test]
fn nnn_paths_match_merge_reference() {
    for seed in 0..4u64 {
        let rmat = lotus_gen::Rmat::new(9, 8).generate(seed);
        let er = lotus_gen::ErdosRenyi::new(600, 6000).generate(seed);
        for hubs in [0u32, 1, 64, 128] {
            assert_nnn_paths_agree(&rmat, hubs, &format!("rmat seed {seed}"));
            assert_nnn_paths_agree(&er, hubs, &format!("er seed {seed}"));
        }
    }
}

/// 3-cliques equal triangles; a 4-clique implies at least 4 triangles.
#[test]
fn kclique_consistency() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = graph_of(raw_edges(&mut rng, 30, 140), 30);
        let t = lotus_algos::forward::forward_count(&g);
        assert_eq!(count_kcliques(&g, 3), t, "seed {seed}");
        let c4 = count_kcliques(&g, 4);
        if c4 > 0 {
            assert!(t >= 4, "seed {seed}");
        }
    }
}

/// Hub/non-hub triangle split is consistent: zero hubs puts all triangles
/// in NNN; all-vertices-hubs puts them in HHH.
#[test]
fn type_split_extremes() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = graph_of(raw_edges(&mut rng, 32, 140), 32);
        let none =
            LotusCounter::new(LotusConfig::default().with_hub_count(HubCount::Fixed(0))).count(&g);
        assert_eq!(none.stats.nnn, none.total(), "seed {seed}");
        let all =
            LotusCounter::new(LotusConfig::default().with_hub_count(HubCount::Fixed(32))).count(&g);
        assert_eq!(all.stats.hhh, all.total(), "seed {seed}");
        assert_eq!(none.total(), all.total(), "seed {seed}");
    }
}
