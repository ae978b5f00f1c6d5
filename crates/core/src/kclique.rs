//! k-clique counting (paper §7, future work).
//!
//! Triangle counting is the k = 3 case of clique counting; the paper
//! anticipates LOTUS-style hub skew to sharpen further for larger cliques.
//! This module provides the standard ordered enumeration on the
//! degree-ordered forward graph (each clique counted once at its
//! highest-ordered vertex, candidate sets shrunk by successive merge
//! intersections) plus a hub/non-hub split of the counts so the paper's
//! "hub cliques dominate" hypothesis can be measured.

use rayon::prelude::*;

use lotus_algos::intersect::{count_merge, merge::merge_for_each};
use lotus_graph::{Csr, UndirectedCsr};

use crate::config::LotusConfig;
use crate::count::PAR_GRAIN;
use crate::preprocess::build_lotus_graph;
use crate::structure::LotusGraph;

/// Counts k-cliques. `k = 1` returns `|V|`, `k = 2` returns `|E|`.
pub fn count_kcliques(graph: &UndirectedCsr, k: usize) -> u64 {
    assert!(k >= 1, "k must be positive");
    match k {
        1 => graph.num_vertices() as u64,
        2 => graph.num_edges(),
        _ => {
            let pre = lotus_algos::preprocess::degree_order_and_orient(graph);
            count_oriented_kcliques(&pre.forward, k)
        }
    }
}

/// The forward orientation of `lg` that k-clique counting enumerates
/// on: N⁻(v) is HE(v) followed by NHE(v), in LOTUS IDs, so every list is
/// sorted (hub IDs lie below all others). Built without relabeling, so
/// the daemon keeps one per resident graph.
pub fn orient(lg: &LotusGraph) -> Csr<u32> {
    let (he, nhe) = (lg.he.offsets(), lg.nhe.offsets());
    let offsets = he.iter().zip(nhe).map(|(a, b)| a + b).collect();
    let mut entries = Vec::with_capacity((lg.he_edges() + lg.nhe_edges()) as usize);
    for v in 0..lg.num_vertices() {
        entries.extend(lg.hub_neighbors(v).iter().map(|&h| u32::from(h)));
        entries.extend_from_slice(lg.nonhub_neighbors(v));
    }
    Csr::from_parts(offsets, entries)
}

/// Counts k-cliques (k ≥ 3) of an oriented forward graph.
pub fn count_oriented_kcliques(forward: &Csr<u32>, k: usize) -> u64 {
    assert!(k >= 3);
    (0..forward.num_vertices())
        .into_par_iter()
        .with_min_len(PAR_GRAIN)
        .map(|v| {
            let cand = forward.neighbors(v);
            rayon::sched::log_read(cand, "kclique.n_minus");
            if cand.len() + 1 < k {
                return 0;
            }
            let mut scratch = vec![Vec::new(); k - 3];
            extend_clique(forward, cand, k - 1, &mut scratch)
        })
        .sum()
}

/// Counts the ways to pick `depth ≥ 2` more vertices from `cand`, a
/// clique's common candidates: each vertex `u` of a clique is picked
/// through `cand ∩ N⁻(u)`, which only holds IDs below `u`, so each
/// clique is enumerated exactly once, in descending ID order. The last
/// level counts its intersections without building them.
fn extend_clique(forward: &Csr<u32>, cand: &[u32], depth: usize, scratch: &mut [Vec<u32>]) -> u64 {
    let mut total = 0u64;
    for (i, &u) in cand.iter().enumerate() {
        // Only the candidates before `u` can lie in N⁻(u).
        let (below, n_u) = (&cand[..i], forward.neighbors(u));
        if depth == 2 {
            total += count_merge(below, n_u);
        } else if let Some((head, tail)) = scratch.split_first_mut() {
            head.clear();
            intersect_into(below, n_u, head);
            if head.len() + 1 >= depth {
                let sub = std::mem::take(head);
                total += extend_clique(forward, &sub, depth - 1, tail);
                *head = sub;
            }
        }
    }
    total
}

/// Merge intersection into a reusable output buffer.
fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    merge_for_each(a, b, |x| out.push(x));
}

/// k-clique counts split by whether the clique touches a hub, using the
/// LOTUS hub selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KCliqueSplit {
    /// Cliques containing at least one hub vertex.
    pub hub_cliques: u64,
    /// Cliques entirely among non-hubs.
    pub nonhub_cliques: u64,
}

impl KCliqueSplit {
    /// Total cliques.
    pub fn total(&self) -> u64 {
        self.hub_cliques + self.nonhub_cliques
    }

    /// Fraction of cliques touching a hub.
    pub fn hub_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hub_cliques as f64 / self.total() as f64
        }
    }
}

/// Counts k-cliques split into hub / non-hub classes (k ≥ 3).
///
/// Non-hub cliques live entirely inside the NHE sub-graph, so they are
/// counted there (LOTUS's pruning argument, §3.3, applied to cliques);
/// hub cliques are the remainder.
pub fn count_kcliques_split(graph: &UndirectedCsr, k: usize, config: &LotusConfig) -> KCliqueSplit {
    assert!(k >= 3);
    let total = count_kcliques(graph, k);
    let lg = build_lotus_graph(graph, config);
    let residual = crate::recursive::extract_nonhub_graph(&lg);
    let nonhub = count_kcliques(&residual, k);
    KCliqueSplit {
        hub_cliques: total - nonhub,
        nonhub_cliques: nonhub,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_graph::builder::graph_from_edges;

    fn complete_graph(n: u32) -> UndirectedCsr {
        graph_from_edges((0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))))
    }

    fn binomial(n: u64, k: u64) -> u64 {
        (0..k).fold(1u64, |acc, i| acc * (n - i) / (i + 1))
    }

    /// Every k-subset of the vertices whose pairs are all edges.
    fn brute_force(g: &UndirectedCsr, k: usize) -> u64 {
        fn extend(g: &UndirectedCsr, clique: &mut Vec<u32>, next: u32, k: usize) -> u64 {
            if clique.len() == k {
                return 1;
            }
            let mut found = 0;
            for v in next..g.num_vertices() {
                if clique.iter().all(|&u| g.has_edge(u, v)) {
                    clique.push(v);
                    found += extend(g, clique, v + 1, k);
                    clique.pop();
                }
            }
            found
        }
        extend(g, &mut Vec::new(), 0, k)
    }

    /// The count-only enumerator on the LOTUS orientation, and the
    /// degree-ordered one, against brute force for k = 3, 4 and 5.
    #[test]
    fn enumerators_match_brute_force() {
        let graphs = [
            ("K6", complete_graph(6)),
            ("rmat", lotus_gen::Rmat::new(5, 6).generate(3)),
            ("er", lotus_gen::ErdosRenyi::new(24, 120).generate(8)),
        ];
        for (what, g) in &graphs {
            for hubs in [0u32, 2, 8] {
                let cfg =
                    LotusConfig::default().with_hub_count(crate::config::HubCount::Fixed(hubs));
                let forward = orient(&build_lotus_graph(g, &cfg));
                for k in 3..=5 {
                    let want = brute_force(g, k);
                    if *what == "K6" {
                        assert_eq!(want, binomial(6, k as u64));
                    }
                    let at = format!("{what} hubs {hubs} k {k}");
                    assert_eq!(count_oriented_kcliques(&forward, k), want, "{at}");
                    assert_eq!(count_kcliques(g, k), want, "{at}");
                }
            }
        }
    }

    #[test]
    fn trivial_sizes() {
        let g = complete_graph(6);
        assert_eq!(count_kcliques(&g, 1), 6);
        assert_eq!(count_kcliques(&g, 2), 15);
    }

    #[test]
    fn complete_graph_cliques() {
        let g = complete_graph(8);
        for k in 3..=6 {
            assert_eq!(count_kcliques(&g, k), binomial(8, k as u64), "k={k}");
        }
        assert_eq!(count_kcliques(&g, 9), 0);
    }

    #[test]
    fn k3_matches_triangle_count() {
        let g = lotus_gen::Rmat::new(9, 8).generate(33);
        assert_eq!(
            count_kcliques(&g, 3),
            lotus_algos::forward::forward_count(&g)
        );
    }

    #[test]
    fn triangle_free_graph_has_no_cliques() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(count_kcliques(&g, 3), 0);
        assert_eq!(count_kcliques(&g, 4), 0);
    }

    #[test]
    fn split_sums_to_total() {
        let g = lotus_gen::Rmat::new(9, 10).generate(44);
        let cfg = LotusConfig::default().with_hub_count(crate::config::HubCount::Fixed(32));
        for k in 3..=4 {
            let split = count_kcliques_split(&g, k, &cfg);
            assert_eq!(split.total(), count_kcliques(&g, k), "k={k}");
        }
    }

    #[test]
    fn hub_cliques_dominate_on_skewed_graphs() {
        // The paper's hypothesis (§7): skew sharpens with k.
        let g = lotus_gen::Rmat::new(10, 12).generate(55);
        let cfg = LotusConfig::default().with_hub_count(crate::config::HubCount::Fixed(64));
        let s3 = count_kcliques_split(&g, 3, &cfg);
        let s4 = count_kcliques_split(&g, 4, &cfg);
        assert!(s3.hub_fraction() > 0.5);
        assert!(s4.hub_fraction() >= s3.hub_fraction() - 0.05);
    }
}
