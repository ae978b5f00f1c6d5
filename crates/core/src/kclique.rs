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

use lotus_graph::{Csr, UndirectedCsr};

use crate::config::LotusConfig;
use crate::count::PAR_GRAIN;
use crate::preprocess::build_lotus_graph;

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

/// Counts k-cliques (k ≥ 3) of an oriented forward graph.
pub fn count_oriented_kcliques(forward: &Csr<u32>, k: usize) -> u64 {
    assert!(k >= 3);
    (0..forward.num_vertices())
        .into_par_iter()
        .with_min_len(PAR_GRAIN)
        .map(|v| {
            let cand = forward.neighbors(v);
            if cand.len() + 1 < k {
                return 0;
            }
            let mut scratch = vec![Vec::new(); k - 2];
            extend_clique(forward, cand, k - 1, &mut scratch)
        })
        .sum()
}

/// Recursive extension: `depth` more vertices must come from `cand`.
///
/// Every vertex of a clique is picked through `cand ∩ N⁻(u)`, which only
/// contains IDs below `u` — each clique is therefore enumerated exactly
/// once, in descending ID order.
fn extend_clique(forward: &Csr<u32>, cand: &[u32], depth: usize, scratch: &mut [Vec<u32>]) -> u64 {
    if depth == 1 {
        return cand.len() as u64;
    }
    // The caller sizes `scratch` to the recursion depth; an empty slice
    // can only mean there is nothing left to extend.
    let Some((head, tail)) = scratch.split_first_mut() else {
        return 0;
    };
    let mut total = 0u64;
    for &u in cand {
        head.clear();
        intersect_into(cand, forward.neighbors(u), head);
        if head.len() + 1 >= depth {
            let sub = std::mem::take(head);
            total += extend_clique(forward, &sub, depth - 1, tail);
            *head = sub;
        }
    }
    total
}

/// Merge intersection into a reusable output buffer.
fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        if x < y {
            i += 1;
        } else if y < x {
            j += 1;
        } else {
            out.push(x);
            i += 1;
            j += 1;
        }
    }
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
