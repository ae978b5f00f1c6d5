//! Shared preprocessing for the baseline algorithms: degree ordering and
//! the forward (oriented) graph.
//!
//! Every comparator in the paper's evaluation "uses degree ordering to
//! accelerate TC" (§5.1.4); times are end-to-end including this step, and
//! each baseline times it itself.

use lotus_graph::{Csr, Relabeling, UndirectedCsr};

/// Output of baseline preprocessing: the relabeled symmetric graph, the
/// oriented forward graph (lower neighbours only), and the relabeling.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// Degree-ordered symmetric graph.
    pub graph: UndirectedCsr,
    /// Forward-oriented graph: `N⁻(v)` lists under the new ordering.
    pub forward: Csr<u32>,
    /// The relabeling that was applied.
    pub relabeling: Relabeling,
}

/// Relabels by descending degree and materializes the forward graph.
pub fn degree_order_and_orient(graph: &UndirectedCsr) -> Preprocessed {
    let relabeling = Relabeling::degree_descending(&graph.degrees());
    let relabeled = relabeling.apply(graph);
    let forward = relabeled.forward_graph();
    Preprocessed {
        graph: relabeled,
        forward,
        relabeling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_graph::builder::graph_from_edges;

    #[test]
    fn degree_ordering_gives_hub_id_zero() {
        let g = graph_from_edges([(0, 4), (1, 4), (2, 4), (3, 4), (1, 2)]);
        let p = degree_order_and_orient(&g);
        assert_eq!(p.relabeling.new_id(4), 0);
        assert_eq!(p.graph.degree(0), 4);
        // Forward graph halves the entries.
        assert_eq!(p.forward.num_entries(), g.num_edges());
    }

    #[test]
    fn hub_lists_in_forward_graph_contain_only_hubs() {
        // After descending-degree relabeling, a vertex's lower neighbours
        // all have higher-or-equal degree (paper §3.1's key setup).
        let g = graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 0)]);
        let p = degree_order_and_orient(&g);
        for v in 0..p.graph.num_vertices() {
            for &u in p.forward.neighbors(v) {
                assert!(p.graph.degree(u) >= p.graph.degree(v) || u < v);
            }
        }
    }
}
