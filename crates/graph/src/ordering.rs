//! Vertex relabelings: degree ordering and the LOTUS hub-first ordering.
//!
//! The Forward algorithm relabels vertices by descending degree (§2.2);
//! LOTUS instead assigns the first consecutive IDs to the top fraction of
//! vertices by degree (10% by default, §4.3.1) and keeps all remaining
//! vertices in their *original* relative order, preserving whatever spatial
//! locality the input ordering had — a known artefact destroyed by full
//! degree ordering.

use crate::csr::UndirectedCsr;
use crate::edge_list::EdgeList;
use crate::ids::VertexId;

/// A bijective vertex relabeling with both directions materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relabeling {
    /// `new_id[old] = new`.
    old_to_new: Vec<VertexId>,
    /// `old_id[new] = old`.
    new_to_old: Vec<VertexId>,
}

impl Relabeling {
    /// The identity relabeling on `n` vertices.
    pub fn identity(n: u32) -> Self {
        let ids: Vec<VertexId> = (0..n).collect();
        Self {
            old_to_new: ids.clone(),
            new_to_old: ids,
        }
    }

    /// Builds from an `old → new` map.
    ///
    /// # Panics
    /// Panics if the map is not a permutation of `0..n`.
    pub fn from_old_to_new(old_to_new: Vec<VertexId>) -> Self {
        let n = old_to_new.len();
        let mut new_to_old = vec![u32::MAX; n];
        for (old, &new) in old_to_new.iter().enumerate() {
            assert!((new as usize) < n, "new ID {new} out of range");
            assert_eq!(new_to_old[new as usize], u32::MAX, "duplicate new ID {new}");
            new_to_old[new as usize] = old as u32;
        }
        Self {
            old_to_new,
            new_to_old,
        }
    }

    /// Full degree-descending relabeling (ties by original ID), as used by
    /// the baseline Forward algorithm.
    pub fn degree_descending(degrees: &[u32]) -> Self {
        let order = crate::degree::top_k_by_degree(degrees, degrees.len());
        let mut old_to_new = vec![0u32; degrees.len()];
        for (new, &old) in order.iter().enumerate() {
            old_to_new[old as usize] = new as u32;
        }
        Self {
            old_to_new,
            new_to_old: order,
        }
    }

    /// LOTUS hub-first relabeling (§4.3.1, `create_relabeling_array`):
    /// the `head_count` highest-degree vertices receive the first
    /// consecutive IDs (sorted by descending degree), and all remaining
    /// vertices keep their original relative order.
    pub fn hub_first(degrees: &[u32], head_count: usize) -> Self {
        let n = degrees.len();
        let head_count = head_count.min(n);
        let head = crate::degree::top_k_by_degree(degrees, head_count);

        let mut is_head = vec![false; n];
        for &v in &head {
            is_head[v as usize] = true;
        }

        let mut old_to_new = vec![0u32; n];
        for (new, &old) in head.iter().enumerate() {
            old_to_new[old as usize] = new as u32;
        }
        let mut next = head_count as u32;
        for old in 0..n {
            if !is_head[old] {
                old_to_new[old] = next;
                next += 1;
            }
        }
        Self::from_old_to_new(old_to_new)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.old_to_new.len()
    }

    /// Whether the relabeling covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.old_to_new.is_empty()
    }

    /// Maps an original ID to its new ID.
    #[inline(always)]
    pub fn new_id(&self, old: VertexId) -> VertexId {
        self.old_to_new[old as usize]
    }

    /// Maps a new ID back to the original ID.
    #[inline(always)]
    pub fn old_id(&self, new: VertexId) -> VertexId {
        self.new_to_old[new as usize]
    }

    /// The full `old → new` array (indexed by original ID), as returned by
    /// the paper's `create_relabeling_array()`.
    pub fn old_to_new(&self) -> &[VertexId] {
        &self.old_to_new
    }

    /// The inverse `new → old` array.
    pub fn new_to_old(&self) -> &[VertexId] {
        &self.new_to_old
    }

    /// Applies the relabeling to a graph, rebuilding CSX with sorted lists.
    pub fn apply(&self, graph: &UndirectedCsr) -> UndirectedCsr {
        assert_eq!(self.len(), graph.num_vertices() as usize);
        #[cfg(feature = "validate")]
        debug_assert!(
            self.is_permutation(),
            "relabeling must be a bijective permutation"
        );
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(graph.num_edges() as usize);
        for v in 0..graph.num_vertices() {
            let nv = self.new_id(v);
            for &u in graph.upper_neighbors(v) {
                let nu = self.new_id(u);
                pairs.push((nv.min(nu), nv.max(nu)));
            }
        }
        let mut el = EdgeList::from_pairs_with_vertices(pairs, graph.num_vertices());
        el.canonicalize();
        UndirectedCsr::from_canonical_edges(&el)
    }

    /// Verifies the permutation property (used by tests and debug checks).
    pub fn is_permutation(&self) -> bool {
        self.old_to_new.len() == self.new_to_old.len()
            && self
                .old_to_new
                .iter()
                .enumerate()
                .all(|(old, &new)| self.new_to_old[new as usize] == old as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_graph() -> UndirectedCsr {
        // Degrees: v0=3, v1=2, v2=2, v3=1; star-ish.
        let mut el = EdgeList::from_pairs(vec![(0, 1), (0, 2), (0, 3), (1, 2)]);
        el.canonicalize();
        UndirectedCsr::from_canonical_edges(&el)
    }

    #[test]
    fn identity_maps_to_self() {
        let r = Relabeling::identity(4);
        assert!(r.is_permutation());
        for v in 0..4 {
            assert_eq!(r.new_id(v), v);
            assert_eq!(r.old_id(v), v);
        }
    }

    #[test]
    fn degree_descending_orders_by_degree() {
        let g = example_graph();
        let r = Relabeling::degree_descending(&g.degrees());
        assert!(r.is_permutation());
        assert_eq!(r.new_id(0), 0); // highest degree
        assert_eq!(r.new_id(3), 3); // lowest degree
                                    // v1 and v2 tie at degree 2; lower original ID first.
        assert_eq!(r.new_id(1), 1);
        assert_eq!(r.new_id(2), 2);
    }

    #[test]
    fn hub_first_keeps_tail_in_original_order() {
        // Degrees: 1, 5, 1, 4, 1 → head (2) = [1, 3]; tail keeps order 0, 2, 4.
        let degrees = vec![1, 5, 1, 4, 1];
        let r = Relabeling::hub_first(&degrees, 2);
        assert!(r.is_permutation());
        assert_eq!(r.new_id(1), 0);
        assert_eq!(r.new_id(3), 1);
        assert_eq!(r.new_id(0), 2);
        assert_eq!(r.new_id(2), 3);
        assert_eq!(r.new_id(4), 4);
    }

    #[test]
    fn hub_first_head_larger_than_graph() {
        let degrees = vec![2, 1];
        let r = Relabeling::hub_first(&degrees, 10);
        assert!(r.is_permutation());
        assert_eq!(r.new_id(0), 0);
    }

    #[test]
    fn apply_preserves_structure() {
        let g = example_graph();
        let r = Relabeling::degree_descending(&g.degrees());
        let h = r.apply(&g);
        assert_eq!(h.num_edges(), g.num_edges());
        assert_eq!(h.num_vertices(), g.num_vertices());
        // Adjacency is preserved under the mapping.
        for v in 0..g.num_vertices() {
            for &u in g.neighbors(v) {
                assert!(h.has_edge(r.new_id(v), r.new_id(u)));
            }
        }
    }

    #[test]
    #[should_panic]
    fn from_old_to_new_rejects_duplicates() {
        let _ = Relabeling::from_old_to_new(vec![0, 0, 1]);
    }

    #[test]
    fn round_trip_ids() {
        let degrees = vec![4, 2, 7, 1, 3, 3];
        let r = Relabeling::hub_first(&degrees, 3);
        for v in 0..degrees.len() as u32 {
            assert_eq!(r.old_id(r.new_id(v)), v);
        }
    }
}
