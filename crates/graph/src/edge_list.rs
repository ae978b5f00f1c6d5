//! Mutable undirected edge lists and their canonical form.
//!
//! Generators and file loaders produce an [`EdgeList`]; graph construction
//! consumes a *canonical* edge list (self-loops removed, each undirected
//! edge stored exactly once as `(min, max)`, sorted and deduplicated).

use rayon::prelude::*;

use crate::ids::VertexId;

/// A list of undirected edges, possibly with duplicates and self-loops.
///
/// Edges are unordered pairs; `(u, v)` and `(v, u)` denote the same edge.
/// [`EdgeList::canonicalize`] normalizes to the `(min, max)` representation,
/// sorts, and deduplicates so downstream CSR construction is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    edges: Vec<(VertexId, VertexId)>,
    num_vertices: u32,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        Self {
            edges: Vec::new(),
            num_vertices,
        }
    }

    /// Creates an edge list from raw pairs, inferring the vertex count as
    /// `max endpoint + 1` (0 for an empty list).
    pub fn from_pairs(edges: Vec<(VertexId, VertexId)>) -> Self {
        let num_vertices = edges.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0);
        Self {
            edges,
            num_vertices,
        }
    }

    /// Creates an edge list from raw pairs with an explicit vertex count.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_pairs_with_vertices(edges: Vec<(VertexId, VertexId)>, num_vertices: u32) -> Self {
        for &(u, v) in &edges {
            assert!(
                u < num_vertices && v < num_vertices,
                "edge ({u}, {v}) out of range for {num_vertices} vertices"
            );
        }
        Self {
            edges,
            num_vertices,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of stored edge entries (before canonicalization this may count
    /// duplicates and self-loops).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the list holds no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Appends an edge.
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        debug_assert!(u < self.num_vertices && v < self.num_vertices);
        self.edges.push((u, v));
    }

    /// Raw view of the stored pairs.
    pub fn pairs(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Grows the vertex count (IDs are dense, so this only moves the bound).
    pub fn grow_vertices(&mut self, num_vertices: u32) {
        assert!(num_vertices >= self.num_vertices);
        self.num_vertices = num_vertices;
    }

    /// Normalizes the list in place: each edge becomes `(min, max)`,
    /// self-loops are dropped, and duplicates removed. The result is sorted.
    ///
    /// The paper's preprocessing (Algorithm 2, lines 11–15) drops self-edges
    /// and symmetric duplicates in the same way.
    pub fn canonicalize(&mut self) {
        self.edges.retain_mut(|e| {
            *e = (e.0.min(e.1), e.0.max(e.1));
            e.0 != e.1
        });
        self.edges.par_sort_unstable();
        self.edges.dedup();
    }

    /// Returns a canonicalized copy, leaving `self` untouched.
    pub fn canonicalized(&self) -> Self {
        let mut c = self.clone();
        c.canonicalize();
        c
    }

    /// True when the list is in canonical form: every edge `(u, v)` has
    /// `u < v`, and edges are strictly increasing.
    pub fn is_canonical(&self) -> bool {
        self.edges.iter().all(|&(u, v)| u < v) && self.edges.windows(2).all(|w| w[0] < w[1])
    }

    /// Consumes the list, returning the raw pairs.
    pub fn into_pairs(self) -> Vec<(VertexId, VertexId)> {
        self.edges
    }

    /// Degree of each vertex counting both endpoints of every stored edge
    /// (canonical lists therefore yield undirected degrees).
    pub fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            if u != v {
                deg[v as usize] += 1;
            }
        }
        deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_infers_vertex_count() {
        let el = EdgeList::from_pairs(vec![(0, 3), (1, 2)]);
        assert_eq!(el.num_vertices(), 4);
        assert_eq!(el.len(), 2);
    }

    #[test]
    fn empty_list() {
        let el = EdgeList::from_pairs(vec![]);
        assert_eq!(el.num_vertices(), 0);
        assert!(el.is_empty());
        assert!(el.is_canonical());
    }

    #[test]
    fn canonicalize_orders_dedups_and_drops_loops() {
        let mut el = EdgeList::from_pairs(vec![(2, 1), (1, 2), (3, 3), (0, 1), (1, 0)]);
        el.canonicalize();
        assert_eq!(el.pairs(), &[(0, 1), (1, 2)]);
        assert!(el.is_canonical());
    }

    #[test]
    fn canonicalized_leaves_original() {
        let el = EdgeList::from_pairs(vec![(2, 1), (1, 2)]);
        let c = el.canonicalized();
        assert_eq!(el.len(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn degrees_count_both_endpoints() {
        let mut el = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0)]);
        el.canonicalize();
        assert_eq!(el.degrees(), vec![2, 2, 2]);
    }

    #[test]
    fn is_canonical_rejects_unsorted() {
        let el = EdgeList::from_pairs(vec![(1, 2), (0, 1)]);
        assert!(!el.is_canonical());
    }

    #[test]
    #[should_panic]
    fn explicit_vertex_count_checks_range() {
        let _ = EdgeList::from_pairs_with_vertices(vec![(0, 5)], 3);
    }

    #[test]
    fn push_and_grow() {
        let mut el = EdgeList::new(2);
        el.push(0, 1);
        el.grow_vertices(10);
        el.push(8, 9);
        assert_eq!(el.len(), 2);
        assert_eq!(el.num_vertices(), 10);
    }
}
