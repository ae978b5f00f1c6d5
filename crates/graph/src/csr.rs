//! Compressed sparse row/column (CSX) adjacency storage.
//!
//! The paper represents graphs in CSX with 8-byte index values and 4-byte
//! neighbour IDs (§5.1.2), and LOTUS additionally stores its HE sub-graph
//! with 2-byte neighbour IDs (§4.2). [`Csr`] is generic over that width.
//!
//! [`UndirectedCsr`] is the symmetric input graph used by all counting
//! algorithms: every edge appears in both endpoint lists and neighbour lists
//! are sorted ascending, so a vertex's *lower* neighbours (`N⁻`, the
//! orientation used by the Forward algorithm) are a prefix of its list.

use rayon::prelude::*;

use crate::edge_list::EdgeList;
use crate::ids::{NeighborId, VertexId};

/// Compressed sparse row adjacency, generic over neighbour-ID width.
///
/// Offsets use 8 bytes per vertex (as in the paper's CSX accounting,
/// §5.1.2); neighbour entries use `N::BYTES` each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<N> {
    offsets: Box<[u64]>,
    neighbors: Box<[N]>,
}

impl<N: NeighborId> Csr<N> {
    /// An empty graph with `num_vertices` vertices and no edges.
    pub fn empty(num_vertices: u32) -> Self {
        Self {
            offsets: vec![0u64; num_vertices as usize + 1].into_boxed_slice(),
            neighbors: Box::new([]),
        }
    }

    /// Builds from per-vertex adjacency lists, used as-is (not sorted).
    pub fn from_adjacency(lists: Vec<Vec<N>>) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0u64);
        let mut total = 0u64;
        for l in &lists {
            total += l.len() as u64;
            offsets.push(total);
        }
        let mut neighbors = Vec::with_capacity(total as usize);
        for l in lists {
            neighbors.extend(l);
        }
        Self {
            offsets: offsets.into_boxed_slice(),
            neighbors: neighbors.into_boxed_slice(),
        }
    }

    /// Builds from raw offsets and a flat neighbour array.
    ///
    /// # Panics
    /// Panics if offsets are not monotonic or do not cover `neighbors`.
    pub fn from_parts(offsets: Vec<u64>, neighbors: Vec<N>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotonic"
        );
        assert_eq!(
            offsets.last().copied().unwrap_or(0) as usize,
            neighbors.len()
        );
        assert_eq!(offsets[0], 0);
        Self {
            offsets: offsets.into_boxed_slice(),
            neighbors: neighbors.into_boxed_slice(),
        }
    }

    /// Number of vertices.
    #[inline(always)]
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Total number of stored neighbour entries (directed edge slots).
    #[inline(always)]
    pub fn num_entries(&self) -> u64 {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Neighbour list of `v`.
    #[inline(always)]
    pub fn neighbors(&self, v: VertexId) -> &[N] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Degree (list length) of `v`.
    #[inline(always)]
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// The offset array (`|V| + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The flat neighbour array.
    #[inline]
    pub fn entries(&self) -> &[N] {
        &self.neighbors
    }

    /// Iterates `(vertex, neighbour list)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[N])> + '_ {
        (0..self.num_vertices()).map(move |v| (v, self.neighbors(v)))
    }

    /// Parallel iterator over `(vertex, neighbour list)` pairs.
    pub fn par_iter(&self) -> impl ParallelIterator<Item = (VertexId, &[N])> + '_ {
        (0..self.num_vertices())
            .into_par_iter()
            .map(move |v| (v, self.neighbors(v)))
    }

    /// Bytes of topology data: `8(|V| + 1)` for the index plus
    /// `N::BYTES · entries` for the neighbour array (paper §5.6 accounting).
    pub fn topology_bytes(&self) -> u64 {
        8 * (self.num_vertices() as u64 + 1) + N::BYTES as u64 * self.num_entries()
    }

    /// True when every neighbour list is sorted ascending.
    pub fn lists_sorted(&self) -> bool {
        self.iter()
            .all(|(_, ns)| ns.windows(2).all(|w| w[0] <= w[1]))
    }
}

/// A symmetric (undirected) graph in CSX form with sorted neighbour lists.
///
/// Both directions of every edge are stored, so `num_entries == 2·|E|`.
/// This is the input representation of every triangle-counting algorithm in
/// the workspace; the Forward orientation (`N⁻`, lower-ID neighbours only)
/// is available either as a prefix slice ([`UndirectedCsr::lower_neighbors`])
/// or materialized as a halved directed graph ([`UndirectedCsr::forward_graph`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndirectedCsr {
    csr: Csr<u32>,
    num_edges: u64,
}

impl UndirectedCsr {
    /// Builds from a canonical edge list (see [`EdgeList::canonicalize`]).
    ///
    /// One counting pass gives the degrees; one pass in edge order then
    /// writes every list already sorted. The pairs come sorted by
    /// `(u, v)` with `u < v`, so each vertex receives its lower neighbours
    /// in ascending order, and all of them before its own run of pairs
    /// appends its upper neighbours. No atomics, no per-list sort.
    ///
    /// # Panics
    /// Panics if the edge list is not canonical.
    pub fn from_canonical_edges(edges: &EdgeList) -> Self {
        assert!(
            edges.is_canonical(),
            "edge list must be canonicalized first"
        );
        let pairs = edges.pairs();
        // `offsets[v + 1]` counts v's degree, then is the cursor where v's
        // next neighbour goes, and ends as the end of v's list.
        let mut offsets = vec![0u64; edges.num_vertices() as usize + 1];
        for &(u, v) in pairs {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        let mut start = 0;
        for slot in &mut offsets[1..] {
            (start, *slot) = (start + *slot, start);
        }
        let mut neighbors = vec![0u32; 2 * pairs.len()];
        for &(u, v) in pairs {
            for (x, y) in [(u, v), (v, u)] {
                let cursor = &mut offsets[x as usize + 1];
                neighbors[*cursor as usize] = y;
                *cursor += 1;
            }
        }
        let csr = Csr::from_parts(offsets, neighbors);
        let g = Self {
            csr,
            num_edges: pairs.len() as u64,
        };
        #[cfg(feature = "validate")]
        g.debug_validate();
        g
    }

    /// `validate`-feature hook: re-checks the symmetric-CSR invariants
    /// after construction. Debug-assert backed, so release builds with the
    /// feature enabled still compile it away; `lotus check` runs the full
    /// `lotus-check` validator instead.
    #[cfg(feature = "validate")]
    fn debug_validate(&self) {
        debug_assert!(self.csr.lists_sorted(), "neighbour lists must be sorted");
        debug_assert_eq!(
            self.csr.num_entries(),
            2 * self.num_edges,
            "entry count must be twice the edge count"
        );
        debug_assert!(
            (0..self.num_vertices()).all(|v| {
                self.neighbors(v).iter().all(|&u| {
                    u != v && u < self.num_vertices() && self.neighbors(u).binary_search(&v).is_ok()
                })
            }),
            "graph must be symmetric, in-bounds, and self-loop free"
        );
    }

    /// Wraps an already-symmetric CSR without checking symmetry, sortedness,
    /// or the claimed edge count.
    ///
    /// Intended for deserialization fast paths and for validator tests that
    /// need to construct deliberately corrupt graphs; run
    /// `lotus_check::Validator` over the result when the input is untrusted.
    pub fn from_csr_unchecked(csr: Csr<u32>, num_edges: u64) -> Self {
        Self { csr, num_edges }
    }

    /// Number of vertices.
    #[inline(always)]
    pub fn num_vertices(&self) -> u32 {
        self.csr.num_vertices()
    }

    /// Number of undirected edges.
    #[inline(always)]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Sorted neighbour list of `v` (both directions stored).
    #[inline(always)]
    pub fn neighbors(&self, v: VertexId) -> &[u32] {
        self.csr.neighbors(v)
    }

    /// Undirected degree of `v`.
    #[inline(always)]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.csr.degree(v)
    }

    /// Lower neighbours `N⁻(v) = { u ∈ N(v) | u < v }`, the Forward
    /// orientation. Because lists are sorted this is a prefix slice.
    #[inline(always)]
    pub fn lower_neighbors(&self, v: VertexId) -> &[u32] {
        let ns = self.neighbors(v);
        let cut = ns.partition_point(|&u| u < v);
        &ns[..cut]
    }

    /// Upper neighbours `N⁺(v) = { u ∈ N(v) | u > v }`.
    #[inline(always)]
    pub fn upper_neighbors(&self, v: VertexId) -> &[u32] {
        let ns = self.neighbors(v);
        let cut = ns.partition_point(|&u| u <= v);
        &ns[cut..]
    }

    /// The underlying symmetric CSR.
    #[inline]
    pub fn csr(&self) -> &Csr<u32> {
        &self.csr
    }

    /// Materializes the Forward-oriented directed graph: each vertex keeps
    /// only its lower neighbours. This is the "CSX without symmetric edges"
    /// of Table 7 — half the entries of the symmetric graph.
    pub fn forward_graph(&self) -> Csr<u32> {
        let n = self.num_vertices() as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut acc = 0u64;
        for v in 0..self.num_vertices() {
            acc += self.lower_neighbors(v).len() as u64;
            offsets.push(acc);
        }
        let mut neighbors = Vec::with_capacity(acc as usize);
        for v in 0..self.num_vertices() {
            neighbors.extend_from_slice(self.lower_neighbors(v));
        }
        Csr::from_parts(offsets, neighbors)
    }

    /// True when `u` and `v` are adjacent (binary search on the shorter of
    /// the two endpoint lists).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Topology bytes of the symmetric CSX (Table 7 "CSX" column).
    pub fn topology_bytes(&self) -> u64 {
        self.csr.topology_bytes()
    }

    /// Extracts the canonical edge list (`u < v`, sorted) this graph was
    /// built from. `from_canonical_edges(&g.to_canonical_edges())`
    /// reproduces `g` bit-for-bit, which is what makes a serialized
    /// snapshot of a resident graph trustworthy.
    pub fn to_canonical_edges(&self) -> EdgeList {
        let mut pairs = Vec::with_capacity(self.num_edges as usize);
        for v in 0..self.num_vertices() {
            for &w in self.upper_neighbors(v) {
                pairs.push((v, w));
            }
        }
        EdgeList::from_pairs_with_vertices(pairs, self.num_vertices())
    }

    /// Degree array of all vertices.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices()).map(|v| self.degree(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> UndirectedCsr {
        // Triangle 0-1-2 plus a tail 2-3.
        let mut el = EdgeList::from_pairs(vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
        el.canonicalize();
        UndirectedCsr::from_canonical_edges(&el)
    }

    #[test]
    fn canonical_edges_round_trip() {
        let g = triangle_plus_tail();
        let el = g.to_canonical_edges();
        assert!(el.is_canonical());
        assert_eq!(el.len() as u64, g.num_edges());
        assert_eq!(UndirectedCsr::from_canonical_edges(&el), g);
    }

    #[test]
    fn symmetric_lists_sorted() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(3), &[2]);
        assert!(g.csr().lists_sorted());
    }

    #[test]
    fn lower_and_upper_neighbors_partition_list() {
        let g = triangle_plus_tail();
        assert_eq!(g.lower_neighbors(2), &[0, 1]);
        assert_eq!(g.upper_neighbors(2), &[3]);
        assert_eq!(g.lower_neighbors(0), &[] as &[u32]);
        assert_eq!(g.upper_neighbors(0), &[1, 2]);
        for v in 0..g.num_vertices() {
            let mut joined = g.lower_neighbors(v).to_vec();
            joined.extend_from_slice(g.upper_neighbors(v));
            assert_eq!(joined.as_slice(), g.neighbors(v));
        }
    }

    #[test]
    fn forward_graph_halves_entries() {
        let g = triangle_plus_tail();
        let f = g.forward_graph();
        assert_eq!(f.num_entries(), g.num_edges());
        assert_eq!(f.neighbors(2), &[0, 1]);
        assert_eq!(f.neighbors(0), &[] as &[u32]);
    }

    #[test]
    fn has_edge_checks_both_directions() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn empty_graph() {
        let el = EdgeList::new(5);
        let g = UndirectedCsr::from_canonical_edges(&el);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        for v in 0..5 {
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn topology_bytes_accounting() {
        let g = triangle_plus_tail();
        // 8 * (4 + 1) index bytes + 4 bytes per directed entry (2 per edge).
        assert_eq!(g.topology_bytes(), 8 * 5 + 4 * 8);
    }

    #[test]
    fn csr_u16_width() {
        let csr = Csr::<u16>::from_adjacency(vec![vec![1u16, 2], vec![], vec![0]]);
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_entries(), 3);
        assert_eq!(csr.topology_bytes(), 8 * 4 + 2 * 3);
        assert_eq!(csr.neighbors(0), &[1, 2]);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_bad_offsets() {
        let _ = Csr::<u32>::from_parts(vec![0, 3, 2], vec![0, 0, 0]);
    }

    #[test]
    fn degrees_match_neighbor_lengths() {
        let g = triangle_plus_tail();
        assert_eq!(g.degrees(), vec![2, 2, 3, 1]);
    }
}
