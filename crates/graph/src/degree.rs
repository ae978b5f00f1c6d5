//! Degree statistics and skew detection.
//!
//! LOTUS is designed for skewed (power-law) degree distributions; §5.5 of
//! the paper recommends checking skewness up front (as GAP does, by
//! comparing average and sampled-median degree) and falling back to the
//! Forward algorithm when the graph is not skewed enough. [`DegreeStats`]
//! implements that check.

use rayon::prelude::*;

use crate::csr::UndirectedCsr;
use crate::ids::VertexId;

/// Summary statistics of a degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: u32,
    /// Number of undirected edges.
    pub num_edges: u64,
    /// Maximum degree.
    pub max_degree: u32,
    /// Mean degree (`2|E| / |V|`).
    pub mean_degree: f64,
    /// Exact median degree.
    pub median_degree: u32,
}

impl DegreeStats {
    /// Computes statistics for an undirected graph.
    pub fn of(graph: &UndirectedCsr) -> Self {
        let mut degrees = graph.degrees();
        let num_vertices = graph.num_vertices();
        let num_edges = graph.num_edges();
        let max_degree = degrees.par_iter().copied().max().unwrap_or(0);
        let mean_degree = if num_vertices == 0 {
            0.0
        } else {
            2.0 * num_edges as f64 / num_vertices as f64
        };
        let median_degree = if degrees.is_empty() {
            0
        } else {
            let mid = degrees.len() / 2;
            *degrees.select_nth_unstable(mid).1
        };
        Self {
            num_vertices,
            num_edges,
            max_degree,
            mean_degree,
            median_degree,
        }
    }

    /// GAP-style skewness heuristic (paper §5.5): a graph is "skewed" when
    /// the mean degree is substantially larger than the median. The ratio
    /// threshold follows GAP's relabeling trigger; power-law graphs have
    /// mean ≫ median because hubs drag the mean up.
    pub fn is_skewed(&self, ratio_threshold: f64) -> bool {
        if self.num_vertices == 0 {
            return false;
        }
        self.mean_degree > ratio_threshold * self.median_degree.max(1) as f64
    }
}

/// Histogram of degrees in logarithmic buckets (`[2^k, 2^{k+1})`), used to
/// inspect the power-law shape of generated graphs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegreeDistribution {
    /// `buckets[k]` counts vertices with degree in `[2^k, 2^{k+1})`;
    /// `zero` counts isolated vertices.
    pub buckets: Vec<u64>,
    /// Number of degree-zero vertices.
    pub zero: u64,
}

impl DegreeDistribution {
    /// Builds the log-bucket histogram for a graph.
    pub fn of(graph: &UndirectedCsr) -> Self {
        let mut dist = DegreeDistribution::default();
        for v in 0..graph.num_vertices() {
            dist.add(graph.degree(v));
        }
        dist
    }

    /// Adds one vertex of degree `d`.
    pub fn add(&mut self, d: u32) {
        if d == 0 {
            self.zero += 1;
            return;
        }
        let k = (31 - d.leading_zeros()) as usize;
        if self.buckets.len() <= k {
            self.buckets.resize(k + 1, 0);
        }
        self.buckets[k] += 1;
    }

    /// Total vertices recorded.
    pub fn total(&self) -> u64 {
        self.zero + self.buckets.iter().sum::<u64>()
    }

    /// A crude power-law tail indicator: the fraction of vertices in the top
    /// half of the (log-scale) bucket range. Near zero for heavy-tailed
    /// graphs — almost all vertices sit in low buckets.
    pub fn tail_fraction(&self) -> f64 {
        if self.buckets.is_empty() || self.total() == 0 {
            return 0.0;
        }
        let half = self.buckets.len() / 2;
        let tail: u64 = self.buckets[half..].iter().sum();
        tail as f64 / self.total() as f64
    }

    /// Estimates the power-law exponent α of `P(deg = d) ∝ d^−α` by
    /// least-squares regression of log(count) on log(degree) over the
    /// log-scale buckets. Returns `None` with fewer than three non-empty
    /// buckets. Power-law graphs land around α ≈ 2–3; uniform random
    /// graphs produce small or even negative estimates.
    pub fn powerlaw_exponent(&self) -> Option<f64> {
        let points: Vec<(f64, f64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(k, &c)| {
                // Bucket k covers [2^k, 2^{k+1}); use the midpoint and
                // normalize the count by the bucket width 2^k.
                let mid = (1.5 * (1u64 << k) as f64).ln();
                let density = (c as f64 / (1u64 << k) as f64).ln();
                (mid, density)
            })
            .collect();
        if points.len() < 3 {
            return None;
        }
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        Some(-slope)
    }
}

/// Returns the `k` vertices of highest degree, ties broken by lower vertex
/// ID first (deterministic). Used to pick the hub set.
///
/// A counting sort in O(|V| + max degree): a degree histogram gives each
/// degree its first output slot, counted from the highest degree down,
/// and one pass in ID order places every vertex that lands among the
/// first `k`.
pub fn top_k_by_degree(degrees: &[u32], k: usize) -> Vec<VertexId> {
    let k = k.min(degrees.len());
    if k == 0 {
        return Vec::new();
    }
    let max = degrees.iter().copied().max().unwrap_or(0) as usize;
    let mut next = vec![0usize; max + 1];
    for &d in degrees {
        next[d as usize] += 1;
    }
    let mut slot = 0;
    for count in next.iter_mut().rev() {
        (*count, slot) = (slot, slot + *count);
    }
    let mut top = vec![0; k];
    for (v, &d) in degrees.iter().enumerate() {
        let at = next[d as usize];
        if at < k {
            top[at] = v as VertexId;
        }
        next[d as usize] += 1;
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;

    fn star(n: u32) -> UndirectedCsr {
        // Vertex 0 connected to all others.
        let mut el = EdgeList::from_pairs((1..n).map(|v| (0, v)).collect());
        el.canonicalize();
        UndirectedCsr::from_canonical_edges(&el)
    }

    #[test]
    fn stats_of_star() {
        let g = star(11);
        let s = DegreeStats::of(&g);
        assert_eq!(s.max_degree, 10);
        assert_eq!(s.median_degree, 1);
        assert!((s.mean_degree - 20.0 / 11.0).abs() < 1e-9);
        assert!(s.is_skewed(1.5));
    }

    #[test]
    fn regular_graph_is_not_skewed() {
        // Cycle: all degrees 2.
        let n = 20u32;
        let mut el = EdgeList::from_pairs((0..n).map(|v| (v, (v + 1) % n)).collect());
        el.canonicalize();
        let g = UndirectedCsr::from_canonical_edges(&el);
        let s = DegreeStats::of(&g);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.median_degree, 2);
        assert!(!s.is_skewed(1.5));
    }

    #[test]
    fn empty_graph_stats() {
        let g = UndirectedCsr::from_canonical_edges(&EdgeList::new(0));
        let s = DegreeStats::of(&g);
        assert_eq!(s.max_degree, 0);
        assert!(!s.is_skewed(1.5));
    }

    #[test]
    fn distribution_buckets() {
        let mut d = DegreeDistribution::default();
        d.add(0);
        d.add(1);
        d.add(2);
        d.add(3);
        d.add(8);
        assert_eq!(d.zero, 1);
        assert_eq!(d.buckets[0], 1); // degree 1
        assert_eq!(d.buckets[1], 2); // degrees 2, 3
        assert_eq!(d.buckets[3], 1); // degree 8
        assert_eq!(d.total(), 5);
    }

    #[test]
    fn top_k_orders_by_degree_then_id() {
        let degrees = vec![3, 5, 5, 1, 0];
        assert_eq!(top_k_by_degree(&degrees, 3), vec![1, 2, 0]);
        assert_eq!(top_k_by_degree(&degrees, 10).len(), 5);
    }

    /// The comparator sort the counting sort replaced.
    fn sorted_top_k(degrees: &[u32], k: usize) -> Vec<VertexId> {
        let mut order: Vec<VertexId> = (0..degrees.len() as u32).collect();
        order.sort_by(|&a, &b| {
            degrees[b as usize]
                .cmp(&degrees[a as usize])
                .then_with(|| a.cmp(&b))
        });
        order.truncate(k);
        order
    }

    #[test]
    fn top_k_matches_the_comparator_sort() {
        let n = 300usize;
        // A star: one vertex of degree |V| − 1, the rest of degree 1.
        let mut star = vec![1u32; n];
        star[137] = n as u32 - 1;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut skewed = || {
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    // Many ties, degree-0 vertices, and a heavy head.
                    let r = (state >> 33) as u32;
                    if r.is_multiple_of(7) {
                        0
                    } else {
                        (r % 5).pow(r % 4)
                    }
                })
                .collect::<Vec<u32>>()
        };
        let inputs = [
            vec![],
            vec![0u32; n],
            vec![4u32; n],
            star,
            skewed(),
            skewed(),
            (0..n as u32).collect(),
            (0..n as u32).rev().collect(),
        ];
        for degrees in &inputs {
            for k in [0, 1, 2, 30, n / 2, n - 1, n, n + 5] {
                assert_eq!(
                    top_k_by_degree(degrees, k),
                    sorted_top_k(degrees, k),
                    "k {k} degrees {degrees:?}"
                );
            }
        }
    }

    #[test]
    fn powerlaw_exponent_needs_enough_buckets() {
        let mut d = DegreeDistribution::default();
        d.add(1);
        d.add(2);
        assert_eq!(d.powerlaw_exponent(), None);
    }

    #[test]
    fn powerlaw_exponent_of_synthetic_powerlaw() {
        // Bucket counts following density ∝ d^-2.5 exactly.
        let mut d = DegreeDistribution::default();
        for k in 0..10u32 {
            let deg = 1u64 << k;
            // density(d) = d^-2.5, count over bucket width 2^k:
            let count = ((1.5 * deg as f64).powf(-2.5) * deg as f64 * 1e9) as u64;
            d.buckets.push(count.max(1));
        }
        let alpha = d.powerlaw_exponent().expect("enough buckets");
        assert!((alpha - 2.5).abs() < 0.1, "alpha {alpha}");
    }

    #[test]
    fn star_distribution_has_tail() {
        let g = star(64);
        let d = DegreeDistribution::of(&g);
        assert_eq!(d.total(), 64);
        // 63 leaves in bucket 0, one hub in the top bucket.
        assert_eq!(d.buckets[0], 63);
        assert_eq!(*d.buckets.last().unwrap(), 1);
    }
}
