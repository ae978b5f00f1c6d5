//! Blocked HNN counting (paper §7, second future-work item).
//!
//! Phase 2's random accesses hit `HE.N_u` for the non-hub neighbours `u`
//! of each vertex — scattered over the whole HE entry array. The paper
//! proposes "applying blocking strategies [Im & Yelick] to limit the
//! domain of random accesses": partition the `u` space into contiguous
//! blocks and make one pass per block, so the HE lists touched in a pass
//! span a cache-sized window.
//!
//! Because NHE lists are sorted, the `u`-range of each pass is a
//! contiguous sub-slice found by binary search — the extra traversal cost
//! is `O(log)` per list per pass, traded against locality.

use crate::kernel::{fold_vertices, hnn_vertex, ChunkBitmaps};
use crate::structure::LotusGraph;

/// Counts HNN triangles in `u`-blocks of `2^block_bits` vertices each.
///
/// Equivalent to [`crate::count::count_hnn_phase`], with the same
/// per-vertex kernel; the block size only affects locality.
pub fn count_hnn_blocked(lg: &LotusGraph, block_bits: u32) -> u64 {
    let n = lg.num_vertices();
    if n == 0 {
        return 0;
    }
    let block = 1u64 << block_bits;
    let blocks = (n as u64).div_ceil(block);
    let mut total = 0u64;
    for b in 0..blocks {
        let lo = (b * block) as u32;
        let hi = ((b + 1) * block).min(n as u64) as u32;
        total += fold_vertices(
            lg,
            &(),
            || ChunkBitmaps::new(lg, true, 0),
            |s, (), v| {
                let nhe_v = lg.nonhub_neighbors(v);
                // Contiguous sub-slice of neighbours inside [lo, hi).
                let start = nhe_v.partition_point(|&u| u < lo);
                let end = nhe_v.partition_point(|&u| u < hi);
                hnn_vertex(lg, &mut s.hubs, v, &nhe_v[start..end], |_, _| {})
            },
            |a, b| a + b,
        );
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HubCount, LotusConfig};
    use crate::count::count_hnn_phase;
    use crate::preprocess::build_lotus_graph;

    fn lotus_graph(seed: u64) -> LotusGraph {
        let g = lotus_gen::Rmat::new(10, 10).generate(seed);
        let cfg = LotusConfig::default().with_hub_count(HubCount::Fixed(64));
        build_lotus_graph(&g, &cfg)
    }

    #[test]
    fn blocked_matches_plain_for_all_block_sizes() {
        let lg = lotus_graph(3);
        let want = count_hnn_phase(&lg);
        for bits in [2u32, 6, 9, 12, 30] {
            assert_eq!(count_hnn_blocked(&lg, bits), want, "block_bits {bits}");
        }
    }

    #[test]
    fn single_block_degenerates_to_plain() {
        let lg = lotus_graph(5);
        assert_eq!(count_hnn_blocked(&lg, 31), count_hnn_phase(&lg));
    }

    #[test]
    fn empty_graph() {
        let g = lotus_graph::builder::graph_from_edges(std::iter::empty());
        let lg = build_lotus_graph(&g, &LotusConfig::default());
        assert_eq!(count_hnn_blocked(&lg, 8), 0);
    }
}
