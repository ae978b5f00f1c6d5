//! Per-vertex (local) triangle counting with the LOTUS phases.
//!
//! Local triangle counts drive the clustering-coefficient and
//! community-detection applications the paper's introduction motivates.
//! Each LOTUS phase knows all three corners of every triangle it finds,
//! so the per-type structure extends naturally: corners are credited with
//! relaxed atomic increments, and results are reported in *original*
//! vertex IDs via the stored relabeling.

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;

use crate::count::PAR_GRAIN;
use crate::kernel::{
    fold_chunks, fold_vertices, hnn_vertex, hub_pairs_tile, nnn_vertex, ChunkBitmaps, NNN_WINDOW,
    PAIR_PROBE_CROSSOVER,
};
use crate::structure::LotusGraph;
use crate::tiling::{make_tiles, Tile};

/// Counts triangles per vertex (original IDs). The sum over all vertices
/// is `3 × total triangles`.
pub fn count_per_vertex(lg: &LotusGraph) -> Vec<u64> {
    count_per_vertex_in(lg, NNN_WINDOW, PAIR_PROBE_CROSSOVER)
}

/// [`count_per_vertex`] with a `window`-bit NNN window per chunk and
/// phase-1 rows of at most `crossover` pairs per H2H word probed pair by
/// pair.
pub(crate) fn count_per_vertex_in(lg: &LotusGraph, window: usize, crossover: usize) -> Vec<u64> {
    let n = lg.num_vertices() as usize;
    let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();

    // Phase 1: HHH + HHN — corners are (v, h1, h2).
    let tiles = make_tiles(&lg.he, u32::MAX, 1);
    fold_chunks(
        tiles.par_iter().with_min_len(PAR_GRAIN),
        || ChunkBitmaps::hubs(lg),
        |s, t: &Tile| {
            let he = lg.hub_neighbors(t.v);
            hub_pairs_tile(&lg.h2h, &mut s.hubs, he, t, crossover, |h1, h2| {
                counts[t.v as usize].fetch_add(1, Ordering::Relaxed);
                counts[usize::from(h1)].fetch_add(1, Ordering::Relaxed);
                counts[usize::from(h2)].fetch_add(1, Ordering::Relaxed);
            });
        },
        |(), ()| (),
    );

    // Phase 2: HNN — corners are (v, u, h).
    fold_vertices(
        lg,
        || ChunkBitmaps::hubs(lg),
        |s, v| {
            hnn_vertex(lg, &mut s.hubs, v, lg.nonhub_neighbors(v), |u, h| {
                counts[v as usize].fetch_add(1, Ordering::Relaxed);
                counts[u as usize].fetch_add(1, Ordering::Relaxed);
                counts[h as usize].fetch_add(1, Ordering::Relaxed);
            });
        },
        |(), ()| (),
    );

    // Phase 3: NNN — corners are (v, u, w).
    fold_vertices(
        lg,
        || ChunkBitmaps::nnn(lg, window),
        |s, v| {
            nnn_vertex(lg, &mut s.window, v, |u, w| {
                counts[v as usize].fetch_add(1, Ordering::Relaxed);
                counts[u as usize].fetch_add(1, Ordering::Relaxed);
                counts[w as usize].fetch_add(1, Ordering::Relaxed);
            });
        },
        |(), ()| (),
    );

    // Map back to original IDs.
    let mut out = vec![0u64; n];
    for new_id in 0..n {
        out[lg.relabeling.old_id(new_id as u32) as usize] = counts[new_id].load(Ordering::Relaxed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HubCount, LotusConfig};
    use crate::preprocess::build_lotus_graph;
    use lotus_graph::builder::graph_from_edges;

    fn lotus(g: &lotus_graph::UndirectedCsr, hubs: u32) -> LotusGraph {
        build_lotus_graph(
            g,
            &LotusConfig::default().with_hub_count(HubCount::Fixed(hubs)),
        )
    }

    #[test]
    fn k4_every_vertex_in_three_triangles() {
        let g = graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        for hubs in 0..=4 {
            let lg = lotus(&g, hubs);
            assert_eq!(count_per_vertex(&lg), vec![3, 3, 3, 3], "hubs {hubs}");
        }
    }

    #[test]
    fn matches_baseline_per_vertex_counts() {
        let g = lotus_gen::Rmat::new(9, 8).generate(17);
        let want = lotus_algos::forward::per_vertex_counts(&g);
        for hubs in [0u32, 16, 128] {
            let lg = lotus(&g, hubs);
            assert_eq!(count_per_vertex(&lg), want, "hubs {hubs}");
        }
    }

    #[test]
    fn sum_is_three_times_total() {
        let g = lotus_gen::Rmat::new(9, 10).generate(23);
        let lg = lotus(&g, 64);
        let total = crate::count::LotusCounter::default()
            .count_prepared(&lg)
            .total();
        let pv = count_per_vertex(&lg);
        assert_eq!(pv.iter().sum::<u64>(), 3 * total);
    }
}
