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

use lotus_algos::intersect::merge::merge_for_each;

use crate::count::PAR_GRAIN;
use crate::structure::LotusGraph;
use crate::tiling::{make_tiles, Tile};

/// Counts triangles per vertex (original IDs). The sum over all vertices
/// is `3 × total triangles`.
pub fn count_per_vertex(lg: &LotusGraph) -> Vec<u64> {
    let n = lg.num_vertices() as usize;
    let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();

    // Phase 1: HHH + HHN — corners are (v, h1, h2).
    let tiles = make_tiles(&lg.he, u32::MAX, 1);
    tiles
        .par_iter()
        .with_min_len(PAR_GRAIN)
        .for_each(|t: &Tile| {
            let he = lg.hub_neighbors(t.v);
            rayon::sched::log_read(he, "per_vertex.phase1.he");
            for i in t.begin..t.end {
                let h1 = he[i as usize] as u32;
                let base = crate::h2h::TriBitArray::row_base(h1);
                for &h2 in &he[..i as usize] {
                    if lg.h2h.is_set_with_base(base, h2 as u32) {
                        counts[t.v as usize].fetch_add(1, Ordering::Relaxed);
                        counts[h1 as usize].fetch_add(1, Ordering::Relaxed);
                        counts[h2 as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });

    let vertices = || {
        (0..lg.num_vertices())
            .into_par_iter()
            .with_min_len(PAR_GRAIN)
    };

    // Phase 2: HNN — corners are (v, u, h).
    vertices().for_each(|v| {
        let he_v = lg.hub_neighbors(v);
        if he_v.is_empty() {
            return;
        }
        rayon::sched::log_read(he_v, "per_vertex.phase2.he");
        for &u in lg.nonhub_neighbors(v) {
            merge_for_each(he_v, lg.hub_neighbors(u), |h| {
                counts[v as usize].fetch_add(1, Ordering::Relaxed);
                counts[u as usize].fetch_add(1, Ordering::Relaxed);
                counts[h as usize].fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    // Phase 3: NNN — corners are (v, u, w).
    vertices().for_each(|v| {
        let nhe_v = lg.nonhub_neighbors(v);
        rayon::sched::log_read(nhe_v, "per_vertex.phase3.nhe");
        for &u in nhe_v {
            merge_for_each(nhe_v, lg.nonhub_neighbors(u), |w| {
                counts[v as usize].fetch_add(1, Ordering::Relaxed);
                counts[u as usize].fetch_add(1, Ordering::Relaxed);
                counts[w as usize].fetch_add(1, Ordering::Relaxed);
            });
        }
    });

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
