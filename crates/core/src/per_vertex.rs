//! Per-vertex (local) triangle counting with the LOTUS phases.
//!
//! Local triangle counts drive the clustering-coefficient and
//! community-detection applications the paper's introduction motivates.
//! Each LOTUS phase knows all three corners of every triangle it finds,
//! so the count runs the one LOTUS driver with a corner sink that credits
//! each corner with a relaxed atomic increment; results are reported in
//! *original* vertex IDs via the stored relabeling.

use std::sync::atomic::{AtomicU64, Ordering};

use lotus_resilience::RunGuard;

use crate::count::{unstoppable, Corners, LotusCounter, LotusResult};
use crate::kernel::{NNN_WINDOW, PAIR_PROBE_CROSSOVER};
use crate::structure::LotusGraph;

/// One triangle counter per vertex (new IDs).
impl Corners for [AtomicU64] {
    #[inline]
    fn credit(&self, a: u32, b: u32, c: u32) {
        for corner in [a, b, c] {
            self[corner as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counts triangles per vertex (original IDs). The sum over all vertices
/// is `3 × total triangles`.
///
/// # Panics
/// Raises a worker's panic again, with the phase it happened in.
pub fn count_per_vertex(lg: &LotusGraph) -> Vec<u64> {
    count_per_vertex_in(lg, NNN_WINDOW, PAIR_PROBE_CROSSOVER)
}

/// [`count_per_vertex`] with a `window`-bit NNN window per chunk and
/// phase-1 rows of at most `crossover` pairs per H2H word probed pair by
/// pair.
pub(crate) fn count_per_vertex_in(lg: &LotusGraph, window: usize, crossover: usize) -> Vec<u64> {
    let counts: Vec<AtomicU64> = (0..lg.num_vertices()).map(|_| AtomicU64::new(0)).collect();
    let (counter, guard) = (LotusCounter::default(), RunGuard::unlimited());
    let run = LotusResult::default();
    unstoppable(counter.run_phases(lg, &guard, &counts[..], window, crossover, run));
    let mut out = vec![0u64; counts.len()];
    for (new_id, count) in counts.into_iter().enumerate() {
        out[lg.relabeling.old_id(new_id as u32) as usize] = count.into_inner();
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
