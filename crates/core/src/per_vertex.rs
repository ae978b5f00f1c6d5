//! Per-vertex (local) triangle counting with the LOTUS phases.
//!
//! Local triangle counts drive the clustering-coefficient and
//! community-detection applications the paper's introduction motivates.
//! Each LOTUS phase knows all three corners of every triangle it finds,
//! so the count runs the one LOTUS driver with a corner sink: each pool
//! chunk credits corners in a plain array of its own and adds it into
//! the sum once, when the chunk ends. Results are reported in *original*
//! vertex IDs via the stored relabeling.

use std::sync::{Mutex, PoisonError};

use lotus_resilience::RunGuard;

use crate::count::{unstoppable, Corners, LotusCounter, LotusResult};
use crate::kernel::{NNN_WINDOW, PAIR_PROBE_CROSSOVER};
use crate::structure::LotusGraph;

/// One triangle counter per vertex (new IDs): the sum of the chunks'
/// tallies, each one counter per vertex too.
struct PerVertex(Mutex<Vec<u64>>, usize);

impl Corners for PerVertex {
    type Tally = Vec<u64>;

    fn tally(&self) -> Vec<u64> {
        vec![0; self.1]
    }

    #[inline]
    fn credit(tally: &mut Vec<u64>, a: u32, b: u32, c: u32) {
        for corner in [a, b, c] {
            tally[corner as usize] += 1;
        }
    }

    fn flush(&self, tally: Vec<u64>) {
        let mut sum = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        for (s, t) in sum.iter_mut().zip(tally) {
            *s += t;
        }
    }
}

/// Counts triangles per vertex (original IDs). The sum over all vertices
/// is `3 × total triangles`.
///
/// # Panics
/// Raises a worker's panic again, with the phase it happened in.
pub fn count_per_vertex(lg: &LotusGraph) -> Vec<u64> {
    let counter = LotusCounter::default();
    count_per_vertex_in(lg, &counter, NNN_WINDOW, PAIR_PROBE_CROSSOVER)
}

/// [`count_per_vertex`] through `counter`'s driver, split or fused, with
/// a `window`-bit NNN window per chunk and phase-1 rows of at most
/// `crossover` pairs per H2H word probed pair by pair.
pub(crate) fn count_per_vertex_in(
    lg: &LotusGraph,
    counter: &LotusCounter,
    window: usize,
    crossover: usize,
) -> Vec<u64> {
    let n = lg.num_vertices() as usize;
    let sink = PerVertex(Mutex::new(vec![0; n]), n);
    let run = LotusResult::default();
    let guard = RunGuard::unlimited();
    unstoppable(counter.run_phases(lg, &guard, &sink, window, crossover, run));
    let counts = sink.0.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut out = vec![0u64; n];
    for (new_id, count) in counts.into_iter().enumerate() {
        out[lg.relabeling.old_id(new_id as u32) as usize] = count;
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

    /// Per-vertex counts equal Forward's at 1 to 4 threads, split and
    /// fused, on graphs of several pool chunks, so that many chunk tallies
    /// are flushed into the sum.
    #[test]
    fn chunk_tallies_sum_to_the_baseline_at_every_thread_count() {
        use crate::count::PAR_GRAIN;
        let rmat = lotus_gen::Rmat::new(13, 8).generate(5);
        let er = lotus_gen::ErdosRenyi::new(5000, 40_000).generate(5);
        for (g, what) in [(&rmat, "rmat"), (&er, "er")] {
            assert!(g.num_vertices() as usize >= 4 * PAR_GRAIN, "{what}");
            let want = lotus_algos::forward::per_vertex_counts(g);
            let lg = build_lotus_graph(g, &LotusConfig::auto(g));
            for threads in 1..=4 {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                for fused in [false, true] {
                    let counter =
                        LotusCounter::new(LotusConfig::default().with_fused_phases(fused));
                    let got = pool.install(|| {
                        count_per_vertex_in(&lg, &counter, NNN_WINDOW, PAIR_PROBE_CROSSOVER)
                    });
                    assert_eq!(got, want, "{what} {threads} threads fused {fused}");
                }
            }
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
