//! The Forward algorithm (paper Algorithm 1) — the baseline LOTUS is
//! measured against and the strategy used by GAP's triangle counter.
//!
//! After degree-descending relabeling, each vertex keeps only its lower-ID
//! neighbours (`N⁻`); for every `v` and every `u ∈ N⁻(v)` the count of
//! `|N⁻(v) ∩ N⁻(u)|` is accumulated. Each triangle `(a < b < c)` is found
//! exactly once, at `v = c`, `u = b`.

use std::time::{Duration, Instant};

use rayon::prelude::*;

use lotus_graph::{Csr, UndirectedCsr};
use lotus_resilience::{fault_point, RunGuard, StopReason};

use crate::intersect::IntersectKind;
use crate::preprocess::degree_order_and_orient;

/// End-to-end result of a Forward run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardResult {
    /// Total triangles.
    pub triangles: u64,
    /// Time spent relabeling and orienting.
    pub preprocess: Duration,
    /// Time spent counting.
    pub count: Duration,
}

impl ForwardResult {
    /// End-to-end duration (the paper reports end-to-end times, §5.1.4).
    pub fn total_time(&self) -> Duration {
        self.preprocess + self.count
    }
}

/// Configurable Forward counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForwardCounter {
    /// Intersection kernel for the inner loop.
    pub kernel: IntersectKind,
    /// Skip degree ordering (count on the input ordering directly).
    /// The paper's §5.5 notes this is competitive for graphs with a very
    /// small number of very-high-degree hubs.
    pub skip_relabel: bool,
}

impl ForwardCounter {
    /// A counter with merge-join intersection and degree ordering.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the intersection kernel.
    pub fn with_kernel(mut self, kernel: IntersectKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Toggles degree ordering.
    pub fn with_relabel(mut self, relabel: bool) -> Self {
        self.skip_relabel = !relabel;
        self
    }

    /// Runs end-to-end: preprocessing plus counting.
    pub fn count(&self, graph: &UndirectedCsr) -> ForwardResult {
        let pre_start = Instant::now();
        let forward = if self.skip_relabel {
            graph.forward_graph()
        } else {
            degree_order_and_orient(graph).forward
        };
        let preprocess = pre_start.elapsed();

        let count_start = Instant::now();
        let triangles = count_oriented(&forward, self.kernel);
        ForwardResult {
            triangles,
            preprocess,
            count: count_start.elapsed(),
        }
    }
}

/// Counts triangles of an already-oriented forward graph (each list holds
/// only lower-ID neighbours, sorted ascending).
pub fn count_oriented(forward: &Csr<u32>, kernel: IntersectKind) -> u64 {
    (0..forward.num_vertices())
        .into_par_iter()
        .map(|v| {
            let nv = forward.neighbors(v);
            rayon::sched::log_read(nv, "forward.n_minus");
            let mut local = 0u64;
            for &u in nv {
                local += kernel.count(nv, forward.neighbors(u));
            }
            local
        })
        .sum()
}

/// Guarded variant of [`count_oriented`]: polls the guard every 256
/// vertices. On a stop, returns the partial sum accumulated so far with
/// the reason.
///
/// # Errors
/// Returns the guard's stop reason together with the partial sum
/// accumulated before the stop.
pub fn count_oriented_guarded(
    forward: &Csr<u32>,
    kernel: IntersectKind,
    guard: &RunGuard,
) -> Result<u64, (StopReason, u64)> {
    let poll = guard.poll_every(256);
    let partial = (0..forward.num_vertices())
        .into_par_iter()
        .map(|v| {
            if poll.stopped(v as usize) {
                return 0;
            }
            let nv = forward.neighbors(v);
            rayon::sched::log_read(nv, "forward.n_minus");
            let mut local = 0u64;
            for &u in nv {
                local += kernel.count(nv, forward.neighbors(u));
            }
            local
        })
        .sum();
    poll.finish(partial)
}

/// End-to-end guarded Forward count with degree ordering: orients the
/// graph (checking the guard before and after), then counts under the
/// guard. Partial counts from an interrupted counting loop are returned
/// with the reason; an interruption during orientation reports 0.
///
/// # Errors
/// Returns the guard's stop reason together with the partial count
/// (0 when orientation itself was interrupted).
pub fn forward_count_guarded(
    graph: &UndirectedCsr,
    guard: &RunGuard,
) -> Result<u64, (StopReason, u64)> {
    fault_point!(panic: "algos.forward.count");
    if let Some(reason) = guard.should_stop() {
        return Err((reason, 0));
    }
    let forward = degree_order_and_orient(graph).forward;
    if let Some(reason) = guard.should_stop() {
        return Err((reason, 0));
    }
    count_oriented_guarded(&forward, IntersectKind::default(), guard)
}

/// Convenience: end-to-end Forward count with default settings.
pub fn forward_count(graph: &UndirectedCsr) -> u64 {
    ForwardCounter::new().count(graph).triangles
}

/// Per-vertex triangle participation counts (each triangle increments all
/// three of its corners), computed with the Forward orientation. Used by
/// clustering-coefficient applications.
pub fn per_vertex_counts(graph: &UndirectedCsr) -> Vec<u64> {
    use std::sync::atomic::{AtomicU64, Ordering};
    let forward = graph.forward_graph();
    let counts: Vec<AtomicU64> = (0..graph.num_vertices())
        .map(|_| AtomicU64::new(0))
        .collect();
    (0..forward.num_vertices()).into_par_iter().for_each(|v| {
        let nv = forward.neighbors(v);
        for &u in nv {
            crate::intersect::merge::merge_for_each(nv, forward.neighbors(u), |w| {
                counts[v as usize].fetch_add(1, Ordering::Relaxed);
                counts[u as usize].fetch_add(1, Ordering::Relaxed);
                counts[w as usize].fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    counts
        .into_iter()
        .map(std::sync::atomic::AtomicU64::into_inner)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_graph::builder::graph_from_edges;

    fn k4() -> UndirectedCsr {
        graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn counts_k4() {
        assert_eq!(forward_count(&k4()), 4);
    }

    #[test]
    fn counts_triangle_with_tail() {
        let g = graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(forward_count(&g), 1);
    }

    #[test]
    fn counts_triangle_free_graph() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]); // 4-cycle
        assert_eq!(forward_count(&g), 0);
    }

    #[test]
    fn all_kernels_agree() {
        let g = k4();
        for k in IntersectKind::ALL {
            let r = ForwardCounter::new().with_kernel(k).count(&g);
            assert_eq!(r.triangles, 4, "kernel {k:?}");
        }
    }

    #[test]
    fn skip_relabel_is_still_correct() {
        let g = k4();
        let r = ForwardCounter::new().with_relabel(false).count(&g);
        assert_eq!(r.triangles, 4);
    }

    #[test]
    fn per_vertex_counts_k4() {
        // Every vertex of K4 is in 3 triangles.
        assert_eq!(per_vertex_counts(&k4()), vec![3, 3, 3, 3]);
    }

    #[test]
    fn per_vertex_counts_sum_is_three_t() {
        let g = graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        let pv = per_vertex_counts(&g);
        assert_eq!(pv.iter().sum::<u64>(), 3 * forward_count(&g));
    }

    #[test]
    fn result_total_time_adds_up() {
        let r = ForwardCounter::new().count(&k4());
        assert_eq!(r.total_time(), r.preprocess + r.count);
    }
}
