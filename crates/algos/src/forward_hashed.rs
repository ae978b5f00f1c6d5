//! Forward-hashed triangle counting (Schank & Wagner; paper §6.1).
//!
//! The Forward algorithm with a hash container replacing the merge join:
//! for each vertex the lower-neighbour list is loaded into a hash set once,
//! then each neighbour's list probes it. Saves re-scanning `N⁻(v)` for
//! every neighbour at the cost of hashing instructions — the trade-off the
//! paper cites when arguing merge join is better for short lists (§4.4.3).

use std::time::{Duration, Instant};

use rayon::prelude::*;

use lotus_graph::{Csr, UndirectedCsr};
use lotus_resilience::{RunGuard, StopReason};

use crate::intersect::hash::HashSide;
use crate::preprocess::degree_order_and_orient;

/// End-to-end result of a forward-hashed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardHashedResult {
    /// Total triangles.
    pub triangles: u64,
    /// Preprocessing time.
    pub preprocess: Duration,
    /// Counting time.
    pub count: Duration,
}

impl ForwardHashedResult {
    /// End-to-end duration.
    pub fn total_time(&self) -> Duration {
        self.preprocess + self.count
    }
}

/// Counts triangles of an oriented forward graph with per-vertex hash sets.
///
/// The hash set is part of the rayon fold accumulator, so each worker
/// reuses one allocation across its whole vertex range.
pub fn count_oriented_hashed(forward: &Csr<u32>) -> u64 {
    (0..forward.num_vertices())
        .into_par_iter()
        .fold(
            || (HashSide::<u32>::new(), 0u64),
            |(mut side, mut total), v| {
                let nv = forward.neighbors(v);
                rayon::sched::log_read(nv, "forward_hashed.n_minus");
                if nv.len() >= 2 {
                    side.fill(nv);
                    for &u in nv {
                        total += side.count(forward.neighbors(u));
                    }
                }
                (side, total)
            },
        )
        .map(|(_, total)| total)
        .sum()
}

/// Runs forward-hashed TC end-to-end with degree ordering.
pub fn forward_hashed_count_timed(graph: &UndirectedCsr) -> ForwardHashedResult {
    let pre_start = Instant::now();
    let pre = degree_order_and_orient(graph);
    let preprocess = pre_start.elapsed();

    let count_start = Instant::now();
    let triangles = count_oriented_hashed(&pre.forward);
    ForwardHashedResult {
        triangles,
        preprocess,
        count: count_start.elapsed(),
    }
}

/// Guarded variant of [`count_oriented_hashed`]: polls the guard every
/// 256 vertices; each worker keeps its reusable hash set. On a stop,
/// returns the partial sum with the reason.
///
/// # Errors
/// Returns the guard's stop reason together with the partial sum
/// accumulated before the stop.
pub fn count_oriented_hashed_guarded(
    forward: &Csr<u32>,
    guard: &RunGuard,
) -> Result<u64, (StopReason, u64)> {
    let poll = guard.poll_every(256);
    let partial = (0..forward.num_vertices())
        .into_par_iter()
        .fold(
            || (HashSide::<u32>::new(), 0u64),
            |(mut side, mut total), v| {
                if poll.stopped(v as usize) {
                    return (side, total);
                }
                let nv = forward.neighbors(v);
                rayon::sched::log_read(nv, "forward_hashed.n_minus");
                if nv.len() >= 2 {
                    side.fill(nv);
                    for &u in nv {
                        total += side.count(forward.neighbors(u));
                    }
                }
                (side, total)
            },
        )
        .map(|(_, total)| total)
        .sum();
    poll.finish(partial)
}

/// End-to-end guarded forward-hashed count: orientation (guard checked
/// before and after) plus guarded counting. This is the driver of the
/// memory-budget fallback path in `lotus-core`.
///
/// # Errors
/// Returns the guard's stop reason together with the partial count
/// (0 when orientation itself was interrupted).
pub fn forward_hashed_count_guarded(
    graph: &UndirectedCsr,
    guard: &RunGuard,
) -> Result<u64, (StopReason, u64)> {
    if let Some(reason) = guard.should_stop() {
        return Err((reason, 0));
    }
    let forward = degree_order_and_orient(graph).forward;
    if let Some(reason) = guard.should_stop() {
        return Err((reason, 0));
    }
    count_oriented_hashed_guarded(&forward, guard)
}

/// Convenience: triangle count only.
pub fn forward_hashed_count(graph: &UndirectedCsr) -> u64 {
    forward_hashed_count_timed(graph).triangles
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_graph::builder::graph_from_edges;

    #[test]
    fn counts_k4() {
        let g = graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(forward_hashed_count(&g), 4);
    }

    #[test]
    fn counts_petersen_graph() {
        // The Petersen graph is triangle-free.
        let outer = (0..5).map(|i| (i, (i + 1) % 5));
        let spokes = (0..5).map(|i| (i, i + 5));
        let inner = (0..5).map(|i| (i + 5, (i + 2) % 5 + 5));
        let g = graph_from_edges(outer.chain(spokes).chain(inner));
        assert_eq!(forward_hashed_count(&g), 0);
    }

    #[test]
    fn agrees_with_forward_on_rmat() {
        let g = lotus_gen::Rmat::new(9, 10).generate(31);
        assert_eq!(forward_hashed_count(&g), crate::forward::forward_count(&g));
    }
}
