//! Load-balance comparison: edge-balanced partitioning vs squared edge
//! tiling (paper Table 9, §5.8).
//!
//! Table 9 measures per-thread idle time during phase 1. This module
//! provides two measurements:
//!
//! * a **deterministic list-scheduling model** — every task's cost is its
//!   exact pair count; tasks are dispatched greedily to the earliest-free
//!   of `T` virtual workers. This reproduces the load-balance effect
//!   regardless of the physical core count (the substitution for a
//!   128-thread machine, DESIGN.md §3);
//! * a **real threaded measurement** — `T` OS threads drain a shared task
//!   queue while timing their busy intervals (meaningful when the host
//!   actually has multiple cores).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use lotus_algos::intersect::Bitmap;
use lotus_core::count::count_single_tile;
use lotus_core::tiling::{make_tiles, SqrtFractions, Tile};
use lotus_core::LotusGraph;
use lotus_graph::partition::edge_balanced;

/// Result of an idle-time measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleTimes {
    /// Mean worker idle share of the makespan, in `[0, 1)`.
    pub average_idle: f64,
    /// Number of tasks scheduled.
    pub tasks: usize,
    /// Number of workers.
    pub workers: usize,
}

/// Phase-1 pair count of a vertex-range task under edge-balanced
/// partitioning: `Σ_v d(v)(d(v)−1)/2` over HE degrees.
fn range_pair_work(lg: &LotusGraph, start: u32, end: u32) -> u64 {
    (start..end)
        .map(|v| {
            let d = lg.he.degree(v) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum()
}

/// Greedy list scheduling of task costs onto `workers` workers (each task
/// goes to the earliest-free worker, modelling a dynamic work queue).
/// Returns the mean idle fraction of the makespan.
pub fn schedule_idle(costs: &[u64], workers: usize) -> f64 {
    assert!(workers >= 1);
    let mut finish = vec![0u64; workers];
    for &c in costs {
        let idx = finish
            .iter()
            .enumerate()
            .min_by_key(|&(_, &f)| f)
            .map_or(0, |(i, _)| i);
        finish[idx] += c;
    }
    let makespan = finish.iter().copied().max().unwrap_or(0);
    if makespan == 0 {
        return 0.0;
    }
    let idle: u64 = finish.iter().map(|&f| makespan - f).sum();
    idle as f64 / (makespan as f64 * workers as f64)
}

/// Models Table 9's *edge balanced* row: the HE sub-graph is cut into
/// `256 × workers` contiguous ranges with equal edge counts (the paper's
/// comparison policy), whose phase-1 pair work is then list-scheduled.
pub fn edge_balanced_idle(lg: &LotusGraph, workers: usize) -> IdleTimes {
    let ranges = edge_balanced(&lg.he, 256 * workers);
    let costs: Vec<u64> = ranges
        .iter()
        .map(|r| range_pair_work(lg, r.start, r.end))
        .collect();
    IdleTimes {
        average_idle: schedule_idle(&costs, workers),
        tasks: costs.len(),
        workers,
    }
}

/// Models Table 9's *squared edge tiling* row: phase-1 tiles (threshold
/// 512, `2 × workers` partitions per vertex) are list-scheduled.
pub fn squared_tiling_idle(lg: &LotusGraph, workers: usize, threshold: u32) -> IdleTimes {
    let tiles = make_tiles(&lg.he, threshold, 2 * workers);
    let costs: Vec<u64> = tiles.iter().map(Tile::work).collect();
    IdleTimes {
        average_idle: schedule_idle(&costs, workers),
        tasks: costs.len(),
        workers,
    }
}

/// Real threaded execution of phase-1 tiles over a shared queue, timing
/// each worker's busy interval. Returns `(idle, hhh_hhn_found)`.
pub fn measure_idle_threaded(lg: &LotusGraph, workers: usize, threshold: u32) -> (IdleTimes, u64) {
    let tiles = make_tiles(&lg.he, threshold, 2 * workers);
    let next = AtomicUsize::new(0);
    let found = AtomicU64::new(0);
    let busy_ns: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();

    let wall = Instant::now();
    std::thread::scope(|s| {
        for busy in &busy_ns {
            let next = &next;
            let found = &found;
            let tiles = &tiles;
            s.spawn(move || {
                let mut local = 0u64;
                let mut marks = Bitmap::new(lg.hub_count as usize);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tiles.len() {
                        break;
                    }
                    let t = &tiles[i];
                    let start = Instant::now();
                    local += count_single_tile(&lg.h2h, &mut marks, lg.hub_neighbors(t.v), t);
                    busy.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                found.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    let makespan = wall.elapsed().as_nanos() as f64;

    let idle = if makespan == 0.0 {
        0.0
    } else {
        busy_ns
            .iter()
            .map(|b| 1.0 - (b.load(Ordering::Relaxed) as f64 / makespan).min(1.0))
            .sum::<f64>()
            / workers as f64
    };
    (
        IdleTimes {
            average_idle: idle,
            tasks: tiles.len(),
            workers,
        },
        found.into_inner(),
    )
}

/// Re-exported tiling helper so report binaries can sweep partition counts.
pub fn tiling_fractions(partitions: usize) -> SqrtFractions {
    SqrtFractions::new(partitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_core::config::{HubCount, LotusConfig};
    use lotus_core::preprocess::build_lotus_graph;

    fn skewed_lotus_graph() -> LotusGraph {
        let g = lotus_gen::Rmat::new(11, 16).generate(3);
        let cfg = LotusConfig::default().with_hub_count(HubCount::Fixed(128));
        build_lotus_graph(&g, &cfg)
    }

    #[test]
    fn schedule_idle_balanced_tasks() {
        // 8 equal tasks over 4 workers → zero idle.
        assert_eq!(schedule_idle(&[5; 8], 4), 0.0);
    }

    #[test]
    fn schedule_idle_single_giant_task() {
        // One giant task among tiny ones → ~3/4 idle with 4 workers.
        let idle = schedule_idle(&[1000, 1, 1, 1], 4);
        assert!(idle > 0.7, "{idle}");
    }

    #[test]
    fn tiling_beats_edge_balanced_on_skewed_graph() {
        // Table 9's claim: squared edge tiling has (much) lower idle time.
        let lg = skewed_lotus_graph();
        let eb = edge_balanced_idle(&lg, 16);
        let set = squared_tiling_idle(&lg, 16, 512);
        assert!(
            set.average_idle <= eb.average_idle,
            "tiling {:.3} vs edge-balanced {:.3}",
            set.average_idle,
            eb.average_idle
        );
        assert!(
            set.average_idle < 0.10,
            "tiling idle {:.3}",
            set.average_idle
        );
    }

    #[test]
    fn threaded_measurement_counts_correctly() {
        let lg = skewed_lotus_graph();
        let tiles = make_tiles(&lg.he, 512, 8);
        let expected = lotus_core::count::count_hub_phase(&lg, &tiles);
        let (_idle, found) = measure_idle_threaded(&lg, 4, 512);
        assert_eq!(found, expected.0 + expected.1);
    }

    #[test]
    fn idle_times_fields() {
        let lg = skewed_lotus_graph();
        let r = squared_tiling_idle(&lg, 2, 512);
        assert_eq!(r.workers, 2);
        assert!(r.tasks > 0);
        assert!((0.0..1.0).contains(&r.average_idle));
    }
}
