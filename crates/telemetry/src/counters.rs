//! Process-wide work counters for the counting kernels.
//!
//! Each [`Counter`] is a cache-line-padded relaxed `AtomicU64`; call
//! sites batch locally (per tile, per vertex, per intersection) before
//! adding, so the probe effect of an instrumented build stays small.
//! Without the `telemetry` feature every function here is an empty
//! `#[inline(always)]` body and the statics are never emitted.

/// A named work counter. Names are stable: they are the keys of the
/// `counters` object in `BENCH.json` (schema v1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Sorted-list intersections performed (merge, gallop, hash...).
    Intersections,
    /// Merge-join loop steps: the streaming, cache-friendly work of the
    /// HNN/NNN phases and the Forward baselines.
    MergeSteps,
    /// Intersections that found no common neighbour — the fruitless
    /// work the paper's hub pruning is designed to avoid (§3.3).
    FruitlessIntersections,
    /// Dense bitmap membership probes (new-vertex-listing kernels).
    BitmapProbes,
    /// H2H triangular bit-array probes (phase 1 hub-pair tests).
    H2hProbes,
    /// H2H probes that hit a set bit (found an HHH/HHN triangle).
    H2hHits,
    /// Squared-edge tiles processed by phase 1 (§4.6).
    TileVisits,
    /// Memory-budget degradations applied (hub shrink or fallback).
    DegradedRuns,
    /// Cooperative stops (cancellation / deadline) observed by a phase.
    GuardStops,
    /// Worker panics confined by phase isolation.
    PhasePanics,
    /// Chunks executed by the work-stealing pool (drivers and workers).
    PoolTasks,
    /// Deque entries stolen by an idle worker (steal-half events).
    PoolSteals,
    /// Times a worker parked on the condvar for lack of work.
    PoolParks,
}

impl Counter {
    /// Every counter, in schema order.
    pub const ALL: [Counter; 13] = [
        Counter::Intersections,
        Counter::MergeSteps,
        Counter::FruitlessIntersections,
        Counter::BitmapProbes,
        Counter::H2hProbes,
        Counter::H2hHits,
        Counter::TileVisits,
        Counter::DegradedRuns,
        Counter::GuardStops,
        Counter::PhasePanics,
        Counter::PoolTasks,
        Counter::PoolSteals,
        Counter::PoolParks,
    ];

    /// The stable snake_case name used as the JSON key.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Counter::Intersections => "intersections",
            Counter::MergeSteps => "merge_steps",
            Counter::FruitlessIntersections => "fruitless_intersections",
            Counter::BitmapProbes => "bitmap_probes",
            Counter::H2hProbes => "h2h_probes",
            Counter::H2hHits => "h2h_hits",
            Counter::TileVisits => "tile_visits",
            Counter::DegradedRuns => "degraded_runs",
            Counter::GuardStops => "guard_stops",
            Counter::PhasePanics => "phase_panics",
            Counter::PoolTasks => "pool_tasks",
            Counter::PoolSteals => "pool_steals",
            Counter::PoolParks => "pool_parks",
        }
    }

    /// Resolves a stable name back to its counter.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }

    // Declaration order matches `ALL`, so the discriminant is the slot.
    #[cfg(feature = "telemetry")]
    fn index(self) -> usize {
        self as usize
    }
}

#[cfg(feature = "telemetry")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::Counter;

    /// One counter per cache line so hot-loop increments from different
    /// worker threads do not false-share.
    #[repr(align(64))]
    struct PaddedU64(AtomicU64);

    static COUNTERS: [PaddedU64; Counter::ALL.len()] =
        [const { PaddedU64(AtomicU64::new(0)) }; Counter::ALL.len()];

    pub(super) fn add(c: Counter, n: u64) {
        COUNTERS[c.index()].0.fetch_add(n, Ordering::Relaxed);
    }

    pub(super) fn get(c: Counter) -> u64 {
        COUNTERS[c.index()].0.load(Ordering::Relaxed)
    }

    pub(super) fn reset() {
        for c in &COUNTERS {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Adds `n` to a counter (no-op without the `telemetry` feature).
#[inline(always)]
pub fn add(c: Counter, n: u64) {
    #[cfg(feature = "telemetry")]
    imp::add(c, n);
    #[cfg(not(feature = "telemetry"))]
    let _ = (c, n);
}

/// Increments a counter by one (no-op without the `telemetry` feature).
#[inline(always)]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Current value of a counter (always zero without the feature).
#[must_use]
pub fn get(c: Counter) -> u64 {
    #[cfg(feature = "telemetry")]
    return imp::get(c);
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = c;
        0
    }
}

/// Zeroes every counter.
pub fn reset() {
    #[cfg(feature = "telemetry")]
    imp::reset();
}

/// A point-in-time copy of all counter values, in schema order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: Vec<(Counter, u64)>,
}

impl CounterSnapshot {
    /// The value a counter had when the snapshot was taken.
    #[must_use]
    pub fn get(&self, c: Counter) -> u64 {
        self.values
            .iter()
            .find(|(k, _)| *k == c)
            .map_or(0, |(_, v)| *v)
    }

    /// Iterates `(counter, value)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        self.values.iter().copied()
    }

    /// True when every counter was zero (e.g. a `telemetry`-off build).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|(_, v)| *v == 0)
    }
}

/// Copies every counter's current value.
#[must_use]
pub fn snapshot() -> CounterSnapshot {
    CounterSnapshot {
        values: Counter::ALL.into_iter().map(|c| (c, get(c))).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        let mut names: Vec<_> = Counter::ALL.iter().map(Counter::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
        assert_eq!(Counter::from_name("no_such_counter"), None);
    }

    // The no-op proof required by the observability issue: the same
    // instrumentation calls either record (feature on) or are compiled
    // out entirely (feature off, `get` stays zero).
    #[test]
    fn add_records_iff_feature_enabled() {
        let _guard = crate::test_lock();
        reset();
        add(Counter::MergeSteps, 41);
        incr(Counter::MergeSteps);
        if crate::enabled() {
            assert_eq!(get(Counter::MergeSteps), 42);
            assert!(!snapshot().is_zero());
        } else {
            assert_eq!(get(Counter::MergeSteps), 0);
            assert!(snapshot().is_zero());
        }
        reset();
        assert_eq!(get(Counter::MergeSteps), 0);
    }

    #[test]
    fn snapshot_reads_all_counters() {
        let _guard = crate::test_lock();
        reset();
        let s = snapshot();
        assert_eq!(s.iter().count(), Counter::ALL.len());
        assert!(s.is_zero());
    }
}
