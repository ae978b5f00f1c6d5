//! LOTUS triangle counting (paper Algorithm 3).
//!
//! Three phases over the [`LotusGraph`]:
//!
//! 1. **HHH + HHN** — for every vertex, probe all pairs of its hub
//!    neighbours in the H2H bit array. Work is distributed as squared-edge
//!    tiles (§4.6) so the quadratic pair loop of high-degree vertices is
//!    split evenly.
//! 2. **HNN** — for every non-hub edge `(v, u)`, merge-join the 16-bit HE
//!    lists of `v` and `u`.
//! 3. **NNN** — for every non-hub edge `(v, u)`, merge-join the 32-bit NHE
//!    lists, never touching hub edges.
//!
//! The HNN and NNN loops run over the same edge set but are deliberately
//! *not* fused (§4.5): each phase's random accesses then target a single
//! small structure. The fused variant is available as an ablation via
//! [`LotusConfig::with_fused_phases`].

// `CountError` deliberately carries the partial per-type counts and the
// per-phase breakdown (~137 bytes); guarded runs are once-per-invocation,
// so the large Err is never on a hot path.
#![allow(clippy::result_large_err)]

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use rayon::prelude::*;

use lotus_algos::intersect::count_merge;
use lotus_graph::UndirectedCsr;
use lotus_resilience::{fault_point, isolate, RunGuard, StopReason};
use lotus_telemetry::{counters, Counter, Span, SpanId};

use crate::breakdown::Breakdown;
use crate::config::LotusConfig;
use crate::h2h::TriBitArray;
use crate::preprocess::{build_lotus_graph, build_lotus_graph_guarded};
use crate::stats::LotusStats;
use crate::structure::LotusGraph;
use crate::tiling::{make_tiles, Tile};

/// Fewest vertices or tiles per pool chunk in the counting,
/// preprocessing, per-vertex and k-clique loops. A large graph still
/// splits into many chunks, which idle threads steal from the hub-heavy
/// front; a graph of under twice this many vertices (a served
/// request's, say) counts inline on the calling thread, whose peers are
/// busy with requests of their own.
pub(crate) const PAR_GRAIN: usize = 1024;

/// Result of a LOTUS run: per-type counts and per-phase timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LotusResult {
    /// Per-type triangle counts and edge-split statistics.
    pub stats: LotusStats,
    /// Per-phase wall times.
    pub breakdown: Breakdown,
}

impl LotusResult {
    /// Total triangle count.
    pub fn total(&self) -> u64 {
        self.stats.total()
    }
}

/// A stage of the LOTUS pipeline, named in structured errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Algorithm 2: relabeling and sub-graph construction.
    Preprocess,
    /// Phase 1: HHH + HHN over the H2H bit array.
    HhhHhn,
    /// Phase 2: HNN over the HE lists.
    Hnn,
    /// Phase 3: NNN over the NHE lists.
    Nnn,
    /// The forward-hashed fallback driver of the memory-budget
    /// degradation path (see [`crate::resilient`]).
    Fallback,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Preprocess => write!(f, "preprocess"),
            Phase::HhhHhn => write!(f, "hhh+hhn"),
            Phase::Hnn => write!(f, "hnn"),
            Phase::Nnn => write!(f, "nnn"),
            Phase::Fallback => write!(f, "fallback"),
        }
    }
}

/// Failure of a guarded run ([`LotusCounter::count_guarded`]): either a
/// cooperative stop (cancellation/deadline) or an isolated worker panic.
/// Both carry the per-phase timings and per-type counts accumulated
/// before the failure, so callers can report partial progress.
///
/// For [`Phase::Fallback`] interruptions the partial count of the
/// fallback driver is reported in `partial.nnn` (the fallback does not
/// distinguish triangle types).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CountError {
    /// The run was stopped cooperatively by its [`RunGuard`].
    Interrupted {
        /// The phase that observed the stop condition.
        phase: Phase,
        /// Why the run stopped.
        reason: StopReason,
        /// Counts completed before the stop (phases after `phase` are
        /// zero; `phase` itself holds a partial count).
        partial: LotusStats,
        /// Per-phase wall times up to and including the stopped phase.
        breakdown: Breakdown,
    },
    /// A worker panicked; the panic was confined to its phase.
    PhasePanic {
        /// The phase whose worker panicked.
        phase: Phase,
        /// The stringified panic payload.
        message: String,
        /// Counts completed by the phases before the panic.
        partial: LotusStats,
        /// Per-phase wall times up to the panicking phase.
        breakdown: Breakdown,
    },
}

impl CountError {
    /// The phase in which the run failed.
    pub fn phase(&self) -> Phase {
        match self {
            CountError::Interrupted { phase, .. } | CountError::PhasePanic { phase, .. } => *phase,
        }
    }

    /// The per-type counts accumulated before the failure.
    pub fn partial(&self) -> &LotusStats {
        match self {
            CountError::Interrupted { partial, .. } | CountError::PhasePanic { partial, .. } => {
                partial
            }
        }
    }
}

impl fmt::Display for CountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountError::Interrupted {
                phase,
                reason,
                partial,
                ..
            } => write!(
                f,
                "interrupted ({reason}) during phase {phase}; {} triangles counted so far",
                partial.total()
            ),
            CountError::PhasePanic {
                phase,
                message,
                partial,
                ..
            } => write!(
                f,
                "worker panic in phase {phase}: {message}; {} triangles counted before the panic",
                partial.total()
            ),
        }
    }
}

impl std::error::Error for CountError {}

/// The LOTUS counter: configuration plus entry points.
#[derive(Debug, Clone, Default)]
pub struct LotusCounter {
    config: LotusConfig,
}

impl LotusCounter {
    /// Creates a counter with the given configuration.
    pub fn new(config: LotusConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &LotusConfig {
        &self.config
    }

    /// End-to-end run: preprocessing (Algorithm 2) plus counting
    /// (Algorithm 3).
    pub fn count(&self, graph: &UndirectedCsr) -> LotusResult {
        let pre_start = Instant::now();
        let lg = {
            let _span = Span::enter(SpanId::Preprocess);
            build_lotus_graph(graph, &self.config)
        };
        let preprocess = pre_start.elapsed();
        let mut result = self.count_prepared(&lg);
        result.breakdown.preprocess = preprocess;
        result
    }

    /// Counts triangles of an already-built LOTUS graph.
    pub fn count_prepared(&self, lg: &LotusGraph) -> LotusResult {
        let mut breakdown = Breakdown::default();

        // Phase 1: HHH and HHN.
        let start = Instant::now();
        let span = Span::enter(SpanId::HhhHhn);
        let tiles = make_tiles(
            &lg.he,
            self.config.tiling_threshold,
            self.config.partitions_per_vertex,
        );
        let (hhh, hhn) = count_hub_pairs(lg, &tiles);
        drop(span);
        breakdown.hhh_hhn = start.elapsed();

        let (hnn, nnn) = if self.config.fuse_hnn_nnn {
            // Ablation path: the fused pass has no per-phase span; its
            // merge work still lands in the kernel counters.
            let start = Instant::now();
            let counts = count_hnn_nnn_fused(lg);
            // Attribute the fused time to both phases evenly.
            let half = start.elapsed() / 2;
            breakdown.hnn = half;
            breakdown.nnn = half;
            counts
        } else {
            // Phase 2: HNN.
            let start = Instant::now();
            let span = Span::enter(SpanId::Hnn);
            let hnn = count_hnn(lg);
            drop(span);
            breakdown.hnn = start.elapsed();

            // Phase 3: NNN.
            let start = Instant::now();
            let span = Span::enter(SpanId::Nnn);
            let nnn = count_nnn(lg);
            drop(span);
            breakdown.nnn = start.elapsed();
            (hnn, nnn)
        };

        LotusResult {
            stats: LotusStats {
                hhh,
                hhn,
                hnn,
                nnn,
                he_edges: lg.he_edges(),
                nhe_edges: lg.nhe_edges(),
            },
            breakdown,
        }
    }

    /// End-to-end run under a [`RunGuard`], with each stage isolated by
    /// `catch_unwind`: cancellation, deadline expiry, and worker panics
    /// all surface as a structured [`CountError`] carrying the partial
    /// per-type counts and the per-phase breakdown collected so far.
    ///
    /// The guard is polled at tile granularity in phase 1 and every few
    /// hundred vertices in phases 2 and 3. The guarded runner always
    /// executes the paper's split HNN/NNN phases (the fused ablation of
    /// [`LotusConfig::with_fused_phases`] is a perf experiment, not a
    /// production path).
    ///
    /// # Errors
    /// Returns a [`CountError`] when the guard stops the run or a worker
    /// panics inside an isolated phase.
    pub fn count_guarded(
        &self,
        graph: &UndirectedCsr,
        guard: &RunGuard,
    ) -> Result<LotusResult, CountError> {
        let breakdown = Breakdown::default();
        let stats = LotusStats::default();

        let start = Instant::now();
        let lg = match isolate(|| {
            let _span = Span::enter(SpanId::Preprocess);
            build_lotus_graph_guarded(graph, &self.config, guard)
        }) {
            Err(panic) => {
                counters::incr(Counter::PhasePanics);
                return Err(CountError::PhasePanic {
                    phase: Phase::Preprocess,
                    message: panic.message,
                    partial: stats,
                    breakdown,
                });
            }
            Ok(Err(reason)) => {
                counters::incr(Counter::GuardStops);
                return Err(CountError::Interrupted {
                    phase: Phase::Preprocess,
                    reason,
                    partial: stats,
                    breakdown,
                });
            }
            Ok(Ok(lg)) => lg,
        };
        let mut breakdown = breakdown;
        breakdown.preprocess = start.elapsed();
        self.count_prepared_guarded_with(&lg, guard, breakdown)
    }

    /// Guarded counting of an already-built LOTUS graph.
    ///
    /// # Errors
    /// Returns a [`CountError`] when the guard stops the run or a worker
    /// panics inside an isolated phase.
    pub fn count_prepared_guarded(
        &self,
        lg: &LotusGraph,
        guard: &RunGuard,
    ) -> Result<LotusResult, CountError> {
        self.count_prepared_guarded_with(lg, guard, Breakdown::default())
    }

    fn count_prepared_guarded_with(
        &self,
        lg: &LotusGraph,
        guard: &RunGuard,
        mut breakdown: Breakdown,
    ) -> Result<LotusResult, CountError> {
        let mut stats = LotusStats {
            he_edges: lg.he_edges(),
            nhe_edges: lg.nhe_edges(),
            ..LotusStats::default()
        };

        // Phase 1: HHH and HHN.
        let start = Instant::now();
        let tiles = make_tiles(
            &lg.he,
            self.config.tiling_threshold,
            self.config.partitions_per_vertex,
        );
        let outcome = isolate(|| {
            let _span = Span::enter(SpanId::HhhHhn);
            fault_point!(panic: "core.phase.hhh_hhn");
            count_hub_pairs_guarded(lg, &tiles, guard)
        });
        breakdown.hhh_hhn = start.elapsed();
        let (hhh, hhn) = unwrap_phase(
            outcome,
            Phase::HhhHhn,
            &mut stats,
            &breakdown,
            |s, (a, b)| {
                s.hhh = a;
                s.hhn = b;
            },
        )?;
        stats.hhh = hhh;
        stats.hhn = hhn;

        // Phase 2: HNN.
        let start = Instant::now();
        let outcome = isolate(|| {
            let _span = Span::enter(SpanId::Hnn);
            fault_point!(panic: "core.phase.hnn");
            count_hnn_guarded(lg, guard)
        });
        breakdown.hnn = start.elapsed();
        let hnn = unwrap_phase(outcome, Phase::Hnn, &mut stats, &breakdown, |s, c| {
            s.hnn = c;
        })?;
        stats.hnn = hnn;

        // Phase 3: NNN.
        let start = Instant::now();
        let outcome = isolate(|| {
            let _span = Span::enter(SpanId::Nnn);
            fault_point!(panic: "core.phase.nnn");
            count_nnn_guarded(lg, guard)
        });
        breakdown.nnn = start.elapsed();
        let nnn = unwrap_phase(outcome, Phase::Nnn, &mut stats, &breakdown, |s, c| {
            s.nnn = c;
        })?;
        stats.nnn = nnn;

        Ok(LotusResult { stats, breakdown })
    }
}

/// Folds one phase's tri-state outcome (ok / interrupted-with-partial /
/// panicked) into either the completed counts or a [`CountError`] that
/// records the partial counts via `record`.
fn unwrap_phase<C: Copy>(
    outcome: Result<Result<C, (StopReason, C)>, lotus_resilience::PanicCaught>,
    phase: Phase,
    stats: &mut LotusStats,
    breakdown: &Breakdown,
    record: impl FnOnce(&mut LotusStats, C),
) -> Result<C, CountError> {
    match outcome {
        Ok(Ok(counts)) => Ok(counts),
        Ok(Err((reason, partial_counts))) => {
            counters::incr(Counter::GuardStops);
            record(stats, partial_counts);
            Err(CountError::Interrupted {
                phase,
                reason,
                partial: *stats,
                breakdown: *breakdown,
            })
        }
        Err(panic) => {
            counters::incr(Counter::PhasePanics);
            Err(CountError::PhasePanic {
                phase,
                message: panic.message,
                partial: *stats,
                breakdown: *breakdown,
            })
        }
    }
}

/// Phase 1 over a prepared tile list: returns `(hhh, hhn)`.
fn count_hub_pairs(lg: &LotusGraph, tiles: &[Tile]) -> (u64, u64) {
    tiles
        .par_iter()
        .with_min_len(PAR_GRAIN)
        .map(|t| {
            let found = count_tile(&lg.h2h, lg.hub_neighbors(t.v), t);
            if lg.is_hub(t.v) {
                (found, 0)
            } else {
                (0, found)
            }
        })
        .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Counts the connected hub pairs of one tile.
///
/// The row base `h1(h1−1)/2` is computed once per outer iteration and the
/// inner loop probes consecutive bits (§4.4.1).
#[inline]
fn count_tile(h2h: &TriBitArray, he: &[u16], tile: &Tile) -> u64 {
    rayon::sched::log_read(he, "phase1.he");
    let mut found = 0u64;
    for i in tile.begin..tile.end {
        let h1 = he[i as usize] as u32;
        let base = TriBitArray::row_base(h1);
        for &h2 in &he[..i as usize] {
            // Lists are strictly ascending, so h2 < h1 always holds.
            if h2h.is_set_with_base(base, h2 as u32) {
                found += 1;
            }
        }
    }
    #[cfg(feature = "telemetry")]
    {
        // Row `i` probes `i` earlier hub neighbours, so the tile's probe
        // count is the difference of two triangular numbers.
        let (b, e) = (tile.begin as u64, tile.end as u64);
        counters::incr(Counter::TileVisits);
        counters::add(
            Counter::H2hProbes,
            (e * e.saturating_sub(1) - b * b.saturating_sub(1)) / 2,
        );
        counters::add(Counter::H2hHits, found);
    }
    found
}

/// Phase 2: HNN triangles.
fn count_hnn(lg: &LotusGraph) -> u64 {
    (0..lg.num_vertices())
        .into_par_iter()
        .with_min_len(PAR_GRAIN)
        .map(|v| {
            let he_v = lg.hub_neighbors(v);
            if he_v.is_empty() {
                return 0;
            }
            rayon::sched::log_read(he_v, "phase2.he");
            let mut local = 0u64;
            for &u in lg.nonhub_neighbors(v) {
                local += count_merge(he_v, lg.hub_neighbors(u));
            }
            local
        })
        .sum()
}

/// Phase 3: NNN triangles.
fn count_nnn(lg: &LotusGraph) -> u64 {
    (0..lg.num_vertices())
        .into_par_iter()
        .with_min_len(PAR_GRAIN)
        .map(|v| {
            let nhe_v = lg.nonhub_neighbors(v);
            rayon::sched::log_read(nhe_v, "phase3.nhe");
            let mut local = 0u64;
            for &u in nhe_v {
                local += count_merge(nhe_v, lg.nonhub_neighbors(u));
            }
            local
        })
        .sum()
}

/// Guarded phase 1: like [`count_hub_pairs`] but polls the guard every
/// 16 tiles. On a stop, workers that have not started yet contribute
/// zero and the partial sums reduced so far are returned with the
/// reason.
fn count_hub_pairs_guarded(
    lg: &LotusGraph,
    tiles: &[Tile],
    guard: &RunGuard,
) -> Result<(u64, u64), (StopReason, (u64, u64))> {
    let stopped = AtomicBool::new(false);
    let partial = tiles
        .par_iter()
        .with_min_len(PAR_GRAIN)
        .enumerate()
        .map(|(i, t)| {
            if stopped.load(Ordering::Relaxed) {
                return (0, 0);
            }
            if i & 0xf == 0 && guard.should_stop().is_some() {
                stopped.store(true, Ordering::Relaxed);
                return (0, 0);
            }
            let found = count_tile(&lg.h2h, lg.hub_neighbors(t.v), t);
            if lg.is_hub(t.v) {
                (found, 0)
            } else {
                (0, found)
            }
        })
        .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    match guard.should_stop() {
        Some(reason) if stopped.load(Ordering::Relaxed) => Err((reason, partial)),
        _ => Ok(partial),
    }
}

/// Guarded phase 2: like [`count_hnn`] but polls the guard every 256
/// vertices.
fn count_hnn_guarded(lg: &LotusGraph, guard: &RunGuard) -> Result<u64, (StopReason, u64)> {
    let stopped = AtomicBool::new(false);
    let partial = (0..lg.num_vertices())
        .into_par_iter()
        .with_min_len(PAR_GRAIN)
        .map(|v| {
            if stopped.load(Ordering::Relaxed) {
                return 0;
            }
            if v & 0xff == 0 && guard.should_stop().is_some() {
                stopped.store(true, Ordering::Relaxed);
                return 0;
            }
            let he_v = lg.hub_neighbors(v);
            if he_v.is_empty() {
                return 0;
            }
            rayon::sched::log_read(he_v, "phase2.he");
            let mut local = 0u64;
            for &u in lg.nonhub_neighbors(v) {
                local += count_merge(he_v, lg.hub_neighbors(u));
            }
            local
        })
        .sum();
    match guard.should_stop() {
        Some(reason) if stopped.load(Ordering::Relaxed) => Err((reason, partial)),
        _ => Ok(partial),
    }
}

/// Guarded phase 3: like [`count_nnn`] but polls the guard every 256
/// vertices.
fn count_nnn_guarded(lg: &LotusGraph, guard: &RunGuard) -> Result<u64, (StopReason, u64)> {
    let stopped = AtomicBool::new(false);
    let partial = (0..lg.num_vertices())
        .into_par_iter()
        .with_min_len(PAR_GRAIN)
        .map(|v| {
            if stopped.load(Ordering::Relaxed) {
                return 0;
            }
            if v & 0xff == 0 && guard.should_stop().is_some() {
                stopped.store(true, Ordering::Relaxed);
                return 0;
            }
            let nhe_v = lg.nonhub_neighbors(v);
            rayon::sched::log_read(nhe_v, "phase3.nhe");
            let mut local = 0u64;
            for &u in nhe_v {
                local += count_merge(nhe_v, lg.nonhub_neighbors(u));
            }
            local
        })
        .sum();
    match guard.should_stop() {
        Some(reason) if stopped.load(Ordering::Relaxed) => Err((reason, partial)),
        _ => Ok(partial),
    }
}

/// Fused HNN + NNN ablation: one pass over the non-hub edges performing
/// both intersections. Returns `(hnn, nnn)`.
fn count_hnn_nnn_fused(lg: &LotusGraph) -> (u64, u64) {
    (0..lg.num_vertices())
        .into_par_iter()
        .with_min_len(PAR_GRAIN)
        .map(|v| {
            let he_v = lg.hub_neighbors(v);
            let nhe_v = lg.nonhub_neighbors(v);
            let mut hnn = 0u64;
            let mut nnn = 0u64;
            for &u in nhe_v {
                hnn += count_merge(he_v, lg.hub_neighbors(u));
                nnn += count_merge(nhe_v, lg.nonhub_neighbors(u));
            }
            (hnn, nnn)
        })
        .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Convenience: end-to-end LOTUS count with default configuration.
pub fn lotus_count(graph: &UndirectedCsr) -> u64 {
    LotusCounter::default().count(graph).total()
}

/// Public phase-1 entry over an explicit tile list: returns `(hhh, hhn)`.
/// Used by the recursive extension and the load-balance experiments.
pub fn count_hub_phase(lg: &LotusGraph, tiles: &[Tile]) -> (u64, u64) {
    count_hub_pairs(lg, tiles)
}

/// Public phase-2 (HNN) entry. Used by the recursive extension.
pub fn count_hnn_phase(lg: &LotusGraph) -> u64 {
    count_hnn(lg)
}

/// Public phase-3 (NNN) entry.
pub fn count_nnn_phase(lg: &LotusGraph) -> u64 {
    count_nnn(lg)
}

/// Counts the hub pairs of a single tile against the H2H array. Exposed
/// for the load-balance model (Table 9), which replays tiles one by one.
pub fn count_single_tile(h2h: &TriBitArray, he: &[u16], tile: &Tile) -> u64 {
    count_tile(h2h, he, tile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HubCount;
    use lotus_algos::forward::forward_count;
    use lotus_graph::builder::graph_from_edges;

    fn cfg(hubs: u32) -> LotusConfig {
        LotusConfig::default().with_hub_count(HubCount::Fixed(hubs))
    }

    fn figure2_graph() -> UndirectedCsr {
        graph_from_edges([
            (0, 1),
            (0, 3),
            (0, 4),
            (0, 5),
            (0, 6),
            (1, 3),
            (1, 4),
            (1, 6),
            (1, 7),
            (2, 3),
            (4, 6),
            (6, 8),
            (7, 8),
        ])
    }

    #[test]
    fn counts_figure2_graph() {
        let g = figure2_graph();
        let want = forward_count(&g);
        let r = LotusCounter::new(cfg(2)).count(&g);
        assert_eq!(r.total(), want);
        // Hubs 0 and 1 participate in triangles (0,1,3), (0,1,4), (0,1,6),
        // (0,4,6), (1,4,6): all are HHN or HNN with 2 hubs.
        assert!(r.stats.hub_triangles() > 0);
    }

    #[test]
    fn counts_k4_with_various_hub_counts() {
        let g = graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        for hubs in 0..=4 {
            let r = LotusCounter::new(cfg(hubs)).count(&g);
            assert_eq!(r.total(), 4, "hubs={hubs}: {:?}", r.stats);
        }
    }

    #[test]
    fn type_split_on_k4() {
        // With 2 hubs, K4 triangles: (0,1,2),(0,1,3) have 2 hubs;
        // (0,2,3),(1,2,3) have 1 hub.
        let g = graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let r = LotusCounter::new(cfg(2)).count(&g);
        assert_eq!(r.stats.hhh, 0);
        assert_eq!(r.stats.hhn, 2);
        assert_eq!(r.stats.hnn, 2);
        assert_eq!(r.stats.nnn, 0);
    }

    #[test]
    fn all_hub_triangle_is_hhh() {
        let g = graph_from_edges([(0, 1), (1, 2), (0, 2)]);
        let r = LotusCounter::new(cfg(3)).count(&g);
        assert_eq!(r.stats.hhh, 1);
        assert_eq!(r.total(), 1);
    }

    #[test]
    fn zero_hubs_makes_everything_nnn() {
        let g = graph_from_edges([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]);
        let r = LotusCounter::new(cfg(0)).count(&g);
        assert_eq!(r.stats.nnn, r.total());
        assert_eq!(r.total(), forward_count(&g));
    }

    #[test]
    fn matches_forward_on_rmat_graphs() {
        for seed in [1u64, 2, 3] {
            let g = lotus_gen::Rmat::new(10, 10).generate(seed);
            let want = forward_count(&g);
            for hubs in [0u32, 16, 64, 256] {
                let r = LotusCounter::new(cfg(hubs)).count(&g);
                assert_eq!(r.total(), want, "seed {seed} hubs {hubs}");
            }
        }
    }

    #[test]
    fn fused_ablation_matches_split_phases() {
        let g = lotus_gen::Rmat::new(9, 8).generate(13);
        let split = LotusCounter::new(cfg(64)).count(&g);
        let fused = LotusCounter::new(cfg(64).with_fused_phases(true)).count(&g);
        assert_eq!(split.stats.hnn, fused.stats.hnn);
        assert_eq!(split.stats.nnn, fused.stats.nnn);
        assert_eq!(split.total(), fused.total());
    }

    #[test]
    fn tiling_threshold_does_not_change_counts() {
        let g = lotus_gen::Rmat::new(9, 12).generate(21);
        let want = LotusCounter::new(cfg(64)).count(&g).total();
        for threshold in [1u32, 4, 32, 10_000] {
            let c = cfg(64).with_tiling_threshold(threshold);
            assert_eq!(
                LotusCounter::new(c).count(&g).total(),
                want,
                "thr {threshold}"
            );
        }
    }

    #[test]
    fn breakdown_is_populated() {
        let g = lotus_gen::Rmat::new(9, 8).generate(2);
        let r = LotusCounter::default().count(&g);
        assert!(r.breakdown.preprocess > std::time::Duration::ZERO);
        assert!(r.breakdown.total() >= r.breakdown.preprocess);
    }

    #[test]
    fn lotus_count_helper() {
        let g = graph_from_edges([(0, 1), (1, 2), (0, 2)]);
        assert_eq!(lotus_count(&g), 1);
    }

    #[test]
    fn empty_graph() {
        let g = graph_from_edges(std::iter::empty());
        assert_eq!(lotus_count(&g), 0);
    }

    #[test]
    fn guarded_unlimited_matches_unguarded() {
        let g = lotus_gen::Rmat::new(9, 10).generate(11);
        let counter = LotusCounter::new(cfg(64));
        let plain = counter.count(&g);
        let guarded = counter
            .count_guarded(&g, &RunGuard::unlimited())
            .expect("unlimited guard never stops");
        assert_eq!(guarded.stats, plain.stats);
    }

    #[test]
    fn pre_cancelled_token_interrupts_preprocessing() {
        use lotus_resilience::CancelToken;
        let g = lotus_gen::Rmat::new(9, 8).generate(4);
        let token = CancelToken::new();
        token.cancel();
        let guard = RunGuard::unlimited().with_cancel(token);
        let err = LotusCounter::new(cfg(64))
            .count_guarded(&g, &guard)
            .expect_err("cancelled before the run started");
        assert_eq!(err.phase(), Phase::Preprocess);
        match err {
            CountError::Interrupted {
                reason, partial, ..
            } => {
                assert_eq!(reason, StopReason::Cancelled);
                assert_eq!(partial.total(), 0);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_interrupts_with_partial_stats() {
        use lotus_resilience::Deadline;
        let g = lotus_gen::Rmat::new(10, 10).generate(6);
        let guard = RunGuard::unlimited().with_deadline(Deadline::after(std::time::Duration::ZERO));
        let err = LotusCounter::new(cfg(64))
            .count_guarded(&g, &guard)
            .expect_err("zero deadline must interrupt");
        match err {
            CountError::Interrupted { reason, .. } => {
                assert_eq!(reason, StopReason::DeadlineExpired);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn guarded_prepared_matches_prepared() {
        let g = lotus_gen::Rmat::new(9, 8).generate(17);
        let counter = LotusCounter::new(cfg(32));
        let lg = build_lotus_graph(&g, counter.config());
        let plain = counter.count_prepared(&lg);
        let guarded = counter
            .count_prepared_guarded(&lg, &RunGuard::unlimited())
            .expect("unlimited guard never stops");
        assert_eq!(guarded.stats, plain.stats);
    }
}
