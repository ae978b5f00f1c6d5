//! LOTUS triangle counting (paper Algorithm 3).
//!
//! Three phases over the [`LotusGraph`]:
//!
//! 1. **HHH + HHN** — for every vertex, count the pairs of its hub
//!    neighbours connected in the H2H bit array. Each row of the pair
//!    loop ANDs whole H2H words with the hub neighbours passed so far,
//!    marked in a hub bitmap of at most 8 KiB per pool chunk, or probes
//!    pair by pair when the row is short (DESIGN.md §3, substitution 8).
//!    Work is distributed as squared-edge tiles (§4.6) so the quadratic
//!    pair loop of high-degree vertices is split evenly.
//! 2. **HNN** — for every non-hub edge `(v, u)`, probe the 16-bit HE list
//!    of `u` against HE(v), marked in a hub bitmap of at most 8 KiB per
//!    pool chunk (DESIGN.md §3, substitution 6).
//! 3. **NNN** — for every non-hub edge `(v, u)`, probe the 32-bit NHE list
//!    of `u` against NHE(v), marked in a window of at most 32 KiB per pool
//!    chunk, or merge-join the two when NHE(v) spans more than the window
//!    (DESIGN.md §3, substitution 7). Hub edges are never touched.
//!
//! The HNN and NNN loops run over the same edge set but are deliberately
//! *not* fused (§4.5): each phase's random accesses then target a single
//! small structure. The fused variant is available as an ablation via
//! [`LotusConfig::with_fused_phases`].
//!
//! Every count runs one driver: each phase is a stage isolated from
//! panics, timed, and polled under a [`RunGuard`] (an unlimited one for
//! [`LotusCounter::count`] and [`LotusCounter::count_prepared`]). The
//! fused ablation is an arm of that driver, and per-vertex counting
//! ([`crate::per_vertex`]) runs it with a sink that credits each
//! triangle's corners, which counting leaves empty.

// `CountError` deliberately carries the partial per-type counts and the
// per-phase breakdown (~137 bytes); guarded runs are once-per-invocation,
// so the large Err is never on a hot path.
#![allow(clippy::result_large_err)]

use std::fmt;
use std::time::Instant;

use rayon::prelude::*;

use lotus_algos::intersect::Bitmap;
use lotus_graph::UndirectedCsr;
use lotus_resilience::{fault_point, isolate, RunGuard, StopReason};
use lotus_telemetry::{counters, Counter, Span, SpanId};

use crate::breakdown::Breakdown;
use crate::config::LotusConfig;
use crate::h2h::TriBitArray;
use crate::kernel::{
    fold_chunks, fold_vertices, hnn_vertex, hub_pairs_tile, nnn_vertex, ChunkBitmaps, NNN_WINDOW,
    PAIR_PROBE_CROSSOVER,
};
use crate::preprocess::build_lotus_graph_guarded;
use crate::stats::LotusStats;
use crate::structure::LotusGraph;
use crate::tiling::{make_tiles, Tile};

/// Fewest vertices or tiles per pool chunk in the counting (per-vertex
/// counting included), preprocessing and k-clique loops. A large graph
/// still splits into many chunks, which idle threads steal from the
/// hub-heavy front; a graph of under twice this many vertices (a served
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
    /// (Algorithm 3). This is [`LotusCounter::count_guarded`] under
    /// [`RunGuard::unlimited`].
    ///
    /// # Panics
    /// Raises a worker's panic again, with the phase it happened in.
    pub fn count(&self, graph: &UndirectedCsr) -> LotusResult {
        unstoppable(self.count_guarded(graph, &RunGuard::unlimited()))
    }

    /// Counts triangles of an already-built LOTUS graph: this is
    /// [`LotusCounter::count_prepared_guarded`] under
    /// [`RunGuard::unlimited`].
    ///
    /// # Panics
    /// Raises a worker's panic again, with the phase it happened in.
    pub fn count_prepared(&self, lg: &LotusGraph) -> LotusResult {
        unstoppable(self.count_prepared_guarded(lg, &RunGuard::unlimited()))
    }

    /// End-to-end run under a [`RunGuard`], with each stage isolated by
    /// `catch_unwind`: cancellation, deadline expiry, and worker panics
    /// all surface as a structured [`CountError`] carrying the partial
    /// per-type counts and the per-phase breakdown collected so far.
    ///
    /// The guard is polled every 16 tiles in phase 1 and every 256
    /// vertices in phases 2 and 3, the fused ablation of
    /// [`LotusConfig::with_fused_phases`] included.
    ///
    /// # Errors
    /// Returns a [`CountError`] when the guard stops the run or a worker
    /// panics inside an isolated phase.
    pub fn count_guarded(
        &self,
        graph: &UndirectedCsr,
        guard: &RunGuard,
    ) -> Result<LotusResult, CountError> {
        let mut run = LotusResult::default();
        let lg = stage(
            Phase::Preprocess,
            &mut run,
            || build_lotus_graph_guarded(graph, &self.config, guard).map_err(|r| (r, ())),
            |_, ()| {},
        )?;
        self.run_phases(&lg, guard, &(), NNN_WINDOW, PAIR_PROBE_CROSSOVER, run)
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
        let run = LotusResult::default();
        self.run_phases(lg, guard, &(), NNN_WINDOW, PAIR_PROBE_CROSSOVER, run)
    }

    /// The three phases of Algorithm 3 over `lg`, each a [`stage`] of
    /// `run`: every count runs this driver. Each triangle found is also
    /// credited to `corners`; NNN uses a `window`-bit window per chunk,
    /// and phase-1 rows of at most `crossover` pairs per H2H word probe
    /// pair by pair.
    pub(crate) fn run_phases<S: Corners + ?Sized>(
        &self,
        lg: &LotusGraph,
        guard: &RunGuard,
        corners: &S,
        window: usize,
        crossover: usize,
        mut run: LotusResult,
    ) -> Result<LotusResult, CountError> {
        run.stats.he_edges = lg.he_edges();
        run.stats.nhe_edges = lg.nhe_edges();
        let config = &self.config;
        count_stage(
            Phase::HhhHhn,
            &mut run,
            || {
                fault_point!(panic: "core.phase.hhh_hhn");
                let tiles = make_tiles(
                    &lg.he,
                    config.tiling_threshold,
                    config.partitions_per_vertex,
                );
                hub_pairs(lg, &tiles, guard, crossover, corners)
            },
            |s, (hhh, hhn)| {
                s.hhh = hhh;
                s.hhn = hhn;
            },
        )?;
        if config.fuse_hnn_nnn {
            count_stage(
                Phase::Hnn,
                &mut run,
                || {
                    fault_point!(panic: "core.phase.hnn");
                    hnn_nnn_fused(lg, guard, window, corners)
                },
                |s, (hnn, nnn)| {
                    s.hnn = hnn;
                    s.nnn = nnn;
                },
            )?;
            // The fused pass runs under the HNN span; its time is
            // attributed to both phases evenly.
            run.breakdown.nnn = run.breakdown.hnn / 2;
            run.breakdown.hnn -= run.breakdown.nnn;
        } else {
            count_stage(
                Phase::Hnn,
                &mut run,
                || {
                    fault_point!(panic: "core.phase.hnn");
                    hnn(lg, guard, corners)
                },
                |s, c| s.hnn = c,
            )?;
            count_stage(
                Phase::Nnn,
                &mut run,
                || {
                    fault_point!(panic: "core.phase.nnn");
                    nnn(lg, guard, window, corners)
                },
                |s, c| s.nnn = c,
            )?;
        }
        Ok(run)
    }
}

/// The result of a run under [`RunGuard::unlimited`], which never stops:
/// only a worker panic fails it. That panic carries on unwinding, as it
/// would have without the stage's isolation, now with the phase it
/// happened in.
pub(crate) fn unstoppable<T>(run: Result<T, CountError>) -> T {
    run.unwrap_or_else(|err| std::panic::resume_unwind(Box::new(err.to_string())))
}

/// Runs one stage of a guarded run: isolated, timed into `phase`'s slot
/// of the breakdown, under `phase`'s span. A completed stage returns its
/// value. A stage the guard stopped files its partial result into the
/// counts with `record` and returns [`CountError::Interrupted`]; a stage
/// that panicked returns [`CountError::PhasePanic`]. Either error carries
/// `run` as it then stands.
pub(crate) fn stage<T, P>(
    phase: Phase,
    run: &mut LotusResult,
    body: impl FnOnce() -> Result<T, (StopReason, P)>,
    record: impl FnOnce(&mut LotusStats, P),
) -> Result<T, CountError> {
    let (span, slot) = match phase {
        Phase::Preprocess => (SpanId::Preprocess, &mut run.breakdown.preprocess),
        Phase::HhhHhn => (SpanId::HhhHhn, &mut run.breakdown.hhh_hhn),
        Phase::Hnn => (SpanId::Hnn, &mut run.breakdown.hnn),
        Phase::Nnn => (SpanId::Nnn, &mut run.breakdown.nnn),
        Phase::Fallback => (SpanId::Fallback, &mut run.breakdown.nnn),
    };
    let start = Instant::now();
    let outcome = isolate(|| {
        let _span = Span::enter(span);
        body()
    });
    *slot = start.elapsed();
    match outcome {
        Ok(Ok(value)) => Ok(value),
        Ok(Err((reason, partial))) => {
            counters::incr(Counter::GuardStops);
            record(&mut run.stats, partial);
            Err(CountError::Interrupted {
                phase,
                reason,
                partial: run.stats,
                breakdown: run.breakdown,
            })
        }
        Err(panic) => {
            counters::incr(Counter::PhasePanics);
            Err(CountError::PhasePanic {
                phase,
                message: panic.message,
                partial: run.stats,
                breakdown: run.breakdown,
            })
        }
    }
}

/// A [`stage`] that counts: `record` files its counts into `run`,
/// complete or partial.
pub(crate) fn count_stage<C>(
    phase: Phase,
    run: &mut LotusResult,
    body: impl FnOnce() -> Guarded<C>,
    record: impl Fn(&mut LotusStats, C),
) -> Result<(), CountError> {
    let found = stage(phase, run, body, &record)?;
    record(&mut run.stats, found);
    Ok(())
}

/// Where a phase sends the corners of each triangle it finds, besides
/// counting it. Each pool chunk credits a tally of its own, which is
/// flushed into the sink once, when the chunk ends. Counting passes `()`,
/// which drops the corners, so the phase loops compile as if there were
/// no sink; per-vertex counting passes one counter per vertex
/// ([`crate::per_vertex`]).
pub(crate) trait Corners: Sync {
    /// A pool chunk's own tally.
    type Tally: Send;

    /// A fresh tally for one chunk.
    fn tally(&self) -> Self::Tally;

    /// Credits one triangle to each of its corners `a`, `b` and `c`
    /// (new IDs).
    fn credit(tally: &mut Self::Tally, a: u32, b: u32, c: u32);

    /// Adds a chunk's tally into the sink.
    fn flush(&self, tally: Self::Tally);
}

impl Corners for () {
    type Tally = ();
    fn tally(&self) {}
    #[inline(always)]
    fn credit((): &mut (), _: u32, _: u32, _: u32) {}
    fn flush(&self, (): ()) {}
}

/// A phase's result: complete, or partial with the reason it stopped.
type Guarded<C> = Result<C, (StopReason, C)>;

/// Phase 1, HHH + HHN, over `tiles`: returns `(hhh, hhn)`, polling
/// `guard` every 16 tiles. Rows of at most `crossover` pairs per H2H
/// word probe pair by pair.
pub(crate) fn hub_pairs<S: Corners + ?Sized>(
    lg: &LotusGraph,
    tiles: &[Tile],
    guard: &RunGuard,
    crossover: usize,
    corners: &S,
) -> Guarded<(u64, u64)> {
    let poll = guard.poll_every(16);
    let found = fold_chunks(
        tiles.par_iter().with_min_len(PAR_GRAIN).enumerate(),
        corners,
        || ChunkBitmaps::new(lg, true, 0),
        |s, tally, (i, t)| {
            if poll.stopped(i) {
                return (0, 0);
            }
            let he = lg.hub_neighbors(t.v);
            let found = hub_pairs_tile(&lg.h2h, &mut s.hubs, he, t, crossover, |h1, h2| {
                S::credit(tally, t.v, h1.into(), h2.into());
            });
            // A hub's pairs close HHH triangles, a non-hub's HHN ones.
            if lg.is_hub(t.v) {
                (found, 0)
            } else {
                (0, found)
            }
        },
        |a, b| (a.0 + b.0, a.1 + b.1),
    );
    poll.finish(found)
}

/// Phase 2, HNN, polling `guard` every 256 vertices.
fn hnn<S: Corners + ?Sized>(lg: &LotusGraph, guard: &RunGuard, corners: &S) -> Guarded<u64> {
    let poll = guard.poll_every(256);
    let found = fold_vertices(
        lg,
        corners,
        || ChunkBitmaps::new(lg, true, 0),
        |s, tally, v| {
            if poll.stopped(v as usize) {
                return 0;
            }
            hnn_vertex(lg, &mut s.hubs, v, lg.nonhub_neighbors(v), |u, h| {
                S::credit(tally, v, u, h.into());
            })
        },
        |a, b| a + b,
    );
    poll.finish(found)
}

/// Phase 3, NNN, with a `window`-bit NNN window per chunk, polling
/// `guard` every 256 vertices.
pub(crate) fn nnn<S: Corners + ?Sized>(
    lg: &LotusGraph,
    guard: &RunGuard,
    window: usize,
    corners: &S,
) -> Guarded<u64> {
    let poll = guard.poll_every(256);
    let found = fold_vertices(
        lg,
        corners,
        || ChunkBitmaps::new(lg, false, window),
        |s, tally, v| {
            if poll.stopped(v as usize) {
                return 0;
            }
            nnn_vertex(lg, &mut s.window, v, |u, w| S::credit(tally, v, u, w))
        },
        |a, b| a + b,
    );
    poll.finish(found)
}

/// The fused HNN + NNN ablation: one pass over the vertices, each running
/// its HNN probes and its NNN probes back to back over the same NHE list,
/// so both phases' random accesses share one pass. Returns `(hnn, nnn)`,
/// polling `guard` every 256 vertices.
pub(crate) fn hnn_nnn_fused<S: Corners + ?Sized>(
    lg: &LotusGraph,
    guard: &RunGuard,
    window: usize,
    corners: &S,
) -> Guarded<(u64, u64)> {
    let poll = guard.poll_every(256);
    let found = fold_vertices(
        lg,
        corners,
        || ChunkBitmaps::new(lg, true, window),
        |s, tally, v| {
            if poll.stopped(v as usize) {
                return (0, 0);
            }
            let nhe_v = lg.nonhub_neighbors(v);
            let hnn = hnn_vertex(lg, &mut s.hubs, v, nhe_v, |u, h| {
                S::credit(tally, v, u, h.into());
            });
            let nnn = nnn_vertex(lg, &mut s.window, v, |u, w| S::credit(tally, v, u, w));
            (hnn, nnn)
        },
        |a, b| (a.0 + b.0, a.1 + b.1),
    );
    poll.finish(found)
}

/// A phase run under [`RunGuard::unlimited`], which never stops it.
fn unguarded<C>(phase: impl FnOnce(&RunGuard) -> Guarded<C>) -> C {
    phase(&RunGuard::unlimited())
        .unwrap_or_else(|(reason, _)| unreachable!("an unlimited guard stopped a phase: {reason}"))
}

/// Convenience: end-to-end LOTUS count with default configuration.
pub fn lotus_count(graph: &UndirectedCsr) -> u64 {
    LotusCounter::default().count(graph).total()
}

/// Public phase-1 entry over an explicit tile list: returns `(hhh, hhn)`.
/// Used by the recursive extension and the load-balance experiments.
pub fn count_hub_phase(lg: &LotusGraph, tiles: &[Tile]) -> (u64, u64) {
    unguarded(|g| hub_pairs(lg, tiles, g, PAIR_PROBE_CROSSOVER, &()))
}

/// Public phase-2 (HNN) entry. Used by the recursive extension.
pub fn count_hnn_phase(lg: &LotusGraph) -> u64 {
    unguarded(|g| hnn(lg, g, &()))
}

/// Public phase-3 (NNN) entry.
pub fn count_nnn_phase(lg: &LotusGraph) -> u64 {
    unguarded(|g| nnn(lg, g, NNN_WINDOW, &()))
}

/// Counts the connected hub pairs of a single tile of `he` against the
/// H2H array. `marks` is the caller's scratch hub set: at least
/// `h2h.hub_count()` bits, all-zero on entry and again on return. Exposed
/// for the load-balance model (Table 9), which replays tiles one by one.
pub fn count_single_tile(h2h: &TriBitArray, marks: &mut Bitmap, he: &[u16], tile: &Tile) -> u64 {
    hub_pairs_tile(h2h, marks, he, tile, PAIR_PROBE_CROSSOVER, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HubCount;
    use crate::preprocess::build_lotus_graph;
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

    #[test]
    fn guarded_fused_phases_match_the_split_phases() {
        let g = lotus_gen::Rmat::new(9, 8).generate(13);
        let lg = build_lotus_graph(&g, &cfg(64));
        let split = LotusCounter::new(cfg(64)).count_prepared(&lg);
        let fused = LotusCounter::new(cfg(64).with_fused_phases(true))
            .count_prepared_guarded(&lg, &RunGuard::unlimited())
            .expect("unlimited guard never stops");
        assert_eq!(fused.stats, split.stats);
    }

    #[test]
    fn expired_deadline_interrupts_the_fused_phases() {
        use lotus_resilience::Deadline;
        // With no hubs phase 1 has no tiles, so the fused pass is the
        // first loop to poll the guard.
        let g = lotus_gen::Rmat::new(10, 10).generate(6);
        let lg = build_lotus_graph(&g, &cfg(0));
        let guard = RunGuard::unlimited().with_deadline(Deadline::after(std::time::Duration::ZERO));
        let err = LotusCounter::new(cfg(0).with_fused_phases(true))
            .count_prepared_guarded(&lg, &guard)
            .expect_err("zero deadline must interrupt");
        match err {
            CountError::Interrupted { phase, reason, .. } => {
                assert_eq!(phase, Phase::Hnn);
                assert_eq!(reason, StopReason::DeadlineExpired);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }
}
