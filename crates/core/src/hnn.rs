//! The phase-2 (HNN) kernel: a dense hub set per pool chunk.
//!
//! An HNN triangle `(v, u, h)` has a non-hub edge `(v, u)` (`u` in
//! NHE(v)) and a hub `h` in both HE(v) and HE(u). The paper merge-joins
//! HE(v) with HE(u) for every such edge. Hub IDs lie below
//! `hub_count ≤ 2¹⁶`, though, so HE(v) always fits a bitmap of at most
//! 8 KiB. Each pool chunk keeps one such bitmap, marks HE(v) once per
//! vertex, probes every HE(u) against it in O(1) per entry, and unmarks
//! HE(v) again: Latapy's new-vertex-listing (§6.1) over the hub universe.
//! The phase's random accesses then land in the HE(u) lists and an
//! L1-resident bitmap instead of a branchy merge (DESIGN.md §3,
//! substitution 6).
//!
//! Every HNN path (plain, guarded, fused, blocked and per-vertex) runs
//! [`hnn_vertex`] inside [`fold_vertices`].

use rayon::prelude::*;

use lotus_algos::intersect::Bitmap;
use lotus_graph::VertexId;
#[cfg(feature = "telemetry")]
use lotus_telemetry::{counters, Counter};

use crate::count::PAR_GRAIN;
use crate::structure::LotusGraph;

/// Runs `body` on every vertex of `lg` on the pool, at least
/// [`PAR_GRAIN`] vertices per chunk. Each chunk owns one hub set (an
/// all-zero bitmap of `hub_count` bits) that `body` may mark and must
/// leave all-zero again. The per-vertex results are combined with
/// `combine`, starting from `R::default()`.
pub(crate) fn fold_vertices<R, B, C>(lg: &LotusGraph, body: B, combine: C) -> R
where
    R: Default + Send,
    B: Fn(&mut Bitmap, VertexId) -> R + Sync + Send,
    C: Fn(R, R) -> R + Sync + Send,
{
    let combine = &combine;
    (0..lg.num_vertices())
        .into_par_iter()
        .with_min_len(PAR_GRAIN)
        .fold(
            || (Bitmap::new(lg.hub_count as usize), R::default()),
            |(mut hubs, acc), v| {
                let found = body(&mut hubs, v);
                (hubs, combine(acc, found))
            },
        )
        .map(|(hubs, acc)| {
            debug_assert!(hubs.is_all_zero(), "a chunk left hub bits set");
            acc
        })
        .reduce(R::default, combine)
}

/// Counts the HNN triangles `(v, u, h)` with `u` in `nhe` (NHE(v) or a
/// sub-slice of it) and `h` in HE(v) ∩ HE(u), calling `on_match(u, h)`
/// for each. `hubs` must be all-zero on entry and is all-zero again on
/// return.
///
/// With telemetry armed, each vertex records once: one intersection per
/// probed `u` (a fruitless one when it closes no triangle) and one
/// bitmap probe per HE(u) entry, as the merge join recorded them.
#[inline]
pub(crate) fn hnn_vertex(
    lg: &LotusGraph,
    hubs: &mut Bitmap,
    v: VertexId,
    nhe: &[u32],
    mut on_match: impl FnMut(u32, u16),
) -> u64 {
    let he_v = lg.hub_neighbors(v);
    if he_v.is_empty() || nhe.is_empty() {
        return 0;
    }
    rayon::sched::log_read(he_v, "phase2.he");
    hubs.mark(he_v);
    let mut found = 0u64;
    #[cfg(feature = "telemetry")]
    let (mut probes, mut fruitless) = (0u64, 0u64);
    for &u in nhe {
        let he_u = lg.hub_neighbors(u);
        let mut hits = 0u64;
        for &h in he_u {
            if hubs.test(h as usize) {
                hits += 1;
                on_match(u, h);
            }
        }
        found += hits;
        #[cfg(feature = "telemetry")]
        {
            probes += he_u.len() as u64;
            fruitless += u64::from(hits == 0);
        }
    }
    hubs.unmark(he_v);
    #[cfg(feature = "telemetry")]
    {
        counters::add(Counter::Intersections, nhe.len() as u64);
        counters::add(Counter::FruitlessIntersections, fruitless);
        counters::add(Counter::BitmapProbes, probes);
    }
    found
}
