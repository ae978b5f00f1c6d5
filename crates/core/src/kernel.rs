//! The per-vertex kernels of phases 2 and 3, and the pool fold that runs
//! them.
//!
//! Both phases walk the non-hub edges `(v, u)` (`u` in NHE(v)) and
//! intersect a list of `v` with the same list of `u`; the paper
//! merge-joins the two for every edge. Both kernels instead mark the list
//! of `v` once per vertex in a bitmap the pool chunk owns, probe the list
//! of every `u` against it in O(1) per entry, and unmark the list of `v`
//! again: Latapy's new-vertex-listing (§6.1). The phase's random accesses
//! then land in the probed lists and a cache-resident bitmap instead of a
//! branchy merge.
//!
//! * [`hnn_vertex`] (HNN) marks HE(v). Hub IDs lie below
//!   `hub_count ≤ 2¹⁶`, so the hub set is at most 8 KiB (DESIGN.md §3,
//!   substitution 6).
//! * [`nnn_vertex`] (NNN) marks NHE(v) relative to its first entry, in a
//!   window of at most [`NNN_WINDOW`] bits (32 KiB) whatever |V| is. A
//!   vertex whose NHE(v) spans more than the window takes the merge join
//!   instead (substitution 7).
//!
//! Every HNN path (plain, guarded, fused, blocked and per-vertex) runs
//! [`hnn_vertex`], and every NNN path (plain, guarded, fused and
//! per-vertex) runs [`nnn_vertex`], inside [`fold_vertices`].

use rayon::prelude::*;

use lotus_algos::intersect::merge::merge_for_each;
use lotus_algos::intersect::Bitmap;
use lotus_graph::VertexId;
#[cfg(feature = "telemetry")]
use lotus_telemetry::{counters, Counter};

use crate::count::PAR_GRAIN;
use crate::structure::LotusGraph;

/// Bits of a pool chunk's NNN window: 32 KiB. Graphs of up to this many
/// vertices take the bitmap path on every vertex.
pub(crate) const NNN_WINDOW: usize = 1 << 18;

/// The bitmaps one pool chunk owns. Both are all-zero between vertices.
pub(crate) struct ChunkBitmaps {
    /// The hub set of [`hnn_vertex`]: `hub_count` bits, or none.
    pub(crate) hubs: Bitmap,
    /// The NNN window of [`nnn_vertex`]: `min(|V|, window)` bits, or none.
    pub(crate) window: Bitmap,
}

impl ChunkBitmaps {
    /// Bitmaps for an HNN pass: the hub set only.
    pub(crate) fn hnn(lg: &LotusGraph) -> Self {
        Self {
            hubs: Bitmap::new(lg.hub_count as usize),
            window: Bitmap::new(0),
        }
    }

    /// Bitmaps for an NNN pass with a `window`-bit window
    /// ([`NNN_WINDOW`] outside tests).
    pub(crate) fn nnn(lg: &LotusGraph, window: usize) -> Self {
        Self {
            hubs: Bitmap::new(0),
            window: Bitmap::new(window.min(lg.num_vertices() as usize)),
        }
    }

    /// Bitmaps for a fused HNN + NNN pass: both bitmaps.
    pub(crate) fn fused(lg: &LotusGraph, window: usize) -> Self {
        Self {
            hubs: Bitmap::new(lg.hub_count as usize),
            ..Self::nnn(lg, window)
        }
    }
}

/// Runs `body` on every vertex of `lg` on the pool, at least
/// [`PAR_GRAIN`] vertices per chunk. Each chunk owns one [`ChunkBitmaps`],
/// made by `bitmaps`, that `body` may mark and must leave all-zero
/// again. The per-vertex results are combined with `combine`, starting
/// from `R::default()`.
pub(crate) fn fold_vertices<R, S, B, C>(lg: &LotusGraph, bitmaps: S, body: B, combine: C) -> R
where
    R: Default + Send,
    S: Fn() -> ChunkBitmaps + Sync + Send,
    B: Fn(&mut ChunkBitmaps, VertexId) -> R + Sync + Send,
    C: Fn(R, R) -> R + Sync + Send,
{
    let combine = &combine;
    (0..lg.num_vertices())
        .into_par_iter()
        .with_min_len(PAR_GRAIN)
        .fold(
            || (bitmaps(), R::default()),
            |(mut s, acc), v| {
                let found = body(&mut s, v);
                (s, combine(acc, found))
            },
        )
        .map(|(s, acc)| {
            debug_assert!(
                s.hubs.is_all_zero() && s.window.is_all_zero(),
                "a chunk left bits set"
            );
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

/// The entries of `nhe_v` to mark in `window`, when they fit it. The
/// third corner `w` of an NNN triangle `(v, u, w)` lies in NHE(v) below
/// `u`, and `u` is in NHE(v) too, so `w` is never the last entry: the
/// marks are all entries but the last. They fit when their span (last −
/// first + 1) is at most the window's size; `None` sends the vertex to
/// the merge join.
fn window_marks<'a>(nhe_v: &'a [u32], window: &Bitmap) -> Option<&'a [u32]> {
    let marks = &nhe_v[..nhe_v.len().saturating_sub(1)];
    match (marks.first(), marks.last()) {
        (Some(&lo), Some(&hi)) if (hi - lo) as usize + 1 > window.universe() => None,
        _ => Some(marks),
    }
}

/// Counts the NNN triangles `(v, u, w)` with `u` in NHE(v) and `w` in
/// NHE(v) ∩ NHE(u), calling `on_match(u, w)` for each. `window` must be
/// all-zero on entry and is all-zero again on return.
///
/// NHE(v) is marked at `w − lo`, `lo` its first entry; an entry of
/// NHE(u) below `lo` wraps past the window and is skipped. A vertex
/// whose marks span more than the window merge-joins NHE(v) with every
/// NHE(u) instead.
///
/// With telemetry armed, a bitmap-path vertex records once: one
/// intersection per `u` in NHE(v) (a fruitless one when it closes no
/// triangle) and one bitmap probe per NHE(u) entry, and no merge steps.
/// A merge-path vertex records what each merge join records.
#[inline]
pub(crate) fn nnn_vertex(
    lg: &LotusGraph,
    window: &mut Bitmap,
    v: VertexId,
    mut on_match: impl FnMut(u32, u32),
) -> u64 {
    let nhe_v = lg.nonhub_neighbors(v);
    let Some(&lo) = nhe_v.first() else {
        return 0;
    };
    rayon::sched::log_read(nhe_v, "phase3.nhe");
    let Some(marks) = window_marks(nhe_v, window) else {
        return nhe_v
            .iter()
            .map(|&u| merge_for_each(nhe_v, lg.nonhub_neighbors(u), |w| on_match(u, w)))
            .sum();
    };
    for &w in marks {
        window.set((w - lo) as usize);
    }
    let bits = window.universe();
    let mut found = 0u64;
    #[cfg(feature = "telemetry")]
    let (mut probes, mut fruitless) = (0u64, 0u64);
    for &u in nhe_v {
        let nhe_u = lg.nonhub_neighbors(u);
        let mut hits = 0u64;
        for &w in nhe_u {
            let bit = w.wrapping_sub(lo) as usize;
            if bit < bits && window.test(bit) {
                hits += 1;
                on_match(u, w);
            }
        }
        found += hits;
        #[cfg(feature = "telemetry")]
        {
            probes += nhe_u.len() as u64;
            fruitless += u64::from(hits == 0);
        }
    }
    for &w in marks {
        window.clear((w - lo) as usize);
    }
    #[cfg(feature = "telemetry")]
    {
        counters::add(Counter::Intersections, nhe_v.len() as u64);
        counters::add(Counter::FruitlessIntersections, fruitless);
        counters::add(Counter::BitmapProbes, probes);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HubCount, LotusConfig};
    use crate::count::{count_hnn_nnn_fused, count_nnn, count_nnn_guarded};
    use crate::per_vertex::count_per_vertex_in;
    use crate::preprocess::build_lotus_graph;
    use lotus_algos::intersect::count_merge;
    use lotus_graph::UndirectedCsr;
    use lotus_resilience::RunGuard;

    /// A window of one word: small graphs take both NNN paths.
    const SMALL: usize = 64;

    fn lotus(g: &UndirectedCsr, hubs: u32) -> LotusGraph {
        build_lotus_graph(
            g,
            &LotusConfig::default().with_hub_count(HubCount::Fixed(hubs)),
        )
    }

    /// The paper's NNN phase: Σ count_merge(NHE(v), NHE(u)).
    fn merge_nnn(lg: &LotusGraph) -> u64 {
        (0..lg.num_vertices())
            .flat_map(|v| {
                let nhe_v = lg.nonhub_neighbors(v);
                nhe_v
                    .iter()
                    .map(move |&u| count_merge(nhe_v, lg.nonhub_neighbors(u)))
            })
            .sum()
    }

    /// Every NNN path agrees with the merge reference with a `window`-bit
    /// window; per-vertex counts agree with Forward's.
    fn assert_nnn_paths_agree(g: &UndirectedCsr, hubs: u32, window: usize, what: &str) {
        let lg = lotus(g, hubs);
        let want = merge_nnn(&lg);
        assert_eq!(count_nnn(&lg, window), want, "{what} hubs {hubs}: plain");
        let guarded = count_nnn_guarded(&lg, &RunGuard::unlimited(), window);
        assert_eq!(guarded, Ok(want), "{what} hubs {hubs}: guarded");
        let fused = count_hnn_nnn_fused(&lg, window).1;
        assert_eq!(fused, want, "{what} hubs {hubs}: fused");
        assert_eq!(
            count_per_vertex_in(&lg, window),
            lotus_algos::forward::per_vertex_counts(g),
            "{what} hubs {hubs}: per vertex"
        );
    }

    #[test]
    fn marks_fit_a_window_up_to_its_last_bit() {
        let window = Bitmap::new(SMALL);
        // The last entry is never marked; 10..=73 spans 64 bits exactly.
        assert_eq!(window_marks(&[10, 73, 500], &window), Some(&[10, 73][..]));
        assert_eq!(window_marks(&[10, 74, 500], &window), None);
        assert_eq!(window_marks(&[10, 500], &window), Some(&[10][..]));
        assert_eq!(window_marks(&[10], &window), Some(&[][..]));
        assert_eq!(window_marks(&[], &window), Some(&[][..]));
    }

    /// In the circulant `C_n(1, 2, k)` every vertex has degree 6, so the
    /// relabeling keeps IDs, and NHE(v) = {v − k, v − 2, v − 1} for
    /// `k ≤ v < n − k`. Its marks span `k − 1` bits, and the triangle
    /// `(v, v − 1, v − 2)` closes on the last of them.
    #[test]
    fn a_span_of_exactly_the_window_uses_its_last_bit() {
        let n = 1000u32;
        for (k, fits) in [(SMALL as u32 + 1, true), (SMALL as u32 + 2, false)] {
            let pairs = (0..n).flat_map(|v| [1, 2, k].map(|d| (v, (v + d) % n)));
            let g = lotus_graph::builder::graph_from_edges(pairs);
            let lg = lotus(&g, 0);
            let v = n / 2;
            assert_eq!(lg.nonhub_neighbors(v), [v - k, v - 2, v - 1]);
            let window = Bitmap::new(SMALL);
            let marks = window_marks(lg.nonhub_neighbors(v), &window);
            assert_eq!(marks.is_some(), fits, "k {k}");
            assert_eq!(merge_nnn(&lg), u64::from(n), "k {k}");
            assert_nnn_paths_agree(&g, 0, SMALL, &format!("C_{n}(1, 2, {k})"));
        }
    }

    /// Both the bitmap and the merge path run on small graphs with a
    /// one-word window, and every NNN path still matches the merge join.
    #[test]
    fn nnn_paths_match_merge_reference_in_a_small_window() {
        for seed in 0..3u64 {
            let rmat = lotus_gen::Rmat::new(9, 8).generate(seed);
            let er = lotus_gen::ErdosRenyi::new(400, 4000).generate(seed);
            for (g, what) in [(&rmat, "rmat"), (&er, "er")] {
                let lg = lotus(g, 0);
                let (bitmap, merge): (Vec<_>, Vec<_>) = (0..lg.num_vertices())
                    .filter(|&v| lg.nonhub_neighbors(v).len() > 2)
                    .partition(|&v| {
                        window_marks(lg.nonhub_neighbors(v), &Bitmap::new(SMALL)).is_some()
                    });
                assert!(!bitmap.is_empty() && !merge.is_empty(), "{what} {seed}");
                for hubs in [0u32, 1, 64, 128] {
                    assert_nnn_paths_agree(g, hubs, SMALL, &format!("{what} seed {seed}"));
                }
            }
        }
    }
}
