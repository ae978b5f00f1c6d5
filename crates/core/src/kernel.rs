//! The per-vertex and per-tile kernels of Algorithm 3's three phases,
//! and the pool fold that runs them.
//!
//! Every kernel marks one list in a bitmap the pool chunk owns and tests
//! the other side against it, where the paper probes bit by bit or
//! merge-joins; the bitmap is all-zero again when the kernel returns.
//!
//! * [`hub_pairs_tile`] (phase 1, HHH + HHN) marks the hub neighbours
//!   HE(v) it has passed, in the same hub set, and counts a row's
//!   connected pairs as the popcount of the H2H row's words ANDed with
//!   the marks: the masked row intersection `A ∘ (A·A)` (DESIGN.md §3,
//!   substitution 8). A row with few pairs per word probes pair by pair
//!   as the paper does.
//! * [`hnn_vertex`] (HNN) marks HE(v) and probes the HE list of every
//!   non-hub neighbour `u`: Latapy's new-vertex-listing (§6.1). Hub IDs
//!   lie below `hub_count ≤ 2¹⁶`, so the hub set is at most 8 KiB
//!   (substitution 6).
//! * [`nnn_vertex`] (NNN) marks NHE(v) relative to its first entry, in a
//!   window of at most [`NNN_WINDOW`] bits (32 KiB) whatever |V| is, and
//!   probes every NHE(u), after one branch-free pass has touched all of
//!   those rows so their cache misses overlap. A vertex whose NHE(v)
//!   spans more than the window takes the merge join instead
//!   (substitution 7).
//!
//! The one counting driver ([`crate::count`]) runs [`hub_pairs_tile`]
//! in phase 1, [`hnn_vertex`] in HNN and [`nnn_vertex`] in NNN, split or
//! fused, whether it counts or credits corners per vertex. The
//! single-tile replay runs [`hub_pairs_tile`] too, and blocked HNN runs
//! [`hnn_vertex`]. All but the single-tile replay run inside
//! [`fold_chunks`].

use rayon::prelude::*;

use lotus_algos::intersect::merge::merge_for_each;
use lotus_algos::intersect::Bitmap;
use lotus_graph::VertexId;
#[cfg(feature = "telemetry")]
use lotus_telemetry::{counters, Counter};

use crate::count::{Corners, PAR_GRAIN};
use crate::h2h::TriBitArray;
use crate::structure::LotusGraph;
use crate::tiling::Tile;

/// Bits of a pool chunk's NNN window: 32 KiB. Graphs of up to this many
/// vertices take the bitmap path on every vertex.
pub(crate) const NNN_WINDOW: usize = 1 << 18;

/// Phase 1 probes row `i` of a tile pair by pair while `i`, its number
/// of pairs, is at most this many times the number of H2H words the
/// row's marks span, and ANDs whole words otherwise.
pub(crate) const PAIR_PROBE_CROSSOVER: usize = 4;

/// The bitmaps one pool chunk owns. Both are all-zero between items.
pub(crate) struct ChunkBitmaps {
    /// The hub set of [`hub_pairs_tile`] and [`hnn_vertex`]: `hub_count`
    /// bits, or none.
    pub(crate) hubs: Bitmap,
    /// The NNN window of [`nnn_vertex`]: `min(|V|, window)` bits, or none.
    pub(crate) window: Bitmap,
}

impl ChunkBitmaps {
    /// Bitmaps for one pass: the hub set when `hubs` (phase 1 and HNN),
    /// and a `window`-bit NNN window, none when `window` is 0 (NNN takes
    /// [`NNN_WINDOW`] outside tests).
    pub(crate) fn new(lg: &LotusGraph, hubs: bool, window: usize) -> Self {
        Self {
            hubs: Bitmap::new(if hubs { lg.hub_count as usize } else { 0 }),
            window: Bitmap::new(window.min(lg.num_vertices() as usize)),
        }
    }
}

/// Runs `body` on every vertex of `lg` on the pool, at least
/// [`PAR_GRAIN`] vertices per chunk, as [`fold_chunks`] does.
pub(crate) fn fold_vertices<R, K, S, B, C>(
    lg: &LotusGraph,
    corners: &K,
    bitmaps: S,
    body: B,
    combine: C,
) -> R
where
    R: Default + Send,
    K: Corners + ?Sized,
    S: Fn() -> ChunkBitmaps + Sync + Send,
    B: Fn(&mut ChunkBitmaps, &mut K::Tally, VertexId) -> R + Sync + Send,
    C: Fn(R, R) -> R + Sync + Send,
{
    let vertices = (0..lg.num_vertices())
        .into_par_iter()
        .with_min_len(PAR_GRAIN);
    fold_chunks(vertices, corners, bitmaps, body, combine)
}

/// Runs `body` on every item of `items` on the pool. Each chunk owns one
/// [`ChunkBitmaps`], made by `bitmaps`, that `body` may mark and must
/// leave all-zero again, and one tally of `corners`, which `body` credits
/// and which is flushed into `corners` when the chunk ends: at most one
/// chunk's state per executor is alive at a time. The per-item results
/// are combined with `combine`, starting from `R::default()`.
pub(crate) fn fold_chunks<P, R, K, S, B, C>(
    items: P,
    corners: &K,
    bitmaps: S,
    body: B,
    combine: C,
) -> R
where
    P: ParallelIterator,
    R: Default + Send,
    K: Corners + ?Sized,
    S: Fn() -> ChunkBitmaps + Sync + Send,
    B: Fn(&mut ChunkBitmaps, &mut K::Tally, P::Item) -> R + Sync + Send,
    C: Fn(R, R) -> R + Sync + Send,
{
    let combine = &combine;
    items
        .fold(
            || (bitmaps(), corners.tally(), R::default()),
            |(mut s, mut tally, acc), item| {
                let found = body(&mut s, &mut tally, item);
                (s, tally, combine(acc, found))
            },
        )
        .map(|(s, tally, acc)| {
            debug_assert!(
                s.hubs.is_all_zero() && s.window.is_all_zero(),
                "a chunk left bits set"
            );
            corners.flush(tally);
            acc
        })
        .reduce(R::default, combine)
}

/// Counts the connected hub pairs `(HE(v)[i], HE(v)[j])`, `j < i`, of
/// rows `i` in `tile` (one tile of `he`, the list HE(v)), calling
/// `on_match(h1, h2)` for each. `marks` holds at least `hub_count` bits;
/// it must be all-zero on entry and is all-zero again on return.
///
/// The tile first marks `he[..begin]`. When row `i` comes up, the marks
/// are then exactly `he[..i]`, all below `h1 = he[i]`, so the row's
/// connected pairs are the set bits of H2H row `h1` ANDed with the marks,
/// over the words up to the last mark's. A row of at most `crossover`
/// (see [`PAIR_PROBE_CROSSOVER`]) pairs per word probes its `i` pairs bit
/// by bit instead. Either way `h1` is marked next.
///
/// With telemetry armed, a tile records one tile visit, one H2H probe per
/// pair it covers ([`Tile::work`]) and one hit per connected pair, as the
/// per-pair probe loop recorded them.
#[inline]
pub(crate) fn hub_pairs_tile(
    h2h: &TriBitArray,
    marks: &mut Bitmap,
    he: &[u16],
    tile: &Tile,
    crossover: usize,
    mut on_match: impl FnMut(u16, u16),
) -> u64 {
    rayon::sched::log_read(he, "phase1.he");
    let (begin, end) = (tile.begin as usize, tile.end as usize);
    marks.mark(&he[..begin]);
    let mut found = 0u64;
    for i in begin..end {
        let h1 = he[i];
        let base = TriBitArray::row_base(u32::from(h1));
        if let Some(&last) = he[..i].last() {
            let words = usize::from(last >> 6) + 1;
            if i <= crossover.saturating_mul(words) {
                for &h2 in &he[..i] {
                    if h2h.is_set_with_base(base, u32::from(h2)) {
                        found += 1;
                        on_match(h1, h2);
                    }
                }
            } else {
                for (w, &mark) in marks.words()[..words].iter().enumerate() {
                    let mut hits = h2h.row_word(base, w) & mark;
                    let n = hits.count_ones();
                    found += u64::from(n);
                    // A counted loop: with a no-op `on_match` it folds away.
                    for _ in 0..n {
                        on_match(h1, (w * 64) as u16 | hits.trailing_zeros() as u16);
                        hits &= hits - 1;
                    }
                }
            }
        }
        marks.set(usize::from(h1));
    }
    marks.unmark(&he[..end]);
    #[cfg(feature = "telemetry")]
    {
        counters::incr(Counter::TileVisits);
        counters::add(Counter::H2hProbes, tile.work());
        counters::add(Counter::H2hHits, found);
    }
    found
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

/// Reads the offset and the first entry of every NHE(u), `u` in `nhe_v`,
/// before any of them is probed. The loop has no data-dependent branch,
/// so the offset and row misses of all of NHE(v) are in flight together
/// instead of one after each probe loop's exit (DESIGN.md §3,
/// substitution 7). `nhe_v` must be non-empty: then so are the entries.
#[inline]
fn gather_rows(lg: &LotusGraph, nhe_v: &[u32]) {
    let (offsets, entries) = (lg.nhe.offsets(), lg.nhe.entries());
    let last = entries.len() - 1;
    let mut seen = 0u32;
    for &u in nhe_v {
        // An empty NHE(u) starts where the next row does, or at the end.
        seen ^= entries[(offsets[u as usize] as usize).min(last)];
    }
    std::hint::black_box(seen);
}

/// Counts the NNN triangles `(v, u, w)` with `u` in NHE(v) and `w` in
/// NHE(v) ∩ NHE(u), calling `on_match(u, w)` for each. `window` must be
/// all-zero on entry and is all-zero again on return.
///
/// NHE(v) is marked at `w − lo`, `lo` its first entry; the rows NHE(u)
/// are gathered ([`gather_rows`]), then probed. An entry of NHE(u) below
/// `lo` wraps past the window and is skipped. A vertex whose marks span
/// more than the window merge-joins NHE(v) with every NHE(u) instead,
/// without the gather.
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
    gather_rows(lg, nhe_v);
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
    use crate::count::{count_single_tile, hnn_nnn_fused, hub_pairs, nnn, LotusCounter};
    use crate::per_vertex::count_per_vertex_in;
    use crate::preprocess::build_lotus_graph;
    use crate::tiling::{make_tiles, SqrtFractions};
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
        let unlimited = RunGuard::unlimited();
        let split = nnn(&lg, &unlimited, window, &());
        assert_eq!(split, Ok(want), "{what} hubs {hubs}: split");
        let fused = hnn_nnn_fused(&lg, &unlimited, window, &()).map(|(_, nnn)| nnn);
        assert_eq!(fused, Ok(want), "{what} hubs {hubs}: fused");
        assert_eq!(
            count_per_vertex_in(&lg, &LotusCounter::default(), window, PAIR_PROBE_CROSSOVER),
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

    /// Crossovers that force every row of a tile onto the word path, mix
    /// the two paths as counting does, and force the per-pair probe.
    const CROSSOVERS: [usize; 3] = [0, PAIR_PROBE_CROSSOVER, usize::MAX];

    /// The paper's phase 1 on one tile: `Σ_{j<i} is_set(HE[i], HE[j])`,
    /// with the pairs found.
    fn probe_tile(h2h: &TriBitArray, he: &[u16], tile: &Tile) -> Vec<(u16, u16)> {
        let mut pairs = Vec::new();
        for i in tile.begin as usize..tile.end as usize {
            for &h2 in &he[..i] {
                if h2h.is_set(u32::from(he[i]), u32::from(h2)) {
                    pairs.push((he[i], h2));
                }
            }
        }
        pairs
    }

    /// A SplitMix64 stream: the tests' fixed pseudo-random bits.
    fn bits(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// An H2H array over `hubs` hubs with about half its bits set.
    fn random_h2h(hubs: u32, seed: u64) -> TriBitArray {
        let mut next = bits(seed);
        let mut h2h = TriBitArray::new(hubs);
        for h1 in 1..hubs {
            for h2 in 0..h1 {
                if next() & 1 == 1 {
                    h2h.set(h1, h2);
                }
            }
        }
        h2h
    }

    /// The tiles of a list of `len` rows: the whole list, a squared-edge
    /// split into three, and one tile per row.
    fn tiles_of(len: u32) -> Vec<Vec<Tile>> {
        let whole = Tile {
            v: 0,
            begin: 0,
            end: len,
        };
        let mut split = Vec::new();
        SqrtFractions::new(3).tiles_for(0, len, &mut split);
        let rows = (0..len)
            .map(|i| Tile {
                v: 0,
                begin: i,
                end: i + 1,
            })
            .collect();
        vec![vec![whole], split, rows]
    }

    /// The kernel finds the probe reference's pairs on every tile of
    /// every list, with each crossover, and leaves the marks all-zero.
    fn assert_kernel_matches_probe(h2h: &TriBitArray, he: &[u16], what: &str) {
        let mut marks = Bitmap::new(h2h.hub_count() as usize);
        for tiles in tiles_of(he.len() as u32) {
            for tile in &tiles {
                let want = probe_tile(h2h, he, tile);
                for crossover in CROSSOVERS {
                    let mut got = Vec::new();
                    let found = hub_pairs_tile(h2h, &mut marks, he, tile, crossover, |h1, h2| {
                        got.push((h1, h2));
                    });
                    got.sort_unstable();
                    let mut want = want.clone();
                    want.sort_unstable();
                    let at = format!("{what}: tile {tile:?} crossover {crossover}");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(found, want.len() as u64, "{at}");
                    assert!(marks.is_all_zero(), "{at}: marks left set");
                }
            }
        }
    }

    #[test]
    fn hub_pairs_tile_matches_the_pair_probe() {
        for hubs in [0u32, 1, 2, 63, 64, 65, 67, 128, 4096] {
            let h2h = random_h2h(hubs, u64::from(hubs));
            let all: Vec<u16> = (0..hubs).map(|h| h as u16).collect();
            // The full list reaches the last row of H2H with every mark
            // set; the sparse lists leave gaps and skip whole words.
            let mut next = bits(u64::from(hubs) + 7);
            let half: Vec<u16> = all.iter().copied().filter(|_| next() & 1 == 1).collect();
            let sparse: Vec<u16> = all
                .iter()
                .copied()
                .filter(|_| next().is_multiple_of(16))
                .collect();
            let tail: Vec<u16> = all.iter().copied().skip(all.len() * 3 / 4).collect();
            for (he, list) in [
                (&all, "all"),
                (&half, "half"),
                (&sparse, "sparse"),
                (&tail, "tail"),
            ] {
                let what = format!("{hubs} hubs, {list} list");
                assert_kernel_matches_probe(&h2h, he, &what);
            }
        }
    }

    /// The cases the word path must get right all occur in
    /// [`hub_pairs_tile_matches_the_pair_probe`]'s full lists: rows whose
    /// base is word-aligned and rows whose base is not, and a last row
    /// whose final word's funnel shift reads past the array.
    #[test]
    fn full_lists_cover_aligned_unaligned_and_past_the_end_rows() {
        let base = |h1: u32| TriBitArray::row_base(h1);
        let rows = 2..4096u32;
        assert!(rows.clone().any(|h1| base(h1).is_multiple_of(64)));
        assert!(rows.clone().any(|h1| !base(h1).is_multiple_of(64)));
        let past_the_end = [2u32, 128].map(|hubs| {
            let last = hubs - 1;
            let words = ((last as usize - 1) >> 6) + 1;
            let final_bit = base(last) + 64 * (words as u64 - 1);
            (final_bit >> 6) as usize + 1 >= TriBitArray::new(hubs).words().len()
        });
        assert_eq!(past_the_end, [true, true]);
    }

    /// The paper's phase 1 over `tiles`: per-pair probes, as `(hhh, hhn)`.
    fn probe_phase(lg: &LotusGraph, tiles: &[Tile]) -> (u64, u64) {
        tiles.iter().fold((0, 0), |(hhh, hhn), t| {
            let found = probe_tile(&lg.h2h, lg.hub_neighbors(t.v), t).len() as u64;
            if lg.is_hub(t.v) {
                (hhh + found, hhn)
            } else {
                (hhh, hhn + found)
            }
        })
    }

    /// Every phase-1 path agrees with the per-pair probe on tiles that
    /// start in the middle of a list: counting and per-vertex with each
    /// crossover, and the single-tile replay.
    #[test]
    fn phase1_paths_match_the_pair_probe() {
        let rmat = lotus_gen::Rmat::new(12, 16).generate(5);
        let er = lotus_gen::ErdosRenyi::new(300, 9000).generate(5);
        for (g, what) in [(&rmat, "rmat"), (&er, "er")] {
            let per_vertex = lotus_algos::forward::per_vertex_counts(g);
            for hubs in [0u32, 1, 2, 63, 64, 65, 128, 4096] {
                let lg = lotus(g, hubs);
                let tiles = make_tiles(&lg.he, 8, 3);
                assert!(tiles.iter().any(|t| t.begin > 0) || lg.hub_count < 9);
                let want = probe_phase(&lg, &tiles);
                let mut marks = Bitmap::new(lg.hub_count as usize);
                for crossover in CROSSOVERS {
                    let at = format!("{what} hubs {hubs} crossover {crossover}");
                    let found = hub_pairs(&lg, &tiles, &RunGuard::unlimited(), crossover, &());
                    assert_eq!(found, Ok(want), "{at}: count");
                    let counts =
                        count_per_vertex_in(&lg, &LotusCounter::default(), NNN_WINDOW, crossover);
                    assert_eq!(counts, per_vertex, "{at}: per vertex");
                }
                let single: u64 = tiles
                    .iter()
                    .map(|t| count_single_tile(&lg.h2h, &mut marks, lg.hub_neighbors(t.v), t))
                    .sum();
                let at = format!("{what} hubs {hubs}");
                assert_eq!(single, want.0 + want.1, "{at}: single tiles");
                assert!(marks.is_all_zero(), "{at}: single tiles left marks");
            }
        }
    }
}
