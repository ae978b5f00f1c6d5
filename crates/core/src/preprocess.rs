//! LOTUS preprocessing (paper Algorithm 2).
//!
//! Builds the [`LotusGraph`] from an arbitrary undirected graph:
//!
//! 1. hub-first relabeling — hubs (top `hub_count` by degree) get the
//!    first IDs, the rest of the top-10% head follows, remaining vertices
//!    keep their original relative order (§4.3.1);
//! 2. per-vertex split of lower neighbours into hub (HE, 16-bit) and
//!    non-hub (NHE, 32-bit) lists;
//! 3. atomic population of the H2H triangular bit array for hub–hub edges.
//!
//! The pass over vertices is parallel, mirroring the paper's `par_for`,
//! in two passes with prefix-sum offsets in between. Pass 1 counts each
//! vertex's lower hub and non-hub neighbours without branches. Pass 2
//! compacts the lower neighbours, again without branches, into a buffer
//! the pool chunk owns, sorts it once and splits it: hub IDs come first,
//! so the sorted head is HE(v) and the rest NHE(v). The hub-first
//! relabeling picks hubs with a counting sort over degrees
//! ([`lotus_graph::degree::top_k_by_degree`]).

use rayon::prelude::*;

use lotus_graph::{Csr, Relabeling, UndirectedCsr};
use lotus_resilience::{fault_point, RunGuard, StopReason};

use crate::config::LotusConfig;
use crate::count::PAR_GRAIN;
use crate::h2h::TriBitArrayBuilder;
use crate::structure::LotusGraph;

/// Entries a pass-2 scratch buffer starts with: 4 KiB, past the largest
/// block glibc's per-thread cache keeps. A buffer grown from empty frees
/// small blocks into that cache, where they sit at the top of the heap
/// above the LOTUS arrays and keep the arrays' memory resident after the
/// graph is dropped.
const SCRATCH_ENTRIES: usize = 1024;

/// Builds the LOTUS graph structure from an undirected graph.
pub fn build_lotus_graph(graph: &UndirectedCsr, config: &LotusConfig) -> LotusGraph {
    match build_lotus_graph_guarded(graph, config, &RunGuard::unlimited()) {
        Ok(lg) => lg,
        // An unlimited guard never reports a stop condition.
        Err(reason) => unreachable!("unlimited guard stopped preprocessing: {reason}"),
    }
}

/// Builds the LOTUS graph under a [`RunGuard`], polling for cancellation
/// or deadline expiry every 1024 vertices in both parallel passes.
/// Preprocessing has no meaningful partial result, so a stop discards
/// everything built so far.
///
/// # Errors
/// Returns the guard's stop reason; no partial graph is kept.
pub fn build_lotus_graph_guarded(
    graph: &UndirectedCsr,
    config: &LotusConfig,
    guard: &RunGuard,
) -> Result<LotusGraph, StopReason> {
    build_guarded_with(graph, config, guard, || {})
}

/// [`build_lotus_graph_guarded`], running `between_passes` after pass 1
/// has finished (tests cancel the guard there).
fn build_guarded_with(
    graph: &UndirectedCsr,
    config: &LotusConfig,
    guard: &RunGuard,
    between_passes: impl FnOnce(),
) -> Result<LotusGraph, StopReason> {
    fault_point!(panic: "core.preprocess.build");
    let n = graph.num_vertices();
    let hub_count = config.resolved_hub_count(n);
    let head_count = config.resolved_head_count(n);

    // Line 1 of Algorithm 2: the relabeling array.
    let relabeling = Relabeling::hub_first(&graph.degrees(), head_count as usize);

    // Pass 1: per-new-vertex HE/NHE degrees. A lower neighbour is a hub
    // neighbour iff it lies below both `v` and `hub_count`.
    let mut he_deg = vec![0u32; n as usize];
    let mut nhe_deg = vec![0u32; n as usize];
    let poll = guard.poll_every(1024);
    he_deg
        .par_iter_mut()
        .zip(nhe_deg.par_iter_mut())
        .with_min_len(PAR_GRAIN)
        .enumerate()
        .for_each(|(v_new, (he_d, nhe_d))| {
            if poll.stopped(v_new) {
                return;
            }
            let v_new = v_new as u32;
            rayon::sched::log_write(std::slice::from_ref(he_d), "preprocess.he_deg");
            rayon::sched::log_write(std::slice::from_ref(nhe_d), "preprocess.nhe_deg");
            let nbrs = graph.neighbors(relabeling.old_id(v_new));
            rayon::sched::log_read(nbrs, "preprocess.csr_neighbors");
            let hub_below = v_new.min(hub_count);
            let (mut hubs, mut lower) = (0u32, 0u32);
            for &u_old in nbrs {
                // Symmetric edges (u ≥ v) are skipped; self-edges were
                // removed at build.
                let u_new = relabeling.new_id(u_old);
                hubs += u32::from(u_new < hub_below);
                lower += u32::from(u_new < v_new);
            }
            *he_d = hubs;
            *nhe_d = lower - hubs;
        });
    poll.finish(()).map_err(|(reason, ())| reason)?;
    between_passes();

    let prefix = |deg: &[u32]| -> Vec<u64> {
        let mut offsets = Vec::with_capacity(deg.len() + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for &d in deg {
            acc += d as u64;
            offsets.push(acc);
        }
        offsets
    };
    let he_offsets = prefix(&he_deg);
    let nhe_offsets = prefix(&nhe_deg);

    // Pass 2: fill the flat arrays. A pool item is a block of vertices and
    // its windows of the arrays: per-vertex slice pairs would outweigh the
    // arrays, and blocks of n / PAR_GRAIN vertices (at most PAR_GRAIN)
    // leave a small graph one vertex per item for the race checker. Each
    // chunk compacts a vertex's lower neighbours into a scratch buffer of
    // its own and sorts it once (setEdges(), Algorithm 2 lines 22-23): hub
    // IDs lie below every non-hub ID, so the sorted buffer is HE(v), NHE(v).
    let mut he_entries = vec![0u16; he_offsets.last().copied().unwrap_or(0) as usize];
    let mut nhe_entries = vec![0u32; nhe_offsets.last().copied().unwrap_or(0) as usize];
    let h2h = TriBitArrayBuilder::new(hub_count);

    let poll = guard.poll_every(1024);
    let n = n as usize;
    let block = n.div_ceil(PAR_GRAIN).clamp(1, PAR_GRAIN);
    let cuts = |offsets: &[u64]| -> Vec<u64> {
        let starts = offsets[..n].iter().step_by(block);
        starts.chain(offsets.last()).copied().collect()
    };
    split_by_offsets(&mut he_entries, &cuts(&he_offsets))
        .into_par_iter()
        .zip(split_by_offsets(&mut nhe_entries, &cuts(&nhe_offsets)).into_par_iter())
        .with_min_len(PAR_GRAIN.div_ceil(block))
        .enumerate()
        .for_each_init(
            || Vec::with_capacity(SCRATCH_ENTRIES),
            |lower: &mut Vec<u32>, (b, (he_block, nhe_block))| {
                let (lo, hi) = (b * block, (b * block + block).min(n));
                let he_slices = split_by_offsets(he_block, &he_offsets[lo..=hi]);
                let nhe_slices = split_by_offsets(nhe_block, &nhe_offsets[lo..=hi]);
                for (v, (he_out, nhe_out)) in (lo..).zip(he_slices.into_iter().zip(nhe_slices)) {
                    if poll.stopped(v) {
                        return;
                    }
                    let v_new = v as u32;
                    rayon::sched::log_write(he_out, "preprocess.he_entries");
                    rayon::sched::log_write(nhe_out, "preprocess.nhe_entries");
                    let nbrs = graph.neighbors(relabeling.old_id(v_new));
                    rayon::sched::log_read(nbrs, "preprocess.csr_neighbors");
                    if lower.len() < nbrs.len() {
                        lower.resize(nbrs.len(), 0);
                    }
                    let mut len = 0;
                    for &u_old in nbrs {
                        let u_new = relabeling.new_id(u_old);
                        lower[len] = u_new;
                        len += usize::from(u_new < v_new);
                    }
                    let lower_v = &mut lower[..len];
                    lower_v.sort_unstable();
                    let (hubs, rest) = lower_v.split_at(he_out.len());
                    for (h, &u) in he_out.iter_mut().zip(hubs) {
                        *h = u as u16;
                    }
                    nhe_out.copy_from_slice(rest);
                    if v_new < hub_count {
                        // A hub's lower neighbours are all hubs: record them
                        // in H2H.
                        for &h in hubs {
                            h2h.set(v_new, h);
                        }
                    }
                }
            },
        );
    poll.finish(()).map_err(|(reason, ())| reason)?;

    let he = Csr::from_parts(he_offsets, he_entries);
    let nhe = Csr::from_parts(nhe_offsets, nhe_entries);
    let lg = LotusGraph {
        hub_count,
        h2h: h2h.freeze(),
        he,
        nhe,
        relabeling,
        num_edges: graph.num_edges(),
    };
    // `validate`-feature hook: re-check the full LOTUS structural
    // invariants after preprocessing (debug-assert backed; `lotus check`
    // runs the richer lotus-check validator with per-violation reports).
    #[cfg(feature = "validate")]
    debug_assert!(
        lg.validate().is_ok(),
        "LOTUS structure invalid: {:?}",
        lg.validate()
    );
    Ok(lg)
}

/// Splits a flat array into the windows between consecutive offsets.
fn split_by_offsets<'a, T>(flat: &'a mut [T], offsets: &[u64]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(offsets.len() - 1);
    let mut rest = flat;
    for w in offsets.windows(2) {
        let len = (w[1] - w[0]) as usize;
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        out.push(head);
        rest = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HubCount;
    use lotus_graph::builder::graph_from_edges;

    fn cfg(hubs: u32) -> LotusConfig {
        LotusConfig::default().with_hub_count(HubCount::Fixed(hubs))
    }

    /// The example graph of paper Figure 2 (hubs: 0 and 1).
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
    fn structure_is_valid_on_figure2() {
        let g = figure2_graph();
        let lg = build_lotus_graph(&g, &cfg(2));
        lg.validate().expect("valid LOTUS graph");
        assert_eq!(lg.hub_count, 2);
        assert_eq!(lg.he_edges() + lg.nhe_edges(), g.num_edges());
    }

    #[test]
    fn hubs_are_highest_degree_vertices() {
        let g = figure2_graph();
        let lg = build_lotus_graph(&g, &cfg(2));
        // Degrees: v0=5, v1=5 are the two hubs; they map to IDs 0 and 1.
        assert!(lg.relabeling.new_id(0) < 2);
        assert!(lg.relabeling.new_id(1) < 2);
    }

    #[test]
    fn h2h_records_the_hub_hub_edge() {
        let g = figure2_graph();
        let lg = build_lotus_graph(&g, &cfg(2));
        assert_eq!(lg.h2h.bits_set(), 1); // only edge (0, 1)
        assert!(lg.h2h.is_set(1, 0));
    }

    #[test]
    fn hub_nhe_lists_are_empty() {
        let g = figure2_graph();
        let lg = build_lotus_graph(&g, &cfg(2));
        for h in 0..lg.hub_count {
            assert!(lg.nonhub_neighbors(h).is_empty());
        }
    }

    #[test]
    fn edge_partition_is_exact_on_rmat() {
        let g = lotus_gen::Rmat::new(10, 8).generate(5);
        let lg = build_lotus_graph(&g, &cfg(64));
        lg.validate().expect("valid");
        assert_eq!(lg.he_edges() + lg.nhe_edges(), g.num_edges());
    }

    #[test]
    fn all_vertices_hubs_degenerate_case() {
        let g = graph_from_edges([(0, 1), (1, 2), (0, 2)]);
        let lg = build_lotus_graph(&g, &cfg(3));
        lg.validate().expect("valid");
        assert_eq!(lg.nhe_edges(), 0);
        assert_eq!(lg.he_edges(), 3);
        assert_eq!(lg.h2h.bits_set(), 3);
    }

    #[test]
    fn zero_hub_degenerate_case() {
        // hub_count resolves to at least min(n, ...) via Fixed(0) → 0 hubs.
        let g = graph_from_edges([(0, 1), (1, 2), (0, 2)]);
        let lg = build_lotus_graph(&g, &cfg(0));
        lg.validate().expect("valid");
        assert_eq!(lg.he_edges(), 0);
        assert_eq!(lg.nhe_edges(), 3);
    }

    #[test]
    fn relabeling_preserves_graph_size() {
        let g = lotus_gen::Rmat::new(9, 6).generate(8);
        let lg = build_lotus_graph(&g, &LotusConfig::default());
        assert_eq!(lg.num_vertices(), g.num_vertices());
        assert_eq!(lg.num_edges, g.num_edges());
        lg.validate().expect("valid");
    }

    /// Algorithm 2, sequentially and straight from its definition: the
    /// head by a comparator sort, each vertex's lower neighbours split
    /// into hubs and non-hubs and sorted, H2H from the hubs' lists.
    fn reference(graph: &UndirectedCsr, config: &LotusConfig) -> LotusGraph {
        let n = graph.num_vertices();
        let hub_count = config.resolved_hub_count(n);
        let degrees = graph.degrees();
        let mut head: Vec<u32> = (0..n).collect();
        head.sort_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
        head.truncate(config.resolved_head_count(n) as usize);
        let mut old_to_new = vec![u32::MAX; n as usize];
        for (new, &old) in head.iter().enumerate() {
            old_to_new[old as usize] = new as u32;
        }
        let tail = old_to_new.iter_mut().filter(|new| **new == u32::MAX);
        for (new, next) in tail.zip(head.len() as u32..) {
            *new = next;
        }
        let relabeling = Relabeling::from_old_to_new(old_to_new);
        let mut he = vec![Vec::new(); n as usize];
        let mut nhe = vec![Vec::new(); n as usize];
        let mut h2h = crate::h2h::TriBitArray::new(hub_count);
        for v in 0..n {
            for &u_old in graph.neighbors(relabeling.old_id(v)) {
                let u = relabeling.new_id(u_old);
                if u >= v {
                    continue;
                }
                if u < hub_count {
                    he[v as usize].push(u as u16);
                    if v < hub_count {
                        h2h.set(v, u);
                    }
                } else {
                    nhe[v as usize].push(u);
                }
            }
            he[v as usize].sort_unstable();
            nhe[v as usize].sort_unstable();
        }
        LotusGraph {
            hub_count,
            h2h,
            he: Csr::from_adjacency(he),
            nhe: Csr::from_adjacency(nhe),
            relabeling,
            num_edges: graph.num_edges(),
        }
    }

    #[test]
    fn matches_the_sequential_reference() {
        let rmat = lotus_gen::Rmat::new(11, 8).generate(3);
        let er = lotus_gen::ErdosRenyi::new(1500, 12_000).generate(3);
        for (g, what) in [(&rmat, "rmat"), (&er, "er"), (&figure2_graph(), "figure 2")] {
            for hubs in [0u32, 1, 64, g.num_vertices()] {
                let config = cfg(hubs);
                let got = build_lotus_graph(g, &config);
                let want = reference(g, &config);
                let at = format!("{what} hubs {hubs}");
                assert_eq!(got.relabeling, want.relabeling, "{at}: relabeling");
                assert_eq!(got.he, want.he, "{at}: HE");
                assert_eq!(got.nhe, want.nhe, "{at}: NHE");
                assert_eq!(got.h2h, want.h2h, "{at}: H2H");
                assert_eq!(got.hub_count, want.hub_count, "{at}: hub count");
            }
        }
    }

    /// Pass 2 hands the pool blocks of vertices: on graphs whose last
    /// block is short (5,003 = 1,000 × 5 + 3) or whose blocks are full
    /// (2^13 = 1,024 × 8), at 1–4 threads, every vertex is written once
    /// and as the reference writes it.
    #[test]
    fn blocks_of_vertices_match_the_reference_at_every_thread_count() {
        let rmat = lotus_gen::Rmat::new(13, 8).generate(5);
        let er = lotus_gen::ErdosRenyi::new(5003, 40_000).generate(5);
        for (g, what) in [(&rmat, "rmat"), (&er, "er")] {
            assert!(g.num_vertices() as usize >= 4 * PAR_GRAIN, "{what}");
            let config = cfg(256);
            let want = reference(g, &config);
            for threads in 1..=4 {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                let got = pool.install(|| build_lotus_graph(g, &config));
                let at = format!("{what} {threads} threads");
                assert_eq!(got.he, want.he, "{at}: HE");
                assert_eq!(got.nhe, want.nhe, "{at}: NHE");
                assert_eq!(got.h2h, want.h2h, "{at}: H2H");
            }
        }
    }

    #[test]
    fn a_cancelled_guard_stops_either_pass() {
        use lotus_resilience::CancelToken;
        let g = lotus_gen::Rmat::new(11, 8).generate(3);
        let token = CancelToken::new();
        let guard = RunGuard::unlimited().with_cancel(token.clone());
        let in_pass_2 = build_guarded_with(&g, &cfg(64), &guard, || token.cancel());
        assert_eq!(in_pass_2.err(), Some(StopReason::Cancelled));
        let in_pass_1 = build_guarded_with(&g, &cfg(64), &guard, || unreachable!());
        assert_eq!(in_pass_1.err(), Some(StopReason::Cancelled));
    }
}
