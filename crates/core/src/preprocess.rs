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
//! The pass over vertices is parallel (two passes: degree count + fill,
//! with prefix-sum offsets in between), mirroring the paper's `par_for`.

use std::sync::atomic::{AtomicBool, Ordering};

use rayon::prelude::*;

use lotus_graph::{Csr, Relabeling, UndirectedCsr};
use lotus_resilience::{fault_point, RunGuard, StopReason};

use crate::config::LotusConfig;
use crate::count::PAR_GRAIN;
use crate::h2h::TriBitArrayBuilder;
use crate::structure::LotusGraph;

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
    fault_point!(panic: "core.preprocess.build");
    let n = graph.num_vertices();
    let hub_count = config.resolved_hub_count(n);
    let head_count = config.resolved_head_count(n);
    let stopped = AtomicBool::new(false);
    let poll = |v_new: u32| -> bool {
        if stopped.load(Ordering::Relaxed) {
            return true;
        }
        if v_new & 0x3ff == 0 && guard.should_stop().is_some() {
            stopped.store(true, Ordering::Relaxed);
            return true;
        }
        false
    };

    // Line 1 of Algorithm 2: the relabeling array.
    let relabeling = Relabeling::hub_first(&graph.degrees(), head_count as usize);

    // Pass 1: per-new-vertex HE/NHE degrees.
    let mut he_deg = vec![0u32; n as usize];
    let mut nhe_deg = vec![0u32; n as usize];
    he_deg
        .par_iter_mut()
        .zip(nhe_deg.par_iter_mut())
        .with_min_len(PAR_GRAIN)
        .enumerate()
        .for_each(|(v_new, (he_d, nhe_d))| {
            let v_new = v_new as u32;
            if poll(v_new) {
                return;
            }
            rayon::sched::log_write(std::slice::from_ref(he_d), "preprocess.he_deg");
            rayon::sched::log_write(std::slice::from_ref(nhe_d), "preprocess.nhe_deg");
            let v_old = relabeling.old_id(v_new);
            let nbrs = graph.neighbors(v_old);
            rayon::sched::log_read(nbrs, "preprocess.csr_neighbors");
            for &u_old in nbrs {
                let u_new = relabeling.new_id(u_old);
                if u_new >= v_new {
                    continue; // symmetric edge (self-edges were removed at build)
                }
                if u_new < hub_count {
                    *he_d += 1;
                } else {
                    *nhe_d += 1;
                }
            }
        });
    if let Some(reason) = stop_reason(guard, &stopped) {
        return Err(reason);
    }

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

    // Pass 2: fill the flat arrays; one writer per vertex, so the slices
    // can be handed out disjointly.
    let mut he_entries = vec![0u16; he_offsets.last().copied().unwrap_or(0) as usize];
    let mut nhe_entries = vec![0u32; nhe_offsets.last().copied().unwrap_or(0) as usize];
    let h2h = TriBitArrayBuilder::new(hub_count);

    {
        let he_slices = split_by_offsets(&mut he_entries, &he_offsets);
        let nhe_slices = split_by_offsets(&mut nhe_entries, &nhe_offsets);
        he_slices
            .into_par_iter()
            .zip(nhe_slices.into_par_iter())
            .with_min_len(PAR_GRAIN)
            .enumerate()
            .for_each(|(v_new, (he_out, nhe_out))| {
                let v_new = v_new as u32;
                if poll(v_new) {
                    return;
                }
                rayon::sched::log_write(he_out, "preprocess.he_entries");
                rayon::sched::log_write(nhe_out, "preprocess.nhe_entries");
                let v_old = relabeling.old_id(v_new);
                let nbrs = graph.neighbors(v_old);
                rayon::sched::log_read(nbrs, "preprocess.csr_neighbors");
                let mut hi = 0;
                let mut ni = 0;
                for &u_old in nbrs {
                    let u_new = relabeling.new_id(u_old);
                    if u_new >= v_new {
                        continue;
                    }
                    if u_new < hub_count {
                        he_out[hi] = u_new as u16;
                        hi += 1;
                        if v_new < hub_count {
                            // Hub neighbour of a hub: record in H2H.
                            h2h.set(v_new, u_new);
                        }
                    } else {
                        nhe_out[ni] = u_new;
                        ni += 1;
                    }
                }
                // setEdges() sorts each list (Algorithm 2, lines 22-23).
                he_out.sort_unstable();
                nhe_out.sort_unstable();
            });
    }
    if let Some(reason) = stop_reason(guard, &stopped) {
        return Err(reason);
    }

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

/// Resolves the stop flag set inside a parallel pass back to its reason.
fn stop_reason(guard: &RunGuard, stopped: &AtomicBool) -> Option<StopReason> {
    if stopped.load(Ordering::Relaxed) {
        guard.should_stop()
    } else {
        None
    }
}

/// Splits a flat array into per-vertex windows according to offsets.
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
}
