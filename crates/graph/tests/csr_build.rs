//! The CSR build against a naive set-adjacency reference, and the bytes
//! of generated graphs pinned so that a change to graph construction
//! cannot move them.

use std::collections::BTreeSet;

use lotus_gen::{BarabasiAlbert, ErdosRenyi, Rmat, WattsStrogatz};
use lotus_graph::crc32::Crc32;
use lotus_graph::{EdgeList, UndirectedCsr};

/// Canonicalizes `raw` and builds its CSR, then checks every list
/// against the `BTreeSet` adjacency of the raw pairs.
fn assert_matches_sets(raw: Vec<(u32, u32)>, num_vertices: u32) {
    let mut sets = vec![BTreeSet::new(); num_vertices as usize];
    for &(u, v) in raw.iter().filter(|(u, v)| u != v) {
        sets[u as usize].insert(v);
        sets[v as usize].insert(u);
    }
    let mut el = EdgeList::from_pairs_with_vertices(raw, num_vertices);
    el.canonicalize();
    let g = UndirectedCsr::from_canonical_edges(&el);
    assert_eq!(g.num_vertices(), num_vertices);
    let edges: usize = sets.iter().map(BTreeSet::len).sum();
    assert_eq!(2 * g.num_edges(), edges as u64);
    for (v, set) in sets.iter().enumerate() {
        assert!(g.neighbors(v as u32).iter().eq(set), "vertex {v}");
    }
}

/// A generated edge list made raw again: every pair reversed, every
/// third one duplicated, and a self-loop on every seventh vertex.
fn scrambled(el: &EdgeList) -> Vec<(u32, u32)> {
    let mut raw: Vec<(u32, u32)> = el.pairs().iter().map(|&(u, v)| (v, u)).collect();
    raw.extend(el.pairs().iter().step_by(3));
    raw.extend((0..el.num_vertices()).step_by(7).map(|v| (v, v)));
    raw
}

#[test]
fn csr_build_matches_set_adjacency_on_every_generator() {
    let lists = [
        Rmat::new(10, 8).generate_edges(3),
        ErdosRenyi::new(1500, 6000).generate_edges(5),
        BarabasiAlbert::new(800, 4).generate_edges(7),
        WattsStrogatz::new(900, 6, 0.2).generate_edges(9),
        // Far more vertices than edges touch: most are isolated.
        ErdosRenyi::new(50_000, 300).generate_edges(11),
    ];
    for el in &lists {
        assert_matches_sets(el.pairs().to_vec(), el.num_vertices());
        assert_matches_sets(scrambled(el), el.num_vertices());
    }
}

#[test]
fn csr_build_of_empty_and_isolated_graphs() {
    assert_matches_sets(Vec::new(), 0);
    assert_matches_sets(Vec::new(), 5);
    assert_matches_sets(vec![(3, 3), (7, 2), (2, 7), (9, 0)], 12);
}

/// CRC-32 of a graph's offset and neighbour bytes.
fn digest(g: &UndirectedCsr) -> u32 {
    let mut crc = Crc32::new();
    for o in g.csr().offsets() {
        crc.update(&o.to_le_bytes());
    }
    for n in g.csr().entries() {
        crc.update(&n.to_le_bytes());
    }
    crc.finalize()
}

#[test]
fn generated_graphs_keep_their_bytes() {
    let rmat = Rmat::new(12, 16);
    let er = ErdosRenyi::new(4096, 65_536);
    let got = [
        digest(&rmat.generate(1)),
        digest(&rmat.generate(2)),
        digest(&er.generate(1)),
        digest(&er.generate(2)),
    ];
    // Taken from the atomic-scatter-and-sort build this one replaced.
    assert_eq!(got, [0x27a5_5d8f, 0x7571_d18b, 0x4980_6d3f, 0x8b47_89b9]);
}
