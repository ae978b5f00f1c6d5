//! Neighbour-list intersection kernels.
//!
//! Triangle counting reduces to counting common elements of two sorted
//! neighbour lists; the kernel choice dominates the instruction mix
//! (paper §2.2, §6.3). Five kernels are provided:
//!
//! * [`merge`] — linear merge join; what the paper uses for its short
//!   non-hub lists ("prevents overheads imposed by other solutions",
//!   §4.4.3).
//! * [`binary`] — probe the longer list by binary search.
//! * [`gallop`] — exponential (galloping) search, adaptive to size skew.
//! * [`hash`] — probe a pre-built hash set (Forward-hashed style).
//! * [`bitmap`] — probe a dense bitmap (new-vertex-listing style).
//!
//! All kernels are generic over the stored neighbour width so they serve
//! both the 32-bit NHE lists and LOTUS's 16-bit HE lists.

pub mod binary;
pub mod bitmap;
pub mod branchless;
pub mod gallop;
pub mod hash;
pub mod merge;

pub use binary::count_binary;
pub use bitmap::Bitmap;
pub use branchless::count_branchless;
pub use gallop::count_gallop;
pub use hash::{count_hash, HashSide};
pub use merge::count_merge;

use lotus_graph::NeighborId;

/// Dynamic selector over the stateless intersection kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntersectKind {
    /// Linear merge join (LOTUS's choice for short lists).
    #[default]
    Merge,
    /// Binary search of the longer list.
    Binary,
    /// Galloping search.
    Gallop,
    /// Branch-free binary search (§6.3).
    Branchless,
    /// Hash-set probe (builds the set per call; prefer
    /// [`hash::HashSide`] for amortized reuse).
    Hash,
}

impl IntersectKind {
    /// All stateless kernels, for sweeps.
    pub const ALL: [IntersectKind; 5] = [
        IntersectKind::Merge,
        IntersectKind::Binary,
        IntersectKind::Gallop,
        IntersectKind::Branchless,
        IntersectKind::Hash,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            IntersectKind::Merge => "merge",
            IntersectKind::Binary => "binary",
            IntersectKind::Gallop => "gallop",
            IntersectKind::Branchless => "branchless",
            IntersectKind::Hash => "hash",
        }
    }

    /// Counts `|a ∩ b|` with the selected kernel. Both inputs must be
    /// sorted ascending and duplicate-free.
    #[inline]
    pub fn count<N: NeighborId>(&self, a: &[N], b: &[N]) -> u64 {
        match self {
            IntersectKind::Merge => count_merge(a, b),
            IntersectKind::Binary => count_binary(a, b),
            IntersectKind::Gallop => count_gallop(a, b),
            IntersectKind::Branchless => count_branchless(a, b),
            IntersectKind::Hash => count_hash(a, b),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use lotus_graph::NeighborId;

    /// Reference intersection via double loop (inputs sorted, distinct).
    pub fn reference<N: NeighborId>(a: &[N], b: &[N]) -> u64 {
        a.iter().filter(|x| b.contains(x)).count() as u64
    }

    /// Deterministic pseudo-random sorted distinct list.
    pub fn sorted_list(seed: u64, len: usize, universe: u32) -> Vec<u32> {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
        let mut v: Vec<u32> = (0..len * 2)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % universe as u64) as u32
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v.truncate(len);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{reference, sorted_list};
    use super::*;

    #[test]
    fn kernels_agree_on_random_lists() {
        for seed in 0..20u64 {
            let a = sorted_list(seed, 50, 300);
            let b = sorted_list(seed + 100, 80, 300);
            let want = reference(&a, &b);
            for k in IntersectKind::ALL {
                assert_eq!(k.count(&a, &b), want, "kernel {k:?} seed {seed}");
            }
        }
    }

    #[test]
    fn kernels_handle_empty_and_disjoint() {
        let a: Vec<u32> = vec![];
        let b = vec![1u32, 2, 3];
        for k in IntersectKind::ALL {
            assert_eq!(k.count(&a, &b), 0);
            assert_eq!(k.count(&b, &a), 0);
            assert_eq!(k.count(&[10u32, 20], &[1, 2, 3]), 0);
        }
    }

    #[test]
    fn kernels_work_on_u16() {
        let a = vec![1u16, 5, 9, 200];
        let b = vec![5u16, 9, 10];
        for k in IntersectKind::ALL {
            assert_eq!(k.count(&a, &b), 2);
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> = IntersectKind::ALL
            .iter()
            .map(super::IntersectKind::name)
            .collect();
        assert_eq!(names.len(), 5);
    }
}
