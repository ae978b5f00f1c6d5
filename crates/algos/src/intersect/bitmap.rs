//! Dense-bitmap intersection.
//!
//! Latapy's new-vertex-listing approach (paper §6.1): mark one list's
//! elements in a bitmap over the vertex universe, probe with the other in
//! O(1) per element, then *unmark* (never memset the whole bitmap — that
//! would be O(|V|) per vertex). LOTUS's H2H array generalizes this idea
//! from "the edges of one vertex" to "all edges between hubs".

use lotus_graph::NeighborId;

/// Reusable bitmap over a fixed vertex universe.
#[derive(Debug, Clone)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// Creates an all-zero bitmap covering `universe` vertex IDs.
    pub fn new(universe: usize) -> Self {
        Self {
            words: vec![0u64; universe.div_ceil(64)],
        }
    }

    /// Number of representable IDs.
    pub fn universe(&self) -> usize {
        self.words.len() * 64
    }

    /// Sets bit `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Clears bit `i`.
    #[inline(always)]
    pub fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Tests bit `i`.
    #[inline(always)]
    pub fn test(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// The backing words; bit `i` is bit `i & 63` of word `i >> 6`.
    #[inline(always)]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Marks all elements of `items`.
    pub fn mark<N: NeighborId>(&mut self, items: &[N]) {
        for &x in items {
            self.set(x.index());
        }
    }

    /// Unmarks all elements of `items` (restores the all-zero invariant
    /// without an O(universe) clear).
    pub fn unmark<N: NeighborId>(&mut self, items: &[N]) {
        for &x in items {
            self.clear(x.index());
        }
    }

    /// Counts how many elements of `probe` are currently marked.
    #[inline]
    pub fn count_marked<N: NeighborId>(&self, probe: &[N]) -> u64 {
        #[cfg(feature = "telemetry")]
        lotus_telemetry::counters::add(lotus_telemetry::Counter::BitmapProbes, probe.len() as u64);
        probe.iter().filter(|x| self.test(x.index())).count() as u64
    }

    /// Convenience one-shot intersection: mark `a`, probe `b`, unmark `a`.
    pub fn count<N: NeighborId>(&mut self, a: &[N], b: &[N]) -> u64 {
        self.mark(a);
        let n = self.count_marked(b);
        self.unmark(a);
        #[cfg(feature = "telemetry")]
        {
            use lotus_telemetry::{counters, Counter};
            counters::incr(Counter::Intersections);
            counters::add(Counter::FruitlessIntersections, u64::from(n == 0));
        }
        n
    }

    /// True when no bit is set (test helper; O(universe/64)).
    pub fn is_all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::testutil::{reference, sorted_list};

    #[test]
    fn bit_ops() {
        let mut b = Bitmap::new(100);
        assert!(!b.test(7));
        b.set(7);
        assert!(b.test(7));
        b.clear(7);
        assert!(!b.test(7));
        assert!(b.universe() >= 100);
    }

    #[test]
    fn one_shot_count_restores_zero() {
        let mut bm = Bitmap::new(300);
        for seed in 0..10u64 {
            let a = sorted_list(seed, 30, 300);
            let b = sorted_list(seed + 5, 50, 300);
            assert_eq!(bm.count(&a, &b), reference(&a, &b));
            assert!(bm.is_all_zero(), "bitmap leaked bits after count");
        }
    }

    #[test]
    fn u16_items() {
        let mut bm = Bitmap::new(1 << 16);
        assert_eq!(bm.count(&[1u16, 2, 3], &[2u16, 3, 4]), 2);
    }

    #[test]
    fn boundary_bits() {
        let mut b = Bitmap::new(128);
        b.set(63);
        b.set(64);
        b.set(127);
        assert!(b.test(63) && b.test(64) && b.test(127));
        assert!(!b.test(62) && !b.test(65) && !b.test(126));
    }
}
