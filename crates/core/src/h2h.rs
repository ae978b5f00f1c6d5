//! The H2H triangular bit array (paper §4.2).
//!
//! Hub-to-hub adjacency stored as 1 bit per hub pair. Each hub only records
//! edges to hubs with lower IDs, so the array is triangular: for hubs
//! `h1 > h2 ≥ 0`, bit `h1(h1−1)/2 + h2` is set iff the edge exists. The
//! layout is "h1-major" — bits for consecutive `h2` are adjacent — so the
//! inner loop of phase 1 walks consecutive memory and the `h1(h1−1)/2`
//! base is computed once per outer iteration (§4.4.1).
//!
//! At the paper's 2¹⁶ hubs the array is 256 MB; random accesses during
//! counting concentrate on it instead of on the (much larger) edge arrays,
//! which is the locality argument of §4.5.

use std::sync::atomic::{AtomicU64, Ordering};

/// Dense triangular bit array over `hub_count` hubs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriBitArray {
    words: Vec<u64>,
    hub_count: u32,
    bits_set: u64,
}

/// Bit index of pair `(h1, h2)` with `h1 > h2`.
#[inline(always)]
pub fn pair_bit_index(h1: u32, h2: u32) -> u64 {
    debug_assert!(h1 > h2, "pair index requires h1 > h2 (got {h1}, {h2})");
    (h1 as u64 * (h1 as u64 - 1)) / 2 + h2 as u64
}

impl TriBitArray {
    /// Total bits of a triangular array over `hub_count` hubs.
    pub fn bit_len(hub_count: u32) -> u64 {
        hub_count as u64 * (hub_count as u64).saturating_sub(1) / 2
    }

    /// Creates an all-zero array.
    pub fn new(hub_count: u32) -> Self {
        let words = Self::bit_len(hub_count).div_ceil(64) as usize;
        Self {
            words: vec![0u64; words],
            hub_count,
            bits_set: 0,
        }
    }

    /// Number of hubs covered.
    #[inline]
    pub fn hub_count(&self) -> u32 {
        self.hub_count
    }

    /// Size of the array in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// Number of set bits (hub-to-hub edges).
    pub fn bits_set(&self) -> u64 {
        self.bits_set
    }

    /// Fraction of set bits (Table 8, "H2H Density").
    pub fn density(&self) -> f64 {
        let total = Self::bit_len(self.hub_count);
        if total == 0 {
            0.0
        } else {
            self.bits_set as f64 / total as f64
        }
    }

    /// Sets the bit for hub pair `(h1, h2)`; order-insensitive.
    pub fn set(&mut self, h1: u32, h2: u32) {
        let (hi, lo) = if h1 > h2 { (h1, h2) } else { (h2, h1) };
        assert!(hi < self.hub_count && hi != lo);
        let bit = pair_bit_index(hi, lo);
        let word = &mut self.words[(bit >> 6) as usize];
        let mask = 1u64 << (bit & 63);
        if *word & mask == 0 {
            *word |= mask;
            self.bits_set += 1;
        }
    }

    /// Tests the bit for hub pair `(h1, h2)` with `h1 > h2`.
    ///
    /// The hot path of phase 1; a handful of instructions and exactly one
    /// random load, as §4.5 requires.
    #[inline(always)]
    pub fn is_set(&self, h1: u32, h2: u32) -> bool {
        let bit = pair_bit_index(h1, h2);
        (self.words[(bit >> 6) as usize] >> (bit & 63)) & 1 != 0
    }

    /// Tests using a precomputed row base (`h1(h1−1)/2`), the reuse trick
    /// of §4.4.1: the outer loop computes the base once per `h1`.
    #[inline(always)]
    pub fn is_set_with_base(&self, row_base: u64, h2: u32) -> bool {
        let bit = row_base + h2 as u64;
        (self.words[(bit >> 6) as usize] >> (bit & 63)) & 1 != 0
    }

    /// The 64 bits of the array starting at bit `row_base + 64·w`: row
    /// `h1`'s bits for `h2` in `64w..64w + 64` when `row_base` is
    /// `h1(h1−1)/2`, bit `j` for `h2 = 64w + j`. A row base is rarely
    /// word-aligned, so the word is funnel-shifted out of two stored
    /// words; bits past the last stored word read as zero. Bits past the
    /// row's end belong to later rows: callers mask them off.
    #[inline(always)]
    pub fn row_word(&self, row_base: u64, w: usize) -> u64 {
        let bit = row_base + 64 * w as u64;
        let at = (bit >> 6) as usize;
        let lo = self.words[at];
        let hi = self.words.get(at + 1).copied().unwrap_or(0);
        ((u128::from(hi) << 64 | u128::from(lo)) >> (bit & 63)) as u64
    }

    /// Row base for hub `h1` (0 for hub 0, whose row is empty).
    #[inline(always)]
    pub fn row_base(h1: u32) -> u64 {
        h1 as u64 * (h1 as u64).saturating_sub(1) / 2
    }

    /// The raw words (used by the perf simulator to model addresses).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Fraction of 64-byte-aligned blocks containing no set bit
    /// (Table 8, "H2H Zero Cachelines").
    pub fn zero_cacheline_fraction(&self) -> f64 {
        if self.words.is_empty() {
            return 1.0;
        }
        let zero = self
            .words
            .chunks(8) // 8 × u64 = 64 bytes
            .filter(|block| block.iter().all(|&w| w == 0))
            .count();
        zero as f64 / self.words.chunks(8).count() as f64
    }
}

/// Concurrent builder: the preprocessing step sets bits from many threads,
/// then freezes into the read-only [`TriBitArray`].
#[derive(Debug)]
pub struct TriBitArrayBuilder {
    words: Vec<AtomicU64>,
    hub_count: u32,
}

impl TriBitArrayBuilder {
    /// Creates an all-zero concurrent builder.
    pub fn new(hub_count: u32) -> Self {
        let words = TriBitArray::bit_len(hub_count).div_ceil(64) as usize;
        Self {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            hub_count,
        }
    }

    /// Atomically sets the bit for `(h1, h2)`; order-insensitive.
    #[inline]
    pub fn set(&self, h1: u32, h2: u32) {
        let (hi, lo) = if h1 > h2 { (h1, h2) } else { (h2, h1) };
        debug_assert!(hi < self.hub_count && hi != lo);
        let bit = pair_bit_index(hi, lo);
        self.words[(bit >> 6) as usize].fetch_or(1u64 << (bit & 63), Ordering::Relaxed);
    }

    /// Freezes into the immutable array, computing the popcount.
    pub fn freeze(self) -> TriBitArray {
        let words: Vec<u64> = self
            .words
            .into_iter()
            .map(std::sync::atomic::AtomicU64::into_inner)
            .collect();
        let bits_set = words.iter().map(|w| w.count_ones() as u64).sum();
        TriBitArray {
            words,
            hub_count: self.hub_count,
            bits_set,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_indices_are_unique_and_dense() {
        let n = 40u32;
        let mut seen = std::collections::HashSet::new();
        for h1 in 1..n {
            for h2 in 0..h1 {
                assert!(seen.insert(pair_bit_index(h1, h2)));
            }
        }
        assert_eq!(seen.len() as u64, TriBitArray::bit_len(n));
        assert_eq!(*seen.iter().max().unwrap(), TriBitArray::bit_len(n) - 1);
    }

    #[test]
    fn set_and_test() {
        let mut a = TriBitArray::new(10);
        assert!(!a.is_set(5, 2));
        a.set(5, 2);
        assert!(a.is_set(5, 2));
        a.set(2, 5); // order-insensitive set
        assert_eq!(a.bits_set(), 1);
        a.set(9, 0);
        assert_eq!(a.bits_set(), 2);
        assert!(a.is_set(9, 0));
        assert!(!a.is_set(9, 1));
    }

    #[test]
    fn row_base_probe_matches_direct() {
        let mut a = TriBitArray::new(16);
        a.set(7, 3);
        a.set(7, 5);
        let base = TriBitArray::row_base(7);
        for h2 in 0..7 {
            assert_eq!(a.is_set_with_base(base, h2), a.is_set(7, h2));
        }
    }

    #[test]
    fn row_words_match_bit_probes_up_to_the_last_row() {
        // 67 hubs: row bases are unaligned, and row 66 ends inside the
        // last stored word, so its second word reads past the array.
        let n = 67u32;
        let mut a = TriBitArray::new(n);
        for h1 in 1..n {
            for h2 in (h1 % 3..h1).step_by(3) {
                a.set(h1, h2);
            }
        }
        for h1 in 1..n {
            let base = TriBitArray::row_base(h1);
            for w in 0..h1.div_ceil(64) as usize {
                let word = a.row_word(base, w);
                for j in 0..64u32.min(h1 - 64 * w as u32) {
                    let h2 = 64 * w as u32 + j;
                    assert_eq!(word >> j & 1 != 0, a.is_set(h1, h2), "({h1}, {h2})");
                }
            }
        }
        assert_eq!(a.row_word(TriBitArray::row_base(n - 1), 1), 0);
    }

    #[test]
    fn density_and_size() {
        let mut a = TriBitArray::new(100);
        assert_eq!(a.density(), 0.0);
        a.set(1, 0);
        let expected = 1.0 / TriBitArray::bit_len(100) as f64;
        assert!((a.density() - expected).abs() < 1e-15);
        assert_eq!(a.size_bytes(), TriBitArray::bit_len(100).div_ceil(64) * 8);
    }

    #[test]
    fn paper_sized_array_is_256mb() {
        // Don't allocate it; just check the arithmetic.
        let bits = TriBitArray::bit_len(1 << 16);
        let bytes = bits.div_ceil(8);
        assert!(bytes < 256 * 1024 * 1024);
        assert!(bytes > 255 * 1024 * 1024);
    }

    #[test]
    fn zero_cachelines() {
        let mut a = TriBitArray::new(128);
        let before = a.zero_cacheline_fraction();
        assert_eq!(before, 1.0);
        a.set(1, 0);
        assert!(a.zero_cacheline_fraction() < 1.0);
    }

    #[test]
    fn concurrent_builder_freezes_correctly() {
        let b = TriBitArrayBuilder::new(64);
        b.set(10, 3);
        b.set(3, 10); // duplicate, reversed
        b.set(63, 62);
        let a = b.freeze();
        assert_eq!(a.bits_set(), 2);
        assert!(a.is_set(10, 3));
        assert!(a.is_set(63, 62));
    }

    #[test]
    fn degenerate_hub_counts() {
        let a = TriBitArray::new(0);
        assert_eq!(a.bits_set(), 0);
        let a = TriBitArray::new(1);
        assert_eq!(TriBitArray::bit_len(1), 0);
        assert_eq!(a.size_bytes(), 0);
    }
}
