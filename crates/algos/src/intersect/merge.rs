//! Linear merge-join intersection.
//!
//! The workhorse kernel: one pass over both sorted lists, O(|a| + |b|).
//! The paper uses merge join for its NNN phase because non-hub neighbour
//! lists are short (§4.4.3) and the streaming access pattern is
//! prefetch-friendly; `lotus-core` keeps it for vertices whose non-hub
//! list spans more than its NNN bitmap window.

use lotus_graph::NeighborId;

/// Records one merge-join's telemetry: the intersection itself, its
/// steps (total index advances), and whether it was fruitless. Compiled
/// out (together with the step arithmetic at the call sites) unless the
/// `telemetry` feature is on.
#[cfg(feature = "telemetry")]
#[inline]
fn record_merge(steps: u64, matches: u64) {
    use lotus_telemetry::{counters, Counter};
    counters::incr(Counter::Intersections);
    counters::add(Counter::MergeSteps, steps);
    counters::add(Counter::FruitlessIntersections, u64::from(matches == 0));
}

/// Counts `|a ∩ b|` by merging two sorted, duplicate-free slices.
#[inline]
pub fn count_merge<N: NeighborId>(a: &[N], b: &[N]) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        // Branch structure matches the classic three-way merge; the
        // equality case is rare on sparse graphs, so test it last.
        if x < y {
            i += 1;
        } else if y < x {
            j += 1;
        } else {
            count += 1;
            i += 1;
            j += 1;
        }
    }
    #[cfg(feature = "telemetry")]
    record_merge((i + j) as u64, count);
    count
}

/// Merge-join that also invokes `on_match` for every common element
/// (used by per-vertex counting and the streaming extension).
#[inline]
pub fn merge_for_each<N: NeighborId>(a: &[N], b: &[N], mut on_match: impl FnMut(N)) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        if x < y {
            i += 1;
        } else if y < x {
            j += 1;
        } else {
            on_match(x);
            count += 1;
            i += 1;
            j += 1;
        }
    }
    #[cfg(feature = "telemetry")]
    record_merge((i + j) as u64, count);
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_overlap() {
        assert_eq!(count_merge(&[1u32, 3, 5, 7], &[2, 3, 5, 8]), 2);
    }

    #[test]
    fn identical_lists() {
        let a = [1u32, 2, 3, 4];
        assert_eq!(count_merge(&a, &a), 4);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(count_merge::<u32>(&[], &[]), 0);
        assert_eq!(count_merge(&[1u32], &[]), 0);
    }

    #[test]
    fn for_each_collects_matches() {
        let mut got = Vec::new();
        let n = merge_for_each(&[1u32, 4, 6, 9], &[4, 5, 9], |m| got.push(m));
        assert_eq!(n, 2);
        assert_eq!(got, vec![4, 9]);
    }
}
