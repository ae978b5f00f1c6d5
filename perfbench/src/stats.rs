//! Order statistics over measured samples.

/// Nearest-rank percentile: the smallest sample that is at least `p`
/// percent of the sorted sample. `None` for an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median as the mean of the two middle samples (for an even count), so
/// a run's figure moves with every sample rather than snapping to one.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// A sample of latencies in milliseconds, kept sorted.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` into a sample.
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Sample count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile (`None` when empty).
    #[must_use]
    pub fn pct(&self, p: f64) -> Option<f64> {
        percentile(&self.sorted, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 99.5), Some(100.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn nearest_rank_small_samples() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        // Rank ceil(0.5 * 4) = 2 -> the second sample.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
        // Rank ceil(0.99 * 10) = 10 -> the largest.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(10.0));
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn sample_sorts_its_input() {
        let s = Sample::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.pct(50.0), Some(3.0));
        assert_eq!(s.pct(100.0), Some(5.0));
    }
}
