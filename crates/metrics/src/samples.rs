//! Accumulating sample sets with exact percentile queries.

/// A growable collection of `f64` samples supporting mean/min/max and exact
/// percentiles. Percentile queries sort lazily and cache the sorted order
/// until the next insertion.
/// # Example
///
/// ```
/// use presto_metrics::Samples;
/// let mut s: Samples = [5.0, 1.0, 3.0].into_iter().collect();
/// assert_eq!(s.median(), Some(3.0));
/// assert_eq!(s.percentile(100.0), Some(5.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Add one sample. Non-finite values are a logic error upstream and are
    /// rejected with a panic in debug builds, skipped in release.
    #[inline]
    pub fn add(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample {v}");
        if !v.is_finite() {
            return;
        }
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no samples were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Exact percentile with linear interpolation between order statistics
    /// (the same convention as numpy's default). `p` is in `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        self.ensure_sorted();
        let n = self.values.len();
        if n == 1 {
            return Some(self.values[0]);
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.values[lo] * (1.0 - frac) + self.values[hi] * frac)
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Borrow the raw samples (unsorted insertion order is not preserved
    /// once a percentile query has sorted them).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Samples::new();
        for v in iter {
            s.add(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_returns_none() {
        let mut s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn basic_stats() {
        let mut s: Samples = [4.0, 1.0, 3.0, 2.0].into_iter().collect();
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.median(), Some(2.5));
    }

    #[test]
    fn percentile_interpolates() {
        let mut s: Samples = (1..=5).map(|v| v as f64).collect();
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(5.0));
        assert_eq!(s.percentile(50.0), Some(3.0));
        assert_eq!(s.percentile(25.0), Some(2.0));
        // 10th percentile of [1..5]: rank 0.4 -> 1.4
        assert!((s.percentile(10.0).unwrap() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_sample() {
        let mut s: Samples = [7.0].into_iter().collect();
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(s.percentile(p), Some(7.0));
        }
    }

    #[test]
    fn tail_percentiles_monotone() {
        let mut s: Samples = (0..1000).map(|v| (v as f64).sqrt()).collect();
        let p50 = s.percentile(50.0).unwrap();
        let p90 = s.percentile(90.0).unwrap();
        let p99 = s.percentile(99.0).unwrap();
        let p999 = s.percentile(99.9).unwrap();
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
    }

    #[test]
    fn insertion_after_query_resorts() {
        let mut s: Samples = [5.0, 1.0].into_iter().collect();
        assert_eq!(s.median(), Some(3.0));
        s.add(0.0);
        assert_eq!(s.median(), Some(1.0));
    }
}
