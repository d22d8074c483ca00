//! Compact percentile summaries — the row format of campaign result
//! tables.
//!
//! A full [`Samples`] set can hold millions of FCT or RTT measurements;
//! persisting them per grid point would bloat a results store by orders of
//! magnitude. [`MetricSummary`] keeps exactly what the paper's tables (and
//! the regression gate) read back: count, mean, min/max, and the p50 / p90
//! / p99 percentiles.

use crate::Samples;

/// Six-number summary of one metric distribution.
///
/// All values are in the unit of the underlying samples; an empty sample
/// set summarizes to all-zero with `count == 0` (distinguishable from a
/// real all-zero distribution by the count).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricSummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Median (linear-interpolated, as [`Samples::percentile`]).
    pub p50: f64,
    /// 90th percentile (linear-interpolated).
    pub p90: f64,
    /// 99th percentile (linear-interpolated).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl MetricSummary {
    /// Summarize a sample set. The input is cloned so callers can
    /// summarize borrowed report fields without mutating them (percentile
    /// queries sort in place).
    pub fn of(samples: &Samples) -> Self {
        if samples.is_empty() {
            return MetricSummary::default();
        }
        let mut s = samples.clone();
        MetricSummary {
            count: s.len() as u64,
            mean: s.mean().unwrap_or(0.0),
            min: s.min().unwrap_or(0.0),
            p50: s.percentile(50.0).unwrap_or(0.0),
            p90: s.percentile(90.0).unwrap_or(0.0),
            p99: s.percentile(99.0).unwrap_or(0.0),
            max: s.max().unwrap_or(0.0),
        }
    }

    /// The summary as `(quantile, value)` points — the staircase a CDF
    /// figure can plot when only the compact summary survives (campaign
    /// result rows persist summaries, not raw samples). Empty when the
    /// summary covers no samples.
    ///
    /// The destructure is exhaustive on purpose: adding a field to
    /// `MetricSummary` without deciding whether figures plot it is a
    /// compile error here, not a silently poorer figure.
    pub fn quantile_points(&self) -> Vec<(f64, f64)> {
        let MetricSummary {
            count,
            mean: _, // not a quantile; figures carry it separately
            min,
            p50,
            p90,
            p99,
            max,
        } = *self;
        if count == 0 {
            return Vec::new();
        }
        vec![(0.0, min), (0.5, p50), (0.9, p90), (0.99, p99), (1.0, max)]
    }
}

impl std::fmt::Display for MetricSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summarizes_to_zero_count() {
        let s = MetricSummary::of(&Samples::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn summary_matches_exact_percentiles() {
        let s = MetricSummary::of(&(1..=100).map(|v| v as f64).collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.5, "linear interpolation over n-1 ranks");
        assert!((s.p99 - 99.01).abs() < 1e-9);
        assert!((s.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_points_follow_the_summary() {
        let s = MetricSummary::of(&(1..=100).map(|v| v as f64).collect());
        let pts = s.quantile_points();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], (0.0, s.min));
        assert_eq!(pts[2], (0.9, s.p90));
        assert_eq!(pts[4], (1.0, s.max));
        for w in pts.windows(2) {
            assert!(w[1].0 > w[0].0 && w[1].1 >= w[0].1, "monotone staircase");
        }
        assert!(MetricSummary::default().quantile_points().is_empty());
    }

    #[test]
    fn of_does_not_mutate_the_source() {
        let samples: Samples = [3.0, 1.0, 2.0].into_iter().collect();
        let before: Vec<f64> = samples.values().to_vec();
        let _ = MetricSummary::of(&samples);
        assert_eq!(samples.values(), &before[..], "source order preserved");
    }
}
