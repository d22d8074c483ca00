//! Empirical cumulative distribution functions.
//!
//! The paper presents most latency results as CDFs (Figs 5, 8, 11, 13, 14,
//! 16, 18). [`Cdf`] is an immutable snapshot of a sample set: its
//! quantile function `F⁻¹(q)` and the points a figure plots.

use crate::samples::Samples;

/// An empirical CDF over a fixed set of samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from any collection of samples.
    pub fn from_samples(samples: &Samples) -> Self {
        let mut sorted = samples.values().to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Cdf { sorted }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F⁻¹(q)`: smallest sample at or above the `q` quantile,
    /// `q ∈ [0, 1]`. `None` for an empty CDF.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(self.sorted[idx])
    }

    /// Render the CDF as `(value, cumulative fraction)` points, one per
    /// distinct sample — the exact staircase the paper's figures plot.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let v = self.sorted[i];
            let mut j = i + 1;
            while j < n && self.sorted[j] == v {
                j += 1;
            }
            out.push((v, j as f64 / n as f64));
            i = j;
        }
        out
    }

    /// Sample the quantile function at evenly spaced fractions — a compact
    /// fixed-width series for terminal output (`steps` ≥ 2 points from
    /// q≈0 to q=1).
    pub fn series(&self, steps: usize) -> Vec<(f64, f64)> {
        assert!(steps >= 2);
        if self.sorted.is_empty() {
            return Vec::new();
        }
        (0..steps)
            .map(|i| {
                let q = i as f64 / (steps - 1) as f64;
                (q, self.quantile(q.max(1e-9)).unwrap())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf(vals: &[f64]) -> Cdf {
        Cdf::from_samples(&vals.iter().copied().collect())
    }

    #[test]
    fn empty_cdf() {
        let c = cdf(&[]);
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.5), None);
        assert!(c.points().is_empty());
    }

    #[test]
    fn quantile_inverts_fraction() {
        let c = cdf(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(c.quantile(0.2), Some(10.0));
        assert_eq!(c.quantile(0.21), Some(20.0));
        assert_eq!(c.quantile(1.0), Some(50.0));
        assert_eq!(c.quantile(0.0), Some(10.0));
    }

    #[test]
    fn points_collapse_duplicates() {
        let c = cdf(&[1.0, 1.0, 2.0, 2.0, 2.0, 5.0]);
        assert_eq!(
            c.points(),
            vec![(1.0, 2.0 / 6.0), (2.0, 5.0 / 6.0), (5.0, 1.0)]
        );
    }

    #[test]
    fn series_is_monotone() {
        let vals: Vec<f64> = (0..997).map(|i| ((i * 7919) % 1000) as f64).collect();
        let c = cdf(&vals);
        let s = c.series(21);
        assert_eq!(s.len(), 21);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1, "series not monotone: {w:?}");
            assert!(w[1].0 > w[0].0);
        }
        assert_eq!(s.last().unwrap().1, 999.0);
    }
}
