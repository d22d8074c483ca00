//! Empirical flow-size distributions.
//!
//! The datacenter-measurement literature the paper samples from reports
//! flow sizes as empirical CDFs. This module provides a reusable
//! [`EmpiricalCdf`] sampler plus the two canonical published mixes —
//! *web search* (DCTCP's production cluster) and *data mining* (VL2's) —
//! so experiments can be driven by either, in addition to the default
//! IMC'09-shaped mixture in [`crate::trace`].

use presto_simcore::rng::DetRng;
use presto_simcore::{SimDuration, SimTime};

use crate::spec::{FlowSpec, MICE_THRESHOLD_BYTES};

/// An empirical CDF given as `(value, cumulative_probability)` knots,
/// sampled by inverse transform with log-linear interpolation between
/// knots (flow sizes are naturally log-distributed).
/// # Example
///
/// ```
/// use presto_workloads::dists::web_search;
/// use presto_simcore::rng::DetRng;
/// let cdf = web_search();
/// let mut rng = DetRng::new(1);
/// let size = cdf.sample(&mut rng);
/// assert!(size > 0.0 && size <= 20_000_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    knots: Vec<(f64, f64)>,
}

impl EmpiricalCdf {
    /// Build from knots; probabilities must be strictly increasing and end
    /// at 1.0, values must be positive and non-decreasing.
    pub fn new(knots: &[(f64, f64)]) -> Self {
        assert!(knots.len() >= 2, "need at least two knots");
        for w in knots.windows(2) {
            assert!(w[0].1 < w[1].1, "probabilities must increase");
            assert!(w[0].0 <= w[1].0, "values must be non-decreasing");
            assert!(w[0].0 > 0.0, "values must be positive");
        }
        assert!(
            (knots.last().unwrap().1 - 1.0).abs() < 1e-9,
            "last probability must be 1.0"
        );
        EmpiricalCdf {
            knots: knots.to_vec(),
        }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut DetRng) -> f64 {
        let u = rng.gen_f64();
        // First knot at or above u.
        let mut prev = (self.knots[0].0, 0.0);
        for &(v, p) in &self.knots {
            if u <= p {
                let (v0, p0) = prev;
                let frac = if p > p0 { (u - p0) / (p - p0) } else { 1.0 };
                // Log-linear interpolation between knot values.
                let lv = v0.ln() + frac * (v.ln() - v0.ln());
                return lv.exp();
            }
            prev = (v, p);
        }
        self.knots.last().unwrap().0
    }
}

/// The "web search" workload CDF (Alizadeh et al., DCTCP): mostly small
/// query/response flows with a tail of multi-MB background transfers.
pub fn web_search() -> EmpiricalCdf {
    EmpiricalCdf::new(&[
        (6_000.0, 0.15),
        (13_000.0, 0.30),
        (19_000.0, 0.45),
        (33_000.0, 0.60),
        (53_000.0, 0.70),
        (133_000.0, 0.80),
        (667_000.0, 0.90),
        (1_333_000.0, 0.95),
        (6_667_000.0, 0.98),
        (20_000_000.0, 1.0),
    ])
}

/// The "data mining" workload CDF (Greenberg et al., VL2): extremely
/// heavy-tailed — half the flows are single-packet, yet >80% of bytes live
/// in flows over 100 MB (truncated here at 100 MB for simulation scale).
pub fn data_mining() -> EmpiricalCdf {
    EmpiricalCdf::new(&[
        (100.0, 0.50),
        (1_000.0, 0.60),
        (10_000.0, 0.70),
        (100_000.0, 0.80),
        (1_000_000.0, 0.90),
        (10_000_000.0, 0.95),
        (100_000_000.0, 1.0),
    ])
}

/// Open-loop Poisson flow arrivals with sizes drawn from an empirical CDF
/// — the trace-replay shape of Table 1 generalized to any size mix.
///
/// Every host is an independent source: inter-arrival gaps are exponential
/// with mean `mean_gap`, destinations are drawn uniformly among hosts in
/// *other* pods (`hosts_per_pod` consecutive indices form a pod), and flow
/// sizes come from `cdf` clamped to `[clamp.0, clamp.1]` bytes so short
/// simulations finish a useful fraction of the tail. Flows under the
/// mice threshold are marked for FCT measurement.
///
/// Per-source RNG sub-streams (`DetRng::for_stream`) make the pattern
/// deterministic in `seed` and insensitive to host iteration order.
pub fn poisson_flows(
    cdf: &EmpiricalCdf,
    n_hosts: usize,
    hosts_per_pod: usize,
    seed: u64,
    horizon: SimTime,
    mean_gap: SimDuration,
    clamp: (u64, u64),
) -> Vec<FlowSpec> {
    assert!(
        hosts_per_pod >= 1 && n_hosts > hosts_per_pod,
        "need ≥ 2 pods"
    );
    let mut flows = Vec::new();
    for src in 0..n_hosts {
        let mut rng = DetRng::new(seed ^ 0x317).for_stream(src as u64);
        let mut at = SimTime::ZERO + SimDuration::from_secs_f64(rng.exp(mean_gap.as_secs_f64()));
        while at < horizon {
            let dst = loop {
                let d = rng.gen_range(n_hosts as u64) as usize;
                if d / hosts_per_pod != src / hosts_per_pod {
                    break d;
                }
            };
            let bytes = (cdf.sample(&mut rng) as u64).clamp(clamp.0, clamp.1);
            flows.push(FlowSpec {
                src,
                dst,
                start: at,
                bytes: Some(bytes),
                measure_fct: bytes < MICE_THRESHOLD_BYTES,
            });
            at += SimDuration::from_secs_f64(rng.exp(mean_gap.as_secs_f64()));
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(cdf: &EmpiricalCdf, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = DetRng::new(seed);
        (0..n).map(|_| cdf.sample(&mut rng)).collect()
    }

    #[test]
    fn samples_respect_bounds() {
        let cdf = web_search();
        for s in samples(&cdf, 10_000, 1) {
            assert!((1.0..=20_000_000.0).contains(&s), "sample {s}");
        }
    }

    #[test]
    fn web_search_median_matches_knots() {
        let cdf = web_search();
        let mut v = samples(&cdf, 20_000, 2);
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        // The 45%/60% knots are 19KB/33KB: the median lies between them.
        assert!((15_000.0..40_000.0).contains(&median), "median {median}");
    }

    #[test]
    fn data_mining_is_mice_dominated_but_byte_heavy() {
        let cdf = data_mining();
        let v = samples(&cdf, 50_000, 3);
        let mice = v.iter().filter(|&&x| x < 10_000.0).count() as f64 / v.len() as f64;
        assert!(mice > 0.6, "mice fraction {mice}");
        let total: f64 = v.iter().sum();
        let big: f64 = v.iter().filter(|&&x| x > 1_000_000.0).sum();
        assert!(big / total > 0.6, "elephant byte share {}", big / total);
    }

    #[test]
    fn quantiles_track_knot_probabilities() {
        let cdf = web_search();
        let mut v = samples(&cdf, 50_000, 4);
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // 80th percentile knot is 133KB.
        let p80 = v[(v.len() as f64 * 0.8) as usize];
        assert!((90_000.0..200_000.0).contains(&p80), "p80 {p80}");
    }

    #[test]
    #[should_panic(expected = "probabilities must increase")]
    fn rejects_non_increasing_probability() {
        let _ = EmpiricalCdf::new(&[(10.0, 0.5), (20.0, 0.5), (30.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "last probability")]
    fn rejects_incomplete_cdf() {
        let _ = EmpiricalCdf::new(&[(10.0, 0.5), (20.0, 0.9)]);
    }

    #[test]
    fn deterministic_per_seed() {
        let cdf = data_mining();
        assert_eq!(samples(&cdf, 100, 7), samples(&cdf, 100, 7));
        assert_ne!(samples(&cdf, 100, 7), samples(&cdf, 100, 8));
    }

    #[test]
    fn poisson_flows_respect_pods_horizon_and_clamp() {
        let horizon = SimTime::from_millis(50);
        let flows = poisson_flows(
            &web_search(),
            16,
            4,
            9,
            horizon,
            SimDuration::from_millis(2),
            (500, 20_000_000),
        );
        assert!(!flows.is_empty());
        for f in &flows {
            assert_ne!(f.src / 4, f.dst / 4, "destinations are inter-pod");
            assert!(f.start < horizon);
            let b = f.bytes.unwrap();
            assert!((500..=20_000_000).contains(&b));
            assert_eq!(f.measure_fct, b < MICE_THRESHOLD_BYTES);
        }
        // Deterministic in the seed.
        let again = poisson_flows(
            &web_search(),
            16,
            4,
            9,
            horizon,
            SimDuration::from_millis(2),
            (500, 20_000_000),
        );
        assert_eq!(flows, again);
    }
}
