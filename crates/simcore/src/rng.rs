//! Deterministic random numbers.
//!
//! Experiments must be exactly reproducible from a single `u64` seed, across
//! platforms and dependency upgrades, so the simulator carries its own small
//! generator instead of depending on an external crate's stream stability:
//! a xoshiro256++ core seeded through SplitMix64 (both public-domain
//! algorithms by Blackman & Vigna).
//!
//! [`DetRng::for_stream`] derives independent sub-streams (one per flow, per
//! host, per experiment repetition) so that adding a consumer never perturbs
//! the draws seen by existing ones.

/// SplitMix64 step; also used as the seed/stream mixing function.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix two words into one; used for deterministic hash-based decisions such
/// as ECMP path selection (hash of the 5-tuple).
#[inline]
pub fn hash_mix(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.rotate_left(32) ^ 0x2545_F491_4F6C_DD1D;
    splitmix64(&mut s)
}

/// A deterministic xoshiro256++ pseudo-random generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Seed the generator. Any seed (including 0) yields a valid state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derive an independent generator for a named sub-stream.
    ///
    /// `DetRng::new(seed).for_stream(k)` is stable: it depends only on
    /// `seed` and `k`, not on how many numbers the parent has drawn.
    pub fn for_stream(&self, stream: u64) -> Self {
        DetRng::new(hash_mix(self.s[0] ^ self.s[2], stream))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)`. `n` must be positive.
    #[inline]
    pub fn gen_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift with rejection for exact uniformity.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n && low < n.wrapping_neg() {
                // fast path can't be biased here
            }
            if low < n {
                let threshold = n.wrapping_neg() % n;
                if low < threshold {
                    continue;
                }
            }
            return (m >> 64) as u64;
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed sample with the given mean.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse CDF; 1-u in (0,1] avoids ln(0).
        -mean * (1.0 - self.gen_f64()).ln()
    }

    /// Bounded Pareto sample on `[lo, hi]` with shape `alpha` — the
    /// heavy-tailed flow-size distribution used by the trace-driven
    /// workload generator.
    pub fn bounded_pareto(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        debug_assert!(lo > 0.0 && hi > lo && alpha > 0.0);
        let u = self.gen_f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty());
        &slice[self.gen_range(slice.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_independent_of_parent_draws() {
        let parent1 = DetRng::new(99);
        let mut parent2 = DetRng::new(99);
        parent2.next_u64(); // cloned state is what matters, not draws
        let mut s1 = parent1.for_stream(5);
        // for_stream uses the state snapshot, so derive before drawing:
        let mut s2 = DetRng::new(99).for_stream(5);
        for _ in 0..16 {
            assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = DetRng::new(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = r.gen_range(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = DetRng::new(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::new(13);
        let mean = 250.0;
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp(mean)).sum();
        let m = sum / n as f64;
        assert!((m - mean).abs() / mean < 0.05, "sample mean {m}");
    }

    #[test]
    fn bounded_pareto_stays_in_range() {
        let mut r = DetRng::new(17);
        for _ in 0..10_000 {
            let x = r.bounded_pareto(1_000.0, 1_000_000.0, 1.05);
            assert!((1_000.0..=1_000_000.0).contains(&x));
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        let mut r = DetRng::new(19);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.bounded_pareto(1e3, 1e7, 0.9)).collect();
        let below_10k = samples.iter().filter(|&&x| x < 1e4).count() as f64 / n as f64;
        // Most flows are mice...
        assert!(below_10k > 0.5, "only {below_10k} below 10k");
        // ...but the tail carries a disproportionate share of bytes.
        let total: f64 = samples.iter().sum();
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top1pct: f64 = sorted[..n / 100].iter().sum();
        assert!(top1pct / total > 0.2, "top 1% carries {}", top1pct / total);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(23);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn hash_mix_spreads() {
        // Adjacent inputs should map to well-separated buckets.
        let buckets = 8u64;
        let mut counts = [0u32; 8];
        for i in 0..8000u64 {
            counts[(hash_mix(i, 42) % buckets) as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "bucket count {c}");
        }
    }
}
