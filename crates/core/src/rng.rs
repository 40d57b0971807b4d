//! Deterministic pseudo-random numbers for workload generation.
//!
//! Experiments in this workspace must be bit-reproducible from a seed, across
//! platforms and dependency upgrades, so we implement a small, well-known
//! generator instead of depending on an external crate:
//! **xoshiro256\*\*** (Blackman & Vigna) seeded via **SplitMix64**, the
//! combination recommended by the xoshiro authors.
//!
//! On top of the raw generator we provide exactly the distributions the
//! workload generators need: uniform integers/floats, Bernoulli, exponential
//! (Poisson-process inter-arrivals), Poisson counts, log-normal (heavy-tailed
//! node works), Zipf (skewed profit densities) and Fisher–Yates shuffling.

use std::borrow::Borrow;

/// SplitMix64 step: used for seeding and as a simple standalone stream.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256\*\* generator.
///
/// Cloning yields an identical stream — handy for replaying a sub-experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Seed deterministically from a single `u64` (SplitMix64 expansion).
    pub fn seed_from(seed: u64) -> Rng64 {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro requires a nonzero state; splitmix64 output of any seed
        // cannot be all-zero across four draws, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Rng64 { s }
    }

    /// Derive an independent child stream (for per-thread / per-run seeding).
    ///
    /// Mixing the label through SplitMix64 decorrelates children even for
    /// adjacent labels.
    pub fn child(&self, label: u64) -> Rng64 {
        let mut sm = self.s[0] ^ label.wrapping_mul(0xD1B54A32D192ED03);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        Rng64 { s }
    }

    /// Next raw 64-bit value (xoshiro256\*\* scrambler).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection
    /// (unbiased). Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_range(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn gen_f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.gen_f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Exponential variate with the given `rate` (mean `1/rate`), via
    /// inversion. Used for Poisson-process inter-arrival times.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        // 1 - U in (0,1] avoids ln(0).
        -(1.0 - self.gen_f64()).ln() / rate
    }

    /// Poisson count with the given `mean`.
    ///
    /// Knuth multiplication for small means; for `mean > 30` a normal
    /// approximation with continuity correction (adequate for workload
    /// shaping, and avoids pathological loop lengths).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson mean must be non-negative");
        if mean == 0.0 {
            return 0;
        }
        if mean > 30.0 {
            let z = self.standard_normal();
            let v = mean + mean.sqrt() * z + 0.5;
            return if v < 0.0 { 0 } else { v as u64 };
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.gen_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Standard normal variate (Box–Muller; one value per call, the second is
    /// discarded to keep the generator state trajectory simple).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.gen_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal variate with the given parameters of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Zipf-like draw over `{1, …, n}` with exponent `s > 0` by inverse CDF
    /// over precomputable weights — O(n) per call is fine for the small `n`
    /// the workload generators use (density classes, not job counts).
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        assert!(n >= 1 && s > 0.0);
        let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let mut target = self.gen_f64() * norm;
        for k in 1..=n {
            target -= (k as f64).powf(-s);
            if target <= 0.0 {
                return k;
            }
        }
        n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Uniformly choose an element; `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.gen_range(xs.len() as u64) as usize])
        }
    }

    /// Sample an index proportionally to non-negative `weights` (a slice,
    /// or any cloneable iterator, so callers need not collect one).
    /// Panics if the weights sum to zero or contain negatives.
    pub fn weighted_index<I>(&mut self, weights: I) -> usize
    where
        I: IntoIterator,
        I::Item: Borrow<f64>,
        I::IntoIter: Clone,
    {
        let weights = weights.into_iter().map(|w| *w.borrow());
        let total: f64 = weights.clone().sum();
        assert!(
            total > 0.0 && weights.clone().all(|w| w >= 0.0),
            "weights must be non-negative and sum to a positive value"
        );
        let mut target = self.gen_f64() * total;
        let mut last = 0;
        for (i, w) in weights.enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
            last = i;
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answer() {
        // Reference vector from the SplitMix64 paper implementation:
        // seed 0 produces 0xE220A8397B1DCDAF first.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220A8397B1DCDAF);
        assert_eq!(splitmix64(&mut s), 0x6E789E6AA1B965F4);
        assert_eq!(splitmix64(&mut s), 0x06C45D188009454F);
    }

    #[test]
    fn deterministic_and_clonable() {
        let mut a = Rng64::seed_from(42);
        let mut b = Rng64::seed_from(42);
        let mut c = a.clone();
        for _ in 0..100 {
            let v = a.next_u64();
            assert_eq!(v, b.next_u64());
            assert_eq!(v, c.next_u64());
        }
        let mut d = Rng64::seed_from(43);
        assert_ne!(a.next_u64(), d.next_u64());
    }

    #[test]
    fn child_streams_differ_from_parent_and_siblings() {
        let parent = Rng64::seed_from(7);
        let mut c0 = parent.child(0);
        let mut c1 = parent.child(1);
        let mut p = parent.clone();
        let (a, b, c) = (c0.next_u64(), c1.next_u64(), p.next_u64());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Children are themselves deterministic.
        assert_eq!(parent.child(1).next_u64(), b);
    }

    #[test]
    fn gen_range_is_unbiased_enough_and_in_bounds() {
        let mut rng = Rng64::seed_from(1);
        let bound = 10u64;
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = rng.gen_range(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        // Each bucket within 10% of the expected 10_000.
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (9_000..=11_000).contains(c),
                "bucket {i} count {c} far from uniform"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        Rng64::seed_from(0).gen_range(0);
    }

    #[test]
    fn gen_range_inclusive_hits_endpoints() {
        let mut rng = Rng64::seed_from(2);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            match rng.gen_range_inclusive(5, 7) {
                5 => saw_lo = true,
                7 => saw_hi = true,
                6 => {}
                other => panic!("{other} out of range"),
            }
        }
        assert!(saw_lo && saw_hi);
        assert_eq!(rng.gen_range_inclusive(9, 9), 9, "singleton range");
    }

    #[test]
    fn gen_f64_in_unit_interval_with_good_mean() {
        let mut rng = Rng64::seed_from(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = Rng64::seed_from(4);
        let rate = 0.25;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "mean {mean} far from 1/rate = 4");
    }

    #[test]
    fn poisson_mean_small_and_large_regimes() {
        let mut rng = Rng64::seed_from(5);
        for target in [0.5, 3.0, 80.0] {
            let n = 50_000;
            let mean: f64 = (0..n).map(|_| rng.poisson(target) as f64).sum::<f64>() / n as f64;
            let tol = (target / 10.0).max(0.05);
            assert!(
                (mean - target).abs() < tol,
                "poisson({target}) empirical mean {mean}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::seed_from(6);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = Rng64::seed_from(7);
        for _ in 0..10_000 {
            assert!(rng.log_normal(0.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn zipf_is_skewed_toward_small_ranks() {
        let mut rng = Rng64::seed_from(8);
        let mut counts = [0u32; 8];
        for _ in 0..50_000 {
            let k = rng.zipf(8, 1.2);
            assert!((1..=8).contains(&k));
            counts[(k - 1) as usize] += 1;
        }
        assert!(counts[0] > counts[3], "rank 1 should dominate rank 4");
        assert!(counts[3] > counts[7], "rank 4 should dominate rank 8");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng64::seed_from(9);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn choose_and_weighted_index() {
        let mut rng = Rng64::seed_from(10);
        assert_eq!(rng.choose::<u32>(&[]), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
        // Weighted: index 1 has 90% of the mass.
        let mut ones = 0;
        for _ in 0..10_000 {
            if rng.weighted_index([1.0, 9.0]) == 1 {
                ones += 1;
            }
        }
        assert!((8_700..=9_300).contains(&ones), "got {ones}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weighted_index_rejects_zero_total() {
        Rng64::seed_from(0).weighted_index([0.0, 0.0]);
    }
}
