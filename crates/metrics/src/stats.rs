//! Summary statistics over repeated experiment runs.

/// Five-number-style summary of a sample (mean, standard deviation,
/// min/median/max), computed once at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (midpoint-interpolated for even n).
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Returns `None` for an empty slice or any
    /// non-finite value (which would silently poison every statistic).
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            median,
            max: sorted[n - 1],
        })
    }

    /// A `mean ± std` display string with the given precision.
    pub fn mean_pm(&self, precision: usize) -> String {
        format!("{:.p$} ± {:.p$}", self.mean, self.std_dev, p = precision)
    }
}

/// A mergeable running aggregate: count, sum, min, max.
///
/// [`Summary`] wants the whole sample at once; sharded sweeps instead
/// produce one aggregate per cell and fold them afterwards. `merge` is
/// exact for `n`, `min` and `max`; the sum is floating-point, so callers
/// that need byte-identical output across thread counts must fold partials
/// in a fixed order (the sweep runtime folds in grid order) — under that
/// discipline every derived statistic is bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningStats {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        RunningStats::new()
    }
}

impl RunningStats {
    /// An empty aggregate.
    pub fn new() -> RunningStats {
        RunningStats {
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Absorb one observation. Non-finite values are ignored (they would
    /// silently poison every statistic, as in [`Summary::of`]).
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.n += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Absorb another aggregate (fold partials in a fixed order for
    /// bit-reproducible sums).
    pub fn merge(&mut self, other: &RunningStats) {
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations absorbed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }

    /// Minimum (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Geometric mean (for aggregating ratios); `None` on empty or non-positive
/// input.
pub fn geo_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // sample std of 1..4 = sqrt(5/3)
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_odd_median_and_single() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.median, 3.0);
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn summary_rejects_bad_input() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[1.0, f64::NAN]), None);
        assert_eq!(Summary::of(&[f64::INFINITY]), None);
    }

    #[test]
    fn mean_pm_display() {
        let s = Summary::of(&[10.0, 20.0, 30.0]).unwrap();
        assert_eq!(s.mean, 20.0);
        assert!(s.mean_pm(1).starts_with("20.0 ± 10.0"));
    }

    #[test]
    fn running_stats_push_and_merge_match_whole_sample() {
        let sample = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut whole = RunningStats::new();
        for v in sample {
            whole.push(v);
        }
        // Two shards folded in order must equal the sequential aggregate.
        let (a, b) = sample.split_at(3);
        let mut left = RunningStats::new();
        a.iter().for_each(|&v| left.push(v));
        let mut right = RunningStats::new();
        b.iter().for_each(|&v| right.push(v));
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(whole.count(), 8);
        assert_eq!(whole.min(), Some(1.0));
        assert_eq!(whole.max(), Some(9.0));
        assert_eq!(whole.mean(), Some(sample.iter().sum::<f64>() / 8.0));
    }

    #[test]
    fn running_stats_empty_and_nonfinite() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        assert_eq!(s.count(), 0, "non-finite observations are dropped");
        let mut other = RunningStats::new();
        other.push(2.0);
        s.merge(&other);
        assert_eq!(s.mean(), Some(2.0));
    }

    #[test]
    fn geo_mean_of_ratios() {
        let g = geo_mean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), None);
        assert_eq!(geo_mean(&[1.0, 0.0]), None);
        assert_eq!(geo_mean(&[-1.0]), None);
    }
}
