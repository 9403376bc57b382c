//! Numerically stable online statistics.
//!
//! Table I reports average, standard deviation and maximum of degradation
//! factors over hundreds of instances; Table II reports averages and
//! maxima of bandwidth and event rates. [`OnlineStats`] accumulates these
//! in one pass with Welford's algorithm, so experiment runners never need
//! to keep every sample in memory.

/// Single-pass mean / sample-standard-deviation / min / max accumulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite observation {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator; 0 with fewer than two
    /// observations).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(0.0).sqrt()
        }
    }

    /// Smallest observation (+∞ when empty).
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Standard error of the mean (0 with fewer than two observations).
    pub fn std_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Approximate 95 % confidence half-width of the mean
    /// (normal-approximation `1.96 × SEM`; experiment tables report it
    /// alongside averages so readers can judge instance-count noise).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var.sqrt())
    }

    #[test]
    fn matches_naive_formulas() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let s: OnlineStats = xs.iter().copied().collect();
        let (mean, sd) = naive(&xs);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.std_dev() - sd).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        let mut s1 = OnlineStats::new();
        s1.push(42.0);
        assert_eq!(s1.mean(), 42.0);
        assert_eq!(s1.std_dev(), 0.0);
        assert_eq!(s1.min(), 42.0);
        assert_eq!(s1.max(), 42.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 50.0).collect();
        let whole: OnlineStats = xs.iter().copied().collect();
        let mut a: OnlineStats = xs[..37].iter().copied().collect();
        let b: OnlineStats = xs[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.std_dev() - whole.std_dev()).abs() < 1e-9);
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.min(), whole.min());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = s.clone();
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn stable_for_large_offsets() {
        // Catastrophic cancellation check: tiny variance on a huge mean.
        let base = 1e9;
        let s: OnlineStats = (0..1000).map(|i| base + (i % 2) as f64).collect();
        assert!((s.std_dev() - 0.50025).abs() < 1e-3);
    }
}

#[cfg(test)]
mod ci_tests {
    use super::*;

    #[test]
    fn std_error_shrinks_with_sample_size() {
        let small: OnlineStats = (0..10).map(|i| (i % 3) as f64).collect();
        let large: OnlineStats = (0..1000).map(|i| (i % 3) as f64).collect();
        assert!(large.std_error() < small.std_error());
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn ci_is_zero_for_tiny_samples() {
        let mut s = OnlineStats::new();
        assert_eq!(s.ci95_half_width(), 0.0);
        s.push(5.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn ci_covers_known_mean() {
        // Uniform-ish data with known mean 49.5 over 0..100.
        let s: OnlineStats = (0..100).map(|i| i as f64).collect();
        let half = s.ci95_half_width();
        assert!(half > 0.0);
        assert!((s.mean() - 49.5).abs() < half + 1e-9);
    }
}
