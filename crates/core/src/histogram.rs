//! Log-bucketed histogram for heavy-tailed metrics.
//!
//! Stretch and degradation values span four orders of magnitude
//! (1 … >1000), so experiments summarize their distributions with
//! logarithmically spaced buckets and derived quantiles. Buckets are
//! `[lo·r^k, lo·r^(k+1))` with a configurable ratio; values below `lo`
//! land in bucket 0, values above the top in the last bucket.

/// Fixed log-spaced histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    lo: f64,
    ratio: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl LogHistogram {
    /// Histogram from `lo` with `buckets` buckets growing by `ratio`.
    ///
    /// Panics on invalid parameters (programmer constants).
    pub fn new(lo: f64, ratio: f64, buckets: usize) -> Self {
        assert!(lo > 0.0 && ratio > 1.0 && buckets >= 1);
        LogHistogram {
            lo,
            ratio,
            counts: vec![0; buckets],
            total: 0,
            sum: 0.0,
        }
    }

    /// Bucket index of a value.
    fn bucket_of(&self, x: f64) -> usize {
        if x < self.lo {
            return 0;
        }
        let k = (x / self.lo).ln() / self.ratio.ln();
        (k.floor() as usize).min(self.counts.len() - 1)
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite() && x >= 0.0);
        let b = self.bucket_of(x);
        self.counts[b] += 1;
        self.total += 1;
        self.sum += x;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of all observations (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Approximate quantile (upper edge of the bucket containing the
    /// q-th observation). `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return 0.0;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return self.lo * self.ratio.powi(i as i32 + 1);
            }
        }
        self.lo * self.ratio.powi(self.counts.len() as i32)
    }

    /// Merge another histogram with identical geometry.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.lo, other.lo);
        assert_eq!(self.ratio, other.ratio);
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

impl Extend<f64> for LogHistogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bounded-stretch geometry: 1.0 … ~10⁴ in 40 buckets (ratio ≈ 1.26,
    /// i.e. 10 buckets per decade).
    fn for_stretch() -> LogHistogram {
        LogHistogram::new(1.0, 10f64.powf(0.1), 40)
    }

    /// `(bucket_lower_edge, count)` pairs for non-empty buckets.
    fn nonempty_buckets(h: &LogHistogram) -> Vec<(f64, u64)> {
        h.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (h.lo * h.ratio.powi(i as i32), c))
            .collect()
    }

    #[test]
    fn buckets_cover_decades() {
        let mut h = for_stretch();
        for x in [1.0, 2.0, 10.0, 100.0, 5_000.0, 1e9] {
            h.push(x);
        }
        assert_eq!(h.count(), 6);
        // The 1e9 outlier is clamped into the last bucket, not lost.
        assert_eq!(nonempty_buckets(&h).iter().map(|(_, c)| c).sum::<u64>(), 6);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = for_stretch();
        for i in 1..=1000 {
            h.push(i as f64 / 10.0); // 0.1 .. 100, median 50.05
        }
        let med = h.quantile(0.5);
        assert!((40.0..80.0).contains(&med), "median approx {med}");
        assert!(h.quantile(1.0) >= 100.0);
        assert!(h.quantile(0.0) >= 1.0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = for_stretch();
        h.extend([1.0, 3.0, 5.0]);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = for_stretch();
        a.extend([1.0, 10.0]);
        let mut b = for_stretch();
        b.extend([100.0]);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 37.0).abs() < 1e-12);
    }

    #[test]
    fn below_range_clamps_to_first_bucket() {
        let mut h = LogHistogram::new(1.0, 2.0, 4);
        h.push(0.01);
        assert_eq!(nonempty_buckets(&h)[0].0, 1.0);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_geometry() {
        let mut a = LogHistogram::new(1.0, 2.0, 4);
        let b = LogHistogram::new(1.0, 3.0, 4);
        a.merge(&b);
    }

    #[test]
    fn empty_histogram_defaults() {
        let h = for_stretch();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(nonempty_buckets(&h).is_empty());
    }
}
