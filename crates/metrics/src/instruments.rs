//! The log-scale wall-time histogram and its bucket arithmetic.

/// Number of histogram buckets. Bucket 0 holds zero-duration samples;
/// bucket `i` (for `i >= 1`) holds samples in `[2^(i-1), 2^i)` ns. The
/// last bucket absorbs everything at or above `2^(BUCKETS-2)` ns
/// (~4.6 minutes), far beyond any simulator operation.
pub const BUCKETS: usize = 40;

/// Bucket index for a nanosecond sample.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive-exclusive upper bound of bucket `i` in nanoseconds
/// (`u64::MAX` for the overflow bucket).
#[inline]
pub fn bucket_upper_ns(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// A wall-time histogram with fixed log₂-scale nanosecond buckets: the
/// in-place tally for components whose update path already holds a lock
/// or is thread-confined (e.g. the TEQ state mutex), where an atomic
/// would buy nothing and cost a cache transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalHistogram {
    /// Per-bucket sample counts (log₂ ns scale, see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded samples in nanoseconds.
    pub sum_ns: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; BUCKETS],
            sum_ns: 0,
        }
    }
}

impl LocalHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one nanosecond sample (no atomics — caller synchronizes).
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ns as f64 / n as f64
        }
    }

    /// Approximate quantile (`q` in [0, 1]) from the bucket boundaries:
    /// returns the upper edge of the bucket containing the q-th sample.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_ns(i);
            }
        }
        bucket_upper_ns(BUCKETS - 1)
    }

    /// Merge another histogram into this one. Sums saturate: a metrics
    /// total pinned at `u64::MAX` beats a wrap or a panic mid-report.
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_ns(1), 2);
        assert_eq!(bucket_upper_ns(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn local_histogram_records() {
        let mut h = LocalHistogram::new();
        h.record(0);
        h.record(1);
        h.record(1000);
        h.record(1_000_000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ns, 1_001_001);
        assert!(h.quantile_ns(0.5) <= h.quantile_ns(0.99));
    }

    #[test]
    fn local_histogram_merge_and_stats() {
        let mut a = LocalHistogram::new();
        let mut b = LocalHistogram::new();
        a.record(10);
        b.record(100);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_ns, 1110);
        assert!((a.mean_ns() - 370.0).abs() < 1e-9);
        assert!(!a.is_empty());
    }

    #[test]
    fn quantile_on_empty_is_zero() {
        assert_eq!(LocalHistogram::new().quantile_ns(0.5), 0);
    }
}
