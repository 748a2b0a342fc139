//! Point-in-time, serializable view of a set of instruments.
//!
//! A [`MetricsSnapshot`] is assembled from component-local tallies (the
//! TEQ's in-lock counters, the runtime's per-run statistics, the trace
//! recorder's event count) via the `push_*` methods — pushing a name that
//! already exists **accumulates** counters and merges histograms, so two
//! simulation sessions publishing under the same names sum naturally.

use crate::instruments::{bucket_upper_ns, LocalHistogram};
use serde::Serialize;

/// One named counter value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterSample {
    /// Metric name (dot-separated, see DESIGN.md §5e for the catalog).
    pub name: String,
    /// Monotone total at snapshot time.
    pub value: u64,
}

/// One named gauge value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Last-set value at snapshot time.
    pub value: i64,
}

/// One occupied histogram bucket.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BucketSample {
    /// Exclusive upper bound of the bucket in nanoseconds.
    pub le_ns: u64,
    /// Samples that landed in this bucket.
    pub count: u64,
}

/// One named histogram, with empty buckets elided.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Total recorded samples (derived from the buckets — cannot exceed
    /// the true total even when snapshotted mid-run).
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Mean sample in nanoseconds.
    pub mean_ns: f64,
    /// Approximate median (upper edge of the bucket holding it).
    pub p50_ns: u64,
    /// Approximate 99th percentile.
    pub p99_ns: u64,
    /// Occupied buckets only, ascending by bound.
    pub buckets: Vec<BucketSample>,
}

/// A complete snapshot: counters, gauges, histograms.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// All counters, in push order.
    pub counters: Vec<CounterSample>,
    /// All gauges.
    pub gauges: Vec<GaugeSample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Add `value` to the counter `name`, creating it if absent.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        if let Some(c) = self.counters.iter_mut().find(|c| c.name == name) {
            c.value += value;
        } else {
            self.counters.push(CounterSample {
                name: name.to_string(),
                value,
            });
        }
    }

    /// Set the gauge `name` (last push wins), creating it if absent.
    pub fn push_gauge(&mut self, name: &str, value: i64) {
        if let Some(g) = self.gauges.iter_mut().find(|g| g.name == name) {
            g.value = value;
        } else {
            self.gauges.push(GaugeSample {
                name: name.to_string(),
                value,
            });
        }
    }

    /// Merge a histogram into `name`, creating it if absent.
    pub fn push_histogram(&mut self, name: &str, hist: &LocalHistogram) {
        if let Some(h) = self.histograms.iter_mut().find(|h| h.name == name) {
            let mut merged = unflatten(h);
            merged.merge(hist);
            *h = flatten(name, &merged);
        } else {
            self.histograms.push(flatten(name, hist));
        }
    }

    /// Fold another snapshot into this one: counters accumulate, gauges
    /// take `other`'s value, histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for c in &other.counters {
            self.push_counter(&c.name, c.value);
        }
        for g in &other.gauges {
            self.push_gauge(&g.name, g.value);
        }
        for h in &other.histograms {
            self.push_histogram(&h.name, &unflatten(h));
        }
    }

    /// Value of the counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of the gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The histogram sample `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics snapshot serializes")
    }
}

fn flatten(name: &str, hist: &LocalHistogram) -> HistogramSample {
    HistogramSample {
        name: name.to_string(),
        count: hist.count(),
        sum_ns: hist.sum_ns,
        mean_ns: hist.mean_ns(),
        p50_ns: hist.quantile_ns(0.5),
        p99_ns: hist.quantile_ns(0.99),
        buckets: hist
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| BucketSample {
                le_ns: bucket_upper_ns(i),
                count: c,
            })
            .collect(),
    }
}

fn unflatten(sample: &HistogramSample) -> LocalHistogram {
    let mut h = LocalHistogram::new();
    for b in &sample.buckets {
        let i = if b.le_ns == u64::MAX {
            h.buckets.len() - 1
        } else {
            b.le_ns.trailing_zeros() as usize
        };
        h.buckets[i] += b.count;
    }
    h.sum_ns = sample.sum_ns;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_on_same_name() {
        let mut s = MetricsSnapshot::default();
        s.push_counter("a", 2);
        s.push_counter("a", 3);
        s.push_counter("b", 1);
        assert_eq!(s.counter("a"), Some(5));
        assert_eq!(s.counter("b"), Some(1));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn gauges_last_push_wins() {
        let mut s = MetricsSnapshot::default();
        s.push_gauge("g", 5);
        s.push_gauge("g", -1);
        assert_eq!(s.gauge("g"), Some(-1));
    }

    #[test]
    fn histograms_merge_on_same_name() {
        let mut a = LocalHistogram::new();
        a.record(10);
        a.record(1000);
        let mut b = LocalHistogram::new();
        b.record(10);
        let mut s = MetricsSnapshot::default();
        s.push_histogram("h", &a);
        s.push_histogram("h", &b);
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_ns, 1020);
        // The 10ns bucket ([8,16), le 16) holds two samples after merge.
        let small = h.buckets.iter().find(|b| b.le_ns == 16).unwrap();
        assert_eq!(small.count, 2);
    }

    #[test]
    fn json_roundtrips_through_serde_json() {
        let mut s = MetricsSnapshot::default();
        s.push_counter("teq.insert.count", 42);
        s.push_gauge("teq.depth", 3);
        let mut h = LocalHistogram::new();
        h.record(0);
        h.record(123_456);
        s.push_histogram("teq.wait.parked.ns", &h);
        let json = s.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["counters"][0]["name"].as_str(), Some("teq.insert.count"));
        assert_eq!(v["counters"][0]["value"].as_u64(), Some(42));
        assert_eq!(v["histograms"][0]["count"].as_u64(), Some(2));
        assert!(v["histograms"][0]["buckets"].as_array().unwrap().len() == 2);
    }

    #[test]
    fn merge_folds_whole_snapshots() {
        let mut a = MetricsSnapshot::default();
        a.push_counter("c", 2);
        a.push_gauge("g", 1);
        let mut h = LocalHistogram::new();
        h.record(100);
        a.push_histogram("h", &h);
        let mut b = MetricsSnapshot::default();
        b.push_counter("c", 3);
        b.push_counter("only_b", 7);
        b.push_gauge("g", 9);
        b.push_histogram("h", &h);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(5));
        assert_eq!(a.counter("only_b"), Some(7));
        assert_eq!(a.gauge("g"), Some(9));
        let merged = a.histogram("h").unwrap();
        assert_eq!(merged.count, 2);
        assert_eq!(merged.sum_ns, 200);
    }

    #[test]
    fn overflow_bucket_survives_merge() {
        let mut a = LocalHistogram::new();
        a.record(u64::MAX);
        let mut s = MetricsSnapshot::default();
        s.push_histogram("h", &a);
        s.push_histogram("h", &a);
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets[0].le_ns, u64::MAX);
    }
}
