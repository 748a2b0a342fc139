//! Equal-width histograms with density normalization.
//!
//! Used by the figure benches to regenerate the kernel-timing density plots
//! of paper Figs. 3 and 4 (histogram of empirical timings with fitted
//! distribution curves overlaid).

use serde::{Deserialize, Serialize};

/// An equal-width histogram over `[lo, hi)` (last bin closed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create an empty histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// Panics if `bins == 0` or `lo >= hi` or bounds are not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad histogram bounds [{lo},{hi}]"
        );
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Build a histogram from data with an automatically chosen bin count
    /// (Freedman–Diaconis, falling back to Sturges for degenerate IQR).
    pub fn auto(data: &[f64]) -> Option<Self> {
        let finite: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
        if finite.len() < 2 {
            return None;
        }
        let mut sorted = finite.clone();
        sorted.sort_by(f64::total_cmp);
        let lo = sorted[0];
        let hi = *sorted.last().unwrap();
        if lo >= hi {
            return None;
        }
        let n = sorted.len() as f64;
        let iqr = crate::quantile::quantile_sorted(&sorted, 0.75)
            - crate::quantile::quantile_sorted(&sorted, 0.25);
        let bins = if iqr > 0.0 {
            let width = 2.0 * iqr / n.cbrt();
            (((hi - lo) / width).ceil() as usize).clamp(1, 512)
        } else {
            // Sturges.
            ((n.log2().ceil() as usize) + 1).clamp(1, 512)
        };
        let mut h = Histogram::new(lo, hi, bins);
        h.add_all(&finite);
        Some(h)
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Lower bound of the histogram range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the histogram range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Total number of accumulated values (including out-of-range values,
    /// which are clamped into the edge bins).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw counts per bin.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Add one value. Out-of-range values are clamped to the edge bins;
    /// non-finite values are ignored.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let idx = ((x - self.lo) / self.bin_width()).floor();
        let idx = (idx.max(0.0) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Add many values.
    pub fn add_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Bin center positions.
    pub fn centers(&self) -> Vec<f64> {
        let w = self.bin_width();
        (0..self.counts.len())
            .map(|i| self.lo + (i as f64 + 0.5) * w)
            .collect()
    }

    /// Densities per bin: `count / (total * bin_width)`, so the histogram
    /// integrates to 1 and can be overlaid with a PDF.
    pub fn densities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let norm = 1.0 / (self.total as f64 * self.bin_width());
        self.counts.iter().map(|&c| c as f64 * norm).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn counts_land_in_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add_all(&[0.5, 1.5, 1.7, 9.99]);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn out_of_range_clamped_non_finite_dropped() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-5.0);
        h.add(7.0);
        h.add(f64::NAN);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn upper_edge_goes_to_last_bin() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(1.0);
        assert_eq!(h.counts()[3], 1);
    }

    #[test]
    fn densities_integrate_to_one() {
        let mut h = Histogram::new(0.0, 2.0, 20);
        h.add_all(
            &(0..1000)
                .map(|i| (i % 200) as f64 / 100.0)
                .collect::<Vec<_>>(),
        );
        let sum: f64 = h.densities().iter().map(|d| d * h.bin_width()).sum();
        assert!((sum - 1.0).abs() < 1e-12, "integral {sum}");
    }

    #[test]
    fn auto_histogram_covers_data() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64 * 0.618).sin() + 2.0).collect();
        let h = Histogram::auto(&data).unwrap();
        assert_eq!(h.total(), 500);
        assert!(h.bins() >= 2);
        assert!(h.lo() <= 1.01 && h.hi() >= 2.99);
    }

    #[test]
    fn auto_rejects_degenerate() {
        assert!(Histogram::auto(&[1.0]).is_none());
        assert!(Histogram::auto(&[2.0, 2.0, 2.0]).is_none());
        assert!(Histogram::auto(&[]).is_none());
    }

    #[test]
    fn centers_are_midpoints() {
        let h = Histogram::new(0.0, 4.0, 4);
        assert_eq!(h.centers(), vec![0.5, 1.5, 2.5, 3.5]);
    }
}
