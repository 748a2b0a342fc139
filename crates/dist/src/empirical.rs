//! Empirical distribution backed by observed samples.
//!
//! The most literal kernel model: resample the measured durations directly
//! (a bootstrap). The figure benches use it as the "emp." reference curve
//! alongside the fitted parametric models, as in paper Figs. 3 and 4.

use crate::{DistError, Distribution};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An empirical distribution; sampling draws uniformly from stored data.
///
/// The sample vector is kept sorted so that CDF queries are `O(log n)` and
/// quantiles are `O(1)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Empirical {
    sorted: Vec<f64>,
}

impl Empirical {
    /// Build from raw samples. Requires at least one finite sample.
    pub fn new(mut samples: Vec<f64>) -> Result<Self, DistError> {
        samples.retain(|x| x.is_finite());
        if samples.is_empty() {
            return Err(DistError::InsufficientData { needed: 1, got: 0 });
        }
        samples.sort_by(f64::total_cmp);
        Ok(Empirical { sorted: samples })
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample set is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The stored samples in ascending order.
    pub fn data(&self) -> &[f64] {
        &self.sorted
    }

    /// Smallest observed value.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observed value.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// Empirical quantile with linear interpolation (type-7, the R default).
    pub fn quantile(&self, p: f64) -> f64 {
        crate::quantile::quantile_sorted(&self.sorted, p)
    }
}

impl Distribution for Empirical {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let i = rng.random_range(0..self.sorted.len());
        self.sorted[i]
    }

    fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        self.sorted.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / self.sorted.len() as f64
    }

    /// A discrete distribution has no density; we return a histogram-style
    /// estimate over a small window so the value is still plottable.
    fn pdf(&self, x: f64) -> f64 {
        let n = self.sorted.len() as f64;
        let span = (self.max() - self.min()).max(f64::MIN_POSITIVE);
        // Window of 1/20 of the data range, like a coarse boxcar KDE.
        let h = span / 20.0;
        let lo = self.sorted.partition_point(|&v| v < x - h);
        let hi = self.sorted.partition_point(|&v| v <= x + h);
        (hi - lo) as f64 / (n * 2.0 * h)
    }

    fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_empty_or_all_nan() {
        assert!(Empirical::new(vec![]).is_err());
        assert!(Empirical::new(vec![f64::NAN, f64::INFINITY]).is_err());
    }

    #[test]
    fn filters_non_finite() {
        let e = Empirical::new(vec![1.0, f64::NAN, 3.0]).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.data(), &[1.0, 3.0]);
    }

    #[test]
    fn sampling_only_returns_observed_values() {
        let e = Empirical::new(vec![2.0, 4.0, 8.0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let x = e.sample(&mut rng);
            assert!(x == 2.0 || x == 4.0 || x == 8.0);
        }
    }

    #[test]
    fn mean_variance_exact() {
        let e = Empirical::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.mean(), 2.5);
        assert_eq!(e.variance(), 1.25);
    }

    #[test]
    fn cdf_is_step_function() {
        let e = Empirical::new(vec![1.0, 2.0, 2.0, 5.0]).unwrap();
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.0), 0.75);
        assert_eq!(e.cdf(4.9), 0.75);
        assert_eq!(e.cdf(5.0), 1.0);
    }

    #[test]
    fn min_max_quantiles() {
        let e = Empirical::new(vec![5.0, 1.0, 3.0]).unwrap();
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 5.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 5.0);
        assert_eq!(e.quantile(0.5), 3.0);
    }

    #[test]
    fn pdf_concentrates_near_data() {
        let e = Empirical::new((0..100).map(|i| i as f64 * 0.01).collect()).unwrap();
        // Uniform-ish data: density near the middle should be ~1 (over [0,1)).
        let p = e.pdf(0.5);
        assert!(p > 0.5 && p < 2.0, "pdf {p}");
    }
}
