//! Online moment accumulation (Welford) and sample summaries.

use serde::{Deserialize, Serialize};

/// Numerically stable online accumulator (Welford) for the mean and the
/// second central moment, plus the observed range.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Moments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulate one observation. Non-finite values are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Accumulate a slice of observations.
    pub fn push_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Build directly from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut m = Moments::new();
        m.push_all(xs);
        m
    }

    /// Number of accumulated (finite) observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance (divides by `n - 1`; 0 for n < 2).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Minimum observed value (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_safe() {
        let m = Moments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
    }

    #[test]
    fn basic_moments() {
        let m = Moments::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance() - 4.0).abs() < 1e-12);
        assert!((m.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
    }

    #[test]
    fn sample_variance_uses_n_minus_one() {
        let m = Moments::from_slice(&[1.0, 2.0, 3.0]);
        assert!((m.sample_variance() - 1.0).abs() < 1e-12);
        assert!((m.variance() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ignores_non_finite() {
        let m = Moments::from_slice(&[1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(m.count(), 2);
        assert!((m.mean() - 1.5).abs() < 1e-12);
    }
}
