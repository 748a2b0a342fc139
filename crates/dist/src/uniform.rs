//! Continuous uniform distribution on `[lo, hi]`.

use crate::{DistError, Distribution};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Uniform distribution on the closed interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Create a uniform distribution; requires `lo < hi`, both finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self, DistError> {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(DistError::InvalidParameter("uniform bounds must be finite"));
        }
        if lo >= hi {
            return Err(DistError::InvalidParameter("uniform requires lo < hi"));
        }
        Ok(Uniform { lo, hi })
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

impl Distribution for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + rng.random::<f64>() * (self.hi - self.lo)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn variance(&self) -> f64 {
        let w = self.width();
        w * w / 12.0
    }

    fn pdf(&self, x: f64) -> f64 {
        if x >= self.lo && x <= self.hi {
            1.0 / self.width()
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.lo {
            0.0
        } else if x > self.hi {
            1.0
        } else {
            (x - self.lo) / self.width()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_bounds() {
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(2.0, 1.0).is_err());
        assert!(Uniform::new(f64::NEG_INFINITY, 1.0).is_err());
    }

    #[test]
    fn samples_stay_in_range_and_match_moments() {
        let u = Uniform::new(2.0, 6.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = u.sample(&mut rng);
            assert!((2.0..=6.0).contains(&x));
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - u.mean()).abs() < 0.05, "mean {mean}");
        assert!((var - u.variance()).abs() < 0.1, "var {var}");
    }

    #[test]
    fn pdf_cdf_consistent() {
        let u = Uniform::new(0.0, 4.0).unwrap();
        assert_eq!(u.pdf(2.0), 0.25);
        assert_eq!(u.pdf(-1.0), 0.0);
        assert_eq!(u.pdf(5.0), 0.0);
        assert_eq!(u.cdf(0.0), 0.0);
        assert_eq!(u.cdf(1.0), 0.25);
        assert_eq!(u.cdf(4.0), 1.0);
        assert_eq!(u.cdf(9.0), 1.0);
    }
}
