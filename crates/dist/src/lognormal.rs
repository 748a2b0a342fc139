//! Log-normal distribution.
//!
//! The paper found the log-normal "slightly outperformed the others in some
//! cases" as a kernel-duration model (§V-B2) — it is strictly positive and
//! right-skewed, matching kernels whose slow tail comes from cache misses.

use crate::normal::Normal;
use crate::special::std_normal_cdf;
use crate::{DistError, Distribution};
use rand::Rng;
use serde::{Deserialize, Serialize};

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// Log-normal distribution: `ln X ~ N(mu, sigma^2)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create a log-normal; requires finite `mu` and `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !mu.is_finite() {
            return Err(DistError::InvalidParameter("lognormal mu must be finite"));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(DistError::InvalidParameter(
                "lognormal sigma must be positive",
            ));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Construct from the desired mean and standard deviation of `X` itself
    /// (not of `ln X`). Convenient when matching empirical moments.
    pub fn from_mean_std(mean: f64, std: f64) -> Result<Self, DistError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(DistError::InvalidParameter(
                "lognormal mean must be positive",
            ));
        }
        if !(std.is_finite() && std > 0.0) {
            return Err(DistError::InvalidParameter(
                "lognormal std must be positive",
            ));
        }
        let cv2 = (std / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        Self::new(mu, sigma2.sqrt())
    }

    /// Log-scale location parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-scale shape parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

impl Distribution for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * Normal::sample_standard(rng)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.ln_pdf(x).exp()
        }
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        -0.5 * z * z - x.ln() - self.sigma.ln() - LN_SQRT_2PI
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_params() {
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(f64::INFINITY, 1.0).is_err());
        assert!(LogNormal::from_mean_std(-1.0, 1.0).is_err());
        assert!(LogNormal::from_mean_std(1.0, 0.0).is_err());
    }

    #[test]
    fn from_mean_std_round_trips_moments() {
        let d = LogNormal::from_mean_std(5.0, 1.25).unwrap();
        assert!((d.mean() - 5.0).abs() < 1e-10, "mean {}", d.mean());
        assert!((d.std_dev() - 1.25).abs() < 1e-10, "std {}", d.std_dev());
    }

    #[test]
    fn samples_positive_and_match_mean() {
        let d = LogNormal::new(0.0, 0.5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(x > 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - d.mean()).abs() < 0.02 * d.mean(),
            "mean {mean} vs {}",
            d.mean()
        );
    }

    #[test]
    fn pdf_zero_outside_support() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        assert_eq!(d.pdf(0.0), 0.0);
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.ln_pdf(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn cdf_at_median_is_half() {
        let d = LogNormal::new(0.7, 0.3).unwrap();
        assert!((d.cdf(d.median()) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn right_skewed() {
        // For a log-normal, mean > median.
        let d = LogNormal::new(0.0, 0.8).unwrap();
        assert!(d.mean() > d.median());
    }
}
