//! Exponential distribution (rate parameterization).
//!
//! Not one of the paper's three kernel models, but the canonical service-time
//! distribution for discrete-event simulation; it is used by the synthetic
//! workloads and as an additional candidate in model selection.

use crate::{DistError, Distribution};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create an exponential with rate `lambda > 0`.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(DistError::InvalidParameter(
                "exponential rate must be positive",
            ));
        }
        Ok(Exponential { lambda })
    }

    /// Create from the mean (`mean = 1/lambda`).
    pub fn from_mean(mean: f64) -> Result<Self, DistError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(DistError::InvalidParameter(
                "exponential mean must be positive",
            ));
        }
        Self::new(1.0 / mean)
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Distribution for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF sampling; `1 - u` avoids ln(0) since `random` is in [0,1).
        let u: f64 = rng.random();
        -(1.0 - u).ln() / self.lambda
    }

    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    fn variance(&self) -> f64 {
        1.0 / (self.lambda * self.lambda)
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.lambda * (-self.lambda * x).exp()
        }
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            f64::NEG_INFINITY
        } else {
            self.lambda.ln() - self.lambda * x
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-self.lambda * x).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
    }

    #[test]
    fn from_mean_inverts_rate() {
        let e = Exponential::from_mean(4.0).unwrap();
        assert!((e.lambda() - 0.25).abs() < 1e-15);
        assert!((e.mean() - 4.0).abs() < 1e-15);
    }

    #[test]
    fn moments_match_samples() {
        let e = Exponential::new(2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| e.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn samples_nonnegative() {
        let e = Exponential::new(0.5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        assert!((0..1000).all(|_| e.sample(&mut rng) >= 0.0));
    }

    #[test]
    fn pdf_cdf_ln_pdf_consistent() {
        let e = Exponential::new(1.5).unwrap();
        assert_eq!(e.pdf(-0.1), 0.0);
        assert_eq!(e.cdf(-0.1), 0.0);
        assert!((e.ln_pdf(0.7) - e.pdf(0.7).ln()).abs() < 1e-12);
        assert!((e.cdf(10.0) - 1.0).abs() < 1e-6);
    }
}
