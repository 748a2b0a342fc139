//! Gamma distribution (shape/scale parameterization).
//!
//! The second of the paper's three candidate kernel models (§V-B2).
//! Sampling uses the Marsaglia–Tsang squeeze method, with the standard
//! `U^(1/k)` boost for shape < 1.

use crate::special::{ln_gamma, reg_gamma_lower};
use crate::{DistError, Distribution};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Gamma distribution with shape `k` and scale `theta` (mean `k*theta`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Create a gamma distribution; requires `shape > 0` and `scale > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistError> {
        if !(shape.is_finite() && shape > 0.0) {
            return Err(DistError::InvalidParameter("gamma shape must be positive"));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(DistError::InvalidParameter("gamma scale must be positive"));
        }
        Ok(Gamma { shape, scale })
    }

    /// Construct from the desired mean and standard deviation
    /// (method-of-moments inversion).
    pub fn from_mean_std(mean: f64, std: f64) -> Result<Self, DistError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(DistError::InvalidParameter("gamma mean must be positive"));
        }
        if !(std.is_finite() && std > 0.0) {
            return Err(DistError::InvalidParameter("gamma std must be positive"));
        }
        let shape = (mean / std).powi(2);
        let scale = std * std / mean;
        Self::new(shape, scale)
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `theta`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Marsaglia–Tsang sampler for a unit-scale gamma with shape `k >= 1`.
    fn sample_mt<R: Rng + ?Sized>(k: f64, rng: &mut R) -> f64 {
        debug_assert!(k >= 1.0);
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            // One normal draw and one uniform per attempt.
            let x = crate::normal::Normal::sample_standard(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u: f64 = rng.random();
            // Squeeze test, then full acceptance test.
            if u < 1.0 - 0.0331 * x * x * x * x {
                return d * v3;
            }
            if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }
}

impl Distribution for Gamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.shape >= 1.0 {
            Self::sample_mt(self.shape, rng) * self.scale
        } else {
            // Boost: Gamma(k) = Gamma(k+1) * U^(1/k) for k < 1.
            let g = Self::sample_mt(self.shape + 1.0, rng);
            let u: f64 = rng.random();
            // Guard against u = 0: powf(inf) would overflow to 0 anyway via
            // exp(-inf), but make the intent explicit.
            let u = u.max(f64::MIN_POSITIVE);
            g * u.powf(1.0 / self.shape) * self.scale
        }
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
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
        (self.shape - 1.0) * x.ln()
            - x / self.scale
            - ln_gamma(self.shape)
            - self.shape * self.scale.ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_gamma_lower(self.shape, x / self.scale)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_params() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::new(-2.0, 1.0).is_err());
        assert!(Gamma::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn from_mean_std_round_trips() {
        let g = Gamma::from_mean_std(6.0, 1.5).unwrap();
        assert!((g.mean() - 6.0).abs() < 1e-12);
        assert!((g.std_dev() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sample_moments_shape_above_one() {
        let g = Gamma::new(4.0, 0.5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = g.sample(&mut rng);
            assert!(x > 0.0);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 2.0).abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn sample_moments_shape_below_one() {
        let g = Gamma::new(0.5, 2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Trapezoidal integration of the density.
        let g = Gamma::new(3.0, 0.7).unwrap();
        let (a, b, n) = (0.0, 30.0, 30_000);
        let h = (b - a) / n as f64;
        let mut total = 0.0;
        for i in 0..=n {
            let x = a + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            total += w * g.pdf(x);
        }
        total *= h;
        assert!((total - 1.0).abs() < 1e-6, "integral {total}");
    }

    #[test]
    fn cdf_matches_pdf_integral() {
        let g = Gamma::new(2.5, 1.2).unwrap();
        // CDF(x) should equal integral of pdf up to x.
        let x_target = 4.0;
        let n = 40_000;
        let h = x_target / n as f64;
        let mut total = 0.0;
        for i in 0..=n {
            let x = i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            total += w * g.pdf(x);
        }
        total *= h;
        assert!((g.cdf(x_target) - total).abs() < 1e-6);
    }

    #[test]
    fn gamma_shape_one_is_exponential() {
        let g = Gamma::new(1.0, 2.0).unwrap();
        let e = crate::Exponential::new(0.5).unwrap();
        for &x in &[0.1, 1.0, 3.0, 8.0] {
            assert!((g.pdf(x) - e.pdf(x)).abs() < 1e-10);
            assert!((g.cdf(x) - e.cdf(x)).abs() < 1e-10);
        }
    }
}
