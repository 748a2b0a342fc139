//! Normal (Gaussian) distribution.
//!
//! In dense linear algebra "the kernels are most commonly described using
//! the normal distribution of execution times" (paper §V-B2); this is the
//! first of the three candidate kernel models.

use crate::special::{std_normal_cdf, std_normal_quantile};
use crate::{DistError, Distribution};
use rand::Rng;
use serde::{Deserialize, Serialize};

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// Normal distribution with mean `mu` and standard deviation `sigma`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Create a normal distribution; requires finite `mu` and `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !mu.is_finite() {
            return Err(DistError::InvalidParameter("normal mean must be finite"));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(DistError::InvalidParameter("normal sigma must be positive"));
        }
        Ok(Normal { mu, sigma })
    }

    /// The location parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The scale parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draw a standard-normal variate via Box–Muller.
    ///
    /// The polar (Marsaglia) variant is avoided on purpose: it consumes a
    /// *data-dependent* number of RNG draws, which would make downstream
    /// sampling sequences fragile; Box–Muller always consumes exactly two.
    pub fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        // Guard u1 = 0 (random() is in [0,1)); 1-u1 is in (0,1].
        let r = (-2.0 * (1.0 - u1).ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        r * theta.cos()
    }

    /// Quantile function (inverse CDF).
    pub fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * std_normal_quantile(p)
    }
}

impl Distribution for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mu + self.sigma * Self::sample_standard(rng)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        -0.5 * z * z - self.sigma.ln() - LN_SQRT_2PI
    }

    fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mu) / self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_params() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn sample_moments() {
        let n = Normal::new(10.0, 2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let cnt = 50_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..cnt {
            let x = n.sample(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / cnt as f64;
        let var = sum2 / cnt as f64 - mean * mean;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn pdf_peak_at_mean() {
        let n = Normal::new(1.0, 0.5).unwrap();
        let peak = n.pdf(1.0);
        assert!(peak > n.pdf(0.5));
        assert!(peak > n.pdf(1.5));
        // Peak density of N(mu, sigma) is 1/(sigma*sqrt(2pi)).
        let expect = 1.0 / (0.5 * (2.0 * std::f64::consts::PI).sqrt());
        assert!((peak - expect).abs() < 1e-12);
    }

    #[test]
    fn cdf_symmetry_and_quantile() {
        let n = Normal::new(3.0, 1.5).unwrap();
        assert!((n.cdf(3.0) - 0.5).abs() < 1e-9);
        for &p in &[0.05, 0.25, 0.5, 0.75, 0.95] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn standard_sampler_consumes_fixed_rng_amount() {
        // Two seeds through different numbers of draws must realign:
        // each standard sample consumes exactly two uniforms.
        let mut a = rand::rngs::StdRng::seed_from_u64(9);
        let mut b = rand::rngs::StdRng::seed_from_u64(9);
        let _ = Normal::sample_standard(&mut a);
        let _: f64 = b.random();
        let _: f64 = b.random();
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn ln_pdf_matches_pdf() {
        let n = Normal::new(-2.0, 0.7).unwrap();
        for &x in &[-3.0, -2.0, 0.0, 1.0] {
            assert!((n.ln_pdf(x) - n.pdf(x).ln()).abs() < 1e-10);
        }
    }
}
