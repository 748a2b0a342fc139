//! Finite mixture distributions.
//!
//! The paper's future work (§VII) notes that single simple distributions
//! are "a simplification of what actually occurs in most workloads" — the
//! classic counterexample being a bimodal kernel whose duration depends on
//! whether its tile is cache-resident. A weighted mixture of the simple
//! families models exactly that.

use crate::{Dist, DistError, Distribution};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A finite mixture: sample a component with probability proportional to
/// its weight, then sample from that component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Mixture {
    components: Vec<(f64, Dist)>,
}

impl Mixture {
    /// Build from `(weight, component)` pairs. Weights must be positive
    /// and are normalized internally; at least one component is required.
    pub fn new(components: Vec<(f64, Dist)>) -> Result<Self, DistError> {
        if components.is_empty() {
            return Err(DistError::InvalidParameter(
                "mixture needs at least one component",
            ));
        }
        if components.iter().any(|(w, _)| !(w.is_finite() && *w > 0.0)) {
            return Err(DistError::InvalidParameter(
                "mixture weights must be positive",
            ));
        }
        let total: f64 = components.iter().map(|(w, _)| w).sum();
        let components = components
            .into_iter()
            .map(|(w, d)| (w / total, d))
            .collect();
        Ok(Mixture { components })
    }

    /// A two-component convenience constructor: value `fast` with
    /// probability `p_fast`, else `slow` — the cache-hit/cache-miss model.
    pub fn bimodal(p_fast: f64, fast: Dist, slow: Dist) -> Result<Self, DistError> {
        if !(p_fast.is_finite() && p_fast > 0.0 && p_fast < 1.0) {
            return Err(DistError::InvalidParameter(
                "bimodal probability must be in (0,1)",
            ));
        }
        Self::new(vec![(p_fast, fast), (1.0 - p_fast, slow)])
    }

    /// The normalized `(weight, component)` pairs.
    pub fn components(&self) -> &[(f64, Dist)] {
        &self.components
    }
}

impl Distribution for Mixture {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        let mut acc = 0.0;
        for (w, d) in &self.components {
            acc += w;
            if u < acc {
                return d.sample(rng);
            }
        }
        // Floating-point slack: fall through to the last component.
        self.components.last().expect("non-empty").1.sample(rng)
    }

    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum()
    }

    fn variance(&self) -> f64 {
        // Var = E[X^2] - E[X]^2 with E[X^2] mixed per component.
        let mean = self.mean();
        let second: f64 = self
            .components
            .iter()
            .map(|(w, d)| w * (d.variance() + d.mean() * d.mean()))
            .sum();
        second - mean * mean
    }

    fn pdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.pdf(x)).sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.cdf(x)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn bimodal() -> Mixture {
        Mixture::bimodal(
            0.7,
            Dist::normal(1.0, 0.05).unwrap(),
            Dist::normal(5.0, 0.1).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(Mixture::new(vec![]).is_err());
        assert!(Mixture::new(vec![(0.0, Dist::constant(1.0))]).is_err());
        assert!(Mixture::new(vec![(-1.0, Dist::constant(1.0))]).is_err());
        assert!(Mixture::bimodal(0.0, Dist::constant(1.0), Dist::constant(2.0)).is_err());
        assert!(Mixture::bimodal(1.0, Dist::constant(1.0), Dist::constant(2.0)).is_err());
    }

    #[test]
    fn weights_normalized() {
        let m = Mixture::new(vec![(2.0, Dist::constant(0.0)), (6.0, Dist::constant(1.0))]).unwrap();
        assert!((m.components()[0].0 - 0.25).abs() < 1e-15);
        assert!((m.components()[1].0 - 0.75).abs() < 1e-15);
        assert!((m.mean() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn moments_match_mixture_formulas() {
        let m = bimodal();
        // mean = 0.7*1 + 0.3*5 = 2.2
        assert!((m.mean() - 2.2).abs() < 1e-12);
        // E[X^2] = 0.7*(0.0025+1) + 0.3*(0.01+25) = 0.701750 + 7.503 = 8.20475
        let var = 8.20475 - 2.2 * 2.2;
        assert!(
            (m.variance() - var).abs() < 1e-10,
            "{} vs {var}",
            m.variance()
        );
    }

    #[test]
    fn samples_split_between_modes() {
        let m = bimodal();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 20_000;
        let fast = (0..n).filter(|_| m.sample(&mut rng) < 3.0).count();
        let frac = fast as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.02, "fast fraction {frac}");
    }

    #[test]
    fn pdf_cdf_are_weighted_sums() {
        let m = bimodal();
        assert!(m.pdf(1.0) > m.pdf(3.0), "density peaks at the fast mode");
        assert!(
            (m.cdf(3.0) - 0.7).abs() < 1e-6,
            "70% of mass below the valley"
        );
        assert!((m.cdf(100.0) - 1.0).abs() < 1e-9);
        assert!(m.cdf(-100.0) < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let m = bimodal();
        let json = serde_json::to_string(&m).unwrap();
        let back: Mixture = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn usable_as_kernel_model_shape() {
        // Sanity: samples are finite and non-negative when components are.
        let m = Mixture::bimodal(
            0.5,
            Dist::gamma(4.0, 0.001).unwrap(),
            Dist::gamma(4.0, 0.01).unwrap(),
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = m.sample(&mut rng);
            assert!(x.is_finite() && x >= 0.0);
        }
    }
}
