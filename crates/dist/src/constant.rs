//! Degenerate (point-mass) distribution.
//!
//! Useful as the simplest possible kernel model — the paper contrasts its
//! probabilistic models against "a constant or uniform distribution"
//! (Fig. 4 caption); this is that baseline.

use crate::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution that always returns `value`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Constant {
    value: f64,
}

impl Constant {
    /// Point mass at `value`. NaN is normalized to 0 to keep the type total.
    pub fn new(value: f64) -> Self {
        let value = if value.is_nan() { 0.0 } else { value };
        Constant { value }
    }

    /// The point of mass.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl Distribution for Constant {
    fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> f64 {
        self.value
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn variance(&self) -> f64 {
        0.0
    }

    /// The density of a point mass is not a function; by convention we
    /// return `+inf` at the atom and `0` elsewhere.
    fn pdf(&self, x: f64) -> f64 {
        if x == self.value {
            f64::INFINITY
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn always_returns_value() {
        let c = Constant::new(2.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(c.sample(&mut rng), 2.5);
        }
        assert_eq!(c.mean(), 2.5);
        assert_eq!(c.variance(), 0.0);
        assert_eq!(c.std_dev(), 0.0);
    }

    #[test]
    fn cdf_is_step() {
        let c = Constant::new(1.0);
        assert_eq!(c.cdf(0.999), 0.0);
        assert_eq!(c.cdf(1.0), 1.0);
        assert_eq!(c.cdf(2.0), 1.0);
    }

    #[test]
    fn nan_normalized() {
        assert_eq!(Constant::new(f64::NAN).value(), 0.0);
    }
}
