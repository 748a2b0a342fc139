//! Goodness-of-fit: the Kolmogorov–Smirnov statistic.
//!
//! Used to sanity-check the fitted kernel models ("to test how appropriate
//! these distributions are, we fitted the empirical distributions of
//! completion times", paper §V-B2).

use crate::{Dist, Distribution};

/// One-sample Kolmogorov–Smirnov statistic: the max distance between the
/// empirical CDF of `data` and the model CDF.
pub fn ks_statistic(dist: &Dist, data: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let mut d = 0.0_f64;
    for (i, &x) in sorted.iter().enumerate() {
        let cdf = dist.cdf(x);
        // ECDF jumps from i/n to (i+1)/n at x; check both sides.
        let d_plus = ((i + 1) as f64 / n - cdf).abs();
        let d_minus = (cdf - i as f64 / n).abs();
        d = d.max(d_plus).max(d_minus);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dist;
    use rand::SeedableRng;

    fn samples(d: &Dist, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn ks_small_for_true_model() {
        let d = Dist::normal(0.0, 1.0).unwrap();
        let data = samples(&d, 5_000, 1);
        let d_n = ks_statistic(&d, &data);
        assert!(d_n < 0.03, "stat {d_n}");
    }

    #[test]
    fn ks_large_for_wrong_model() {
        let truth = Dist::normal(0.0, 1.0).unwrap();
        let wrong = Dist::normal(2.0, 1.0).unwrap();
        let data = samples(&truth, 5_000, 2);
        let d_n = ks_statistic(&wrong, &data);
        assert!(d_n > 0.5, "stat {d_n}");
    }

    #[test]
    fn ks_statistic_empty_is_nan() {
        let d = Dist::normal(0.0, 1.0).unwrap();
        assert!(ks_statistic(&d, &[]).is_nan());
    }
}
