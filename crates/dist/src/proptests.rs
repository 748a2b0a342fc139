//! Property-based tests for the distribution layer.

#![cfg(test)]

use crate::{fit, quantile, Dist, Distribution};
use proptest::prelude::*;
use rand::SeedableRng;

fn dist_strategy() -> impl Strategy<Value = Dist> {
    prop_oneof![
        (0.01f64..100.0).prop_map(Dist::constant),
        (-10.0f64..10.0, 0.01f64..5.0).prop_map(|(lo, w)| Dist::uniform(lo, lo + w).unwrap()),
        (0.01f64..10.0).prop_map(|l| Dist::exponential(l).unwrap()),
        (-5.0f64..5.0, 0.01f64..3.0).prop_map(|(m, s)| Dist::normal(m, s).unwrap()),
        (-3.0f64..3.0, 0.01f64..1.5).prop_map(|(m, s)| Dist::log_normal(m, s).unwrap()),
        (0.1f64..20.0, 0.01f64..5.0).prop_map(|(k, t)| Dist::gamma(k, t).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CDF is monotone non-decreasing and within [0, 1].
    #[test]
    fn cdf_monotone_in_unit_interval(d in dist_strategy(), xs in prop::collection::vec(-50.0f64..50.0, 2..20)) {
        let mut xs = xs;
        xs.sort_by(f64::total_cmp);
        let mut prev = 0.0f64;
        for &x in &xs {
            let c = d.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c), "cdf({x}) = {c}");
            prop_assert!(c >= prev - 1e-12, "cdf not monotone at {x}");
            prev = c;
        }
    }

    /// PDF is non-negative everywhere.
    #[test]
    fn pdf_nonnegative(d in dist_strategy(), x in -50.0f64..50.0) {
        prop_assert!(d.pdf(x) >= 0.0);
    }

    /// Sample mean converges to the distribution mean (loose 5-sigma band).
    #[test]
    fn sample_mean_matches(d in dist_strategy(), seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        let sigma = d.std_dev() / (n as f64).sqrt();
        let tol = 6.0 * sigma + 1e-9 + 0.01 * d.mean().abs();
        prop_assert!((mean - d.mean()).abs() < tol,
            "sample mean {mean} vs {} (tol {tol}) for {d:?}", d.mean());
    }

    /// Samples of positive-support families are non-negative.
    #[test]
    fn positive_support_families(seed in 0u64..500, k in 0.1f64..10.0, t in 0.01f64..5.0) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = Dist::gamma(k, t).unwrap();
        let l = Dist::log_normal(0.0, k.min(2.0)).unwrap();
        let e = Dist::exponential(t).unwrap();
        for _ in 0..100 {
            prop_assert!(g.sample(&mut rng) >= 0.0);
            prop_assert!(l.sample(&mut rng) > 0.0);
            prop_assert!(e.sample(&mut rng) >= 0.0);
        }
    }

    /// Sampling is a pure function of the RNG state.
    #[test]
    fn sampling_deterministic(d in dist_strategy(), seed in 0u64..1000) {
        let mut a = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            prop_assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    /// Serde round-trips preserve the distribution exactly.
    #[test]
    fn serde_round_trip_any(d in dist_strategy()) {
        let json = serde_json::to_string(&d).unwrap();
        let back: Dist = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(d, back);
    }

    /// Quantiles are monotone and bracketed by the sample extremes.
    #[test]
    fn quantiles_monotone(data in prop::collection::vec(-100.0f64..100.0, 1..60),
                          p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let qlo = quantile::quantile(&data, lo);
        let qhi = quantile::quantile(&data, hi);
        prop_assert!(qlo <= qhi + 1e-12);
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(qlo >= min - 1e-12 && qhi <= max + 1e-12);
    }

    /// Normal fit recovers parameters within statistical tolerance.
    #[test]
    fn normal_fit_recovers(mu in -10.0f64..10.0, sigma in 0.05f64..3.0, seed in 0u64..300) {
        let truth = Dist::normal(mu, sigma).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..3000).map(|_| truth.sample(&mut rng)).collect();
        let f = fit::fit_normal(&data).unwrap();
        prop_assert!((f.mu() - mu).abs() < 6.0 * sigma / (3000f64).sqrt() + 1e-6);
        prop_assert!((f.sigma() - sigma).abs() < 0.15 * sigma + 1e-6);
    }

    /// Histogram density always integrates to ~1 for non-degenerate data.
    #[test]
    fn histogram_integrates(data in prop::collection::vec(0.0f64..10.0, 8..200)) {
        if let Some(h) = crate::histogram::Histogram::auto(&data) {
            let integral: f64 = h.densities().iter().map(|d| d * h.bin_width()).sum();
            prop_assert!((integral - 1.0).abs() < 1e-9, "integral {integral}");
        }
    }
}
