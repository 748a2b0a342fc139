//! Parameter fitting and model selection for kernel-duration data.
//!
//! Reproduces the paper's §V-B2 methodology: fit normal, gamma and
//! log-normal candidates to the empirical kernel timings and pick the best.
//! Fits use maximum likelihood (closed-form for normal/log-normal, Newton on
//! the digamma equation for gamma), and selection uses the Akaike
//! Information Criterion over the shared data.

use crate::moments::Moments;
use crate::special::digamma;
use crate::{Dist, DistError, Distribution, Exponential, Gamma, LogNormal, Normal};
use serde::{Deserialize, Serialize};

/// Minimum number of samples we are willing to fit a 2-parameter model to.
pub const MIN_FIT_SAMPLES: usize = 8;

/// Fit a normal distribution by maximum likelihood (sample mean/std).
pub fn fit_normal(data: &[f64]) -> Result<Normal, DistError> {
    let m = finite_moments(data)?;
    let sigma = m.sample_std_dev();
    if sigma <= 0.0 {
        return Err(DistError::UnsupportedData(
            "zero variance data cannot fit a normal",
        ));
    }
    Normal::new(m.mean(), sigma)
}

/// Fit a log-normal by maximum likelihood on the log-transformed data.
pub fn fit_lognormal(data: &[f64]) -> Result<LogNormal, DistError> {
    check_count(data)?;
    if data.iter().any(|&x| x <= 0.0) {
        return Err(DistError::UnsupportedData(
            "lognormal fit requires strictly positive data",
        ));
    }
    let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
    let m = Moments::from_slice(&logs);
    let sigma = m.sample_std_dev();
    if sigma <= 0.0 {
        return Err(DistError::UnsupportedData(
            "zero variance data cannot fit a lognormal",
        ));
    }
    LogNormal::new(m.mean(), sigma)
}

/// Fit a gamma distribution.
///
/// Starts from the Minka/method-of-moments initializer and refines the shape
/// with Newton iterations on the MLE condition
/// `ln(k) - psi(k) = ln(mean) - mean(ln x)`.
pub fn fit_gamma(data: &[f64]) -> Result<Gamma, DistError> {
    check_count(data)?;
    if data.iter().any(|&x| x <= 0.0) {
        return Err(DistError::UnsupportedData(
            "gamma fit requires strictly positive data",
        ));
    }
    let m = finite_moments(data)?;
    let mean = m.mean();
    let mean_ln = data.iter().map(|x| x.ln()).sum::<f64>() / data.len() as f64;
    let s = mean.ln() - mean_ln;
    if s <= 0.0 {
        // Degenerate (all samples equal) — fall back to the moment estimate.
        let var = m.sample_variance();
        if var <= 0.0 {
            return Err(DistError::UnsupportedData(
                "zero variance data cannot fit a gamma",
            ));
        }
        return Gamma::from_mean_std(mean, var.sqrt());
    }
    // Minka's closed-form initializer.
    let mut k = (3.0 - s + ((s - 3.0) * (s - 3.0) + 24.0 * s).sqrt()) / (12.0 * s);
    if !k.is_finite() || k <= 0.0 {
        k = 1.0;
    }
    // Newton refinement: f(k) = ln k - psi(k) - s, f'(k) ~ 1/k - psi'(k);
    // we use the standard approximation psi'(k) ≈ (psi(k+h)-psi(k))/h.
    for _ in 0..50 {
        let f = k.ln() - digamma(k) - s;
        let h = 1e-6 * k.max(1e-6);
        let fp = (1.0 / k) - (digamma(k + h) - digamma(k)) / h;
        let step = f / fp;
        let next = k - step;
        let next = if next <= 0.0 { k / 2.0 } else { next };
        if (next - k).abs() <= 1e-12 * k {
            k = next;
            break;
        }
        k = next;
    }
    if !k.is_finite() || k <= 0.0 {
        return Err(DistError::NoConvergence("gamma shape iteration diverged"));
    }
    Gamma::new(k, mean / k)
}

/// Fit an exponential by maximum likelihood (rate = 1/mean).
pub fn fit_exponential(data: &[f64]) -> Result<Exponential, DistError> {
    let m = finite_moments(data)?;
    if m.mean() <= 0.0 {
        return Err(DistError::UnsupportedData(
            "exponential fit requires positive mean",
        ));
    }
    Exponential::from_mean(m.mean())
}

fn check_count(data: &[f64]) -> Result<(), DistError> {
    if data.len() < MIN_FIT_SAMPLES {
        return Err(DistError::InsufficientData {
            needed: MIN_FIT_SAMPLES,
            got: data.len(),
        });
    }
    Ok(())
}

fn finite_moments(data: &[f64]) -> Result<Moments, DistError> {
    check_count(data)?;
    let m = Moments::from_slice(data);
    if (m.count() as usize) < MIN_FIT_SAMPLES {
        return Err(DistError::InsufficientData {
            needed: MIN_FIT_SAMPLES,
            got: m.count() as usize,
        });
    }
    Ok(m)
}

/// Total log-likelihood of `data` under `dist`.
pub fn log_likelihood(dist: &Dist, data: &[f64]) -> f64 {
    data.iter().map(|&x| dist.ln_pdf(x)).sum()
}

/// Akaike Information Criterion: `2k - 2 ln L`.
pub fn aic(log_lik: f64, param_count: usize) -> f64 {
    2.0 * param_count as f64 - 2.0 * log_lik
}

/// Bayesian Information Criterion: `k ln n - 2 ln L`.
pub fn bic(log_lik: f64, param_count: usize, n: usize) -> f64 {
    param_count as f64 * (n as f64).ln() - 2.0 * log_lik
}

/// One fitted candidate model with its quality scores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FittedModel {
    /// The fitted distribution.
    pub dist: Dist,
    /// Total log-likelihood on the fitting data.
    pub log_likelihood: f64,
    /// Akaike information criterion (lower is better).
    pub aic: f64,
    /// Bayesian information criterion (lower is better).
    pub bic: f64,
    /// Kolmogorov–Smirnov statistic against the fitting data.
    pub ks_statistic: f64,
}

/// The result of fitting all candidate families to one data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSelection {
    candidates: Vec<FittedModel>,
}

impl ModelSelection {
    /// All successfully fitted candidates, sorted by ascending AIC.
    pub fn candidates(&self) -> &[FittedModel] {
        &self.candidates
    }

    /// The AIC-best model.
    pub fn best(&self) -> &FittedModel {
        &self.candidates[0]
    }

    /// Find the candidate from a given family, if it was fitted.
    pub fn family(&self, name: &str) -> Option<&FittedModel> {
        self.candidates.iter().find(|c| c.dist.family() == name)
    }
}

/// Fit the paper's three kernel models (normal, gamma, log-normal) plus an
/// exponential baseline, score each with AIC, and return them ranked.
///
/// Families whose support does not admit the data (e.g. gamma with
/// non-positive samples) are silently skipped; an error is returned only if
/// *no* family could be fitted.
pub fn select_model(data: &[f64]) -> Result<ModelSelection, DistError> {
    check_count(data)?;
    let mut candidates = Vec::new();
    let mut push = |d: Dist| {
        let ll = log_likelihood(&d, data);
        if !ll.is_finite() {
            return;
        }
        let k = d.param_count();
        candidates.push(FittedModel {
            aic: aic(ll, k),
            bic: bic(ll, k, data.len()),
            ks_statistic: crate::gof::ks_statistic(&d, data),
            log_likelihood: ll,
            dist: d,
        });
    };
    if let Ok(n) = fit_normal(data) {
        push(Dist::Normal(n));
    }
    if let Ok(g) = fit_gamma(data) {
        push(Dist::Gamma(g));
    }
    if let Ok(l) = fit_lognormal(data) {
        push(Dist::LogNormal(l));
    }
    if let Ok(e) = fit_exponential(data) {
        push(Dist::Exponential(e));
    }
    if candidates.is_empty() {
        return Err(DistError::UnsupportedData(
            "no candidate family admits this data",
        ));
    }
    candidates.sort_by(|a, b| a.aic.total_cmp(&b.aic));
    Ok(ModelSelection { candidates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn samples(d: &Dist, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn normal_fit_recovers_parameters() {
        let truth = Dist::normal(5.0, 0.8).unwrap();
        let data = samples(&truth, 20_000, 1);
        let fit = fit_normal(&data).unwrap();
        assert!((fit.mu() - 5.0).abs() < 0.03, "mu {}", fit.mu());
        assert!((fit.sigma() - 0.8).abs() < 0.02, "sigma {}", fit.sigma());
    }

    #[test]
    fn lognormal_fit_recovers_parameters() {
        let truth = Dist::log_normal(-0.5, 0.4).unwrap();
        let data = samples(&truth, 20_000, 2);
        let fit = fit_lognormal(&data).unwrap();
        assert!((fit.mu() + 0.5).abs() < 0.02, "mu {}", fit.mu());
        assert!((fit.sigma() - 0.4).abs() < 0.01, "sigma {}", fit.sigma());
    }

    #[test]
    fn gamma_fit_recovers_parameters() {
        let truth = Dist::gamma(5.0, 0.3).unwrap();
        let data = samples(&truth, 20_000, 3);
        let fit = fit_gamma(&data).unwrap();
        assert!((fit.shape() - 5.0).abs() < 0.3, "shape {}", fit.shape());
        assert!((fit.scale() - 0.3).abs() < 0.03, "scale {}", fit.scale());
    }

    #[test]
    fn gamma_fit_small_shape() {
        let truth = Dist::gamma(0.7, 2.0).unwrap();
        let data = samples(&truth, 40_000, 4);
        let fit = fit_gamma(&data).unwrap();
        assert!((fit.shape() - 0.7).abs() < 0.05, "shape {}", fit.shape());
    }

    #[test]
    fn exponential_fit() {
        let e = fit_exponential(&[1.0, 3.0, 2.0, 2.0, 1.5, 2.5, 2.0, 2.0]).unwrap();
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fits_reject_insufficient_or_invalid_data() {
        assert!(matches!(
            fit_normal(&[1.0, 2.0]),
            Err(DistError::InsufficientData { .. })
        ));
        let with_negative = [-1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert!(matches!(
            fit_lognormal(&with_negative),
            Err(DistError::UnsupportedData(_))
        ));
        assert!(matches!(
            fit_gamma(&with_negative),
            Err(DistError::UnsupportedData(_))
        ));
        let constant = [2.0; 10];
        assert!(fit_normal(&constant).is_err());
    }

    #[test]
    fn selection_prefers_true_family_normal() {
        let truth = Dist::normal(10.0, 0.5).unwrap();
        let data = samples(&truth, 8_000, 5);
        let sel = select_model(&data).unwrap();
        assert_eq!(sel.best().dist.family(), "normal");
    }

    #[test]
    fn selection_prefers_true_family_gamma_over_exponential() {
        // Strongly-shaped gamma should beat exponential and normal.
        let truth = Dist::gamma(2.0, 1.0).unwrap();
        let data = samples(&truth, 8_000, 6);
        let sel = select_model(&data).unwrap();
        let fam = sel.best().dist.family();
        assert!(fam == "gamma" || fam == "lognormal", "best was {fam}");
        // The exponential must be strictly worse.
        let exp = sel.family("exponential").unwrap();
        assert!(exp.aic > sel.best().aic);
    }

    #[test]
    fn selection_orders_by_aic() {
        let truth = Dist::log_normal(0.0, 0.6).unwrap();
        let data = samples(&truth, 4_000, 7);
        let sel = select_model(&data).unwrap();
        let aics: Vec<f64> = sel.candidates().iter().map(|c| c.aic).collect();
        assert!(
            aics.windows(2).all(|w| w[0] <= w[1]),
            "not sorted: {aics:?}"
        );
    }

    #[test]
    fn selection_skips_inadmissible_families() {
        // Data with negatives: gamma/lognormal skipped, normal still fits.
        let truth = Dist::normal(0.0, 1.0).unwrap();
        let data = samples(&truth, 4_000, 8);
        assert!(data.iter().any(|&x| x < 0.0));
        let sel = select_model(&data).unwrap();
        assert!(sel.family("gamma").is_none());
        assert!(sel.family("lognormal").is_none());
        assert_eq!(sel.best().dist.family(), "normal");
    }

    #[test]
    fn aic_bic_formulas() {
        assert_eq!(aic(-10.0, 2), 24.0);
        assert!((bic(-10.0, 2, 100) - (2.0 * 100f64.ln() + 20.0)).abs() < 1e-12);
    }
}
