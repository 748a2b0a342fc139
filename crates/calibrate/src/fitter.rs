//! Fit kernel models from collected samples (paper §V-B2).

use crate::collector::{collect, CollectOptions, KernelSamples};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use supersim_core::{KernelModel, ModelRegistry};
use supersim_dist::fit::{select_model, FittedModel};
use supersim_dist::Dist;
use supersim_trace::Trace;

/// Options controlling model fitting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitOptions {
    /// Sample extraction options.
    pub collect: CollectOptions,
    /// Fold the excluded first-call durations back in as a warm-up factor
    /// on the fitted model.
    pub estimate_warmup: bool,
    /// Force a family (`"normal"`, `"gamma"`, `"lognormal"`) instead of
    /// AIC selection; falls back to the AIC winner if the family could not
    /// be fitted.
    pub force_family: Option<&'static str>,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            collect: CollectOptions::default(),
            estimate_warmup: true,
            force_family: None,
        }
    }
}

/// Fit summary for one kernel class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LabelReport {
    /// Number of samples used in the fit.
    pub samples: usize,
    /// Per-worker first calls excluded as warm-up.
    pub warmups_excluded: usize,
    /// Outliers trimmed.
    pub trimmed: usize,
    /// Sample mean (seconds).
    pub mean: f64,
    /// The chosen family name.
    pub family: String,
    /// Warm-up factor applied to the model.
    pub warmup_factor: f64,
    /// All fitted candidates with scores, ranked by AIC.
    pub candidates: Vec<FittedModel>,
}

/// A full calibration: models plus per-label diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Calibration {
    /// The model registry to hand to a `SimSession`.
    pub registry: ModelRegistry,
    /// Per-label fitting diagnostics.
    pub reports: BTreeMap<String, LabelReport>,
}

/// Fit one kernel class from its samples.
pub fn fit_label(samples: &KernelSamples, opts: &FitOptions) -> Option<(KernelModel, LabelReport)> {
    let data = &samples.durations;
    let warmup_factor = if opts.estimate_warmup {
        samples.warmup_factor()
    } else {
        1.0
    };

    let fitted = |dist: Dist, mean: f64, candidates: Vec<FittedModel>| {
        let report = LabelReport {
            samples: data.len(),
            warmups_excluded: samples.warmup_durations.len(),
            trimmed: samples.trimmed,
            mean,
            family: dist.family().to_string(),
            warmup_factor,
            candidates,
        };
        Some((KernelModel::with_warmup(dist, warmup_factor), report))
    };
    // The fallback: a constant model at `mean`.
    let constant = |mean: f64| fitted(Dist::constant(mean), mean, vec![]);

    // Too few samples for a distribution fit: fall back to the mean
    // (a constant model) so small runs still calibrate.
    if data.len() < supersim_dist::fit::MIN_FIT_SAMPLES {
        if data.is_empty() && samples.warmup_durations.is_empty() {
            return None;
        }
        return constant(if data.is_empty() {
            samples.warmup_durations.iter().sum::<f64>() / samples.warmup_durations.len() as f64
        } else {
            samples.mean()
        });
    }

    // All-equal samples: no spread to fit — use the constant model
    // directly (select_model would otherwise hand this to the exponential,
    // the only family that tolerates zero variance, which is a poor model).
    let spread = supersim_dist::moments::Moments::from_slice(data).sample_variance();
    if spread <= 0.0 {
        return constant(samples.mean());
    }

    // Degenerate data no family fits: constant model.
    let Ok(selection) = select_model(data) else {
        return constant(samples.mean());
    };
    let chosen = opts
        .force_family
        .and_then(|f| selection.family(f))
        .unwrap_or_else(|| selection.best());
    fitted(
        chosen.dist.clone(),
        samples.mean(),
        selection.candidates().to_vec(),
    )
}

/// Calibrate every kernel class found in a real-run trace.
pub fn calibrate(trace: &Trace, opts: FitOptions) -> Calibration {
    let samples = collect(trace, opts.collect);
    let mut registry = ModelRegistry::new();
    let mut reports = BTreeMap::new();
    for (label, s) in &samples {
        if let Some((model, report)) = fit_label(s, &opts) {
            registry.insert(label.clone(), model);
            reports.insert(label.clone(), report);
        }
    }
    Calibration { registry, reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use supersim_dist::Distribution;
    use supersim_trace::TraceEvent;

    fn synthetic_trace(label: &str, dist: &Dist, n: usize, seed: u64) -> Trace {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut t = Trace::new(2);
        let mut clock = [0.0f64; 2];
        for i in 0..n {
            let w = i % 2;
            let d = dist.sample(&mut rng).max(1e-9);
            t.push(TraceEvent {
                worker: w,
                kernel: label.into(),
                task_id: i as u64,
                start: clock[w],
                end: clock[w] + d,
            });
            clock[w] += d;
        }
        t
    }

    #[test]
    fn recovers_lognormal_family() {
        let truth = Dist::log_normal(-5.0, 0.3).unwrap();
        let trace = synthetic_trace("dtsmqr", &truth, 5000, 1);
        let cal = calibrate(&trace, FitOptions::default());
        let report = &cal.reports["dtsmqr"];
        // Lognormal should win or at least be fitted among candidates.
        assert!(report
            .candidates
            .iter()
            .any(|c| c.dist.family() == "lognormal"));
        assert_eq!(report.family, cal.registry.expect("dtsmqr").dist.family());
        // Model mean close to truth mean.
        let fitted_mean = cal.registry.expect("dtsmqr").mean();
        assert!((fitted_mean - truth.mean()).abs() < 0.05 * truth.mean());
    }

    #[test]
    fn warmup_estimated_from_first_calls() {
        // Two workers; first call per worker is 10x.
        let mut t = Trace::new(2);
        let mut id = 0;
        for w in 0..2usize {
            let mut clock = 0.0;
            for i in 0..50 {
                let d = if i == 0 { 0.1 } else { 0.01 };
                t.push(TraceEvent {
                    worker: w,
                    kernel: "k".into(),
                    task_id: id,
                    start: clock,
                    end: clock + d,
                });
                clock += d;
                id += 1;
            }
        }
        let cal = calibrate(&trace_with(t), FitOptions::default());
        let report = &cal.reports["k"];
        assert_eq!(report.warmups_excluded, 2);
        assert!(
            (report.warmup_factor - 10.0).abs() < 0.5,
            "factor {}",
            report.warmup_factor
        );
    }

    fn trace_with(t: Trace) -> Trace {
        t
    }

    #[test]
    fn few_samples_fall_back_to_constant() {
        let mut t = Trace::new(1);
        for i in 0..3u64 {
            t.push(TraceEvent {
                worker: 0,
                kernel: "rare".into(),
                task_id: i,
                start: i as f64,
                end: i as f64 + 0.5,
            });
        }
        let cal = calibrate(
            &t,
            FitOptions {
                collect: CollectOptions {
                    exclude_first_per_worker: false,
                    trim_quantile: 0.0,
                },
                ..Default::default()
            },
        );
        assert_eq!(cal.reports["rare"].family, "constant");
        assert_eq!(cal.registry.expect("rare").mean(), 0.5);
    }

    #[test]
    fn degenerate_equal_samples_fit_constant() {
        let mut t = Trace::new(1);
        for i in 0..20u64 {
            t.push(TraceEvent {
                worker: 0,
                kernel: "exact".into(),
                task_id: i,
                start: i as f64,
                end: i as f64 + 0.25,
            });
        }
        let cal = calibrate(
            &t,
            FitOptions {
                collect: CollectOptions {
                    exclude_first_per_worker: false,
                    trim_quantile: 0.0,
                },
                ..Default::default()
            },
        );
        assert_eq!(cal.reports["exact"].family, "constant");
        assert_eq!(cal.registry.expect("exact").mean(), 0.25);
    }

    #[test]
    fn force_family_overrides_aic() {
        let truth = Dist::gamma(9.0, 0.001).unwrap();
        let trace = synthetic_trace("dgemm", &truth, 3000, 2);
        let cal = calibrate(
            &trace,
            FitOptions {
                force_family: Some("normal"),
                ..Default::default()
            },
        );
        assert_eq!(cal.reports["dgemm"].family, "normal");
    }

    #[test]
    fn calibration_serde_round_trip() {
        let truth = Dist::normal(0.01, 0.001).unwrap();
        let trace = synthetic_trace("k", &truth, 500, 3);
        let cal = calibrate(&trace, FitOptions::default());
        let json = serde_json::to_string(&cal).unwrap();
        let back: Calibration = serde_json::from_str(&json).unwrap();
        assert_eq!(cal, back);
    }
}
