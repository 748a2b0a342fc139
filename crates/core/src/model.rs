//! Kernel duration models.
//!
//! "Each task's running time is not fixed, but rather is determined by a
//! probabilistic distribution" (§V-B). A [`KernelModel`] wraps a fitted
//! distribution plus the first-call warm-up effect the paper observed with
//! MKL ("the first kernel on each thread will take significantly longer to
//! execute than the following kernels").

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use supersim_dist::{Dist, Distribution};

/// Duration model for one kernel class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct KernelModel {
    /// The fitted duration distribution (seconds).
    pub dist: Dist,
    /// Multiplier applied to the first execution of this kernel class on
    /// each worker (models library initialization); 1.0 disables it.
    pub warmup_factor: f64,
}

impl KernelModel {
    /// Model with no warm-up effect.
    pub fn new(dist: Dist) -> Self {
        KernelModel {
            dist,
            warmup_factor: 1.0,
        }
    }

    /// Model with a warm-up multiplier for each worker's first call.
    pub fn with_warmup(dist: Dist, warmup_factor: f64) -> Self {
        KernelModel {
            dist,
            warmup_factor,
        }
    }

    /// Deterministic model (constant duration).
    pub fn constant(seconds: f64) -> Self {
        Self::new(Dist::constant(seconds))
    }

    /// Sample a duration; `first_call_on_worker` applies the warm-up factor.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, first_call_on_worker: bool) -> f64 {
        let base = self.dist.sample(rng).max(0.0);
        if first_call_on_worker {
            base * self.warmup_factor
        } else {
            base
        }
    }

    /// The model's mean duration (ignoring warm-up).
    pub fn mean(&self) -> f64 {
        self.dist.mean()
    }
}

/// Registry of duration models keyed by kernel-class label.
///
/// Serializable so a calibration run can persist it and later simulations
/// can reload it (the calibration "database").
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ModelRegistry {
    models: BTreeMap<String, KernelModel>,
    /// Fallback model used for labels with no entry (None = panic on miss).
    pub fallback: Option<KernelModel>,
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace the model for a label.
    pub fn insert(&mut self, label: impl Into<String>, model: KernelModel) {
        self.models.insert(label.into(), model);
    }

    /// Look up a model.
    pub fn get(&self, label: &str) -> Option<&KernelModel> {
        self.models.get(label).or(self.fallback.as_ref())
    }

    /// Look up a model, panicking with a clear message if absent.
    pub fn expect(&self, label: &str) -> &KernelModel {
        self.get(label).unwrap_or_else(|| {
            panic!("no kernel model registered for '{label}' and no fallback set")
        })
    }

    /// Labels with explicit models.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.models.keys().map(String::as_str)
    }

    /// Number of explicit models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry has no explicit models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_model_is_exact() {
        let m = KernelModel::constant(0.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(m.sample(&mut rng, false), 0.5);
        assert_eq!(m.mean(), 0.5);
    }

    #[test]
    fn warmup_applies_only_when_flagged() {
        let m = KernelModel::with_warmup(Dist::constant(1.0), 3.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(m.sample(&mut rng, true), 3.0);
        assert_eq!(m.sample(&mut rng, false), 1.0);
    }

    #[test]
    fn samples_never_negative() {
        // A normal with mass below zero must be clamped.
        let m = KernelModel::new(Dist::normal(0.001, 0.1).unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(m.sample(&mut rng, false) >= 0.0);
        }
    }

    #[test]
    fn registry_lookup_and_fallback() {
        let mut r = ModelRegistry::new();
        r.insert("dgemm", KernelModel::constant(1.0));
        assert!(r.get("dgemm").is_some());
        assert!(r.get("nope").is_none());
        r.fallback = Some(KernelModel::constant(9.0));
        assert_eq!(r.get("nope").unwrap().mean(), 9.0);
        assert_eq!(r.expect("dgemm").mean(), 1.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r.labels().collect::<Vec<_>>(), vec!["dgemm"]);
    }

    #[test]
    #[should_panic(expected = "no kernel model registered for 'mystery'")]
    fn expect_panics_without_model() {
        ModelRegistry::new().expect("mystery");
    }

    #[test]
    fn registry_serde_round_trip() {
        let mut r = ModelRegistry::new();
        r.insert("dgemm", KernelModel::new(Dist::gamma(4.0, 0.001).unwrap()));
        r.insert(
            "dpotrf",
            KernelModel::with_warmup(Dist::log_normal(-7.0, 0.2).unwrap(), 2.0),
        );
        let json = serde_json::to_string(&r).unwrap();
        let back: ModelRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
