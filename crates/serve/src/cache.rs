//! The two memoization layers behind the service.
//!
//! * [`ModelCache`] — fitted/synthetic duration-model databases, keyed by
//!   their *content* (a calibration file is re-read per request but only
//!   re-parsed when its bytes change; synthetic registries are keyed by
//!   their parameters). Model construction dominates request setup, and a
//!   registry is immutable once built, so every concurrent session shares
//!   one `Arc` — the same sharing discipline sweeps use. Its JSON text,
//!   serialised once when it is built, is kept beside it for every
//!   request's content hash.
//! * [`ResponseCache`] — full serialized `/run` response documents, keyed
//!   by [`Scenario::content_hash`](supersim_workloads::Scenario::content_hash).
//!   Only deterministic (DES-backend, non-streamed) responses are
//!   inserted, so a hit is byte-identical to the cold response by
//!   construction.
//!
//! Mutable per-run state (sessions, compiled fault injectors — whose
//! [`supersim_faults::CompiledFaults`] carry live stats) is deliberately
//! **not** cached: those are rebuilt per request from the cached
//! immutable inputs.

use crate::api::ModelSource;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use supersim_calibrate::CalibrationDb;
use supersim_core::{KernelModel, ModelRegistry};
use supersim_trace::{fnv1a, FNV1A_BASIS};
use supersim_workloads::scenario::{synthetic_model, uniform_models};
use supersim_workloads::Algorithm;

/// A cached registry and its JSON text (what `serde_json::to_string`
/// writes for it, for [`Scenario::models_serialized`]).
///
/// [`Scenario::models_serialized`]: supersim_workloads::Scenario::models_serialized
pub type SerializedModels = (Arc<ModelRegistry>, Arc<str>);

/// Cached, shared duration-model registries.
#[derive(Default)]
pub struct ModelCache {
    /// Key: a content descriptor (see [`ModelCache::resolve`]).
    map: Mutex<HashMap<String, SerializedModels>>,
    /// Calibration freshness: path → (raw-bytes digest, db fingerprint).
    files: Mutex<HashMap<String, (u64, u64)>>,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registries currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve a model source to a shared registry and its JSON text,
    /// memoized by content:
    /// synthetic/constant sources key on `(algorithm, parameters)`;
    /// calibration sources re-read the file each call but skip the JSON
    /// parse and registry clone when the bytes are unchanged (keyed on
    /// [`CalibrationDb::fingerprint`], so an edited database is re-fitted
    /// rather than served stale).
    pub fn resolve(
        &self,
        source: &ModelSource,
        algorithm: Algorithm,
    ) -> Result<SerializedModels, String> {
        // Building the one `KernelModel` is plain arithmetic, so the
        // parameters are checked on every request, hit or miss.
        let (key, model) = match source {
            ModelSource::Calibration { path } => return self.calibration(path),
            ModelSource::Synthetic { mu, sigma, warmup } => {
                let [mu, sigma, warmup] = ModelSource::synthetic(*mu, *sigma, *warmup);
                (
                    format!("synthetic:{}:{mu:e}:{sigma:e}:{warmup:e}", algorithm.name()),
                    synthetic_model(mu, sigma, warmup)?,
                )
            }
            ModelSource::Constant { seconds } if *seconds >= 0.0 => (
                format!("constant:{}:{seconds:e}", algorithm.name()),
                KernelModel::constant(*seconds),
            ),
            ModelSource::Constant { .. } => return Err("seconds must be non-negative".to_string()),
        };
        if let Some(m) = self.map.lock().get(&key) {
            return Ok(m.clone());
        }
        let built = serialized(Arc::new(uniform_models(&[algorithm], &model)));
        // Races insert twice at worst; last write wins and both values
        // are identical by construction.
        self.map.lock().insert(key, built.clone());
        Ok(built)
    }

    /// Load (or reuse) a calibration database's fitted registry.
    fn calibration(&self, path: &str) -> Result<SerializedModels, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        let digest = fnv1a(FNV1A_BASIS, &bytes);
        if let Some((cached_digest, fp)) = self.files.lock().get(path) {
            if *cached_digest == digest {
                let key = format!("calibration:{fp:016x}");
                if let Some(m) = self.map.lock().get(&key) {
                    return Ok(m.clone());
                }
            }
        }
        let text = String::from_utf8(bytes).map_err(|_| format!("'{path}' is not UTF-8"))?;
        let db = CalibrationDb::from_json(&text).map_err(|e| format!("bad calibration: {e}"))?;
        let fp = db.fingerprint();
        let key = format!("calibration:{fp:016x}");
        let models = self
            .map
            .lock()
            .entry(key)
            .or_insert_with(|| serialized(db.shared_models()))
            .clone();
        self.files.lock().insert(path.to_string(), (digest, fp));
        Ok(models)
    }
}

/// `registry` with its JSON text.
fn serialized(registry: Arc<ModelRegistry>) -> SerializedModels {
    let json = serde_json::to_string(registry.as_ref()).expect("model registries serialize");
    (registry, json.into())
}

/// Cached serialized `/run` responses, keyed by scenario content hash.
#[derive(Default)]
pub struct ResponseCache {
    map: Mutex<HashMap<u64, Arc<String>>>,
}

impl ResponseCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached responses.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached body for `key`, if any.
    pub fn get(&self, key: u64) -> Option<Arc<String>> {
        self.map.lock().get(&key).cloned()
    }

    /// Memoize `body` under `key`.
    pub fn insert(&self, key: u64, body: Arc<String>) {
        self.map.lock().insert(key, body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_registries_are_shared_by_parameters() {
        let cache = ModelCache::new();
        let src = ModelSource::Synthetic {
            mu: Some(-6.0),
            sigma: Some(0.3),
            warmup: None,
        };
        let (a, a_json) = cache.resolve(&src, Algorithm::Cholesky).unwrap();
        let (b, b_json) = cache.resolve(&src, Algorithm::Cholesky).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same parameters share one registry");
        assert!(Arc::ptr_eq(&a_json, &b_json), "and one serialisation");
        assert_eq!(&*a_json, serde_json::to_string(a.as_ref()).unwrap());
        let (c, _) = cache.resolve(&src, Algorithm::Lu).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different label sets");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn constant_source_validates() {
        let cache = ModelCache::new();
        let err = cache
            .resolve(
                &ModelSource::Constant { seconds: -1.0 },
                Algorithm::Cholesky,
            )
            .unwrap_err();
        assert!(err.contains("non-negative"));
        let (m, _) = cache
            .resolve(&ModelSource::Constant { seconds: 0.01 }, Algorithm::Qr)
            .unwrap();
        assert_eq!(m.len(), Algorithm::Qr.labels().len());
    }

    #[test]
    fn calibration_files_reload_only_on_change() {
        use supersim_calibrate::{calibrate, FitOptions};
        use supersim_trace::{Trace, TraceEvent};
        let mut t = Trace::new(1);
        for i in 0..40u64 {
            t.push(TraceEvent {
                worker: 0,
                kernel: "dgemm".into(),
                task_id: i,
                start: i as f64,
                end: i as f64 + 0.01,
            });
        }
        let cal = calibrate(&t, FitOptions::default());
        let db = CalibrationDb::new("cache test", 64, 8, 1, cal);
        let dir = std::env::temp_dir().join(format!("supersim-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cal.json");
        db.save(&path).unwrap();
        let p = path.to_str().unwrap();

        let cache = ModelCache::new();
        let (a, _) = cache.calibration(p).unwrap();
        let (b, _) = cache.calibration(p).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "unchanged file reuses the registry");

        // Rewrite with different provenance: the fingerprint changes, so
        // the stale registry must not be served.
        let mut db2 = db.clone();
        db2.description = "edited".into();
        db2.save(&path).unwrap();
        let (c, _) = cache.calibration(p).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "edited file re-parses");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn response_cache_round_trips() {
        let cache = ResponseCache::new();
        assert!(cache.get(1).is_none());
        cache.insert(1, Arc::new("{\"x\":1}".to_string()));
        assert_eq!(cache.get(1).unwrap().as_str(), "{\"x\":1}");
        assert_eq!(cache.len(), 1);
    }
}
