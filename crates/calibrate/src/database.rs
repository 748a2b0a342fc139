//! JSON persistence for calibrations — the "kernel model database" that
//! lets an autotuning loop (the paper's motivating use case, §VI-B)
//! calibrate once and simulate many configurations.

use crate::fitter::Calibration;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;
use supersim_core::ModelRegistry;

/// A stored calibration plus provenance metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CalibrationDb {
    /// Schema version.
    pub version: u32,
    /// Free-form description (machine, workload, parameters).
    pub description: String,
    /// Matrix order of the calibration run (0 = not applicable).
    pub n: usize,
    /// Tile size of the calibration run.
    pub nb: usize,
    /// Worker count of the calibration run.
    pub workers: usize,
    /// The calibration itself.
    pub calibration: Calibration,
}

impl CalibrationDb {
    /// Current schema version.
    pub const VERSION: u32 = 1;

    /// Wrap a calibration with provenance.
    pub fn new(
        description: impl Into<String>,
        n: usize,
        nb: usize,
        workers: usize,
        calibration: Calibration,
    ) -> Self {
        CalibrationDb {
            version: Self::VERSION,
            description: description.into(),
            n,
            nb,
            workers,
            calibration,
        }
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("calibration serialization cannot fail")
    }

    /// Parse from JSON, checking the schema version.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let db: CalibrationDb = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if db.version != Self::VERSION {
            return Err(format!(
                "calibration schema version {} (expected {})",
                db.version,
                Self::VERSION
            ));
        }
        Ok(db)
    }

    /// Write to a file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read from a file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Self::from_json(&text)
    }

    /// The fitted model registry as a shared read-only database, ready to
    /// back many concurrent sessions (`SimSession::with_shared`) or a
    /// whole sweep (`SweepModels::Shared`): load once, hand the `Arc` to
    /// every cell.
    pub fn shared_models(&self) -> Arc<ModelRegistry> {
        Arc::new(self.calibration.registry.clone())
    }

    /// A stable 64-bit identity for this database's contents: FNV-1a over
    /// the canonical JSON serialization (BTreeMap-backed, so key order is
    /// deterministic). Equal databases hash equal across processes; the
    /// serve layer keys its fitted-model cache on this, so a database
    /// edited on disk is re-fitted rather than served stale.
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("calibration serialization cannot fail");
        supersim_trace::fnv1a(supersim_trace::FNV1A_BASIS, json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitter::{calibrate, FitOptions};
    use supersim_trace::{Trace, TraceEvent};

    fn small_calibration() -> Calibration {
        let mut t = Trace::new(1);
        for i in 0..40u64 {
            let d = 0.01 + (i % 5) as f64 * 0.001;
            t.push(TraceEvent {
                worker: 0,
                kernel: "dgemm".into(),
                task_id: i,
                start: i as f64,
                end: i as f64 + d,
            });
        }
        calibrate(&t, FitOptions::default())
    }

    #[test]
    fn json_round_trip() {
        let db = CalibrationDb::new("test box", 100, 10, 2, small_calibration());
        let json = db.to_json();
        let back = CalibrationDb::from_json(&json).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut db = CalibrationDb::new("x", 0, 0, 0, small_calibration());
        db.version = 99;
        let err = CalibrationDb::from_json(&db.to_json()).unwrap_err();
        assert!(err.contains("version 99"));
    }

    #[test]
    fn file_round_trip() {
        let db = CalibrationDb::new("file test", 64, 8, 4, small_calibration());
        let dir = std::env::temp_dir().join("supersim-test-db");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cal.json");
        db.save(&path).unwrap();
        let back = CalibrationDb::load(&path).unwrap();
        assert_eq!(db, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_models_exposes_the_fitted_registry() {
        let db = CalibrationDb::new("share test", 100, 10, 2, small_calibration());
        let shared = db.shared_models();
        assert_eq!(*shared, db.calibration.registry);
        // Two handles to the same immutable database, not two copies.
        let other = Arc::clone(&shared);
        assert_eq!(Arc::strong_count(&shared), 2);
        drop(other);
    }

    /// `serve` keys its fitted-model cache on the fingerprint: its value
    /// must not move.
    #[test]
    fn fingerprint_value_is_pinned() {
        let db = CalibrationDb::new("fp test", 100, 10, 2, small_calibration());
        assert_eq!(db.fingerprint(), 0x9deb_2334_5336_1875);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let db = CalibrationDb::new("fp test", 100, 10, 2, small_calibration());
        assert_eq!(db.fingerprint(), db.fingerprint(), "must be stable");
        let mut other = db.clone();
        other.description = "edited".into();
        assert_ne!(db.fingerprint(), other.fingerprint());
    }

    /// A misspelt or unknown key is refused at every level of the file:
    /// the top level, a kernel model, and a distribution's parameters.
    #[test]
    fn misspelt_key_is_a_load_error_naming_it() {
        let db = CalibrationDb::new("typo", 0, 0, 0, small_calibration());
        let json = db.to_json();
        for (from, to, key) in [
            ("\"workers\"", "\"wrokers\"", "wrokers"),
            ("\"warmup_factor\"", "\"warmup_facter\"", "warmup_facter"),
            ("\"family\": ", "\"offset\": 1.0, \"family\": ", "offset"),
        ] {
            assert!(json.contains(from), "{from} not in {json}");
            let err = CalibrationDb::from_json(&json.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(&format!("unknown field `{key}`")), "{err}");
        }
    }

    #[test]
    fn garbage_json_rejected() {
        assert!(CalibrationDb::from_json("not json").is_err());
        assert!(CalibrationDb::load(Path::new("/nonexistent/x.json")).is_err());
    }
}
