//! Persistence: save trained models and baseline databases to JSON.
//!
//! The methodology's deployment story is train-once-predict-forever: a
//! resource manager trains on one sweep and then only ever featurizes and
//! predicts. This module serializes the artifacts that survive between
//! those stages — baseline databases, collected samples, and trained
//! predictors — so deployment needs neither the simulator nor retraining.

use crate::baseline::BaselineDb;
use crate::sample::Sample;
use crate::{ColocError, Result};
use std::path::Path;

fn io_err(path: &Path, e: impl std::fmt::Display) -> ColocError {
    ColocError::ArtifactIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn corrupt_err(path: &Path, e: impl std::fmt::Display) -> ColocError {
    ColocError::CorruptArtifact {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Serialize any supported artifact to pretty JSON at `path`, crash-safe:
/// writes to a sibling temp file and renames into place, so a process
/// dying mid-write can never leave a truncated artifact at `path`.
pub fn save_json<T: serde::Serialize>(value: &T, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let bytes = serde_json::to_vec_pretty(value).map_err(|e| io_err(path, e))?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Load an artifact previously written by [`save_json`].
///
/// I/O failures (missing file, permissions) come back as
/// [`ColocError::ArtifactIo`]; a file that reads fine but does not parse —
/// truncated, hand-edited, or written by a different type — comes back as
/// [`ColocError::CorruptArtifact`]. Both carry the path.
pub fn load_json<T: serde::de::DeserializeOwned>(path: impl AsRef<Path>) -> Result<T> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    serde_json::from_slice(&bytes).map_err(|e| corrupt_err(path, e))
}

impl BaselineDb {
    /// Save the baseline database to JSON.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        save_json(self, path)
    }

    /// Load a baseline database saved with [`BaselineDb::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<BaselineDb> {
        load_json(path)
    }
}

/// Save a collected sample set to JSON.
pub fn save_samples(samples: &[Sample], path: impl AsRef<Path>) -> Result<()> {
    save_json(&samples, path)
}

/// Load a sample set saved with [`save_samples`].
pub fn load_samples(path: impl AsRef<Path>) -> Result<Vec<Sample>> {
    load_json(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::AppBaseline;
    use crate::features::FeatureSet;
    use crate::predictor::{ModelKind, Predictor};
    use crate::scenario::Scenario;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("coloc-persist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                scenario: Scenario::homogeneous("t", "c", i % 5, 0),
                features: [
                    100.0 + i as f64,
                    (i % 5) as f64,
                    (i % 5) as f64 * 0.01,
                    1e-3,
                    (i % 5) as f64 * 0.3,
                    (i % 5) as f64 * 0.02,
                    0.1,
                    0.02,
                ],
                actual_time_s: (100.0 + i as f64) * (1.0 + (i % 5) as f64 * 0.05),
            })
            .collect()
    }

    #[test]
    fn predictor_roundtrip_preserves_predictions() {
        for kind in ModelKind::EXTENDED {
            let s = samples(80);
            let p = Predictor::train(kind, FeatureSet::D, &s, 3).unwrap();
            let path = tmp(&format!("pred_{}.json", kind.label()));
            save_json(&p, &path).unwrap();
            let q: Predictor = load_json(&path).unwrap();
            assert_eq!(q.kind(), kind);
            assert_eq!(q.feature_set(), FeatureSet::D);
            for sample in &s[..10] {
                assert_eq!(p.predict(&sample.features), q.predict(&sample.features));
            }
        }
    }

    #[test]
    fn baseline_db_roundtrip() {
        let mut db = BaselineDb::new();
        db.insert(AppBaseline {
            name: "cg".into(),
            exec_time_s: vec![100.0, 120.0, 140.0],
            memory_intensity: 1.8e-2,
            cm_ca: 0.5,
            ca_ins: 0.036,
        });
        let path = tmp("baselines.json");
        db.save(&path).unwrap();
        let loaded = BaselineDb::load(&path).unwrap();
        assert_eq!(db, loaded);
    }

    #[test]
    fn samples_roundtrip() {
        let s = samples(25);
        let path = tmp("samples.json");
        save_samples(&s, &path).unwrap();
        let loaded = load_samples(&path).unwrap();
        assert_eq!(loaded.len(), 25);
        assert_eq!(loaded[7].scenario, s[7].scenario);
        assert_eq!(loaded[7].features, s[7].features);
    }

    #[test]
    fn load_missing_file_is_io_error_with_path() {
        match load_json::<Predictor>(tmp("nope.json")) {
            Err(ColocError::ArtifactIo { path, .. }) => {
                assert!(path.ends_with("nope.json"), "{path}")
            }
            other => panic!("expected ArtifactIo, got {other:?}"),
        }
        assert!(BaselineDb::load(tmp("nope.json")).is_err());
    }

    #[test]
    fn load_wrong_shape_is_corrupt_artifact_with_path() {
        let path = tmp("garbage.json");
        std::fs::write(&path, b"{\"not\": \"a predictor\"}").unwrap();
        match load_json::<Predictor>(&path) {
            Err(ColocError::CorruptArtifact { path: p, .. }) => {
                assert!(p.ends_with("garbage.json"), "{p}")
            }
            other => panic!("expected CorruptArtifact, got {other:?}"),
        }
    }

    #[test]
    fn truncated_samples_file_is_corrupt_artifact() {
        // Write a valid sample set, then chop it mid-stream — the shape a
        // crash during a non-atomic write leaves behind.
        let s = samples(25);
        let path = tmp("truncated.json");
        save_samples(&s, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        match load_samples(&path) {
            Err(ColocError::CorruptArtifact { path: p, detail }) => {
                assert!(p.ends_with("truncated.json"), "{p}");
                assert!(!detail.is_empty());
            }
            other => panic!("expected CorruptArtifact, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_samples_roundtrip_after_rewrite() {
        // A corrupt file is not sticky: rewriting the artifact recovers.
        let path = tmp("rewrite.json");
        std::fs::write(&path, b"[{\"scenario\":").unwrap();
        assert!(load_samples(&path).is_err());
        let s = samples(10);
        save_samples(&s, &path).unwrap();
        let loaded = load_samples(&path).unwrap();
        assert_eq!(loaded.len(), 10);
        assert_eq!(loaded[3].scenario, s[3].scenario);
    }

    #[test]
    fn atomic_save_replaces_and_leaves_no_temp() {
        let path = tmp("atomic.json");
        let s = samples(5);
        save_json(&s, &path).unwrap();
        let first = load_samples(&path).unwrap();
        assert_eq!(first.len(), 5);
        let s2 = samples(9);
        save_json(&s2, &path).unwrap();
        assert_eq!(load_samples(&path).unwrap().len(), 9);
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        assert!(!std::path::Path::new(&tmp_name).exists());
    }
}
