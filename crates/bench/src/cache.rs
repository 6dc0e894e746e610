//! JSON disk cache for expensive experiment artifacts.
//!
//! Each file is bound to what it caches. A samples file is a
//! [`Lab::collect_resumable`] checkpoint, bound to [`Lab::plan_digest`]
//! (the lab's seed, noise and faults, and every scenario's run key): a
//! file written for another lab or plan is recollected over, never
//! returned. A grid file's name carries [`samples_digest`] of the samples
//! it was evaluated on. Neither binding covers the engine's own code: after
//! a change to the engine's arithmetic alone, delete the cache directory.

use coloc_ml::validate::ValidationConfig;
use coloc_model::lab::CheckpointConfig;
use coloc_model::registry::samples_digest;
use coloc_model::{ColocError, Lab, ModelEvaluation, Sample, Scenario};
use std::path::{Path, PathBuf};

/// Resolve the cache directory (`COLOC_REPRO_DIR` or `repro-out/`).
pub fn cache_dir() -> PathBuf {
    std::env::var_os("COLOC_REPRO_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("repro-out"))
}

fn path_for(key: &str) -> PathBuf {
    cache_dir().join(format!("{key}.json"))
}

/// Load a cached artifact if present and parseable.
pub fn load<T: serde::de::DeserializeOwned>(key: &str) -> Option<T> {
    let bytes = std::fs::read(path_for(key)).ok()?;
    serde_json::from_slice(&bytes).ok()
}

/// Store an artifact (best effort; cache failures are non-fatal).
pub fn store<T: serde::Serialize>(key: &str, value: &T) {
    let dir = cache_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let _ = coloc_model::persist::save_json(value, path_for(key));
}

/// Collect `scenarios` through a checkpoint at `path`. A checkpoint of
/// another lab or plan, or a file that is no checkpoint, is collected
/// over; a cache that cannot be written only costs the caching.
fn collect_bound(path: &Path, lab: &Lab, scenarios: &[Scenario]) -> Vec<Sample> {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let cfg = CheckpointConfig::new(path, scenarios.len());
    let mut collected = lab.collect_resumable(scenarios, &cfg);
    if let Err(ColocError::CheckpointMismatch { .. } | ColocError::CorruptArtifact { .. }) =
        collected
    {
        let _ = std::fs::remove_file(path);
        collected = lab.collect_resumable(scenarios, &cfg);
    }
    collected
        .or_else(|e| {
            eprintln!("cache {}: {e}; collecting uncached", path.display());
            lab.collect_scenarios(scenarios)
        })
        .expect("sweep collects")
}

/// The paper's full training sweep for a lab, cached.
pub fn training_samples(lab_key: &str, lab: &Lab) -> Vec<Sample> {
    let path = path_for(&format!("samples_{lab_key}_seed{}", lab.seed()));
    let samples = collect_bound(&path, lab, &lab.paper_plan().scenarios());
    if lab.sweep_stats().scenarios_run > 0 {
        eprintln!("[{lab_key}] sweep: {}", lab.sweep_stats());
    }
    samples
}

/// The paper's validation protocol: 100 partitions, 70/30.
pub fn paper_validation() -> ValidationConfig {
    ValidationConfig {
        partitions: 100,
        test_fraction: 0.30,
        seed: crate::SEED,
        threads: 0,
    }
}

/// Full 2×6 model-grid evaluation for a lab, cached. This is the data for
/// Figures 1–4 (MPE and NRMSE come from the same validation runs).
pub fn grid_evaluation(lab_key: &str, lab: &Lab) -> Vec<ModelEvaluation> {
    let samples = training_samples(lab_key, lab);
    let key = format!(
        "grid_{lab_key}_seed{}_{:016x}",
        lab.seed(),
        samples_digest(&samples)
    );
    if let Some(g) = load::<Vec<ModelEvaluation>>(&key) {
        if g.len() == 12 {
            return g;
        }
    }
    let grid = coloc_model::experiment::evaluate_grid(&samples, &paper_validation())
        .expect("grid evaluation");
    store(&key, &grid);
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_samples_file_of_the_right_length_but_other_contents_is_recollected() {
        let dir = std::env::temp_dir().join(format!("coloc-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("samples.json");
        let scenarios = [
            Scenario::homogeneous("canneal", "cg", 2, 0),
            Scenario::solo("ep", 3),
        ];
        let lab = |seed| {
            Lab::new(
                coloc_machine::presets::xeon_e5649(),
                coloc_workloads::standard(),
                seed,
            )
            .unwrap()
        };
        let fresh = |seed| samples_digest(&lab(seed).collect_scenarios(&scenarios).unwrap());

        // Another lab's checkpoint of the same length.
        let first = collect_bound(&path, &lab(1), &scenarios);
        assert_eq!(samples_digest(&first), fresh(1));
        let other = collect_bound(&path, &lab(2), &scenarios);
        assert_eq!(samples_digest(&other), fresh(2));
        assert_ne!(fresh(1), fresh(2), "the two labs' samples differ");

        // A bare sample list of the right length, as the cache used to
        // write it, is no checkpoint.
        coloc_model::persist::save_samples(&first, &path).unwrap();
        assert_eq!(
            samples_digest(&collect_bound(&path, &lab(2), &scenarios)),
            fresh(2)
        );

        // A matching checkpoint is returned as it is.
        let reused = lab(2);
        assert_eq!(
            samples_digest(&collect_bound(&path, &reused, &scenarios)),
            fresh(2)
        );
        assert_eq!(reused.sweep_stats().scenarios_run, 0, "nothing recollected");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
