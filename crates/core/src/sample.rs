//! Training samples: featurized co-location runs.

use crate::features::FeatureSet;
use crate::scenario::Scenario;
use crate::{ColocError, Result};
use coloc_ml::Dataset;

/// One measured co-location run, featurized.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Sample {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// All eight features in canonical [`crate::Feature::ALL`] order —
    /// individual models project the subset they use.
    pub features: [f64; 8],
    /// Measured co-located execution time of the target, seconds.
    pub actual_time_s: f64,
}

/// Assemble an [`coloc_ml::Dataset`] from samples for one feature set.
pub fn samples_to_dataset(samples: &[Sample], set: FeatureSet) -> Result<Dataset> {
    if samples.is_empty() {
        return Err(ColocError::InsufficientData("no samples".into()));
    }
    let rows: Vec<(Vec<f64>, f64)> = samples
        .iter()
        .map(|s| (set.project(&s.features), s.actual_time_s))
        .collect();
    Dataset::from_samples(&rows).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64) -> Sample {
        Sample {
            scenario: Scenario::homogeneous("canneal", "cg", 2, 0),
            features: [t, 2.0, 0.03, 0.001, 0.8, 0.04, 0.1, 0.01],
            actual_time_s: t * 1.2,
        }
    }

    #[test]
    fn dataset_assembly_projects_columns() {
        let samples = vec![sample(100.0), sample(200.0), sample(300.0)];
        let ds = samples_to_dataset(&samples, FeatureSet::C).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.num_features(), 3);
        assert_eq!(ds.sample(1).0, &[200.0, 2.0, 0.03]);
        assert!((ds.sample(1).1 - 240.0).abs() < 1e-9);
    }

    #[test]
    fn full_set_keeps_all_eight() {
        let ds = samples_to_dataset(&[sample(1.0), sample(2.0)], FeatureSet::F).unwrap();
        assert_eq!(ds.num_features(), 8);
    }

    #[test]
    fn empty_samples_is_error() {
        assert!(matches!(
            samples_to_dataset(&[], FeatureSet::A),
            Err(ColocError::InsufficientData(_))
        ));
    }
}
