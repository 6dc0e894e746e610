//! Model evaluation: the repeated random sub-sampling protocol behind the
//! paper's Figures 1–4, plus the PCA feature ranking of §III-B.

use crate::features::{Feature, FeatureSet};
use crate::predictor::ModelKind;
use crate::sample::{samples_to_dataset, Sample};
use crate::Result;
use coloc_linalg::Mat;
use coloc_ml::validate::ValidationConfig;
use coloc_ml::{LinearRegression, Mlp, MlpConfig, Pca};

/// Evaluation outcome for one `(kind, set)` model on one machine's data.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ModelEvaluation {
    /// The learning technique.
    pub kind: ModelKind,
    /// The feature set.
    pub set: FeatureSet,
    /// Mean MPE on training splits, percent (the "training error" series of
    /// Figs. 1–2).
    pub train_mpe: f64,
    /// Mean MPE on withheld splits, percent (the "testing error" series).
    pub test_mpe: f64,
    /// Mean NRMSE on training splits, percent (Figs. 3–4).
    pub train_nrmse: f64,
    /// Mean NRMSE on withheld splits, percent.
    pub test_nrmse: f64,
    /// Std-dev of the per-partition test MPE (the paper reports ≤ 0.25%).
    pub test_mpe_std: f64,
}

/// Evaluate one model with repeated random sub-sampling (paper §IV-B4:
/// 70/30 splits, 100 partitions, averaged).
pub fn evaluate_model(
    samples: &[Sample],
    kind: ModelKind,
    set: FeatureSet,
    cfg: &ValidationConfig,
) -> Result<ModelEvaluation> {
    let data = samples_to_dataset(samples, set)?;
    let report = match kind {
        ModelKind::Linear => {
            coloc_ml::validate(&data, cfg, |train, _seed| LinearRegression::fit(train))?
        }
        ModelKind::NeuralNet => coloc_ml::validate(&data, cfg, |train, seed| {
            Mlp::fit(train, &MlpConfig::for_features(set.arity(), seed))
        })?,
        ModelKind::QuadraticLinear => coloc_ml::validate(&data, cfg, |train, _seed| {
            coloc_ml::QuadraticRegression::fit(train)
        })?,
    };
    Ok(ModelEvaluation {
        kind,
        set,
        train_mpe: report.train_mpe,
        test_mpe: report.test_mpe,
        train_nrmse: report.train_nrmse,
        test_nrmse: report.test_nrmse,
        test_mpe_std: report.test_mpe_std(),
    })
}

/// Evaluate the full 2×6 grid — the complete data series for one machine's
/// Figures 1/3 (6-core) or 2/4 (12-core).
pub fn evaluate_grid(samples: &[Sample], cfg: &ValidationConfig) -> Result<Vec<ModelEvaluation>> {
    let mut out = Vec::with_capacity(12);
    for kind in ModelKind::ALL {
        for set in FeatureSet::ALL {
            out.push(evaluate_model(samples, kind, set, cfg)?);
        }
    }
    Ok(out)
}

/// Rank the eight features by PCA importance over a sample set — the
/// paper's §III-B feature-selection analysis. Returns `(feature, score)`
/// descending.
pub fn rank_features(samples: &[Sample]) -> Result<Vec<(Feature, f64)>> {
    if samples.len() < 2 {
        return Err(crate::ColocError::InsufficientData(
            "PCA ranking needs >= 2 samples".into(),
        ));
    }
    let x = Mat::from_fn(samples.len(), 8, |i, j| samples[i].features[j]);
    let pca = Pca::fit(&x)?;
    Ok(pca
        .feature_ranking()
        .into_iter()
        .map(|(idx, score)| (Feature::ALL[idx], score))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn synthetic_samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let base = 200.0 + (i % 9) as f64 * 40.0;
                let ncoapp = (i % 6) as f64;
                let co_mem = ncoapp * 0.008 * (1.0 + (i % 2) as f64);
                let slowdown = 1.0 + 3.0 * co_mem + 20.0 * co_mem.powi(2);
                Sample {
                    scenario: Scenario::homogeneous("t", "c", ncoapp as usize, 0),
                    features: [
                        base,
                        ncoapp,
                        co_mem,
                        2e-3,
                        ncoapp * 0.3,
                        ncoapp * 0.02,
                        0.1,
                        0.02,
                    ],
                    actual_time_s: base * slowdown * (1.0 + 0.002 * ((i * 37 % 11) as f64 - 5.0)),
                }
            })
            .collect()
    }

    fn quick_cfg() -> ValidationConfig {
        ValidationConfig {
            partitions: 8,
            ..Default::default()
        }
    }

    #[test]
    fn evaluation_produces_finite_errors() {
        let samples = synthetic_samples(150);
        let ev = evaluate_model(&samples, ModelKind::Linear, FeatureSet::C, &quick_cfg()).unwrap();
        assert!(ev.test_mpe.is_finite() && ev.test_mpe > 0.0);
        assert!(ev.train_nrmse.is_finite());
        assert!(ev.test_mpe_std >= 0.0);
    }

    #[test]
    fn richer_feature_sets_help_on_informative_data() {
        let samples = synthetic_samples(200);
        let a = evaluate_model(&samples, ModelKind::Linear, FeatureSet::A, &quick_cfg()).unwrap();
        let c = evaluate_model(&samples, ModelKind::Linear, FeatureSet::C, &quick_cfg()).unwrap();
        assert!(
            c.test_mpe < a.test_mpe,
            "set C ({}) should beat set A ({})",
            c.test_mpe,
            a.test_mpe
        );
    }

    #[test]
    fn grid_covers_all_twelve_models() {
        let samples = synthetic_samples(120);
        let grid = evaluate_grid(&samples, &quick_cfg()).unwrap();
        assert_eq!(grid.len(), 12);
        let kinds: Vec<_> = grid.iter().map(|e| e.kind).collect();
        assert_eq!(kinds.iter().filter(|k| **k == ModelKind::Linear).count(), 6);
    }

    #[test]
    fn feature_ranking_demotes_constant_features() {
        let samples = synthetic_samples(200);
        let ranking = rank_features(&samples).unwrap();
        assert_eq!(ranking.len(), 8);
        // targetMem / targetCmCa / targetCaIns are constant in this data;
        // they must occupy the bottom ranks.
        let bottom: Vec<Feature> = ranking[5..].iter().map(|(f, _)| *f).collect();
        assert!(bottom.contains(&Feature::TargetMem), "{ranking:?}");
        // Scores descend.
        for w in ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn ranking_needs_data() {
        assert!(rank_features(&synthetic_samples(1)).is_err());
    }
}
