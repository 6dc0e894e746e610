//! Permutation feature importance.
//!
//! Complements the PCA ranking of paper §III-B with a *model-specific*
//! view: shuffle one feature column at a time and measure how much the
//! trained model's error grows. Unlike PCA (which ranks by variance before
//! any model exists), permutation importance reveals which features a
//! particular fitted model actually leans on — e.g. the paper's
//! observation that "the most important features are the features
//! measuring the cache use information of the applications that are
//! co-located with the target" becomes directly checkable.

use crate::metrics::mpe;
use crate::rng::derive_seed;
use crate::validate::Regressor;
use crate::Dataset;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Importance of one feature: the increase in MPE when it is destroyed.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct FeatureImportance {
    /// Column index in the dataset.
    pub feature: usize,
    /// Model MPE with the column shuffled, percent (averaged over rounds).
    pub permuted_mpe: f64,
    /// Increase over the intact-data MPE, percent (≥ 0 up to noise).
    pub mpe_increase: f64,
}

/// Compute permutation importance of every feature on `data` for a fitted
/// model. `rounds` independent shuffles are averaged per feature.
///
/// Returns importances sorted descending by `mpe_increase`, plus the
/// intact-data baseline MPE.
pub fn permutation_importance<R: Regressor>(
    model: &R,
    data: &Dataset,
    rounds: usize,
    seed: u64,
) -> (f64, Vec<FeatureImportance>) {
    let baseline_preds = model.predict_dataset(data);
    let baseline = mpe(&baseline_preds, data.y());
    let n = data.len();
    let k = data.num_features();

    let mut out = Vec::with_capacity(k);
    for feature in 0..k {
        let mut acc = 0.0;
        for round in 0..rounds.max(1) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(
                seed,
                (feature * 1009 + round) as u64,
            ));
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let preds: Vec<f64> = (0..n)
                .map(|i| {
                    let mut row = data.sample(i).0.to_vec();
                    row[feature] = data.sample(perm[i]).0[feature];
                    model.predict(&row)
                })
                .collect();
            acc += mpe(&preds, data.y());
        }
        let permuted = acc / rounds.max(1) as f64;
        out.push(FeatureImportance {
            feature,
            permuted_mpe: permuted,
            mpe_increase: permuted - baseline,
        });
    }
    out.sort_by(|a, b| b.mpe_increase.partial_cmp(&a.mpe_increase).expect("finite"));
    (baseline, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearRegression;
    use coloc_linalg::Mat;

    /// y depends strongly on column 0, weakly on column 1, not at all on 2.
    fn dataset(n: usize) -> Dataset {
        let x = Mat::from_fn(n, 3, |i, j| ((i * (j + 2) * 7919) % 1000) as f64 / 100.0);
        let y = (0..n)
            .map(|i| 100.0 + 10.0 * x[(i, 0)] + 0.5 * x[(i, 1)])
            .collect();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn ranks_features_by_true_influence() {
        let ds = dataset(300);
        let model = LinearRegression::fit(&ds).unwrap();
        let (baseline, imps) = permutation_importance(&model, &ds, 3, 42);
        assert!(baseline < 1e-6, "exact fit expected, got {baseline}");
        assert_eq!(imps.len(), 3);
        assert_eq!(imps[0].feature, 0, "{imps:?}");
        assert_eq!(imps[1].feature, 1, "{imps:?}");
        assert_eq!(imps[2].feature, 2, "{imps:?}");
        assert!(imps[0].mpe_increase > imps[1].mpe_increase * 2.0);
        assert!(imps[2].mpe_increase.abs() < 1e-6);
    }

    #[test]
    fn deterministic() {
        let ds = dataset(100);
        let model = LinearRegression::fit(&ds).unwrap();
        let (_, a) = permutation_importance(&model, &ds, 2, 7);
        let (_, b) = permutation_importance(&model, &ds, 2, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.permuted_mpe, y.permuted_mpe);
        }
    }

    #[test]
    fn single_round_works() {
        let ds = dataset(50);
        let model = LinearRegression::fit(&ds).unwrap();
        let (_, imps) = permutation_importance(&model, &ds, 1, 0);
        assert_eq!(imps.len(), 3);
    }
}
