//! Repeated random sub-sampling validation (paper §IV-B4).
//!
//! The paper evaluates each model by withholding a random 30% of the data,
//! training on the remaining 70%, measuring MPE/NRMSE on both sides, and
//! repeating with a fresh random partition one hundred times; the hundred
//! error values are averaged. [`validate`] reproduces that procedure
//! exactly, fanning the independent partitions out across a work-stealing
//! worker pool ([`crate::parallel::run_indexed`]); each partition is
//! embarrassingly parallel and results return in partition order.

use crate::metrics::{mpe, nrmse};
use crate::rng::derive_seed;
use crate::{Dataset, LinearRegression, Mlp, Result};

/// Anything that can predict a scalar target from a raw feature vector.
pub trait Regressor: Send + Sync {
    /// Predict the target for one raw feature vector.
    fn predict(&self, features: &[f64]) -> f64;

    /// Predict for every sample in a dataset.
    fn predict_dataset(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len())
            .map(|i| self.predict(data.sample(i).0))
            .collect()
    }
}

impl Regressor for LinearRegression {
    fn predict(&self, features: &[f64]) -> f64 {
        LinearRegression::predict(self, features)
    }
}

impl Regressor for Mlp {
    fn predict(&self, features: &[f64]) -> f64 {
        Mlp::predict(self, features)
    }
}

/// Errors measured on one train/test partition.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct PartitionResult {
    /// MPE on the 70% training split, percent.
    pub train_mpe: f64,
    /// MPE on the withheld 30%, percent.
    pub test_mpe: f64,
    /// NRMSE on the training split, percent of target range.
    pub train_nrmse: f64,
    /// NRMSE on the withheld split, percent of target range.
    pub test_nrmse: f64,
}

/// Aggregated validation outcome across all partitions.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ValidationReport {
    /// Mean training MPE across partitions, percent.
    pub train_mpe: f64,
    /// Mean testing MPE across partitions, percent.
    pub test_mpe: f64,
    /// Mean training NRMSE across partitions, percent.
    pub train_nrmse: f64,
    /// Mean testing NRMSE across partitions, percent.
    pub test_nrmse: f64,
    /// Per-partition detail (length = number of partitions).
    pub per_partition: Vec<PartitionResult>,
}

impl ValidationReport {
    /// Aggregate per-partition results into a report (means across
    /// partitions). Public so alternative protocols (e.g.
    /// [`crate::kfold::kfold`]) can produce the same report shape.
    pub fn from_partitions(per_partition: Vec<PartitionResult>) -> ValidationReport {
        let n = per_partition.len().max(1) as f64;
        let sum = |f: fn(&PartitionResult) -> f64| per_partition.iter().map(f).sum::<f64>() / n;
        ValidationReport {
            train_mpe: sum(|p| p.train_mpe),
            test_mpe: sum(|p| p.test_mpe),
            train_nrmse: sum(|p| p.train_nrmse),
            test_nrmse: sum(|p| p.test_nrmse),
            per_partition,
        }
    }

    /// Sample standard deviation of the per-partition test MPE — the paper
    /// observes this is at most a quarter of a percent ("tight confidence
    /// interval", §V-A).
    pub fn test_mpe_std(&self) -> f64 {
        let v: Vec<f64> = self.per_partition.iter().map(|p| p.test_mpe).collect();
        coloc_linalg::vecops::std_dev(&v)
    }
}

/// Validation hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct ValidationConfig {
    /// Number of random partitions (paper: 100).
    pub partitions: usize,
    /// Fraction withheld for testing (paper: 0.30).
    pub test_fraction: f64,
    /// Base seed; partition `i` uses a stream derived from `(seed, i)`.
    pub seed: u64,
    /// Worker threads; 0 = one per available CPU.
    pub threads: usize,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            partitions: 100,
            test_fraction: 0.30,
            seed: 0,
            threads: 0,
        }
    }
}

/// Run repeated random sub-sampling validation.
///
/// `train` receives the training split and a partition-specific seed and
/// returns a fitted regressor. Partitions run in parallel; results are
/// ordered by partition index, so the outcome is independent of thread
/// scheduling.
pub fn validate<R, F>(data: &Dataset, cfg: &ValidationConfig, train: F) -> Result<ValidationReport>
where
    R: Regressor,
    F: Fn(&Dataset, u64) -> Result<R> + Sync,
{
    // Work-stealing fan-out: partition cost varies with the split (and
    // with how fast each model converges), so workers pull the next index
    // from a shared cursor instead of owning a pre-cut chunk. Results come
    // back in partition order, so the report is independent of thread
    // count and scheduling.
    let per_partition = crate::parallel::run_indexed(cfg.partitions, cfg.threads, |i| {
        run_partition(data, cfg, i, &train)
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    Ok(ValidationReport::from_partitions(per_partition))
}

fn run_partition<R, F>(
    data: &Dataset,
    cfg: &ValidationConfig,
    partition: usize,
    train: &F,
) -> Result<PartitionResult>
where
    R: Regressor,
    F: Fn(&Dataset, u64) -> Result<R> + Sync,
{
    let (train_set, test_set) = data.split(cfg.test_fraction, cfg.seed, partition as u64);
    let model = train(
        &train_set,
        derive_seed(cfg.seed, 1_000_000 + partition as u64),
    )?;
    let train_pred = model.predict_dataset(&train_set);
    let test_pred = model.predict_dataset(&test_set);
    Ok(PartitionResult {
        train_mpe: mpe(&train_pred, train_set.y()),
        test_mpe: mpe(&test_pred, test_set.y()),
        train_nrmse: nrmse(&train_pred, train_set.y()),
        test_nrmse: nrmse(&test_pred, test_set.y()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coloc_linalg::Mat;

    fn linear_noisy_dataset(n: usize) -> Dataset {
        let x = Mat::from_fn(n, 2, |i, j| {
            ((i * (j + 2)) as f64 * 0.17).sin() * 5.0 + 10.0
        });
        let y = (0..n)
            .map(|i| {
                let noise = ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
                100.0 + 3.0 * x[(i, 0)] + 2.0 * x[(i, 1)] + noise
            })
            .collect();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn linear_validation_has_low_error_on_linear_data() {
        let ds = linear_noisy_dataset(200);
        let cfg = ValidationConfig {
            partitions: 20,
            ..Default::default()
        };
        let report = validate(&ds, &cfg, |train, _| LinearRegression::fit(train)).unwrap();
        assert!(report.test_mpe < 1.0, "test MPE {}", report.test_mpe);
        assert!(report.train_mpe < 1.0);
        assert_eq!(report.per_partition.len(), 20);
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let ds = linear_noisy_dataset(120);
        let base = ValidationConfig {
            partitions: 12,
            seed: 9,
            threads: 1,
            ..Default::default()
        };
        let r1 = validate(&ds, &base, |t, _| LinearRegression::fit(t)).unwrap();
        for threads in [2, 4, 8] {
            let r2 = validate(&ds, &ValidationConfig { threads, ..base }, |t, _| {
                LinearRegression::fit(t)
            })
            .unwrap();
            assert_eq!(r1.test_mpe, r2.test_mpe, "threads = {threads}");
            assert_eq!(r1.train_nrmse, r2.train_nrmse, "threads = {threads}");
            for (a, b) in r1.per_partition.iter().zip(&r2.per_partition) {
                assert_eq!(a.test_mpe, b.test_mpe);
                assert_eq!(a.train_mpe, b.train_mpe);
            }
        }
    }

    #[test]
    fn partition_seeds_differ() {
        let ds = linear_noisy_dataset(100);
        let seen = std::sync::Mutex::new(Vec::new());
        let cfg = ValidationConfig {
            partitions: 5,
            threads: 1,
            ..Default::default()
        };
        validate(&ds, &cfg, |t, seed| {
            seen.lock().unwrap().push(seed);
            LinearRegression::fit(t)
        })
        .unwrap();
        let v = seen.into_inner().unwrap();
        let mut uniq = v.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), v.len(), "duplicate training seeds: {v:?}");
    }

    #[test]
    fn training_error_propagates() {
        let ds = linear_noisy_dataset(50);
        let cfg = ValidationConfig {
            partitions: 3,
            ..Default::default()
        };
        let out = validate(&ds, &cfg, |_, _| -> Result<LinearRegression> {
            Err(crate::MlError::BadDataset("boom".into()))
        });
        assert!(out.is_err());
    }

    #[test]
    fn report_std_is_small_for_stable_model() {
        let ds = linear_noisy_dataset(300);
        let cfg = ValidationConfig {
            partitions: 30,
            ..Default::default()
        };
        let report = validate(&ds, &cfg, |t, _| LinearRegression::fit(t)).unwrap();
        // The paper reports at most a quarter-percent spread across
        // partitions for its models; a clean linear fit is far tighter.
        assert!(
            report.test_mpe_std() < 0.25,
            "std {}",
            report.test_mpe_std()
        );
    }
}
