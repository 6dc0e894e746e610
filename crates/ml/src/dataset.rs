//! Supervised regression datasets and seeded splitting.

use crate::rng::derive_seed;
use crate::{MlError, Result};
use coloc_linalg::Mat;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A supervised regression dataset: one row of `x` per sample, one target in
/// `y` per row.
#[derive(Clone, Debug)]
pub struct Dataset {
    x: Mat,
    y: Vec<f64>,
}

impl Dataset {
    /// Build a dataset; `x.rows()` must equal `y.len()` and both must be
    /// non-empty and finite.
    pub fn new(x: Mat, y: Vec<f64>) -> Result<Dataset> {
        if x.rows() != y.len() {
            return Err(MlError::BadDataset(format!(
                "{} feature rows but {} targets",
                x.rows(),
                y.len()
            )));
        }
        if x.rows() == 0 {
            return Err(MlError::BadDataset("empty dataset".into()));
        }
        if !x.is_finite() || y.iter().any(|v| !v.is_finite()) {
            return Err(MlError::BadDataset("non-finite values".into()));
        }
        Ok(Dataset { x, y })
    }

    /// Build from per-sample feature vectors.
    pub fn from_samples(samples: &[(Vec<f64>, f64)]) -> Result<Dataset> {
        let rows: Vec<Vec<f64>> = samples.iter().map(|(f, _)| f.clone()).collect();
        let y = samples.iter().map(|(_, t)| *t).collect();
        let x = Mat::from_rows(&rows).map_err(MlError::Linalg)?;
        Dataset::new(x, y)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when there are no samples (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features per sample.
    pub fn num_features(&self) -> usize {
        self.x.cols()
    }

    /// The feature matrix.
    pub fn x(&self) -> &Mat {
        &self.x
    }

    /// The target vector.
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// Feature row for sample `i`.
    pub fn sample(&self, i: usize) -> (&[f64], f64) {
        (self.x.row(i), self.y[i])
    }

    /// Restrict to a subset of samples by index (repeats allowed).
    pub fn select(&self, idx: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(idx),
            y: idx.iter().map(|&i| self.y[i]).collect(),
        }
    }

    /// Split into `(train, test)` with `test_fraction` of samples withheld,
    /// shuffled deterministically by `(seed, partition)`.
    ///
    /// This is the paper's repeated random sub-sampling scheme (§IV-B4):
    /// call with `partition = 0..100` to produce the hundred partitions.
    /// Guarantees at least one sample on each side.
    pub fn split(&self, test_fraction: f64, seed: u64, partition: u64) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&test_fraction),
            "test_fraction must be in [0, 1), got {test_fraction}"
        );
        let n = self.len();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, partition));
        idx.shuffle(&mut rng);
        let n_test = ((n as f64 * test_fraction).round() as usize)
            .clamp(usize::from(n > 1), n.saturating_sub(1));
        let (test_idx, train_idx) = idx.split_at(n_test);
        (self.select(train_idx), self.select(test_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, k: usize) -> Dataset {
        let x = Mat::from_fn(n, k, |i, j| (i * k + j) as f64);
        let y = (0..n).map(|i| i as f64).collect();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let x = Mat::zeros(3, 2);
        assert!(matches!(
            Dataset::new(x, vec![1.0; 4]),
            Err(MlError::BadDataset(_))
        ));
    }

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(Dataset::new(Mat::zeros(0, 2), vec![]).is_err());
        let x = Mat::zeros(1, 1);
        assert!(Dataset::new(x, vec![f64::NAN]).is_err());
    }

    #[test]
    fn from_samples_roundtrip() {
        let ds = Dataset::from_samples(&[(vec![1.0, 2.0], 3.0), (vec![4.0, 5.0], 6.0)]).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.num_features(), 2);
        assert_eq!(ds.sample(1), (&[4.0, 5.0][..], 6.0));
    }

    #[test]
    fn split_is_deterministic_and_disjoint() {
        let ds = toy(100, 3);
        let (tr1, te1) = ds.split(0.3, 7, 0);
        let (tr2, te2) = ds.split(0.3, 7, 0);
        assert_eq!(tr1.y(), tr2.y());
        assert_eq!(te1.y(), te2.y());
        assert_eq!(tr1.len(), 70);
        assert_eq!(te1.len(), 30);
        // Disjoint: targets are unique sample ids here.
        let mut all: Vec<f64> = tr1.y().iter().chain(te1.y()).copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, (0..100).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn different_partitions_differ() {
        let ds = toy(50, 2);
        let (_, te_a) = ds.split(0.3, 7, 0);
        let (_, te_b) = ds.split(0.3, 7, 1);
        assert_ne!(te_a.y(), te_b.y());
    }

    #[test]
    fn split_never_empties_either_side() {
        let ds = toy(2, 1);
        let (tr, te) = ds.split(0.9, 1, 0);
        assert!(!tr.is_empty());
        assert!(!te.is_empty());
        let (tr, te) = ds.split(0.01, 1, 0);
        assert!(!tr.is_empty());
        assert!(!te.is_empty());
    }
}
