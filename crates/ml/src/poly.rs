//! Degree-2 polynomial feature expansion.
//!
//! An ablation the paper invites but does not run: the gap between its
//! linear models and its neural networks could stem from *interactions*
//! (e.g. `baseExTime × coAppMem` — a memory-hungry neighbour hurts long
//! memory-bound runs superlinearly) rather than deep nonlinearity. A
//! quadratic expansion feeds those interactions to the same least-squares
//! machinery, quantifying how much of the NN's advantage cheap feature
//! engineering recovers (see `repro ablation-quad`).

use crate::linear::LinearRegression;
use crate::{Dataset, Result};
use coloc_linalg::Mat;

/// Expand `x` with all squares and pairwise products of its columns:
/// `[x₁..xₙ, x₁², x₁x₂, …, xₙ²]` (original features first).
pub fn expand_quadratic(x: &Mat) -> Mat {
    let (m, n) = x.shape();
    let extra = n * (n + 1) / 2;
    let mut out = Mat::zeros(m, n + extra);
    for i in 0..m {
        let row = x.row(i);
        let orow = out.row_mut(i);
        orow[..n].copy_from_slice(row);
        let mut k = n;
        for a in 0..n {
            for b in a..n {
                orow[k] = row[a] * row[b];
                k += 1;
            }
        }
    }
    out
}

/// Number of columns [`expand_quadratic`] produces for `n` input features.
pub fn quadratic_arity(n: usize) -> usize {
    n + n * (n + 1) / 2
}

/// A linear model over quadratically-expanded features.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct QuadraticRegression {
    inner: LinearRegression,
    inputs: usize,
}

impl QuadraticRegression {
    /// Fit with a small ridge penalty (the expanded columns are highly
    /// collinear by construction).
    pub fn fit(data: &Dataset) -> Result<QuadraticRegression> {
        let inputs = data.num_features();
        let expanded = expand_quadratic(data.x());
        let ds = Dataset::new(expanded, data.y().to_vec())?;
        let inner = LinearRegression::fit_ridge(&ds, 1e-6)?;
        Ok(QuadraticRegression { inner, inputs })
    }

    /// The number of raw features [`QuadraticRegression::predict`] takes,
    /// after checking that the inner model expects their expansion; `Err`
    /// describes the disagreement (a corrupt deserialized model).
    pub fn checked_arity(&self) -> std::result::Result<usize, String> {
        let expanded = self.inner.checked_arity()?;
        // `quadratic_arity`, checked: `inputs` comes from the file.
        let n = self.inputs;
        let want = (n.checked_add(1))
            .and_then(|m| m.checked_mul(n))
            .and_then(|m| (m / 2).checked_add(n));
        if want != Some(expanded) {
            return Err(format!(
                "{n} inputs, but the inner model takes {expanded} expanded features"
            ));
        }
        Ok(n)
    }

    /// Predict from a raw (unexpanded) feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.inputs, "feature arity mismatch");
        let x = Mat::from_rows(&[features.to_vec()]).expect("row");
        let expanded = expand_quadratic(&x);
        self.inner.predict(expanded.row(0))
    }

    /// Predict for every sample of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len())
            .map(|i| self.predict(data.sample(i).0))
            .collect()
    }
}

impl crate::validate::Regressor for QuadraticRegression {
    fn predict(&self, features: &[f64]) -> f64 {
        QuadraticRegression::predict(self, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    #[test]
    fn expansion_shape_and_content() {
        let x = Mat::from_rows(&[vec![2.0, 3.0]]).unwrap();
        let e = expand_quadratic(&x);
        assert_eq!(e.cols(), quadratic_arity(2));
        // [x1, x2, x1², x1x2, x2²]
        assert_eq!(e.row(0), &[2.0, 3.0, 4.0, 6.0, 9.0]);
    }

    #[test]
    fn fits_exact_quadratic_relationship() {
        // y = 1 + 2a + 3b + 0.5a² − ab
        let x = Mat::from_fn(60, 2, |i, j| ((i * (j + 3)) as f64 * 0.21).sin() * 3.0);
        let y: Vec<f64> = (0..60)
            .map(|i| {
                let (a, b) = (x[(i, 0)], x[(i, 1)]);
                1.0 + 2.0 * a + 3.0 * b + 0.5 * a * a - a * b
            })
            .collect();
        let ds = Dataset::new(x, y).unwrap();
        let q = QuadraticRegression::fit(&ds).unwrap();
        let preds = q.predict_all(&ds);
        assert!(rmse(&preds, ds.y()) < 1e-4, "rmse {}", rmse(&preds, ds.y()));
        // A plain linear model cannot fit this.
        let lin = LinearRegression::fit(&ds).unwrap();
        assert!(rmse(&lin.predict_all(&ds), ds.y()) > 0.1);
    }

    #[test]
    fn single_feature_expansion() {
        let x = Mat::column(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let y: Vec<f64> = (1..=5).map(|v| (v * v) as f64).collect();
        let ds = Dataset::new(x, y).unwrap();
        let q = QuadraticRegression::fit(&ds).unwrap();
        assert!((q.predict(&[6.0]) - 36.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn predict_checks_arity() {
        let ds =
            Dataset::from_samples(&[(vec![1.0], 1.0), (vec![2.0], 4.0), (vec![3.0], 9.0)]).unwrap();
        let q = QuadraticRegression::fit(&ds).unwrap();
        q.predict(&[1.0, 2.0]);
    }
}
