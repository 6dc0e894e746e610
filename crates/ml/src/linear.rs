//! Linear least-squares regression (paper Eq. 1).
//!
//! The paper's linear models are `time = Σ coeffᵢ·featureᵢ + constant`,
//! fitted by linear least squares (SciPy's `lstsq` in the original). Here
//! the fit runs over standardized features through a Householder QR; a
//! small ridge fallback handles the rank-deficient corner (e.g. model B's
//! `numCoApp` column is constant if the training plan only ever used one
//! co-location count).

use crate::scaler::Standardizer;
use crate::{Dataset, MlError, Result};
use coloc_linalg::{lstsq, Cholesky, LinalgError, Mat};

/// A fitted linear regression model with intercept.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct LinearRegression {
    scaler: Standardizer,
    /// Coefficients in *standardized* feature space.
    coeffs: Vec<f64>,
    intercept: f64,
}

impl LinearRegression {
    /// Fit by ordinary least squares on standardized features.
    ///
    /// Falls back to a tiny ridge (λ = 1e-8) when the design matrix is
    /// rank-deficient, which keeps constant feature columns harmless.
    pub fn fit(data: &Dataset) -> Result<LinearRegression> {
        Self::fit_ridge(data, 0.0)
    }

    /// Fit with explicit ridge penalty `lambda ≥ 0` on the (standardized)
    /// coefficients; the intercept is never penalized.
    pub fn fit_ridge(data: &Dataset, lambda: f64) -> Result<LinearRegression> {
        if data.len() <= data.num_features() {
            return Err(MlError::BadDataset(format!(
                "{} samples for {} features",
                data.len(),
                data.num_features()
            )));
        }
        let scaler = Standardizer::fit(data.x());
        let z = scaler.transform(data.x());
        let design = Mat::from_fn(z.rows(), z.cols() + 1, |i, j| {
            if j == 0 {
                1.0
            } else {
                z[(i, j - 1)]
            }
        });

        let solution = if lambda == 0.0 {
            match lstsq(&design, data.y()) {
                Ok(s) => s,
                // Collinear columns: retry with a whisper of ridge.
                Err(LinalgError::Singular) => Self::ridge_solve(&design, data.y(), 1e-8)?,
                Err(e) => return Err(e.into()),
            }
        } else {
            Self::ridge_solve(&design, data.y(), lambda)?
        };

        Ok(LinearRegression {
            scaler,
            intercept: solution[0],
            coeffs: solution[1..].to_vec(),
        })
    }

    fn ridge_solve(design: &Mat, y: &[f64], lambda: f64) -> Result<Vec<f64>> {
        let mut gram = design.gram();
        // Skip index 0: the intercept column is not penalized.
        for i in 1..gram.rows() {
            gram[(i, i)] += lambda;
        }
        // Guard the intercept against exact singularity too.
        gram[(0, 0)] += lambda * 1e-3;
        let rhs = design.tr_matvec(y)?;
        Ok(Cholesky::new(&gram)?.solve(&rhs)?)
    }

    /// The number of features [`LinearRegression::predict`] takes, after
    /// checking that the scaler and coefficients agree on it; `Err`
    /// describes the disagreement (a corrupt deserialized model).
    pub fn checked_arity(&self) -> std::result::Result<usize, String> {
        let width = self.scaler.checked_width()?;
        if self.coeffs.len() != width {
            return Err(format!(
                "{} coefficients for {width} scaled features",
                self.coeffs.len()
            ));
        }
        Ok(width)
    }

    /// Predict the target for one raw (unstandardized) feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.coeffs.len(),
            "feature arity mismatch: model has {}, got {}",
            self.coeffs.len(),
            features.len()
        );
        let mut z = features.to_vec();
        self.scaler.transform_row(&mut z);
        self.intercept + coloc_linalg::vecops::dot(&self.coeffs, &z)
    }

    /// Predict for every row of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len())
            .map(|i| self.predict(data.sample(i).0))
            .collect()
    }

    /// Coefficients in standardized feature space (useful for inspecting
    /// relative feature importance).
    pub fn standardized_coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// The fitted intercept (equals the training-target mean for OLS on
    /// standardized features).
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Coefficients mapped back to raw feature space, returned as
    /// `(raw_coeffs, raw_intercept)` so that
    /// `y = raw_intercept + Σ raw_coeffsᵢ·xᵢ` — the exact form of paper Eq. 1.
    pub fn raw_coefficients(&self) -> (Vec<f64>, f64) {
        let stds = self.scaler.stds();
        let means = self.scaler.means();
        let raw: Vec<f64> = self.coeffs.iter().zip(stds).map(|(c, s)| c / s).collect();
        let shift: f64 = raw.iter().zip(means).map(|(c, m)| c * m).sum();
        (raw, self.intercept - shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coloc_linalg::Mat;

    fn linear_dataset(n: usize) -> Dataset {
        // y = 5 + 2 x0 - 3 x1
        let x = Mat::from_fn(n, 2, |i, j| {
            let t = i as f64;
            if j == 0 {
                (t * 0.37).sin() * 10.0
            } else {
                (t * 0.11).cos() * 4.0 + t * 0.01
            }
        });
        let y = (0..n)
            .map(|i| 5.0 + 2.0 * x[(i, 0)] - 3.0 * x[(i, 1)])
            .collect();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn recovers_exact_linear_relationship() {
        let ds = linear_dataset(40);
        let model = LinearRegression::fit(&ds).unwrap();
        let preds = model.predict_all(&ds);
        for (p, a) in preds.iter().zip(ds.y()) {
            assert!((p - a).abs() < 1e-8, "{p} vs {a}");
        }
        let (raw, b0) = model.raw_coefficients();
        assert!((raw[0] - 2.0).abs() < 1e-8);
        assert!((raw[1] + 3.0).abs() < 1e-8);
        assert!((b0 - 5.0).abs() < 1e-7);
    }

    #[test]
    fn raw_coefficients_reproduce_predictions() {
        let ds = linear_dataset(25);
        let model = LinearRegression::fit(&ds).unwrap();
        let (raw, b0) = model.raw_coefficients();
        let x = ds.x();
        for i in 0..ds.len() {
            let manual = b0 + raw[0] * x[(i, 0)] + raw[1] * x[(i, 1)];
            assert!((manual - model.predict(x.row(i))).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_column_does_not_break_fit() {
        let x = Mat::from_fn(20, 2, |i, j| if j == 0 { 7.0 } else { i as f64 });
        let y = (0..20).map(|i| 1.0 + 2.0 * i as f64).collect();
        let ds = Dataset::new(x, y).unwrap();
        let model = LinearRegression::fit(&ds).unwrap();
        let preds = model.predict_all(&ds);
        for (p, a) in preds.iter().zip(ds.y()) {
            assert!((p - a).abs() < 1e-5, "{p} vs {a}");
        }
    }

    #[test]
    fn duplicate_columns_fall_back_to_ridge() {
        let x = Mat::from_fn(20, 2, |i, _| i as f64);
        let y = (0..20).map(|i| 3.0 * i as f64).collect();
        let ds = Dataset::new(x, y).unwrap();
        let model = LinearRegression::fit(&ds).unwrap();
        // Prediction still works even though coefficients are not unique.
        let preds = model.predict_all(&ds);
        for (p, a) in preds.iter().zip(ds.y()) {
            assert!((p - a).abs() < 1e-4, "{p} vs {a}");
        }
    }

    #[test]
    fn underdetermined_is_error() {
        let x = Mat::zeros(2, 3);
        let ds = Dataset::new(x, vec![1.0, 2.0]).unwrap();
        assert!(matches!(
            LinearRegression::fit(&ds),
            Err(MlError::BadDataset(_))
        ));
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let ds = linear_dataset(40);
        let ols = LinearRegression::fit(&ds).unwrap();
        let ridge = LinearRegression::fit_ridge(&ds, 100.0).unwrap();
        let n_ols: f64 = ols.standardized_coeffs().iter().map(|c| c * c).sum();
        let n_ridge: f64 = ridge.standardized_coeffs().iter().map(|c| c * c).sum();
        assert!(n_ridge < n_ols);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn predict_checks_arity() {
        let ds = linear_dataset(10);
        let model = LinearRegression::fit(&ds).unwrap();
        model.predict(&[1.0]);
    }
}
