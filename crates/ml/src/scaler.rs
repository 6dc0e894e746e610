//! Z-score standardization for features and targets.
//!
//! The paper's eight features span wildly different scales — baseline
//! execution times are hundreds of seconds while memory intensities are
//! 1e-6..1e-2 (Table III). Both the neural network (whose tanh units
//! saturate on large inputs) and the conditioning of the linear system
//! benefit from mapping every column to zero mean and unit variance.

use coloc_linalg::stats::{column_means, column_stds};
use coloc_linalg::Mat;

/// A fitted per-column affine transform `x' = (x − mean) / std`.
///
/// Columns with zero variance are passed through centered but unscaled
/// (std treated as 1) so constant features cannot produce NaNs.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fit to the columns of `x` (rows = samples).
    ///
    /// A column is treated as constant (std replaced by 1) when its
    /// standard deviation is zero *or* negligible relative to its mean —
    /// accumulation rounding gives repeated constants a std around 1e-19
    /// of their magnitude, and dividing by that would blow the column up
    /// to ±1e16.
    pub fn fit(x: &Mat) -> Standardizer {
        let means = column_means(x);
        let stds = column_stds(x)
            .into_iter()
            .zip(&means)
            .map(|(s, m)| {
                let threshold = m.abs() * 1e-12;
                if s > threshold && s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Standardizer { means, stds }
    }

    /// Fit to a single column of values (for targets).
    pub fn fit_vec(y: &[f64]) -> Standardizer {
        Standardizer::fit(&Mat::column(y))
    }

    /// Number of columns this scaler was fitted on.
    pub fn num_features(&self) -> usize {
        self.means.len()
    }

    /// [`Standardizer::num_features`], after checking that the means and
    /// standard deviations agree on it; `Err` describes the disagreement
    /// (a corrupt deserialized scaler).
    pub fn checked_width(&self) -> std::result::Result<usize, String> {
        if self.means.len() != self.stds.len() {
            return Err(format!(
                "scaler has {} means but {} standard deviations",
                self.means.len(),
                self.stds.len()
            ));
        }
        Ok(self.means.len())
    }

    /// Column means captured at fit time.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Column standard deviations captured at fit time (zeros replaced by 1).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Transform a matrix (must have the fitted number of columns).
    pub fn transform(&self, x: &Mat) -> Mat {
        assert_eq!(x.cols(), self.means.len(), "standardizer arity mismatch");
        Mat::from_fn(x.rows(), x.cols(), |i, j| {
            (x[(i, j)] - self.means[j]) / self.stds[j]
        })
    }

    /// Transform a single sample in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "standardizer arity mismatch");
        for ((v, m), s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }

    /// Transform a scalar using column 0 (for targets fitted with
    /// [`Standardizer::fit_vec`]).
    pub fn transform_scalar(&self, v: f64) -> f64 {
        (v - self.means[0]) / self.stds[0]
    }

    /// Invert the transform for a scalar from column 0.
    pub fn inverse_scalar(&self, v: f64) -> f64 {
        v * self.stds[0] + self.means[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardized_columns_have_zero_mean_unit_std() {
        let x = Mat::from_fn(50, 3, |i, j| {
            (i as f64) * (j as f64 + 1.0) + j as f64 * 100.0
        });
        let sc = Standardizer::fit(&x);
        let z = sc.transform(&x);
        let means = column_means(&z);
        let stds = column_stds(&z);
        for j in 0..3 {
            assert!(means[j].abs() < 1e-12, "mean {}", means[j]);
            assert!((stds[j] - 1.0).abs() < 1e-12, "std {}", stds[j]);
        }
    }

    #[test]
    fn constant_column_is_safe() {
        let x = Mat::from_fn(10, 2, |i, j| if j == 0 { 5.0 } else { i as f64 });
        let sc = Standardizer::fit(&x);
        let z = sc.transform(&x);
        assert!(z.is_finite());
        assert!(z.col(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn effectively_constant_column_is_safe() {
        // A constant 1e-3 column accumulates ~1e-19 of rounding "variance";
        // it must be treated as constant, not scaled by 1e-19.
        let x = Mat::from_fn(80, 2, |i, j| if j == 0 { 1e-3 } else { i as f64 });
        let sc = Standardizer::fit(&x);
        assert_eq!(sc.stds()[0], 1.0, "stds = {:?}", sc.stds());
        let z = sc.transform(&x);
        assert!(
            z.col(0).iter().all(|v| v.abs() < 1e-9),
            "{:?}",
            &z.col(0)[..3]
        );
    }

    #[test]
    fn genuinely_small_variance_is_preserved() {
        // Variance small in absolute terms but large relative to the mean
        // must still be scaled (memory intensities live at 1e-6).
        let x = Mat::from_fn(50, 1, |i, _| 1e-6 + 1e-7 * (i % 5) as f64);
        let sc = Standardizer::fit(&x);
        assert!(sc.stds()[0] < 1e-6 && sc.stds()[0] > 1e-8);
    }

    #[test]
    fn scalar_roundtrip() {
        let y = [10.0, 20.0, 30.0, 40.0];
        let sc = Standardizer::fit_vec(&y);
        for &v in &y {
            let z = sc.transform_scalar(v);
            assert!((sc.inverse_scalar(z) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let x = Mat::from_fn(20, 4, |i, j| (i * j) as f64 + 0.5);
        let sc = Standardizer::fit(&x);
        let z = sc.transform(&x);
        let mut row = x.row(7).to_vec();
        sc.transform_row(&mut row);
        assert_eq!(row, z.row(7));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let sc = Standardizer::fit(&Mat::zeros(3, 2));
        sc.transform(&Mat::zeros(3, 3));
    }
}
