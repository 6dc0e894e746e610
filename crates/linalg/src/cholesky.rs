//! Cholesky factorization for symmetric positive-definite systems.
//!
//! Used by the ML layer for ridge-regularized normal equations
//! `(AᵀA + λI) x = Aᵀb`, which are SPD by construction for λ > 0.

use crate::matrix::Mat;
use crate::{LinalgError, Result};

/// Lower-triangular Cholesky factor `L` with `L Lᵀ = A`.
pub struct Cholesky {
    l: Mat,
}

// Index-based loops mirror the textbook factorization.
#[allow(clippy::needless_range_loop)]
impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility. Returns
    /// [`LinalgError::NotPositiveDefinite`] when a non-positive pivot is
    /// encountered.
    pub fn new(a: &Mat) -> Result<Cholesky> {
        let (m, n) = a.shape();
        if m != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "Cholesky needs a square matrix, got {m}x{n}"
            )));
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Solve `A x = b` via forward/back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "rhs length {} != dim {}",
                b.len(),
                n
            )));
        }
        // L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// The lower-triangular factor.
    pub fn factor(&self) -> &Mat {
        &self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_known_spd() {
        // A = [[4,2],[2,3]] -> L = [[2,0],[1,sqrt(2)]]
        let a = Mat::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.factor();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn solve_roundtrip() {
        let a = Mat::from_vec(3, 3, vec![6.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 4.0]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert_eq!(
            Cholesky::new(&a).err(),
            Some(LinalgError::NotPositiveDefinite)
        );
    }

    #[test]
    fn rejects_non_square() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::ShapeMismatch(_))
        ));
    }
}
