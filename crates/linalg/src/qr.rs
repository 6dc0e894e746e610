//! Householder QR factorization and linear least squares.
//!
//! The paper (§III-C) fits its linear models with SciPy's linear
//! least-squares routine; [`lstsq`] is the equivalent here. QR is used
//! rather than the normal equations for numerical robustness on the
//! poorly-scaled feature columns (memory intensities differ by orders of
//! magnitude between application classes).

use crate::matrix::Mat;
use crate::{LinalgError, Result};

/// A compact Householder QR factorization of an `m × n` matrix, `m ≥ n`.
///
/// `R` is stored in the upper triangle of `qr`; the Householder vectors in
/// the lower triangle plus `betas`.
pub struct Qr {
    qr: Mat,
    betas: Vec<f64>,
}

// Index-based loops are the clearest form for factorization kernels
// (triangular bounds, in-place column updates).
#[allow(clippy::needless_range_loop)]
impl Qr {
    /// Factor `a` (consumed). Requires `rows ≥ cols`.
    pub fn new(a: Mat) -> Result<Qr> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::ShapeMismatch(format!(
                "QR requires rows >= cols, got {m}x{n}"
            )));
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        let mut qr = a;
        let mut betas = vec![0.0; n];
        for k in 0..n {
            // Build the Householder reflector for column k.
            let mut norm = 0.0f64;
            for i in k..m {
                norm = norm.hypot(qr[(i, k)]);
            }
            if norm == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] > 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // v = (v0, qr[k+1.., k]); beta = -1/(alpha*v0) normalizes H = I - beta v vᵀ
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            qr[(k, k)] = alpha;
            betas[k] = -v0 / alpha;
            // Apply reflector to trailing columns.
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= betas[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vk = qr[(i, k)];
                    qr[(i, j)] -= s * vk;
                }
            }
        }
        Ok(Qr { qr, betas })
    }

    /// Apply `Qᵀ` to a vector in place (length `m`).
    fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = self.qr.shape();
        debug_assert_eq!(b.len(), m);
        for k in 0..n {
            if self.betas[k] == 0.0 {
                continue;
            }
            let mut s = b[k];
            for i in (k + 1)..m {
                s += self.qr[(i, k)] * b[i];
            }
            s *= self.betas[k];
            b[k] -= s;
            for i in (k + 1)..m {
                b[i] -= s * self.qr[(i, k)];
            }
        }
    }

    /// Solve the least-squares problem `min ‖A x − b‖₂` for `x`.
    ///
    /// Returns [`LinalgError::Singular`] if `R` has a (numerically) zero
    /// diagonal entry, i.e. the columns of `A` are linearly dependent.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch(format!(
                "rhs length {} != rows {}",
                b.len(),
                m
            )));
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back-substitute R x = y[..n].
        let mut x = vec![0.0; n];
        let tol = 1e-12 * self.qr.max_abs().max(1.0);
        for k in (0..n).rev() {
            let mut s = y[k];
            for j in (k + 1)..n {
                s -= self.qr[(k, j)] * x[j];
            }
            let rkk = self.qr[(k, k)];
            if rkk.abs() <= tol {
                return Err(LinalgError::Singular);
            }
            x[k] = s / rkk;
        }
        Ok(x)
    }
}

/// One-shot least squares: returns `x` minimizing `‖A x − b‖₂`.
pub fn lstsq(a: &Mat, b: &[f64]) -> Result<Vec<f64>> {
    Qr::new(a.clone())?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn solves_square_system() {
        // A = [[2,1],[1,3]], b = [5, 10] -> x = [1, 3]
        let a = Mat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let x = lstsq(&a, &[5.0, 10.0]).unwrap();
        assert!(close(&x, &[1.0, 3.0], 1e-10));
    }

    #[test]
    fn overdetermined_recovers_exact_model() {
        // y = 3 + 2t sampled at t = 0..10, fit [1, t] -> coefficients [3, 2]
        let a = Mat::from_fn(10, 2, |i, j| if j == 0 { 1.0 } else { i as f64 });
        let b: Vec<f64> = (0..10).map(|i| 3.0 + 2.0 * i as f64).collect();
        let x = lstsq(&a, &b).unwrap();
        assert!(close(&x, &[3.0, 2.0], 1e-10));
    }

    #[test]
    fn residual_is_orthogonal_to_columns() {
        // Noisy overdetermined system: residual r = b - Ax must satisfy Aᵀr = 0.
        let a = Mat::from_fn(20, 3, |i, j| {
            ((i * 7 + j * 3) as f64).sin() + 0.1 * j as f64
        });
        let b: Vec<f64> = (0..20).map(|i| (i as f64).cos() * 2.0 + 1.0).collect();
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let r = vecops::sub(&b, &ax);
        let atr = a.tr_matvec(&r).unwrap();
        assert!(vecops::norm2(&atr) < 1e-9, "Aᵀr = {atr:?}");
    }

    #[test]
    fn detects_singularity() {
        // Two identical columns.
        let a = Mat::from_fn(5, 2, |i, _| i as f64 + 1.0);
        assert_eq!(lstsq(&a, &[1.0; 5]).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn rejects_wide_matrix() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(Qr::new(a), Err(LinalgError::ShapeMismatch(_))));
    }

    #[test]
    fn rejects_non_finite() {
        let mut a = Mat::zeros(3, 2);
        a[(1, 1)] = f64::INFINITY;
        assert_eq!(Qr::new(a).err(), Some(LinalgError::NonFinite));
    }

    #[test]
    fn rhs_length_checked() {
        let a = Mat::identity(3);
        let qr = Qr::new(a).unwrap();
        assert!(matches!(
            qr.solve(&[1.0, 2.0]),
            Err(LinalgError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn poorly_scaled_columns_still_solve() {
        // Columns spanning 6 orders of magnitude, like memory intensities.
        let a = Mat::from_fn(30, 3, |i, j| {
            let scale = [1.0, 1e-3, 1e-6][j];
            scale * ((i + j + 1) as f64).ln()
        });
        let truth = [2.0, 500.0, 1e6];
        let b = a.matvec(&truth).unwrap();
        let x = lstsq(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&truth) {
            assert!((xi - ti).abs() / ti.abs() < 1e-6, "{x:?}");
        }
    }
}
