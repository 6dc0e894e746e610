//! Row-major dense `f64` matrix.

use crate::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense row-major matrix of `f64`.
///
/// Indexing is `(row, col)`; storage is contiguous with stride = `cols`.
/// The type is cheap to clone for the small systems this workspace solves
/// (feature matrices of a few thousand rows by ≤ 9 columns).
#[derive(Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// An `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major `Vec`. Returns an error if the length is not
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "{}x{} matrix needs {} elements, got {}",
                rows,
                cols,
                rows * cols,
                data.len()
            )));
        }
        Ok(Mat { rows, cols, data })
    }

    /// Build from a slice of rows; all rows must have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(LinalgError::ShapeMismatch(format!(
                    "ragged rows: expected {}, got {}",
                    ncols,
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Mat {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Build an `n × 1` column matrix from a slice.
    pub fn column(v: &[f64]) -> Self {
        Mat {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Build a diagonal matrix from a slice.
    pub fn diag(d: &[f64]) -> Self {
        let n = d.len();
        let mut m = Mat::zeros(n, n);
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Build with a generator closure `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` out into a new `Vec`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses an ikj loop order so the inner loop streams both operands — the
    /// cache-friendly form for row-major storage.
    pub fn matmul(&self, rhs: &Mat) -> Result<Mat> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matmul {}x{} by {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = out.row_mut(i);
            for (k, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = rhs.row(k);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch(format!(
                "matvec {}x{} by {}",
                self.rows,
                self.cols,
                v.len()
            )));
        }
        Ok(self
            .rows_iter()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// `selfᵀ * v` without materializing the transpose.
    pub fn tr_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.rows != v.len() {
            return Err(LinalgError::ShapeMismatch(format!(
                "tr_matvec {}x{} by {}",
                self.rows,
                self.cols,
                v.len()
            )));
        }
        let mut out = vec![0.0; self.cols];
        for (row, &vi) in self.rows_iter().zip(v) {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * vi;
            }
        }
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self`, exploiting symmetry.
    pub fn gram(&self) -> Mat {
        let n = self.cols;
        let mut g = Mat::zeros(n, n);
        for row in self.rows_iter() {
            for j in 0..n {
                let rj = row[j];
                if rj == 0.0 {
                    continue;
                }
                for k in j..n {
                    g[(j, k)] += rj * row[k];
                }
            }
        }
        for j in 0..n {
            for k in 0..j {
                g[(j, k)] = g[(k, j)];
            }
        }
        g
    }

    /// Scale every element in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element, 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// True if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Horizontally stack `self | rhs`.
    pub fn hstack(&self, rhs: &Mat) -> Result<Mat> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "hstack {}x{} with {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Mat::zeros(self.rows, self.cols + rhs.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(rhs.row(i));
        }
        Ok(out)
    }

    /// Select a subset of rows (by index, repeats allowed) into a new matrix.
    pub fn select_rows(&self, idx: &[usize]) -> Mat {
        let mut out = Mat::zeros(idx.len(), self.cols);
        for (oi, &si) in idx.iter().enumerate() {
            out.row_mut(oi).copy_from_slice(self.row(si));
        }
        out
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

macro_rules! elementwise {
    ($trait:ident, $fn:ident, $op:tt) => {
        impl $trait for &Mat {
            type Output = Mat;
            fn $fn(self, rhs: &Mat) -> Mat {
                assert_eq!(self.shape(), rhs.shape(), "elementwise shape mismatch");
                let data = self
                    .data
                    .iter()
                    .zip(&rhs.data)
                    .map(|(a, b)| a $op b)
                    .collect();
                Mat { rows: self.rows, cols: self.cols, data }
            }
        }
    };
}

elementwise!(Add, add, +);
elementwise!(Sub, sub, -);

impl AddAssign<&Mat> for Mat {
    fn add_assign(&mut self, rhs: &Mat) {
        assert_eq!(self.shape(), rhs.shape(), "elementwise shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Mat> for Mat {
    fn sub_assign(&mut self, rhs: &Mat) {
        assert_eq!(self.shape(), rhs.shape(), "elementwise shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Mat {
    type Output = Mat;
    fn mul(self, s: f64) -> Mat {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }
}

impl Neg for &Mat {
    type Output = Mat;
    fn neg(self) -> Mat {
        self * -1.0
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 12 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  … ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Mat {
        Mat::from_vec(2, 2, vec![a, b, c, d]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(3, 2);
        assert_eq!(z.shape(), (3, 2));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Mat::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Mat::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Mat::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(matches!(err, Err(LinalgError::ShapeMismatch(_))));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Mat::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        let t = a.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t[(2, 1)], a[(1, 2)]);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Mat::from_fn(3, 3, |i, j| (i + j) as f64 + 0.5);
        let prod = a.matmul(&Mat::identity(3)).unwrap();
        assert_eq!(prod, a);
    }

    #[test]
    fn matmul_known_values() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m22(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_and_transpose_matvec_agree() {
        let a = Mat::from_fn(4, 3, |i, j| (i as f64 + 1.0) * (j as f64 - 1.0));
        let v = vec![1.0, -2.0, 3.0];
        let w = vec![0.5, 1.5, -0.5, 2.0];
        let av = a.matvec(&v).unwrap();
        let atw = a.tr_matvec(&w).unwrap();
        // <Av, w> == <v, Aᵀw>
        let lhs: f64 = av.iter().zip(&w).map(|(x, y)| x * y).sum();
        let rhs: f64 = v.iter().zip(&atw).map(|(x, y)| x * y).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Mat::from_fn(5, 3, |i, j| ((i * 3 + j) as f64).sin());
        let g1 = a.gram();
        let g2 = a.transpose().matmul(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((g1[(i, j)] - g2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hstack_concats_columns() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = Mat::column(&[9.0, 8.0]);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h[(0, 2)], 9.0);
        assert_eq!(h[(1, 2)], 8.0);
    }

    #[test]
    fn select_rows_allows_repeats() {
        let a = Mat::from_fn(3, 2, |i, _| i as f64);
        let s = a.select_rows(&[2, 0, 2]);
        assert_eq!(s.col(0), vec![2.0, 0.0, 2.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(4.0, 3.0, 2.0, 1.0);
        assert_eq!(&a + &b, m22(5.0, 5.0, 5.0, 5.0));
        assert_eq!(&a - &b, m22(-3.0, -1.0, 1.0, 3.0));
        assert_eq!(&a * 2.0, m22(2.0, 4.0, 6.0, 8.0));
        let mut c = a.clone();
        c += &b;
        assert_eq!(c, m22(5.0, 5.0, 5.0, 5.0));
        c -= &b;
        assert_eq!(c, a);
    }

    #[test]
    fn norms() {
        let a = m22(3.0, 0.0, 0.0, 4.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn finite_detection() {
        let mut a = Mat::zeros(2, 2);
        assert!(a.is_finite());
        a[(1, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }
}
