//! A dense, row-major matrix of `f64`.
//!
//! This is deliberately minimal: just what ridge regression and
//! Levenberg–Marquardt need (products, transposes, and normal-equation
//! assembly). It is not a general-purpose linear-algebra library.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` matrix of `f64`, stored row-major.
///
/// # Example
///
/// ```
/// use ee360_numeric::matrix::Matrix;
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        Self {
            rows: rows.len(),
            cols,
            data: rows.concat(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions must match: {}×{} * {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Self::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                // lint:allow(float-compare, "intentional exact check: sparsity skip for exact zeros only")
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out[(r, c)] += a * other[(k, c)];
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must match columns");
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self[(r, c)] * v[c]).sum())
            .collect()
    }

    /// Gram matrix `selfᵀ · self` (always square and symmetric PSD).
    pub fn gram(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += self[(r, i)] * self[(r, j)];
                }
                out[(i, j)] = s;
                out[(j, i)] = s;
            }
        }
        out
    }

    /// Adds `lambda` to every diagonal entry in place (ridge regularisation).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, lambda: f64) {
        assert_eq!(self.rows, self.cols, "diagonal shift needs a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += lambda;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_dims() {
        let a = Matrix::zeros(2, 5);
        let t = a.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 2);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0], vec![2.0, 0.5]]);
        let v = [3.0, 4.0];
        let got = a.matvec(&v);
        assert_eq!(got, vec![-1.0, 8.0]);
    }

    #[test]
    fn gram_matches_explicit() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a);
        assert!((g.frobenius_norm() - explicit.frobenius_norm()).abs() < 1e-12);
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn add_diagonal_shifts() {
        let mut a = Matrix::identity(3);
        a.add_diagonal(2.0);
        for i in 0..3 {
            assert_eq!(a[(i, i)], 3.0);
        }
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a}").is_empty());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    proptest! {
        #[test]
        fn gram_is_symmetric(
            rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000
        ) {
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let data: Vec<Vec<f64>> = (0..rows)
                .map(|_| (0..cols).map(|_| next()).collect())
                .collect();
            let m = Matrix::from_rows(&data);
            let g = m.gram();
            for i in 0..cols {
                for j in 0..cols {
                    prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn matmul_associative_with_identity(rows in 1usize..5, cols in 1usize..5) {
            let a = Matrix::zeros(rows, cols);
            let left = Matrix::identity(rows).matmul(&a);
            let right = a.matmul(&Matrix::identity(cols));
            prop_assert_eq!(left, right);
        }
    }
}
