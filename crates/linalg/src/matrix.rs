//! Row-major dense matrix over `f64`.

use crate::decomp::LinalgError;
use crate::kernels;
use smartml_obs::Counter;
use std::fmt;
use std::ops::{Index, IndexMut};

static GEMM_CALLS: Counter = Counter::new("linalg.gemm.calls");

/// A dense, row-major matrix of `f64` values.
///
/// Indexing is `(row, col)`. All dimensions are checked at construction and on
/// every binary operation; dimension mismatches panic, since they are
/// programming errors rather than data errors.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length {} != {rows}x{cols}", data.len());
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
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

    /// Borrow the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.col_into(c, &mut out);
        out
    }

    /// Copy column `c` into `out`, reusing its allocation.
    pub fn col_into(&self, c: usize, out: &mut Vec<f64>) {
        assert!(c < self.cols, "column {c} out of range for {:?}", self.shape());
        out.clear();
        out.extend((0..self.rows).map(|r| self.data[r * self.cols + c]));
    }

    /// Matrix transpose, blocked so both source and destination are walked
    /// in cache-line-sized tiles rather than one side striding the full
    /// matrix width per element.
    pub fn transpose(&self) -> Matrix {
        const B: usize = 32;
        let (n, m) = (self.rows, self.cols);
        let mut t = vec![0.0; n * m];
        for rb in (0..n).step_by(B) {
            for cb in (0..m).step_by(B) {
                for r in rb..(rb + B).min(n) {
                    let row = &self.data[r * m..r * m + m];
                    for c in cb..(cb + B).min(m) {
                        t[c * n + r] = row[c];
                    }
                }
            }
        }
        Matrix { rows: m, cols: n, data: t }
    }

    /// Matrix product `self * rhs`, with the dimension check routed through
    /// `Result` so pipeline code (surrogate refits, PLS-DA projections) can
    /// surface a bad shape as a trial error instead of a panic.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        GEMM_CALLS.inc();
        Ok(self.matmul_blocked(rhs))
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`; infallible callers keep this
    /// entry point, pipeline callers use [`Matrix::try_matmul`].
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        match self.try_matmul(rhs) {
            Ok(out) => out,
            Err(e) => panic!("matmul shape mismatch: {e}"),
        }
    }

    /// The product the blocked kernel replaced: i-k-j loop order, one
    /// output row live at a time. The test oracle for the blocked path
    /// (results are bit-identical).
    #[cfg(test)]
    pub(crate) fn matmul_serial(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop contiguous in both `rhs` and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Register-blocked product: a 4-row micro-kernel reuses each `rhs` row
    /// across four output rows, quartering the dominant memory traffic while
    /// keeping every `(i, j)` accumulation in ascending-`k` order — so the
    /// result is bit-identical to the serial i-k-j product (`matmul_serial`,
    /// kept as a test oracle).
    fn matmul_blocked(&self, rhs: &Matrix) -> Matrix {
        const MR: usize = 4;
        let (n, kd, m) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(n, m);
        let blocks = n / MR;
        for (bi, block) in out.data[..blocks * MR * m].chunks_exact_mut(MR * m).enumerate() {
            let i0 = bi * MR;
            let (r0, rest) = block.split_at_mut(m);
            let (r1, rest) = rest.split_at_mut(m);
            let (r2, r3) = rest.split_at_mut(m);
            for k in 0..kd {
                let a0 = self.data[i0 * kd + k];
                let a1 = self.data[(i0 + 1) * kd + k];
                let a2 = self.data[(i0 + 2) * kd + k];
                let a3 = self.data[(i0 + 3) * kd + k];
                let brow = &rhs.data[k * m..k * m + m];
                if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                    for j in 0..m {
                        let b = brow[j];
                        r0[j] += a0 * b;
                        r1[j] += a1 * b;
                        r2[j] += a2 * b;
                        r3[j] += a3 * b;
                    }
                } else {
                    // The zero-skip is semantic, not just a shortcut
                    // (0.0 * inf is NaN; -0.0 + 0.0 is +0.0), so a block
                    // with any zero multiplier falls back to per-row AXPYs
                    // that skip exactly the rows the serial path skips.
                    if a0 != 0.0 {
                        kernels::axpy(r0, a0, brow);
                    }
                    if a1 != 0.0 {
                        kernels::axpy(r1, a1, brow);
                    }
                    if a2 != 0.0 {
                        kernels::axpy(r2, a2, brow);
                    }
                    if a3 != 0.0 {
                        kernels::axpy(r3, a3, brow);
                    }
                }
            }
        }
        for i in blocks * MR..n {
            for k in 0..kd {
                let a = self.data[i * kd + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &rhs.data[k * m..k * m + m];
                kernels::axpy(&mut out.data[i * m..i * m + m], a, brow);
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec shape mismatch");
        (0..self.rows).map(|r| kernels::dot(self.row(r), v)).collect()
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape());
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True if the matrix is square and symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {:?}", self.shape());
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {:?}", self.shape());
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0, 3.5], vec![0.0, 4.0, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn blocked_transpose_matches_naive_on_odd_shapes() {
        // Shapes straddling the 32-wide tile: 1 tile, partial tiles, tall/wide.
        for &(r, c) in &[(1, 1), (3, 70), (70, 3), (33, 33), (64, 32), (37, 95)] {
            let a = Matrix::from_vec(r, c, (0..r * c).map(|i| i as f64 * 0.5 - 7.0).collect());
            let t = a.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[(j, i)], a[(i, j)], "({i},{j}) in {r}x{c}");
                }
            }
        }
    }

    #[test]
    fn col_into_reuses_buffer() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut buf = vec![9.0; 17];
        a.col_into(1, &mut buf);
        assert_eq!(buf, vec![2.0, 4.0, 6.0]);
        a.col_into(0, &mut buf);
        assert_eq!(buf, vec![1.0, 3.0, 5.0]);
        assert_eq!(a.col(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[vec![4.0, 7.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[vec![2.0, 3.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[vec![2.0, 4.0]]));
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        assert!(s.is_symmetric(1e-12));
        let ns = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 3.0]]);
        assert!(!ns.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn try_matmul_reports_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        match a.try_matmul(&b) {
            Err(LinalgError::ShapeMismatch { lhs, rhs }) => {
                assert_eq!(lhs, (2, 3));
                assert_eq!(rhs, (2, 3));
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        assert!(Matrix::zeros(2, 3).try_matmul(&Matrix::zeros(3, 4)).is_ok());
    }

    #[test]
    fn blocked_matmul_bit_identical_to_serial() {
        // Shapes straddling the 4-row micro-kernel, with planted zeros and
        // non-finite values to exercise the zero-skip fallback.
        for &(n, k, m) in &[(1, 1, 1), (4, 4, 4), (5, 3, 7), (8, 16, 2), (13, 7, 9), (3, 5, 4)] {
            let mut a = Matrix::from_vec(
                n,
                k,
                (0..n * k).map(|i| (i as f64 * 0.37).sin() * 4.0).collect(),
            );
            let b = Matrix::from_vec(
                k,
                m,
                (0..k * m).map(|i| (i as f64 * 0.73).cos() * 4.0).collect(),
            );
            a[(0, 0)] = 0.0;
            if n * k > 6 {
                a.as_mut_slice()[5] = 0.0;
            }
            let fast = a.matmul_blocked(&b);
            let slow = a.matmul_serial(&b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{n}x{k} * {k}x{m}");
            }
        }
        // Zero times infinity must keep the serial path's skip semantics.
        let mut a = Matrix::zeros(4, 2);
        a[(1, 0)] = 1.0;
        let mut b = Matrix::zeros(2, 3);
        b[(0, 1)] = f64::INFINITY;
        let fast = a.matmul_blocked(&b);
        let slow = a.matmul_serial(&b);
        assert_eq!(fast, slow);
        assert_eq!(fast[(0, 1)], 0.0);
        assert_eq!(fast[(1, 1)], f64::INFINITY);
    }

    #[test]
    fn row_and_col_access() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn frobenius() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
