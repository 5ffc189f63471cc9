//! Statistical matrix helpers: column means, covariance, correlation.
//!
//! The hot loops (column accumulation, the covariance upper triangle, the
//! Pearson sums) run on the vectorized [`crate::kernels`] layer. The
//! covariance and mean rewrites are *elementwise order-preserving* — each
//! output cell accumulates the same values in the same order as the legacy
//! nested loops — so they are bit-identical to the test-only `oracle`
//! implementations the unit tests compare them with.

use crate::kernels;
use crate::Matrix;

/// Per-column means of a data matrix (rows = observations).
pub fn column_means(x: &Matrix) -> Vec<f64> {
    let n = x.rows() as f64;
    let mut means = vec![0.0; x.cols()];
    for r in 0..x.rows() {
        kernels::add_assign(&mut means, x.row(r));
    }
    if n > 0.0 {
        for m in &mut means {
            *m /= n;
        }
    }
    means
}

/// Sample covariance matrix (denominator `n - 1`) of a data matrix
/// with rows as observations and columns as variables.
///
/// Returns the zero matrix when there are fewer than two observations.
///
/// Each observation is centered once into a scratch row and rank-1-updates
/// the upper triangle via AXPYs over contiguous `cov` row tails — the same
/// multiplies and adds, in the same order, as the legacy scalar triple loop
/// (bit-identical to the test oracle `oracle::covariance_matrix`).
pub fn covariance_matrix(x: &Matrix) -> Matrix {
    let (n, p) = x.shape();
    let mut cov = Matrix::zeros(p, p);
    if n < 2 {
        return cov;
    }
    let means = column_means(x);
    let mut centered = vec![0.0; p];
    for r in 0..n {
        let row = x.row(r);
        for j in 0..p {
            centered[j] = row[j] - means[j];
        }
        for i in 0..p {
            let di = centered[i];
            kernels::axpy(&mut cov.row_mut(i)[i..], di, &centered[i..]);
        }
    }
    let denom = (n - 1) as f64;
    for i in 0..p {
        for j in i..p {
            let v = cov[(i, j)] / denom;
            cov[(i, j)] = v;
            cov[(j, i)] = v;
        }
    }
    cov
}

/// Pearson correlation of two equal-length samples.
///
/// Returns 0.0 when either sample has (numerically) zero variance — the
/// convention used throughout the meta-feature extractor, where a constant
/// feature carries no correlation signal.
pub fn pearson_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "correlation length mismatch");
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let ma = kernels::sum(a) / n;
    let mb = kernels::sum(b) / n;
    let (sab, saa, sbb) = kernels::pearson_sums(a, b, ma, mb);
    if saa <= 1e-300 || sbb <= 1e-300 {
        return 0.0;
    }
    sab / (saa.sqrt() * sbb.sqrt())
}

/// The implementations the kernel-layer versions replaced: test oracles
/// the unit tests compare against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Matrix;

    /// Legacy nested-loop covariance (single accumulator per cell, scalar
    /// triple loop).
    pub fn covariance_matrix(x: &Matrix) -> Matrix {
        let (n, p) = x.shape();
        let mut cov = Matrix::zeros(p, p);
        if n < 2 {
            return cov;
        }
        let means = super::column_means(x);
        for r in 0..n {
            let row = x.row(r);
            for i in 0..p {
                let di = row[i] - means[i];
                for j in i..p {
                    cov[(i, j)] += di * (row[j] - means[j]);
                }
            }
        }
        let denom = (n - 1) as f64;
        for i in 0..p {
            for j in i..p {
                let v = cov[(i, j)] / denom;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        cov
    }

    /// Legacy interleaved three-sum Pearson correlation.
    pub fn pearson_correlation(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "correlation length mismatch");
        let n = a.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let mut sab = 0.0;
        let mut saa = 0.0;
        let mut sbb = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            let dx = x - ma;
            let dy = y - mb;
            sab += dx * dy;
            saa += dx * dx;
            sbb += dy * dy;
        }
        if saa <= 1e-300 || sbb <= 1e-300 {
            return 0.0;
        }
        sab / (saa.sqrt() * sbb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_simple() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 20.0]]);
        assert_eq!(column_means(&x), vec![2.0, 15.0]);
    }

    #[test]
    fn means_empty() {
        assert_eq!(column_means(&Matrix::zeros(0, 3)), vec![0.0; 3]);
    }

    #[test]
    fn covariance_known() {
        // Two perfectly correlated columns.
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let c = covariance_matrix(&x);
        assert!((c[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((c[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((c[(1, 1)] - 4.0).abs() < 1e-12);
        assert!(c.is_symmetric(1e-12));
    }

    #[test]
    fn covariance_single_row_is_zero() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]);
        assert_eq!(covariance_matrix(&x), Matrix::zeros(2, 2));
    }

    #[test]
    fn covariance_bit_identical_to_oracle() {
        for &(n, p) in &[(2, 1), (5, 3), (17, 9), (40, 12)] {
            let x = Matrix::from_vec(
                n,
                p,
                (0..n * p).map(|i| (i as f64 * 0.29).sin() * 5.0).collect(),
            );
            let fast = covariance_matrix(&x);
            let slow = oracle::covariance_matrix(&x);
            for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{n}x{p}");
            }
        }
    }

    #[test]
    fn correlation_perfect() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!((pearson_correlation(&a, &b) - 1.0).abs() < 1e-12);
        let neg = [3.0, 2.0, 1.0];
        assert!((pearson_correlation(&a, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_constant_is_zero() {
        let a = [1.0, 1.0, 1.0];
        let b = [2.0, 4.0, 6.0];
        assert_eq!(pearson_correlation(&a, &b), 0.0);
    }

    #[test]
    fn correlation_close_to_oracle() {
        let a: Vec<f64> = (0..101).map(|i| (i as f64 * 0.13).sin() * 2.0).collect();
        let b: Vec<f64> = (0..101).map(|i| (i as f64 * 0.07).cos() + 0.3 * (i as f64 * 0.13).sin()).collect();
        let fast = pearson_correlation(&a, &b);
        let slow = oracle::pearson_correlation(&a, &b);
        assert!((fast - slow).abs() < 1e-12, "{fast} vs {slow}");
    }
}
