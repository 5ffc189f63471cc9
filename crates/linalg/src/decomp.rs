//! Factorisations: LU with partial pivoting, Cholesky, cyclic Jacobi eigen.

use crate::Matrix;

/// Errors from numerical factorisations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is singular (or numerically so) at the given pivot index.
    Singular(usize),
    /// Cholesky hit a non-positive pivot: the matrix is not positive definite.
    NotPositiveDefinite(usize),
    /// An operation required a square matrix but got `rows x cols`.
    NotSquare(usize, usize),
    /// A binary operation's operand shapes do not compose (e.g. matmul with
    /// `lhs.cols != rhs.rows`).
    ShapeMismatch {
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular(i) => write!(f, "matrix is singular at pivot {i}"),
            LinalgError::NotPositiveDefinite(i) => {
                write!(f, "matrix is not positive definite (pivot {i})")
            }
            LinalgError::NotSquare(r, c) => write!(f, "expected square matrix, got {r}x{c}"),
            LinalgError::ShapeMismatch { lhs: (lr, lc), rhs: (rr, rc) } => {
                write!(f, "operand shapes do not compose: {lr}x{lc} vs {rr}x{rc}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// LU decomposition with partial pivoting: `P*A = L*U`.
///
/// Returns `(lu, perm)` where `lu` packs `L` (unit lower triangle, implicit
/// diagonal of ones) and `U` (upper triangle), and `perm[i]` is the source row
/// of output row `i`.
pub fn lu_decompose(a: &Matrix) -> Result<(Matrix, Vec<usize>), LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare(a.rows(), a.cols()));
    }
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Partial pivot: largest |value| in column k at or below the diagonal.
        let mut pivot_row = k;
        let mut pivot_val = lu[(k, k)].abs();
        for r in (k + 1)..n {
            let v = lu[(r, k)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-300 {
            return Err(LinalgError::Singular(k));
        }
        if pivot_row != k {
            perm.swap(k, pivot_row);
            for c in 0..n {
                let tmp = lu[(k, c)];
                lu[(k, c)] = lu[(pivot_row, c)];
                lu[(pivot_row, c)] = tmp;
            }
        }
        let diag = lu[(k, k)];
        for r in (k + 1)..n {
            let factor = lu[(r, k)] / diag;
            lu[(r, k)] = factor;
            for c in (k + 1)..n {
                let sub = factor * lu[(k, c)];
                lu[(r, c)] -= sub;
            }
        }
    }
    Ok((lu, perm))
}

/// Solves the linear system `A x = b` via LU with partial pivoting.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    assert_eq!(b.len(), n, "rhs length mismatch");
    let (lu, perm) = lu_decompose(a)?;
    // Forward substitution on permuted b (L has unit diagonal).
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[perm[i]];
        for j in 0..i {
            s -= lu[(i, j)] * y[j];
        }
        y[i] = s;
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for j in (i + 1)..n {
            s -= lu[(i, j)] * x[j];
        }
        x[i] = s / lu[(i, i)];
    }
    Ok(x)
}

/// Cholesky factorisation of a symmetric positive definite matrix: `A = L*Lᵀ`.
///
/// Returns the lower-triangular factor `L`.
pub fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare(a.rows(), a.cols()));
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite(i));
                }
                l[(i, i)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Right-hand sides one [`solve_lower_triangular_block`] call solves.
pub const SOLVE_BLOCK: usize = 8;

/// Solves `L x_r = b_r`, `L` lower triangular with nonzero diagonal, for
/// [`SOLVE_BLOCK`] right-hand sides at once, stored interleaved: element
/// `i` of right-hand side `r` is `b[i * SOLVE_BLOCK + r]`, and `x` is laid
/// out the same way.
///
/// Each right-hand side goes through the operations of a one-at-a-time
/// forward substitution (`x_i = (b_i - Σ_{j<i} l_ij x_j) / l_ii`, the sum
/// subtracted term by term in `j` order), so every solution is
/// bit-identical to its own solve; the block only runs the independent
/// recurrences side by side, one row of `L` read per step.
/// Unused lanes of a partial block may hold anything finite or not — they
/// never mix with the others.
pub fn solve_lower_triangular_block(l: &Matrix, b: &[f64], x: &mut [f64]) {
    const B: usize = SOLVE_BLOCK;
    let n = l.rows();
    assert_eq!(l.cols(), n);
    assert_eq!(b.len(), n * B);
    assert_eq!(x.len(), n * B);
    for i in 0..n {
        let li = l.row(i);
        let (solved, rest) = x.split_at_mut(i * B);
        let mut s = [0.0; B];
        s.copy_from_slice(&b[i * B..(i + 1) * B]);
        for (&lij, xj) in li[..i].iter().zip(solved.chunks_exact(B)) {
            for (sr, &xr) in s.iter_mut().zip(xj) {
                *sr -= lij * xr;
            }
        }
        let lii = li[i];
        for (xr, &sr) in rest[..B].iter_mut().zip(&s) {
            *xr = sr / lii;
        }
    }
}

/// Symmetric eigendecomposition via the cyclic Jacobi method.
///
/// Returns `(eigenvalues, eigenvectors)` sorted by descending eigenvalue;
/// column `k` of the eigenvector matrix corresponds to `eigenvalues[k]`.
///
/// # Panics
/// Panics if `a` is not square. Symmetry is assumed; only the upper triangle
/// drives the rotations.
pub fn eigh(a: &Matrix) -> (Vec<f64>, Matrix) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "eigh requires a square matrix");
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let max_sweeps = 64;
    for _ in 0..max_sweeps {
        // Off-diagonal Frobenius mass; converged when negligible.
        let mut off = 0.0;
        for r in 0..n {
            for c in (r + 1)..n {
                off += m[(r, c)] * m[(r, c)];
            }
        }
        if off.sqrt() < 1e-12 * (1.0 + m.frobenius_norm()) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the Givens rotation to rows/cols p and q.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(j, j)].partial_cmp(&m[(i, i)]).unwrap());
    let eigenvalues: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    (eigenvalues, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(&a, &[3.0, 5.0]).unwrap();
        assert_close(x[0], 0.8, 1e-12);
        assert_close(x[1], 1.4, 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the initial diagonal forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert_close(x[0], 3.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(solve(&a, &[1.0, 2.0]), Err(LinalgError::Singular(_))));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(lu_decompose(&a), Err(LinalgError::NotSquare(2, 3))));
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ]);
        let l = cholesky(&a).unwrap();
        let recon = l.matmul(&l.transpose());
        assert!(recon.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(cholesky(&a), Err(LinalgError::NotPositiveDefinite(_))));
    }

    /// One right-hand side at a time: the reference the block must match.
    fn solve_lower_triangular(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= l[(i, j)] * x[j];
            }
            x[i] = s / l[(i, i)];
        }
        x
    }

    #[test]
    fn lower_triangular_solve() {
        // Every lane solves [[2, 0], [1, 3]] x = (4, 11).
        let l = Matrix::from_rows(&[vec![2.0, 0.0], vec![1.0, 3.0]]);
        let b: Vec<f64> = [4.0, 11.0].iter().flat_map(|&v| [v; SOLVE_BLOCK]).collect();
        let mut x = vec![0.0; 2 * SOLVE_BLOCK];
        solve_lower_triangular_block(&l, &b, &mut x);
        for r in 0..SOLVE_BLOCK {
            assert_close(x[r], 2.0, 1e-12);
            assert_close(x[SOLVE_BLOCK + r], 3.0, 1e-12);
        }
    }

    #[test]
    fn block_solve_is_bit_identical_to_one_at_a_time() {
        // A well-conditioned 11x11 lower factor and eight right-hand sides
        // of mixed scale; one lane carries a NaN that must stay in its lane.
        let n = 11;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                l[(i, j)] = ((i * 7 + j * 3) % 5) as f64 * 0.37 - 0.6;
            }
            l[(i, i)] = 1.5 + i as f64 * 0.11;
        }
        let mut rhs: Vec<Vec<f64>> = (0..SOLVE_BLOCK)
            .map(|r| {
                let scale = [1.0, 3e-4, 9e-8][r % 3];
                (0..n).map(|i| ((r * 13 + i * 5) % 17) as f64 * scale - 1.1).collect()
            })
            .collect();
        rhs[5][4] = f64::NAN;
        let mut b = vec![0.0; n * SOLVE_BLOCK];
        for (r, v) in rhs.iter().enumerate() {
            for (i, &bi) in v.iter().enumerate() {
                b[i * SOLVE_BLOCK + r] = bi;
            }
        }
        let mut x = vec![0.0; n * SOLVE_BLOCK];
        solve_lower_triangular_block(&l, &b, &mut x);
        for (r, v) in rhs.iter().enumerate() {
            for (i, xi) in solve_lower_triangular(&l, v).iter().enumerate() {
                assert_eq!(xi.to_bits(), x[i * SOLVE_BLOCK + r].to_bits(), "rhs {r} elem {i}");
            }
        }
    }

    #[test]
    fn eigh_diagonal() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]);
        let (vals, _) = eigh(&a);
        assert_close(vals[0], 3.0, 1e-10);
        assert_close(vals[1], 1.0, 1e-10);
    }

    #[test]
    fn eigh_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (vals, vecs) = eigh(&a);
        assert_close(vals[0], 3.0, 1e-10);
        assert_close(vals[1], 1.0, 1e-10);
        // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
        let v0 = (vecs[(0, 0)], vecs[(1, 0)]);
        assert_close(v0.0.abs(), 1.0 / 2f64.sqrt(), 1e-8);
        assert_close(v0.1.abs(), 1.0 / 2f64.sqrt(), 1e-8);
    }

    #[test]
    fn eigh_reconstructs() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, -0.2],
            vec![0.5, -0.2, 2.0],
        ]);
        let (vals, vecs) = eigh(&a);
        // A = V diag(vals) Vᵀ
        let mut d = Matrix::zeros(3, 3);
        for i in 0..3 {
            d[(i, i)] = vals[i];
        }
        let recon = vecs.matmul(&d).matmul(&vecs.transpose());
        assert!(recon.max_abs_diff(&a) < 1e-8, "recon diff {}", recon.max_abs_diff(&a));
    }

    #[test]
    fn eigh_vectors_orthonormal() {
        let a = Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 4.0, 0.0],
            vec![1.0, 0.0, 3.0],
        ]);
        let (_, vecs) = eigh(&a);
        let vtv = vecs.transpose().matmul(&vecs);
        assert!(vtv.max_abs_diff(&Matrix::identity(3)) < 1e-8);
    }
}
