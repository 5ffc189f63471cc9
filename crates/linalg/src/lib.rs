//! Dense linear algebra substrate for SmartML.
//!
//! The original SmartML delegates numerical work to R/LAPACK; this crate provides
//! the minimal, well-tested dense kernel set the rest of the workspace needs:
//! a row-major [`Matrix`], LU and Cholesky factorisations, a cyclic Jacobi
//! symmetric eigendecomposition, and statistical helpers (covariance,
//! column means). Datasets in this domain are small-to-medium, so the
//! implementations favour clarity and numerical robustness over peak FLOPs —
//! but the hot inner loops (dot/distance/sum reductions, AXPY updates, the
//! matmul micro-kernel) now live in the autovectorization-friendly
//! [`kernels`] module, with one numerics path, test-only serial oracles and
//! a documented determinism policy (see `kernels`' module docs and
//! DESIGN.md § Compute layer).

mod decomp;
#[cfg(test)]
mod kernel_equiv;
pub mod kernels;
mod matrix;
mod stats;
pub mod vecops;

pub use decomp::{
    cholesky, eigh, lu_decompose, solve, solve_lower_triangular_block, LinalgError, SOLVE_BLOCK,
};
pub use matrix::Matrix;
pub use stats::{column_means, covariance_matrix, pearson_correlation};
