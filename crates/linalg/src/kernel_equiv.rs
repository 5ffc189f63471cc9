//! Equivalence proofs for the kernel layer against the test-only oracles
//! (DESIGN.md § Compute layer). They live in the crate because the
//! oracles — `kernels::scalar`, `stats::oracle`, `Matrix::matmul_serial` —
//! exist only under `#[cfg(test)]`:
//!
//! - **Bounded tolerance** for the lane-reassociated reductions (dot, sum,
//!   distance, Pearson sums) against the serial-order oracles.
//! - **Bit-identity** for the order-preserving rewrites (covariance, the
//!   blocked matmul) against the loops they replaced, via `to_bits`.
//! - **Exact early exit** of `squared_distance_within`: it finishes
//!   exactly when `squared_distance` is below the bound, and then with its
//!   bits.
//!
//! verify.sh runs these under default codegen and `-C target-cpu=native`.

use crate::{covariance_matrix, kernels, stats, Matrix};
use proptest::prelude::*;

const MAX_ABS: f64 = 10.0;

fn vec_pair(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(-MAX_ABS..MAX_ABS, n..=n),
            prop::collection::vec(-MAX_ABS..MAX_ABS, n..=n),
        )
    })
}

fn matrix(
    rows: std::ops::RangeInclusive<usize>,
    cols: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-MAX_ABS..MAX_ABS, r * c..=r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Plants exact zeros so the matmul zero-skip path is exercised.
fn matrix_with_zeros(
    rows: std::ops::RangeInclusive<usize>,
    cols: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = Matrix> {
    matrix(rows, cols).prop_map(|mut m| {
        let len = m.as_slice().len();
        for i in (0..len).step_by(3) {
            m.as_mut_slice()[i] = 0.0;
        }
        m
    })
}

fn reduction_tol(reference: f64) -> f64 {
    1e-10 * (1.0 + reference.abs())
}

proptest! {
    // Reductions: lane-reassociated kernel vs serial-order oracle, within a
    // tolerance that only covers FP reassociation.
    #[test]
    fn dot_close_to_serial_oracle((a, b) in vec_pair(200)) {
        let slow = kernels::scalar::dot(&a, &b);
        prop_assert!((kernels::dot(&a, &b) - slow).abs() <= reduction_tol(slow));
    }

    #[test]
    fn squared_distance_close_to_serial_oracle((a, b) in vec_pair(200)) {
        let slow = kernels::scalar::squared_distance(&a, &b);
        prop_assert!((kernels::squared_distance(&a, &b) - slow).abs() <= reduction_tol(slow));
    }

    // The bounded kernel against the unbounded one, at every bound where
    // the answer flips: 0, just below, at and just above the exact value,
    // and +∞. Lengths cover every remainder and up to five chunks.
    #[test]
    fn squared_distance_within_is_exact((a, b) in vec_pair(40)) {
        let exact = kernels::squared_distance(&a, &b);
        let bounds = [0.0, exact.next_down(), exact, exact.next_up(), f64::INFINITY];
        for bound in bounds {
            match kernels::squared_distance_within(&a, &b, bound) {
                Some(x) => {
                    prop_assert_eq!(x.to_bits(), exact.to_bits(), "bound {}", bound);
                    prop_assert!(exact < bound);
                }
                None => prop_assert!(exact >= bound, "gave up on {} under bound {}", exact, bound),
            }
        }
        prop_assert!(kernels::squared_distance_within(&a, &b, f64::INFINITY).is_some());
        prop_assert!(kernels::squared_distance_within(&a, &b, exact.next_up()).is_some());
        prop_assert!(kernels::squared_distance_within(&a, &b, exact).is_none());
    }

    #[test]
    fn sum_and_sq_dev_close_to_serial_oracle((a, _b) in vec_pair(200)) {
        let slow = kernels::scalar::sum(&a);
        prop_assert!((kernels::sum(&a) - slow).abs() <= reduction_tol(slow));
        let m = if a.is_empty() { 0.0 } else { slow / a.len() as f64 };
        let slow_dev = kernels::scalar::sum_sq_dev(&a, m);
        prop_assert!((kernels::sum_sq_dev(&a, m) - slow_dev).abs() <= reduction_tol(slow_dev));
    }

    #[test]
    fn pearson_sums_close_to_serial_oracle((a, b) in vec_pair(200)) {
        let n = a.len().max(1) as f64;
        let ma = kernels::sum(&a) / n;
        let mb = kernels::sum(&b) / n;
        let (fab, faa, fbb) = kernels::pearson_sums(&a, &b, ma, mb);
        let (sab, saa, sbb) = kernels::scalar::pearson_sums(&a, &b, ma, mb);
        prop_assert!((fab - sab).abs() <= reduction_tol(sab));
        prop_assert!((faa - saa).abs() <= reduction_tol(saa));
        prop_assert!((fbb - sbb).abs() <= reduction_tol(sbb));
    }

    // Covariance: AXPY-tiled upper triangle vs the nested loop it replaced.
    #[test]
    fn covariance_bit_identical_to_oracle(x in matrix(2..=25, 1..=10)) {
        let fast = covariance_matrix(&x);
        let slow = stats::oracle::covariance_matrix(&x);
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // Blocked matmul vs the serial i-k-j product, zero-skips included.
    #[test]
    fn matmul_bit_identical_to_serial_oracle(
        a in matrix_with_zeros(1..=13, 1..=9),
        b in matrix(1..=9, 1..=11),
    ) {
        let b = Matrix::from_vec(a.cols(), b.cols(), {
            let need = a.cols() * b.cols();
            b.as_slice().iter().copied().cycle().take(need).collect()
        });
        let fast = a.matmul(&b);
        let slow = a.matmul_serial(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
