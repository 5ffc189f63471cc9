//! The tests that flip [`kernels::set_scalar_kernels`]. The knob is
//! process-wide, so they live in a test binary of their own — in
//! `kernel_equiv.rs` a flip landed between the two sides of
//! `matvec_matches_dot_kernel` on another test thread and failed it one run
//! in a few — and take one lock, because they would do the same to each
//! other.

mod common;

use common::{matrix, vec_pair};
use proptest::prelude::*;
use smartml_linalg::{kernels, Matrix};
use std::sync::Mutex;

static KNOB: Mutex<()> = Mutex::new(());

/// Plants exact zeros so the matmul zero-skip path is exercised.
fn matrix_with_zeros(rows: std::ops::RangeInclusive<usize>, cols: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Matrix> {
    matrix(rows, cols).prop_map(|mut m| {
        let len = m.as_slice().len();
        for i in (0..len).step_by(3) {
            m.as_mut_slice()[i] = 0.0;
        }
        m
    })
}

proptest! {
    // The scalar-kernels knob must restore the serial numerics exactly.
    #[test]
    fn scalar_knob_restores_serial_bits((a, b) in vec_pair(100)) {
        let _knob = KNOB.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        kernels::set_scalar_kernels(true);
        let knob = kernels::dot(&a, &b);
        kernels::set_scalar_kernels(false);
        prop_assert_eq!(knob.to_bits(), kernels::scalar::dot(&a, &b).to_bits());
    }

    // Blocked matmul is bit-identical to the retained serial product (the
    // scalar knob selects it, so compare knob-on vs knob-off directly).
    #[test]
    fn matmul_bit_identical_to_serial_oracle(
        a in matrix_with_zeros(1..=13, 1..=9),
        b in matrix(1..=9, 1..=11),
    ) {
        let b = Matrix::from_vec(a.cols(), b.cols(), {
            let need = a.cols() * b.cols();
            let mut d: Vec<f64> = b.as_slice().iter().copied().cycle().take(need).collect();
            d.truncate(need);
            d
        });
        let _knob = KNOB.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let fast = a.matmul(&b);
        kernels::set_scalar_kernels(true);
        let slow = a.matmul(&b);
        kernels::set_scalar_kernels(false);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
