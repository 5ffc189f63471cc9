//! Equivalence proofs for the vectorized kernel layer (DESIGN.md
//! § Compute layer):
//!
//! - **Bit-identity** for every order-preserving fast path (covariance, the
//!   elementwise AXPY family) against its retained scalar oracle, via
//!   `to_bits` comparison under proptest. The blocked matmul's oracle sits
//!   behind the process-wide scalar knob, so its proof lives with the knob's
//!   own test in `scalar_knob.rs`, a process of its own: flipping the knob
//!   here changed `kernels::dot` under `matvec_matches_dot_kernel` on
//!   another test thread.
//! - **Bounded tolerance** for the lane-reassociated reductions (dot, sum,
//!   distance, Pearson sums) against the serial-order oracles, and for the
//!   opt-in f32 kernels against their f64 counterparts within the
//!   documented `n · M² · F32_EPS_SCALE` envelope.
//! - **Codegen invariance**: hard-coded output bit patterns that must
//!   reproduce under any `-C target-cpu` (verify.sh runs this suite twice,
//!   baseline and `target-cpu=native`).

mod common;

use common::{matrix, vec_pair, MAX_ABS};
use proptest::prelude::*;
use smartml_linalg::{covariance_matrix, kernels, stats_oracle, LinalgError, Matrix};

fn reduction_tol(reference: f64) -> f64 {
    1e-10 * (1.0 + reference.abs())
}

proptest! {
    // Reductions: lane-reassociated fast path vs serial-order oracle,
    // within a tolerance that only covers FP reassociation.
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

    // Elementwise family: bit-identical to the scalar statements it fuses.
    #[test]
    fn axpy_family_bit_identical((x, y0) in vec_pair(200)) {
        let mut fast = y0.clone();
        kernels::axpy(&mut fast, 1.75, &x);
        let mut slow = y0.clone();
        for (yv, &xv) in slow.iter_mut().zip(&x) { *yv += 1.75 * xv; }
        prop_assert_eq!(&fast, &slow);

        let mut fast = y0.clone();
        kernels::add_assign(&mut fast, &x);
        let mut slow = y0.clone();
        for (yv, &xv) in slow.iter_mut().zip(&x) { *yv += xv; }
        prop_assert_eq!(&fast, &slow);

        let mut fast = y0.clone();
        kernels::sub_assign(&mut fast, &x);
        let mut slow = y0;
        for (yv, &xv) in slow.iter_mut().zip(&x) { *yv -= xv; }
        prop_assert_eq!(&fast, &slow);
    }

    #[test]
    fn momentum_update_bit_identical((g, w0) in vec_pair(150)) {
        let v0: Vec<f64> = g.iter().map(|&x| x * 0.5 - 0.1).collect();
        let (mut w, mut v) = (w0.clone(), v0.clone());
        kernels::momentum_update(&mut w, &mut v, &g, 0.01, 1e-4, 0.2, 0.9);
        let (mut ws, mut vs) = (w0, v0);
        for i in 0..g.len() {
            let grad = g[i] * 0.01 + 1e-4 * ws[i];
            vs[i] = 0.9 * vs[i] - 0.2 * grad;
            ws[i] += vs[i];
        }
        prop_assert_eq!(&w, &ws);
        prop_assert_eq!(&v, &vs);
    }

    // f32 kernels: inside the documented error envelope, never on by default.
    #[test]
    fn f32_kernels_within_documented_epsilon((a, b) in vec_pair(300)) {
        prop_assert!(!kernels::f32_kernels_enabled(), "f32 knob must default off");
        let (af, bf) = (kernels::to_f32(&a), kernels::to_f32(&b));
        let bound = a.len() as f64 * MAX_ABS * MAX_ABS * kernels::F32_EPS_SCALE;
        let d = (kernels::dot_f32(&af, &bf) - kernels::dot(&a, &b)).abs();
        prop_assert!(d <= bound, "dot err {d} > {bound}");
        let d = (kernels::squared_distance_f32(&af, &bf) - kernels::squared_distance(&a, &b)).abs();
        prop_assert!(d <= bound, "sqdist err {d} > {bound}");
    }

    // Covariance: AXPY-tiled upper triangle vs the legacy nested loop.
    #[test]
    fn covariance_bit_identical_to_oracle(x in matrix(2..=25, 1..=10)) {
        let fast = covariance_matrix(&x);
        let slow = stats_oracle::covariance_matrix(&x);
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn matvec_matches_dot_kernel(a in matrix(1..=12, 1..=24)) {
        let v: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let out = a.matvec(&v);
        for (r, o) in out.iter().enumerate() {
            prop_assert_eq!(o.to_bits(), kernels::dot(a.row(r), &v).to_bits());
        }
    }
}

/// Satellite regression: a shape mismatch surfaces as `Err`, not a panic,
/// through the `try_matmul` pipeline entry point.
#[test]
fn try_matmul_shape_mismatch_is_an_error() {
    let a = Matrix::zeros(3, 4);
    let b = Matrix::zeros(5, 2);
    match a.try_matmul(&b) {
        Err(LinalgError::ShapeMismatch { lhs: (3, 4), rhs: (5, 2) }) => {}
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    let msg = LinalgError::ShapeMismatch { lhs: (3, 4), rhs: (5, 2) }.to_string();
    assert!(msg.contains("3x4") && msg.contains("5x2"), "{msg}");
}

/// Cross-codegen determinism: these exact output bits must reproduce under
/// any codegen flags (Rust licenses neither FP reassociation nor
/// contraction, and the kernels' lane order is fixed by input length).
/// verify.sh runs this test twice — default codegen and
/// `-C target-cpu=native` — so a regression here means a kernel's
/// accumulation order became target-dependent.
#[test]
fn codegen_invariant_bit_patterns() {
    fn seq(n: usize, salt: u64) -> Vec<f64> {
        (0..n as u64)
            .map(|i| {
                let mut z = i.wrapping_add(salt).wrapping_mul(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                ((z >> 11) as f64 / (1u64 << 53) as f64) * 16.0 - 8.0
            })
            .collect()
    }
    let a = seq(1003, 1);
    let b = seq(1003, 2);
    assert_eq!(kernels::dot(&a, &b).to_bits(), 0xc0850123e8104d4d, "dot bits drifted");
    assert_eq!(
        kernels::squared_distance(&a, &b).to_bits(),
        0x40e5e56e31c1b14a,
        "squared_distance bits drifted"
    );
    assert_eq!(kernels::sum(&a).to_bits(), 0x402ec07bc43a88eb, "sum bits drifted");
    assert_eq!(
        kernels::sum_sq_dev(&a, 0.25).to_bits(),
        0x40d54b1320286b5f,
        "sum_sq_dev bits drifted"
    );
    let (af, bf) = (kernels::to_f32(&a), kernels::to_f32(&b));
    assert_eq!(kernels::dot_f32(&af, &bf).to_bits(), 0xc0850123e7d86000, "dot_f32 bits drifted");
    let m = Matrix::from_vec(16, 8, seq(128, 3));
    let n = Matrix::from_vec(8, 16, seq(128, 4));
    let p = m.matmul(&n);
    assert_eq!(kernels::sum(p.as_slice()).to_bits(), 0x408cf4b49395f590, "matmul bits drifted");
}
