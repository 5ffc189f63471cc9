//! Kernel-layer checks that need no test-only oracle (DESIGN.md
//! § Compute layer); the proofs against the serial oracles are the
//! crate's `kernel_equiv` unit tests.
//!
//! - **Bit-identity** of the elementwise AXPY family against the scalar
//!   statements it fuses, and of `matvec` against the `dot` kernel, via
//!   `to_bits` comparison under proptest.
//! - **Codegen invariance**: hard-coded output bit patterns that must
//!   reproduce under any `-C target-cpu` (verify.sh runs this suite twice,
//!   baseline and `target-cpu=native`).

use proptest::prelude::*;
use smartml_linalg::{kernels, LinalgError, Matrix};

const MAX_ABS: f64 = 10.0;

fn vec_pair(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(-MAX_ABS..MAX_ABS, n..=n),
            prop::collection::vec(-MAX_ABS..MAX_ABS, n..=n),
        )
    })
}

fn matrix(rows: std::ops::RangeInclusive<usize>, cols: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-MAX_ABS..MAX_ABS, r * c..=r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
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
    assert_eq!(
        kernels::squared_distance_within(&a, &b, f64::INFINITY).map(f64::to_bits),
        Some(0x40e5e56e31c1b14a),
        "squared_distance_within bits drifted"
    );
    assert_eq!(kernels::sum(&a).to_bits(), 0x402ec07bc43a88eb, "sum bits drifted");
    assert_eq!(
        kernels::sum_sq_dev(&a, 0.25).to_bits(),
        0x40d54b1320286b5f,
        "sum_sq_dev bits drifted"
    );
    let m = Matrix::from_vec(16, 8, seq(128, 3));
    let n = Matrix::from_vec(8, 16, seq(128, 4));
    let p = m.matmul(&n);
    assert_eq!(kernels::sum(p.as_slice()).to_bits(), 0x408cf4b49395f590, "matmul bits drifted");
}
