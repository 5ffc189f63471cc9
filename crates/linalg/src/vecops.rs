//! Scalar-vector helpers used across the workspace: moments, norms,
//! numerically careful summaries over possibly-empty or NaN-bearing slices.
//!
//! The reduction-shaped entry points (`sum`, `mean`, `variance`, `dot`,
//! `euclidean_distance`, `norm`) delegate to the vectorized
//! [`crate::kernels`] layer and inherit its determinism policy: fixed
//! lane-order accumulation, the same on every target and in every run.

use crate::kernels;

/// Sum of a slice.
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    kernels::sum(xs)
}

/// Arithmetic mean; 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        sum(xs) / xs.len() as f64
    }
}

/// Sample variance (denominator `n - 1`); 0.0 when `n < 2`.
pub fn variance(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(xs);
    kernels::sum_sq_dev(xs, m) / (n - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Sample skewness (Fisher-Pearson, bias-uncorrected); 0.0 for degenerate input.
pub fn skewness(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 3.0 {
        return 0.0;
    }
    let m = mean(xs);
    let m2 = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n;
    let m3 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n;
    if m2 <= 1e-300 {
        return 0.0;
    }
    m3 / m2.powf(1.5)
}

/// Excess kurtosis (normal distribution → 0); 0.0 for degenerate input.
pub fn kurtosis(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 4.0 {
        return 0.0;
    }
    let m = mean(xs);
    let m2 = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n;
    let m4 = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n;
    if m2 <= 1e-300 {
        return 0.0;
    }
    m4 / (m2 * m2) - 3.0
}

/// Minimum, ignoring NaNs; +inf for empty/all-NaN input.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().filter(|x| !x.is_nan()).fold(f64::INFINITY, f64::min)
}

/// Maximum, ignoring NaNs; -inf for empty/all-NaN input.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().filter(|x| !x.is_nan()).fold(f64::NEG_INFINITY, f64::max)
}

/// Euclidean (L2) distance between equal-length slices.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    kernels::squared_distance(a, b).sqrt()
}

/// Dot product of equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    kernels::dot(a, b)
}

/// L2 norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Index of the maximum element (first on ties); `None` for empty input.
pub fn argmax(xs: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &x) in xs.iter().enumerate() {
        if best.is_none_or(|(_, b)| x > b) {
            best = Some((i, x));
        }
    }
    best.map(|(i, _)| i)
}

/// In-place softmax, numerically stabilised by max subtraction.
pub fn softmax_inplace(xs: &mut [f64]) {
    if xs.is_empty() {
        return;
    }
    let m = max(xs);
    let mut z = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
        z += *x;
    }
    if z > 0.0 {
        for x in xs.iter_mut() {
            *x /= z;
        }
    }
}

/// Median of a sample (average of the middle two for even lengths);
/// 0.0 for empty input. NaNs are ignored.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Shannon entropy (nats) of a discrete distribution given as counts.
pub fn entropy_from_counts(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_moments() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(skewness(&[1.0, 2.0]), 0.0);
        assert_eq!(kurtosis(&[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(skewness(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn skewness_sign() {
        // Right-skewed sample has positive skewness.
        let right = [1.0, 1.0, 1.0, 2.0, 10.0];
        assert!(skewness(&right) > 0.5);
        let left = [10.0, 10.0, 10.0, 9.0, 1.0];
        assert!(skewness(&left) < -0.5);
    }

    #[test]
    fn kurtosis_of_uniformish_is_negative() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(kurtosis(&xs) < 0.0); // uniform excess kurtosis is -1.2
    }

    #[test]
    fn minmax_ignores_nan() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(min(&xs), 1.0);
        assert_eq!(max(&xs), 3.0);
    }

    #[test]
    fn distance_and_dot() {
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn argmax_ties_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut xs = [1.0, 2.0, 3.0];
        softmax_inplace(&mut xs);
        assert!((xs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_large_values_stable() {
        let mut xs = [1000.0, 1001.0];
        softmax_inplace(&mut xs);
        assert!(xs.iter().all(|x| x.is_finite()));
        assert!((xs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn empty_slices_are_defined() {
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(euclidean_distance(&[], &[]), 0.0);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn remainder_lengths_cover_every_lane_count() {
        // n % LANES in {0 .. LANES-1} for each chunked kernel, checked
        // against a serial reference within reassociation tolerance.
        for n in 1..=2 * crate::kernels::LANES + 1 {
            let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).sin() * 3.0).collect();
            let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos() * 3.0).collect();
            let serial_sum: f64 = xs.iter().sum();
            assert!((sum(&xs) - serial_sum).abs() <= 1e-12 * (1.0 + serial_sum.abs()), "sum n={n}");
            let serial_dot: f64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
            assert!((dot(&xs, &ys) - serial_dot).abs() <= 1e-12 * (1.0 + serial_dot.abs()), "dot n={n}");
            let serial_d2: f64 = xs.iter().zip(&ys).map(|(a, b)| (a - b) * (a - b)).sum();
            let d = euclidean_distance(&xs, &ys);
            assert!((d * d - serial_d2).abs() <= 1e-10 * (1.0 + serial_d2), "dist n={n}");
            if n >= 2 {
                let m = serial_sum / n as f64;
                let serial_var: f64 =
                    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
                assert!((variance(&xs) - serial_var).abs() <= 1e-12 * (1.0 + serial_var), "var n={n}");
            }
        }
    }

    #[test]
    fn non_finite_inputs_propagate() {
        assert!(sum(&[1.0, f64::NAN, 2.0]).is_nan());
        assert!(dot(&[f64::INFINITY, 1.0], &[1.0, 1.0]).is_infinite());
        assert!(dot(&[f64::INFINITY, 1.0], &[0.0, 1.0]).is_nan());
        assert!(mean(&[f64::NEG_INFINITY; 9]).is_infinite());
        assert!(variance(&[1.0, f64::NAN, 3.0]).is_nan());
        assert!(euclidean_distance(&[f64::INFINITY], &[0.0]).is_infinite());
        // min/max intentionally filter NaN rather than propagate it.
        assert_eq!(min(&[f64::NAN, 4.0]), 4.0);
        assert_eq!(max(&[f64::NAN, 4.0]), 4.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn length_mismatch_asserts_in_debug() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        assert!(catch_unwind(AssertUnwindSafe(|| dot(&[1.0, 2.0], &[1.0]))).is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| euclidean_distance(&[1.0], &[]))).is_err());
    }

    #[test]
    fn entropy_known() {
        // Uniform over 2 symbols = ln 2 nats.
        assert!((entropy_from_counts(&[5, 5]) - 2f64.ln().abs()).abs() < 1e-12);
        assert_eq!(entropy_from_counts(&[10, 0]), 0.0);
        assert_eq!(entropy_from_counts(&[]), 0.0);
    }
}
