//! SIMD-friendly compute kernels: the explicitly-vectorizable primitive
//! layer under the classifiers, histograms, and dense linear algebra.
//!
//! Every kernel here is written for *autovectorization*, not intrinsics:
//! flat slices, fixed-width [`LANES`]-chunked loops with scalar remainders,
//! and no data-dependent branches in the hot loop. The compiler maps the
//! independent lane accumulators onto SIMD registers on any target; the
//! code itself stays portable, `unsafe`-free, and dependency-free.
//!
//! # Determinism policy
//!
//! There is one numerics path. No process-wide switch selects another
//! accumulation order or precision, so the same input gives the same bits
//! in every run, test thread and job-service tenant of a process.
//!
//! - **Reduction kernels** ([`dot`], [`sum`], [`sum_sq_dev`],
//!   [`squared_distance`], [`pearson_sums`]) accumulate into [`LANES`]
//!   independent lanes and combine them with a *fixed pairwise reduction
//!   tree* ([`reduce8`]), followed by the scalar remainder. The operation
//!   sequence is fully determined by the input length — never by codegen,
//!   target CPU, or thread count — so results are bit-identical across
//!   builds and `-C target-cpu` settings (Rust never licenses FP
//!   reassociation or contraction). They are *not* bit-identical to the
//!   serial left-to-right order; that order survives only as the test-only
//!   `scalar` oracle module, which the unit proptests hold every reduction
//!   to within a reassociation tolerance.
//! - **Elementwise kernels** ([`axpy`], [`add_assign`], [`sub_assign`],
//!   [`momentum_update`]) perform one independent FP expression per element;
//!   vectorizing them cannot change any result, so they are bit-identical
//!   to the plain statements they replace by construction.
//! - **Bounded kernel** ([`squared_distance_within`]) is
//!   [`squared_distance`] with one compare per chunk that gives up once
//!   the partial sum reaches a caller's bound; when it finishes, its
//!   result has [`squared_distance`]'s bits. It is the only kernel with a
//!   data-dependent branch, and the branch sits between chunks, not in
//!   the lane loop.
//!
//! # Adding a kernel
//!
//! 1. Write the serial reference into the `#[cfg(test)]` `scalar` module
//!    first — it is the oracle the unit proptests compare against.
//! 2. Write the kernel as a `chunks_exact(LANES)` loop with per-lane
//!    accumulators plus a scalar tail, reducing via [`reduce8`]. Keep the
//!    loop free of branches and of anything the optimizer cannot hoist.
//! 3. Add a tolerance proptest against the oracle to the crate's
//!    `kernel_equiv` unit tests, across remainder lengths
//!    (`n % LANES != 0`), and a hard-coded bit pattern to the
//!    codegen-invariance test in `crates/linalg/tests/kernel_equiv.rs`.

/// Chunk width of every vectorized loop. Eight f64 lanes fill two AVX2
/// registers (or four SSE2 registers) and give the adder enough
/// independent chains to hide FP latency even without wide SIMD.
pub const LANES: usize = 8;

/// Fixed pairwise reduction of the eight lane accumulators. The tree shape
/// is part of the determinism contract — do not "simplify" it into a fold.
#[inline(always)]
fn reduce8(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// Dot product with lane-chunked accumulation.
///
/// Slices must be equal length (`debug_assert`ed; release builds compute
/// over the common prefix).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; LANES];
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0;
    for (x, y) in ra.iter().zip(rb) {
        tail += x * y;
    }
    reduce8(acc) + tail
}

/// Squared Euclidean distance with lane-chunked accumulation.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "squared_distance length mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; LANES];
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ra.iter().zip(rb) {
        let d = x - y;
        tail += d * d;
    }
    reduce8(acc) + tail
}

/// [`squared_distance`], abandoned once it cannot come in under `bound`:
/// `None` when the squared distance is `>= bound`, otherwise `Some` of
/// exactly [`squared_distance`]'s bits (`bound = +∞` gives `Some` for
/// every finite distance).
///
/// Same chunks, lanes, reduction tree and tail as [`squared_distance`];
/// after each chunk it gives up if `reduce8(acc) >= bound`. That partial
/// reduction is a lower bound on the result: every term is `>= 0` and
/// round-to-nearest addition is monotone, so each lane only grows,
/// [`reduce8`] is monotone in each lane, and the tail adds a value
/// `>= 0`. The early exit is therefore exact, never a guess.
#[inline]
pub fn squared_distance_within(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len(), "squared_distance_within length mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; LANES];
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
        if reduce8(acc) >= bound {
            return None;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ra.iter().zip(rb) {
        let d = x - y;
        tail += d * d;
    }
    let total = reduce8(acc) + tail;
    if total >= bound {
        None
    } else {
        Some(total)
    }
}

/// Sum with lane-chunked accumulation.
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = xs.chunks_exact(LANES);
    let rem = chunks.remainder();
    for c in chunks {
        for l in 0..LANES {
            acc[l] += c[l];
        }
    }
    let mut tail = 0.0;
    for &x in rem {
        tail += x;
    }
    reduce8(acc) + tail
}

/// Sum of squared deviations `Σ (x - m)²` with lane-chunked accumulation
/// (the second pass of a two-pass variance).
#[inline]
pub fn sum_sq_dev(xs: &[f64], m: f64) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = xs.chunks_exact(LANES);
    let rem = chunks.remainder();
    for c in chunks {
        for l in 0..LANES {
            let d = c[l] - m;
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for &x in rem {
        let d = x - m;
        tail += d * d;
    }
    reduce8(acc) + tail
}

/// Fused Pearson accumulator: `(Σ dx·dy, Σ dx², Σ dy²)` for
/// `dx = a[i] - ma`, `dy = b[i] - mb`, with lane-chunked accumulation.
#[inline]
pub fn pearson_sums(a: &[f64], b: &[f64], ma: f64, mb: f64) -> (f64, f64, f64) {
    debug_assert_eq!(a.len(), b.len(), "pearson_sums length mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut sab = [0.0f64; LANES];
    let mut saa = [0.0f64; LANES];
    let mut sbb = [0.0f64; LANES];
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for l in 0..LANES {
            let dx = xa[l] - ma;
            let dy = xb[l] - mb;
            sab[l] += dx * dy;
            saa[l] += dx * dx;
            sbb[l] += dy * dy;
        }
    }
    let (mut tab, mut taa, mut tbb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(rb) {
        let dx = x - ma;
        let dy = y - mb;
        tab += dx * dy;
        taa += dx * dx;
        tbb += dy * dy;
    }
    (reduce8(sab) + tab, reduce8(saa) + taa, reduce8(sbb) + tbb)
}

/// `y[i] += a * x[i]` — elementwise, so vectorized and scalar forms are
/// bit-identical.
#[inline]
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// `y[i] += x[i]` — elementwise.
#[inline]
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    debug_assert_eq!(y.len(), x.len(), "add_assign length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += xv;
    }
}

/// `y[i] -= x[i]` — elementwise.
#[inline]
pub fn sub_assign(y: &mut [f64], x: &[f64]) {
    debug_assert_eq!(y.len(), x.len(), "sub_assign length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv -= xv;
    }
}

/// Fused SGD-with-momentum step over one weight row:
/// `g' = g*scale + decay*w; v = momentum*v - lr*g'; w += v` — elementwise,
/// bit-identical to the separate scalar statements it replaces.
#[inline]
pub fn momentum_update(
    w: &mut [f64],
    v: &mut [f64],
    g: &[f64],
    scale: f64,
    decay: f64,
    lr: f64,
    momentum: f64,
) {
    debug_assert!(w.len() == v.len() && v.len() == g.len(), "momentum_update length mismatch");
    for ((wv, vv), &gv) in w.iter_mut().zip(v.iter_mut()).zip(g) {
        let grad = gv * scale + decay * *wv;
        *vv = momentum * *vv - lr * grad;
        *wv += *vv;
    }
}

/// The serial-order reductions the kernels replaced: single accumulator,
/// strict left-to-right order. Test-only oracles — the unit proptests hold
/// the lane-order kernels to them within a reassociation tolerance. The
/// serial loop carries a loop-borne FP dependency, so the compiler cannot
/// vectorize it.
#[cfg(test)]
pub(crate) mod scalar {
    /// Serial-order dot product.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Serial-order squared Euclidean distance.
    pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Serial-order sum.
    pub fn sum(xs: &[f64]) -> f64 {
        xs.iter().sum()
    }

    /// Serial-order sum of squared deviations.
    pub fn sum_sq_dev(xs: &[f64], m: f64) -> f64 {
        xs.iter().map(|x| (x - m) * (x - m)).sum()
    }

    /// Serial-order interleaved Pearson sums.
    pub fn pearson_sums(a: &[f64], b: &[f64], ma: f64, mb: f64) -> (f64, f64, f64) {
        let (mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0);
        for (&x, &y) in a.iter().zip(b) {
            let dx = x - ma;
            let dy = y - mb;
            sab += dx * dy;
            saa += dx * dx;
            sbb += dy * dy;
        }
        (sab, saa, sbb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, salt: u64) -> Vec<f64> {
        // SplitMix-ish deterministic values in [-8, 8).
        (0..n as u64)
            .map(|i| {
                let mut z = i.wrapping_add(salt).wrapping_mul(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                ((z >> 11) as f64 / (1u64 << 53) as f64) * 16.0 - 8.0
            })
            .collect()
    }

    #[test]
    fn dot_matches_scalar_within_reassociation_tolerance() {
        for n in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let a = seq(n, 1);
            let b = seq(n, 2);
            let fast = dot(&a, &b);
            let slow = scalar::dot(&a, &b);
            assert!((fast - slow).abs() <= 1e-10 * (1.0 + slow.abs()), "n={n}: {fast} vs {slow}");
        }
    }

    #[test]
    fn squared_distance_nonnegative_and_close_to_scalar() {
        for n in [3, 8, 17, 256] {
            let a = seq(n, 3);
            let b = seq(n, 4);
            let fast = squared_distance(&a, &b);
            assert!(fast >= 0.0);
            let slow = scalar::squared_distance(&a, &b);
            assert!((fast - slow).abs() <= 1e-10 * (1.0 + slow.abs()));
        }
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(squared_distance(&[], &[]), 0.0);
        assert_eq!(sum_sq_dev(&[], 1.0), 0.0);
    }

    #[test]
    fn elementwise_kernels_match_reference() {
        let x = seq(37, 9);
        let mut y = seq(37, 10);
        let mut y2 = y.clone();
        axpy(&mut y, 1.5, &x);
        for (v, &xv) in y2.iter_mut().zip(&x) {
            *v += 1.5 * xv;
        }
        assert_eq!(y, y2);
        let mut w = seq(21, 11);
        let mut v = seq(21, 12);
        let g = seq(21, 13);
        let (mut w2, mut v2) = (w.clone(), v.clone());
        momentum_update(&mut w, &mut v, &g, 0.1, 1e-4, 0.2, 0.9);
        for i in 0..21 {
            let grad = g[i] * 0.1 + 1e-4 * w2[i];
            v2[i] = 0.9 * v2[i] - 0.2 * grad;
            w2[i] += v2[i];
        }
        assert_eq!(w, w2);
        assert_eq!(v, v2);
    }
}
