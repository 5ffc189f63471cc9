//! Support vector machine (paper: the `e1071` R package wrapping libsvm;
//! 1 categorical parameter — the kernel — and 4 numeric: cost, gamma,
//! degree, coef0).
//!
//! Binary subproblems are trained with simplified SMO (Platt's algorithm in
//! the two-multiplier working-set form); multiclass uses one-vs-one voting,
//! the same decomposition libsvm/e1071 uses.

use super::encode::DenseEncoder;
use crate::api::{check_fit_preconditions, normalize_scores, Classifier, ClassifierError, TrainedModel};
use crate::params::ParamConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartml_data::Dataset;
use smartml_linalg::kernels;
use smartml_linalg::Matrix;

/// Kernel functions supported by e1071.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `u · v`
    Linear,
    /// `exp(-γ‖u−v‖²)`
    Radial,
    /// `(γ u·v + coef0)^degree`
    Polynomial,
    /// `tanh(γ u·v + coef0)`
    Sigmoid,
}

/// A configured SVM.
pub struct Svm {
    /// Kernel choice.
    pub kernel: Kernel,
    /// Soft-margin cost C.
    pub cost: f64,
    /// Kernel width γ.
    pub gamma: f64,
    /// Polynomial degree.
    pub degree: i64,
    /// Kernel offset coef0.
    pub coef0: f64,
}

impl Svm {
    /// Builds from a [`ParamConfig`] (`kernel`, `cost`, `gamma`, `degree`, `coef0`).
    pub fn from_config(config: &ParamConfig) -> Self {
        let kernel = match config.str_or("kernel", "radial") {
            "linear" => Kernel::Linear,
            "polynomial" => Kernel::Polynomial,
            "sigmoid" => Kernel::Sigmoid,
            _ => Kernel::Radial,
        };
        Svm {
            kernel,
            cost: config.f64_or("cost", 1.0).max(1e-6),
            gamma: config.f64_or("gamma", 0.1).max(1e-9),
            degree: config.i64_or("degree", 3).clamp(1, 10),
            coef0: config.f64_or("coef0", 0.0),
        }
    }

    fn kernel_eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let dot = kernels::dot(a, b);
        match self.kernel {
            Kernel::Linear => dot,
            Kernel::Radial => (-self.gamma * kernels::squared_distance(a, b)).exp(),
            Kernel::Polynomial => (self.gamma * dot + self.coef0).powi(self.degree as i32),
            Kernel::Sigmoid => (self.gamma * dot + self.coef0).tanh(),
        }
    }

    /// [`kernel_eval`](Svm::kernel_eval) over f32-stored rows — the opt-in
    /// reduced-precision kernel-matrix path (f32 lanes, f64 accumulators;
    /// see `smartml_linalg::kernels` for the documented error bound).
    fn kernel_eval_f32(&self, a: &[f32], b: &[f32]) -> f64 {
        let dot = kernels::dot_f32(a, b);
        match self.kernel {
            Kernel::Linear => dot,
            Kernel::Radial => (-self.gamma * kernels::squared_distance_f32(a, b)).exp(),
            Kernel::Polynomial => (self.gamma * dot + self.coef0).powi(self.degree as i32),
            Kernel::Sigmoid => (self.gamma * dot + self.coef0).tanh(),
        }
    }
}

/// One trained binary subproblem (classes `pos` vs `neg`).
struct BinarySvm {
    /// Indices into the stored support-vector matrix.
    sv_rows: Vec<usize>,
    /// α_i · y_i per support vector.
    alpha_y: Vec<f64>,
    bias: f64,
    pos: u32,
    neg: u32,
}

struct TrainedSvm {
    encoder: DenseEncoder,
    /// All training rows (kernel evaluations index into this).
    x: Matrix,
    machines: Vec<BinarySvm>,
    n_classes: usize,
    params: Svm,
}

impl Classifier for Svm {
    fn name(&self) -> &'static str {
        "SVM"
    }

    fn fit(&self, data: &Dataset, rows: &[usize]) -> Result<Box<dyn TrainedModel>, ClassifierError> {
        let n_classes = check_fit_preconditions("SVM", data, rows, 4)?;
        let (encoder, x) = DenseEncoder::fit(data, rows, true);
        let labels = data.labels_for(rows);
        // One-vs-one over the classes actually present.
        let counts = data.class_counts_for(rows);
        let present: Vec<u32> = (0..n_classes as u32)
            .filter(|&c| counts[c as usize] > 0)
            .collect();
        let mut machines = Vec::new();
        'pairs: for i in 0..present.len() {
            for j in (i + 1)..present.len() {
                // Expired trial: stop scheduling new binary subproblems
                // once at least one machine exists (a usable, if weaker,
                // one-vs-one committee).
                if !machines.is_empty() && smartml_runtime::faults::trial_should_stop() {
                    break 'pairs;
                }
                let (pos, neg) = (present[i], present[j]);
                let sub: Vec<usize> = (0..labels.len())
                    .filter(|&r| labels[r] == pos || labels[r] == neg)
                    .collect();
                let y: Vec<f64> = sub
                    .iter()
                    .map(|&r| if labels[r] == pos { 1.0 } else { -1.0 })
                    .collect();
                if let Some(machine) = smo_train(self, &x, &sub, &y, pos, neg) {
                    machines.push(machine);
                }
            }
        }
        if machines.is_empty() {
            return Err(ClassifierError::Numerical {
                algorithm: "SVM",
                detail: "no binary subproblem could be trained".into(),
            });
        }
        Ok(Box::new(TrainedSvm {
            encoder,
            x,
            machines,
            n_classes,
            params: Svm {
                kernel: self.kernel,
                cost: self.cost,
                gamma: self.gamma,
                degree: self.degree,
                coef0: self.coef0,
            },
        }))
    }
}

/// Simplified SMO on the rows `sub` of `x` with ±1 targets `y`.
fn smo_train(
    params: &Svm,
    x: &Matrix,
    sub: &[usize],
    y: &[f64],
    pos: u32,
    neg: u32,
) -> Option<BinarySvm> {
    let n = sub.len();
    if n < 2 {
        return None;
    }
    let kmat = kernel_matrix(params, x, sub);
    let (alpha, mut bias) = smo_solve(&kmat, y, params.cost, pair_seed(pos, neg));
    let mut sv_rows = Vec::new();
    let mut alpha_y = Vec::new();
    for (t, &a) in alpha.iter().enumerate() {
        if a > 1e-8 {
            sv_rows.push(sub[t]);
            alpha_y.push(a * y[t]);
        }
    }
    if sv_rows.is_empty() {
        // Degenerate solve: fall back to a bias-only machine voting for the
        // majority of this pair.
        let pos_count = y.iter().filter(|&&v| v > 0.0).count();
        bias = if pos_count * 2 >= n { 1.0 } else { -1.0 };
    }
    Some(BinarySvm { sv_rows, alpha_y, bias, pos, neg })
}

/// Seed of the SMO partner-selection stream for the pair `pos` vs `neg`.
fn pair_seed(pos: u32, neg: u32) -> u64 {
    0xD1CE ^ (pos as u64) << 16 ^ neg as u64
}

/// The symmetric kernel sub-matrix over the rows `sub` of `x`, row-major
/// (n ≤ a few hundred in this workspace). The O(n²·d) build dominates
/// small-trial cost, so it honours the opt-in f32 path: rows are rounded
/// once, kernels run on f32 lanes with f64 accumulators.
fn kernel_matrix(params: &Svm, x: &Matrix, sub: &[usize]) -> Vec<f64> {
    let n = sub.len();
    let mut kmat = vec![0.0f64; n * n];
    if kernels::use_f32_path() {
        let d = x.cols();
        let mut subx: Vec<f32> = Vec::with_capacity(n * d);
        for &r in sub {
            subx.extend(x.row(r).iter().map(|&v| v as f32));
        }
        for i in 0..n {
            for j in i..n {
                let v = params.kernel_eval_f32(&subx[i * d..(i + 1) * d], &subx[j * d..(j + 1) * d]);
                kmat[i * n + j] = v;
                kmat[j * n + i] = v;
            }
        }
    } else {
        for i in 0..n {
            for j in i..n {
                let v = params.kernel_eval(x.row(sub[i]), x.row(sub[j]));
                kmat[i * n + j] = v;
                kmat[j * n + i] = v;
            }
        }
    }
    kmat
}

/// The SMO iteration over a precomputed `n × n` kernel matrix: returns the
/// multipliers and the bias.
///
/// The decision function `f(i) = bias + Σ_t α_t·y_t·K(t, i)` is evaluated
/// twice per step, so it only walks the multipliers that are non-zero —
/// kept as an ascending index list with `α_t·y_t` cached beside it — and
/// reads row `i` of the symmetric matrix instead of column `i`. The terms
/// and their summation order are those of a full ascending scan that
/// skips zero multipliers, so the result is bit-identical to one (pinned
/// by `active_set_smo_is_bit_identical_to_the_full_scan`).
fn smo_solve(kmat: &[f64], y: &[f64], c: f64, seed: u64) -> (Vec<f64>, f64) {
    let n = y.len();
    let tol = 1e-3;
    let max_passes = 8;
    let max_total_iters = 300 * n; // hard cap keeps SMAC loops bounded
    let mut alpha = vec![0.0f64; n];
    let mut bias = 0.0f64;
    let mut rng = StdRng::seed_from_u64(seed);
    // Ascending indices `t` with `alpha[t] != 0.0`, and `alpha[t] * y[t]`.
    let mut active: Vec<usize> = Vec::new();
    let mut ay = vec![0.0f64; n];
    let f = |active: &[usize], ay: &[f64], bias: f64, i: usize| -> f64 {
        let row = &kmat[i * n..(i + 1) * n];
        let mut s = bias;
        for &t in active {
            s += ay[t] * row[t];
        }
        s
    };
    let mut passes = 0;
    let mut total = 0usize;
    while passes < max_passes && total < max_total_iters {
        // SMO converges monotonically, so an expired trial can stop after
        // any full pass and still hand back a consistent machine.
        if passes > 0 && smartml_runtime::faults::trial_should_stop() {
            break;
        }
        let mut changed = 0;
        for i in 0..n {
            total += 1;
            let ei = f(&active, &ay, bias, i) - y[i];
            if (y[i] * ei < -tol && alpha[i] < c) || (y[i] * ei > tol && alpha[i] > 0.0) {
                // Pick a random j ≠ i.
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = f(&active, &ay, bias, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if (y[i] - y[j]).abs() > 1e-12 {
                    ((aj_old - ai_old).max(0.0), (c + aj_old - ai_old).min(c))
                } else {
                    ((ai_old + aj_old - c).max(0.0), (ai_old + aj_old).min(c))
                };
                if hi - lo < 1e-12 {
                    continue;
                }
                let eta = 2.0 * kmat[i * n + j] - kmat[i * n + i] - kmat[j * n + j];
                if eta >= -1e-12 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                for (t, a) in [(i, ai), (j, aj)] {
                    alpha[t] = a;
                    ay[t] = a * y[t];
                    match (active.binary_search(&t), a != 0.0) {
                        (Err(at), true) => active.insert(at, t),
                        (Ok(at), false) => {
                            active.remove(at);
                        }
                        _ => {}
                    }
                }
                let b1 = bias - ei
                    - y[i] * (ai - ai_old) * kmat[i * n + i]
                    - y[j] * (aj - aj_old) * kmat[i * n + j];
                let b2 = bias - ej
                    - y[i] * (ai - ai_old) * kmat[i * n + j]
                    - y[j] * (aj - aj_old) * kmat[j * n + j];
                bias = if ai > 0.0 && ai < c {
                    b1
                } else if aj > 0.0 && aj < c {
                    b2
                } else {
                    0.5 * (b1 + b2)
                };
                changed += 1;
            }
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
    }
    (alpha, bias)
}

impl TrainedModel for TrainedSvm {
    fn predict_proba(&self, data: &Dataset, rows: &[usize]) -> Vec<Vec<f64>> {
        let xq = self.encoder.encode(data, rows);
        (0..xq.rows())
            .map(|q| {
                let qrow = xq.row(q);
                let mut votes = vec![0.0; self.n_classes];
                for m in &self.machines {
                    let mut score = m.bias;
                    for (&sv, &ay) in m.sv_rows.iter().zip(&m.alpha_y) {
                        score += ay * self.params.kernel_eval(self.x.row(sv), qrow);
                    }
                    if score >= 0.0 {
                        votes[m.pos as usize] += 1.0;
                    } else {
                        votes[m.neg as usize] += 1.0;
                    }
                }
                normalize_scores(votes)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smartml_data::accuracy;
    use smartml_data::synth::{gaussian_blobs, two_spirals};

    fn holdout(clf: &Svm, d: &Dataset) -> f64 {
        let (train, test): (Vec<usize>, Vec<usize>) = (0..d.n_rows()).partition(|i| i % 2 == 0);
        let model = clf.fit(d, &train).unwrap();
        accuracy(&d.labels_for(&test), &model.predict(d, &test))
    }

    fn rbf() -> Svm {
        Svm { kernel: Kernel::Radial, cost: 1.0, gamma: 0.5, degree: 3, coef0: 0.0 }
    }

    #[test]
    fn linear_kernel_separable_blobs() {
        let d = gaussian_blobs("b", 200, 3, 2, 0.5, 1);
        let svm = Svm { kernel: Kernel::Linear, ..rbf() };
        assert!(holdout(&svm, &d) > 0.9);
    }

    #[test]
    fn rbf_solves_spirals() {
        let d = two_spirals("s", 300, 0.05, 2);
        let svm = Svm { gamma: 1.0, cost: 10.0, ..rbf() };
        let acc = holdout(&svm, &d);
        assert!(acc > 0.8, "acc {acc}");
    }

    #[test]
    fn multiclass_one_vs_one() {
        let d = gaussian_blobs("b", 240, 4, 4, 0.6, 3);
        let acc = holdout(&rbf(), &d);
        assert!(acc > 0.8, "acc {acc}");
    }

    #[test]
    fn polynomial_and_sigmoid_run() {
        let d = gaussian_blobs("b", 120, 3, 2, 0.8, 4);
        let poly = Svm { kernel: Kernel::Polynomial, gamma: 0.05, cost: 1.0, coef0: 1.0, degree: 2 };
        assert!(holdout(&poly, &d) > 0.6, "poly acc {}", holdout(&poly, &d));
        // Sigmoid kernels are notoriously fragile; require validity plus
        // not-catastrophic accuracy only.
        let sig = Svm { kernel: Kernel::Sigmoid, coef0: 1.0, ..rbf() };
        assert!(holdout(&sig, &d) >= 0.4, "sigmoid acc {}", holdout(&sig, &d));
    }

    #[test]
    fn probabilities_valid() {
        let d = gaussian_blobs("b", 90, 2, 3, 1.0, 5);
        let rows = d.all_rows();
        let model = rbf().fit(&d, &rows).unwrap();
        for p in model.predict_proba(&d, &rows) {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn from_config_parses_kernel() {
        let cfg = ParamConfig::default().with("kernel", crate::params::ParamValue::Cat("linear".into()));
        assert_eq!(Svm::from_config(&cfg).kernel, Kernel::Linear);
        assert_eq!(Svm::from_config(&ParamConfig::default()).kernel, Kernel::Radial);
    }

    /// The solver as it was before the active set: `f(i)` scans every
    /// multiplier behind an `a != 0.0` branch and reads the kernel matrix
    /// by column. Kept only as the bit-identity oracle for [`smo_solve`].
    fn smo_solve_full_scan(kmat: &[f64], y: &[f64], c: f64, seed: u64) -> (Vec<f64>, f64) {
        let n = y.len();
        let tol = 1e-3;
        let max_passes = 8;
        let max_total_iters = 300 * n;
        let mut alpha = vec![0.0f64; n];
        let mut bias = 0.0f64;
        let mut rng = StdRng::seed_from_u64(seed);
        let f = |alpha: &[f64], bias: f64, i: usize| -> f64 {
            let mut s = bias;
            for (t, &a) in alpha.iter().enumerate() {
                if a != 0.0 {
                    s += a * y[t] * kmat[t * n + i];
                }
            }
            s
        };
        let mut passes = 0;
        let mut total = 0usize;
        while passes < max_passes && total < max_total_iters {
            let mut changed = 0;
            for i in 0..n {
                total += 1;
                let ei = f(&alpha, bias, i) - y[i];
                if (y[i] * ei < -tol && alpha[i] < c) || (y[i] * ei > tol && alpha[i] > 0.0) {
                    let mut j = rng.gen_range(0..n - 1);
                    if j >= i {
                        j += 1;
                    }
                    let ej = f(&alpha, bias, j) - y[j];
                    let (ai_old, aj_old) = (alpha[i], alpha[j]);
                    let (lo, hi) = if (y[i] - y[j]).abs() > 1e-12 {
                        ((aj_old - ai_old).max(0.0), (c + aj_old - ai_old).min(c))
                    } else {
                        ((ai_old + aj_old - c).max(0.0), (ai_old + aj_old).min(c))
                    };
                    if hi - lo < 1e-12 {
                        continue;
                    }
                    let eta = 2.0 * kmat[i * n + j] - kmat[i * n + i] - kmat[j * n + j];
                    if eta >= -1e-12 {
                        continue;
                    }
                    let mut aj = aj_old - y[j] * (ei - ej) / eta;
                    aj = aj.clamp(lo, hi);
                    if (aj - aj_old).abs() < 1e-7 {
                        continue;
                    }
                    let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                    alpha[i] = ai;
                    alpha[j] = aj;
                    let b1 = bias - ei
                        - y[i] * (ai - ai_old) * kmat[i * n + i]
                        - y[j] * (aj - aj_old) * kmat[i * n + j];
                    let b2 = bias - ej
                        - y[i] * (ai - ai_old) * kmat[i * n + j]
                        - y[j] * (aj - aj_old) * kmat[j * n + j];
                    bias = if ai > 0.0 && ai < c {
                        b1
                    } else if aj > 0.0 && aj < c {
                        b2
                    } else {
                        0.5 * (b1 + b2)
                    };
                    changed += 1;
                }
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }
        (alpha, bias)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every one-vs-one subproblem of a random dataset, under every
        /// kernel and seven decades of cost: the active-set solver returns
        /// the multipliers and bias of the full scan, bit for bit.
        #[test]
        fn active_set_smo_is_bit_identical_to_the_full_scan(
            kernel in 0usize..4,
            n_classes in 2usize..6,
            log_cost in -3.0..3.0f64,
            log_gamma in -3.0..1.0f64,
            spread in 0.3..2.5f64,
            data_seed in 0u64..1_000,
        ) {
            let kernel = [Kernel::Linear, Kernel::Radial, Kernel::Polynomial, Kernel::Sigmoid][kernel];
            let params = Svm {
                kernel,
                cost: 10f64.powf(log_cost),
                gamma: 10f64.powf(log_gamma),
                degree: 3,
                coef0: 0.5,
            };
            let d = gaussian_blobs("p", 30 * n_classes, 4, n_classes, spread, data_seed);
            let rows = d.all_rows();
            let (_, x) = DenseEncoder::fit(&d, &rows, true);
            let labels = d.labels_for(&rows);
            for pos in 0..n_classes as u32 {
                for neg in pos + 1..n_classes as u32 {
                    let sub: Vec<usize> =
                        (0..labels.len()).filter(|&r| labels[r] == pos || labels[r] == neg).collect();
                    let y: Vec<f64> =
                        sub.iter().map(|&r| if labels[r] == pos { 1.0 } else { -1.0 }).collect();
                    let kmat = kernel_matrix(&params, &x, &sub);
                    let seed = pair_seed(pos, neg);
                    let (alpha, bias) = smo_solve(&kmat, &y, params.cost, seed);
                    let (want_alpha, want_bias) = smo_solve_full_scan(&kmat, &y, params.cost, seed);
                    prop_assert_eq!(bias.to_bits(), want_bias.to_bits());
                    prop_assert_eq!(
                        alpha.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
                        want_alpha.iter().map(|a| a.to_bits()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn too_few_rows_rejected() {
        let d = gaussian_blobs("b", 10, 2, 2, 0.5, 6);
        assert!(rbf().fit(&d, &[0, 1]).is_err());
    }
}
