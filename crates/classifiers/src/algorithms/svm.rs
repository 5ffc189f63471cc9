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
use smartml_obs::Counter;

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
        match self.kernel {
            Kernel::Linear => kernels::dot(a, b),
            Kernel::Radial => (-self.gamma * kernels::squared_distance(a, b)).exp(),
            Kernel::Polynomial => {
                (self.gamma * kernels::dot(a, b) + self.coef0).powi(self.degree as i32)
            }
            Kernel::Sigmoid => (self.gamma * kernels::dot(a, b) + self.coef0).tanh(),
        }
    }
}

/// One trained binary subproblem (classes `pos` vs `neg`).
struct BinarySvm {
    /// Rows of [`TrainedSvm::x`] (of the training matrix until `fit` has
    /// gathered the support rows).
    sv_rows: Vec<usize>,
    /// α_i · y_i per support vector.
    alpha_y: Vec<f64>,
    bias: f64,
    pos: u32,
    neg: u32,
}

struct TrainedSvm {
    encoder: DenseEncoder,
    /// The distinct training rows some machine holds as a support vector.
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
        // A row is a support vector of up to `k − 1` machines: keep each once
        // and point the machines at the kept copy, so a query's kernel value
        // against it is evaluated once.
        let mut support: Vec<usize> = machines.iter().flat_map(|m| m.sv_rows.iter().copied()).collect();
        support.sort_unstable();
        support.dedup();
        for m in &mut machines {
            for r in &mut m.sv_rows {
                *r = support.binary_search(r).expect("the union holds every machine's rows");
            }
        }
        let mut x_support = Vec::with_capacity(support.len() * x.cols());
        for &r in &support {
            x_support.extend_from_slice(x.row(r));
        }
        Ok(Box::new(TrainedSvm {
            encoder,
            x: Matrix::from_vec(support.len(), x.cols(), x_support),
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
/// small-trial cost.
fn kernel_matrix(params: &Svm, x: &Matrix, sub: &[usize]) -> Vec<f64> {
    let n = sub.len();
    let mut kmat = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i..n {
            let v = params.kernel_eval(x.row(sub[i]), x.row(sub[j]));
            kmat[i * n + j] = v;
            kmat[j * n + i] = v;
        }
    }
    kmat
}

/// KKT tolerance of the simplified SMO.
const TOL: f64 = 1e-3;
/// A clamped step shorter than this leaves the pair as it is.
const MIN_STEP: f64 = 1e-7;
/// Accumulated update rounding at which `approx` is re-summed exactly.
const RESYNC_DRIFT: f64 = TOL / 64.0;
/// Rounding of the exact sum itself beyond which too few checks could be
/// decided for the filter to pay for its upkeep (high-degree polynomial
/// kernels): it is switched off for the rest of the solve.
const FILTER_OFF_ROUNDING: f64 = 1e-4;

static KKT_CHECKS: Counter = Counter::new("classifiers.svm.kkt_checks");
static EXACT_SUMS: Counter = Counter::new("classifiers.svm.exact_sums");
static SKIPPED_STEPS: Counter = Counter::new("classifiers.svm.skipped_steps");
static RESYNCS: Counter = Counter::new("classifiers.svm.resyncs");
static FILTER_OFF: Counter = Counter::new("classifiers.svm.filter_off");

/// What one solve did; a pure function of its arguments, booked into the
/// `classifiers.svm.*` counters once when it returns.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct SolveStats {
    /// Rows whose KKT conditions were checked.
    kkt_checks: u64,
    /// Exact evaluations of `f` on the check/step path (a resync adds `n`
    /// more, counted under `resyncs`).
    exact_sums: u64,
    /// Attempted steps the filter proved shorter than [`MIN_STEP`].
    skipped_steps: u64,
    /// Exact re-summations of the whole decision vector.
    resyncs: u64,
    /// The solve ended with the filter off.
    filter_off: bool,
}

/// The two ways row `i` can violate its KKT conditions, for `r = y_i·e_i`
/// and multiplier `a`; each is monotone in `r`.
fn kkt_violations(r: f64, a: f64, c: f64) -> (bool, bool) {
    (r < -TOL && a < c, r > TOL && a > 0.0)
}

fn is_violator(r: f64, a: f64, c: f64) -> bool {
    let (below, above) = kkt_violations(r, a, c);
    below || above
}

/// The decision function `f(t) = bias + Σ_s α_s·y_s·K(s, t)` of a solve in
/// progress, twice.
///
/// [`exact`](Self::exact) is the sum over the non-zero multipliers in
/// ascending order — the value every multiplier and bias update is
/// computed from. `approx[t]` follows `f(t)` for all `t` at once, moved
/// after each step by one contiguous two-row AXPY, and is used **only to
/// decide**, never to compute — a floating-point filter, as in exact
/// geometric predicates. `radius` is a proven bound: the exact sum lies in
/// `approx[t] ± radius` (DESIGN.md "SMO decision filter" derives it), and
/// subtraction, division, clamping and comparison are all monotone under
/// rounding, so a predicate that comes out the same at both ends of the
/// interval has that value at the exact sum too. Anything else — and every
/// error a step is computed from — is summed exactly, which keeps `alpha`,
/// `bias` and the partner stream bit-identical to a solver with no filter.
struct DecisionFunction<'a> {
    kmat: &'a [f64],
    n: usize,
    /// Ascending indices `t` with `alpha[t] != 0.0`, and `alpha[t] * y[t]`.
    active: Vec<usize>,
    ay: Vec<f64>,
    bias: f64,
    /// `false`: every check is summed exactly, as if there were no filter.
    filter_on: bool,
    approx: Vec<f64>,
    /// `n · C · max|K|`, which no `Σ_s |α_s·y_s·K(s, t)|` exceeds.
    spread: f64,
    /// Largest `|bias|` since `approx` was last summed exactly.
    bias_max: f64,
    /// Rounding the AXPY updates have added to `approx` since then.
    drift: f64,
    radius: f64,
    resync_drift: f64,
    stats: SolveStats,
}

impl<'a> DecisionFunction<'a> {
    /// All multipliers and the bias zero: `approx = 0` is exact.
    fn new(kmat: &'a [f64], n: usize, c: f64, resync_drift: f64) -> Self {
        // A non-finite entry makes `0·K` a NaN the exact sum skips and an
        // AXPY would not: counted as infinite, it switches the filter off.
        let max_k = kmat.iter().fold(0.0f64, |m, k| m.max(if k.is_nan() { f64::INFINITY } else { k.abs() }));
        let mut f = DecisionFunction {
            kmat,
            n,
            active: Vec::new(),
            ay: vec![0.0; n],
            bias: 0.0,
            filter_on: true,
            approx: vec![0.0; n],
            spread: n as f64 * c * max_k,
            bias_max: 0.0,
            drift: 0.0,
            radius: 0.0,
            resync_drift,
            stats: SolveStats::default(),
        };
        f.rebound();
        f
    }

    /// `radius` from `drift` and the magnitudes summed. `rounding` bounds
    /// the distance of an exact sum from its real-arithmetic value (at
    /// most `n + 1` roundings of partial sums within `bias_max + spread`,
    /// `EPSILON` being twice the unit roundoff). `approx[t]` is within
    /// `drift + rounding` of that real value, so within `drift +
    /// 2·rounding` of the exact sum; doubling leaves room for the rounding
    /// of `approx[t] ± radius` itself, and the smallest normal number for
    /// every underflow a solve can meet.
    fn rebound(&mut self) {
        let rounding = (self.n + 2) as f64 * f64::EPSILON * (self.bias_max + self.spread);
        self.radius = 2.0 * (self.drift + 2.0 * rounding) + f64::MIN_POSITIVE;
        // Off for good, and a NaN bound compares false too.
        self.filter_on = self.filter_on && rounding <= FILTER_OFF_ROUNDING;
    }

    fn sum(&self, t: usize) -> f64 {
        let row = &self.kmat[t * self.n..(t + 1) * self.n];
        let mut s = self.bias;
        for &a in &self.active {
            s += self.ay[a] * row[a];
        }
        s
    }

    /// `f(t)` summed exactly; `approx[t]` takes the value, which is as
    /// close to the real sum as the bound assumes of any entry.
    fn exact(&mut self, t: usize) -> f64 {
        let s = self.sum(t);
        self.stats.exact_sums += 1;
        if self.filter_on {
            debug_assert!((self.approx[t] - s).abs() <= 0.5 * self.radius, "decision filter bound broken");
            self.approx[t] = s;
        }
        s
    }

    /// An interval that holds the exact `e_t = f(t) − y_t`.
    fn error_bounds(&self, t: usize, y_t: f64) -> (f64, f64) {
        (self.approx[t] - self.radius - y_t, self.approx[t] + self.radius - y_t)
    }

    /// Whether row `i` violates its KKT conditions, when `approx` can tell.
    fn violates(&self, i: usize, y_i: f64, a: f64, c: f64) -> Option<bool> {
        if !self.filter_on {
            return None;
        }
        let (e_lo, e_hi) = self.error_bounds(i, y_i);
        let at_lo = kkt_violations(y_i * e_lo, a, c);
        let decided = (at_lo == kkt_violations(y_i * e_hi, a, c)).then_some(at_lo.0 || at_lo.1);
        debug_assert!(
            decided.is_none_or(|v| v == is_violator(y_i * (self.sum(i) - y_i), a, c)),
            "filtered KKT check disagrees with the exact sum"
        );
        decided
    }

    /// True when `approx` proves `negligible(e_i − e_j)` for the exact
    /// errors. `negligible` must hold everywhere between two arguments it
    /// holds at — here: a clamped step is shorter than [`MIN_STEP`].
    fn step_is_negligible(&mut self, i: usize, j: usize, y: &[f64], negligible: impl Fn(f64) -> bool) -> bool {
        if !self.filter_on {
            return false;
        }
        let (ei_lo, ei_hi) = self.error_bounds(i, y[i]);
        let (ej_lo, ej_hi) = self.error_bounds(j, y[j]);
        let skip = negligible(ei_lo - ej_hi) && negligible(ei_hi - ej_lo);
        if skip {
            self.stats.skipped_steps += 1;
            debug_assert!(
                negligible((self.sum(i) - y[i]) - (self.sum(j) - y[j])),
                "filtered step disagrees with the exact sums"
            );
        }
        skip
    }

    /// Installs the outcome of a step on the pair `(i, j)`: their new
    /// `α·y` and the new bias.
    fn commit(&mut self, (i, ay_i): (usize, f64), (j, ay_j): (usize, f64), bias: f64) {
        let (di, dj, db) = (ay_i - self.ay[i], ay_j - self.ay[j], bias - self.bias);
        for (t, v) in [(i, ay_i), (j, ay_j)] {
            self.ay[t] = v;
            match (self.active.binary_search(&t), v != 0.0) {
                (Err(at), true) => self.active.insert(at, t),
                (Ok(at), false) => {
                    self.active.remove(at);
                }
                _ => {}
            }
        }
        self.bias = bias;
        if !self.filter_on {
            return;
        }
        let n = self.n;
        let (ki, kj) = (&self.kmat[i * n..(i + 1) * n], &self.kmat[j * n..(j + 1) * n]);
        for ((a, &ki), &kj) in self.approx.iter_mut().zip(ki).zip(kj) {
            *a += di * ki + dj * kj + db;
        }
        // Three roundings in the deltas and five per entry, each relative
        // to a term within the magnitudes summed: under `5u·(bias_max +
        // spread)` in all for `n ≥ 2`, charged as `8u`.
        self.bias_max = self.bias_max.max(bias.abs());
        self.drift += 4.0 * f64::EPSILON * (self.bias_max + self.spread);
        if self.drift > self.resync_drift {
            for t in 0..n {
                self.approx[t] = self.sum(t);
            }
            self.drift = 0.0;
            self.bias_max = bias.abs();
            self.stats.resyncs += 1;
        }
        self.rebound();
    }
}

/// The SMO iteration over a precomputed `n × n` kernel matrix, `y = ±1`:
/// returns the multipliers and the bias.
fn smo_solve(kmat: &[f64], y: &[f64], c: f64, seed: u64) -> (Vec<f64>, f64) {
    let (alpha, bias, stats) = smo_solve_filtered(kmat, y, c, seed, RESYNC_DRIFT);
    KKT_CHECKS.add(stats.kkt_checks);
    EXACT_SUMS.add(stats.exact_sums);
    SKIPPED_STEPS.add(stats.skipped_steps);
    RESYNCS.add(stats.resyncs);
    FILTER_OFF.add(stats.filter_off as u64);
    (alpha, bias)
}

/// [`smo_solve`] with the resync threshold exposed (tests force the resync
/// path with a tiny one) and the solve's counts returned.
///
/// Every value that reaches `alpha` or `bias` comes from
/// [`DecisionFunction::exact`], whose terms and summation order are those
/// of a full ascending scan that skips zero multipliers, so the result is
/// bit-identical to one (pinned by
/// `filtered_smo_is_bit_identical_to_the_full_scan`).
fn smo_solve_filtered(kmat: &[f64], y: &[f64], c: f64, seed: u64, resync_drift: f64) -> (Vec<f64>, f64, SolveStats) {
    let n = y.len();
    let max_passes = 8;
    let max_total_iters = 300 * n; // hard cap keeps SMAC loops bounded
    let mut alpha = vec![0.0f64; n];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut f = DecisionFunction::new(kmat, n, c, resync_drift);
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
            let mut ei = None;
            let violator = f.violates(i, y[i], alpha[i], c).unwrap_or_else(|| {
                let e = f.exact(i) - y[i];
                ei = Some(e);
                is_violator(y[i] * e, alpha[i], c)
            });
            if !violator {
                continue;
            }
            // Pick a random j ≠ i.
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
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
            let clamped = |d: f64| (aj_old - y[j] * d / eta).clamp(lo, hi);
            if f.step_is_negligible(i, j, y, |d| (clamped(d) - aj_old).abs() < MIN_STEP) {
                continue;
            }
            let ei = ei.unwrap_or_else(|| f.exact(i) - y[i]);
            let ej = f.exact(j) - y[j];
            let aj = clamped(ei - ej);
            if (aj - aj_old).abs() < MIN_STEP {
                continue;
            }
            let ai = ai_old + y[i] * y[j] * (aj_old - aj);
            alpha[i] = ai;
            alpha[j] = aj;
            let b1 = f.bias - ei
                - y[i] * (ai - ai_old) * kmat[i * n + i]
                - y[j] * (aj - aj_old) * kmat[i * n + j];
            let b2 = f.bias - ej
                - y[i] * (ai - ai_old) * kmat[i * n + j]
                - y[j] * (aj - aj_old) * kmat[j * n + j];
            let bias = if ai > 0.0 && ai < c {
                b1
            } else if aj > 0.0 && aj < c {
                b2
            } else {
                0.5 * (b1 + b2)
            };
            f.commit((i, ai * y[i]), (j, aj * y[j]), bias);
            changed += 1;
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
    }
    let stats = SolveStats { kkt_checks: total as u64, filter_off: !f.filter_on, ..f.stats };
    (alpha, f.bias, stats)
}

impl TrainedModel for TrainedSvm {
    fn predict_proba(&self, data: &Dataset, rows: &[usize]) -> Vec<Vec<f64>> {
        let xq = self.encoder.encode(data, rows);
        let mut kq = vec![0.0; self.x.rows()];
        (0..xq.rows())
            .map(|q| {
                let qrow = xq.row(q);
                for (s, k) in kq.iter_mut().enumerate() {
                    *k = self.params.kernel_eval(self.x.row(s), qrow);
                }
                let mut votes = vec![0.0; self.n_classes];
                for m in &self.machines {
                    let mut score = m.bias;
                    for (&sv, &ay) in m.sv_rows.iter().zip(&m.alpha_y) {
                        score += ay * kq[sv];
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

    /// The solver as it was before the active set and the decision filter:
    /// `f(i)` scans every multiplier behind an `a != 0.0` branch and reads
    /// the kernel matrix by column. Kept only as the bit-identity oracle for
    /// [`smo_solve_filtered`]; also counts its evaluations of `f`.
    fn smo_solve_full_scan(kmat: &[f64], y: &[f64], c: f64, seed: u64) -> (Vec<f64>, f64, u64) {
        let n = y.len();
        let tol = 1e-3;
        let max_passes = 8;
        let max_total_iters = 300 * n;
        let mut alpha = vec![0.0f64; n];
        let mut bias = 0.0f64;
        let mut rng = StdRng::seed_from_u64(seed);
        let sums = std::cell::Cell::new(0u64);
        let f = |alpha: &[f64], bias: f64, i: usize| -> f64 {
            sums.set(sums.get() + 1);
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
        (alpha, bias, sums.get())
    }

    /// One binary subproblem: kernel matrix, targets, partner-stream seed.
    type Subproblem = (Vec<f64>, Vec<f64>, u64);

    /// Every one-vs-one subproblem of `n_classes` Gaussian blobs under `params`.
    fn blob_subproblems(params: &Svm, per_class: usize, n_classes: usize, spread: f64, data_seed: u64) -> Vec<Subproblem> {
        let d = gaussian_blobs("p", per_class * n_classes, 4, n_classes, spread, data_seed);
        let rows = d.all_rows();
        let (_, x) = DenseEncoder::fit(&d, &rows, true);
        let labels = d.labels_for(&rows);
        let mut out = Vec::new();
        for pos in 0..n_classes as u32 {
            for neg in pos + 1..n_classes as u32 {
                let sub: Vec<usize> = (0..labels.len()).filter(|&r| labels[r] == pos || labels[r] == neg).collect();
                let y = sub.iter().map(|&r| if labels[r] == pos { 1.0 } else { -1.0 }).collect();
                out.push((kernel_matrix(params, &x, &sub), y, pair_seed(pos, neg)));
            }
        }
        out
    }

    /// Solves with the filter and with the full scan and demands the same
    /// bits — or the same panic, which is what a NaN multiplier ends in on
    /// both. Then checks the solve's counts against what the oracle did:
    /// a solve that kept its filter must have decided checks with it, a
    /// solve that lost it must have summed as often as the oracle.
    fn assert_bit_identical((kmat, y, seed): &Subproblem, c: f64, resync_drift: f64) -> SolveStats {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let got = catch_unwind(AssertUnwindSafe(|| smo_solve_filtered(kmat, y, c, *seed, resync_drift)));
        let want = catch_unwind(AssertUnwindSafe(|| smo_solve_full_scan(kmat, y, c, *seed)));
        let ((alpha, bias, stats), (want_alpha, want_bias, oracle_sums)) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (Err(_), Err(_)) => return SolveStats { filter_off: true, ..SolveStats::default() },
            (got, want) => panic!("one solver panicked: filtered ok = {}, full scan ok = {}", got.is_ok(), want.is_ok()),
        };
        assert_eq!(bias.to_bits(), want_bias.to_bits());
        assert_eq!(
            alpha.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            want_alpha.iter().map(|a| a.to_bits()).collect::<Vec<_>>()
        );
        assert!(stats.kkt_checks >= y.len() as u64 && stats.kkt_checks < (300 + 1) * y.len() as u64);
        if stats.filter_off {
            // It may have been lost part-way; never fewer sums than checks
            // from then on, never more than the oracle's.
            assert!(stats.exact_sums <= oracle_sums, "{stats:?} vs {oracle_sums} oracle sums");
        } else {
            assert!(stats.exact_sums < oracle_sums, "filter decided nothing: {stats:?} vs {oracle_sums}");
        }
        stats
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every one-vs-one subproblem of a random dataset, under every
        /// kernel and seven decades of cost: the filtered solver returns
        /// the multipliers and bias of the full scan, bit for bit — at the
        /// production resync threshold and with a resync after every step.
        #[test]
        fn filtered_smo_is_bit_identical_to_the_full_scan(
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
            for problem in blob_subproblems(&params, 30, n_classes, spread, data_seed) {
                let stats = assert_bit_identical(&problem, params.cost, RESYNC_DRIFT);
                // The bounded kernels never lose the filter.
                prop_assert!(!(stats.filter_off && matches!(kernel, Kernel::Radial | Kernel::Sigmoid)));
                let forced = assert_bit_identical(&problem, params.cost, 0.0);
                prop_assert!(forced.filter_off || forced.resyncs > 0, "no step was taken: {:?}", forced);
            }
        }
    }

    #[test]
    fn filter_decides_most_checks_of_an_rbf_solve() {
        for problem in blob_subproblems(&rbf(), 60, 3, 1.0, 7) {
            let stats = assert_bit_identical(&problem, 1.0, RESYNC_DRIFT);
            assert!(!stats.filter_off && stats.skipped_steps > 0, "{stats:?}");
            assert!(4 * stats.exact_sums < stats.kkt_checks, "{stats:?}");
        }
    }

    #[test]
    fn filter_switches_off_for_a_steep_polynomial_kernel() {
        let steep = Svm { kernel: Kernel::Polynomial, cost: 10.0, gamma: 1.0, degree: 10, coef0: 25.0 };
        for problem in blob_subproblems(&steep, 30, 2, 1.0, 3) {
            let stats = assert_bit_identical(&problem, steep.cost, RESYNC_DRIFT);
            assert!(stats.filter_off && stats.skipped_steps == 0 && stats.resyncs == 0, "{stats:?}");
            assert!(stats.exact_sums >= stats.kkt_checks, "{stats:?}");
        }
    }

    #[test]
    fn filter_resyncs_at_the_production_threshold_under_a_large_cost() {
        let heavy = Svm { kernel: Kernel::Linear, cost: 1e3, ..rbf() };
        let resyncs: u64 = blob_subproblems(&heavy, 60, 2, 2.5, 11)
            .iter()
            .map(|problem| assert_bit_identical(problem, heavy.cost, RESYNC_DRIFT).resyncs)
            .sum();
        assert!(resyncs > 0);
    }

    #[test]
    fn non_finite_kernel_entries_switch_the_filter_off() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let (mut kmat, y, seed) = blob_subproblems(&rbf(), 20, 2, 1.0, 5).remove(0);
            let n = y.len();
            for (i, j) in [(3, 3), (5, 9), (9, 5)] {
                kmat[i * n + j] = bad;
            }
            let stats = assert_bit_identical(&(kmat, y, seed), 1.0, RESYNC_DRIFT);
            assert!(stats.filter_off && stats.skipped_steps == 0, "{bad}: {stats:?}");
        }
    }

    #[test]
    fn two_row_problem_is_bit_identical() {
        for k01 in [0.0, 0.3, 0.999] {
            let problem = (vec![1.0, k01, k01, 1.0], vec![1.0, -1.0], 42);
            for c in [1e-3, 1.0, 1e3] {
                let stats = assert_bit_identical(&problem, c, RESYNC_DRIFT);
                assert!(!stats.filter_off, "{stats:?}");
            }
        }
    }

    #[test]
    fn a_solve_that_runs_to_the_iteration_cap_is_bit_identical() {
        // Overlapping classes at a large cost never settle within the cap.
        let hard = Svm { cost: 1e3, gamma: 0.05, ..rbf() };
        let mut capped = 0;
        for problem in blob_subproblems(&hard, 40, 3, 2.5, 9) {
            let stats = assert_bit_identical(&problem, hard.cost, RESYNC_DRIFT);
            capped += (stats.kkt_checks == 300 * problem.1.len() as u64) as usize;
            assert!(!stats.filter_off && stats.exact_sums < stats.kkt_checks, "{stats:?}");
        }
        assert!(capped > 0, "no subproblem reached the cap");
    }

    #[test]
    fn too_few_rows_rejected() {
        let d = gaussian_blobs("b", 10, 2, 2, 0.5, 6);
        assert!(rbf().fit(&d, &[0, 1]).is_err());
    }
}
