//! Discriminant-analysis classifiers: LDA (MASS) and RDA (klaR).

use super::encode::DenseEncoder;
use crate::api::{check_fit_preconditions, Classifier, ClassifierError, TrainedModel};
use crate::params::ParamConfig;
use smartml_data::Dataset;
use smartml_linalg::{
    cholesky, kernels, solve_lower_triangular_block, vecops, Matrix, SOLVE_BLOCK,
};
use std::sync::Arc;

/// LDA — linear discriminant analysis with a pooled covariance.
/// Paper space: 1 categorical (`method`: `moment` | `shrinkage`) + 1 numeric
/// (`tol`: ridge jitter for `moment`, shrinkage intensity for `shrinkage`).
pub struct Lda {
    /// Covariance estimation method.
    pub shrinkage: bool,
    /// Ridge/shrinkage strength.
    pub tol: f64,
}

impl Lda {
    /// Builds from a [`ParamConfig`].
    pub fn from_config(config: &ParamConfig) -> Self {
        Lda {
            shrinkage: config.str_or("method", "moment") == "shrinkage",
            tol: config.f64_or("tol", 1e-4).clamp(1e-9, 1.0),
        }
    }
}

/// RDA — regularised (Friedman) discriminant analysis.
/// Paper space: 0 categorical + 2 numeric (`gamma`, `lambda`):
/// `lambda` blends per-class covariance toward the pooled covariance,
/// `gamma` blends toward a scaled identity.
pub struct Rda {
    /// Identity-blend strength γ ∈ [0, 1].
    pub gamma: f64,
    /// Pooling strength λ ∈ [0, 1].
    pub lambda: f64,
}

impl Rda {
    /// Builds from a [`ParamConfig`].
    pub fn from_config(config: &ParamConfig) -> Self {
        Rda {
            gamma: config.f64_or("gamma", 0.5).clamp(0.0, 1.0),
            lambda: config.f64_or("lambda", 0.5).clamp(0.0, 1.0),
        }
    }
}

/// Per-class Gaussian with its own (possibly shared) covariance factor.
struct ClassGaussian {
    mean: Vec<f64>,
    covariance: Covariance,
    log_prior: f64,
}

/// A covariance as the discriminant uses it; LDA's classes share one.
#[derive(Clone)]
struct Covariance {
    /// Cholesky factor.
    chol: Arc<Matrix>,
    /// log|Σ| (sum of 2·ln diag(L)).
    log_det: f64,
}

struct GaussianDiscriminant {
    encoder: DenseEncoder,
    classes: Vec<Option<ClassGaussian>>,
}

impl GaussianDiscriminant {
    /// Hands each row's class probabilities to `visit`, in row order.
    ///
    /// Rows go through [`SOLVE_BLOCK`] at a time: the block is encoded into
    /// scratch, and per class its `x-μ` is laid out interleaved so that one
    /// blocked solve gives every row's `L⁻¹(x-μ)`. A row's Mahalanobis sum,
    /// score and softmax run the same operations in the same order as one
    /// row on its own, so the block changes no bit. Scratch is sized once
    /// per call.
    fn for_each_proba(&self, data: &Dataset, rows: &[usize], mut visit: impl FnMut(&mut [f64])) {
        const B: usize = SOLVE_BLOCK;
        let encoder = self.encoder.bind(data);
        let d = self.encoder.dim();
        let k = self.classes.len();
        let mut x = vec![0.0; B * d];
        let mut diff = vec![0.0; d * B];
        let mut z = vec![0.0; d * B];
        let mut scores = vec![0.0; B * k];
        for block in rows.chunks(B) {
            let len = block.len();
            encoder.encode_into(block, &mut x[..len * d]);
            for (c, cg) in self.classes.iter().enumerate() {
                let Some(cg) = cg else {
                    for r in 0..len {
                        scores[r * k + c] = f64::NEG_INFINITY;
                    }
                    continue;
                };
                // Lanes past `len` keep the previous block's values; their
                // solutions are never read.
                for (r, row) in x.chunks_exact(d.max(1)).take(len).enumerate() {
                    for (j, (&v, &m)) in row.iter().zip(&cg.mean).enumerate() {
                        diff[j * B + r] = v - m;
                    }
                }
                solve_lower_triangular_block(&cg.covariance.chol, &diff, &mut z);
                for r in 0..len {
                    let maha: f64 = z.iter().skip(r).step_by(B).map(|v| v * v).sum();
                    scores[r * k + c] = cg.log_prior - 0.5 * (maha + cg.covariance.log_det);
                }
            }
            for row in scores.chunks_exact_mut(k).take(len) {
                vecops::softmax_inplace(row);
                visit(row);
            }
        }
    }
}

impl TrainedModel for GaussianDiscriminant {
    fn predict_proba(&self, data: &Dataset, rows: &[usize]) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(rows.len());
        self.for_each_proba(data, rows, |p| out.push(p.to_vec()));
        out
    }

    fn predict(&self, data: &Dataset, rows: &[usize]) -> Vec<u32> {
        let mut out = Vec::with_capacity(rows.len());
        self.for_each_proba(data, rows, |p| out.push(vecops::argmax(p).unwrap_or(0) as u32));
        out
    }
}

/// Gathers per-class means and scatter matrices from an encoded matrix.
struct ScatterStats {
    means: Vec<Vec<f64>>,
    /// Per-class scatter Σ (x-μ)(x-μ)ᵀ.
    scatters: Vec<Matrix>,
    counts: Vec<usize>,
    pooled: Matrix,
    n: usize,
    d: usize,
}

/// Per-class means, then the per-class and pooled scatters, accumulated row
/// by row into packed upper triangles: one fused loop per nonzero `x_i - μ_i`
/// updates the class and pooled cells of that row of the triangle. Every
/// cell sums its rows' products in row order (a zero difference adds
/// nothing and is skipped), then the triangles are mirrored out.
fn scatter_stats(x: &Matrix, y: &[u32], n_classes: usize) -> ScatterStats {
    let (n, d) = x.shape();
    let mut means = vec![vec![0.0; d]; n_classes];
    let mut counts = vec![0usize; n_classes];
    for r in 0..n {
        let c = y[r] as usize;
        counts[c] += 1;
        kernels::add_assign(&mut means[c], x.row(r));
    }
    for (c, mean) in means.iter_mut().enumerate() {
        if counts[c] > 0 {
            for m in mean.iter_mut() {
                *m /= counts[c] as f64;
            }
        }
    }
    let tri = d * (d + 1) / 2;
    let mut class_tris = vec![0.0; n_classes * tri];
    let mut pooled_tri = vec![0.0; tri];
    let mut diff = vec![0.0; d];
    for r in 0..n {
        let c = y[r] as usize;
        for (dv, (&v, &m)) in diff.iter_mut().zip(x.row(r).iter().zip(&means[c])) {
            *dv = v - m;
        }
        let class_tri = &mut class_tris[c * tri..(c + 1) * tri];
        let mut at = 0;
        for i in 0..d {
            let di = diff[i];
            let cells = at..at + (d - i);
            at = cells.end;
            if di == 0.0 {
                continue;
            }
            for ((s, p), &dj) in
                class_tri[cells.clone()].iter_mut().zip(&mut pooled_tri[cells]).zip(&diff[i..])
            {
                let t = di * dj;
                *s += t;
                *p += t;
            }
        }
    }
    let scatters = (0..n_classes).map(|c| unpack(&class_tris[c * tri..(c + 1) * tri], d)).collect();
    let pooled = unpack(&pooled_tri, d);
    ScatterStats { means, scatters, counts, pooled, n, d }
}

/// The symmetric `d x d` matrix whose upper triangle is packed row by row
/// in `tri`.
fn unpack(tri: &[f64], d: usize) -> Matrix {
    let mut m = Matrix::zeros(d, d);
    let mut cells = tri.iter();
    for i in 0..d {
        for (j, &v) in (i..d).zip(&mut cells) {
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

/// Factors a covariance matrix, adding diagonal jitter until Cholesky
/// succeeds.
fn factor(mut cov: Matrix, algorithm: &'static str) -> Result<Covariance, ClassifierError> {
    let d = cov.rows();
    let mut jitter = 1e-8;
    for _ in 0..12 {
        match cholesky(&cov) {
            Ok(chol) => {
                let log_det = (0..d).map(|i| 2.0 * chol[(i, i)].ln()).sum();
                return Ok(Covariance { chol: Arc::new(chol), log_det });
            }
            Err(_) => {
                for i in 0..d {
                    cov[(i, i)] += jitter;
                }
                jitter *= 10.0;
            }
        }
    }
    Err(ClassifierError::Numerical {
        algorithm,
        detail: "covariance not positive definite after regularisation".into(),
    })
}

impl Classifier for Lda {
    fn name(&self) -> &'static str {
        "LDA"
    }

    fn fit(&self, data: &Dataset, rows: &[usize]) -> Result<Box<dyn TrainedModel>, ClassifierError> {
        Ok(Box::new(self.fit_gaussians(data, rows)?))
    }
}

impl Lda {
    fn fit_gaussians(
        &self,
        data: &Dataset,
        rows: &[usize],
    ) -> Result<GaussianDiscriminant, ClassifierError> {
        let n_classes = check_fit_preconditions("LDA", data, rows, 4)?;
        let (encoder, x) = DenseEncoder::fit(data, rows, true);
        let stats = scatter_stats(&x, &data.labels_for(rows), n_classes);
        Ok(GaussianDiscriminant { encoder, classes: self.classes(&stats)? })
    }

    /// The class Gaussians over one pooled covariance.
    fn classes(&self, stats: &ScatterStats) -> Result<Vec<Option<ClassGaussian>>, ClassifierError> {
        let n_classes = stats.counts.len();
        let denom = (stats.n.saturating_sub(n_classes)).max(1) as f64;
        let mut pooled = stats.pooled.scale(1.0 / denom);
        let d = stats.d;
        if self.shrinkage {
            // Ledoit-Wolf-style target: ν = tr(Σ)/d on the diagonal.
            let nu = (0..d).map(|i| pooled[(i, i)]).sum::<f64>() / d as f64;
            let a = self.tol;
            pooled = pooled.scale(1.0 - a);
            for i in 0..d {
                pooled[(i, i)] += a * nu;
            }
        } else {
            for i in 0..d {
                pooled[(i, i)] += self.tol.max(1e-9);
            }
        }
        // One factorisation, shared by every class.
        let covariance = factor(pooled, "LDA")?;
        let n = stats.n as f64;
        Ok((0..n_classes)
            .map(|c| {
                (stats.counts[c] > 0).then(|| ClassGaussian {
                    mean: stats.means[c].clone(),
                    covariance: covariance.clone(),
                    log_prior: (stats.counts[c] as f64 / n).ln(),
                })
            })
            .collect())
    }
}

impl Classifier for Rda {
    fn name(&self) -> &'static str {
        "RDA"
    }

    fn fit(&self, data: &Dataset, rows: &[usize]) -> Result<Box<dyn TrainedModel>, ClassifierError> {
        Ok(Box::new(self.fit_gaussians(data, rows)?))
    }
}

impl Rda {
    fn fit_gaussians(
        &self,
        data: &Dataset,
        rows: &[usize],
    ) -> Result<GaussianDiscriminant, ClassifierError> {
        let n_classes = check_fit_preconditions("RDA", data, rows, 4)?;
        let (encoder, x) = DenseEncoder::fit(data, rows, true);
        let stats = scatter_stats(&x, &data.labels_for(rows), n_classes);
        Ok(GaussianDiscriminant { encoder, classes: self.classes(&stats)? })
    }

    /// The class Gaussians, each over its own regularised covariance.
    fn classes(&self, stats: &ScatterStats) -> Result<Vec<Option<ClassGaussian>>, ClassifierError> {
        let n_classes = stats.counts.len();
        let d = stats.d;
        let pooled_cov = stats.pooled.scale(1.0 / (stats.n.saturating_sub(n_classes)).max(1) as f64);
        let n = stats.n as f64;
        let mut classes = Vec::with_capacity(n_classes);
        for c in 0..n_classes {
            if stats.counts[c] == 0 {
                classes.push(None);
                continue;
            }
            let nk = stats.counts[c] as f64;
            let class_cov = stats.scatters[c].scale(1.0 / (nk - 1.0).max(1.0));
            // Friedman regularisation:
            // Σ(λ) = (1-λ)Σ_k + λΣ_pooled;  Σ(λ,γ) = (1-γ)Σ(λ) + γ (trΣ(λ)/d) I.
            let mut cov = class_cov.scale(1.0 - self.lambda).add(&pooled_cov.scale(self.lambda));
            let trace_over_d = (0..d).map(|i| cov[(i, i)]).sum::<f64>() / d as f64;
            cov = cov.scale(1.0 - self.gamma);
            for i in 0..d {
                cov[(i, i)] += self.gamma * trace_over_d + 1e-8;
            }
            classes.push(Some(ClassGaussian {
                mean: stats.means[c].clone(),
                covariance: factor(cov, "RDA")?,
                log_prior: (nk / n).ln(),
            }));
        }
        Ok(classes)
    }
}

/// The per-row code the kernels replaced, kept to check them against.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::algorithms::encode::oracle as encode;

    /// `scatter_stats` as it was: full matrices, one AXPY per row of the
    /// upper triangle per training row.
    fn scatter_stats(x: &Matrix, y: &[u32], n_classes: usize) -> ScatterStats {
        let (n, d) = x.shape();
        let mut means = vec![vec![0.0; d]; n_classes];
        let mut counts = vec![0usize; n_classes];
        for r in 0..n {
            let c = y[r] as usize;
            counts[c] += 1;
            kernels::add_assign(&mut means[c], x.row(r));
        }
        for (c, mean) in means.iter_mut().enumerate() {
            if counts[c] > 0 {
                for m in mean.iter_mut() {
                    *m /= counts[c] as f64;
                }
            }
        }
        let mut scatters = vec![Matrix::zeros(d, d); n_classes];
        let mut pooled = Matrix::zeros(d, d);
        let mut diff = vec![0.0; d];
        for r in 0..n {
            let c = y[r] as usize;
            for (dv, (&v, &m)) in diff.iter_mut().zip(x.row(r).iter().zip(&means[c])) {
                *dv = v - m;
            }
            for i in 0..d {
                let di = diff[i];
                if di == 0.0 {
                    continue;
                }
                kernels::axpy(&mut scatters[c].row_mut(i)[i..], di, &diff[i..]);
                kernels::axpy(&mut pooled.row_mut(i)[i..], di, &diff[i..]);
            }
        }
        for m in scatters.iter_mut().chain(std::iter::once(&mut pooled)) {
            for i in 0..d {
                for j in (i + 1)..d {
                    m[(j, i)] = m[(i, j)];
                }
            }
        }
        ScatterStats { means, scatters, counts, pooled, n, d }
    }

    /// A fit through the oracle encoder and scatter; `classes` is the
    /// model's own covariance step.
    pub(super) fn fit(
        algorithm: &'static str,
        classes: impl Fn(&ScatterStats) -> Result<Vec<Option<ClassGaussian>>, ClassifierError>,
        data: &Dataset,
        rows: &[usize],
    ) -> Result<GaussianDiscriminant, ClassifierError> {
        let n_classes = check_fit_preconditions(algorithm, data, rows, 4)?;
        let (encoder, x) = encode::fit(data, rows, true);
        let stats = scatter_stats(&x, &data.labels_for(rows), n_classes);
        Ok(GaussianDiscriminant { encoder, classes: classes(&stats)? })
    }

    /// `predict_proba` one row at a time: a fresh `x-μ` and forward
    /// substitution per (row, class).
    pub(super) fn predict_proba(
        model: &GaussianDiscriminant,
        data: &Dataset,
        rows: &[usize],
    ) -> Vec<Vec<f64>> {
        let x = encode::encode(&model.encoder, data, rows);
        (0..x.rows())
            .map(|r| {
                let mut scores: Vec<f64> = model
                    .classes
                    .iter()
                    .map(|cg| match cg {
                        Some(cg) => {
                            let diff: Vec<f64> =
                                x.row(r).iter().zip(&cg.mean).map(|(a, b)| a - b).collect();
                            let l = &*cg.covariance.chol;
                            let mut z = vec![0.0; diff.len()];
                            for i in 0..z.len() {
                                let mut s = diff[i];
                                for j in 0..i {
                                    s -= l[(i, j)] * z[j];
                                }
                                z[i] = s / l[(i, i)];
                            }
                            let maha: f64 = z.iter().map(|v| v * v).sum();
                            cg.log_prior - 0.5 * (maha + cg.covariance.log_det)
                        }
                        None => f64::NEG_INFINITY,
                    })
                    .collect();
                vecops::softmax_inplace(&mut scores);
                scores
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testdata::{bits, mixed, Shape};
    use proptest::prelude::*;
    use smartml_data::accuracy;
    use smartml_data::synth::{gaussian_blobs, imbalanced_mixture};

    fn holdout(clf: &dyn Classifier, d: &Dataset) -> f64 {
        let (train, test): (Vec<usize>, Vec<usize>) = (0..d.n_rows()).partition(|i| i % 2 == 0);
        let model = clf.fit(d, &train).unwrap();
        accuracy(&d.labels_for(&test), &model.predict(d, &test))
    }

    /// LDA (moment and shrinkage) and RDA over a γ/λ grid, each fitted by
    /// the kernels and by the oracles.
    fn models(
        shrink_tol: f64,
        rda: (f64, f64),
        data: &Dataset,
        train: &[usize],
    ) -> Vec<(Result<GaussianDiscriminant, ClassifierError>, Result<GaussianDiscriminant, ClassifierError>)>
    {
        let ldas = [Lda { shrinkage: false, tol: 1e-4 }, Lda { shrinkage: true, tol: shrink_tol }];
        let rda = Rda { gamma: rda.0, lambda: rda.1 };
        let mut out: Vec<_> = ldas
            .iter()
            .map(|lda| {
                (lda.fit_gaussians(data, train), oracle::fit("LDA", |s| lda.classes(s), data, train))
            })
            .collect();
        out.push((rda.fit_gaussians(data, train), oracle::fit("RDA", |s| rda.classes(s), data, train)));
        out
    }

    /// Fitted means, factors, log-determinants and priors agree to the bit.
    fn same_fit(a: &GaussianDiscriminant, b: &GaussianDiscriminant) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        crate::algorithms::encode::oracle::same_stats(&a.encoder, &b.encoder)
            && a.classes.len() == b.classes.len()
            && a.classes.iter().zip(&b.classes).all(|(x, y)| match (x, y) {
                (None, None) => true,
                (Some(x), Some(y)) => {
                    bits(&x.mean) == bits(&y.mean)
                        && bits(x.covariance.chol.as_slice()) == bits(y.covariance.chol.as_slice())
                        && x.covariance.log_det.to_bits() == y.covariance.log_det.to_bits()
                        && x.log_prior.to_bits() == y.log_prior.to_bits()
                }
                _ => false,
            })
    }

    proptest! {
        #[test]
        fn kernels_match_the_per_row_oracles(
            (seed, rows, numeric) in (any::<u64>(), 12usize..120, 1usize..=90),
            (categorical, classes, empty_class) in (any::<bool>(), 2usize..=5, any::<bool>()),
            (shrink, gamma, lambda) in (0usize..3, 0usize..4, 0usize..4),
        ) {
            let shrink_tol = [0.05, 0.5, 1.0][shrink];
            let grid = [0.0, 0.3, 0.7, 1.0];
            let (gamma, lambda) = (grid[gamma], grid[lambda]);
            let shape = Shape {
                seed, rows, numeric, categorical: categorical && numeric <= 87, classes, empty_class,
            };
            let (data, train, test) = mixed(shape);
            for (fast, slow) in models(shrink_tol, (gamma, lambda), &data, &train) {
                let (fast, slow) = match (fast, slow) {
                    (Ok(f), Ok(s)) => (f, s),
                    (f, s) => {
                        prop_assert_eq!(f.err(), s.err());
                        continue;
                    }
                };
                prop_assert!(same_fit(&fast, &slow), "{shape:?}");
                for rows in [&test, &train[..train.len().min(9)]] {
                    let expected = oracle::predict_proba(&slow, &data, rows);
                    prop_assert_eq!(bits(&fast.predict_proba(&data, rows)), bits(&expected), "{shape:?}");
                    let argmax: Vec<u32> =
                        expected.iter().map(|p| vecops::argmax(p).unwrap_or(0) as u32).collect();
                    prop_assert_eq!(fast.predict(&data, rows), argmax, "{shape:?}");
                }
            }
        }
    }

    #[test]
    fn predict_proba_is_bit_identical_to_the_allocating_path() {
        for (d, held_out) in [
            (gaussian_blobs("b", 180, 7, 4, 1.3, 11), 1),
            (imbalanced_mixture("i", 200, 5, 3, 2.0, 12), 2),
        ] {
            let (train, test): (Vec<usize>, Vec<usize>) =
                (0..d.n_rows()).partition(|i| i % 3 != held_out);
            let models = [
                Lda { shrinkage: false, tol: 1e-4 }.fit_gaussians(&d, &train).unwrap(),
                Lda { shrinkage: true, tol: 0.3 }.fit_gaussians(&d, &train).unwrap(),
                Rda { gamma: 0.2, lambda: 0.6 }.fit_gaussians(&d, &train).unwrap(),
                Rda { gamma: 0.0, lambda: 0.0 }.fit_gaussians(&d, &train).unwrap(),
            ];
            for model in &models {
                assert_eq!(
                    bits(&model.predict_proba(&d, &test)),
                    bits(&oracle::predict_proba(model, &d, &test))
                );
            }
            // LDA's classes point at one factor; RDA's each own theirs.
            let factors = |m: &GaussianDiscriminant| -> Vec<Arc<Matrix>> {
                m.classes.iter().flatten().map(|cg| cg.covariance.chol.clone()).collect()
            };
            assert!(factors(&models[0]).windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
            assert!(factors(&models[2]).windows(2).all(|w| !Arc::ptr_eq(&w[0], &w[1])));
        }
    }

    #[test]
    fn lda_learns_gaussian_blobs() {
        // Shared-covariance blobs are exactly LDA's model.
        let d = gaussian_blobs("b", 240, 4, 3, 0.8, 1);
        let lda = Lda { shrinkage: false, tol: 1e-4 };
        assert!(holdout(&lda, &d) > 0.9);
    }

    #[test]
    fn lda_shrinkage_mode_works() {
        let d = gaussian_blobs("b", 100, 8, 2, 1.0, 2);
        let lda = Lda { shrinkage: true, tol: 0.3 };
        assert!(holdout(&lda, &d) > 0.8);
    }

    #[test]
    fn lda_handles_more_features_than_comfortable() {
        // d close to n/class: shrinkage keeps it stable.
        let d = gaussian_blobs("b", 60, 20, 2, 1.0, 3);
        let lda = Lda { shrinkage: true, tol: 0.5 };
        assert!(holdout(&lda, &d) > 0.6);
    }

    #[test]
    fn rda_spans_lda_to_qda() {
        let d = gaussian_blobs("b", 200, 4, 2, 1.0, 4);
        for (gamma, lambda) in [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)] {
            let rda = Rda { gamma, lambda };
            let acc = holdout(&rda, &d);
            assert!(acc > 0.8, "γ={gamma} λ={lambda}: acc {acc}");
        }
    }

    #[test]
    fn rda_full_identity_blend_is_nearest_centroid_like() {
        let d = gaussian_blobs("b", 150, 3, 3, 0.7, 5);
        let rda = Rda { gamma: 1.0, lambda: 1.0 };
        assert!(holdout(&rda, &d) > 0.85);
    }

    #[test]
    fn handles_imbalanced_classes() {
        let d = imbalanced_mixture("i", 300, 4, 4, 1.0, 6);
        let lda = Lda { shrinkage: false, tol: 1e-3 };
        let acc = holdout(&lda, &d);
        assert!(acc > 0.5, "acc {acc}");
    }

    #[test]
    fn probabilities_valid() {
        let d = gaussian_blobs("b", 90, 3, 3, 1.2, 7);
        let rows = d.all_rows();
        let model = Rda { gamma: 0.3, lambda: 0.3 }.fit(&d, &rows).unwrap();
        for p in model.predict_proba(&d, &rows) {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn from_config_parses() {
        let lda = Lda::from_config(
            &ParamConfig::default().with("method", crate::params::ParamValue::Cat("shrinkage".into())),
        );
        assert!(lda.shrinkage);
        let rda = Rda::from_config(&ParamConfig::default());
        assert_eq!(rda.gamma, 0.5);
    }
}
