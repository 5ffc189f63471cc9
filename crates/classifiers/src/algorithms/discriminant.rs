//! Discriminant-analysis classifiers: LDA (MASS) and RDA (klaR).

use super::encode::DenseEncoder;
use crate::api::{check_fit_preconditions, Classifier, ClassifierError, TrainedModel};
use crate::params::ParamConfig;
use smartml_data::Dataset;
use smartml_linalg::{cholesky, kernels, solve_lower_triangular_into, vecops, Matrix};
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

impl TrainedModel for GaussianDiscriminant {
    fn predict_proba(&self, data: &Dataset, rows: &[usize]) -> Vec<Vec<f64>> {
        let x = self.encoder.encode(data, rows);
        // Scratch for x-μ and L⁻¹(x-μ), reused by every (row, class).
        let mut diff = vec![0.0; x.cols()];
        let mut z = vec![0.0; x.cols()];
        (0..x.rows())
            .map(|r| {
                let row = x.row(r);
                let mut scores: Vec<f64> = self
                    .classes
                    .iter()
                    .map(|cg| match cg {
                        Some(cg) => {
                            // Mahalanobis via triangular solve: ‖L⁻¹(x-μ)‖².
                            for (d, (a, b)) in diff.iter_mut().zip(row.iter().zip(&cg.mean)) {
                                *d = a - b;
                            }
                            solve_lower_triangular_into(&cg.covariance.chol, &diff, &mut z);
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
        // Rank-1 update of the upper triangles via contiguous AXPYs over
        // the row tails; per-cell accumulation order matches the scalar
        // loop it replaces (the zero-skip is preserved for its semantics).
        for i in 0..d {
            let di = diff[i];
            if di == 0.0 {
                continue;
            }
            kernels::axpy(&mut scatters[c].row_mut(i)[i..], di, &diff[i..]);
            kernels::axpy(&mut pooled.row_mut(i)[i..], di, &diff[i..]);
        }
    }
    // Mirror the upper triangles.
    for m in scatters.iter_mut().chain(std::iter::once(&mut pooled)) {
        for i in 0..d {
            for j in (i + 1)..d {
                m[(j, i)] = m[(i, j)];
            }
        }
    }
    ScatterStats { means, scatters, counts, pooled, n, d }
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
        let y = data.labels_for(rows);
        let stats = scatter_stats(&x, &y, n_classes);
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
        let classes = (0..n_classes)
            .map(|c| {
                (stats.counts[c] > 0).then(|| ClassGaussian {
                    mean: stats.means[c].clone(),
                    covariance: covariance.clone(),
                    log_prior: (stats.counts[c] as f64 / n).ln(),
                })
            })
            .collect();
        Ok(GaussianDiscriminant { encoder, classes })
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
        let y = data.labels_for(rows);
        let stats = scatter_stats(&x, &y, n_classes);
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
        Ok(GaussianDiscriminant { encoder, classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_data::accuracy;
    use smartml_data::synth::{gaussian_blobs, imbalanced_mixture};

    fn holdout(clf: &dyn Classifier, d: &Dataset) -> f64 {
        let (train, test): (Vec<usize>, Vec<usize>) = (0..d.n_rows()).partition(|i| i % 2 == 0);
        let model = clf.fit(d, &train).unwrap();
        accuracy(&d.labels_for(&test), &model.predict(d, &test))
    }

    /// `predict_proba` as it was before the scratch buffers: a fresh `diff`
    /// and a fresh solve result per (row, class).
    fn predict_proba_allocating(
        model: &GaussianDiscriminant,
        data: &Dataset,
        rows: &[usize],
    ) -> Vec<Vec<f64>> {
        let x = model.encoder.encode(data, rows);
        (0..x.rows())
            .map(|r| {
                let mut scores: Vec<f64> = model
                    .classes
                    .iter()
                    .map(|cg| match cg {
                        Some(cg) => {
                            let diff: Vec<f64> =
                                x.row(r).iter().zip(&cg.mean).map(|(a, b)| a - b).collect();
                            let z =
                                smartml_linalg::solve_lower_triangular(&cg.covariance.chol, &diff);
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

    #[test]
    fn predict_proba_is_bit_identical_to_the_allocating_path() {
        let bits = |p: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            p.into_iter().map(|row| row.into_iter().map(f64::to_bits).collect()).collect()
        };
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
                    bits(model.predict_proba(&d, &test)),
                    bits(predict_proba_allocating(model, &d, &test))
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
