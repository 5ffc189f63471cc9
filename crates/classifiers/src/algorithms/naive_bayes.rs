//! Naive Bayes (paper: the `klaR` R package; 2 numeric parameters:
//! Laplace smoothing for categorical likelihoods and a bandwidth `adjust`
//! factor scaling the Gaussian likelihood spread).

use crate::api::{check_fit_preconditions, Classifier, ClassifierError, TrainedModel};
use crate::params::ParamConfig;
use smartml_data::dataset::MISSING_CODE;
use smartml_data::{Dataset, Feature};
use smartml_linalg::vecops;

/// Mixed-type naive Bayes: Gaussian likelihoods for numeric features,
/// Laplace-smoothed multinomials for categoricals.
pub struct NaiveBayes {
    /// Laplace smoothing count for categorical likelihoods.
    pub laplace: f64,
    /// Multiplier on per-class standard deviations (klaR's `adjust`).
    pub adjust: f64,
}

impl NaiveBayes {
    /// Builds from a [`ParamConfig`] (`laplace`, `adjust`).
    pub fn from_config(config: &ParamConfig) -> Self {
        NaiveBayes {
            laplace: config.f64_or("laplace", 1.0).max(0.0),
            adjust: config.f64_or("adjust", 1.0).max(1e-3),
        }
    }
}

enum FeatureModel {
    /// Per-class Gaussian.
    Gaussian(Vec<Gaussian>),
    /// Per-class log-probability per level (+1 slot for unseen levels).
    Categorical(Vec<Vec<f64>>),
}

/// One class's likelihood for one numeric feature.
struct Gaussian {
    mean: f64,
    std: f64,
    /// `std.ln()`, paid once at fit instead of per (row, class).
    ln_std: f64,
}

struct TrainedNb {
    log_priors: Vec<f64>,
    features: Vec<FeatureModel>,
}

impl Classifier for NaiveBayes {
    fn name(&self) -> &'static str {
        "NaiveBayes"
    }

    fn fit(&self, data: &Dataset, rows: &[usize]) -> Result<Box<dyn TrainedModel>, ClassifierError> {
        Ok(Box::new(self.fit_nb(data, rows)?))
    }
}

impl NaiveBayes {
    fn fit_nb(&self, data: &Dataset, rows: &[usize]) -> Result<TrainedNb, ClassifierError> {
        let n_classes = check_fit_preconditions("NaiveBayes", data, rows, 2)?;
        let counts = data.class_counts_for(rows);
        let total = rows.len() as f64;
        let log_priors: Vec<f64> = counts
            .iter()
            .map(|&c| ((c as f64 + 1.0) / (total + n_classes as f64)).ln())
            .collect();
        // Each class's rows in training order, bucketed in one pass.
        let mut by_class: Vec<Vec<usize>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for &r in rows {
            by_class[data.label(r) as usize].push(r);
        }
        let mut present = Vec::with_capacity(rows.len());
        let mut features = Vec::with_capacity(data.n_features());
        for feat in data.features() {
            match feat {
                Feature::Numeric { values, .. } => {
                    // Pooled std floor prevents zero-variance spikes.
                    gather_present(values, rows, &mut present);
                    let floor = (vecops::std_dev(&present) * 1e-3).max(1e-9);
                    let params = by_class
                        .iter()
                        .map(|class_rows| {
                            gather_present(values, class_rows, &mut present);
                            let mean = vecops::mean(&present);
                            let std = (vecops::std_dev(&present) * self.adjust).max(floor);
                            Gaussian { mean, std, ln_std: std.ln() }
                        })
                        .collect();
                    features.push(FeatureModel::Gaussian(params));
                }
                Feature::Categorical { codes, levels, .. } => {
                    let n_levels = levels.len();
                    let mut table = vec![vec![0.0f64; n_levels + 1]; n_classes];
                    for &r in rows {
                        let code = codes[r];
                        if code != MISSING_CODE {
                            table[data.label(r) as usize][code as usize] += 1.0;
                        }
                    }
                    for class_row in &mut table {
                        let class_total: f64 = class_row.iter().sum();
                        let denom = class_total + self.laplace * (n_levels + 1) as f64;
                        for v in class_row.iter_mut() {
                            // Laplace floor keeps unseen (class, level) pairs finite.
                            *v = ((*v + self.laplace.max(1e-9)) / denom.max(1e-9)).ln();
                        }
                    }
                    features.push(FeatureModel::Categorical(table));
                }
            }
        }
        Ok(TrainedNb { log_priors, features })
    }
}

/// The non-missing `values` of `rows`, in row order, into `out`.
fn gather_present(values: &[f64], rows: &[usize], out: &mut Vec<f64>) {
    out.clear();
    out.extend(rows.iter().map(|&r| values[r]).filter(|v| !v.is_nan()));
}

impl TrainedNb {
    /// Hands each row's class probabilities to `visit`, in row order.
    ///
    /// Rows go through in blocks whose log-posteriors sit in one scratch
    /// buffer; features are the outer loop, so a row's posterior still
    /// adds its features' terms in feature order, as one row on its own.
    fn for_each_proba(&self, data: &Dataset, rows: &[usize], mut visit: impl FnMut(&mut [f64])) {
        const BLOCK: usize = 64;
        let k = self.log_priors.len();
        let mut scratch = vec![0.0; BLOCK * k];
        for block in rows.chunks(BLOCK) {
            let post = &mut scratch[..block.len() * k];
            for row in post.chunks_exact_mut(k) {
                row.copy_from_slice(&self.log_priors);
            }
            for (feat, model) in data.features().iter().zip(&self.features) {
                match (feat, model) {
                    (Feature::Numeric { values, .. }, FeatureModel::Gaussian(params)) => {
                        for (&r, log_post) in block.iter().zip(post.chunks_exact_mut(k)) {
                            let v = values[r];
                            if v.is_nan() {
                                continue; // missing feature: skip its likelihood
                            }
                            for (lp, g) in log_post.iter_mut().zip(params) {
                                let z = (v - g.mean) / g.std;
                                *lp += -0.5 * z * z - g.ln_std;
                            }
                        }
                    }
                    (Feature::Categorical { codes, .. }, FeatureModel::Categorical(table)) => {
                        for (&r, log_post) in block.iter().zip(post.chunks_exact_mut(k)) {
                            let code = codes[r];
                            if code == MISSING_CODE {
                                continue;
                            }
                            for (lp, class_row) in log_post.iter_mut().zip(table) {
                                *lp += class_row[(code as usize).min(class_row.len() - 1)];
                            }
                        }
                    }
                    _ => {}
                }
            }
            for log_post in post.chunks_exact_mut(k) {
                vecops::softmax_inplace(log_post);
                visit(log_post);
            }
        }
    }
}

impl TrainedModel for TrainedNb {
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

/// The per-row code the kernels replaced, kept to check them against.
#[cfg(test)]
mod oracle {
    use super::*;

    /// The numeric parameters as fit computed them, with one filtered pass
    /// over the training rows per (feature, class); priors and categorical
    /// tables are the fit's own (that code did not change).
    pub(super) fn fit(nb: &NaiveBayes, data: &Dataset, rows: &[usize]) -> TrainedNb {
        let n_classes = check_fit_preconditions("NaiveBayes", data, rows, 2).unwrap();
        let mut model = nb.fit_nb(data, rows).unwrap();
        for (feat, fitted) in data.features().iter().zip(&mut model.features) {
            if let (Feature::Numeric { values, .. }, FeatureModel::Gaussian(params)) = (feat, fitted) {
                let pooled: Vec<f64> =
                    rows.iter().map(|&r| values[r]).filter(|v| !v.is_nan()).collect();
                let floor = (vecops::std_dev(&pooled) * 1e-3).max(1e-9);
                *params = (0..n_classes)
                    .map(|c| {
                        let xs: Vec<f64> = rows
                            .iter()
                            .filter(|&&r| data.label(r) as usize == c)
                            .map(|&r| values[r])
                            .filter(|v| !v.is_nan())
                            .collect();
                        let mean = vecops::mean(&xs);
                        let std = (vecops::std_dev(&xs) * nb.adjust).max(floor);
                        // Left unset: the oracle predict takes the log itself.
                        Gaussian { mean, std, ln_std: f64::NAN }
                    })
                    .collect();
            }
        }
        model
    }

    /// `predict_proba` one row at a time, `std.ln()` per (row, class).
    pub(super) fn predict_proba(model: &TrainedNb, data: &Dataset, rows: &[usize]) -> Vec<Vec<f64>> {
        rows.iter()
            .map(|&r| {
                let mut log_post = model.log_priors.clone();
                for (feat, fitted) in data.features().iter().zip(&model.features) {
                    match (feat, fitted) {
                        (Feature::Numeric { values, .. }, FeatureModel::Gaussian(params)) => {
                            let v = values[r];
                            if v.is_nan() {
                                continue;
                            }
                            for (c, g) in params.iter().enumerate() {
                                let z = (v - g.mean) / g.std;
                                log_post[c] += -0.5 * z * z - g.std.ln();
                            }
                        }
                        (Feature::Categorical { codes, .. }, FeatureModel::Categorical(table)) => {
                            let code = codes[r];
                            if code == MISSING_CODE {
                                continue;
                            }
                            for (c, class_row) in table.iter().enumerate() {
                                let idx = (code as usize).min(class_row.len() - 1);
                                log_post[c] += class_row[idx];
                            }
                        }
                        _ => {}
                    }
                }
                vecops::softmax_inplace(&mut log_post);
                log_post
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testdata::{bits, mixed, Shape};
    use proptest::prelude::*;
    use smartml_data::synth::{categorical_mixture, gaussian_blobs, sparse_counts};
    use smartml_data::accuracy;

    proptest! {
        #[test]
        fn kernels_match_the_per_row_oracles(
            (seed, rows, numeric) in (any::<u64>(), 6usize..150, 1usize..=90),
            (categorical, classes, empty_class) in (any::<bool>(), 2usize..=5, any::<bool>()),
            (laplace, adjust) in (0usize..3, 0usize..3),
        ) {
            let (laplace, adjust) = ([0.0, 1.0, 3.5][laplace], [0.5, 1.0, 2.0][adjust]);
            let shape = Shape {
                seed, rows, numeric, categorical: categorical && numeric <= 87, classes, empty_class,
            };
            let (data, train, test) = mixed(shape);
            let nb = NaiveBayes { laplace, adjust };
            let fast = nb.fit_nb(&data, &train).unwrap();
            let slow = oracle::fit(&nb, &data, &train);
            prop_assert_eq!(
                bits(std::slice::from_ref(&fast.log_priors)),
                bits(std::slice::from_ref(&slow.log_priors))
            );
            for (a, b) in fast.features.iter().zip(&slow.features) {
                match (a, b) {
                    (FeatureModel::Gaussian(a), FeatureModel::Gaussian(b)) => {
                        for (a, b) in a.iter().zip(b) {
                            prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits());
                            prop_assert_eq!(a.std.to_bits(), b.std.to_bits());
                            prop_assert_eq!(a.ln_std.to_bits(), b.std.ln().to_bits());
                        }
                    }
                    (FeatureModel::Categorical(a), FeatureModel::Categorical(b)) => {
                        prop_assert_eq!(bits(a), bits(b));
                    }
                    _ => prop_assert!(false, "feature kinds differ"),
                }
            }
            for rows in [&test, &train[..train.len().min(9)]] {
                let expected = oracle::predict_proba(&slow, &data, rows);
                prop_assert_eq!(bits(&fast.predict_proba(&data, rows)), bits(&expected), "{shape:?}");
                let argmax: Vec<u32> =
                    expected.iter().map(|p| vecops::argmax(p).unwrap_or(0) as u32).collect();
                prop_assert_eq!(fast.predict(&data, rows), argmax, "{shape:?}");
            }
        }
    }

    fn holdout(clf: &dyn Classifier, d: &Dataset) -> f64 {
        let (train, test): (Vec<usize>, Vec<usize>) = (0..d.n_rows()).partition(|i| i % 2 == 0);
        let model = clf.fit(d, &train).unwrap();
        accuracy(&d.labels_for(&test), &model.predict(d, &test))
    }

    #[test]
    fn gaussian_blobs_learned() {
        let d = gaussian_blobs("b", 200, 4, 3, 0.8, 1);
        let nb = NaiveBayes { laplace: 1.0, adjust: 1.0 };
        assert!(holdout(&nb, &d) > 0.85);
    }

    #[test]
    fn categorical_data_learned() {
        let d = categorical_mixture("c", 400, 4, 0, 2, 3, 2);
        let nb = NaiveBayes { laplace: 1.0, adjust: 1.0 };
        assert!(holdout(&nb, &d) > 0.6);
    }

    #[test]
    fn sparse_counts_suit_nb() {
        // Bag-of-words-like data is naive Bayes home turf.
        let d = sparse_counts("s", 300, 40, 4, 40, 3);
        let nb = NaiveBayes { laplace: 1.0, adjust: 1.0 };
        assert!(holdout(&nb, &d) > 0.7);
    }

    #[test]
    fn probabilities_are_distributions() {
        let d = gaussian_blobs("b", 60, 2, 2, 1.0, 4);
        let rows = d.all_rows();
        let model = NaiveBayes { laplace: 0.5, adjust: 2.0 }.fit(&d, &rows).unwrap();
        for p in model.predict_proba(&d, &rows) {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn missing_values_skipped_not_fatal() {
        use smartml_data::Feature;
        let d = Dataset::new(
            "m",
            vec![Feature::Numeric {
                name: "x".into(),
                values: vec![0.0, 0.1, 5.0, 5.1, f64::NAN],
            }],
            vec![0, 0, 1, 1, 0],
            vec!["a".into(), "b".into()],
        )
        .unwrap();
        let model = NaiveBayes { laplace: 1.0, adjust: 1.0 }.fit(&d, &d.all_rows()).unwrap();
        let proba = model.predict_proba(&d, &[4]);
        assert!(proba[0].iter().all(|v| v.is_finite()));
    }

    #[test]
    fn from_config_clamps() {
        let nb = NaiveBayes::from_config(
            &ParamConfig::default().with("laplace", crate::params::ParamValue::Real(-5.0)),
        );
        assert_eq!(nb.laplace, 0.0);
        assert_eq!(nb.adjust, 1.0);
    }
}
