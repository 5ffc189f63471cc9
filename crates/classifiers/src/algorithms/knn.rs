//! k-nearest neighbours (paper: the `FNN` R package; 1 numeric parameter).

use super::encode::DenseEncoder;
use crate::api::{check_fit_preconditions, Classifier, ClassifierError, TrainedModel};
use crate::params::ParamConfig;
use smartml_data::Dataset;
use smartml_linalg::kernels;
use smartml_linalg::Matrix;

/// Brute-force k-NN over standardised dense features.
pub struct Knn {
    /// Number of neighbours.
    pub k: usize,
}

impl Knn {
    /// Builds from a [`ParamConfig`] (`k`).
    pub fn from_config(config: &ParamConfig) -> Self {
        Knn { k: config.i64_or("k", 5).max(1) as usize }
    }
}

struct TrainedKnn {
    encoder: DenseEncoder,
    x: Matrix,
    y: Vec<u32>,
    k: usize,
    n_classes: usize,
}

impl Classifier for Knn {
    fn name(&self) -> &'static str {
        "KNN"
    }

    fn fit(&self, data: &Dataset, rows: &[usize]) -> Result<Box<dyn TrainedModel>, ClassifierError> {
        let n_classes = check_fit_preconditions("KNN", data, rows, 2)?;
        let (encoder, x) = DenseEncoder::fit(data, rows, true);
        Ok(Box::new(TrainedKnn {
            encoder,
            x,
            y: data.labels_for(rows),
            k: self.k.min(rows.len()),
            n_classes,
        }))
    }
}

impl TrainedModel for TrainedKnn {
    fn predict_proba(&self, data: &Dataset, rows: &[usize]) -> Vec<Vec<f64>> {
        let xq = self.encoder.encode(data, rows);
        let n_train = self.x.rows();
        let mut out = Vec::with_capacity(rows.len());
        // (distance², train index) pairs, partially selected per query.
        let mut dists: Vec<(f64, usize)> = Vec::with_capacity(n_train);
        for q in 0..xq.rows() {
            dists.clear();
            let qrow = xq.row(q);
            for t in 0..n_train {
                let d2 = kernels::squared_distance(qrow, self.x.row(t));
                dists.push((d2, t));
            }
            let k = self.k.min(dists.len());
            dists.select_nth_unstable_by(k - 1, |a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut votes = vec![0.0; self.n_classes];
            for &(_, t) in &dists[..k] {
                votes[self.y[t] as usize] += 1.0;
            }
            let total: f64 = votes.iter().sum();
            for v in &mut votes {
                *v /= total;
            }
            out.push(votes);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_data::synth::{gaussian_blobs, two_spirals};
    use smartml_data::accuracy;

    fn holdout_accuracy(clf: &dyn Classifier, d: &Dataset) -> f64 {
        let (train, test): (Vec<usize>, Vec<usize>) = (0..d.n_rows()).partition(|i| i % 2 == 0);
        let model = clf.fit(d, &train).unwrap();
        accuracy(&d.labels_for(&test), &model.predict(d, &test))
    }

    #[test]
    fn blobs_high_accuracy() {
        let d = gaussian_blobs("b", 200, 3, 2, 0.5, 1);
        assert!(holdout_accuracy(&Knn { k: 5 }, &d) > 0.9);
    }

    #[test]
    fn spirals_knn_shines() {
        // Local method: spirals are easy for k-NN, unlike linear models.
        let d = two_spirals("s", 300, 0.05, 2);
        assert!(holdout_accuracy(&Knn { k: 3 }, &d) > 0.85);
    }

    #[test]
    fn k_larger_than_train_is_clamped() {
        let d = gaussian_blobs("b", 20, 2, 2, 0.5, 3);
        let rows = d.all_rows();
        let model = Knn { k: 1000 }.fit(&d, &rows).unwrap();
        let proba = model.predict_proba(&d, &[0]);
        assert!((proba[0].iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn k1_memorises_training_data() {
        let d = gaussian_blobs("b", 60, 3, 3, 1.0, 4);
        let rows = d.all_rows();
        let model = Knn { k: 1 }.fit(&d, &rows).unwrap();
        assert_eq!(accuracy(&d.labels_for(&rows), &model.predict(&d, &rows)), 1.0);
    }

    #[test]
    fn from_config_defaults() {
        let knn = Knn::from_config(&ParamConfig::default());
        assert_eq!(knn.k, 5);
    }
}
