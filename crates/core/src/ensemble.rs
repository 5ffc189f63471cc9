//! Weighted ensembling of the tuned finalists (paper §2: "a weighted
//! ensembling output of the top performing algorithms can be recommended
//! to the end user", citing Dietterich 2000).

use smartml_classifiers::TrainedModel;
use smartml_data::Dataset;
use std::sync::Arc;

/// A soft-vote ensemble: members' probability vectors are averaged with
/// validation-accuracy-derived weights.
pub struct WeightedEnsemble {
    members: Vec<(Arc<dyn TrainedModel>, f64)>,
    n_classes: usize,
}

impl WeightedEnsemble {
    /// Builds an ensemble from `(model, validation_accuracy)` pairs — boxed
    /// models, or `Arc`s the caller keeps using (the pipeline's winner is
    /// also a member). Weights are the accuracies normalised to sum to 1;
    /// non-positive accuracies contribute nothing.
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub fn new<M: Into<Arc<dyn TrainedModel>>>(members: Vec<(M, f64)>, n_classes: usize) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        let total: f64 = members.iter().map(|(_, a)| a.max(0.0)).sum();
        let n = members.len() as f64;
        let members = members
            .into_iter()
            .map(|(m, a)| (m.into(), if total > 1e-12 { a.max(0.0) / total } else { 1.0 / n }))
            .collect();
        WeightedEnsemble { members, n_classes }
    }

    /// Number of member models.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble has no members (never constructible).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The normalised member weights.
    pub fn weights(&self) -> Vec<f64> {
        self.members.iter().map(|(_, w)| *w).collect()
    }
}

impl TrainedModel for WeightedEnsemble {
    fn predict_proba(&self, data: &Dataset, rows: &[usize]) -> Vec<Vec<f64>> {
        let mut combined = vec![vec![0.0; self.n_classes]; rows.len()];
        for (model, weight) in &self.members {
            let proba = model.predict_proba(data, rows);
            for (acc, p) in combined.iter_mut().zip(proba) {
                for (a, v) in acc.iter_mut().zip(p) {
                    *a += weight * v;
                }
            }
        }
        // Weights sum to 1, so rows are already distributions; renormalise
        // defensively against member rounding.
        for row in &mut combined {
            let s: f64 = row.iter().sum();
            if s > 1e-12 {
                for v in row.iter_mut() {
                    *v /= s;
                }
            }
        }
        combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_classifiers::{Algorithm, ParamConfig};
    use smartml_data::accuracy;
    use smartml_data::synth::gaussian_blobs;

    #[test]
    fn ensemble_at_least_matches_weak_members() {
        let d = gaussian_blobs("b", 240, 4, 3, 1.2, 1);
        let (train, test): (Vec<usize>, Vec<usize>) = (0..240).partition(|i| i % 2 == 0);
        let members: Vec<(Box<dyn TrainedModel>, f64)> = [Algorithm::Knn, Algorithm::Rpart, Algorithm::Lda]
            .iter()
            .map(|a| {
                let model = a.build(&ParamConfig::default()).fit(&d, &train).unwrap();
                let acc = accuracy(&d.labels_for(&train), &model.predict(&d, &train));
                (model, acc)
            })
            .collect();
        let worst = members
            .iter()
            .map(|(m, _)| accuracy(&d.labels_for(&test), &m.predict(&d, &test)))
            .fold(f64::INFINITY, f64::min);
        let ensemble = WeightedEnsemble::new(members, d.n_classes());
        let ens_acc = accuracy(&d.labels_for(&test), &ensemble.predict(&d, &test));
        assert!(ens_acc >= worst - 0.02, "ensemble {ens_acc} vs worst member {worst}");
    }

    #[test]
    fn weights_normalised() {
        let d = gaussian_blobs("b", 60, 2, 2, 1.0, 2);
        let rows = d.all_rows();
        let m1 = Algorithm::Knn.build(&ParamConfig::default()).fit(&d, &rows).unwrap();
        let m2 = Algorithm::Rpart.build(&ParamConfig::default()).fit(&d, &rows).unwrap();
        let ens = WeightedEnsemble::new(vec![(m1, 0.9), (m2, 0.3)], 2);
        let w = ens.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[1]);
        assert_eq!(ens.len(), 2);
    }

    #[test]
    fn zero_accuracy_members_get_uniform_weights() {
        let d = gaussian_blobs("b", 40, 2, 2, 1.0, 3);
        let rows = d.all_rows();
        let m1 = Algorithm::Knn.build(&ParamConfig::default()).fit(&d, &rows).unwrap();
        let m2 = Algorithm::Rpart.build(&ParamConfig::default()).fit(&d, &rows).unwrap();
        let ens = WeightedEnsemble::new(vec![(m1, 0.0), (m2, 0.0)], 2);
        assert_eq!(ens.weights(), vec![0.5, 0.5]);
    }

    #[test]
    fn proba_rows_are_distributions() {
        let d = gaussian_blobs("b", 80, 3, 3, 1.0, 4);
        let rows = d.all_rows();
        let m1 = Algorithm::NaiveBayes.build(&ParamConfig::default()).fit(&d, &rows).unwrap();
        let ens = WeightedEnsemble::new(vec![(m1, 1.0)], 3);
        for p in ens.predict_proba(&d, &rows) {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
