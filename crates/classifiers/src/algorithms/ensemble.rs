//! Bootstrap-ensemble classifiers: Bagging (ipred) and RandomForest
//! (randomForest).

use crate::api::{check_fit_preconditions, Classifier, ClassifierError, TrainedModel};
use crate::common::split::{BinnedColumns, RankedBase};
use crate::common::tree::{DecisionTree, Pruning, SplitCriterion, TreeConfig};
use crate::params::ParamConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartml_data::Dataset;

/// Bagging — bootstrap-aggregated CART trees.
/// Paper space: 0 categorical + 5 numeric
/// (`nbagg`, `maxdepth`, `minsplit`, `minbucket`, `cp`).
pub struct BaggingClassifier {
    /// Number of bootstrap trees.
    pub nbagg: usize,
    /// Per-tree maximum depth.
    pub maxdepth: usize,
    /// Per-tree minimum split size.
    pub minsplit: f64,
    /// Per-tree minimum leaf size.
    pub minbucket: f64,
    /// Per-tree complexity parameter.
    pub cp: f64,
    /// Histogram bins for numeric splits, shared by every tree in the
    /// bag (0 = exact presorted kernel). Deployment knob, not part of
    /// the paper's tuning space.
    pub max_bins: usize,
}

impl BaggingClassifier {
    /// Builds from a [`ParamConfig`].
    pub fn from_config(config: &ParamConfig) -> Self {
        BaggingClassifier {
            nbagg: config.i64_or("nbagg", 25).clamp(1, 500) as usize,
            maxdepth: config.i64_or("maxdepth", 30).clamp(1, 40) as usize,
            minsplit: config.i64_or("minsplit", 2).max(2) as f64,
            minbucket: config.i64_or("minbucket", 1).max(1) as f64,
            cp: config.f64_or("cp", 0.01).max(0.0),
            max_bins: config.i64_or("max_bins", 0).clamp(0, 255) as usize,
        }
    }
}

/// RandomForest — bagging + per-split feature subsampling.
/// Paper space: 0 categorical + 3 numeric (`ntree`, `mtry`, `nodesize`).
pub struct RandomForest {
    /// Number of trees.
    pub ntree: usize,
    /// Features sampled per split (clamped to the feature count at fit).
    pub mtry: usize,
    /// Minimum leaf size.
    pub nodesize: f64,
    /// Histogram bins for numeric splits, shared by the whole forest
    /// (0 = exact presorted kernel). Deployment knob, not part of the
    /// paper's tuning space.
    pub max_bins: usize,
}

impl RandomForest {
    /// Builds from a [`ParamConfig`].
    pub fn from_config(config: &ParamConfig) -> Self {
        RandomForest {
            ntree: config.i64_or("ntree", 100).clamp(1, 1000) as usize,
            mtry: config.i64_or("mtry", 0).max(0) as usize, // 0 = sqrt(d) at fit
            nodesize: config.i64_or("nodesize", 1).max(1) as f64,
            max_bins: config.i64_or("max_bins", 0).clamp(0, 255) as usize,
        }
    }
}

/// Shared trained form: average of per-tree probability estimates.
struct TreeEnsemble {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl TrainedModel for TreeEnsemble {
    fn predict_proba(&self, data: &Dataset, rows: &[usize]) -> Vec<Vec<f64>> {
        rows.iter()
            .map(|&r| {
                let mut avg = vec![0.0; self.n_classes];
                for tree in &self.trees {
                    for (a, p) in avg.iter_mut().zip(tree.row_proba(data, r)) {
                        *a += p;
                    }
                }
                let scale = 1.0 / self.trees.len() as f64;
                for a in &mut avg {
                    *a *= scale;
                }
                avg
            })
            .collect()
    }
}

/// Bootstrap picks: indices into `rows`, n draws with replacement. Kept as
/// indices so the shared [`RankedBase`] can serve each resample's value
/// ranks (or sorted columns) without re-sorting anything.
fn bootstrap_picks(n: usize, rng: &mut StdRng) -> Vec<u32> {
    (0..n).map(|_| rng.gen_range(0..n) as u32).collect()
}

fn fit_ensemble(
    data: &Dataset,
    rows: &[usize],
    n_trees: usize,
    max_bins: usize,
    make_config: impl Fn(u64) -> TreeConfig,
    seed: u64,
) -> TreeEnsemble {
    let mut rng = StdRng::seed_from_u64(seed);
    // Work shared across the whole ensemble instead of rebuilt per tree:
    // unit weights, the numeric quantisation (binned path), and the value
    // ranks every tree's exact kernel reads (rank-radix when the config
    // subsamples features, counting-sorted columns when it scores all of
    // them).
    let weights = vec![1.0; data.n_rows()];
    let bins = (max_bins >= 2).then(|| BinnedColumns::fit(data, rows, max_bins));
    let base = (max_bins < 2).then(|| RankedBase::build(data, rows));
    let d = data.n_features().max(1);
    let mut trees = Vec::with_capacity(n_trees);
    for t in 0..n_trees {
        // Cooperative cancellation: an expired trial keeps the partial
        // forest (at least one tree) instead of running out the clock —
        // the trial guard still classifies it as timed out.
        if t > 0 && smartml_runtime::faults::trial_should_stop() {
            break;
        }
        let picks = bootstrap_picks(rows.len(), &mut rng);
        let sample: Vec<usize> = picks.iter().map(|&p| rows[p as usize]).collect();
        let config = make_config(t as u64);
        trees.push(match &bins {
            Some(b) => DecisionTree::fit_weighted_binned(data, &sample, &weights, &config, b),
            None => {
                let base = base.as_ref().expect("exact path has a ranked base");
                if config.mtry.unwrap_or(d).clamp(1, d) < d {
                    DecisionTree::fit_weighted_ranked(data, &sample, &weights, &config, base, &picks)
                } else {
                    let sorted = base.resample(&picks);
                    DecisionTree::fit_weighted_with_sorted(data, &sample, &weights, &config, sorted)
                }
            }
        });
    }
    TreeEnsemble { trees, n_classes: data.n_classes() }
}

impl Classifier for BaggingClassifier {
    fn name(&self) -> &'static str {
        "Bagging"
    }

    fn fit(&self, data: &Dataset, rows: &[usize]) -> Result<Box<dyn TrainedModel>, ClassifierError> {
        check_fit_preconditions("Bagging", data, rows, 2)?;
        let ensemble = fit_ensemble(
            data,
            rows,
            self.nbagg,
            self.max_bins,
            |t| TreeConfig {
                criterion: SplitCriterion::Gini,
                max_depth: self.maxdepth,
                min_split: self.minsplit,
                min_leaf: self.minbucket,
                cp: self.cp,
                mtry: None,
                seed: t,
                pruning: Pruning::None,
                max_bins: 0,
            },
            0xBA66,
        );
        Ok(Box::new(ensemble))
    }
}

impl Classifier for RandomForest {
    fn name(&self) -> &'static str {
        "RandomForest"
    }

    fn fit(&self, data: &Dataset, rows: &[usize]) -> Result<Box<dyn TrainedModel>, ClassifierError> {
        check_fit_preconditions("RandomForest", data, rows, 2)?;
        let d = data.n_features();
        let mtry = if self.mtry == 0 {
            ((d as f64).sqrt().round() as usize).clamp(1, d)
        } else {
            self.mtry.clamp(1, d)
        };
        let ensemble = fit_ensemble(
            data,
            rows,
            self.ntree,
            self.max_bins,
            |t| TreeConfig {
                criterion: SplitCriterion::Gini,
                max_depth: 40,
                min_split: 2.0 * self.nodesize,
                min_leaf: self.nodesize,
                cp: 0.0,
                mtry: Some(mtry),
                seed: 0xF0 ^ t,
                pruning: Pruning::None,
                max_bins: 0,
            },
            0xF04E57,
        );
        Ok(Box::new(ensemble))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_data::accuracy;
    use smartml_data::synth::{gaussian_blobs, xor_parity};

    fn holdout(clf: &dyn Classifier, d: &Dataset) -> f64 {
        let (train, test): (Vec<usize>, Vec<usize>) = (0..d.n_rows()).partition(|i| i % 2 == 0);
        let model = clf.fit(d, &train).unwrap();
        accuracy(&d.labels_for(&test), &model.predict(d, &test))
    }

    #[test]
    fn bagging_learns_blobs() {
        let d = gaussian_blobs("b", 200, 4, 3, 1.0, 1);
        let bag = BaggingClassifier::from_config(&ParamConfig::default());
        assert!(holdout(&bag, &d) > 0.85);
    }

    #[test]
    fn forest_learns_noisy_xor() {
        let d = xor_parity("x", 500, 2, 6, 0.05, 2);
        let rf = RandomForest { ntree: 60, mtry: 3, nodesize: 1.0, max_bins: 0 };
        let acc = holdout(&rf, &d);
        assert!(acc > 0.7, "acc {acc}");
    }

    #[test]
    fn forest_beats_or_matches_single_tree_on_noise() {
        let d = xor_parity("x", 400, 2, 15, 0.1, 3);
        let rf = RandomForest { ntree: 50, mtry: 0, nodesize: 1.0, max_bins: 0 };
        let single = crate::algorithms::RpartClassifier::from_config(&ParamConfig::default());
        let a_rf = holdout(&rf, &d);
        let a_tree = holdout(&single, &d);
        assert!(a_rf + 0.05 >= a_tree, "forest {a_rf} vs tree {a_tree}");
    }

    #[test]
    fn deterministic_across_fits() {
        let d = gaussian_blobs("b", 100, 3, 2, 1.0, 4);
        let rows = d.all_rows();
        let rf = RandomForest { ntree: 10, mtry: 2, nodesize: 1.0, max_bins: 0 };
        let m1 = rf.fit(&d, &rows).unwrap();
        let m2 = rf.fit(&d, &rows).unwrap();
        assert_eq!(m1.predict(&d, &rows), m2.predict(&d, &rows));
    }

    #[test]
    fn probabilities_valid() {
        let d = gaussian_blobs("b", 80, 2, 3, 1.5, 5);
        let rows = d.all_rows();
        let model = BaggingClassifier::from_config(&ParamConfig::default()).fit(&d, &rows).unwrap();
        for p in model.predict_proba(&d, &rows) {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn mtry_zero_means_sqrt_d() {
        let rf = RandomForest::from_config(&ParamConfig::default());
        assert_eq!(rf.mtry, 0); // resolved at fit time
    }

    #[test]
    fn forest_matches_naive_oracle_exactly() {
        // The exact presorted kernel must reproduce the retained naive
        // oracle bit-for-bit through a whole bootstrap forest.
        use crate::common::tree::oracle;
        let d = gaussian_blobs("b", 300, 8, 3, 1.2, 21);
        let rows = d.all_rows();
        let rf = RandomForest { ntree: 12, mtry: 3, nodesize: 1.0, max_bins: 0 };
        let model = rf.fit(&d, &rows).unwrap();
        // Replay fit_ensemble's bootstrap stream with oracle-grown trees.
        let mut rng = StdRng::seed_from_u64(0xF04E57);
        let trees: Vec<DecisionTree> = (0..12)
            .map(|t| {
                let sample: Vec<usize> =
                    bootstrap_picks(rows.len(), &mut rng).iter().map(|&p| rows[p as usize]).collect();
                oracle::fit(
                    &d,
                    &sample,
                    &TreeConfig {
                        criterion: SplitCriterion::Gini,
                        max_depth: 40,
                        min_split: 2.0,
                        min_leaf: 1.0,
                        cp: 0.0,
                        mtry: Some(3),
                        seed: 0xF0 ^ t,
                        pruning: Pruning::None,
                        max_bins: 0,
                    },
                )
            })
            .collect();
        let reference = TreeEnsemble { trees, n_classes: d.n_classes() };
        assert_eq!(model.predict_proba(&d, &rows), reference.predict_proba(&d, &rows));
    }

    #[test]
    fn binned_quantisation_identical_across_pool_widths() {
        use crate::common::split::BinnedColumns;
        use smartml_runtime::Pool;
        let d = gaussian_blobs("b", 400, 6, 3, 1.0, 22);
        let rows = d.all_rows();
        let b1 = BinnedColumns::fit_with(&d, &rows, 32, &Pool::serial());
        for width in [1, 8] {
            let bw = BinnedColumns::fit_with(&d, &rows, 32, &Pool::new(width));
            for (c1, cw) in b1.cols.iter().zip(&bw.cols) {
                let (c1, cw) = (c1.as_ref().unwrap(), cw.as_ref().unwrap());
                assert_eq!(c1.edges, cw.edges, "width {width}");
                assert_eq!(c1.codes, cw.codes, "width {width}");
            }
        }
    }

    #[test]
    fn binned_forest_deterministic_and_learns() {
        let d = gaussian_blobs("b", 300, 4, 3, 1.0, 23);
        let rows = d.all_rows();
        let rf = RandomForest { ntree: 20, mtry: 2, nodesize: 1.0, max_bins: 32 };
        let m1 = rf.fit(&d, &rows).unwrap();
        let m2 = rf.fit(&d, &rows).unwrap();
        assert_eq!(m1.predict_proba(&d, &rows), m2.predict_proba(&d, &rows));
        // Exact-path RF scores ~0.82 on this split; binned must stay in family.
        assert!(holdout(&rf, &d) > 0.8);
    }
}
