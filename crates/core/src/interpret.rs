//! Model interpretability — the `iml` package substitute (paper §2:
//! "we have integrated the Interpretable Machine Learning (iml) package in
//! order to explain for the user the most important features").
//!
//! Permutation feature importance: a feature's importance is the validation
//! accuracy lost when its column is randomly permuted, breaking its
//! association with the label while preserving its marginal distribution.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smartml_classifiers::TrainedModel;
use smartml_data::{accuracy, Dataset, Feature};
use smartml_runtime::{task_seed, Pool};

/// One feature's importance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureImportance {
    /// Feature name.
    pub feature: String,
    /// Mean accuracy drop when the feature is permuted (can be slightly
    /// negative for pure-noise features).
    pub importance: f64,
}

/// Permutation importance of every feature, sorted most-important first.
///
/// `repeats` permutations per feature are averaged to tame shuffle noise.
pub fn permutation_importance(
    model: &dyn TrainedModel,
    data: &Dataset,
    rows: &[usize],
    repeats: usize,
    seed: u64,
) -> Vec<FeatureImportance> {
    permutation_importance_with(model, data, rows, repeats, seed, &Pool::serial())
}

/// [`permutation_importance`] with features scored on `pool`.
///
/// Each `(feature, repeat)` permutation draws from its own RNG seeded by
/// `task_seed(seed, feature * repeats + repeat)`, so the importances are
/// identical for any pool width (including the serial path).
pub fn permutation_importance_with(
    model: &dyn TrainedModel,
    data: &Dataset,
    rows: &[usize],
    repeats: usize,
    seed: u64,
    pool: &Pool,
) -> Vec<FeatureImportance> {
    let truth = data.labels_for(rows);
    let baseline = accuracy(&truth, &model.predict(data, rows));
    let repeats = repeats.max(1);
    let mut result: Vec<FeatureImportance> = pool.map_indexed(
        data.features().iter().enumerate().collect(),
        |_, (idx, feat)| {
            // One copy per feature: every repeat overwrites the cells of
            // `rows` in column `idx` with its shuffle of the original column,
            // so the copy holds exactly that one permutation each time.
            let mut permuted = data.clone();
            let mut shuffled = rows.to_vec();
            let mut drop_total = 0.0;
            for rep in 0..repeats {
                let mut rng =
                    StdRng::seed_from_u64(task_seed(seed, (idx * repeats + rep) as u64));
                shuffled.copy_from_slice(rows);
                shuffled.shuffle(&mut rng);
                permuted.copy_cells(idx, feat, rows, &shuffled);
                let permuted_acc = accuracy(&truth, &model.predict(&permuted, rows));
                drop_total += baseline - permuted_acc;
            }
            FeatureImportance {
                feature: feat.name().to_string(),
                importance: drop_total / repeats as f64,
            }
        },
    );
    result.sort_by(|a, b| b.importance.partial_cmp(&a.importance).unwrap());
    result
}

/// Per-prediction explanation: how much each feature contributed to the
/// model's class choice for one row.
///
/// Contribution of feature *j* is the drop in the predicted probability of
/// the chosen class when *j* is replaced by a neutral baseline (the mean of
/// the feature over `background_rows` for numerics, the mode for
/// categoricals) — a fast single-feature ablation in the spirit of iml's
/// Shapley/LIME views. Returned sorted by |contribution|, largest first.
pub fn explain_prediction(
    model: &dyn TrainedModel,
    data: &Dataset,
    row: usize,
    background_rows: &[usize],
) -> Vec<FeatureImportance> {
    let base_proba = model.predict_proba(data, &[row]);
    let chosen = smartml_linalg::vecops::argmax(&base_proba[0]).unwrap_or(0);
    let base_p = base_proba[0][chosen];
    // One working copy per call: each feature overwrites the explained
    // row's cell with its neutral value and restores it from `data`.
    let mut working = data.clone();
    let mut contributions: Vec<FeatureImportance> = data
        .features()
        .iter()
        .enumerate()
        .map(|(idx, feat)| {
            working.copy_cells(idx, &neutral_cell(feat, background_rows), &[row], &[0]);
            let p = model.predict_proba(&working, &[row])[0][chosen];
            working.copy_cells(idx, feat, &[row], &[row]);
            FeatureImportance { feature: feat.name().to_string(), importance: base_p - p }
        })
        .collect();
    contributions.sort_by(|a, b| b.importance.abs().partial_cmp(&a.importance.abs()).unwrap());
    contributions
}

/// A one-cell column of `feat`'s kind holding its neutral value over
/// `background_rows`: the mean of the present values for a numeric, the
/// modal level for a categorical. Only the cell is read, so it carries no
/// name or levels.
fn neutral_cell(feat: &Feature, background_rows: &[usize]) -> Feature {
    match feat {
        Feature::Numeric { values, .. } => {
            let background: Vec<f64> =
                background_rows.iter().map(|&r| values[r]).filter(|v| !v.is_nan()).collect();
            Feature::Numeric {
                name: String::new(),
                values: vec![smartml_linalg::vecops::mean(&background)],
            }
        }
        Feature::Categorical { codes, levels, .. } => {
            let mut counts = vec![0usize; levels.len()];
            for &r in background_rows {
                let c = codes[r];
                if c != smartml_data::dataset::MISSING_CODE {
                    counts[c as usize] += 1;
                }
            }
            let mode =
                counts.iter().enumerate().max_by_key(|(_, &c)| c).map_or(0, |(i, _)| i as u32);
            Feature::Categorical { name: String::new(), codes: vec![mode], levels: Vec::new() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_classifiers::{Algorithm, ParamConfig};
    use smartml_data::synth::xor_parity;

    #[test]
    fn informative_features_rank_first() {
        // 2 informative + 4 noise dimensions; a forest solves it and the
        // informative features should top the importance ranking.
        let d = xor_parity("x", 400, 2, 4, 0.0, 1);
        let rows = d.all_rows();
        let model = Algorithm::RandomForest
            .build(&ParamConfig::default().with("ntree", smartml_classifiers::ParamValue::Int(60)))
            .fit(&d, &rows)
            .unwrap();
        let imp = permutation_importance(model.as_ref(), &d, &rows, 3, 7);
        assert_eq!(imp.len(), 6);
        let top2: Vec<&str> = imp[..2].iter().map(|f| f.feature.as_str()).collect();
        assert!(top2.contains(&"f0") && top2.contains(&"f1"), "{top2:?}");
        // Informative importances clearly above noise importances.
        assert!(imp[0].importance > 0.1);
        assert!(imp[0].importance > imp[3].importance + 0.05);
    }

    #[test]
    fn importances_near_zero_for_pure_noise_model() {
        let d = xor_parity("x", 200, 1, 3, 0.0, 2);
        let rows = d.all_rows();
        let model = Algorithm::Knn.build(&ParamConfig::default()).fit(&d, &rows).unwrap();
        let imp = permutation_importance(model.as_ref(), &d, &rows, 2, 3);
        // Noise features (f1..f3) hover near zero.
        for fi in imp.iter().filter(|f| f.feature != "f0") {
            assert!(fi.importance.abs() < 0.2, "{}: {}", fi.feature, fi.importance);
        }
    }

    /// Explanation as it was: a fresh copy of the whole dataset per
    /// feature, with the explained row's cell replaced.
    fn explanation_copy_per_feature(
        model: &dyn TrainedModel,
        data: &Dataset,
        row: usize,
        background_rows: &[usize],
    ) -> Vec<FeatureImportance> {
        let base_proba = model.predict_proba(data, &[row]);
        let chosen = smartml_linalg::vecops::argmax(&base_proba[0]).unwrap_or(0);
        let mut out: Vec<FeatureImportance> = (0..data.n_features())
            .map(|idx| {
                let features = data
                    .features()
                    .iter()
                    .enumerate()
                    .map(|(i, feat)| match feat {
                        Feature::Numeric { name, values } if i == idx => {
                            let background: Vec<f64> = background_rows
                                .iter()
                                .map(|&r| values[r])
                                .filter(|v| !v.is_nan())
                                .collect();
                            let mut new_values = values.clone();
                            new_values[row] = smartml_linalg::vecops::mean(&background);
                            Feature::Numeric { name: name.clone(), values: new_values }
                        }
                        Feature::Categorical { name, codes, levels } if i == idx => {
                            let mut counts = vec![0usize; levels.len()];
                            for &r in background_rows {
                                if codes[r] != smartml_data::dataset::MISSING_CODE {
                                    counts[codes[r] as usize] += 1;
                                }
                            }
                            let mode = counts
                                .iter()
                                .enumerate()
                                .max_by_key(|(_, &c)| c)
                                .map_or(0, |(i, _)| i as u32);
                            let mut new_codes = codes.clone();
                            new_codes[row] = mode;
                            Feature::Categorical {
                                name: name.clone(),
                                codes: new_codes,
                                levels: levels.clone(),
                            }
                        }
                        other => other.clone(),
                    })
                    .collect();
                let p = model.predict_proba(&data.with_features(features), &[row])[0][chosen];
                FeatureImportance {
                    feature: data.features()[idx].name().to_string(),
                    importance: base_proba[0][chosen] - p,
                }
            })
            .collect();
        out.sort_by(|a, b| b.importance.abs().partial_cmp(&a.importance.abs()).unwrap());
        out
    }

    /// `explain_prediction` equals the copy-per-feature explanation bit for
    /// bit: a missed restore would leak one feature's neutral value into the
    /// next feature's prediction.
    fn assert_matches_copy_per_feature(
        model: &dyn TrainedModel,
        data: &Dataset,
        row: usize,
        background_rows: &[usize],
    ) -> Vec<FeatureImportance> {
        let got = explain_prediction(model, data, row, background_rows);
        let want = explanation_copy_per_feature(model, data, row, background_rows);
        let bits = |v: &[FeatureImportance]| {
            v.iter().map(|f| (f.feature.clone(), f.importance.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(&got), bits(&want), "row {row}");
        got
    }

    #[test]
    fn explanation_flags_the_informative_feature() {
        let d = xor_parity("x", 300, 1, 4, 0.0, 5);
        let rows = d.all_rows();
        let model = Algorithm::RandomForest
            .build(&ParamConfig::default())
            .fit(&d, &rows)
            .unwrap();
        // Explain several confident predictions; the informative feature f0
        // must dominate most explanations.
        let mut f0_top = 0usize;
        let checked = 10usize;
        for &r in rows.iter().take(checked) {
            let exp = assert_matches_copy_per_feature(model.as_ref(), &d, r, &rows);
            assert_eq!(exp.len(), 5);
            if exp[0].feature == "f0" {
                f0_top += 1;
            }
        }
        assert!(f0_top >= 7, "f0 topped only {f0_top}/{checked} explanations");
    }

    #[test]
    fn explanation_contributions_are_bounded() {
        let d = xor_parity("x", 150, 1, 2, 0.0, 6);
        let rows = d.all_rows();
        let model = Algorithm::Knn.build(&ParamConfig::default()).fit(&d, &rows).unwrap();
        let exp = assert_matches_copy_per_feature(model.as_ref(), &d, 0, &rows);
        for fi in &exp {
            assert!((-1.0..=1.0).contains(&fi.importance), "{}: {}", fi.feature, fi.importance);
        }
        // Sorted by |contribution| descending.
        for w in exp.windows(2) {
            assert!(w[0].importance.abs() >= w[1].importance.abs() - 1e-12);
        }
    }

    #[test]
    fn explanation_matches_copy_per_feature_on_categoricals() {
        let d = smartml_data::synth::categorical_mixture("c", 240, 3, 3, 3, 4, 5);
        let background: Vec<usize> = (0..d.n_rows()).filter(|r| r % 3 != 0).collect();
        for alg in [Algorithm::NaiveBayes, Algorithm::Rpart, Algorithm::Knn] {
            let model = alg.build(&ParamConfig::default()).fit(&d, &background).unwrap();
            for row in [0, 3, 7, 100] {
                assert_matches_copy_per_feature(model.as_ref(), &d, row, &background);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = xor_parity("x", 150, 1, 2, 0.0, 4);
        let rows = d.all_rows();
        let model = Algorithm::Rpart.build(&ParamConfig::default()).fit(&d, &rows).unwrap();
        let a = permutation_importance(model.as_ref(), &d, &rows, 2, 9);
        let b = permutation_importance(model.as_ref(), &d, &rows, 2, 9);
        assert_eq!(
            a.iter().map(|f| (f.feature.clone(), f.importance)).collect::<Vec<_>>(),
            b.iter().map(|f| (f.feature.clone(), f.importance)).collect::<Vec<_>>()
        );
    }

    /// Permutation importance as it was: a fresh copy of the whole dataset
    /// per (feature, repeat).
    fn importances_copy_per_repeat(
        model: &dyn TrainedModel,
        data: &Dataset,
        rows: &[usize],
        repeats: usize,
        seed: u64,
    ) -> Vec<f64> {
        let truth = data.labels_for(rows);
        let baseline = accuracy(&truth, &model.predict(data, rows));
        (0..data.n_features())
            .map(|idx| {
                let mut drop_total = 0.0;
                for rep in 0..repeats {
                    let mut rng =
                        StdRng::seed_from_u64(task_seed(seed, (idx * repeats + rep) as u64));
                    let mut shuffled = rows.to_vec();
                    shuffled.shuffle(&mut rng);
                    let features = data
                        .features()
                        .iter()
                        .enumerate()
                        .map(|(i, feat)| match feat {
                            Feature::Numeric { name, values } if i == idx => {
                                let mut new_values = values.clone();
                                for (&dst, &src) in rows.iter().zip(&shuffled) {
                                    new_values[dst] = values[src];
                                }
                                Feature::Numeric { name: name.clone(), values: new_values }
                            }
                            Feature::Categorical { name, codes, levels } if i == idx => {
                                let mut new_codes = codes.clone();
                                for (&dst, &src) in rows.iter().zip(&shuffled) {
                                    new_codes[dst] = codes[src];
                                }
                                Feature::Categorical {
                                    name: name.clone(),
                                    codes: new_codes,
                                    levels: levels.clone(),
                                }
                            }
                            other => other.clone(),
                        })
                        .collect();
                    let permuted = data.with_features(features);
                    drop_total += baseline - accuracy(&truth, &model.predict(&permuted, rows));
                }
                drop_total / repeats as f64
            })
            .collect()
    }

    #[test]
    fn one_copy_per_feature_gives_the_copy_per_repeat_importances() {
        let d = smartml_data::synth::categorical_mixture("c", 240, 3, 3, 3, 4, 5);
        // A held-out subset, out of order and with a repeated row.
        let mut rows: Vec<usize> = (0..d.n_rows()).rev().filter(|r| r % 3 == 0).collect();
        rows.push(rows[4]);
        let train: Vec<usize> = (0..d.n_rows()).filter(|r| r % 3 != 0).collect();
        for alg in [Algorithm::Lda, Algorithm::NaiveBayes, Algorithm::Rpart] {
            let model = alg.build(&ParamConfig::default()).fit(&d, &train).unwrap();
            let mut expected = importances_copy_per_repeat(model.as_ref(), &d, &rows, 3, 17);
            let got = permutation_importance(model.as_ref(), &d, &rows, 3, 17);
            // `got` is sorted; compare by feature name.
            for fi in &got {
                let idx = d.features().iter().position(|f| f.name() == fi.feature).unwrap();
                assert_eq!(fi.importance.to_bits(), expected[idx].to_bits(), "{alg} {}", fi.feature);
                expected[idx] = f64::NAN;
            }
        }
    }

    #[test]
    fn pool_width_does_not_change_importances() {
        let d = xor_parity("x", 200, 2, 3, 0.0, 8);
        let rows = d.all_rows();
        let model = Algorithm::RandomForest
            .build(&ParamConfig::default())
            .fit(&d, &rows)
            .unwrap();
        let flatten = |v: &[FeatureImportance]| {
            v.iter().map(|f| (f.feature.clone(), f.importance)).collect::<Vec<_>>()
        };
        let serial = permutation_importance_with(model.as_ref(), &d, &rows, 3, 11, &Pool::serial());
        for threads in [2, 8] {
            let par =
                permutation_importance_with(model.as_ref(), &d, &rows, 3, 11, &Pool::new(threads));
            assert_eq!(flatten(&serial), flatten(&par), "pool width {threads} diverged");
        }
    }
}
